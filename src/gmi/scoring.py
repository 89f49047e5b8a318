"""Composite scoring: min-max normalization, equal-weight aggregation,
maturity classification.

The pipeline has four steps: per-indicator min-max scaling across the
program cohort, equal-weight aggregation inside each category (the rubric
channel counts as one element), a second min-max pass over the category
scores, and the composite as the plain sum of the six normalized category
scores (range 0..6).  Both min-max passes run through one column routine:
``ingest.column_bounds`` finds each column's bounds once, and applies the
overflow rule, and ``minmax_normalize`` only scales between them.

Columns are position-indexed: a column is a list of cells in program
order (the order of the datasets, or of the category-score map), and the
column routine returns its audit records in the same order, so every
per-program row is read by transposing columns with ``zip``, never by
program name.

Cells repeat down a column, so the column routine takes a column's
distinct cells, each under a key, and each program's key; it hands
``column_bounds`` and ``minmax_normalize`` one map of the distinct cells'
values per column and builds one frozen ``AuditRecord`` per distinct
cell, shared by every program with its key.  ``score_datasets`` keys a
cell by its Observation's identity: ingest reads identical lines into one
shared Observation, so records are shared per distinct observation line,
and two different lines with equal cells (``5`` and ``5|headcount``) get
equal but separate records.  ``compute_gmi`` keys each category cell by
the cell itself.  ``score_datasets`` sends every observed column through the
routine, scorable or not, and returns the results with a ``ScoreMatrix``
that reads its ``entries`` from them on each access.  Each result holds
its own category inputs in ``category_scores``.

Layer order: this module sits above ``ingest`` and below ``report``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Hashable, Mapping, Sequence
from enum import Enum
from itertools import chain, repeat
from operator import itemgetter

from . import rubric
from .errors import EmptyCategory, ParseError, PartialDataError, UnknownIndicator
from .ingest import (EXCLUSION_REASONS, ProgramDataset, Qualifier, check_distinct_programs,
                     column_bounds, scoring_status)
from .schema import CATEGORIES, Category, Direction, Schema, read_number, read_records

#: Width of the composite range: six categories, each normalized to [0, 1].
CATEGORY_COUNT = 6

_EPS = 1e-9

# Members compared per column or per program, bound once: on Python 3.10
# and 3.11 a read such as ``Direction.LOWER_BETTER`` runs Python code.
_HIGHER_BETTER, _LOWER_BETTER, _DEFAULT = (
    Direction.HIGHER_BETTER, Direction.LOWER_BETTER, Direction.DEFAULT)
_EXACT = Qualifier.EXACT


class Stage(Enum):
    EXPERIMENTAL = "Experimental"
    FOUNDATIONAL = "Foundational"
    DEVELOPMENTAL = "Developmental"
    ADVANCED = "Advanced"


# Four equal quartiles of [0, 6], half-open below the top.
_STAGE_THRESHOLDS: tuple[tuple[float, Stage], ...] = (
    (1.5, Stage.EXPERIMENTAL),
    (3.0, Stage.FOUNDATIONAL),
    (4.5, Stage.DEVELOPMENTAL),
)


Excluded = namedtuple("Excluded", ("reason",))  # missing | non-scorable | token-unconverted
AuditRecord = namedtuple("AuditRecord", (
    "indicator", "raw", "minimum", "maximum", "score", "exclusion", "qualifier"))


# Excluded is immutable, so each reason has one shared instance.
_EXCLUDED = {reason: Excluded(reason) for reason in EXCLUSION_REASONS}

# The cell of a program that has no observation of an indicator, or no score in a category.
_ABSENT_CELL = (None, "missing", "n.a.", Qualifier.UNSPECIFIED)


GmiResult = namedtuple("GmiResult", (
    "program", "category_scores", "normalized_category_scores", "gmi", "stage", "audit"))


#: Builds a record from complete fields, skipping the keyword binding.
_new = tuple.__new__
_SCORE = itemgetter(AuditRecord._fields.index("score"))


class ScoreMatrix(namedtuple("ScoreMatrix", ("results",))):
    """The cohort's indicator scores keyed by ``(program, indicator id)``,
    read from *results* on each access of ``entries``.

    Each result's audit trail is its indicator records followed by its
    ``CATEGORY_COUNT`` category records, so ``entries`` reads the former.
    """
    __slots__ = ()

    @property
    def entries(self) -> dict[tuple[str, str], float | Excluded]:
        return {
            (result.program, record.indicator):
                record.score if record.exclusion is None else _EXCLUDED[record.exclusion]
            for result in self.results
            for record in result.audit[:-CATEGORY_COUNT]
        }


def minmax_normalize(values: Mapping[Hashable, float | None], *,
                     lo: float | None, hi: float | None) -> dict[Hashable, float | None]:
    """Scale each of *values*, keyed by program or by distinct cell, between
    the column's bounds *lo* and *hi* as ``column_bounds`` finds them.

    A missing entry maps to None.  When the column is degenerate (no value
    present, or all present values equal) every present value maps to the
    neutral midpoint 0.5.
    """
    if hi is None or hi <= lo:
        return {key: None if value is None else 0.5 for key, value in values.items()}
    return {key: None if value is None else (value - lo) / (hi - lo)
            for key, value in values.items()}


def directional_score(normalized: float, direction: Direction) -> float:
    """Identity for higher-better and default, reflection for lower-better."""
    if direction is _DEFAULT or direction is _HIGHER_BETTER:
        return normalized
    if direction is _LOWER_BETTER:
        return 1.0 - normalized
    raise ValueError("direction must be higher-better, lower-better or default")


def classify_maturity(gmi: float) -> Stage:
    if not -_EPS <= gmi <= CATEGORY_COUNT + _EPS:
        raise ValueError(f"composite {gmi} outside [0, {CATEGORY_COUNT}]")
    for upper, stage in _STAGE_THRESHOLDS:
        if gmi < upper:
            return stage
    return Stage.ADVANCED


def _format_score(x: float) -> str:
    return format(x, ".4f")


def _score_column(
    indicator: str,
    cells: Mapping[Hashable, tuple[float | None, str | None, str, Qualifier]],
    keys: Sequence[Hashable],
    direction: Direction = Direction.HIGHER_BETTER,
) -> list[AuditRecord]:
    """Min-max one column across the cohort; both passes use this.

    *cells* maps each distinct key to its cell: value, exclusion reason,
    raw text and qualifier; the value is None exactly when the reason is
    not.  *keys* holds each program's key, in program order.  Returns each
    program's audit record in the same order, holding its directed score or
    its exclusion and the column's bounds.  Each distinct cell is
    normalised once and gets one record, shared by every program with its
    key.  Raises ParseError when the column's range overflows a float
    (``column_bounds``).
    """
    values = {key: cell[0] for key, cell in cells.items()}
    lo, hi = column_bounds(indicator, values.values())
    # Distinct cells keep their first program's order, so the bounds, and
    # which of 0.0 and -0.0 is one, are those of the whole column.
    records = {}
    for key, score in minmax_normalize(values, lo=lo, hi=hi).items():
        _, reason, raw, qualifier = cells[key]
        records[key] = _new(AuditRecord, (indicator, raw, lo, hi,
                                          None if reason else directional_score(score, direction),
                                          reason, qualifier))
    return list(map(records.__getitem__, keys))


def _rows(columns: list[list], count: int):
    """Each of *count* programs' entries across position-aligned *columns*."""
    return zip(*columns) if columns else repeat((), count)


def compute_gmi(category_scores: Mapping[str, Mapping[Category, float]],
                allow_partial: bool = False) -> dict[str, GmiResult]:
    """Normalize category scores across programs and sum into composites.

    Without allow_partial, every program must carry all six categories;
    otherwise PartialDataError lists the absent (program, category) pairs.
    With allow_partial, a program's composite is rescaled by
    6 / (present category count).
    """
    if not category_scores:
        raise ValueError("at least one program is required")
    programs = list(category_scores)
    rows = list(category_scores.values())
    missing = [
        (program, cat.code)
        for program, scores in zip(programs, rows)
        for cat in CATEGORIES
        if cat not in scores
    ]
    if missing and not allow_partial:
        raise PartialDataError(missing)

    columns = []
    for cat in CATEGORIES:
        # The whole cell is the key: its text keeps 0.0 and -0.0 apart,
        # which compare equal as floats yet print differently.
        cells = []
        for scores in rows:
            value = scores.get(cat)
            cells.append(_ABSENT_CELL if value is None
                         else (value, None, _format_score(value), _EXACT))
        columns.append(_score_column(cat.roll_up, dict(zip(cells, cells)), cells))

    results: dict[str, GmiResult] = {}
    # zip(*columns) gives each program's six category records in order.
    for program, scores, audit in zip(programs, rows, zip(*columns)):
        per_cat = {cat: record.score for cat, record in zip(CATEGORIES, audit)
                   if record.exclusion is None}
        if not per_cat:
            raise EmptyCategory(f"program {program!r} has no category scores")
        gmi = math.fsum(per_cat.values())
        if len(per_cat) < CATEGORY_COUNT:
            gmi *= CATEGORY_COUNT / len(per_cat)
        results[program] = _new(GmiResult, (program, {cat: scores[cat] for cat in per_cat},
                                             per_cat, gmi, classify_maturity(gmi), audit))
    return results


# ---------------------------------------------------------------------------
# Raw-indicator pipeline
# ---------------------------------------------------------------------------


def score_datasets(
    datasets: Sequence[ProgramDataset],
    schema: Schema,
    rates: Mapping[str, float] | None = None,
    allow_partial: bool = False,
) -> tuple[ScoreMatrix, list[GmiResult]]:
    """Full pipeline from typed observations and builtin-survey answers to composites.

    Program order follows the input order throughout: every column, every
    per-program list and the results are aligned with *datasets*.  The
    matrix reads its map from the results on each access.
    """
    check_distinct_programs([ds.program for ds in datasets])
    observations = [ds.observations for ds in datasets]
    observed_ids = dict.fromkeys(chain.from_iterable(observations))

    # One list per observed indicator, aligned with *datasets*; an
    # unscorable column holds None where a program has no row.
    columns: list[list[AuditRecord | None]] = []
    # The scores of each category's scorable columns, in the same order.
    scored: dict[Category, list[list[float | None]]] = {cat: [] for cat in CATEGORIES}
    for indicator_id in observed_ids:
        definition = schema.get(indicator_id)
        if definition is None:
            raise UnknownIndicator(indicator_id)
        column = list(map(dict.get, observations, repeat(indicator_id)))
        # Identical lines share one Observation, so its identity keys the
        # column's distinct cells; a program without a row has key id(None).
        keys = list(map(id, column))
        cells = {}
        for key, obs in zip(keys, column):
            if obs is None:
                cells[key] = _ABSENT_CELL
                continue
            # One scoring_status call per row, which perfbench counts.
            status = scoring_status(obs.value, definition, rates)
            if key not in cells:
                cells[key] = (*status, obs.raw, obs.value.qualifier)
        records = _score_column(indicator_id, cells, keys, definition.direction)
        if definition.scorable:
            # A record's score is None exactly when it carries an exclusion.
            scored[definition.category].append(list(map(_SCORE, records)))
        else:
            # Every observed cell reads "non-scorable", with no bounds; a
            # program without a row leaves no record.
            records = [None if obs is None else record
                       for obs, record in zip(column, records)]
        columns.append(records)

    count = len(datasets)
    category_scores: dict[str, dict[Category, float]] = {}
    # Each program's scores in each category's scorable columns.
    for ds, by_category in zip(datasets, zip(*(_rows(scored[cat], count) for cat in CATEGORIES))):
        grouped = rubric.collect_responses(ds.rubric)
        per_cat: dict[Category, float] = {}
        for cat, scores in zip(CATEGORIES, by_category):
            # An unweighted mean: the rubric channel counts as one element.
            inputs = [score for score in scores if score is not None]
            answers = grouped.get(cat)
            if answers:
                inputs.append(math.fsum(answers) / len(answers))
            if inputs:
                per_cat[cat] = math.fsum(inputs) / len(inputs)
        category_scores[ds.program] = per_cat

    by_program = compute_gmi(category_scores, allow_partial=allow_partial)
    # Each result's audit: its indicator records, then its category records.
    results = [_new(GmiResult, (*result[:-1], (*filter(None, audit), *result.audit)))
               for audit, result in zip(_rows(columns, count), by_program.values())]
    return ScoreMatrix(results=tuple(results)), results


# ---------------------------------------------------------------------------
# Precomputed category-score path
# ---------------------------------------------------------------------------

_TABLE_HEADER = ("program",) + tuple(cat.code for cat in CATEGORIES)


CategoryTable = namedtuple("CategoryTable", ("scores", "notes"))


def load_category_table(source: bytes | str) -> CategoryTable:
    """Read a precomputed category-score table.

    Format: header ``program|FAO|PSO|GOV|EFI|TAC|COM``, one program per row,
    cells numeric or ``n.a.`` for absent categories; ``note|...`` lines are
    carried into report footnotes.  ``note`` is lower case and reserved: a
    row whose first field is ``Note`` is a program.
    """
    scores: dict[str, dict[Category, float]] = {}
    notes: list[str] = []
    header_seen = False
    records = read_records(source)
    try:
        for line_no, fields in records:
            if fields[0] == "note":
                notes.append("|".join(fields[1:]))
                continue
            if not header_seen:
                if (tuple(f.upper() if i else f.lower() for i, f in enumerate(fields))
                        != _TABLE_HEADER):
                    raise ParseError(f"expected header {'|'.join(_TABLE_HEADER)!r}")
                header_seen = True
                continue
            if len(fields) != len(_TABLE_HEADER):
                raise ParseError(f"expected {len(_TABLE_HEADER)} fields")
            program = fields[0]
            if not program:
                raise ParseError("program name is empty")
            if program in scores:
                raise ParseError(f"duplicate program {program!r}")
            per_cat: dict[Category, float] = {}
            for cat, cell in zip(CATEGORIES, fields[1:]):
                if cell.lower() in ("n.a.", ""):
                    continue
                try:
                    score = read_number(cell)
                except ValueError:
                    raise ParseError(f"score {cell!r} is not a number") from None
                if not math.isfinite(score):
                    raise ParseError(f"score {cell!r} is not finite")
                per_cat[cat] = score
            scores[program] = per_cat
    except ParseError as exc:  # every row error names its line
        exc.args = (f"line {line_no}: {exc}",)
        raise
    if not header_seen:
        raise ParseError("category table has no header row")
    if not scores:
        raise ParseError("category table has no program rows")
    for cat in CATEGORIES:
        column_bounds(cat.code, map(dict.get, scores.values(), repeat(cat)))
    return CategoryTable(scores=scores, notes=tuple(notes))


def score_category_table(table: CategoryTable,
                         allow_partial: bool = False) -> list[GmiResult]:
    """The table's results, in the order of its rows."""
    return list(compute_gmi(table.scores, allow_partial=allow_partial).values())
