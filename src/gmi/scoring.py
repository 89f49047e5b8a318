"""Composite scoring: min-max normalization, equal-weight aggregation,
maturity classification.

The pipeline has four steps: per-indicator min-max scaling across the
program cohort, equal-weight aggregation inside each category (the rubric
channel counts as one element), a second min-max pass over the category
scores, and the composite as the plain sum of the six normalized category
scores (range 0..6).  Both min-max passes run through one column routine.

Columns are position-indexed: a column is a list of cells in program
order (the order of the datasets, or of the category-score map), and the
column routine returns its audit records in the same order, so every
per-program row is read by transposing columns with ``zip``, never by
program name.

Cells repeat down a column, so the column routine maps each distinct cell
``(value, reason, raw, qualifier)`` to its value, hands that map to
``minmax_normalize`` once per column, and builds one frozen
``AuditRecord`` per distinct cell, shared by every program whose cell is
identical; the maps are local to the call.  ``score_datasets`` sends every
observed column through it, scorable or not, and returns the results with a
``ScoreMatrix`` that reads its ``entries`` from them on each access.  Each
result holds its own category inputs in ``category_scores``.

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
from .schema import CATEGORIES, Category, Direction, Record, Schema, read_number, read_records

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


class Excluded(Record, namedtuple("Excluded", ("reason",))):
    __slots__ = ()  # reason: missing | non-scorable | token-unconverted


class AuditRecord(Record, namedtuple("AuditRecord", (
        "indicator", "raw", "minimum", "maximum", "score", "exclusion", "qualifier"))):
    __slots__ = ()


# Excluded is immutable, so each reason has one shared instance.
_EXCLUDED = {reason: Excluded(reason) for reason in EXCLUSION_REASONS}

# The cell of a program that has no observation of an indicator.
_ABSENT_CELL = (None, "missing", "n.a.", Qualifier.UNSPECIFIED)


class GmiResult(Record, namedtuple("GmiResult", (
        "program", "category_scores", "normalized_category_scores", "gmi", "stage", "audit"))):
    __slots__ = ()


#: Builds a record from complete fields, skipping the keyword binding.
_new = tuple.__new__
_SCORE = itemgetter(AuditRecord._fields.index("score"))


class ScoreMatrix(Record, namedtuple("ScoreMatrix", ("results",))):
    """The cohort's indicator scores keyed by ``(program, indicator id)``,
    read from *results* on each access of ``entries``.

    Each result's audit trail is its indicator records followed by its
    ``CATEGORY_COUNT`` category records, so ``entries`` reads the former.
    """
    __slots__ = ()
    results: tuple[GmiResult, ...]

    @property
    def entries(self) -> dict[tuple[str, str], float | Excluded]:
        return {
            (result.program, record.indicator):
                record.score if record.exclusion is None else _EXCLUDED[record.exclusion]
            for result in self.results
            for record in result.audit[:-CATEGORY_COUNT]
        }


def minmax_normalize(values: Mapping[Hashable, float | None]) -> dict[Hashable, float | Excluded]:
    """Min-max scale the present values, keyed by program or by distinct cell.

    Missing entries become Excluded("missing") and do not influence the
    bounds. When all present values coincide (or only one is present) every
    present value maps to the neutral midpoint 0.5.  Raises ValueError when
    the range between the bounds overflows a float, as ``column_bounds``
    does.
    """
    if not values:
        raise ValueError("at least one program is required")
    present = [v for v in values.values() if v is not None]
    lo = min(present, default=0.0)
    hi = max(present, default=0.0)
    if not math.isfinite(hi - lo):
        raise ValueError(f"values span {lo!r} to {hi!r}, a range that overflows")
    degenerate = hi <= lo
    out: dict[Hashable, float | Excluded] = {}
    for key, value in values.items():
        if value is None:
            out[key] = _EXCLUDED["missing"]
        elif degenerate:
            out[key] = 0.5
        else:
            out[key] = (value - lo) / (hi - lo)
    return out


def directional_score(normalized: float, direction: Direction) -> float:
    """Identity for higher-better and default, reflection for lower-better."""
    if direction is _DEFAULT or direction is _HIGHER_BETTER:
        return normalized
    if direction is _LOWER_BETTER:
        return 1.0 - normalized
    raise ValueError("direction must be higher-better, lower-better or default")


def score_category(indicator_scores: Sequence[float],
                   rubric_score: float | None = None) -> float:
    """Unweighted mean over indicator scores plus the rubric score, which
    counts as one element."""
    inputs = list(indicator_scores)
    if rubric_score is not None:
        inputs.append(rubric_score)
    if not inputs:
        raise EmptyCategory("category has no scorable inputs")
    return sum(inputs) / len(inputs)


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
    cells: Sequence[tuple[float | None, str | None, str, Qualifier]],
    direction: Direction = Direction.HIGHER_BETTER,
) -> list[AuditRecord]:
    """Min-max one column across the cohort; both passes use this.

    *cells* holds each program's cell, in program order: value, exclusion
    reason, raw text and qualifier; the value is None exactly when the
    reason is not.  Returns each program's audit record in the same order,
    holding its directed score or its exclusion and the column's bounds.
    Each distinct cell is normalised once and gets one record, shared by
    every program with that cell.  The whole cell tuple is the key: its raw
    text keeps ``0`` and ``-0`` apart, which compare equal as floats yet
    score as ``0.0000`` and ``-0.0000``.  Raises ParseError when the
    column's range overflows a float (``column_bounds``).
    """
    values = {cell: cell[0] for cell in dict.fromkeys(cells)}
    lo, hi = column_bounds(indicator, values.values())
    # Distinct cells keep their first program's order, so the bounds, and
    # which of 0.0 and -0.0 is one, are those of the whole column.
    records = {
        cell: _new(AuditRecord, (indicator, cell[2], lo, hi,
                                 None if cell[1] else directional_score(entry, direction),
                                 cell[1], cell[3]))
        for cell, entry in minmax_normalize(values).items()
    }
    return list(map(records.__getitem__, cells))


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
        cells = []
        for scores in rows:
            value = scores.get(cat)
            cells.append((None, "missing", "n.a.", _EXACT) if value is None
                         else (value, None, _format_score(value), _EXACT))
        columns.append(_score_column(cat.roll_up, cells))

    results: dict[str, GmiResult] = {}
    # zip(*columns) gives each program's six category records in order.
    for program, scores, audit in zip(programs, rows, zip(*columns)):
        per_cat = {cat: record.score for cat, record in zip(CATEGORIES, audit)
                   if record.exclusion is None}
        if not per_cat:
            raise EmptyCategory(f"program {program!r} has no category scores")
        gmi = sum(per_cat.values())
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
        cells = [
            _ABSENT_CELL if obs is None
            else scoring_status(value := obs.value, definition, rates) + (obs.raw, value.qualifier)
            for obs in map(dict.get, observations, repeat(indicator_id))
        ]
        column = _score_column(indicator_id, cells, definition.direction)
        if definition.scorable:
            # A record's score is None exactly when it carries an exclusion.
            scored[definition.category].append(list(map(_SCORE, column)))
        else:
            # Every observed cell reads "non-scorable", with no bounds; a
            # program without a row leaves no record.
            column = [None if cell is _ABSENT_CELL else record
                      for cell, record in zip(cells, column)]
        columns.append(column)

    count = len(datasets)
    category_scores: dict[str, dict[Category, float]] = {}
    # Each program's scores in each category's scorable columns.
    for ds, by_category in zip(datasets, zip(*(_rows(scored[cat], count) for cat in CATEGORIES))):
        grouped = rubric.collect_responses(ds.rubric)
        per_cat: dict[Category, float] = {}
        for cat, scores in zip(CATEGORIES, by_category):
            indicator_scores = [score for score in scores if score is not None]
            answers = grouped.get(cat)
            rubric_score = sum(answers) / len(answers) if answers else None
            if indicator_scores or rubric_score is not None:
                per_cat[cat] = score_category(indicator_scores, rubric_score)
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


class CategoryTable(Record, namedtuple("CategoryTable", ("scores", "notes"))):
    __slots__ = ()
    scores: dict[str, dict[Category, float]]
    notes: tuple[str, ...]


def load_category_table(source: bytes | str) -> CategoryTable:
    """Read a precomputed category-score table.

    Format: header ``program|FAO|PSO|GOV|EFI|TAC|COM``, one program per row,
    cells numeric or ``n.a.`` for absent categories; ``note|...`` lines are
    carried into report footnotes.
    """
    scores: dict[str, dict[Category, float]] = {}
    notes: list[str] = []
    header_seen = False
    records = read_records(source)
    try:
        for line_no, fields in records:
            if fields[0].lower() == "note":
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
    return CategoryTable(scores=scores, notes=tuple(notes))


def score_category_table(table: CategoryTable,
                         allow_partial: bool = False) -> list[GmiResult]:
    """The table's results, in the order of its rows."""
    return list(compute_gmi(table.scores, allow_partial=allow_partial).values())
