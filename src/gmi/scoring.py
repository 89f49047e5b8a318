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
per-program list here is read with ``zip``, never by program name.
``minmax_normalize`` alone takes a program-keyed map, once per scorable
column.

Cells repeat down a column, so the column routine builds one frozen
``AuditRecord`` per distinct cell ``(value, raw, qualifier, reason)`` and
hands the same object to every program whose cell is identical; the map is
local to the call.  ``score_datasets`` returns the results with a
``ScoreMatrix`` whose ``entries`` and ``category_scores`` are derived from
those results on first access, so a caller that never reads them never
builds them.

Layer order: this module sits above ``ingest`` and below ``report``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from enum import Enum
from functools import cached_property

from . import rubric
from .errors import EmptyCategory, ParseError, PartialDataError, UnknownIndicator
from .ingest import ProgramDataset, Qualifier, check_distinct_programs, scoring_status
from .rubric import rubric_to_unit  # noqa: F401  re-exported for gmi.scoring callers
from .schema import CATEGORIES, Category, Direction, Record, Schema, read_records, set_field

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: start-up does not import typing
    from typing import IO

#: Width of the composite range: six categories, each normalized to [0, 1].
CATEGORY_COUNT = 6

_EPS = 1e-9

# Members compared per column or per program, bound once: on Python 3.10
# and 3.11 a read such as ``Direction.LOWER_BETTER`` runs Python code.
_HIGHER_BETTER, _LOWER_BETTER = Direction.HIGHER_BETTER, Direction.LOWER_BETTER
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


class Excluded(Record):
    __slots__ = _fields = ("reason",)

    def __init__(self, reason: str) -> None:  # missing | non-scorable | token-unconverted
        set_field(self, "reason", reason)


class AuditRecord(Record):
    __slots__ = _fields = ("indicator", "raw", "minimum", "maximum", "score", "exclusion",
                           "qualifier")

    def __init__(self, indicator: str, raw: str, minimum: float | None,
                 maximum: float | None, score: float | None, exclusion: str | None = None,
                 qualifier: Qualifier = Qualifier.EXACT) -> None:
        set_field(self, "indicator", indicator)
        set_field(self, "raw", raw)
        set_field(self, "minimum", minimum)
        set_field(self, "maximum", maximum)
        set_field(self, "score", score)
        set_field(self, "exclusion", exclusion)
        set_field(self, "qualifier", qualifier)


# Excluded is immutable, so each reason has one shared instance.
_EXCLUDED = {reason: Excluded(reason)
             for reason in ("missing", "non-scorable", "token-unconverted")}

# The cell of a program that has no observation of an indicator.
_ABSENT_CELL = (None, "n.a.", Qualifier.UNSPECIFIED, "missing")


class GmiResult(Record):
    __slots__ = _fields = ("program", "category_scores", "normalized_category_scores", "gmi",
                           "stage", "audit")

    def __init__(self, program: str, category_scores: dict[Category, float],
                 normalized_category_scores: dict[Category, float], gmi: float, stage: Stage,
                 audit: tuple[AuditRecord, ...] = ()) -> None:
        set_field(self, "program", program)
        set_field(self, "category_scores", category_scores)
        set_field(self, "normalized_category_scores", normalized_category_scores)
        set_field(self, "gmi", gmi)
        set_field(self, "stage", stage)
        set_field(self, "audit", audit)


class ScoreMatrix(Record):
    """The cohort's scores keyed by ``(program, indicator id)`` and by
    ``(program, category)``, read from *results* on first access.

    Each result's audit trail is its indicator records followed by its
    ``CATEGORY_COUNT`` category records, so ``entries`` reads the former.
    Not slotted: the two maps are ``cached_property`` memos.
    """
    _fields = ("programs", "results")
    programs: tuple[str, ...]
    results: tuple[GmiResult, ...]

    @cached_property
    def entries(self) -> dict[tuple[str, str], float | Excluded]:
        return {
            (result.program, record.indicator):
                record.score if record.exclusion is None else _EXCLUDED[record.exclusion]
            for result in self.results
            for record in result.audit[:-CATEGORY_COUNT]
        }

    @cached_property
    def category_scores(self) -> dict[tuple[str, Category], float]:
        return {
            (result.program, cat): score
            for result in self.results
            for cat, score in result.category_scores.items()
        }


def minmax_normalize(values: Mapping[str, float | None]) -> dict[str, float | Excluded]:
    """Min-max scale present values across programs.

    Missing entries become Excluded("missing") and do not influence the
    bounds. When all present values coincide (or only one is present) every
    present value maps to the neutral midpoint 0.5.
    """
    if not values:
        raise ValueError("at least one program is required")
    present = [v for v in values.values() if v is not None]
    lo = min(present, default=0.0)
    hi = max(present, default=0.0)
    degenerate = hi <= lo
    out: dict[str, float | Excluded] = {}
    for program, value in values.items():
        if value is None:
            out[program] = _EXCLUDED["missing"]
        elif degenerate:
            out[program] = 0.5
        else:
            out[program] = (value - lo) / (hi - lo)
    return out


def directional_score(normalized: float, direction: Direction) -> float:
    """Identity for higher-better, reflection for lower-better."""
    if direction is _HIGHER_BETTER:
        return normalized
    if direction is _LOWER_BETTER:
        return 1.0 - normalized
    raise ValueError("direction must be higher-better or lower-better")


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
    programs: Sequence[str],
    cells: Sequence[tuple[float | None, str, Qualifier, str | None]],
    direction: Direction = Direction.HIGHER_BETTER,
) -> list[AuditRecord]:
    """Min-max one column across the cohort; both passes use this.

    *cells* holds each program's cell, in the order of *programs*: value
    (None when absent), raw text, qualifier and exclusion reason.  Returns
    each program's audit record in the same order, which holds its directed
    score or its exclusion; the audit bounds are the column's.  Programs
    with identical cells share one record.  The whole cell tuple is the
    key: its raw text keeps ``0`` and ``-0`` apart, which compare equal as
    floats yet score as ``0.0000`` and ``-0.0000``.  Raises ParseError when
    the column's range overflows a float.
    """
    values = [cell[0] for cell in cells]
    present = [v for v in values if v is not None]
    lo = min(present) if present else None
    hi = max(present) if present else None
    if present and not math.isfinite(hi - lo):
        raise ParseError(f"column {indicator} spans {lo!r} to {hi!r}, a range that overflows")
    directional_score(0.0, direction)  # raises on a direction that cannot score
    reflect = direction is _LOWER_BETTER
    out: list[AuditRecord] = []
    records: dict[tuple, AuditRecord] = {}
    # The programs are distinct, so the normalized map holds one entry per
    # cell, in the order of *cells*.
    normalized = minmax_normalize(dict(zip(programs, values)))
    for cell, entry in zip(cells, normalized.values()):
        record = records.get(cell)
        if record is None:
            _, raw, qualifier, reason = cell
            if isinstance(entry, Excluded):
                record = AuditRecord(indicator, raw, lo, hi, None,
                                     reason or entry.reason, qualifier)
            else:
                record = AuditRecord(indicator, raw, lo, hi,
                                     1.0 - entry if reflect else entry, None, qualifier)
            records[cell] = record
        out.append(record)
    return out


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
            cells.append((value, "n.a." if value is None else _format_score(value), _EXACT, None))
        columns.append(_score_column(cat.roll_up, programs, cells))

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
        results[program] = GmiResult(
            program=program,
            category_scores={cat: scores[cat] for cat in per_cat},
            normalized_category_scores=per_cat,
            gmi=gmi,
            stage=classify_maturity(gmi),
            audit=audit,
        )
    return results


# ---------------------------------------------------------------------------
# Raw-indicator pipeline
# ---------------------------------------------------------------------------


def score_datasets(
    datasets: Sequence[ProgramDataset],
    schema: Schema,
    template=None,
    rates: Mapping[str, float] | None = None,
    allow_partial: bool = False,
) -> tuple[ScoreMatrix, list[GmiResult]]:
    """Full pipeline from typed observations to composite results.

    Program order follows the input order throughout: every column, every
    per-program list and the results are aligned with *datasets*.  The
    matrix reads its two maps from the results on first access.
    """
    template = template or rubric.builtin_template()
    programs = [ds.program for ds in datasets]
    check_distinct_programs(programs)
    observed_ids = dict.fromkeys(i for ds in datasets for i in ds.observations)

    audits: list[list[AuditRecord]] = [[] for _ in datasets]
    # included[category][i]: the indicator scores program i has in category.
    included = {cat: [[] for _ in datasets] for cat in CATEGORIES}

    for indicator_id in observed_ids:
        definition = schema.get(indicator_id)
        if definition is None:
            raise UnknownIndicator(indicator_id)
        cells: list[tuple[float | None, str, Qualifier, str | None]] = []
        for ds in datasets:
            obs = ds.observations.get(indicator_id)
            if obs is None:
                cells.append(_ABSENT_CELL)
            else:
                value, reason = scoring_status(obs.value, definition, rates)
                cells.append((value, obs.raw, obs.value.qualifier, reason))

        if definition.scorable:
            scored = _score_column(indicator_id, programs, cells, definition.direction)
            for audit, scores, record in zip(audits, included[definition.category], scored):
                audit.append(record)
                if record.exclusion is None:
                    scores.append(record.score)
        else:
            # Every observed cell of an unscorable indicator reads
            # "non-scorable"; those cells enter the audit trail unbounded,
            # one record per distinct cell as in _score_column.
            records: dict[tuple, AuditRecord] = {}
            for audit, cell in zip(audits, cells):
                if cell[3] == "non-scorable":
                    record = records.get(cell)
                    if record is None:
                        _, raw, qualifier, reason = cell
                        record = records[cell] = AuditRecord(
                            indicator_id, raw, None, None, None, reason, qualifier)
                    audit.append(record)

    category_scores: dict[str, dict[Category, float]] = {}
    # zip(*included.values()) gives each program's six score lists in order.
    for ds, by_category in zip(datasets, zip(*included.values())):
        grouped = rubric.collect_responses(template, ds.rubric)
        per_cat: dict[Category, float] = {}
        for cat, indicator_scores in zip(CATEGORIES, by_category):
            answers = grouped.get(cat)
            rubric_score = sum(answers) / len(answers) if answers else None
            if indicator_scores or rubric_score is not None:
                per_cat[cat] = score_category(indicator_scores, rubric_score)
        category_scores[ds.program] = per_cat

    by_program = compute_gmi(category_scores, allow_partial=allow_partial)
    results = [result.replace(audit=tuple(audit) + result.audit)
               for audit, result in zip(audits, by_program.values())]
    return ScoreMatrix(programs=tuple(programs), results=tuple(results)), results


# ---------------------------------------------------------------------------
# Precomputed category-score path
# ---------------------------------------------------------------------------

_TABLE_HEADER = ("program",) + tuple(cat.code for cat in CATEGORIES)


class CategoryTable(Record):
    __slots__ = _fields = ("programs", "scores", "notes")
    _defaults = {"notes": ()}
    programs: tuple[str, ...]
    scores: dict[str, dict[Category, float]]
    notes: tuple[str, ...]


def load_category_table(source: IO[bytes] | IO[str] | str) -> CategoryTable:
    """Read a precomputed category-score table.

    Format: header ``program|FAO|PSO|GOV|EFI|TAC|COM``, one program per row,
    cells numeric or ``n.a.`` for absent categories; ``note|...`` lines are
    carried into report footnotes.
    """
    records = read_records(source)
    if not records:
        raise ParseError("category table has no header row")
    rows = []
    notes: list[str] = []
    header_seen = False
    for line_no, fields in records:
        if fields[0].lower() == "note":
            notes.append("|".join(fields[1:]))
            continue
        if not header_seen:
            if tuple(f.upper() if i else f.lower() for i, f in enumerate(fields)) != _TABLE_HEADER:
                raise ParseError(
                    f"line {line_no}: expected header {'|'.join(_TABLE_HEADER)!r}"
                )
            header_seen = True
            continue
        if len(fields) != len(_TABLE_HEADER):
            raise ParseError(f"line {line_no}: expected {len(_TABLE_HEADER)} fields")
        rows.append((line_no, fields))
    if not header_seen:
        raise ParseError("category table has no header row")

    programs: list[str] = []
    scores: dict[str, dict[Category, float]] = {}
    for line_no, fields in rows:
        program = fields[0]
        if not program:
            raise ParseError(f"line {line_no}: program name is empty")
        if program in scores:
            raise ParseError(f"line {line_no}: duplicate program {program!r}")
        programs.append(program)
        per_cat: dict[Category, float] = {}
        for cat, cell in zip(CATEGORIES, fields[1:]):
            if cell.lower() in ("n.a.", ""):
                continue
            try:
                score = float(cell)
            except ValueError:
                raise ParseError(
                    f"line {line_no}: score {cell!r} is not a number"
                ) from None
            if not math.isfinite(score):
                raise ParseError(f"line {line_no}: score {cell!r} is not finite")
            per_cat[cat] = score
        scores[program] = per_cat
    if not programs:
        raise ParseError("category table has no program rows")
    return CategoryTable(programs=tuple(programs), scores=scores, notes=tuple(notes))


def score_category_table(table: CategoryTable,
                         allow_partial: bool = False) -> list[GmiResult]:
    results = compute_gmi(table.scores, allow_partial=allow_partial)
    return [results[p] for p in table.programs]
