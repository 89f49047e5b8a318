"""Plain-loop reference results for a generated cohort.

Computed from the generator's known cell values, not from the engine's
parser or scorer, so that the benchmark can tell a wrong answer from a fast
one.  Follows the method in README.md: per-indicator min-max (0.5 when the
column is degenerate), higher-better for every builtin indicator, category
mean with the rubric channel as one element, a second min-max over the
category scores, the sum rescaled by 6 / present, and four equal stages.
"""

from __future__ import annotations

from cohort import Cohort

CATEGORIES = ("FAO", "PSO", "GOV", "EFI", "TAC", "COM")
STAGES = ((1.5, "Experimental"), (3.0, "Foundational"), (4.5, "Developmental"))
TOP_STAGE = "Advanced"


def stage_of(gmi: float) -> str:
    for upper, stage in STAGES:
        if gmi < upper:
            return stage
    return TOP_STAGE


def _minmax(column: dict[str, float]) -> dict[str, float]:
    if not column:
        return {}
    lo, hi = min(column.values()), max(column.values())
    if hi <= lo:
        return {key: 0.5 for key in column}
    return {key: (value - lo) / (hi - lo) for key, value in column.items()}


def composites(cohort: Cohort) -> dict[str, float]:
    """Composite per program name, with the rates file applied."""
    indicator_ids: list[str] = []
    for program in cohort.programs:
        for indicator_id in program.cells:
            if indicator_id not in indicator_ids:
                indicator_ids.append(indicator_id)

    inputs: dict[tuple[str, str], list[float]] = {}
    for indicator_id in indicator_ids:
        column = {}
        for program in cohort.programs:
            cell = program.cells.get(indicator_id)
            if cell is not None and cell.value is not None:
                column[program.name] = cell.value
        category = indicator_id.split("-", 1)[0]
        for name, score in _minmax(column).items():
            inputs.setdefault((name, category), []).append(score)

    category_columns: dict[str, dict[str, float]] = {cat: {} for cat in CATEGORIES}
    for program in cohort.programs:
        rubric: dict[str, list[float]] = {}
        for criterion_id, answer in program.rubric.items():
            category = cohort.criterion_categories[criterion_id]
            rubric.setdefault(category, []).append((answer - 1) / 4)
        for category in CATEGORIES:
            values = list(inputs.get((program.name, category), []))
            if category in rubric:
                values.append(sum(rubric[category]) / len(rubric[category]))
            if values:
                category_columns[category][program.name] = sum(values) / len(values)

    normalized = {cat: _minmax(column) for cat, column in category_columns.items()}
    out = {}
    for program in cohort.programs:
        scores = [normalized[cat][program.name] for cat in CATEGORIES
                  if program.name in normalized[cat]]
        out[program.name] = sum(scores) * len(CATEGORIES) / len(scores)
    return out


def scorable_categories(cohort: Cohort) -> dict[str, set[str]]:
    """Categories ``gmi validate`` should call scorable, per program.

    Validation assumes no rates file, so token amounts do not count.
    """
    out = {}
    for program in cohort.programs:
        scorable = {
            indicator_id.split("-", 1)[0]
            for indicator_id, cell in program.cells.items()
            if cell.value is not None and not cell.needs_rate
        }
        scorable.update(cohort.criterion_categories[c] for c in program.rubric)
        out[program.name] = scorable
    return out
