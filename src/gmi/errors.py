"""Exception hierarchy shared across the engine."""

from __future__ import annotations


class GmiError(Exception):
    """Base class for all engine errors."""


class ParseError(GmiError):
    """A document (schema, observations, rubric, rates) is malformed."""


class SchemaError(GmiError):
    """An indicator registry violates a structural invariant."""

    def __init__(self, message: str, indicator_id: str | None = None):
        super().__init__(message)
        self.indicator_id = indicator_id


class ValueParseError(GmiError, ValueError):
    """A raw cell cannot be parsed under the indicator's declared data type."""

    def __init__(self, raw: str, indicator_id: str, detail: str = ""):
        msg = f"cannot parse {raw!r} for indicator {indicator_id}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.indicator_id = indicator_id


class UnitError(GmiError):
    def __init__(self, from_unit: str, to_unit: str):
        super().__init__(f"no conversion from {from_unit!r} to {to_unit!r}")


class UnknownIndicator(GmiError):
    def __init__(self, indicator_id: str):
        super().__init__(f"indicator {indicator_id!r} not present in the active schema")


class DuplicateIndicator(GmiError):
    def __init__(self, indicator_id: str, first_line: int):
        super().__init__(f"duplicate observation for indicator {indicator_id!r} "
                         f"(first on line {first_line})")


class RubricRangeError(GmiError):
    def __init__(self, score: object, criterion_id: str):
        super().__init__(f"rubric score {score!r} for criterion {criterion_id!r} "
                         "outside the 1..5 scale")


class UnknownCriterion(GmiError):
    def __init__(self, criterion_id: str):
        super().__init__(f"criterion {criterion_id!r} not present in the rubric template")


class EmptyCategory(GmiError):
    """A category aggregate was requested with no inputs at all."""


class PartialDataError(GmiError):
    """One or more programs lack category scores and partial runs were not allowed."""

    def __init__(self, missing: list[tuple[str, str]]):
        pairs = ", ".join(f"({program}, {category})" for program, category in missing)
        super().__init__(f"missing category scores: {pairs}")
        self.missing = list(missing)

