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
        self.raw = raw
        self.indicator_id = indicator_id


class UnitError(GmiError):
    def __init__(self, from_unit: str, to_unit: str):
        super().__init__(f"no conversion from {from_unit!r} to {to_unit!r}")
        self.from_unit = from_unit
        self.to_unit = to_unit


class UnknownIndicator(GmiError):
    def __init__(self, indicator_id: str):
        super().__init__(f"indicator {indicator_id!r} not present in the active schema")
        self.indicator_id = indicator_id


class DuplicateIndicator(GmiError):
    def __init__(self, indicator_id: str):
        super().__init__(f"duplicate observation for indicator {indicator_id!r}")
        self.indicator_id = indicator_id


class RubricRangeError(GmiError):
    def __init__(self, score: object, criterion_id: str = ""):
        where = f" for criterion {criterion_id!r}" if criterion_id else ""
        super().__init__(f"rubric score {score!r}{where} outside the 1..5 scale")
        self.score = score
        self.criterion_id = criterion_id


class UnknownCriterion(GmiError):
    def __init__(self, criterion_id: str):
        super().__init__(f"criterion {criterion_id!r} not present in the rubric template")
        self.criterion_id = criterion_id


class EmptyCategory(GmiError):
    """A category aggregate was requested with no inputs at all."""


class PartialDataError(GmiError):
    """One or more programs lack category scores and partial runs were not allowed."""

    def __init__(self, missing: list[tuple[str, str]]):
        pairs = ", ".join(f"({program}, {category})" for program, category in missing)
        super().__init__(f"missing category scores: {pairs}")
        self.missing = list(missing)

