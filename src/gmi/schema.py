"""Indicator registry: the builtin catalogue plus schema file loading/validation.

Schema files are pipe-delimited UTF-8 text, one indicator per line, with a
mandatory header row and ``#`` comment lines::

    id|category|kind|data_type|unit|direction|description

``direction`` is one of ``higher-better``, ``lower-better``, ``non-scorable``
or ``default``.  ``default`` means higher-better by convention without an
explicit polarity claim; code-valued cells under such indicators are excluded
from scoring as non-ordinal.

Layer order: this module sits directly above ``errors`` and imports no
other engine module; it owns the record reader every document loader uses
and ``Record``, the immutable value base of every engine record class.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import cached_property

from .errors import ParseError, SchemaError

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: start-up does not import typing
    from typing import IO

DELIMITER = "|"

INDICATOR_ID_PATTERN = re.compile(r"^(FAO|PSO|GOV|EFI|TAC|COM)-(QN|QL|AUX)(-\d+)?$")


def split_lines(text: str) -> list[str]:
    """Split *text* into lines at ``\\n``, ``\\r\\n`` and ``\\r`` only.

    ``str.splitlines`` also breaks at ``\\v``, ``\\f``, ``\\x1c``-``\\x1e``,
    U+0085, U+2028 and U+2029, which a text cell may hold.  A final line
    break ends the last line and starts no empty one.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def read_records(source: IO[bytes] | IO[str] | bytes | str) -> list[tuple[int, list[str]]]:
    """Decode *source* as UTF-8 and split it into ``(line number, fields)``
    records on ``|``, skipping blank lines and ``#`` comments.  One leading
    byte-order mark (U+FEFF), which some editors write, is dropped."""
    data = source.read() if hasattr(source, "read") else source
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"document is not UTF-8: {exc}") from exc
    return [(line_no, list(map(str.strip, line.split(DELIMITER))))
            for line_no, line in enumerate(split_lines(data.removeprefix("\ufeff")), start=1)
            if line.strip()[:1] not in ("", "#")]


#: Stores one field of a record under construction, past its frozen
#: ``__setattr__``.  Reading a module global is cheaper than reading
#: ``object.__setattr__`` for every field.
set_field = object.__setattr__


class Record:
    """Base of the engine's immutable value records.

    A subclass names its fields, in constructor order, in ``_fields``, and
    is slotted unless it keeps ``cached_property`` memos.  Assigning or
    deleting an attribute raises AttributeError.  Records compare (only
    with their own class), hash and print by their fields; ``copy``,
    ``deepcopy`` and ``pickle`` rebuild them from their fields through the
    constructor, so a copy starts with empty memos, as does ``replace``.

    The generic constructor binds positional and keyword arguments to
    ``_fields`` and fills the others from ``_defaults``.  Records built per
    cell, per program or per indicator write their own, which store each
    field with ``set_field`` and cost less per call.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init__(self, *args: object, **kwargs: object) -> None:
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name} takes {len(self._fields)} fields, got {len(args)}")
        values = dict(zip(self._fields, args))
        for key in kwargs:
            if key not in self._fields or key in values:
                raise TypeError(f"{name} got an unknown or repeated field {key!r}")
        values.update(kwargs)
        for key in self._fields:
            if key not in values:
                if key not in self._defaults:
                    raise TypeError(f"{name} is missing field {key!r}")
                values[key] = self._defaults[key]
            set_field(self, key, values[key])

    def _values(self) -> tuple:
        return tuple([getattr(self, key) for key in self._fields])

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {key!r} of a {type(self).__name__}")

    def __delattr__(self, key: str) -> None:
        raise AttributeError(f"cannot delete field {key!r} of a {type(self).__name__}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def replace(self, **changes: object):
        """A new record with *changes* applied to this one's fields."""
        return type(self)(**{key: getattr(self, key) for key in self._fields} | changes)


class Category(Enum):
    FAO = "Focus Areas and Objectives"
    PSO = "Program Structure and Organization"
    GOV = "Governance"
    EFI = "Effectiveness and Impact"
    TAC = "Transparency and Accountability"
    COM = "Community Engagement"

    # Members are singletons and compare by identity, so hashing by identity
    # agrees with equality; it runs in C where Enum.__hash__ runs in Python.
    # No set of categories is ever iterated, so no output order depends on it.
    __hash__ = object.__hash__

    @property
    def code(self) -> str:
        return self.name

    @property
    def label(self) -> str:
        return self.value

    @property
    def roll_up(self) -> str:
        """Id of the category's synthetic roll-up indicator."""
        return f"{self.name}-QN"

    @classmethod
    def from_code(cls, code: str) -> "Category":
        try:
            return cls[code.upper()]
        except KeyError:
            raise ParseError(f"unknown category code {code!r}") from None


#: The six categories in declaration order.  Iterating an Enum class runs a
#: Python-level generator; iterating this tuple does not.
CATEGORIES = tuple(Category)


class Kind(Enum):
    QUANTITATIVE = "quantitative"
    RUBRIC = "rubric"
    SYNTHETIC = "synthetic"


class DataType(Enum):
    NUMERIC = "numeric"
    RATIONAL = "rational"
    BINARY = "binary"
    TEXT = "text"
    ISO_ALPHA_3 = "iso-alpha-3"


class Direction(Enum):
    HIGHER_BETTER = "higher-better"
    LOWER_BETTER = "lower-better"
    NON_SCORABLE = "non-scorable"


class IndicatorDef(Record):
    # Not slotted: the cached_property memos below live in the instance dict.
    _fields = ("id", "category", "kind", "data_type", "unit", "direction", "description",
               "explicit_direction")

    def __init__(self, id: str, category: Category, kind: Kind, data_type: DataType | None,
                 unit: str, direction: Direction, description: str,
                 explicit_direction: bool = False) -> None:
        """*explicit_direction* is True when the schema author asserted the
        polarity rather than relying on the higher-better default; it gates
        scoring of code-valued cells."""
        # Explicitness is meaningless without a polarity.
        if direction is Direction.NON_SCORABLE and explicit_direction:
            explicit_direction = False
        set_field(self, "id", id)
        set_field(self, "category", category)
        set_field(self, "kind", kind)
        set_field(self, "data_type", data_type)
        set_field(self, "unit", unit)
        set_field(self, "direction", direction)
        set_field(self, "description", description)
        set_field(self, "explicit_direction", explicit_direction)

    @cached_property
    def scorable(self) -> bool:
        return (
            self.kind is Kind.QUANTITATIVE
            and self.direction is not Direction.NON_SCORABLE
            and self.data_type in (DataType.NUMERIC, DataType.RATIONAL, DataType.BINARY)
        )

    # Per-definition memos that ``ingest`` fills.  A parse depends only on
    # the cell text and this definition, so an entry is valid for as long as
    # the definition lives; a copy made with ``replace`` starts empty.
    @cached_property
    def parsed_cells(self) -> dict:
        """``ingest.parse_value``'s successful results, keyed by raw cell."""
        return {}

    @cached_property
    def observed_rows(self) -> dict:
        """``ingest.load_program_dataset``'s finished observations, keyed by
        the row's ``(raw cell, unit field)``."""
        return {}

    def validate(self) -> None:
        if not INDICATOR_ID_PATTERN.match(self.id):
            raise SchemaError(f"indicator id {self.id!r} is not well formed", self.id)
        if not self.id.startswith(self.category.code + "-"):
            raise SchemaError(
                f"indicator {self.id!r} declares category {self.category.code}", self.id
            )
        if self.kind is Kind.SYNTHETIC:
            if self.id != self.category.roll_up:
                raise SchemaError(
                    f"synthetic roll-up for {self.category.code} must be named "
                    f"{self.category.roll_up}, got {self.id!r}",
                    self.id,
                )
            return
        if self.data_type is None:
            raise SchemaError(f"indicator {self.id!r} needs a data type", self.id)
        if self.kind is Kind.RUBRIC and (
            self.data_type is not DataType.NUMERIC or self.unit != "scoring"
        ):
            raise SchemaError(
                f"rubric indicator {self.id!r} must be numeric with unit 'scoring'", self.id
            )
        if (
            self.data_type in (DataType.TEXT, DataType.ISO_ALPHA_3)
            and self.direction is not Direction.NON_SCORABLE
        ):
            raise SchemaError(
                f"indicator {self.id!r} holds {self.data_type.value} data and "
                "cannot carry a scoring direction",
                self.id,
            )


class Schema(Record):
    __slots__ = ("indicators", "get")
    _fields = ("indicators",)

    def __init__(self, indicators: tuple[IndicatorDef, ...]) -> None:
        set_field(self, "indicators", indicators)
        #: ``get(indicator_id)`` returns the indicator with that id, or None.
        #: It is the id map's own bound ``dict.get``, so each lookup (one per
        #: ingested row and per scored column) is a single call into C.  It
        #: is no field: copies and pickles rebuild it from the indicators.
        set_field(self, "get", {ind.id: ind for ind in indicators}.get)

    def validate(self) -> None:
        seen: set[str] = set()
        for ind in self.indicators:
            if ind.id in seen:
                raise SchemaError(f"duplicate indicator id {ind.id!r}", ind.id)
            seen.add(ind.id)
            ind.validate()
        for ind in self.indicators:
            if ind.kind is Kind.SYNTHETIC:
                continue
            roll_up = ind.category.roll_up
            parent = self.get(roll_up)
            if parent is None or parent.kind is not Kind.SYNTHETIC:
                raise SchemaError(
                    f"category {ind.category.code} lacks its synthetic roll-up {roll_up}",
                    ind.id,
                )
        for category in CATEGORIES:
            if not any(
                ind.category is category and (ind.scorable or ind.kind is Kind.RUBRIC)
                for ind in self.indicators
            ):
                raise SchemaError(f"category {category.code} has no scorable indicator")


# Builtin registry rows: (id, kind, data_type, unit, description).
# Direction is "default" throughout; no polarity is asserted for any indicator.
_D = DataType
_BUILTIN_ROWS: tuple[tuple[str, Kind, DataType | None, str, str], ...] = (
    ("FAO-QN", Kind.SYNTHETIC, None, "none", "Focus Areas and Objectives"),
    ("FAO-QL", Kind.RUBRIC, _D.NUMERIC, "scoring", "Rubric Scoring Focus Areas and Objectives"),
    ("FAO-QN-2", Kind.QUANTITATIVE, _D.NUMERIC, "USD", "Minimum Grant Size"),
    ("FAO-QN-3", Kind.QUANTITATIVE, _D.NUMERIC, "USD", "Maximum Grant Size"),
    ("FAO-QN-6", Kind.QUANTITATIVE, _D.NUMERIC, "weeks", "Evaluation Timeframe"),
    ("FAO-QN-7", Kind.QUANTITATIVE, _D.TEXT, "none", "Grant Platform"),
    ("FAO-QN-8", Kind.QUANTITATIVE, _D.TEXT, "none", "Link to Grant Round(s)"),
    ("FAO-QN-9", Kind.QUANTITATIVE, _D.NUMERIC, "scoring", "Grant types"),
    ("FAO-QN-10", Kind.QUANTITATIVE, _D.NUMERIC, "scoring", "Funding Type"),
    ("FAO-AUX-1", Kind.QUANTITATIVE, _D.NUMERIC, "USD", "Average Grant Size"),
    ("FAO-AUX-2", Kind.QUANTITATIVE, _D.TEXT, "none", "Funding Type (simplified)"),
    ("FAO-AUX-3", Kind.QUANTITATIVE, _D.RATIONAL, "USD",
     "Market capitalisation of funding asset at round start"),
    ("FAO-AUX-4", Kind.QUANTITATIVE, _D.RATIONAL, "USD",
     "Market capitalisation of funding asset at round start (repeat listing)"),
    ("PSO-QN", Kind.SYNTHETIC, None, "none", "Program Structure and Organisation"),
    ("PSO-QL", Kind.RUBRIC, _D.NUMERIC, "scoring",
     "Rubric Scoring Program Structure and Organisation"),
    ("PSO-QN-1", Kind.QUANTITATIVE, _D.NUMERIC, "scoring", "Origin of Funds"),
    ("PSO-QN-2", Kind.QUANTITATIVE, _D.BINARY, "scoring", "Vesting Period for Fund Allocation"),
    ("PSO-QN-3", Kind.QUANTITATIVE, _D.NUMERIC, "scoring", "Organizational Structure of Grantor"),
    ("PSO-QN-4", Kind.QUANTITATIVE, _D.NUMERIC, "scoring", "Grant Program Principal"),
    ("PSO-QN-5", Kind.QUANTITATIVE, _D.NUMERIC, "signatories", "Grant Program Agents"),
    ("PSO-QN-6", Kind.QUANTITATIVE, _D.TEXT, "none", "Governance Structure"),
    ("PSO-AUX-1", Kind.QUANTITATIVE, _D.TEXT, "none",
     "Organizational Structure of Grantor (governing body)"),
    ("PSO-AUX-2", Kind.QUANTITATIVE, _D.TEXT, "none",
     "Organizational Structure of Grantor (oversight)"),
    ("PSO-AUX-3", Kind.QUANTITATIVE, _D.TEXT, "none", "Grant Program Principal (entity)"),
    ("PSO-AUX-4", Kind.QUANTITATIVE, _D.TEXT, "none", "Governance Structure (allocation process)"),
    ("GOV-QN", Kind.SYNTHETIC, None, "none", "Governance"),
    ("GOV-QL", Kind.RUBRIC, _D.NUMERIC, "scoring", "Rubric Scoring Governance"),
    ("GOV-QN-1", Kind.QUANTITATIVE, _D.NUMERIC, "scoring", "Grant Program Objective"),
    ("GOV-QN-3", Kind.QUANTITATIVE, _D.NUMERIC, "scoring",
     "Existence of Program Objective Description"),
    ("GOV-QN-4", Kind.QUANTITATIVE, _D.TEXT, "none", "Link to Program Objective"),
    ("EFI-QN", Kind.SYNTHETIC, None, "none", "Effectiveness and Impact"),
    ("EFI-QL", Kind.RUBRIC, _D.NUMERIC, "scoring", "Rubric Scoring Effectiveness and Impact"),
    ("EFI-QN-1", Kind.QUANTITATIVE, _D.BINARY, "scoring", "Evaluation Criteria Public"),
    ("EFI-QN-2", Kind.QUANTITATIVE, _D.BINARY, "scoring", "Evaluation Shared with Applicants"),
    ("EFI-QN-3", Kind.QUANTITATIVE, _D.TEXT, "none", "Reference to Evaluation Criteria"),
    ("EFI-QN-4", Kind.QUANTITATIVE, _D.BINARY, "scoring", "Grant process explained"),
    ("EFI-QN-6", Kind.QUANTITATIVE, _D.ISO_ALPHA_3, "none", "Domicile Foundation"),
    ("EFI-QN-8", Kind.QUANTITATIVE, _D.NUMERIC, "scoring", "Program Audit"),
    ("TAC-QN", Kind.SYNTHETIC, None, "none", "Transparency and Accountability"),
    ("TAC-QL", Kind.RUBRIC, _D.NUMERIC, "scoring",
     "Rubric Scoring Transparency and Accountability"),
    ("TAC-QN-4", Kind.QUANTITATIVE, _D.RATIONAL, "conversion rate",
     "Average Application to Allocation share"),
    ("TAC-QN-5", Kind.QUANTITATIVE, _D.BINARY, "scoring", "Operated by a Service Provider"),
    ("TAC-QN-6", Kind.QUANTITATIVE, _D.RATIONAL, "conversion rate",
     "Program Manager to Applicant Ratio"),
    ("COM-QN", Kind.SYNTHETIC, None, "none", "Community Engagement"),
    ("COM-QL", Kind.RUBRIC, _D.NUMERIC, "scoring", "Rubric Scoring Community Engagement"),
    ("COM-QN-1", Kind.QUANTITATIVE, _D.NUMERIC, "headcount", "Minimum Applicant Count per Round"),
    ("COM-QN-2", Kind.QUANTITATIVE, _D.NUMERIC, "headcount", "Maximum Applicant Count per Round"),
    ("COM-QN-4", Kind.QUANTITATIVE, _D.NUMERIC, "grant count",
     "Minimum Number of Grants Allocated per Round"),
    ("COM-QN-5", Kind.QUANTITATIVE, _D.NUMERIC, "grant count",
     "Maximum Number of Grants Allocated per Round"),
    ("COM-QN-7", Kind.QUANTITATIVE, _D.NUMERIC, "weeks", "Minimum Grant Duration"),
    ("COM-QN-8", Kind.QUANTITATIVE, _D.NUMERIC, "weeks", "Maximum Grant Duration"),
    ("COM-QN-11", Kind.QUANTITATIVE, _D.RATIONAL, "years", "Time of Existence"),
    ("COM-QN-12", Kind.QUANTITATIVE, _D.NUMERIC, "rounds", "Round Count since Inception"),
    ("COM-QN-13", Kind.QUANTITATIVE, _D.NUMERIC, "tracks", "Number of Tracks per Round"),
    ("COM-QN-14", Kind.QUANTITATIVE, _D.RATIONAL, "USD", "Overall Budget since Inception"),
    ("COM-QN-19", Kind.QUANTITATIVE, _D.RATIONAL, "USD", "Operations Budget per Round"),
    ("COM-QN-20", Kind.QUANTITATIVE, _D.RATIONAL, "ratio",
     "Operations Budget to Round Budget Ratio"),
    ("COM-QN-21", Kind.QUANTITATIVE, _D.NUMERIC, "headcount", "Program Management Team Size"),
    ("COM-QN-22", Kind.QUANTITATIVE, _D.NUMERIC, "scoring", "Impact Measurement"),
    ("COM-QN-23", Kind.QUANTITATIVE, _D.BINARY, "scoring", "Grant Size Standardisation"),
    ("COM-AUX-1", Kind.QUANTITATIVE, _D.NUMERIC, "headcount", "Average Applicant Count per Round"),
    ("COM-AUX-2", Kind.QUANTITATIVE, _D.NUMERIC, "grant count",
     "Average Number of Grants Allocated per Round"),
    ("COM-AUX-3", Kind.QUANTITATIVE, _D.NUMERIC, "weeks", "Average Grant Duration"),
)


def _default_direction(kind: Kind, data_type: DataType | None) -> Direction:
    if kind is Kind.SYNTHETIC or data_type in (DataType.TEXT, DataType.ISO_ALPHA_3):
        return Direction.NON_SCORABLE
    return Direction.HIGHER_BETTER


def builtin_schema() -> Schema:
    """Return the builtin indicator registry (validated)."""
    indicators = tuple(
        IndicatorDef(
            id=row[0],
            category=Category.from_code(row[0].split("-", 1)[0]),
            kind=row[1],
            data_type=row[2],
            unit=row[3],
            direction=_default_direction(row[1], row[2]),
            description=row[4],
        )
        for row in _BUILTIN_ROWS
    )
    schema = Schema(indicators=indicators)
    schema.validate()
    return schema


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

_HEADER = ("id", "category", "kind", "data_type", "unit", "direction", "description")


def _direction_token(ind: IndicatorDef) -> str:
    if ind.direction is Direction.HIGHER_BETTER and not ind.explicit_direction:
        return "default"
    return ind.direction.value


def _parse_direction(token: str, line_no: int) -> tuple[Direction, bool]:
    token = token.strip().lower()
    if token == "default":
        return Direction.HIGHER_BETTER, False
    for direction in Direction:
        if token == direction.value:
            return direction, True
    raise ParseError(f"line {line_no}: unknown direction {token!r}")


def dump_schema(schema: Schema) -> str:
    lines = [DELIMITER.join(_HEADER)]
    for ind in schema.indicators:
        lines.append(
            DELIMITER.join(
                (
                    ind.id,
                    ind.category.code,
                    ind.kind.value,
                    ind.data_type.value if ind.data_type else "n.a.",
                    ind.unit,
                    _direction_token(ind),
                    ind.description,
                )
            )
        )
    return "\n".join(lines) + "\n"


def load_schema(source: IO[bytes] | IO[str] | str) -> Schema:
    """Parse and validate a schema document.

    Raises ParseError for malformed documents and SchemaError when indicator
    invariants are violated.
    """
    records = read_records(source)
    if not records:
        raise ParseError("schema document has no header row")
    header_no, header = records[0]
    if tuple(f.lower() for f in header) != _HEADER:
        raise ParseError(f"line {header_no}: expected header {DELIMITER.join(_HEADER)!r}")

    indicators: list[IndicatorDef] = []
    for line_no, fields in records[1:]:
        if len(fields) != len(_HEADER):
            raise ParseError(f"line {line_no}: expected {len(_HEADER)} fields, got {len(fields)}")
        ind_id, cat_code, kind_tok, dt_tok, unit, dir_tok, description = fields
        try:
            kind = Kind(kind_tok.lower())
        except ValueError:
            raise ParseError(f"line {line_no}: unknown kind {kind_tok!r}") from None
        if dt_tok.lower() in ("n.a.", "none", "-", ""):
            data_type = None
        else:
            try:
                data_type = DataType(dt_tok.lower())
            except ValueError:
                raise ParseError(f"line {line_no}: unknown data type {dt_tok!r}") from None
        direction, explicit = _parse_direction(dir_tok, line_no)
        indicators.append(
            IndicatorDef(
                id=ind_id,
                category=Category.from_code(cat_code),
                kind=kind,
                data_type=data_type,
                unit=unit,
                direction=direction,
                description=description,
                explicit_direction=explicit,
            )
        )

    schema = Schema(indicators=tuple(indicators))
    schema.validate()
    return schema


def with_directions(schema: Schema, overrides: dict[str, Direction]) -> Schema:
    """Return a copy of *schema* with explicit direction overrides applied."""
    updated = []
    for ind in schema.indicators:
        if ind.id in overrides:
            updated.append(ind.replace(direction=overrides[ind.id], explicit_direction=True))
        else:
            updated.append(ind)
    out = Schema(indicators=tuple(updated))
    out.validate()
    return out
