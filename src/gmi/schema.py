"""Indicator registry: schema documents, their loading and validation.

Schema documents are pipe-delimited UTF-8 text, one indicator per line,
with a mandatory header row and ``#`` comment lines::

    id|category|kind|data_type|unit|direction|description

``direction`` is one of ``higher-better``, ``lower-better``, ``non-scorable``
or ``default``, the values of ``Direction``'s four members.  ``default``
means higher-better by convention without an explicit polarity claim;
code-valued cells under such indicators are excluded from scoring as
non-ordinal.  ``unit`` and ``description`` hold no ``|``, line break or
surrounding whitespace, so ``load_schema(dump_schema(s)) == s`` for every
schema ``s`` that validates.

The builtin registry is such a document, the text ``gmi schema dump``
prints, held in this module and read by ``load_schema`` like any other.

Layer order: this module sits directly above ``errors`` and imports no
other engine module; it owns the record reader every document loader uses,
``read_number`` for their numeric fields and ``Record``, the mixin of every
engine record class.  Each record class is a ``collections.namedtuple``
class, so records compare and hash as plain tuples of their fields; the
mixin makes every copy of a record go through its class's constructor.
"""

from __future__ import annotations

import re
from collections import namedtuple
from enum import Enum
from functools import cached_property

from .errors import ParseError, SchemaError

DELIMITER = "|"


def read_lines(source: bytes | str) -> list[str]:
    """Decode *source* as UTF-8 and split it into lines at ``\\n``,
    ``\\r\\n`` and ``\\r`` only.

    One leading byte-order mark (U+FEFF), which some editors write, is
    dropped.  ``str.splitlines`` also breaks at ``\\v``, ``\\f``,
    ``\\x1c``-``\\x1e``, U+0085, U+2028 and U+2029, which a text cell may
    hold.  A final line break ends the last line and starts no empty one.
    """
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"document is not UTF-8: {exc}") from exc
    lines = source.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def record_fields(line: str) -> list[str] | None:
    """The ``|``-separated fields of *line*, each stripped, or None for a
    blank line or a ``#`` comment."""
    if line.strip()[:1] in ("", "#"):
        return None
    return list(map(str.strip, line.split(DELIMITER)))


def read_records(source: bytes | str) -> list[tuple[int, list[str]]]:
    """The ``(line number, fields)`` records of *source*: its ``read_lines``
    passed through ``record_fields``, skipping blank lines and comments."""
    return [(line_no, fields) for line_no, line in enumerate(read_lines(source), start=1)
            if (fields := record_fields(line)) is not None]


def read_number(text: str, convert: type = float) -> float | int:
    """``convert(text)``, but a ``_`` (a digit separator to Python) raises ValueError."""
    if "_" in text:
        raise ValueError(text)
    return convert(text)


class Record:
    """Mixin of every engine record class, a ``collections.namedtuple``
    class declared as ``class Name(Record, namedtuple("Name", fields))``.

    ``_replace``, ``_make``, ``copy``, ``deepcopy`` and ``pickle`` rebuild
    a record through its class's constructor, so they run its checks again
    and a copy starts with empty memos.  Records of a class with no checks
    that are built per row, cell or program (such as ``Observation``,
    ``AuditRecord`` and ``GmiResult``) are made with
    ``tuple.__new__(cls, fields)`` from complete fields; a ``TypedValue`` is
    always built through its constructor.
    """

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(self)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


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

INDICATOR_ID_PATTERN = re.compile(
    rf"^({'|'.join(cat.code for cat in CATEGORIES)})-(QN|QL|AUX)(-\d+)?$")

# What a schema row cannot hold in a field: the delimiter or a line break.
_UNWRITABLE = re.compile(r"[|\n\r]")


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
    DEFAULT = "default"  # higher-better by convention, no polarity asserted


class IndicatorDef(Record, namedtuple("IndicatorDef", (
        "id", "category", "kind", "data_type", "unit", "direction", "description"))):
    @cached_property
    def scorable(self) -> bool:
        return (
            self.kind is Kind.QUANTITATIVE
            and self.direction is not Direction.NON_SCORABLE
            and self.data_type in (DataType.NUMERIC, DataType.RATIONAL, DataType.BINARY)
        )

    @cached_property
    def parsed_cells(self) -> dict:
        """``ingest.parse_value``'s successful results, keyed by raw cell.
        A parse depends only on the cell text and this definition, so an
        entry is valid for as long as the definition lives.  It is no
        field: copies, ``_replace`` and pickles start with it empty."""
        return {}

    def validate(self) -> None:
        if not INDICATOR_ID_PATTERN.fullmatch(self.id):
            raise SchemaError(f"indicator id {self.id!r} is not well formed", self.id)
        if not self.id.startswith(self.category.code + "-"):
            raise SchemaError(
                f"indicator {self.id!r} declares category {self.category.code}", self.id
            )
        for name, text in (("unit", self.unit), ("description", self.description)):
            if text != text.strip() or _UNWRITABLE.search(text):
                raise SchemaError(f"indicator {self.id!r} has a {name} {text!r} that a "
                                  "schema row cannot hold", self.id)
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


class Schema(Record, namedtuple("Schema", ("indicators",))):
    @cached_property
    def get(self):
        """``get(indicator_id)`` returns the indicator with that id, or None.
        It is the id map's own bound ``dict.get``, so each lookup (one per
        ingested row and per scored column) is a single call into C.  It
        is no field: copies and pickles rebuild it from the indicators."""
        return {ind.id: ind for ind in self.indicators}.get

    @cached_property
    def observed_lines(self) -> dict:
        """``ingest.load_program_dataset``'s memo of observation lines read
        under this schema: line text -> (definition, finished Observation).
        It is no field either, so copies and pickles start with it empty."""
        return {}

    def validate(self) -> None:
        # A document always reloads as a tuple, which a list never equals.
        if not isinstance(self.indicators, tuple):
            raise SchemaError(f"schema indicators must be a tuple, not a "
                              f"{type(self.indicators).__name__}")
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


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

_HEADER = ("id", "category", "kind", "data_type", "unit", "direction", "description")


def _member(enum: type[Enum], token: str, what: str):
    """The member of *enum* whose value is *token* in any case."""
    try:
        return enum(token.lower())
    except ValueError:
        raise ParseError(f"unknown {what} {token!r}") from None


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
                    ind.direction.value,
                    ind.description,
                )
            )
        )
    return "\n".join(lines) + "\n"


def load_schema(source: bytes | str) -> Schema:
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
    try:
        for line_no, fields in records[1:]:
            if len(fields) != len(_HEADER):
                raise ParseError(f"expected {len(_HEADER)} fields, got {len(fields)}")
            ind_id, cat_code, kind_tok, dt_tok, unit, dir_tok, description = fields
            kind = _member(Kind, kind_tok, "kind")
            data_type = (None if dt_tok.lower() in ("n.a.", "none", "-", "")
                         else _member(DataType, dt_tok, "data type"))
            indicators.append(IndicatorDef(ind_id, Category.from_code(cat_code), kind, data_type,
                                           unit, _member(Direction, dir_tok, "direction"),
                                           description))
    except ParseError as exc:  # every row error names its line
        exc.args = (f"line {line_no}: {exc}",)
        raise

    schema = Schema(indicators=tuple(indicators))
    schema.validate()
    return schema


# The builtin indicator registry, exactly as ``gmi schema dump`` prints it.
# No row asserts a polarity: every scorable indicator is ``default``.
_BUILTIN_DOCUMENT = """\
id|category|kind|data_type|unit|direction|description
FAO-QN|FAO|synthetic|n.a.|none|non-scorable|Focus Areas and Objectives
FAO-QL|FAO|rubric|numeric|scoring|default|Rubric Scoring Focus Areas and Objectives
FAO-QN-2|FAO|quantitative|numeric|USD|default|Minimum Grant Size
FAO-QN-3|FAO|quantitative|numeric|USD|default|Maximum Grant Size
FAO-QN-6|FAO|quantitative|numeric|weeks|default|Evaluation Timeframe
FAO-QN-7|FAO|quantitative|text|none|non-scorable|Grant Platform
FAO-QN-8|FAO|quantitative|text|none|non-scorable|Link to Grant Round(s)
FAO-QN-9|FAO|quantitative|numeric|scoring|default|Grant types
FAO-QN-10|FAO|quantitative|numeric|scoring|default|Funding Type
FAO-AUX-1|FAO|quantitative|numeric|USD|default|Average Grant Size
FAO-AUX-2|FAO|quantitative|text|none|non-scorable|Funding Type (simplified)
FAO-AUX-3|FAO|quantitative|rational|USD|default|Market capitalisation of funding asset at round start
FAO-AUX-4|FAO|quantitative|rational|USD|default|Market capitalisation of funding asset at round start (repeat listing)
PSO-QN|PSO|synthetic|n.a.|none|non-scorable|Program Structure and Organisation
PSO-QL|PSO|rubric|numeric|scoring|default|Rubric Scoring Program Structure and Organisation
PSO-QN-1|PSO|quantitative|numeric|scoring|default|Origin of Funds
PSO-QN-2|PSO|quantitative|binary|scoring|default|Vesting Period for Fund Allocation
PSO-QN-3|PSO|quantitative|numeric|scoring|default|Organizational Structure of Grantor
PSO-QN-4|PSO|quantitative|numeric|scoring|default|Grant Program Principal
PSO-QN-5|PSO|quantitative|numeric|signatories|default|Grant Program Agents
PSO-QN-6|PSO|quantitative|text|none|non-scorable|Governance Structure
PSO-AUX-1|PSO|quantitative|text|none|non-scorable|Organizational Structure of Grantor (governing body)
PSO-AUX-2|PSO|quantitative|text|none|non-scorable|Organizational Structure of Grantor (oversight)
PSO-AUX-3|PSO|quantitative|text|none|non-scorable|Grant Program Principal (entity)
PSO-AUX-4|PSO|quantitative|text|none|non-scorable|Governance Structure (allocation process)
GOV-QN|GOV|synthetic|n.a.|none|non-scorable|Governance
GOV-QL|GOV|rubric|numeric|scoring|default|Rubric Scoring Governance
GOV-QN-1|GOV|quantitative|numeric|scoring|default|Grant Program Objective
GOV-QN-3|GOV|quantitative|numeric|scoring|default|Existence of Program Objective Description
GOV-QN-4|GOV|quantitative|text|none|non-scorable|Link to Program Objective
EFI-QN|EFI|synthetic|n.a.|none|non-scorable|Effectiveness and Impact
EFI-QL|EFI|rubric|numeric|scoring|default|Rubric Scoring Effectiveness and Impact
EFI-QN-1|EFI|quantitative|binary|scoring|default|Evaluation Criteria Public
EFI-QN-2|EFI|quantitative|binary|scoring|default|Evaluation Shared with Applicants
EFI-QN-3|EFI|quantitative|text|none|non-scorable|Reference to Evaluation Criteria
EFI-QN-4|EFI|quantitative|binary|scoring|default|Grant process explained
EFI-QN-6|EFI|quantitative|iso-alpha-3|none|non-scorable|Domicile Foundation
EFI-QN-8|EFI|quantitative|numeric|scoring|default|Program Audit
TAC-QN|TAC|synthetic|n.a.|none|non-scorable|Transparency and Accountability
TAC-QL|TAC|rubric|numeric|scoring|default|Rubric Scoring Transparency and Accountability
TAC-QN-4|TAC|quantitative|rational|conversion rate|default|Average Application to Allocation share
TAC-QN-5|TAC|quantitative|binary|scoring|default|Operated by a Service Provider
TAC-QN-6|TAC|quantitative|rational|conversion rate|default|Program Manager to Applicant Ratio
COM-QN|COM|synthetic|n.a.|none|non-scorable|Community Engagement
COM-QL|COM|rubric|numeric|scoring|default|Rubric Scoring Community Engagement
COM-QN-1|COM|quantitative|numeric|headcount|default|Minimum Applicant Count per Round
COM-QN-2|COM|quantitative|numeric|headcount|default|Maximum Applicant Count per Round
COM-QN-4|COM|quantitative|numeric|grant count|default|Minimum Number of Grants Allocated per Round
COM-QN-5|COM|quantitative|numeric|grant count|default|Maximum Number of Grants Allocated per Round
COM-QN-7|COM|quantitative|numeric|weeks|default|Minimum Grant Duration
COM-QN-8|COM|quantitative|numeric|weeks|default|Maximum Grant Duration
COM-QN-11|COM|quantitative|rational|years|default|Time of Existence
COM-QN-12|COM|quantitative|numeric|rounds|default|Round Count since Inception
COM-QN-13|COM|quantitative|numeric|tracks|default|Number of Tracks per Round
COM-QN-14|COM|quantitative|rational|USD|default|Overall Budget since Inception
COM-QN-19|COM|quantitative|rational|USD|default|Operations Budget per Round
COM-QN-20|COM|quantitative|rational|ratio|default|Operations Budget to Round Budget Ratio
COM-QN-21|COM|quantitative|numeric|headcount|default|Program Management Team Size
COM-QN-22|COM|quantitative|numeric|scoring|default|Impact Measurement
COM-QN-23|COM|quantitative|binary|scoring|default|Grant Size Standardisation
COM-AUX-1|COM|quantitative|numeric|headcount|default|Average Applicant Count per Round
COM-AUX-2|COM|quantitative|numeric|grant count|default|Average Number of Grants Allocated per Round
COM-AUX-3|COM|quantitative|numeric|weeks|default|Average Grant Duration
"""


def builtin_schema() -> Schema:
    """Return the builtin indicator registry (validated)."""
    return load_schema(_BUILTIN_DOCUMENT)
