"""Observation parsing: raw cell grammar, unit coercion, dataset loading.

Value grammar (case-insensitive, surrounding whitespace ignored), applied
under the indicator's declared data type:

* ``n.a.`` / ``tbc`` / empty cell -> Missing.  ``Link`` is kept as text under
  text indicators and treated as Missing elsewhere (placeholder cell).
* text indicators keep the cell verbatim as Text.
* a leading ``<`` or ``>`` marks an approximate upper/lower bound; the rest
  of the cell parses normally and the qualifier is preserved.
* iso-alpha-3 indicators accept a bare ISO 3166-1 alpha-3 code or a known
  jurisdiction name; a trailing ``Foundation`` entity suffix is ignored.
* binary indicators accept ``0``/``1`` and ``no``/``yes``.
* ``$X`` is USD money; thousands separators and magnitude suffixes
  k/m/b (1e3/1e6/1e9) are understood; a trailing token symbol after a ``$``
  amount is ignored.
* ``A:B`` is a ratio, stored with numerator and denominator.
* a number followed by a time-unit word (``week(s)``/``month(s)``/
  ``year(s)``) is a Number annotated with that unit for later coercion.
* a number followed by an upper-case symbol (``50K OP``) is a token amount.
* ``N (free text)`` is a Number carrying the leading numeral; under
  indicators with unit ``scoring`` the numeral is a categorical code and is
  marked as such (codes only score when the indicator's direction was set
  explicitly).
* a bare number (separators and magnitude suffixes allowed) is a Number.
* anything else raises ValueParseError.

Observation files are pipe-delimited UTF-8 text::

    # comments and blank lines are ignored
    program|<name>                      (required, first record)
    <indicator-id>|<raw value>[|<unit>] (observation row)
    <criterion-id>|<score>              (rubric self-assessment row)

A first field matching the indicator id pattern is an observation; any other
first field is read as a rubric criterion id with an integer 1..5 score, or
a blank score for an unanswered criterion, as in survey response files.

Cell text repeats down every column of a cohort (flags, codes, platforms,
placeholders), so each indicator definition memoises its cells:
``parse_value`` keeps each successful parse in ``parsed_cells`` (raw cell ->
TypedValue), and ``load_program_dataset`` keeps each finished, immutable
Observation in ``observed_rows`` (``(raw cell, unit field)`` -> Observation)
and shares it between datasets.  Only successes are stored: a cell or unit
error is raised afresh, with its own message, every time it is met.  Every
row check (field count, unknown indicator, kind, duplicate) runs before the
memo is consulted.  The memos live as long as the definitions, that is, as
long as the schema: ``builtin_schema()`` builds fresh definitions on every
call, and a long-lived schema keeps one entry per distinct cell it has
parsed.

Per-row and per-cell code compares kinds, qualifiers and data types with
module-level bindings of the Enum members made at import (``_NUMBER``,
``_EXACT``, ``_TEXT_DATA`` and so on), never with a read through the class:
on Python 3.10 and 3.11 ``ValueKind.NUMBER`` runs ``EnumType.__getattr__``
in Python every time.  A cohort is a list of datasets, and ``scoring``
builds each indicator column from it by position.

Layer order: this module sits above ``rubric`` and below ``scoring``.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping, Sequence
from enum import Enum

from . import rubric
from .errors import (
    DuplicateIndicator,
    ParseError,
    UnitError,
    UnknownIndicator,
    ValueParseError,
)
from .schema import (
    CATEGORIES,
    INDICATOR_ID_PATTERN,
    Category,
    DataType,
    IndicatorDef,
    Kind,
    Record,
    Schema,
    read_records,
    set_field,
)

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: start-up does not import typing
    from typing import IO

# Fixed time conversions, chosen for reproducibility over calendar precision.
WEEKS_PER_MONTH = 4.345
WEEKS_PER_YEAR = 52.14

_TIME_UNITS = {
    "week": 1.0,
    "weeks": 1.0,
    "month": WEEKS_PER_MONTH,
    "months": WEEKS_PER_MONTH,
    "year": WEEKS_PER_YEAR,
    "years": WEEKS_PER_YEAR,
}

_CANONICAL_TIME = {"week": "weeks", "month": "months", "year": "years"}

_MISSING_SENTINELS = {"n.a.", "tbc", ""}

_MAGNITUDE = {"k": 1e3, "m": 1e6, "b": 1e9}

# Jurisdiction names that appear in legal-domicile cells, mapped to ISO
# 3166-1 alpha-3. Extend as new domiciles show up in source data.
_JURISDICTIONS = {
    "cayman islands": "CYM",
    "british virgin islands": "VGB",
    "switzerland": "CHE",
    "singapore": "SGP",
    "panama": "PAN",
    "united states": "USA",
    "liechtenstein": "LIE",
    "gibraltar": "GIB",
    "bermuda": "BMU",
    "seychelles": "SYC",
}

_MAGNITUDE_RE = re.compile(r"^(-?\d[\d,]*(?:\.\d+)?)([kKmMbB])?$")
_RATIO_RE = re.compile(r"^(\d[\d,]*(?:\.\d+)?)\s*:\s*(\d[\d,]*(?:\.\d+)?)$")
_CODE_RE = re.compile(r"^(-?\d[\d,]*(?:\.\d+)?)\s*\((.+)\)$")
_WORD_SUFFIX_RE = re.compile(r"^(\S+)\s+([A-Za-z]+)$")


class ValueKind(Enum):
    NUMBER = "number"
    RATIO = "ratio"
    MONEY = "money"
    TOKEN_AMOUNT = "token-amount"
    BINARY = "binary"
    COUNTRY = "country"
    TEXT = "text"
    MISSING = "missing"


class Qualifier(Enum):
    EXACT = "exact"
    APPROX_LOWER_BOUND = "approximate-lower-bound"
    APPROX_UPPER_BOUND = "approximate-upper-bound"
    UNSPECIFIED = "unspecified"

    __hash__ = object.__hash__  # identity, as for schema.Category


# The members per-row and per-cell code compares with (see the module
# docstring for why they are bound once).
_NUMBER, _RATIO, _MONEY, _TOKEN_AMOUNT = (
    ValueKind.NUMBER, ValueKind.RATIO, ValueKind.MONEY, ValueKind.TOKEN_AMOUNT)
_BINARY, _COUNTRY, _TEXT, _MISSING = (
    ValueKind.BINARY, ValueKind.COUNTRY, ValueKind.TEXT, ValueKind.MISSING)
_EXACT, _UNSPECIFIED = Qualifier.EXACT, Qualifier.UNSPECIFIED
_LOWER_BOUND, _UPPER_BOUND = Qualifier.APPROX_LOWER_BOUND, Qualifier.APPROX_UPPER_BOUND
_TEXT_DATA, _COUNTRY_DATA, _BINARY_DATA = DataType.TEXT, DataType.ISO_ALPHA_3, DataType.BINARY
_NUMERIC_DATA = (DataType.NUMERIC, DataType.RATIONAL)
_QUANTITATIVE = Kind.QUANTITATIVE


class TypedValue(Record):
    __slots__ = _fields = ("kind", "value", "symbol", "text", "numerator", "denominator",
                           "unit", "is_code", "qualifier")

    def __init__(
        self,
        kind: ValueKind,
        value: float | None = None,
        symbol: str | None = None,  # token symbol, or "USD" for money
        text: str | None = None,
        numerator: float | None = None,  # ratio components, kept for round-trips
        denominator: float | None = None,
        unit: str | None = None,  # unit the value is currently expressed in
        is_code: bool = False,  # leading-numeral categorical cell under unit=scoring
        qualifier: Qualifier = Qualifier.EXACT,
    ) -> None:
        for x in (value, numerator, denominator):
            if x is not None and not math.isfinite(x):
                raise ValueError(f"{x!r} is not a finite number")
        if kind is _MONEY or kind is _TOKEN_AMOUNT:
            if value is None or value < 0:
                raise ValueError(f"{kind.value} amount must be >= 0")
        if kind is _BINARY and value not in (0.0, 1.0):
            raise ValueError("binary value must be 0 or 1")
        if kind is _MISSING and qualifier is not _UNSPECIFIED:
            raise ValueError("missing values carry no qualifier")
        set_field(self, "kind", kind)
        set_field(self, "value", value)
        set_field(self, "symbol", symbol)
        set_field(self, "text", text)
        set_field(self, "numerator", numerator)
        set_field(self, "denominator", denominator)
        set_field(self, "unit", unit)
        set_field(self, "is_code", is_code)
        set_field(self, "qualifier", qualifier)

    @property
    def missing(self) -> bool:
        return self.kind is _MISSING


MISSING = TypedValue(kind=_MISSING, qualifier=_UNSPECIFIED)


def number(value: float, unit: str | None = None, is_code: bool = False,
           qualifier: Qualifier = Qualifier.EXACT) -> TypedValue:
    return TypedValue(kind=_NUMBER, value=float(value), unit=unit,
                      is_code=is_code, qualifier=qualifier)


def money(amount: float, qualifier: Qualifier = Qualifier.EXACT) -> TypedValue:
    return TypedValue(kind=_MONEY, value=float(amount), symbol="USD",
                      qualifier=qualifier)


def token_amount(amount: float, symbol: str,
                 qualifier: Qualifier = Qualifier.EXACT) -> TypedValue:
    return TypedValue(kind=_TOKEN_AMOUNT, value=float(amount),
                      symbol=symbol.upper(), qualifier=qualifier)


def ratio(numerator: float, denominator: float,
          qualifier: Qualifier = Qualifier.EXACT) -> TypedValue:
    if denominator == 0:
        raise ValueError("ratio denominator must be non-zero")
    return TypedValue(kind=_RATIO, value=numerator / denominator,
                      numerator=float(numerator), denominator=float(denominator),
                      qualifier=qualifier)


def binary(value: int, qualifier: Qualifier = Qualifier.EXACT) -> TypedValue:
    return TypedValue(kind=_BINARY, value=float(value), qualifier=qualifier)


def country(code: str, qualifier: Qualifier = Qualifier.EXACT) -> TypedValue:
    return TypedValue(kind=_COUNTRY, text=code.upper(), qualifier=qualifier)


def text(value: str, qualifier: Qualifier = Qualifier.EXACT) -> TypedValue:
    return TypedValue(kind=_TEXT, text=value, qualifier=qualifier)


def _to_float(token: str) -> float:
    return float(token.replace(",", ""))


def _parse_amount(token: str) -> float | None:
    m = _MAGNITUDE_RE.match(token)
    if not m:
        return None
    base = _to_float(m.group(1))
    if m.group(2):
        base *= _MAGNITUDE[m.group(2).lower()]
    return base


def _parse_country(body: str, raw: str, definition: IndicatorDef,
                   qualifier: Qualifier) -> TypedValue:
    cleaned = re.sub(r"\(.*?\)", " ", body).strip()
    words = cleaned.split()
    if words and words[-1].lower() == "foundation":
        words = words[:-1]
    cleaned = " ".join(words)
    if re.fullmatch(r"[A-Za-z]{3}", cleaned):
        return country(cleaned, qualifier)
    code = _JURISDICTIONS.get(cleaned.lower())
    if code:
        return country(code, qualifier)
    raise ValueParseError(raw, definition.id, "not an ISO alpha-3 code or known jurisdiction")


def parse_value(raw: str, definition: IndicatorDef) -> TypedValue:
    """Parse one raw cell under *definition*'s declared data type.

    A successful parse is kept in ``definition.parsed_cells``; a cell that
    fails is parsed again, and fails again, on every call.
    """
    memo = definition.parsed_cells
    value = memo.get(raw)
    if value is None:
        try:
            value = _parse_cell(raw, definition)
        except ValueParseError:
            raise
        except ValueError as exc:
            # constructor guards (negative amounts, zero denominators)
            raise ValueParseError(raw, definition.id, str(exc)) from exc
        memo[raw] = value
    return value


def _parse_cell(raw: str, definition: IndicatorDef) -> TypedValue:
    body = raw.strip()
    lowered = body.lower()

    data_type = definition.data_type
    if lowered in _MISSING_SENTINELS:
        return MISSING
    if lowered == "link" and data_type is not _TEXT_DATA:
        return MISSING

    if data_type is _TEXT_DATA:
        return text(body)

    qualifier = _EXACT
    if body.startswith("<"):
        qualifier = _UPPER_BOUND
        body = body[1:].strip()
    elif body.startswith(">"):
        qualifier = _LOWER_BOUND
        body = body[1:].strip()

    if data_type is _COUNTRY_DATA:
        return _parse_country(body, raw, definition, qualifier)

    if data_type is _BINARY_DATA:
        if body in ("0", "1"):
            return binary(int(body), qualifier)
        if body.lower() in ("no", "yes"):
            return binary(int(body.lower() == "yes"), qualifier)
        raise ValueParseError(raw, definition.id, "binary cells must be 0/1 or no/yes")

    if data_type not in _NUMERIC_DATA:
        raise ValueParseError(raw, definition.id, "indicator is not observable")

    if body.startswith("$"):
        rest = body[1:].strip()
        # A trailing token symbol after a dollar amount is ignored in favour
        # of the dollar sign.
        sym = _WORD_SUFFIX_RE.match(rest)
        if sym and sym.group(2).isupper():
            rest = sym.group(1)
        amount = _parse_amount(rest)
        if amount is None:
            raise ValueParseError(raw, definition.id, "malformed money amount")
        return money(amount, qualifier)

    m = _RATIO_RE.match(body)
    if m:
        return ratio(_to_float(m.group(1)), _to_float(m.group(2)), qualifier)

    m = _CODE_RE.match(body)
    if m:
        return number(_to_float(m.group(1)), is_code=definition.unit == "scoring",
                      qualifier=qualifier)

    m = _WORD_SUFFIX_RE.match(body)
    if m:
        head, word = m.group(1), m.group(2)
        if word.lower() in _TIME_UNITS:
            amount = _parse_amount(head)
            if amount is None:
                raise ValueParseError(raw, definition.id, "malformed duration")
            unit = _CANONICAL_TIME[word.lower().rstrip("s")]
            return number(amount, unit=unit, qualifier=qualifier)
        if word.isupper() and 2 <= len(word) <= 6:
            amount = _parse_amount(head)
            if amount is None:
                raise ValueParseError(raw, definition.id, "malformed token amount")
            return token_amount(amount, word, qualifier)
        raise ValueParseError(raw, definition.id, f"unrecognised suffix {word!r}")

    amount = _parse_amount(body)
    if amount is not None:
        return number(amount, qualifier=qualifier)

    raise ValueParseError(raw, definition.id)


def format_value(value: TypedValue) -> str:
    """Canonical text form; parse_value(format_value(v), def) == v."""
    prefix = {_UPPER_BOUND: "<", _LOWER_BOUND: ">"}.get(value.qualifier, "")
    kind = value.kind
    if kind is _MISSING:
        return "n.a."
    if kind is _TEXT:
        return value.text or ""
    if kind is _COUNTRY:
        return prefix + (value.text or "")
    if kind is _BINARY:
        return prefix + str(int(value.value))
    if kind is _MONEY:
        return prefix + "$" + _format_number(value.value)
    if kind is _TOKEN_AMOUNT:
        return f"{prefix}{_format_number(value.value)} {value.symbol}"
    if kind is _RATIO:
        return f"{prefix}{_format_number(value.numerator)}:{_format_number(value.denominator)}"
    out = prefix + _format_number(value.value)
    if value.is_code:
        out += " (code)"
    if value.unit:
        out += f" {value.unit}"
    return out


def _format_number(x: float | None) -> str:
    """The shortest round-tripping digits of *x*, always in positional form:
    the value grammar has no exponents."""
    if x is None:
        return ""
    if x == int(x):
        return str(int(x))
    text = repr(x)
    mantissa, _, exponent = text.partition("e")
    if not exponent:
        return text
    # Every float of 1e16 or more is an integer, so only a magnitude below
    # 1e-4 reaches here: "d.ddd" or "d" times a negative power of ten.
    _, sign, digits = mantissa.rpartition("-")
    return f"{sign}0.{'0' * (-int(exponent) - 1)}{digits.replace('.', '')}"


def coerce_unit(value: TypedValue, from_unit: str | None, definition: IndicatorDef) -> TypedValue:
    """Express *value* in the indicator's declared unit.

    Identity when units already agree; otherwise only time units convert
    (fixed week factors above). Any other mismatch raises UnitError.
    """
    if from_unit is None or from_unit.lower() == definition.unit.lower():
        if value.kind is _NUMBER and value.unit is not None:
            return number(value.value, is_code=value.is_code, qualifier=value.qualifier)
        return value
    src = from_unit.lower()
    dst = definition.unit.lower()
    if src in _TIME_UNITS and dst in _TIME_UNITS and value.kind is _NUMBER:
        converted = value.value * _TIME_UNITS[src] / _TIME_UNITS[dst]
        return number(converted, is_code=value.is_code, qualifier=value.qualifier)
    raise UnitError(from_unit, definition.unit)


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

class Observation(Record):
    __slots__ = _fields = ("indicator_id", "raw", "value")

    def __init__(self, indicator_id: str, raw: str, value: TypedValue) -> None:
        set_field(self, "indicator_id", indicator_id)
        set_field(self, "raw", raw)
        set_field(self, "value", value)


class ProgramDataset(Record):
    __slots__ = _fields = ("program", "observations", "rubric")
    program: str
    observations: dict[str, Observation]
    rubric: dict[str, int]


def load_program_dataset(source: IO[bytes] | IO[str] | str, schema: Schema) -> ProgramDataset:
    """Load one program's observation file against *schema*."""
    records = read_records(source)
    if not records or records[0][1][0].lower() != "program":
        raise ParseError("observation file must start with a 'program|<name>' record")
    line_no, fields = records[0]
    if len(fields) != 2:
        raise ParseError(f"line {line_no}: program records have 2 fields")
    program = fields[1]
    if not program:
        raise ParseError(f"line {line_no}: program name is empty")

    observations: dict[str, Observation] = {}
    answers: dict[str, int] = {}
    for line_no, fields in records[1:]:
        key = fields[0]
        # Every schema id matches the indicator id pattern, so the pattern
        # is consulted only for a key the schema lacks.
        definition = schema.get(key)
        if definition is not None or INDICATOR_ID_PATTERN.match(key):
            if len(fields) not in (2, 3):
                raise ParseError(f"line {line_no}: observation rows have 2 or 3 fields")
            if definition is None:
                raise UnknownIndicator(key)
            if definition.kind is not _QUANTITATIVE:
                raise ParseError(
                    f"line {line_no}: {key} is a {definition.kind.value} indicator "
                    "and cannot be observed directly"
                )
            if key in observations:
                raise DuplicateIndicator(key)
            raw = fields[1]
            value = parse_value(raw, definition)
            row = (raw, fields[2] if len(fields) == 3 else "")
            observation = definition.observed_rows.get(row)
            if observation is None:
                annotation = row[1].lower() or None
                if annotation:
                    annotation = _CANONICAL_TIME.get(annotation.rstrip("s"), annotation)
                inline = value.unit if value.kind is _NUMBER else None
                if inline and annotation and inline != annotation:
                    raise ParseError(
                        f"line {line_no}: unit annotation {annotation!r} contradicts "
                        f"inline unit {inline!r}"
                    )
                try:
                    value = coerce_unit(value, inline or annotation or definition.unit,
                                        definition)
                except ValueError as exc:  # the converted number is not finite
                    raise ValueParseError(raw, key, str(exc)) from exc
                observation = definition.observed_rows[row] = Observation(
                    indicator_id=key, raw=raw, value=value)
            observations[key] = observation
        elif key.lower() == "program":
            raise ParseError(f"line {line_no}: a second program record; a file holds one program")
        else:
            rubric.read_answer(answers, line_no, fields)

    return ProgramDataset(program=program, observations=observations, rubric=answers)


def check_distinct_programs(programs: Sequence[str]) -> None:
    """Raise ParseError when a program name repeats across datasets;
    ``gmi validate`` and ``gmi score`` both run this check."""
    if len(set(programs)) != len(programs):
        raise ParseError("duplicate program names across datasets")


def load_rates(source: IO[bytes] | IO[str] | str) -> dict[str, float]:
    """Load a token conversion table (``SYMBOL|usd-per-token`` lines)."""
    rates: dict[str, float] = {}
    for line_no, fields in read_records(source):
        if len(fields) != 2:
            raise ParseError(f"line {line_no}: rate rows have 2 fields")
        symbol = fields[0].upper()
        try:
            rate = float(fields[1])
        except ValueError:
            raise ParseError(f"line {line_no}: rate {fields[1]!r} is not a number") from None
        if not 0 < rate < math.inf:
            raise ParseError(f"line {line_no}: rate for {symbol} must be positive and finite")
        if symbol in rates:
            raise ParseError(f"line {line_no}: duplicate rate for {symbol}")
        rates[symbol] = rate
    return rates


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def scoring_status(value: TypedValue, definition: IndicatorDef,
                   rates: Mapping[str, float] | None = None) -> tuple[float | None, str | None]:
    """(numeric value, None) when the observation would score now, else
    (None, exclusion reason)."""
    if not definition.scorable:
        return None, "non-scorable"
    kind = value.kind
    if kind is _MISSING:
        return None, "missing"
    if kind is _TOKEN_AMOUNT:
        rate = (rates or {}).get(value.symbol or "")
        if rate is None:
            return None, "token-unconverted"
        return value.value * rate, None
    if kind is _NUMBER and value.is_code and not definition.explicit_direction:
        return None, "non-scorable"
    if kind is _TEXT or kind is _COUNTRY:
        return None, "non-scorable"
    return value.value, None


class CategoryValidation(Record):
    __slots__ = _fields = ("category", "scorable_present", "missing", "non_scorable",
                           "token_unconverted", "rubric_responses", "scorable")
    category: Category
    scorable_present: tuple[str, ...]
    missing: tuple[str, ...]
    non_scorable: tuple[str, ...]
    token_unconverted: tuple[str, ...]
    rubric_responses: int
    scorable: bool


class ValidationReport(Record):
    __slots__ = _fields = ("program", "categories")
    program: str
    categories: dict[Category, CategoryValidation]

    @property
    def all_scorable(self) -> bool:
        return all(c.scorable for c in self.categories.values())

    def unscorable_categories(self) -> list[Category]:
        return [cat for cat, c in self.categories.items() if not c.scorable]


def validate_dataset(dataset: ProgramDataset, schema: Schema,
                     template=None) -> ValidationReport:
    """Pre-scoring gate: per category, what would score and what is excluded.

    A category is scorable iff it has at least one observation that would be
    included in normalization right now (no conversion table assumed) or at
    least one rubric response.  Rubric answers go through the same check as
    in scoring, so an unknown criterion raises UnknownCriterion here too.
    """
    template = template or rubric.builtin_template()
    # Keyed by scoring_status's exclusion reason; None collects what scores.
    by_category: dict[Category, dict[str | None, list[str]]] = {
        cat: {None: [], "missing": [], "non-scorable": [], "token-unconverted": []}
        for cat in CATEGORIES
    }
    for obs in dataset.observations.values():
        definition = schema.get(obs.indicator_id)
        if definition is None:
            raise UnknownIndicator(obs.indicator_id)
        _, exclusion = scoring_status(obs.value, definition)
        by_category[definition.category][exclusion].append(obs.indicator_id)

    grouped = rubric.collect_responses(template, dataset.rubric)
    rubric_counts = {cat: len(grouped.get(cat, ())) for cat in CATEGORIES}

    categories = {
        cat: CategoryValidation(
            category=cat,
            scorable_present=tuple(buckets[None]),
            missing=tuple(buckets["missing"]),
            non_scorable=tuple(buckets["non-scorable"]),
            token_unconverted=tuple(buckets["token-unconverted"]),
            rubric_responses=rubric_counts[cat],
            scorable=bool(buckets[None]) or rubric_counts[cat] > 0,
        )
        for cat, buckets in by_category.items()
    }
    return ValidationReport(program=dataset.program, categories=categories)
