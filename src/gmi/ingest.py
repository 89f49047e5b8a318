"""Observation parsing: raw cell grammar, unit coercion, dataset loading.

Value grammar (case-insensitive, surrounding whitespace ignored), applied
under the indicator's declared data type:

* ``n.a.`` / ``tbc`` / empty cell -> Missing.  ``Link`` is kept as text under
  text indicators and treated as Missing elsewhere (placeholder cell).
* a cell under a text indicator is Text.  A Text or Country value holds
  no copy of the cell: the Observation keeps the raw cell, and the report
  prints that.
* a leading ``<`` or ``>`` marks an approximate upper/lower bound; the rest
  of the cell parses normally and the qualifier is preserved.
* iso-alpha-3 indicators accept a bare ISO 3166-1 alpha-3 code or a known
  jurisdiction name; a trailing ``Foundation`` entity suffix is ignored.
* binary indicators accept ``0``/``1`` and ``no``/``yes``.
* ``$X`` is USD money; thousands separators and magnitude suffixes
  k/m/b (1e3/1e6/1e9) are understood, and a suffixed numeral is read as one
  decimal number (``4.1m`` as ``4.1e6``, the float of ``4,100,000``); a
  trailing token symbol after a ``$`` amount is ignored.  Money and token
  amounts need a USD indicator.
* in every numeral, commas separate thousands only: 1 to 3 digits, then
  groups of exactly 3 (``1,000``, ``12,500.5``).  ``1,5`` or ``1,,000`` is
  an error, not 15 or 1000: a cell that some form matches once its commas
  are removed fails with ``misgrouped thousands separator``.
* ``A:B`` is a ratio, valued A/B; a zero ``B`` is an error.
* a number followed by a time-unit word (``week``/``month``/``year``, at most
  one trailing ``s``, as in a unit field) is a Number annotated with it.
* a number followed by an upper-case symbol (``50K OP``) is a token amount.
* ``N (free text)`` is a Number carrying the leading numeral; under
  indicators with unit ``scoring`` the numeral is a categorical code and is
  marked as such (a code scores under any direction but ``default`` and
  ``non-scorable``).
* a bare number (separators and magnitude suffixes allowed) is a Number.
* anything else raises ValueParseError.

A numeric cell is matched once, against one alternation of these forms; a
cell no form matches is classified by its shape to name its fault.

Every ``TypedValue`` is built by its constructor, the one place a parsed
value's rules are written: the value is finite, and is None exactly for a
missing, text or country value; money and token amounts are >= 0; a binary
value is 0 or 1; a missing value's qualifier is ``unspecified``; the symbol
is ``"USD"`` exactly for money, a non-empty string for a token amount and
None otherwise; only a number carries a unit or the code flag.  Parsing
and ``coerce_unit`` call it with all six fields positional, and a broken
rule is a ValueError that ``parse_value`` reports as the cell's
ValueParseError.

Observation files are pipe-delimited UTF-8 text::

    # comments and blank lines are ignored
    program|<name>                      (required, first record)
    <indicator-id>|<raw value>[|<unit>] (observation row)
    <criterion-id>|<score>              (rubric self-assessment row)

A first field matching the indicator id pattern is an observation; any other
first field is read as a rubric criterion id with an integer 1..5 score, or
a blank score for an unanswered criterion, as ``gmi survey template``
prints them.  An answered row must name a builtin criterion.

Lines repeat across a cohort (flags, codes, platforms, placeholders,
survey answers, comments), so ingest memoises at two levels.
``schema.observed_lines`` caches ``_read_row``, which reads one line after
the program record and raises for any fault the line has on its own: each
line read without error maps to ``(definition, finished Observation)`` for
an observation row, ``(None, (criterion id, score))`` for an answered
rubric row and ``(None, None)`` for a comment, a blank line or an
unanswered rubric row.  ``load_program_dataset`` runs the per-file checks,
for a repeated indicator or answered criterion, on every row, hit or miss,
so a row that repeats an indicator and has a fault of its own reports its
own fault.  An observation hit also makes the cell's ``parse_value`` call
(perfbench's trace counts one per observation row) and shares the
immutable Observation.  Below it, ``definition.parsed_cells`` maps each
raw cell to its TypedValue; a successful parse depends only on the cell
text, the data type and the code flag (``unit == "scoring"``), so
``load_schema`` gives all the definitions of one data type and code flag
one shared dict.  Only successes are stored: an error, which names the
definition's id, is raised afresh every time it is met, and any error
raised while reading a row names the row's line.  Both memos belong to
one loaded schema and start empty when it is built, copied or unpickled
(``builtin_schema()`` builds a fresh schema per call); a long-lived schema
keeps one entry per distinct line and per distinct cell of each parse
class.

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
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from enum import Enum

from . import rubric
from .errors import (
    DuplicateIndicator,
    GmiError,
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
    Direction,
    IndicatorDef,
    Kind,
    Schema,
    read_lines,
    read_number,
    read_records,
    record_fields,
)

# Weeks per time unit, by canonical name: the fixed factors 4.345 and 52.14,
# reproducible rather than calendar-exact, as exact ratios of their decimals.
_WEEKS_PER = {"weeks": (1, 1), "months": (869, 200), "years": (2607, 50)}

_MISSING_SENTINELS = {"n.a.", "tbc", ""}

EXCLUSION_REASONS = ("missing", "non-scorable", "token-unconverted")  # of scoring_status

_MAGNITUDE = {"k": "e3", "m": "e6", "b": "e9"}

# Jurisdiction names that a legal-domicile cell may hold in place of an ISO
# 3166-1 alpha-3 code. Extend as new domiciles show up in source data.
_JURISDICTIONS = frozenset((
    "cayman islands",
    "british virgin islands",
    "switzerland",
    "singapore",
    "panama",
    "united states",
    "liechtenstein",
    "gibraltar",
    "bermuda",
    "seychelles",
))

# Every numeric cell form in one alternation, matched once per distinct
# cell.  Each form is a named group that closes last, so ``lastgroup`` names
# the form; an amount is a numeral with an optional magnitude suffix.  A
# numeral's commas separate thousands: 1 to 3 digits, then groups of 3.
_NUMERAL = r"(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?"
_AMOUNT = rf"(-?{_NUMERAL})([kKmMbB])?"
_UNSIGNED = rf"({_NUMERAL})"
_CELL_RE = re.compile(
    rf"(?P<number>{_AMOUNT})"                     # groups 1-3:   12, -3, 1,200.5k
    rf"|(?P<money>\$\s*{_AMOUNT}(?:\s+[A-Z]+)?)"   # groups 4-6:   $5m, $50k OP
    rf"|(?P<ratio>{_UNSIGNED}\s*:\s*{_UNSIGNED})"   # groups 7-9:   3:4
    rf"|(?P<code>(-?{_NUMERAL})\s*\(.+\))"        # groups 10-11: 2 (milestones)
    rf"|(?P<suffixed>{_AMOUNT}\s+([A-Za-z]+))")    # groups 12-15: 6 months, 50K OP
# A cell no form matches is classified by its shape to name its fault.
_WORD_SUFFIX_RE = re.compile(r"(\S+)\s+([A-Za-z]+)")


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
_DEFAULT = Direction.DEFAULT


class TypedValue(namedtuple("TypedValue", (
        "kind", "value", "symbol", "unit", "is_code", "qualifier"))):
    """A parsed cell: the fields ingest and scoring read of it."""

    __slots__ = ()

    def __new__(
        cls,
        kind: ValueKind,
        value: float | None = None,
        symbol: str | None = None,  # token symbol, or "USD" for money
        unit: str | None = None,  # unit the value is currently expressed in
        is_code: bool = False,  # leading-numeral categorical cell under unit=scoring
        qualifier: Qualifier = Qualifier.EXACT,
    ) -> TypedValue:
        """A value checked against every rule in the module docstring;
        each parse, ``coerce_unit`` result, copy and rebuild comes through
        here."""
        if (value is None) != (kind is _MISSING or kind is _TEXT or kind is _COUNTRY):
            raise ValueError(f"{kind.value} values "
                             + ("need a value" if value is None else "carry no value"))
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{value!r} is not a finite number")
        if (kind is _MONEY or kind is _TOKEN_AMOUNT) and value < 0:
            raise ValueError(f"{kind.value} amount must be >= 0")
        if kind is _BINARY and value not in (0.0, 1.0):
            raise ValueError("binary value must be 0 or 1")
        if kind is _MISSING and qualifier is not _UNSPECIFIED:
            raise ValueError("missing values carry no qualifier")
        if kind is _TOKEN_AMOUNT:
            if not (isinstance(symbol, str) and symbol):
                raise ValueError("token-amount values need a symbol")
        elif symbol != ("USD" if kind is _MONEY else None):
            raise ValueError(f"{kind.value} values carry "
                             + ("the symbol 'USD'" if kind is _MONEY else "no symbol"))
        if kind is not _NUMBER and (unit is not None or is_code):
            raise ValueError(f"{kind.value} values carry no unit or code flag")
        return _new(cls, (kind, value, symbol, unit, is_code, qualifier))

    @classmethod
    def _make(cls, iterable):
        """Through the constructor, so ``_make`` and ``_replace`` run its checks."""
        return cls(*iterable)


#: Builds a record from complete, already checked fields, skipping the
#: keyword binding and the checks of the class's own constructor.
_new = tuple.__new__

MISSING = TypedValue(_MISSING, None, None, None, False, _UNSPECIFIED)


def _to_float(token: str) -> float:
    return float(token.replace(",", ""))


def _amount(match: re.Match, group: int) -> float:
    """The amount whose numeral is *match*'s *group*, scaled by the
    magnitude suffix in the group after it, as one decimal number."""
    suffix = match[group + 1]
    return _to_float(match[group] + _MAGNITUDE[suffix.lower()] if suffix else match[group])


def _time_unit(word: str) -> str | None:
    """The canonical name of the time unit *word* names, in any case and
    with at most one trailing ``s``, or None when it names none."""
    word = word.lower()
    unit = word if word.endswith("s") else word + "s"
    return unit if unit in _WEEKS_PER else None


def _parse_country(body: str, raw: str, definition: IndicatorDef,
                   qualifier: Qualifier) -> TypedValue:
    cleaned = re.sub(r"\(.*?\)", " ", body).strip()
    words = cleaned.split()
    if words and words[-1].lower() == "foundation":
        words = words[:-1]
    cleaned = " ".join(words)
    if re.fullmatch(r"[A-Za-z]{3}", cleaned) or cleaned.lower() in _JURISDICTIONS:
        return TypedValue(_COUNTRY, None, None, None, False, qualifier)
    raise ValueParseError(raw, definition.id, "not an ISO alpha-3 code or known jurisdiction")


def parse_value(raw: str, definition: IndicatorDef) -> TypedValue:
    """Parse one raw cell under *definition*'s declared data type.

    A successful parse is kept in ``definition.parsed_cells``, which the
    definitions of one parse class share; a cell that fails is parsed
    again, and fails again, on every call.
    """
    memo = definition.parsed_cells
    value = memo.get(raw)
    if value is None:
        try:
            value = _parse_cell(raw, definition)
        except ValueParseError:
            raise
        except ValueError as exc:
            # constructor guards (negative amounts, non-finite values)
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
        return TypedValue(_TEXT)

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
        flag = body.lower()
        if flag in ("0", "1", "no", "yes"):
            return TypedValue(_BINARY, float(flag in ("1", "yes")), None, None, False, qualifier)
        raise ValueParseError(raw, definition.id, "binary cells must be 0/1 or no/yes")

    if data_type not in _NUMERIC_DATA:
        raise ValueParseError(raw, definition.id, "indicator is not observable")

    match = _CELL_RE.fullmatch(body)
    form = match.lastgroup if match else None
    if form == "number":
        return TypedValue(_NUMBER, _amount(match, 2), None, None, False, qualifier)
    if form == "money":
        # A token symbol after a dollar amount yields to the dollar sign.
        return TypedValue(_MONEY, _amount(match, 5), "USD", None, False, qualifier)
    if form == "ratio":
        denominator = _to_float(match[9])
        if denominator == 0:
            raise ValueParseError(raw, definition.id, "ratio denominator must be non-zero")
        return TypedValue(_RATIO, _to_float(match[8]) / denominator, None, None, False, qualifier)
    if form == "code":
        return TypedValue(_NUMBER, _to_float(match[11]), None, None,
                          definition.unit == "scoring", qualifier)
    if form == "suffixed":
        amount, word = _amount(match, 13), match[15]
    elif _CELL_RE.fullmatch(body.replace(",", "")):
        raise ValueParseError(raw, definition.id, "misgrouped thousands separator")
    elif body.startswith("$"):
        raise ValueParseError(raw, definition.id, "malformed money amount")
    elif match := _WORD_SUFFIX_RE.fullmatch(body):
        amount, word = None, match[2]  # a word after something that is no amount
    else:
        raise ValueParseError(raw, definition.id)

    unit = _time_unit(word)
    if unit:
        if amount is None:
            raise ValueParseError(raw, definition.id, "malformed duration")
        return TypedValue(_NUMBER, amount, None, unit, False, qualifier)
    if word.isupper() and 2 <= len(word) <= 6:
        if amount is None:
            raise ValueParseError(raw, definition.id, "malformed token amount")
        return TypedValue(_TOKEN_AMOUNT, amount, word, None, False, qualifier)
    raise ValueParseError(raw, definition.id, f"unrecognised suffix {word!r}")


def coerce_unit(value: TypedValue, from_unit: str | None, definition: IndicatorDef) -> TypedValue:
    """Express *value* in the indicator's declared unit.

    Money and token amounts need an indicator whose unit is USD (any case).
    Identity when units already agree; otherwise only time units convert, at
    the exact week-factor ratio, rounded once; other mismatches raise UnitError.
    """
    dst = definition.unit.lower()
    if (value.kind is _MONEY or value.kind is _TOKEN_AMOUNT) and dst != "usd":
        raise UnitError(value.symbol, definition.unit)
    if from_unit is None or from_unit.lower() == dst:
        if value.unit is not None:
            return TypedValue(_NUMBER, value.value, None, None, value.is_code, value.qualifier)
        return value
    src, dst = _time_unit(from_unit), _time_unit(dst)
    if src and dst and value.kind is _NUMBER:
        (a, b), (c, d) = _WEEKS_PER[src], _WEEKS_PER[dst]
        n, m = value.value.as_integer_ratio()
        try:  # int / int rounds once, and overflows only where the result does
            converted = n * a * d / (m * b * c)
        except OverflowError:
            converted = math.inf  # rejected as not finite, as any other value
        return TypedValue(_NUMBER, converted, None, None, value.is_code, value.qualifier)
    raise UnitError(from_unit, definition.unit)


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

Observation = namedtuple("Observation", ("indicator_id", "raw", "value"))
ProgramDataset = namedtuple("ProgramDataset", ("program", "observations", "rubric"))


#: The line memo's entry for a comment, a blank line or an unanswered rubric row.
_SKIPPED = (None, None)


def load_program_dataset(source: bytes | str, schema: Schema) -> ProgramDataset:
    """Load one program's observation file against *schema*, through the
    schema's line memo (see the module docstring)."""
    lines = read_lines(source)
    fields = None
    for start, line in enumerate(lines, start=1):
        fields = record_fields(line)
        if fields is not None:
            break
    if fields is None or fields[0].lower() != "program":
        raise ParseError("observation file must start with a 'program|<name>' record")
    if len(fields) != 2:
        raise ParseError(f"line {start}: program records have 2 fields")
    program = fields[1]
    if not program:
        raise ParseError(f"line {start}: program name is empty")

    observations: dict[str, Observation] = {}
    answers: dict[str, int] = {}
    memo = schema.observed_lines
    try:
        for line_no, line in enumerate(lines[start:], start=start + 1):
            entry = memo.get(line)
            if entry is None:
                definition, held = memo[line] = _read_row(line, schema)
            else:
                definition, held = entry
                if definition is not None:  # one call per row: see the module docstring
                    parse_value(held.raw, definition)
            if definition is not None:
                key = held.indicator_id
                if key in observations:
                    raise DuplicateIndicator(key, _first_row(lines, start, memo, key))
                observations[key] = held
            elif held is not None:
                criterion, score = held
                if criterion in answers:
                    raise ParseError(f"duplicate rubric row for {criterion!r} (first on line "
                                     f"{_first_row(lines, start, memo, criterion)})")
                answers[criterion] = score
    except GmiError as exc:  # every row error names its line
        exc.args = (f"line {line_no}: {exc}",)
        raise

    return _new(ProgramDataset, (program, observations, answers))


def _read_row(line: str, schema: Schema) -> tuple:
    """What *line*, a line after the program record, holds under *schema*:
    ``(definition, Observation)``, ``(None, (criterion id, score))`` or
    ``_SKIPPED``.  Raises for any fault the line has on its own; the checks
    across the rows of a file are the caller's."""
    fields = record_fields(line)
    if fields is None:
        return _SKIPPED
    key = fields[0]
    # Every schema id matches the indicator id pattern, so the pattern is
    # consulted only for a key the schema lacks.
    definition = schema.get(key)
    if definition is None and not INDICATOR_ID_PATTERN.match(key):
        if key.lower() == "program":
            raise ParseError("a second program record; a file holds one program")
        if INDICATOR_ID_PATTERN.match(key.upper()):
            raise ParseError(f"indicator id {key!r} must be upper-case")
        return None, rubric.read_answer(fields)  # None when unanswered
    if len(fields) not in (2, 3):
        raise ParseError("observation rows have 2 or 3 fields")
    if definition is None:
        raise UnknownIndicator(key)
    if definition.kind is not _QUANTITATIVE:
        raise ParseError(f"{key} is a {definition.kind.value} indicator "
                         "and cannot be observed directly")
    raw = fields[1]
    value = parse_value(raw, definition)
    annotation = fields[2].lower() if len(fields) == 3 else None
    if annotation:
        annotation = _time_unit(annotation) or annotation
    inline = value.unit
    if inline and annotation and inline != annotation:
        raise ParseError(f"unit annotation {annotation!r} contradicts inline unit {inline!r}")
    try:
        value = coerce_unit(value, inline or annotation or definition.unit, definition)
    except ValueError as exc:  # the converted number is not finite
        raise ValueParseError(raw, key, str(exc)) from exc
    return definition, _new(Observation, (key, raw, value))


def _first_row(lines: list[str], start: int, memo: dict, key: str) -> int:
    """The line of the first row after line *start* that holds a value of
    *key*, the indicator or criterion id in the first field of what the
    row holds; *memo* holds every line up to the row that repeats it."""
    for line_no, line in enumerate(lines[start:], start=start + 1):
        held = memo[line][1]
        if held is not None and held[0] == key:
            return line_no


def check_distinct_programs(programs: Sequence[str], inputs: Sequence[str] = ()) -> None:
    """Raise ParseError naming the first program name that repeats across
    datasets, and the two *inputs* it came from when they are given;
    ``gmi validate`` and ``gmi score`` both run this check."""
    first: dict[str, int] = {}
    for index, program in enumerate(programs):
        if first.setdefault(program, index) != index:
            where = f" in {inputs[first[program]]} and {inputs[index]}" if inputs else ""
            raise ParseError(f"duplicate program {program!r}{where}")


def load_rates(source: bytes | str) -> dict[str, float]:
    """Load a token conversion table (``SYMBOL|usd-per-token`` lines)."""
    rates: dict[str, float] = {}
    records = read_records(source)
    try:
        for line_no, fields in records:
            if len(fields) != 2:
                raise ParseError("rate rows have 2 fields")
            symbol = fields[0].upper()
            try:
                rate = read_number(fields[1])
            except ValueError:
                raise ParseError(f"rate {fields[1]!r} is not a number") from None
            if not 0 < rate < math.inf:
                raise ParseError(f"rate for {symbol} must be positive and finite")
            if symbol in rates:
                raise ParseError(f"duplicate rate for {symbol}")
            rates[symbol] = rate
    except ParseError as exc:  # every row error names its line
        exc.args = (f"line {line_no}: {exc}",)
        raise
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
        rate = (rates or {}).get(value.symbol)
        if rate is None:
            return None, "token-unconverted"
        return value.value * rate, None
    if kind is _NUMBER and value.is_code and definition.direction is _DEFAULT:
        return None, "non-scorable"
    if kind is _TEXT or kind is _COUNTRY:
        return None, "non-scorable"
    return value.value, None


def column_bounds(indicator: str,
                  values: Iterable[float | None]) -> tuple[float | None, float | None]:
    """The least and the greatest of column *indicator*'s present *values*,
    or (None, None) when none is present.  Raises ParseError when the range
    between them overflows a float.  This is the one bounds pass of a
    column: ``gmi score`` finds each column's bounds here once and
    ``scoring.minmax_normalize`` scales between them; ``gmi validate`` and
    ``scoring.load_category_table`` check them first."""
    present = [v for v in values if v is not None]
    if not present:
        return None, None
    lo, hi = min(present), max(present)
    if not math.isfinite(hi - lo):
        raise ParseError(f"column {indicator} spans {lo!r} to {hi!r}, a range that overflows")
    return lo, hi


class CategoryValidation(namedtuple("CategoryValidation", (
        "scorable_present", "missing", "non_scorable", "token_unconverted", "rubric_responses"))):
    __slots__ = ()

    @property
    def scorable(self) -> bool:
        """True when something in the category would score now."""
        return bool(self.scorable_present) or self.rubric_responses > 0


class ValidationReport(namedtuple("ValidationReport", ("program", "categories"))):
    __slots__ = ()

    def unscorable_categories(self) -> list[Category]:
        return [cat for cat, c in self.categories.items() if not c.scorable]


def validate_dataset(dataset: ProgramDataset, schema: Schema,
                     columns: dict[str, list[float | None]] | None = None) -> ValidationReport:
    """Pre-scoring gate: per category, what would score and what is excluded.

    A category is scorable iff it has at least one observation that would be
    included in normalization right now (no conversion table assumed) or at
    least one rubric response.  Rubric answers meet the one answer check of
    ``rubric``, as in scoring: the 1..5 scale, then a builtin criterion.
    With *columns*, each observation's value as it would score now (None
    when excluded) is appended to ``columns[indicator id]``, so that a
    cohort's columns can be checked with ``column_bounds``.
    """
    # Keyed by scoring_status's exclusion reason, in CategoryValidation's
    # field order; None collects what scores.  Full buckets become a record.
    by_category: dict[Category, dict | CategoryValidation] = {
        cat: {reason: [] for reason in (None, *EXCLUSION_REASONS)}
        for cat in CATEGORIES
    }
    for obs in dataset.observations.values():
        definition = schema.get(obs.indicator_id)
        if definition is None:
            raise UnknownIndicator(obs.indicator_id)
        value, exclusion = scoring_status(obs.value, definition)
        by_category[definition.category][exclusion].append(obs.indicator_id)
        if columns is not None:
            columns.setdefault(obs.indicator_id, []).append(value)

    grouped = rubric.collect_responses(dataset.rubric)
    for cat, buckets in by_category.items():
        by_category[cat] = CategoryValidation(*map(tuple, buckets.values()),
                                              len(grouped.get(cat, ())))
    return ValidationReport(dataset.program, by_category)
