"""The one-pattern cell parser against the sequential grammar it replaced.

``reference_parse`` tries each numeric cell form in turn, one pattern at a
time, as ``ingest`` once did, and builds every value through the validating
``TypedValue`` constructor; a cell that no form matches, but one does once
its commas are removed, names a misgrouped thousands separator.  The
property draws cells from the grammar's atoms and requires ``parse_value``
to agree with it on every quantitative builtin indicator: the same value
fields, or the same error type and message.
"""

from __future__ import annotations

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmi.errors import ValueParseError
from gmi.ingest import Qualifier, TypedValue, ValueKind, parse_value
from gmi.schema import DataType, Kind, builtin_schema

_MAGNITUDE = {"k": "e3", "m": "e6", "b": "e9"}
_TIME_UNITS = {"week": 1.0, "weeks": 1.0, "month": 4.345, "months": 4.345,
               "year": 52.14, "years": 52.14}
_CANONICAL_TIME = {"week": "weeks", "month": "months", "year": "years"}
_JURISDICTIONS = {"cayman islands", "switzerland", "singapore"}

# Commas only separate thousands: 1 to 3 digits, then groups of exactly 3.
_NUMERAL = r"(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?"
_MAGNITUDE_RE = re.compile(rf"^(-?{_NUMERAL})([kKmMbB])?$")
_RATIO_RE = re.compile(rf"^({_NUMERAL})\s*:\s*({_NUMERAL})$")
_CODE_RE = re.compile(rf"^(-?{_NUMERAL})\s*\((.+)\)$")
_WORD_SUFFIX_RE = re.compile(r"^(\S+)\s+([A-Za-z]+)$")


def _amount(token: str) -> float | None:
    m = _MAGNITUDE_RE.match(token)
    if not m:
        return None
    # A suffixed numeral is one decimal number: 4.1m is 4.1e6, not 4.1 * 1e6.
    return float(m.group(1).replace(",", "") + _MAGNITUDE.get((m.group(2) or "").lower(), ""))


def _money(body: str) -> float | None:
    """The amount of a ``$`` cell, or None; a token symbol after it is dropped."""
    rest = body[1:].strip()
    sym = _WORD_SUFFIX_RE.match(rest)
    if sym and sym.group(2).isupper():
        rest = sym.group(1)
    return _amount(rest)


def _is_form(body: str) -> bool:
    """Whether *body* has a numeric form's shape: an amount, money, a ratio,
    a code, or an amount and a word."""
    if body.startswith("$"):
        return _money(body) is not None
    suffixed = _WORD_SUFFIX_RE.match(body)
    return (_amount(body) is not None or bool(_RATIO_RE.match(body) or _CODE_RE.match(body))
            or bool(suffixed) and _amount(suffixed.group(1)) is not None)


def _reference_cell(raw: str, definition) -> TypedValue:
    body = raw.strip()
    lowered = body.lower()
    data_type = definition.data_type
    if lowered in ("n.a.", "tbc", ""):
        return TypedValue(ValueKind.MISSING, qualifier=Qualifier.UNSPECIFIED)
    if lowered == "link" and data_type is not DataType.TEXT:
        return TypedValue(ValueKind.MISSING, qualifier=Qualifier.UNSPECIFIED)
    if data_type is DataType.TEXT:
        return TypedValue(ValueKind.TEXT)
    qualifier = Qualifier.EXACT
    if body.startswith("<"):
        qualifier, body = Qualifier.APPROX_UPPER_BOUND, body[1:].strip()
    elif body.startswith(">"):
        qualifier, body = Qualifier.APPROX_LOWER_BOUND, body[1:].strip()
    if data_type is DataType.ISO_ALPHA_3:
        cleaned = re.sub(r"\(.*?\)", " ", body).strip()
        words = cleaned.split()
        if words and words[-1].lower() == "foundation":
            words = words[:-1]
        cleaned = " ".join(words)
        if re.fullmatch(r"[A-Za-z]{3}", cleaned) or cleaned.lower() in _JURISDICTIONS:
            return TypedValue(ValueKind.COUNTRY, qualifier=qualifier)
        raise ValueParseError(raw, definition.id,
                              "not an ISO alpha-3 code or known jurisdiction")
    if data_type is DataType.BINARY:
        if body in ("0", "1") or body.lower() in ("no", "yes"):
            flag = body == "1" or body.lower() == "yes"
            return TypedValue(ValueKind.BINARY, value=float(flag), qualifier=qualifier)
        raise ValueParseError(raw, definition.id, "binary cells must be 0/1 or no/yes")
    if not _is_form(body) and _is_form(body.replace(",", "")):
        raise ValueParseError(raw, definition.id, "misgrouped thousands separator")

    amount = _amount(body)
    if amount is not None:
        return TypedValue(ValueKind.NUMBER, float(amount), qualifier=qualifier)
    if body.startswith("$"):
        amount = _money(body)
        if amount is None:
            raise ValueParseError(raw, definition.id, "malformed money amount")
        return TypedValue(ValueKind.MONEY, float(amount), "USD", qualifier=qualifier)
    m = _RATIO_RE.match(body)
    if m:
        numerator, denominator = (float(g.replace(",", "")) for g in m.groups())
        if denominator == 0:
            raise ValueError("ratio denominator must be non-zero")
        return TypedValue(ValueKind.RATIO, numerator / denominator, qualifier=qualifier)
    m = _CODE_RE.match(body)
    if m:
        return TypedValue(ValueKind.NUMBER, float(m.group(1).replace(",", "")),
                          is_code=definition.unit == "scoring", qualifier=qualifier)
    m = _WORD_SUFFIX_RE.match(body)
    if m:
        head, word = m.groups()
        if word.lower() in _TIME_UNITS:
            amount = _amount(head)
            if amount is None:
                raise ValueParseError(raw, definition.id, "malformed duration")
            return TypedValue(ValueKind.NUMBER, float(amount),
                              unit=_CANONICAL_TIME[word.lower().rstrip("s")],
                              qualifier=qualifier)
        if word.isupper() and 2 <= len(word) <= 6:
            amount = _amount(head)
            if amount is None:
                raise ValueParseError(raw, definition.id, "malformed token amount")
            return TypedValue(ValueKind.TOKEN_AMOUNT, float(amount), word.upper(),
                              qualifier=qualifier)
        raise ValueParseError(raw, definition.id, f"unrecognised suffix {word!r}")
    raise ValueParseError(raw, definition.id)


def reference_parse(raw: str, definition) -> TypedValue:
    try:
        return _reference_cell(raw, definition)
    except ValueParseError:
        raise
    except ValueError as exc:  # constructor guards, as parse_value reports them
        raise ValueParseError(raw, definition.id, str(exc)) from exc


def _outcome(parse, raw: str, definition):
    """The value's type and fields, or the error's type and message; repr
    keeps 0.0 and -0.0 apart."""
    try:
        value = parse(raw, definition)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), repr(tuple(value))


_DEFINITIONS = [ind for ind in builtin_schema().indicators if ind.kind is Kind.QUANTITATIVE]
_CODED = next(d for d in _DEFINITIONS if d.id == "PSO-QN-1")  # unit "scoring"

_ATOMS = (
    "0", "1", "7", "12", "3.5", "1,000", ",", ".", "-", "00",  # digits and separators
    "k", "m", "b", "K", "M", "B",                                # magnitude suffixes
    "$", ":", "(", ")", "<", ">", " ", "  ",
    "week", "weeks", "Months", "year", "YEARS",                  # time words
    "OP", "ARB", "STRK", "usd", "X", "TOOLONG",                  # token symbols
    "n.a.", "tbc", "Link", "no", "yes", "code", "Foundation", "CHE",
    "1" + "0" * 320,                                             # overflows a float
    "٣", "١٢",                                    # Arabic-Indic digits
    "\x0b", "\t",
)


#: Cells shaped like the numeric forms: qualifier, dollar sign, numeral,
#: magnitude, separator and tail, each possibly empty or wrong.
_SHAPED = st.builds(
    "{}{}{}{}{}{}".format,
    st.sampled_from(["", "<", "> "]),
    st.sampled_from(["", "$", "$ "]),
    st.sampled_from(["0", "7", "12", "3.5", "1,000", "-2", "00", "1" + "0" * 320, "٣"]),
    st.sampled_from(["", "k", "M", "b"]),
    st.sampled_from(["", " ", ":", " : ", " (", "\x0b", "-"]),
    st.sampled_from(["", "5", "0", "weeks", "Months", "OP", "op", "Op", "TOOLONG", "X", "code)",
                     "foo", "x y"]),
)


@settings(max_examples=2000, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(_ATOMS), max_size=6).map("".join), _SHAPED),
       st.sampled_from(_DEFINITIONS))
@example("$5k OP", _DEFINITIONS[0])
@example("$5 op", _DEFINITIONS[0])
@example("1" + "0" * 320 + " weeks", _DEFINITIONS[0])
@example("3:0", _DEFINITIONS[0])
@example("-2 (code)", _CODED)
@example("x OP", _DEFINITIONS[0])
@example("1,5", _DEFINITIONS[0])          # misgrouped thousands, in every form
@example("12,34,5", _DEFINITIONS[0])
@example("1,,,5", _DEFINITIONS[0])
@example("1234,567", _DEFINITIONS[0])
@example("$1,5m", _DEFINITIONS[0])
@example("1,5:2", _DEFINITIONS[0])
@example("1,5 weeks", _DEFINITIONS[0])
@example("1,5 OP", _DEFINITIONS[0])
@example("-1,5 (code)", _CODED)
@example("-12,345.5 (code)", _CODED)
@example("<$1,234,567.5k OP", _DEFINITIONS[0])
@example("1,000 foo", _DEFINITIONS[0])    # well grouped, so the suffix is the fault
@example("5,0 foo", _DEFINITIONS[0])
@example("$5,0 foo", _DEFINITIONS[0])
def test_parse_value_agrees_with_the_sequential_grammar(cell, definition):
    # A copy starts with an empty memo, so every example is parsed afresh.
    expected = _outcome(reference_parse, cell, definition)
    assert _outcome(parse_value, cell, definition._replace()) == expected
