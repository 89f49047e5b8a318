"""Value grammar, unit coercion and dataset loading."""

from __future__ import annotations

import copy
import math
import pickle
from decimal import Decimal

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gmi.bundled import bundled_program_paths
from gmi.errors import (
    DuplicateIndicator,
    GmiError,
    ParseError,
    RubricRangeError,
    UnitError,
    UnknownIndicator,
    ValueParseError,
)
from gmi.ingest import (
    Observation,
    ProgramDataset,
    Qualifier,
    TypedValue,
    ValueKind,
    coerce_unit,
    load_program_dataset,
    load_rates,
    parse_value,
    scoring_status,
    validate_dataset,
)
from gmi.schema import Category, Schema, builtin_schema, dump_schema, load_schema
from gmi.scoring import score_datasets
from test_sharing import _load_cohort_module

SCHEMA = builtin_schema()


def _def(indicator_id: str):
    definition = SCHEMA.get(indicator_id)
    assert definition is not None, indicator_id
    return definition


# ---------------------------------------------------------------------------
# parse_value
# ---------------------------------------------------------------------------


def test_parse_missing_sentinels():
    for raw in ("n.a.", "N.A.", "tbc", "TBC", "", "  "):
        assert parse_value(raw, _def("COM-AUX-1")).kind is ValueKind.MISSING


def test_parse_money_millions():
    value = parse_value("$276m", _def("COM-QN-14"))
    assert value.kind is ValueKind.MONEY
    assert value.value == 276_000_000
    assert value.symbol == "USD"


def test_parse_money_thousands_separator():
    assert parse_value("$5,000", _def("FAO-QN-2")).value == 5000


def test_parse_money_billions():
    assert parse_value("$3.2B", _def("FAO-AUX-3")).value == pytest.approx(3.2e9)


def test_parse_ratio():
    value = parse_value("1:28", _def("TAC-QN-6"))
    assert value.kind is ValueKind.RATIO
    assert value.value == 1 / 28


def test_parse_binary():
    value = parse_value("1", _def("EFI-QN-1"))
    assert value.kind is ValueKind.BINARY
    assert value.value == 1
    assert parse_value("0", _def("EFI-QN-2")).value == 0
    assert parse_value("No", _def("PSO-QN-2")).value == 0
    assert parse_value("yes", _def("PSO-QN-2")).value == 1


def test_parse_token_amount():
    value = parse_value("71.4M ARB", _def("COM-QN-14"))
    assert value.kind is ValueKind.TOKEN_AMOUNT
    assert value.value == pytest.approx(71_400_000)
    assert value.symbol == "ARB"


def test_parse_qualified_token_amount():
    value = parse_value("<50K OP", _def("FAO-QN-2"))
    assert value.kind is ValueKind.TOKEN_AMOUNT
    assert value.value == 50_000
    assert value.symbol == "OP"
    assert value.qualifier is Qualifier.APPROX_UPPER_BOUND


def test_parse_lowercase_magnitude_token():
    value = parse_value("12m ARB", _def("FAO-QN-3"))
    assert value.value == pytest.approx(12_000_000)
    assert parse_value("440k OP", _def("COM-QN-19")).value == 440_000


def test_parse_bare_magnitude_number():
    value = parse_value("6.5M", _def("COM-QN-14"))
    assert value.kind is ValueKind.NUMBER
    assert value.value == pytest.approx(6_500_000)


def test_parse_dollar_amount_with_token_suffix_is_money():
    value = parse_value("$823,077 ARB", _def("FAO-AUX-1"))
    assert value.kind is ValueKind.MONEY
    assert value.value == 823_077


def test_parse_time_annotated_numbers():
    value = parse_value("18 weeks", _def("COM-QN-8"))
    assert value.kind is ValueKind.NUMBER
    assert value.value == 18
    assert value.unit == "weeks"
    assert parse_value("1.5 years", _def("COM-QN-11")).unit == "years"
    assert parse_value("1 year", _def("COM-QN-11")).value == 1


def test_parse_bounded_duration():
    value = parse_value("<1 year", _def("COM-QN-11"))
    assert value.value == 1
    assert value.qualifier is Qualifier.APPROX_UPPER_BOUND


def test_parse_leading_numeral_code_under_scoring_unit():
    value = parse_value("1 (DAO Treasury)", _def("PSO-QN-1"))
    assert value.kind is ValueKind.NUMBER
    assert value.value == 1
    assert value.is_code


def test_parse_leading_numeral_under_count_unit_is_plain_number():
    value = parse_value("2 (STIP & Backfund)", _def("COM-QN-12"))
    assert value.value == 2
    assert not value.is_code
    agents = parse_value("7 (tnorm and 6 signers)", _def("PSO-QN-5"))
    assert agents.value == 7
    assert not agents.is_code


def test_parse_text_kept_verbatim():
    value = parse_value("DAO + Foundation", _def("PSO-AUX-1"))
    assert value.kind is ValueKind.TEXT
    # The value keeps no copy of the cell: every text cell reads the same.
    assert value == parse_value("Questbook", _def("PSO-AUX-1"))


def test_parse_link_placeholder():
    assert parse_value("Link", _def("GOV-QN-4")).kind is ValueKind.TEXT
    assert parse_value("Link", _def("COM-QN-1")).kind is ValueKind.MISSING


def test_parse_country_codes_and_names():
    for raw in ("CYM", "Cayman Islands", "Cayman Islands Foundation", "British Virgin Islands",
                "<CHE"):
        assert parse_value(raw, _def("EFI-QN-6")).kind is ValueKind.COUNTRY, raw
    for raw in ("Atlantis", "Cayman", "CYMR", "Atlantis Foundation"):
        with pytest.raises(ValueParseError, match="not an ISO alpha-3 code or known "
                                                  "jurisdiction"):
            parse_value(raw, _def("EFI-QN-6"))


def test_parse_rejects_garbage():
    with pytest.raises(ValueParseError) as exc:
        parse_value("lots of grants", _def("COM-QN-1"))
    assert exc.value.indicator_id == "COM-QN-1"
    with pytest.raises(ValueParseError):
        parse_value("maybe", _def("EFI-QN-1"))
    with pytest.raises(ValueParseError):
        parse_value("Atlantis", _def("EFI-QN-6"))
    with pytest.raises(ValueParseError):
        parse_value("$bad", _def("FAO-QN-2"))


@pytest.mark.parametrize("raw, indicator", [
    ("1,5", "COM-QN-1"), ("1,5:2", "TAC-QN-6"), ("2,5 (x)", "PSO-QN-1"),
    ("$1,5m", "FAO-QN-2"), ("1,5 weeks", "COM-QN-7"), ("1,5 OP", "FAO-QN-2"),
])
def test_parse_names_a_misgrouped_thousands_separator_in_every_form(raw, indicator):
    with pytest.raises(ValueParseError) as exc:
        parse_value(raw, _def(indicator))
    assert str(exc.value) == (f"cannot parse {raw!r} for indicator {indicator}: "
                              "misgrouped thousands separator")


# Each rule of a parsed value, broken once.  The constructor is the one
# place they are checked; every parse, unit coercion and rebuild goes through it.
@pytest.mark.parametrize("fields, message", [
    ((ValueKind.NUMBER,), "number values need a value"),
    ((ValueKind.RATIO,), "ratio values need a value"),
    ((ValueKind.MONEY, None, "USD"), "money values need a value"),
    ((ValueKind.TEXT, 1.0), "text values carry no value"),
    ((ValueKind.COUNTRY, 0.0), "country values carry no value"),
    ((ValueKind.MISSING, 0.0, None, None, False, Qualifier.UNSPECIFIED),
     "missing values carry no value"),
    ((ValueKind.NUMBER, math.inf), "inf is not a finite number"),
    ((ValueKind.TOKEN_AMOUNT, -1.0, "OP"), "token-amount amount must be >= 0"),
    ((ValueKind.BINARY, 0.5), "binary value must be 0 or 1"),
    ((ValueKind.MISSING,), "missing values carry no qualifier"),
    ((ValueKind.MONEY, 5.0, "EUR"), "money values carry the symbol 'USD'"),
    ((ValueKind.TOKEN_AMOUNT, 5.0), "token-amount values need a symbol"),
    ((ValueKind.TEXT, None, "X", "weeks", True), "text values carry no symbol"),
    ((ValueKind.RATIO, 0.5, None, "weeks"), "ratio values carry no unit or code flag"),
    ((ValueKind.BINARY, 1.0, None, None, True), "binary values carry no unit or code flag"),
], ids=["number-no-value", "ratio-no-value", "money-no-value", "text-value", "country-value",
        "missing-value", "not-finite", "negative-amount", "binary-not-0-or-1",
        "missing-qualifier", "money-symbol", "token-amount-symbol", "symbol-elsewhere",
        "unit-off-a-number", "code-off-a-number"])
def test_a_typed_value_breaking_a_rule_is_rejected(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TypedValue(*fields)


def test_parse_rejects_out_of_domain_values():
    with pytest.raises(ValueParseError):
        parse_value("$-5", _def("FAO-QN-2"))
    with pytest.raises(ValueParseError):
        parse_value("1:0", _def("TAC-QN-6"))


def test_parse_is_deterministic():
    for raw, indicator in (("$276m", "COM-QN-14"), ("1:28", "TAC-QN-6")):
        assert parse_value(raw, _def(indicator)) == parse_value(raw, _def(indicator))


# One case per numeric cell form.  The bare-amount pattern is tried first;
# these cases pin that no form changes its value or its error for it.
@pytest.mark.parametrize(
    "raw,indicator,expected",
    [
        ("12", "COM-QN-1", TypedValue(ValueKind.NUMBER, 12.0)),
        ("-3", "COM-QN-1", TypedValue(ValueKind.NUMBER, -3.0)),
        ("1,200.5k", "COM-QN-1", TypedValue(ValueKind.NUMBER, 1_200_500.0)),
        ("$5 OP", "COM-QN-1", TypedValue(ValueKind.MONEY, 5.0, "USD")),
        ("1:2", "COM-QN-1", TypedValue(ValueKind.RATIO, 1 / 2)),
        ("3 (code)", "FAO-QN-9", TypedValue(ValueKind.NUMBER, 3.0, is_code=True)),
        ("3 (code)", "COM-QN-1", TypedValue(ValueKind.NUMBER, 3.0)),
        ("2 weeks", "COM-QN-1", TypedValue(ValueKind.NUMBER, 2.0, unit="weeks")),
        ("5 OP", "COM-QN-1", TypedValue(ValueKind.TOKEN_AMOUNT, 5.0, "OP")),
        ("5 op", "COM-QN-1", "cannot parse '5 op' for indicator COM-QN-1: "
                             "unrecognised suffix 'op'"),
        ("1:0", "COM-QN-1", "cannot parse '1:0' for indicator COM-QN-1: "
                            "ratio denominator must be non-zero"),
        ("12 xyz", "COM-QN-1", "cannot parse '12 xyz' for indicator COM-QN-1: "
                               "unrecognised suffix 'xyz'"),
        ("3", "COM-QN", "cannot parse '3' for indicator COM-QN: indicator is not observable"),
    ],
)
def test_parse_order_keeps_each_numeric_form(raw, indicator, expected):
    definition = builtin_schema().get(indicator)  # empty memos: a first parse
    if isinstance(expected, str):
        with pytest.raises(ValueParseError) as exc:
            parse_value(raw, definition)
        assert str(exc.value) == expected
    else:
        value = parse_value(raw, definition)
        assert value == expected
        assert math.copysign(1.0, value.value) == math.copysign(1.0, expected.value)


def _numeral(x: float, grouped: bool = False) -> str:
    """The shortest digits that read back as *x*, in positional form (the
    value grammar has no exponents), with the integer part in thousands
    groups when *grouped*."""
    text = format(Decimal(repr(x)), "f")
    if grouped:
        whole, point, fraction = text.partition(".")
        text = f"{int(whole):,}{point}{fraction}"
    return text


_PREFIX = {Qualifier.EXACT: "", Qualifier.APPROX_UPPER_BOUND: "<",
           Qualifier.APPROX_LOWER_BOUND: ">"}


def _cell(value, grouped: bool = False) -> str:
    """A cell that reads as *value*: a number, money, a token amount or a
    ratio, whose parts the value no longer holds, so it is written over 1."""
    prefix, numeral = _PREFIX[value.qualifier], _numeral(value.value, grouped)
    if value.kind is ValueKind.MONEY:
        return f"{prefix}${numeral}"
    if value.kind is ValueKind.TOKEN_AMOUNT:
        return f"{prefix}{numeral} {value.symbol}"
    if value.kind is ValueKind.RATIO:
        return f"{prefix}{numeral}:1"
    return prefix + numeral + (" (code)" if value.is_code else "") + (
        f" {value.unit}" if value.unit else "")


@pytest.mark.parametrize(
    "value,indicator",
    [
        (TypedValue(ValueKind.MONEY, 276_000_000.0, "USD"), "COM-QN-14"),
        (TypedValue(ValueKind.TOKEN_AMOUNT, 50_000.0, "OP",
                    qualifier=Qualifier.APPROX_UPPER_BOUND), "FAO-QN-2"),
        (TypedValue(ValueKind.RATIO, 1 / 28), "TAC-QN-6"),
        (TypedValue(ValueKind.NUMBER, 30.5), "COM-AUX-1"),
        (TypedValue(ValueKind.NUMBER, 4.0, unit="months"), "COM-QN-8"),
        (TypedValue(ValueKind.NUMBER, 1.0, is_code=True), "PSO-QN-1"),
        (TypedValue(ValueKind.NUMBER, 6_500_000.0), "COM-QN-14"),
    ],
)
def test_format_parse_round_trip(value, indicator):
    assert parse_value(_cell(value), _def(indicator)) == value


def test_parse_reads_small_numbers_without_an_exponent():
    number, money, ratio = ValueKind.NUMBER, ValueKind.MONEY, ValueKind.RATIO
    assert parse_value("0.0000001", _def("COM-AUX-1")) == TypedValue(number, 1e-07)
    assert parse_value("$0.000015", _def("COM-QN-14")) == TypedValue(money, 1.5e-05, "USD")
    assert parse_value("-0.00000000025", _def("COM-AUX-1")) == TypedValue(number, -2.5e-10)
    assert parse_value("0.0000001:3", _def("TAC-QN-6")) == TypedValue(ratio, 1e-07 / 3)
    with pytest.raises(ValueParseError):  # the grammar itself has no exponents
        parse_value("1e-07", _def("COM-AUX-1"))


_AMOUNTS = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_PARTS = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)
_QUALIFIERS = st.sampled_from(
    [Qualifier.EXACT, Qualifier.APPROX_LOWER_BOUND, Qualifier.APPROX_UPPER_BOUND])


@given(_AMOUNTS, _QUALIFIERS, st.sampled_from(["OP", "ARB", "TAIKO"]), st.booleans())
def test_format_parse_round_trip_property(amount, qualifier, symbol, grouped):
    for value, indicator in (
            (TypedValue(ValueKind.NUMBER, amount, qualifier=qualifier), "COM-AUX-1"),
            (TypedValue(ValueKind.MONEY, amount, "USD", qualifier=qualifier), "COM-QN-14"),
            (TypedValue(ValueKind.TOKEN_AMOUNT, amount, symbol, qualifier=qualifier), "FAO-QN-2")):
        assert parse_value(_cell(value, grouped), _def(indicator)) == value


@given(_PARTS, _PARTS, _QUALIFIERS, st.booleans())
def test_format_parse_round_trip_property_ratio(numerator, denominator, qualifier, grouped):
    assume(math.isfinite(numerator / denominator))
    cell = f"{_PREFIX[qualifier]}{_numeral(numerator, grouped)}:{_numeral(denominator, grouped)}"
    assert parse_value(cell, _def("TAC-QN-6")) == TypedValue(
        ValueKind.RATIO, numerator / denominator, qualifier=qualifier)


# ---------------------------------------------------------------------------
# coerce_unit
# ---------------------------------------------------------------------------


def test_coerce_months_to_weeks():
    months = TypedValue(ValueKind.NUMBER, 6.0, unit="months")
    value = coerce_unit(months, "months", _def("COM-QN-8"))
    assert value.value == pytest.approx(26.07)
    assert value.unit is None


def test_coerce_identity_weeks():
    value = coerce_unit(TypedValue(ValueKind.NUMBER, 18.0, unit="weeks"), "weeks",
                        _def("COM-QN-8"))
    assert value.value == 18


def test_coerce_identity_money():
    value = TypedValue(ValueKind.MONEY, 5000.0, "USD")
    assert coerce_unit(value, "USD", _def("FAO-QN-2")) == value


def test_coerce_years_to_weeks():
    value = coerce_unit(TypedValue(ValueKind.NUMBER, 2.0, unit="years"), "years", _def("COM-QN-7"))
    assert value.value == pytest.approx(2 * 52.14)


def test_coerce_rejects_non_time_mismatch():
    with pytest.raises(UnitError):
        coerce_unit(TypedValue(ValueKind.NUMBER, 5.0), "headcount", _def("FAO-QN-2"))
    # Money and token amounts are currency: only a USD indicator takes them,
    # whatever unit the row claims.
    money = TypedValue(ValueKind.MONEY, 5.0, "USD")
    tokens = TypedValue(ValueKind.TOKEN_AMOUNT, 5.0, "OP")
    for value, indicator, unit in [(money, "COM-QN-7", None),
                                   (money, "COM-QN-7", "weeks"),
                                   (money, "PSO-QN-1", None),
                                   (tokens, "COM-QN-1", None),
                                   (tokens, "COM-QN-1", "headcount")]:
        with pytest.raises(UnitError):
            coerce_unit(value, unit, _def(indicator))
    usd = _def("FAO-QN-2")._replace(unit="usd")
    assert coerce_unit(money, None, usd) == TypedValue(ValueKind.MONEY, 5.0, "USD")
    assert coerce_unit(tokens, None, usd) == TypedValue(ValueKind.TOKEN_AMOUNT, 5.0, "OP")


def test_coerce_twice_is_identity():
    months = TypedValue(ValueKind.NUMBER, 6.0, unit="months")
    once = coerce_unit(months, "months", _def("COM-QN-8"))
    assert coerce_unit(once, "weeks", _def("COM-QN-8")).value == pytest.approx(once.value)


# ---------------------------------------------------------------------------
# dataset loading
# ---------------------------------------------------------------------------


def _bundled(name: str):
    return next(p for p in bundled_program_paths() if p.name == name)


def test_bundled_taiko_round_count():
    ds = load_program_dataset(_bundled("taiko.txt").read_bytes(), SCHEMA)
    obs = ds.observations["COM-QN-12"]
    assert obs.value.kind is ValueKind.NUMBER
    assert obs.value.value == 15


def test_bundled_files_parse_without_value_errors():
    for path in bundled_program_paths():
        ds = load_program_dataset(path.read_bytes(), SCHEMA)
        assert len(ds.observations) == 40


def test_month_annotations_convert_to_weeks():
    ds = load_program_dataset(_bundled("taiko.txt").read_bytes(), SCHEMA)
    assert ds.observations["COM-QN-8"].value.value == pytest.approx(6 * 4.345)
    optimism = load_program_dataset(_bundled("optimism.txt").read_bytes(), SCHEMA)
    assert optimism.observations["COM-QN-8"].value.value == 18


def test_duplicate_indicator_row_rejected():
    src = "program|X\nFAO-QN-2|$5,000\nFAO-QN-2|$6,000\n"
    with pytest.raises(DuplicateIndicator):
        load_program_dataset(src, SCHEMA)


def test_unknown_indicator_rejected():
    with pytest.raises(UnknownIndicator):
        load_program_dataset("program|X\nFAO-QN-99|5\n", SCHEMA)


def test_synthetic_indicator_not_observable():
    with pytest.raises(ParseError):
        load_program_dataset("program|X\nFAO-QN|5\n", SCHEMA)


def test_rubric_rows_accepted_and_range_checked():
    ds = load_program_dataset("program|X\ngovernance|4\n", SCHEMA)
    assert ds.rubric == {"governance": 4}
    # A blank score is unanswered, as in survey response files.
    ds = load_program_dataset("program|X\ngovernance|4\nclarity-of-objectives|\n", SCHEMA)
    assert ds.rubric == {"governance": 4}
    with pytest.raises(RubricRangeError):
        load_program_dataset("program|X\ngovernance|6\n", SCHEMA)
    # int() reads "0_3" as 3; a rubric score has no digit separators.
    with pytest.raises(ParseError, match="^line 2: rubric score '0_3' is not an integer$"):
        load_program_dataset("program|X\ngovernance|0_3\n", SCHEMA)


def test_missing_program_header_rejected():
    with pytest.raises(ParseError):
        load_program_dataset("FAO-QN-2|$5,000\n", SCHEMA)


def test_contradictory_unit_annotation_rejected():
    with pytest.raises(ParseError):
        load_program_dataset("program|X\nCOM-QN-8|18 weeks|months\n", SCHEMA)


def test_unit_annotation_matching_declared_unit_is_identity():
    ds = load_program_dataset("program|X\nFAO-QN-2|$5,000|USD\n", SCHEMA)
    assert ds.observations["FAO-QN-2"].value.value == 5000
    ds = load_program_dataset("program|X\nCOM-QN-8|18 weeks|weeks\n", SCHEMA)
    assert ds.observations["COM-QN-8"].value.value == 18


# ---------------------------------------------------------------------------
# Per-definition memos of parsed cells and finished observations
# ---------------------------------------------------------------------------


def test_identical_rows_share_one_observation():
    schema = builtin_schema()
    rows = "FAO-QN-2|$5,000\nCOM-QN-8|6|months\nGOV-QN-4|Link\n"
    first = load_program_dataset("program|A\n" + rows, schema)
    second = load_program_dataset("program|B\n" + rows, schema)
    for key, obs in first.observations.items():
        assert second.observations[key] is obs
    assert first.observations["COM-QN-8"].value.value == pytest.approx(6 * 4.345)


def test_cell_errors_are_never_memoised():
    schema = builtin_schema()
    definition = schema.get("COM-QN-1")
    for program in ("A", "B"):
        with pytest.raises(ValueParseError, match="lots of grants"):
            load_program_dataset(f"program|{program}\nCOM-QN-1|lots of grants\n", schema)
    assert "lots of grants" not in definition.parsed_cells
    with pytest.raises(ValueParseError):
        parse_value("lots of grants", definition)
    # A unit error after a successful parse is not memoised either.
    for _ in range(2):
        with pytest.raises(ParseError, match="line 2"):
            load_program_dataset("program|X\nCOM-QN-8|18 weeks|months\n", schema)
    assert schema.observed_lines == {}  # neither failing line was stored


def test_repeated_row_hitting_the_memo_is_still_a_duplicate():
    schema = builtin_schema()
    load_program_dataset("program|A\nFAO-QN-2|$5,000\n", schema)
    with pytest.raises(DuplicateIndicator):
        load_program_dataset("program|B\nFAO-QN-2|$5,000\nFAO-QN-2|$5,000\n", schema)


def test_unit_fields_keep_rows_apart():
    schema = builtin_schema()
    weeks = load_program_dataset("program|A\nCOM-QN-8|2|weeks\n", schema)
    months = load_program_dataset("program|B\nCOM-QN-8|2|months\n", schema)
    assert weeks.observations["COM-QN-8"].value.value == 2
    assert months.observations["COM-QN-8"].value.value == pytest.approx(2 * 4.345)


def test_signed_zeros_keep_their_signs():
    schema = builtin_schema()
    for raw, sign in (("-0", -1.0), ("0", 1.0), ("-0", -1.0)):
        ds = load_program_dataset(f"program|X\nCOM-QN-1|{raw}\n", schema)
        assert math.copysign(1.0, ds.observations["COM-QN-1"].value.value) == sign
        assert math.copysign(1.0, parse_value(raw, schema.get("COM-QN-1")).value) == sign


def test_memos_belong_to_one_definition():
    builtin = builtin_schema()
    custom = load_schema(dump_schema(builtin).replace(
        "COM-QN-8|COM|quantitative|numeric|weeks|", "COM-QN-8|COM|quantitative|numeric|months|"))
    assert custom.get("COM-QN-8").unit == "months"
    row = "program|X\nCOM-QN-8|2|weeks\n"
    assert load_program_dataset(row, builtin).observations["COM-QN-8"].value.value == 2
    in_months = load_program_dataset(row, custom).observations["COM-QN-8"].value.value
    assert in_months == pytest.approx(2 / 4.345)
    # A fresh schema, and a copy of a definition, start with empty memos.
    assert builtin_schema().observed_lines == {}
    copied = builtin.get("COM-QN-8")._replace(description="copy")
    assert copied.parsed_cells == {}
    # A line memoised under one schema is unknown under a schema without
    # its indicator, though that schema shares the other definitions.
    assert "COM-QN-8|2|weeks" in builtin.observed_lines
    lacking = Schema(tuple(ind for ind in builtin.indicators if ind.id != "COM-QN-8"))
    lacking.validate()
    with pytest.raises(UnknownIndicator):
        load_program_dataset(row, lacking)


# ---------------------------------------------------------------------------
# The per-schema memo of observation lines
# ---------------------------------------------------------------------------


def test_a_memoised_line_cannot_stand_first():
    schema = builtin_schema()
    load_program_dataset("program|A\nFAO-QN-2|$5,000\n", schema)
    assert "FAO-QN-2|$5,000" in schema.observed_lines
    for text in ("FAO-QN-2|$5,000\nprogram|B\n", "# note\n\nFAO-QN-2|$5,000\n"):
        with pytest.raises(ParseError, match="must start with a 'program|<name>' record"):
            load_program_dataset(text, schema)


@pytest.mark.parametrize("bad,message", [
    ("COM-QN-8|18 weeks|months", "^line 5: unit annotation"),
    ("COM-QN-2|lots of grants", "lots of grants"),
    ("COM-QN-1|3|headcount|extra", "^line 5: observation rows have 2 or 3 fields$"),
    ("COM-QN|3", "^line 5: COM-QN is a synthetic indicator"),
    ("governance|9", "criterion 'governance'"),
])
def test_a_bad_line_after_memoised_lines_reports_its_own_line(bad, message):
    schema = builtin_schema()
    rows = "FAO-QN-2|$5,000\n# note\nCOM-QN-1|12\n"
    load_program_dataset("program|A\n" + rows, schema)
    with pytest.raises(GmiError, match=message):
        load_program_dataset(f"program|B\n{rows}{bad}\n", schema)
    assert bad not in schema.observed_lines


def test_schema_copies_start_with_an_empty_line_memo():
    schema = builtin_schema()
    text = "program|A\nFAO-QN-2|$5,000\nCOM-QN-8|6|months\n"
    first = load_program_dataset(text, schema)
    assert len(schema.observed_lines) == 2
    for twin in (copy.copy(schema), copy.deepcopy(schema), pickle.loads(pickle.dumps(schema))):
        assert twin == schema and twin.observed_lines == {}
        again = load_program_dataset(text, twin)
        assert again == first
        assert again.observations["FAO-QN-2"] is not first.observations["FAO-QN-2"]
        assert len(twin.observed_lines) == 2
    assert len(schema.observed_lines) == 2


# Lines a test inserts into generated files: some were read without error
# elsewhere in the cohort, the others fail in their own ways.
_INSERTED = ("FAO-QN-7|Questbook", "TAC-QN-5|1", "COM-QN-8|18 weeks|months",
             "COM-QN-1|lots of grants", "FAO-QN-99|1", "program|Again", "governance|4")


def _outcome(text: str, schema: Schema):
    try:
        return repr(load_program_dataset(text, schema))
    except GmiError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), count=st.integers(1, 8),
       inserts=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 80),
                                  st.sampled_from(_INSERTED)), max_size=4))
def test_a_shared_schema_loads_as_fresh_schemas_do(seed, count, inserts):
    texts = [p.text for p in _load_cohort_module().generate(seed, count).programs]
    for index, where, line in inserts:
        lines = texts[index % count].split("\n")
        lines.insert(where % len(lines), line)
        texts[index % count] = "\n".join(lines)
    fresh = [_outcome(text, builtin_schema()) for text in texts]
    shared = builtin_schema()
    assert [_outcome(text, shared) for text in texts] == fresh
    assert [_outcome(text, shared) for text in texts] == fresh  # every line met before


@pytest.mark.parametrize("enum", [Category, Qualifier])
def test_enum_members_hash_by_identity(enum):
    for member in enum:
        assert hash(member) == object.__hash__(member)
        assert pickle.loads(pickle.dumps(member)) is member
        assert copy.deepcopy(member) is member
        assert {member: 1}[enum(member.value)] == 1


def test_load_rates():
    rates = load_rates("ARB|0.55\nOP|1.40\n")
    assert rates == {"ARB": 0.55, "OP": 1.40}
    with pytest.raises(ParseError):
        load_rates("ARB|zero\n")
    with pytest.raises(ParseError):
        load_rates("ARB|0.5\nARB|0.6\n")
    for bad in ("nan", "inf", "-inf", "0", "0_5"):
        with pytest.raises(ParseError):
            load_rates(f"ARB|{bad}\n")
    with pytest.raises(ParseError):
        load_rates("ARB|-1\n")


# ---------------------------------------------------------------------------
# validate_dataset
# ---------------------------------------------------------------------------


def test_validate_marks_manager_ratio_missing_for_mantle():
    ds = load_program_dataset(_bundled("mantle.txt").read_bytes(), SCHEMA)
    report = validate_dataset(ds, SCHEMA)
    assert "TAC-QN-6" in report.categories[Category.TAC].missing


def test_validate_empty_dataset_nothing_scorable():
    ds = load_program_dataset("program|Empty\n", SCHEMA)
    report = validate_dataset(ds, SCHEMA)
    assert all(not c.scorable for c in report.categories.values())


def test_validate_rubric_only_dataset():
    ds = load_program_dataset(
        "program|X\ncommunity-participation-and-engagement|3\n", SCHEMA
    )
    report = validate_dataset(ds, SCHEMA)
    assert report.categories[Category.COM].scorable
    others = [c for cat, c in report.categories.items() if cat is not Category.COM]
    assert all(not c.scorable for c in others)


def test_validate_rejects_an_indicator_the_schema_lacks():
    # A dataset built in code, whose id no loader checked.
    five = TypedValue(ValueKind.NUMBER, 5.0)
    dataset = ProgramDataset("A", {"FAO-QN-99": Observation("FAO-QN-99", "5", five)}, {})
    with pytest.raises(UnknownIndicator, match="^indicator 'FAO-QN-99' not present"):
        validate_dataset(dataset, SCHEMA)


@pytest.mark.parametrize("kind", [ValueKind.TEXT, ValueKind.COUNTRY])
def test_a_word_under_a_scorable_indicator_is_excluded_as_non_scorable(kind):
    # Parsing gives a scorable indicator no text or country value, but a
    # dataset built in code can hold one: it is excluded, not scored.
    definition = SCHEMA.get("COM-QN-1")
    assert definition.scorable
    assert scoring_status(TypedValue(kind), definition) == (None, "non-scorable")
    a = ProgramDataset("A", {"COM-QN-1": Observation("COM-QN-1", "many", TypedValue(kind))},
                       {"governance": 4})
    three = TypedValue(ValueKind.NUMBER, 3.0)
    b = ProgramDataset("B", {"COM-QN-1": Observation("COM-QN-1", "3", three)}, {})
    records = [{rec.indicator: rec for rec in result.audit}["COM-QN-1"]
               for result in score_datasets([a, b], SCHEMA, allow_partial=True)[1]]
    assert [(rec.exclusion, rec.score) for rec in records] == [("non-scorable", None), (None, 0.5)]


def test_validate_does_not_mutate_dataset():
    ds = load_program_dataset(_bundled("taiko.txt").read_bytes(), SCHEMA)
    before = (dict(ds.observations), dict(ds.rubric))
    validate_dataset(ds, SCHEMA)
    assert (ds.observations, ds.rubric) == before


def test_validate_token_amounts_listed_separately():
    ds = load_program_dataset(_bundled("arbitrum-stip.txt").read_bytes(), SCHEMA)
    report = validate_dataset(ds, SCHEMA)
    assert "COM-QN-14" in report.categories[Category.COM].token_unconverted
    # tokens alone do not make a category scorable, but COM has plain numbers
    assert report.categories[Category.COM].scorable


@pytest.mark.parametrize(
    "separator", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_only_newlines_end_a_line(separator):
    cell = f"Grants{separator}Council"
    ds = load_program_dataset(f"program|X\nFAO-QN-7|{cell}\ngovernance|4\n".encode(), SCHEMA)
    assert ds.observations["FAO-QN-7"].raw == cell
    assert ds.rubric == {"governance": 4}
    with pytest.raises(ParseError, match="^line 3: rubric rows have 2 fields$"):
        load_program_dataset(f"program|X\nFAO-QN-7|{cell}\ngovernance\n", SCHEMA)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_line_numbers_count_each_newline_once(newline):
    text = newline.join(["program|X", "# note", "", "governance"]) + newline
    with pytest.raises(ParseError, match="^line 4: rubric rows have 2 fields$"):
        load_program_dataset(text, SCHEMA)
