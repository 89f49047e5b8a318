"""Indicator registry: builtin contents, file round-trips, invariants."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmi.bundled import bundled_category_table_path, bundled_program_paths
from gmi.errors import ParseError, SchemaError
from gmi.ingest import TypedValue, ValueKind, load_program_dataset, load_rates, scoring_status
from gmi.report import parse_structured, render_comparison
from gmi.schema import (
    Category,
    DataType,
    Direction,
    Kind,
    Schema,
    builtin_schema,
    dump_schema,
    load_schema,
    read_records,
)
from gmi.scoring import load_category_table, score_category_table


def test_builtin_has_six_categories():
    schema = builtin_schema()
    assert {ind.category for ind in schema.indicators} == set(Category)
    assert len(Category) == 6


def test_builtin_evaluation_timeframe():
    ind = builtin_schema().get("FAO-QN-6")
    assert ind is not None
    assert ind.unit == "weeks"
    assert ind.data_type is DataType.NUMERIC


def test_builtin_application_to_allocation_share():
    ind = builtin_schema().get("TAC-QN-4")
    assert ind.data_type is DataType.RATIONAL
    assert ind.unit == "conversion rate"


def test_builtin_roll_ups_and_rubric_indicators():
    schema = builtin_schema()
    synthetic = [ind for ind in schema.indicators if ind.kind is Kind.SYNTHETIC]
    rubric = [ind for ind in schema.indicators if ind.kind is Kind.RUBRIC]
    assert sorted(ind.id for ind in synthetic) == sorted(
        f"{cat.code}-QN" for cat in Category
    )
    assert sorted(ind.id for ind in rubric) == sorted(
        f"{cat.code}-QL" for cat in Category
    )


def test_builtin_directions_are_defaults():
    # No builtin row asserts a polarity: what scores is default, the rest non-scorable.
    indicators = builtin_schema().indicators
    assert {ind.direction for ind in indicators} == {Direction.DEFAULT, Direction.NON_SCORABLE}
    assert all(ind.direction is Direction.DEFAULT for ind in indicators if ind.scorable)


def test_dump_load_round_trip():
    schema = builtin_schema()
    assert load_schema(dump_schema(schema)) == schema


def test_load_accepts_bytes():
    schema = builtin_schema()
    assert load_schema(dump_schema(schema).encode("utf-8")) == schema


def _schema_lines() -> list[str]:
    return dump_schema(builtin_schema()).splitlines()


def test_duplicate_id_rejected():
    lines = _schema_lines()
    dup = next(ln for ln in lines if ln.startswith("GOV-QN-1|"))
    lines.append(dup)
    with pytest.raises(SchemaError) as exc:
        load_schema("\n".join(lines))
    assert exc.value.indicator_id == "GOV-QN-1"


def test_text_indicator_cannot_be_scorable():
    lines = [
        ln.replace("EFI-QN-3|EFI|quantitative|text|none|non-scorable",
                   "EFI-QN-3|EFI|quantitative|text|none|higher-better")
        for ln in _schema_lines()
    ]
    with pytest.raises(SchemaError):
        load_schema("\n".join(lines))


def test_missing_roll_up_rejected():
    lines = [ln for ln in _schema_lines() if not ln.startswith("TAC-QN|")]
    with pytest.raises(SchemaError) as exc:
        load_schema("\n".join(lines))
    assert "TAC" in str(exc.value)


def test_category_without_scorable_indicator_rejected():
    keep = ("id|", "COM-QN|", "GOV-QN|", "EFI-QN|", "TAC-QN|", "FAO-QN|", "PSO-QN|")
    lines = [
        ln for ln in _schema_lines()
        if ln.startswith(keep) or not ln.startswith("COM-")
    ]
    with pytest.raises(SchemaError) as exc:
        load_schema("\n".join(lines))
    assert "COM" in str(exc.value)


def test_malformed_rows_raise_parse_error():
    with pytest.raises(ParseError):
        load_schema("")
    with pytest.raises(ParseError):
        load_schema("id|category|kind\n")
    lines = _schema_lines()
    lines[1] = lines[1].replace("|synthetic|", "|mysterious|")
    with pytest.raises(ParseError):
        load_schema("\n".join(lines))


@pytest.mark.parametrize("old, new, message", [
    ("|FAO|synthetic|", "|XYZ|synthetic|", "unknown category code 'XYZ'"),
    ("|synthetic|", "|Mysterious|", "unknown kind 'Mysterious'"),
    ("|n.a.|", "|Decimal|", "unknown data type 'Decimal'"),
    ("|non-scorable|", "|Sideways|", "unknown direction 'Sideways'"),
    ("|Focus Areas and Objectives", "|Focus|Areas", "expected 7 fields, got 8"),
], ids=["category", "kind", "data-type", "direction", "field-count"])
def test_a_bad_row_names_its_line_and_its_token_as_written(old, new, message):
    lines = _schema_lines()
    lines[1] = lines[1].replace(old, new)
    with pytest.raises(ParseError, match=f"^line 2: {message}$"):
        load_schema("\n".join(lines))


def test_comments_and_blank_lines_ignored():
    text = dump_schema(builtin_schema())
    commented = "# registry\n\n" + text.replace("\n", "\n# noise\n", 1)
    assert load_schema(commented) == builtin_schema()


BOM = "\ufeff"

# Every loader reads its document with read_records.  A byte-order mark left
# in place turns a first comment line into a record, or joins the first
# field of a first record.
LOADERS = {
    "observations": (lambda source: load_program_dataset(source, builtin_schema()),
                     bundled_program_paths()[0].read_text(encoding="utf-8")),
    "schema": (load_schema, dump_schema(builtin_schema())),
    "rates": (load_rates, "OP|1.75\nARB|0.55\n"),
    "category-table": (load_category_table,
                       bundled_category_table_path().read_text(encoding="utf-8")),
    "survey-responses": (lambda source: load_program_dataset(source, builtin_schema()),
                         "program|X\ngovernance|4\nclarity-of-objectives|\n"),
    "structured-comparison": (parse_structured, render_comparison(
        score_category_table(load_category_table(
            bundled_category_table_path().read_bytes())), fmt="structured").decode("utf-8")),
}


@pytest.mark.parametrize("loader, text", LOADERS.values(), ids=LOADERS)
def test_a_leading_byte_order_mark_is_dropped(loader, text):
    assert not text.startswith(BOM)
    expected = loader(text)
    assert loader(BOM + text) == expected
    assert loader((BOM + text).encode("utf-8")) == expected


@pytest.mark.parametrize("loader, text", LOADERS.values(), ids=LOADERS)
def test_a_document_that_is_not_utf8_is_a_parse_error(loader, text):
    with pytest.raises(ParseError, match="^document is not UTF-8: "):
        loader(text.encode("utf-8") + b"\xff\n")


def test_only_one_byte_order_mark_is_dropped_and_line_numbers_stay():
    assert read_records(f"{BOM}a|b\n\n# c\n d | e ") == [(1, ["a", "b"]), (4, ["d", "e"])]
    assert read_records(f"{BOM}{BOM}a") == [(1, [f"{BOM}a"])]


def test_an_explicit_direction_round_trips():
    schema = load_schema(dump_schema(builtin_schema()).replace(
        "FAO-QN-6|FAO|quantitative|numeric|weeks|default|",
        "FAO-QN-6|FAO|quantitative|numeric|weeks|lower-better|"))
    ind = schema.get("FAO-QN-6")
    assert ind.direction is Direction.LOWER_BETTER
    assert "|weeks|lower-better|Evaluation Timeframe\n" in dump_schema(schema)
    # round-trips through the file format
    assert load_schema(dump_schema(schema)) == schema


def test_unknown_indicator_id_shape_rejected():
    lines = _schema_lines()
    lines.append("XXX-QN-1|FAO|quantitative|numeric|USD|default|Bogus")
    with pytest.raises(SchemaError):
        load_schema("\n".join(lines))


@pytest.mark.parametrize("field", ["unit", "description"])
@pytest.mark.parametrize("text", ["a|b", "a\nb", "a\rb", " padded", "padded ", "\tpadded"])
def test_a_field_a_schema_row_cannot_hold_is_rejected(field, text):
    definition = builtin_schema().get("COM-QN-1")._replace(**{field: text})
    with pytest.raises(SchemaError, match=f"^indicator 'COM-QN-1' has a {field} ") as exc:
        definition.validate()
    assert exc.value.indicator_id == "COM-QN-1"


@pytest.mark.parametrize("indicator, change, message", [
    ("COM-QN-1", {"category": Category.FAO}, "indicator 'COM-QN-1' declares category FAO"),
    ("COM-QN", {"id": "COM-QN-2"},
     "synthetic roll-up for COM must be named COM-QN, got 'COM-QN-2'"),
    ("COM-QN-1", {"data_type": None}, "indicator 'COM-QN-1' needs a data type"),
], ids=["category-prefix", "roll-up-name", "no-data-type"])
def test_a_definition_breaking_a_rule_is_rejected(indicator, change, message):
    with pytest.raises(SchemaError, match=f"^{message}$"):
        builtin_schema().get(indicator)._replace(**change).validate()


def test_an_id_with_a_trailing_line_break_is_rejected():
    with pytest.raises(SchemaError, match="is not well formed"):
        builtin_schema().get("COM-QN-1")._replace(id="COM-QN-1\n").validate()


_BUILTIN = builtin_schema()
#: Field text that is often valid and often holds what a row cannot: the
#: delimiter, line breaks and padding.
_FIELD_TEXT = st.one_of(st.sampled_from(("", "scoring", "USD", "a b", "#a")),
                        st.text(st.sampled_from("ab #-|\n\r\t\x85"), max_size=4))
_CHANGES = st.lists(st.tuples(st.sampled_from(range(len(_BUILTIN.indicators))),
                              st.sampled_from(tuple(Direction)), _FIELD_TEXT, _FIELD_TEXT),
                    max_size=4)


@settings(max_examples=300, deadline=None)
@given(_CHANGES, st.sampled_from((tuple, list)))
@example([], list)  # the builtin indicators, held in a list
def test_every_valid_schema_round_trips_through_its_document(changes, container):
    indicators = list(_BUILTIN.indicators)
    for index, direction, unit, description in changes:
        indicators[index] = indicators[index]._replace(
            direction=direction, unit=unit, description=description)
    schema = Schema(container(indicators))
    try:
        schema.validate()
    except SchemaError:
        return
    reloaded = load_schema(dump_schema(schema))
    assert reloaded == schema
    code = TypedValue(ValueKind.NUMBER, 2.0, is_code=True)
    for ind in schema.indicators:
        assert scoring_status(code, ind) == scoring_status(code, reloaded.get(ind.id))
