"""Indicator registry: builtin contents, file round-trips, invariants."""

from __future__ import annotations

import pytest

from gmi.bundled import bundled_category_table_path, bundled_program_paths
from gmi.errors import ParseError, SchemaError
from gmi.ingest import load_program_dataset, load_rates
from gmi.rubric import load_responses
from gmi.schema import (
    Category,
    DataType,
    Direction,
    Kind,
    builtin_schema,
    dump_schema,
    load_schema,
    read_records,
    with_directions,
)
from gmi.scoring import load_category_table


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
    for ind in builtin_schema().indicators:
        assert not ind.explicit_direction


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
    "survey-responses": (load_responses, "governance|4\nclarity-of-objectives|\n"),
}


@pytest.mark.parametrize("loader, text", LOADERS.values(), ids=LOADERS)
def test_a_leading_byte_order_mark_is_dropped(loader, text):
    assert not text.startswith(BOM)
    expected = loader(text)
    assert loader(BOM + text) == expected
    assert loader((BOM + text).encode("utf-8")) == expected


def test_only_one_byte_order_mark_is_dropped_and_line_numbers_stay():
    assert read_records(f"{BOM}a|b\n\n# c\n d | e ") == [(1, ["a", "b"]), (4, ["d", "e"])]
    assert read_records(f"{BOM}{BOM}a") == [(1, [f"{BOM}a"])]


def test_with_directions_marks_explicit():
    schema = with_directions(builtin_schema(), {"FAO-QN-6": Direction.LOWER_BETTER})
    ind = schema.get("FAO-QN-6")
    assert ind.direction is Direction.LOWER_BETTER
    assert ind.explicit_direction
    # round-trips through the file format
    assert load_schema(dump_schema(schema)) == schema


def test_unknown_indicator_id_shape_rejected():
    lines = _schema_lines()
    lines.append("XXX-QN-1|FAO|quantitative|numeric|USD|default|Bogus")
    with pytest.raises(SchemaError):
        load_schema("\n".join(lines))
