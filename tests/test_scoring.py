"""Normalization, aggregation, composites and stage classification."""

from __future__ import annotations

import copy
import math
import pickle
import re
import sys

import pytest

from gmi.errors import (
    ParseError,
    PartialDataError,
    RubricRangeError,
    UnknownIndicator,
)
from gmi.ingest import (
    CategoryValidation,
    Observation,
    ProgramDataset,
    Qualifier,
    TypedValue,
    ValidationReport,
    ValueKind,
    column_bounds,
)
from gmi.rubric import Criterion, RubricTemplate, rubric_to_unit
from gmi.schema import (
    Category,
    DataType,
    Direction,
    IndicatorDef,
    Kind,
    Schema,
    builtin_schema,
    dump_schema,
    load_schema,
)
from gmi.scoring import (
    AuditRecord,
    CategoryTable,
    Excluded,
    GmiResult,
    ScoreMatrix,
    Stage,
    classify_maturity,
    compute_gmi,
    directional_score,
    load_category_table,
    minmax_normalize,
    score_category_table,
    score_datasets,
)

# The published category-level scores for the four programs, keyed by the
# program the category rows themselves assign the values to.
PUBLISHED_CATEGORY_SCORES = {
    "Mantle": {
        Category.FAO: 3.8764, Category.PSO: 4.0000, Category.GOV: 2.7857,
        Category.EFI: 3.0000, Category.TAC: 1.5441, Category.COM: 8.0192,
    },
    "Taiko": {
        Category.FAO: 3.8364, Category.PSO: 4.5000, Category.GOV: 2.5000,
        Category.EFI: 3.0000, Category.TAC: 3.0347, Category.COM: 14.6587,
    },
    "Optimism": {
        Category.FAO: 4.3498, Category.PSO: 2.0000, Category.GOV: 3.5000,
        Category.EFI: 5.0000, Category.TAC: 3.6180, Category.COM: 11.0217,
    },
    "Arbitrum STIP": {
        Category.FAO: 5.5300, Category.PSO: 2.0000, Category.GOV: 1.1429,
        Category.EFI: 3.0000, Category.TAC: 1.9188, Category.COM: 4.8816,
    },
}

PUBLISHED_COMPOSITES = {1.1807, 1.8415, 3.2945, 3.9312}


# ---------------------------------------------------------------------------
# column_bounds and minmax_normalize
# ---------------------------------------------------------------------------


def scale_column(values):
    """*values* min-max scaled between the bounds ``column_bounds`` finds,
    as the column routine scales them."""
    lo, hi = column_bounds("X", values.values())
    return minmax_normalize(values, lo=lo, hi=hi)


def test_minmax_published_category_row():
    # Oracle: hand arithmetic on the published FAO row.
    out = scale_column(
        {"Mantle": 3.8764, "Taiko": 3.8364, "Optimism": 4.3498, "Arbitrum": 5.5300}
    )
    assert out["Mantle"] == pytest.approx(0.0236, abs=1e-3)
    assert out["Taiko"] == pytest.approx(0.0, abs=1e-3)
    assert out["Optimism"] == pytest.approx(0.3031, abs=1e-3)
    assert out["Arbitrum"] == pytest.approx(1.0, abs=1e-3)


def test_minmax_degenerate_all_equal():
    assert scale_column({"A": 7, "B": 7, "C": 7}) == {"A": 0.5, "B": 0.5, "C": 0.5}


def test_minmax_single_present_value():
    assert scale_column({"A": 3.2, "B": None}) == {"A": 0.5, "B": None}


def test_minmax_unit_interval_endpoints():
    assert scale_column({"A": 0, "B": 1}) == {"A": 0.0, "B": 1.0}


def test_minmax_missing_excluded_from_bounds():
    assert scale_column({"A": 3, "B": None, "C": 5}) == {"A": 0.0, "B": None, "C": 1.0}


def test_column_bounds_rejects_a_range_that_overflows():
    big = sys.float_info.max
    message = f"column X spans {-big!r} to {big!r}, a range that overflows"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        column_bounds("X", [big, -big, 0.0])
    assert scale_column({"a": big, "b": 0.0, "c": None}) == {"a": 1.0, "b": 0.0, "c": None}


# ---------------------------------------------------------------------------
# directional_score / rubric mapping
# ---------------------------------------------------------------------------


def test_directional_score():
    assert directional_score(0.3, Direction.HIGHER_BETTER) == 0.3
    assert directional_score(0.3, Direction.DEFAULT) == 0.3
    assert directional_score(0.3, Direction.LOWER_BETTER) == pytest.approx(0.7)
    assert directional_score(1.0, Direction.LOWER_BETTER) == 0.0
    with pytest.raises(ValueError,
                       match="^direction must be higher-better, lower-better or default$"):
        directional_score(0.3, Direction.NON_SCORABLE)


def test_rubric_to_unit_anchors():
    assert rubric_to_unit(1) == 0.0
    assert rubric_to_unit(3) == 0.5
    assert rubric_to_unit(5) == 1.0


@pytest.mark.parametrize("bad", [0, 6, -1])
def test_an_out_of_range_answer_of_a_built_dataset_is_rejected(bad):
    # A dataset built in code skips read_answer's check; collect_responses
    # checks every dataset that scoring reads.
    datasets = [_dataset("A", {"COM-QN-1": TypedValue(ValueKind.NUMBER, 3.0)},
                         {"governance": bad}),
                _dataset("B", {"COM-QN-1": TypedValue(ValueKind.NUMBER, 5.0)})]
    with pytest.raises(RubricRangeError, match=f"^rubric score {bad} for criterion 'governance'"):
        score_datasets(datasets, builtin_schema(), allow_partial=True)


# ---------------------------------------------------------------------------
# compute_gmi
# ---------------------------------------------------------------------------


def test_compute_gmi_reproduces_published_composites():
    results = compute_gmi(PUBLISHED_CATEGORY_SCORES)
    composites = sorted(r.gmi for r in results.values())
    for got, expected in zip(composites, sorted(PUBLISHED_COMPOSITES)):
        assert got == pytest.approx(expected, abs=1e-3)
    # derived program alignment
    assert results["Mantle"].gmi == pytest.approx(1.8415, abs=1e-3)
    assert results["Taiko"].gmi == pytest.approx(3.2945, abs=1e-3)
    assert results["Optimism"].gmi == pytest.approx(3.9312, abs=1e-3)
    assert results["Arbitrum STIP"].gmi == pytest.approx(1.1807, abs=1e-3)


def test_compute_gmi_requires_a_program():
    with pytest.raises(ValueError, match="^at least one program is required$"):
        compute_gmi({})


def test_compute_gmi_single_program_is_neutral():
    results = compute_gmi({"Solo": PUBLISHED_CATEGORY_SCORES["Mantle"]})
    result = results["Solo"]
    assert result.gmi == pytest.approx(3.0)
    assert result.stage is Stage.DEVELOPMENTAL
    assert all(v == 0.5 for v in result.normalized_category_scores.values())


def test_compute_gmi_dominance_endpoints():
    low = {cat: 1.0 for cat in Category}
    high = {cat: 2.0 for cat in Category}
    results = compute_gmi({"Low": low, "High": high})
    assert results["High"].gmi == pytest.approx(6.0)
    assert results["Low"].gmi == pytest.approx(0.0)


def test_compute_gmi_partial_data_error_lists_pairs():
    scores = {
        "A": {cat: 1.0 for cat in Category},
        "B": {cat: 2.0 for cat in Category if cat is not Category.GOV},
    }
    with pytest.raises(PartialDataError) as exc:
        compute_gmi(scores)
    assert ("B", "GOV") in exc.value.missing


def test_compute_gmi_partial_rescales():
    scores = {
        "A": {cat: 1.0 for cat in Category},
        "B": {cat: 2.0 for cat in Category if cat is not Category.GOV},
    }
    results = compute_gmi(scores, allow_partial=True)
    # B wins its five present categories (1.0 each), rescaled by 6/5.
    assert results["B"].gmi == pytest.approx(5.0 * 6 / 5)
    # A's GOV column is degenerate (only value present) -> 0.5.
    assert results["A"].normalized_category_scores[Category.GOV] == 0.5
    assert results["A"].gmi == pytest.approx(0.5)


def test_compute_gmi_sum_equals_reported_invariant():
    results = compute_gmi(PUBLISHED_CATEGORY_SCORES)
    for result in results.values():
        assert result.gmi == pytest.approx(
            sum(result.normalized_category_scores.values()), abs=1e-12
        )
        assert 0.0 <= result.gmi <= 6.0


def test_compute_gmi_audit_uses_roll_up_ids():
    results = compute_gmi(PUBLISHED_CATEGORY_SCORES)
    indicators = {rec.indicator for rec in results["Mantle"].audit}
    assert indicators == {f"{cat.code}-QN" for cat in Category}


# ---------------------------------------------------------------------------
# classify_maturity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "gmi,stage",
    [
        (0.0, Stage.EXPERIMENTAL),
        (1.4999, Stage.EXPERIMENTAL),
        (1.5, Stage.FOUNDATIONAL),
        (2.9999, Stage.FOUNDATIONAL),
        (3.0, Stage.DEVELOPMENTAL),
        (3.9312, Stage.DEVELOPMENTAL),
        (4.4999, Stage.DEVELOPMENTAL),
        (4.5, Stage.ADVANCED),
        (6.0, Stage.ADVANCED),
    ],
)
def test_classify_maturity(gmi, stage):
    assert classify_maturity(gmi) is stage


def test_classify_maturity_rejects_out_of_range():
    with pytest.raises(ValueError):
        classify_maturity(-0.1)
    with pytest.raises(ValueError):
        classify_maturity(6.1)
    with pytest.raises(ValueError):
        classify_maturity(float("nan"))


# ---------------------------------------------------------------------------
# raw pipeline behaviours
# ---------------------------------------------------------------------------


def _dataset(program: str, cells: dict[str, object], rubric: dict[str, int] | None = None):
    observations = {
        indicator_id: Observation(indicator_id, raw="synthetic", value=value)
        for indicator_id, value in cells.items()
    }
    return ProgramDataset(program=program, observations=observations,
                          rubric=rubric or {})


def _full_rubric(score: int) -> dict[str, int]:
    return {
        "clarity-of-objectives": score,
        "alignment-with-ecosystem-needs": score,
        "diversity-of-supported-projects": score,
        "organizational-clarity": score,
        "governance": score,
        "community-participation-and-engagement": score,
    }


def test_score_datasets_tokens_excluded_without_rates():
    schema = builtin_schema()
    datasets = [
        _dataset("A", {"FAO-QN-2": TypedValue(ValueKind.MONEY, 1000.0, "USD")}, _full_rubric(3)),
        _dataset("B", {"FAO-QN-2": TypedValue(ValueKind.TOKEN_AMOUNT, 2000.0, "ARB")},
                 _full_rubric(3)),
    ]
    matrix, _ = score_datasets(datasets, schema, allow_partial=True)
    assert matrix.entries[("B", "FAO-QN-2")] == Excluded("token-unconverted")
    assert matrix.entries[("A", "FAO-QN-2")] == 0.5  # degenerate after exclusion


def test_score_datasets_rejects_an_indicator_the_schema_lacks():
    # A dataset loaded against one schema and scored against another.
    datasets = [_dataset("A", {"FAO-QN-99": TypedValue(ValueKind.MONEY, 1000.0, "USD")},
                         _full_rubric(3))]
    with pytest.raises(UnknownIndicator, match="FAO-QN-99"):
        score_datasets(datasets, builtin_schema(), allow_partial=True)


def test_score_datasets_names_a_repeated_program():
    datasets = [_dataset(name, {"FAO-QN-2": TypedValue(ValueKind.MONEY, 1000.0, "USD")},
                         _full_rubric(3))
                for name in ("A", "B", "C", "B")]
    with pytest.raises(ParseError, match="^duplicate program 'B'$"):
        score_datasets(datasets, builtin_schema(), allow_partial=True)


def test_score_datasets_tokens_convert_with_rates():
    schema = builtin_schema()
    datasets = [
        _dataset("A", {"FAO-QN-2": TypedValue(ValueKind.MONEY, 1000.0, "USD")}, _full_rubric(3)),
        _dataset("B", {"FAO-QN-2": TypedValue(ValueKind.TOKEN_AMOUNT, 2000.0, "ARB")},
                 _full_rubric(3)),
    ]
    matrix, _ = score_datasets(datasets, schema, rates={"ARB": 1.0}, allow_partial=True)
    assert matrix.entries[("A", "FAO-QN-2")] == 0.0
    assert matrix.entries[("B", "FAO-QN-2")] == 1.0


def test_score_datasets_codes_need_explicit_direction():
    schema = builtin_schema()
    datasets = [
        _dataset("A", {"PSO-QN-1": TypedValue(ValueKind.NUMBER, 1.0, is_code=True)},
                 _full_rubric(3)),
        _dataset("B", {"PSO-QN-1": TypedValue(ValueKind.NUMBER, 0.0, is_code=True)},
                 _full_rubric(3)),
    ]
    matrix, _ = score_datasets(datasets, schema, allow_partial=True)
    assert matrix.entries[("A", "PSO-QN-1")] == Excluded("non-scorable")

    explicit = load_schema(dump_schema(schema).replace(
        "PSO-QN-1|PSO|quantitative|numeric|scoring|default|",
        "PSO-QN-1|PSO|quantitative|numeric|scoring|higher-better|"))
    assert explicit.get("PSO-QN-1").direction is Direction.HIGHER_BETTER
    matrix, _ = score_datasets(datasets, explicit, allow_partial=True)
    assert matrix.entries[("A", "PSO-QN-1")] == 1.0
    assert matrix.entries[("B", "PSO-QN-1")] == 0.0

    # A direction set in code counts as one read from a document.
    lower = Schema(tuple(ind._replace(direction=Direction.LOWER_BETTER) if ind.id == "PSO-QN-1"
                         else ind for ind in schema.indicators))
    matrix, _ = score_datasets(datasets, lower, allow_partial=True)
    assert matrix.entries[("A", "PSO-QN-1")] == 0.0
    assert matrix.entries[("B", "PSO-QN-1")] == 1.0


def test_score_datasets_lower_better_direction():
    schema = load_schema(dump_schema(builtin_schema()).replace(
        "FAO-QN-6|FAO|quantitative|numeric|weeks|default|",
        "FAO-QN-6|FAO|quantitative|numeric|weeks|lower-better|"))
    assert schema.get("FAO-QN-6").direction is Direction.LOWER_BETTER
    datasets = [
        _dataset("A", {"FAO-QN-6": TypedValue(ValueKind.NUMBER, 2.0)}, _full_rubric(3)),
        _dataset("B", {"FAO-QN-6": TypedValue(ValueKind.NUMBER, 4.0)}, _full_rubric(3)),
    ]
    matrix, _ = score_datasets(datasets, schema, allow_partial=True)
    assert matrix.entries[("A", "FAO-QN-6")] == 1.0
    assert matrix.entries[("B", "FAO-QN-6")] == 0.0


def test_score_datasets_rubric_counts_as_one_element():
    schema = builtin_schema()
    datasets = [
        _dataset("A", {"FAO-QN-2": TypedValue(ValueKind.MONEY, 0.0, "USD"),
                       "FAO-QN-3": TypedValue(ValueKind.MONEY, 0.0, "USD")},
                 {"alignment-with-ecosystem-needs": 5,
                  "diversity-of-supported-projects": 5,
                  **{k: 3 for k in ("clarity-of-objectives", "organizational-clarity",
                                    "governance",
                                    "community-participation-and-engagement")}}),
        _dataset("B", {"FAO-QN-2": TypedValue(ValueKind.MONEY, 100.0, "USD"),
                       "FAO-QN-3": TypedValue(ValueKind.MONEY, 100.0, "USD")},
                 _full_rubric(3)),
    ]
    _, (a, b) = score_datasets(datasets, schema, allow_partial=True)
    # A: indicators 0.0, 0.0 plus rubric mean 1.0 -> (0 + 0 + 1) / 3
    assert a.category_scores[Category.FAO] == pytest.approx(1 / 3)
    # B: indicators 1.0, 1.0 plus rubric 0.5 -> 2.5 / 3
    assert b.category_scores[Category.FAO] == pytest.approx(2.5 / 3)


_FAO_COLUMNS = ("FAO-QN-2", "FAO-QN-3", "FAO-AUX-1")


def _fao_scores(rows):
    """Each program's FAO category score, from *rows* of ``(program, USD
    amounts in the columns of _FAO_COLUMNS, FAO rubric answer)``.  Every
    program also answers a COM criterion, so none is left without a
    category."""
    datasets = [
        _dataset(program,
                 {indicator: TypedValue(ValueKind.MONEY, amount, "USD")
                  for indicator, amount in zip(_FAO_COLUMNS, amounts)},
                 {"community-participation-and-engagement": 3,
                  **({"alignment-with-ecosystem-needs": answer,
                      "diversity-of-supported-projects": answer} if answer else {})})
        for program, amounts, answer in rows]
    _, results = score_datasets(datasets, builtin_schema(), allow_partial=True)
    return {r.program: r.category_scores.get(Category.FAO) for r in results}


def test_score_datasets_category_mean():
    # Indicator scores 0.5 and 0.5 (a degenerate pair) plus the rubric's 0.5.
    scores = _fao_scores([("A", (7.0, 7.0), 3), ("B", (7.0, 7.0), 3)])
    assert scores["A"] == 0.5
    # Indicator scores 0.0 and 1.0, no rubric answer.
    scores = _fao_scores([("A", (0.0, 10.0), None), ("B", (10.0, 0.0), None)])
    assert scores["A"] == 0.5
    # Oracle: (0.2 + 0.4 + 0.9 + 0.5) / 4, the rubric channel counting once.
    scores = _fao_scores([("A", (2.0, 4.0, 9.0), 3), ("L", (0.0, 0.0, 0.0), None),
                          ("H", (10.0, 10.0, 10.0), None)])
    assert scores["A"] == pytest.approx(0.5)
    # No scorable input: the category is left out, not scored.
    scores = _fao_scores([("A", (), None), ("B", (1.0,), None)])
    assert scores == {"A": None, "B": 0.5}


def test_score_datasets_program_order_is_input_order():
    schema = builtin_schema()
    datasets = [
        _dataset("Z", {"FAO-QN-2": TypedValue(ValueKind.MONEY, 10.0, "USD")}, _full_rubric(3)),
        _dataset("A", {"FAO-QN-2": TypedValue(ValueKind.MONEY, 20.0, "USD")}, _full_rubric(3)),
    ]
    matrix, results = score_datasets(datasets, schema, allow_partial=True)
    assert [r.program for r in matrix.results] == ["Z", "A"]
    assert [r.program for r in results] == ["Z", "A"]


# ---------------------------------------------------------------------------
# category table loading
# ---------------------------------------------------------------------------


def test_load_category_table_roundtrip():
    text = (
        "program|FAO|PSO|GOV|EFI|TAC|COM\n"
        "X|1|2|3|4|5|6\n"
        "Y|6|5|4|3|2|n.a.\n"
        "note|hello\n"
    )
    table = load_category_table(text)
    assert list(table.scores) == ["X", "Y"]
    assert table.scores["X"][Category.FAO] == 1.0
    assert Category.COM not in table.scores["Y"]
    assert table.notes == ("hello",)
    results = score_category_table(table, allow_partial=True)
    assert [r.program for r in results] == ["X", "Y"]


def test_load_category_table_errors():
    from gmi.errors import ParseError

    with pytest.raises(ParseError):
        load_category_table("")
    with pytest.raises(ParseError):
        load_category_table("program|FAO\nX|1\n")
    with pytest.raises(ParseError):
        load_category_table("program|FAO|PSO|GOV|EFI|TAC|COM\nX|1|2|3|4|5\n")
    with pytest.raises(ParseError):
        load_category_table(
            "program|FAO|PSO|GOV|EFI|TAC|COM\nX|1|2|3|4|5|6\nX|1|2|3|4|5|6\n"
        )
    for bad in ("nan", "inf", "-inf", "0_5"):
        with pytest.raises(ParseError):
            load_category_table(f"program|FAO|PSO|GOV|EFI|TAC|COM\nX|1|2|{bad}|4|5|6\n")
    with pytest.raises(ParseError, match="^category table has no program rows$"):
        load_category_table("program|FAO|PSO|GOV|EFI|TAC|COM\nnote|no rows yet\n")
    # The table is read in one pass, so of several defects the first by
    # line number is reported: the duplicate, not the short row after it.
    with pytest.raises(ParseError, match="^line 3: duplicate program 'X'$"):
        load_category_table(
            "program|FAO|PSO|GOV|EFI|TAC|COM\nX|1|2|3|4|5|6\nX|1|2|3|4|5|6\nY|1\n"
        )


def test_only_a_lower_case_note_row_is_a_note():
    # ``note`` is reserved in lower case; any other first field names a program.
    table = load_category_table(
        "program|FAO|PSO|GOV|EFI|TAC|COM\nX|1|2|3|4|5|6\nNote|2|3|4|5|6|1\nnote|n\n")
    assert list(table.scores) == ["X", "Note"]
    assert table.notes == ("n",)
    with pytest.raises(ParseError, match="^line 2: expected 7 fields$"):
        load_category_table("program|FAO|PSO|GOV|EFI|TAC|COM\nNOTE|free text\n")


# ---------------------------------------------------------------------------
# Record types
# ---------------------------------------------------------------------------


def _record_samples():
    """One record of each engine record class, a field of it and another
    value for that field."""
    schema = builtin_schema()
    definition = schema.get("COM-QN-2")
    value = TypedValue(ValueKind.NUMBER, 3.5, qualifier=Qualifier.APPROX_LOWER_BOUND)
    observation = Observation("COM-QN-2", ">3.5", value)
    audit = AuditRecord("COM-QN-2", ">3.5", 1.0, 4.0, 0.8333, None,
                        Qualifier.APPROX_LOWER_BOUND)
    result = GmiResult("A", {}, {}, 0.0, Stage.EXPERIMENTAL, (audit,))
    criterion = Criterion("governance", Category.GOV, "Governance", "How decisions are made.")
    coverage = CategoryValidation(("COM-QN-2",), (), (), (), 0)
    return [
        (definition, "description", "copy"),
        (Schema((definition,)), "indicators", (schema.get("COM-QN-1"),)),
        (criterion, "name", "Decisions"),
        (RubricTemplate((criterion,)), "criteria", ()),
        (value, "value", 4.0),
        (observation, "raw", "4"),
        (ProgramDataset("A", {"COM-QN-2": observation}, {"governance": 4}), "program", "B"),
        (coverage, "rubric_responses", 1),
        (ValidationReport("A", {Category.COM: coverage}), "program", "B"),
        (Excluded("missing"), "reason", "non-scorable"),
        (audit, "score", 0.5),
        (result, "gmi", 1.0),
        (ScoreMatrix((result,)), "results", ()),
        (CategoryTable({"A": {Category.COM: 1.0}}, ()), "notes", ("a note",)),
    ]


#: Records that hold a dict, so they have never hashed.
_UNHASHABLE = (ProgramDataset, ValidationReport, GmiResult, ScoreMatrix, CategoryTable)


@pytest.mark.parametrize("record,field,other", _record_samples(),
                         ids=[type(sample[0]).__name__ for sample in _record_samples()])
def test_records_are_slotted_values(record, field, other):
    # Only the records with cached_property memos keep an instance dict.
    assert hasattr(record, "__dict__") == isinstance(record, (IndicatorDef, Schema))
    with pytest.raises(AttributeError):
        setattr(record, field, other)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) != other

    changed = record._replace(**{field: other})
    assert type(changed) is type(record) and changed != record
    for name in record._fields:
        if name == field:
            assert getattr(changed, name) == other
        else:
            assert getattr(changed, name) is getattr(record, name)

    assert record == tuple(record) and tuple(record) == record  # tuple equality
    assert repr(record).startswith(f"{type(record).__name__}({record._fields[0]}=")
    copies = (record._replace(), copy.copy(record), copy.deepcopy(record),
              pickle.loads(pickle.dumps(record)))
    for twin in copies:
        assert type(twin) is type(record)
        assert twin == record and twin is not record
        if isinstance(record, _UNHASHABLE):
            with pytest.raises(TypeError):
                hash(twin)
        else:
            assert hash(twin) == hash(record)


def test_copies_of_a_definition_start_with_empty_memos():
    schema = builtin_schema()
    definition = schema.get("COM-QN-2")
    assert definition.parsed_cells == {} and schema.observed_lines == {}
    three = definition.parsed_cells["3"] = TypedValue(ValueKind.NUMBER, 3.0)
    schema.observed_lines["COM-QN-2|3"] = (definition, Observation("COM-QN-2", "3", three))
    assert definition.scorable
    for twin in (definition._replace(), copy.copy(definition), copy.deepcopy(definition),
                 pickle.loads(pickle.dumps(definition))):
        assert twin == definition
        assert twin.parsed_cells == {} and twin.scorable == definition.scorable
    # The line memo lives on the schema, and copies of it start empty too.
    for twin in (schema._replace(), copy.copy(schema), copy.deepcopy(schema),
                 pickle.loads(pickle.dumps(schema))):
        assert twin == schema and twin.observed_lines == {}


def test_schema_copies_rebuild_the_id_map():
    schema = builtin_schema()
    for twin in (schema._replace(), copy.copy(schema), copy.deepcopy(schema),
                 pickle.loads(pickle.dumps(schema))):
        assert twin == schema and twin.get is not schema.get
        assert [twin.get(ind.id) for ind in schema.indicators] == list(schema.indicators)
        assert twin.get("COM-QN-99") is None
    assert repr(Schema(())) == "Schema(indicators=())"


#: Every way to rebuild a record from its fields, given the record, the
#: fields and a twin built from those fields without the constructor.
_REBUILDS = {
    "_replace": lambda record, fields, twin: record._replace(**dict(zip(record._fields, fields))),
    "_make": lambda record, fields, twin: type(record)._make(fields),
    "copy": lambda record, fields, twin: copy.copy(twin),
    "deepcopy": lambda record, fields, twin: copy.deepcopy(twin),
    "pickle": lambda record, fields, twin: pickle.loads(pickle.dumps(twin)),
}


def _rebuild(route, record, field=None, value=None):
    """*record* rebuilt by *route*, with *field* set to *value* if given."""
    fields = [value if name == field else old for name, old in zip(record._fields, record)]
    return _REBUILDS[route](record, fields, tuple.__new__(type(record), fields))


@pytest.mark.parametrize("route", _REBUILDS)
def test_every_rebuild_runs_the_constructor_checks(route):
    with pytest.raises(ValueError, match="not a finite number"):
        _rebuild(route, TypedValue(ValueKind.NUMBER, 3.0), "value", math.inf)
    with pytest.raises(ValueError, match="^number values need a value$"):
        _rebuild(route, TypedValue(ValueKind.NUMBER, 3.0), "value", None)
    # An indicator keeps the direction it is rebuilt with, whichever it is.
    definition = IndicatorDef("COM-QN-2", Category.COM, Kind.QUANTITATIVE, DataType.NUMERIC,
                              "headcount", Direction.LOWER_BETTER, "Applicants")
    for direction in Direction:
        twin = _rebuild(route, definition, "direction", direction)
        assert tuple(twin) == (*definition[:5], direction, "Applicants")

    # Records with memos: every rebuild starts with none of them filled.
    schema = builtin_schema()
    definition = schema.get("COM-QN-2")
    three = definition.parsed_cells["3"] = TypedValue(ValueKind.NUMBER, 3.0)
    schema.observed_lines["COM-QN-2|3"] = (definition, Observation("COM-QN-2", "3", three))
    for record in (definition, schema):
        assert vars(record)
        twin = _rebuild(route, record)
        assert type(twin) is type(record) and twin == record and vars(twin) == {}


def test_record_constructors_bind_fields_like_a_signature():
    table = CategoryTable({}, notes=())
    assert table.notes == () and table == CategoryTable(scores={}, notes=())
    assert repr(Excluded("missing")) == "Excluded(reason='missing')"
    fields = ("governance", Category.GOV, "Governance")
    for bad in (lambda: Criterion(*fields),                       # a field is missing
                lambda: CategoryTable(scores={}),                 # no field has a default
                lambda: Criterion(*fields, "p", "extra"),         # one argument too many
                lambda: Criterion(*fields, "p", id="again"),      # a field given twice
                lambda: Criterion(*fields, prompt="p", colour=1),  # no such field
                lambda: AuditRecord("COM-QN-2", "3", None, None, None, colour=1)):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(ValueError, match="colour"):  # namedtuple's own _replace
        Excluded("missing")._replace(colour=1)


def test_records_are_tuples_that_compare_as_tuples():
    # Two classes with one field each, holding the same value.
    criteria = RubricTemplate(())
    notes = Excluded(())
    assert tuple(criteria) == tuple(notes) == ((),)
    assert criteria == notes and not criteria != notes and hash(criteria) == hash(notes)
    assert criteria == ((),) and ((),) == criteria  # a plain tuple compares too
    audit = AuditRecord("COM-QN-2", ">3.5", 1.0, 4.0, 0.8333, None,
                        Qualifier.APPROX_LOWER_BOUND)
    indicator, raw, minimum, maximum, score, exclusion, qualifier = audit
    assert [indicator, raw, minimum, maximum, score, exclusion, qualifier] == [
        getattr(audit, name) for name in AuditRecord._fields]
    assert audit[AuditRecord._fields.index("score")] is audit.score
    # A parsed value holds what ingest and scoring read, nothing more.
    assert TypedValue._fields == ("kind", "value", "symbol", "unit", "is_code", "qualifier")


def test_category_validation_derives_scorable():
    # Scorability is read from what would score, never stored beside it.
    assert CategoryValidation(("COM-QN-2",), (), (), (), 0).scorable
    assert CategoryValidation((), (), (), (), 2).scorable
    assert not CategoryValidation((), ("COM-QN-1",), ("COM-QN-9",), ("FAO-QN-2",), 0).scorable
    with pytest.raises(TypeError, match="unexpected keyword argument 'scorable'"):
        CategoryValidation((), (), (), (), 0, scorable=True)
    with pytest.raises(TypeError, match="takes 6 positional arguments but 7 were given"):
        CategoryValidation(Category.COM, (), (), (), (), 0)
