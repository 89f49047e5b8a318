"""Report rendering: layout, determinism, round-trips, range discipline."""

from __future__ import annotations

import functools
import gc
import re
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_sharing import _load_cohort_module

from gmi.bundled import bundled_category_table_path, bundled_program_paths
from gmi.errors import ParseError
from gmi.ingest import EXCLUSION_REASONS, load_program_dataset, load_rates, validate_dataset
from gmi.report import parse_structured, render_comparison, render_validation
from gmi.schema import Category, builtin_schema, read_lines
from gmi.scoring import (
    compute_gmi,
    load_category_table,
    score_category_table,
    score_datasets,
)

SCHEMA = builtin_schema()


def _published_results():
    table = load_category_table(bundled_category_table_path().read_bytes())
    return score_category_table(table), table.notes


def test_comparison_rows_follow_fixed_order():
    results, notes = _published_results()
    rendered = render_comparison(results, fmt="delimited", notes=notes).decode()
    lines = rendered.splitlines()
    assert lines[0].startswith("ID|Mantle|Taiko|Optimism|Arbitrum STIP")
    row_labels = [ln.split("|")[0] for ln in lines[1:8]]
    assert row_labels == ["GMI", "FAO", "PSO", "GOV", "EFI", "TAC", "COM"]


def test_comparison_contains_published_composites():
    results, notes = _published_results()
    rendered = render_comparison(results, fmt="table", notes=notes).decode()
    gmi_line = next(ln for ln in rendered.splitlines() if ln.startswith("GMI"))
    for expected in ("1.8415", "3.2945", "1.1807"):
        assert expected in gmi_line


def test_comparison_footnote_documents_column_alignment():
    results, notes = _published_results()
    rendered = render_comparison(results, fmt="table", notes=notes).decode()
    assert "different program columns" in rendered


def test_single_program_composite_is_neutral():
    results = compute_gmi({"Solo": {cat: 1.0 for cat in Category}})
    rendered = render_comparison(list(results.values()), fmt="table").decode()
    gmi_line = next(ln for ln in rendered.splitlines() if ln.startswith("GMI"))
    assert "3.0000" in gmi_line


def test_rendering_is_byte_deterministic():
    results, notes = _published_results()
    for fmt in ("table", "delimited", "structured"):
        first = render_comparison(results, fmt=fmt, notes=notes)
        second = render_comparison(results, fmt=fmt, notes=notes)
        assert first == second


def test_unknown_format_rejected():
    results, _ = _published_results()
    with pytest.raises(ValueError):
        render_comparison(results, fmt="xml")


@pytest.mark.parametrize("fmt", ["table", "delimited"])
def test_table_formats_reject_an_empty_result_list(fmt):
    with pytest.raises(ValueError, match="at least one result"):
        render_comparison([], fmt=fmt)


def test_structured_round_trip():
    results, notes = _published_results()
    parsed = parse_structured(render_comparison(results, fmt="structured", notes=notes))
    assert [r.program for r in parsed] == [r.program for r in results]
    for original, rebuilt in zip(results, parsed):
        assert rebuilt.gmi == pytest.approx(original.gmi, abs=5e-5)
        assert rebuilt.stage is original.stage
        for cat in Category:
            assert rebuilt.category_scores[cat] == pytest.approx(
                original.category_scores[cat], abs=5e-5
            )
            assert rebuilt.normalized_category_scores[cat] == pytest.approx(
                original.normalized_category_scores[cat], abs=5e-5
            )
        assert len(rebuilt.audit) == len(original.audit)
        for rec_a, rec_b in zip(original.audit, rebuilt.audit):
            assert rec_a.indicator == rec_b.indicator
            assert rec_a.raw == rec_b.raw
            assert rec_a.exclusion == rec_b.exclusion
            assert rec_a.qualifier == rec_b.qualifier


def _raw_results():
    datasets = [
        load_program_dataset(p.read_bytes(), SCHEMA) for p in bundled_program_paths()
    ]
    _, results = score_datasets(datasets, SCHEMA, allow_partial=True)
    return datasets, results


def _section(rendered: str, title: str) -> list[str]:
    """Lines of one table-format appendix, without its header."""
    body = rendered.split(f"\n{title}:\n")[1].split("\n\n")[0]
    return [ln for ln in body.splitlines() if ln.strip() != "(none)"]


def test_comparison_lists_token_unconverted_budget():
    _, results = _raw_results()
    rendered = render_comparison(results).decode()
    exclusions = _section(rendered, "Exclusions")
    assert "  Arbitrum STIP | COM-QN-14 | 71.4M ARB | token-unconverted" in exclusions


def test_comparison_exclusion_count_matches_audit():
    _, results = _raw_results()
    rendered = render_comparison(results).decode()
    listed = _section(rendered, "Exclusions")
    expected = [rec for result in results for rec in result.audit if rec.exclusion is not None]
    assert len(listed) == len(expected) > 0


def test_qualifier_footnotes_only_for_scored_values():
    _, results = _raw_results()
    # Arbitrum's bounded program age scored at face value, so it is footnoted.
    arbitrum = next(r for r in results if r.program == "Arbitrum STIP")
    rendered = render_comparison([arbitrum])
    assert (b"Arbitrum STIP COM-QN-11 '<1 year' scored at face value "
            b"(approximate-upper-bound)") in rendered
    # Optimism's bounded minimum grant size was excluded (unconverted token),
    # so no face-value footnote appears.
    optimism = next(r for r in results if r.program == "Optimism")
    rendered = render_comparison([optimism])
    assert b"Optimism FAO-QN-2 '<50K OP' excluded" in rendered
    assert b"scored at face value" not in rendered


def test_validation_rendering_names_unscorable_categories():
    datasets, _ = _raw_results()
    rendered = render_validation(validate_dataset(datasets[3], SCHEMA)).decode()
    assert "unscorable categories: GOV, TAC" in rendered


_NUMBER = re.compile(r"\d+\.\d{4}")


def test_reported_scores_stay_in_documented_ranges():
    results, notes = _published_results()
    rendered = render_comparison(results, fmt="delimited", notes=notes).decode()
    for line in rendered.splitlines():
        label = line.split("|")[0]
        if label == "GMI":
            values = [float(tok) for tok in _NUMBER.findall(line)]
            assert all(0.0 <= v <= 6.0 for v in values)
        elif label in {cat.code for cat in Category}:
            values = [float(tok) for tok in _NUMBER.findall(line)]
            assert all(0.0 <= v <= 1.0 for v in values)


_RAW = (Path(__file__).resolve().parent / "golden" /
        "raw_partial_comparison.structured.txt").read_text(encoding="utf-8")
_NOT_WRITTEN = "not as the renderer writes it"
_TAIKO_AUDIT = "audit|COM-QN-1|118,300|15.0000|118300.0000|score|1.0000|exact"  # line 17
_TAIKO_MISSING = "audit|COM-AUX-1|n.a.|30.5000|111.0000|excluded|missing|unspecified"  # line 19
#: A document whose one block has a composite and no category score.
_LONE_BLOCK = "format|gmi-comparison|1\nprograms|A\n\nprogram|A\ngmi|{}\nstage|Advanced\n"


def _edited(edits: dict[int, str | None]) -> str:
    """The raw structured golden with its line N replaced by ``edits[N]``,
    which may hold several lines, or deleted where that is None."""
    lines: list[str | None] = _RAW.split("\n")[:-1]
    for number, line in edits.items():
        lines[number - 1] = line
    return "".join(f"{line}\n" for line in lines if line is not None)


# Each document is the raw golden, which the renderer wrote, with one field
# edited, unless a row says otherwise.  Lines 1-2 are the head, line 3 is
# blank, and Taiko's block runs from line 4 (program) through 5 (gmi), 6
# (stage) and 7-16 (categories, input before score, FAO first) to its audit
# records on lines 17-62; Mantle's block starts on line 64.
@pytest.mark.parametrize(
    "edits, message",
    [
        ({5: "gmi|x"}, f"line 5: {_NOT_WRITTEN}"),
        ({5: "gmi"}, f"line 5: {_NOT_WRITTEN}"),
        ({6: "stage|Bogus"}, f"line 6: {_NOT_WRITTEN}"),
        ({8: "category|FAO|score"}, f"line 8: {_NOT_WRITTEN}"),
        ({5: None}, f"line 5: {_NOT_WRITTEN}"),  # a record, not a field, deleted
        ({5: "gmi|3.6000\ngmi|3.6000"}, f"line 6: {_NOT_WRITTEN}"),  # a record repeated
        ({1: "format|gmi-table|1"}, f"line 1: {_NOT_WRITTEN}"),
        ({17: "score|1.0000"}, f"line 17: {_NOT_WRITTEN}"),
        ({3: "gmi|3.6000\n"}, f"line 3: {_NOT_WRITTEN}"),  # a record inserted
        ({17: _TAIKO_AUDIT.replace("|score|", "|maybe|")}, f"line 17: {_NOT_WRITTEN}"),
        # The engine writes no non-finite number and no repeated category.
        ({5: "gmi|nan"}, f"line 5: {_NOT_WRITTEN}"),
        ({8: "category|FAO|score|inf"}, f"line 8: {_NOT_WRITTEN}"),
        ({17: _TAIKO_AUDIT.replace("|15.0000|", "|nan|")}, f"line 17: {_NOT_WRITTEN}"),
        ({17: _TAIKO_AUDIT.replace("|score|1.0000|", "|score|-inf|")},
         f"line 17: {_NOT_WRITTEN}"),
        ({8: "category|FAO|score|1.0000\ncategory|FAO|score|1.0000"},
         f"line 9: {_NOT_WRITTEN}"),  # a record repeated
        # Two fields edited; the document renders to itself.
        ({2: "programs|Taiko|Taiko|Arbitrum STIP|Optimism", 64: "program|Taiko"},
         "line 64: program 'Taiko' repeats"),
        # A number is written to four decimals, scores lie in [0, 1] and a
        # composite in [0, 6], and it has its own stage.
        ({5: "gmi|36e-1"}, f"line 5: {_NOT_WRITTEN}"),
        ({5: "gmi|3.60000"}, f"line 5: {_NOT_WRITTEN}"),
        # A lone block that renders to itself, with no category score.
        (_LONE_BLOCK.format("6.0001"), f"line 5: {_NOT_WRITTEN}"),
        (_LONE_BLOCK.format("6.0000"), "line 5: gmi is not its categories' rescaled sum"),
        ({8: "category|FAO|score|1_0"}, f"line 8: {_NOT_WRITTEN}"),
        ({8: "category|FAO|score|7.0000"}, f"line 8: {_NOT_WRITTEN}"),
        ({17: _TAIKO_AUDIT.replace("|score|1.0000|", "|score|9.0000|")},
         f"line 17: {_NOT_WRITTEN}"),
        ({6: "stage|Advanced"}, "line 6: stage is not the stage of gmi"),
        # Renders to itself; the engine knows three exclusion reasons.
        ({19: _TAIKO_MISSING.replace("|missing|", "|bogus|")}, f"line 19: {_NOT_WRITTEN}"),
        ({2: "programs|Mantle|Taiko|Arbitrum STIP|Optimism"}, f"line 2: {_NOT_WRITTEN}"),
        ({2: None}, f"line 2: {_NOT_WRITTEN}"),  # a record deleted
        ({63: "programs|Taiko|Mantle|Arbitrum STIP|Optimism\n"},
         f"line 63: {_NOT_WRITTEN}"),  # a record inserted
        # The version, the field count and the category order are as
        # written, and a composite is its categories' sum × 6 / present.
        ({1: "format|gmi-comparison|7"}, f"line 1: {_NOT_WRITTEN}"),
        ({1: "format|gmi-comparison|1|x"}, f"line 1: {_NOT_WRITTEN}"),
        ({7: "category|PSO|input|0.7500", 8: "category|PSO|score|1.0000",
          9: "category|FAO|input|0.9000", 10: "category|FAO|score|1.0000"},
         f"line 7: {_NOT_WRITTEN}"),  # two records swapped
        ({5: "gmi|2.0000", 6: "stage|Foundational"},
         "line 5: gmi is not its categories' rescaled sum"),
        ({5: "gmi|3.6005"}, "line 5: gmi is not its categories' rescaled sum"),
    ],
    ids=["gmi-not-a-number", "gmi-no-value", "unknown-stage", "category-no-value",
         "no-gmi", "duplicate-gmi", "not-structured", "unknown-record",
         "record-before-program", "audit-mode", "gmi-nan", "category-inf", "audit-bounds-nan",
         "audit-score-inf", "duplicate-category", "duplicate-program", "gmi-exponent",
         "gmi-fifth-decimal", "gmi-above-six", "no-category-score", "category-underscore",
         "category-score-above-one", "audit-score-above-one", "stage-of-another-gmi",
         "excluded-bogus", "programs-out-of-order", "no-programs", "programs-after-a-block",
         "format-version", "format-extra-field", "categories-out-of-order",
         "gmi-not-its-sum", "gmi-5e-4-off-its-sum"],
)
def test_parse_structured_rejects_malformed_documents(edits, message):
    document = edits if isinstance(edits, str) else _edited(edits)
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_structured(document)


def test_parse_structured_accepts_a_composite_within_its_roundings():
    # Five printed scores and the composite each round by up to 5e-5.
    document = _edited({5: "gmi|3.6004"})
    assert render_comparison(parse_structured(document), fmt="structured") == document.encode()


@pytest.mark.parametrize("stage", ["Experimental", "Foundational"])
def test_parse_structured_accepts_every_number_the_renderer_writes(stage):
    # A printed 1.5000 may round a composite on either side of the stage
    # threshold; -0.0000 and a full-length float bound print as themselves.
    top = format(sys.float_info.max, ".4f")
    document = (f"format|gmi-comparison|1\nprograms|A\n\nprogram|A\ngmi|1.5000\nstage|{stage}\n"
                "category|FAO|input|-0.0000\ncategory|FAO|score|0.2500\n"
                f"audit|COM-QN-1|5|-{top}|{top}|score|-0.0000|exact\n"
                "audit|COM-QN-2|n.a.|||excluded|missing|unspecified\n").encode()
    assert render_comparison(parse_structured(document), fmt="structured") == document


@functools.lru_cache(maxsize=None)
def _cohort_document(seed: int, count: int) -> str:
    """The structured comparison of the benchmark generator's cohort, scored
    with its rates and partial rescaling."""
    cohort = _load_cohort_module().generate(seed, count)
    datasets = [load_program_dataset(program.text, SCHEMA) for program in cohort.programs]
    results = score_datasets(datasets, SCHEMA, load_rates(cohort.rates_text),
                             allow_partial=True)[1]
    return render_comparison(results, fmt="structured").decode("utf-8")


def _nudged(text: str, step: float) -> str:
    try:
        return format(float(text) + step, ".4f")
    except ValueError:
        return text


@st.composite
def _edited_documents(draw) -> str:
    """A rendered document with one field of one record replaced by another
    record's field, the field's number ±1e-4, ``nan`` or nothing."""
    seed = draw(st.one_of(st.none(), st.integers(0, 3)))
    document = _RAW if seed is None else _cohort_document(seed, draw(st.integers(2, 8)))
    lines = document.split("\n")
    records = [at for at, line in enumerate(lines) if line]
    edited = draw(st.sampled_from(records))
    fields = lines[edited].split("|")
    at = draw(st.integers(0, len(fields) - 1))
    donor = lines[draw(st.sampled_from(records))].split("|")
    fields[at] = draw(st.one_of(st.sampled_from(donor), st.sampled_from(("nan", "")),
                                st.sampled_from((-1e-4, 1e-4)).map(
                                    functools.partial(_nudged, fields[at]))))
    lines[edited] = "|".join(fields)
    return "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(_edited_documents())
# Each of these renders to itself, yet holds what the engine never writes.
@example(_edited({19: _TAIKO_MISSING.replace("|missing|", "|bogus|")}))
@example(_edited({2: "programs|Taiko|Taiko|Arbitrum STIP|Optimism", 64: "program|Taiko"}))
@example(_LONE_BLOCK.format("6.0001"))
def test_an_edited_document_is_rejected_or_renders_to_itself(document):
    try:
        results = parse_structured(document)
    except ParseError:
        return
    assert render_comparison(results, fmt="structured") == document.encode("utf-8")
    # What no rendering shows holds as the engine writes it.
    assert len({r.program for r in results}) == len(results)
    for r in results:
        scores = r.normalized_category_scores
        assert scores and abs(sum(scores.values()) * 6 / len(scores) - r.gmi) <= 4e-4
        assert 0 <= r.gmi <= 6 and all(0 <= score <= 1 for score in scores.values())
        assert all(rec.exclusion in (None, *EXCLUSION_REASONS) for rec in r.audit)


def _traced(function, argument):
    """*function*(*argument*) with tracemalloc's peak during the call and
    the memory its result still holds, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = function(argument)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, held - before


@pytest.mark.parametrize("document", ["raw-golden", "cohort"])
def test_every_missing_audit_record_is_unspecified(document):
    # A program without a cell, in an indicator column or a category
    # column, gets one absent record, whose qualifier is that of a missing
    # value.
    text = _RAW if document == "raw-golden" else _cohort_document(1, 200)
    missing = [line for line in text.splitlines() if "|excluded|missing|" in line]
    assert {bool(re.fullmatch(r"audit\|[A-Z]{3}-QN\|.*", line)) for line in missing} == \
        {True, False}  # category records and indicator records both
    assert [line for line in missing if not line.endswith("|unspecified")] == []


def test_parse_structured_holds_at_most_one_block_beyond_its_lines():
    # The reader keeps the document's lines and its results; it renders one
    # block at a time to compare, so its working memory stays below what
    # read_lines itself takes on the way to those lines.  A cache of every
    # rendered line, or a whole rendered document, would exceed it.
    document = _cohort_document(1, 200).encode("utf-8")
    _, lines_peak, _ = _traced(read_lines, document)
    results, peak, held = _traced(parse_structured, document)
    assert len(results) == 200
    assert peak - held <= 1.1 * lines_peak, (peak - held, lines_peak)


def test_structured_bounds_keep_the_sign_of_zero(tmp_path, capsys):
    # A column's minimum of -0.0 and another's of 0.0 compare equal as
    # floats but must print as written.
    from gmi.cli import main

    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("program|A\nCOM-QN-13|-0\nCOM-QN-2|0\n", encoding="utf-8")
    b.write_text("program|B\nCOM-QN-13|5\nCOM-QN-2|5\n", encoding="utf-8")
    code = main(["score", str(a), str(b), "--allow-partial", "--format", "structured"])
    out = capsys.readouterr().out
    assert code == 0
    minima = {
        fields[1]: fields[3]
        for fields in (line.split("|") for line in out.splitlines())
        if fields[0] == "audit"
    }
    assert minima["COM-QN-13"] == "-0.0000"
    assert minima["COM-QN-2"] == "0.0000"


def test_structured_audit_lines_follow_each_record_not_its_value():
    # Two records equal as values may differ in the sign of a zero, which
    # the structured format prints: each record gets its own line.
    _, results = _raw_results()
    rec = results[0].audit[0]
    negative, positive = rec._replace(minimum=-0.0), rec._replace(minimum=0.0)
    assert negative == positive and hash(negative) == hash(positive)
    doctored = [results[0]._replace(audit=(negative, positive)),
                results[1]._replace(audit=(positive, negative))]
    document = render_comparison(doctored, fmt="structured").decode("utf-8")
    minima = [line.split("|")[3] for line in document.splitlines() if line.startswith("audit|")]
    assert minima == ["-0.0000", "0.0000", "0.0000", "-0.0000"]


@pytest.mark.parametrize("separator", ["\x85", "\u2028", "\x1e"], ids=["NEL", "LS", "RS"])
def test_structured_round_trip_keeps_line_separators_inside_cells(separator):
    schema = builtin_schema()
    datasets = [
        load_program_dataset(f"program|{name}\nFAO-QN-7|Grants{separator}{name}\n"
                             f"COM-QN-1|{count}\n", schema)
        for name, count in (("A", 3), ("B", 5))
    ]
    results = score_datasets(datasets, schema, allow_partial=True)[1]
    document = render_comparison(results, fmt="structured")
    parsed = parse_structured(document)
    assert [[rec.raw for rec in r.audit] for r in parsed] == \
        [[rec.raw for rec in r.audit] for r in results]
    assert parsed[0].audit[0].raw == f"Grants{separator}A"
    assert render_comparison(parsed, fmt="structured") == document
