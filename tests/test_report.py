"""Report rendering: layout, determinism, round-trips, range discipline."""

from __future__ import annotations

import re
import sys

import pytest

from gmi.bundled import bundled_category_table_path, bundled_program_paths
from gmi.errors import ParseError
from gmi.ingest import load_program_dataset, validate_dataset
from gmi.report import parse_structured, render_comparison, render_validation
from gmi.schema import Category, builtin_schema
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


_HEAD = "format|gmi-comparison|1\nprograms|A\nprogram|A\n"
_AUDIT = "audit|COM-QN-1|3|1.0000|4.0000|maybe|0.5000|exact"  # neither score nor excluded


@pytest.mark.parametrize(
    "document, message",
    [
        (_HEAD + "gmi|x\nstage|Experimental\n", "malformed gmi record: 'gmi|x'"),
        (_HEAD + "gmi\nstage|Experimental\n", "malformed gmi record: 'gmi'"),
        (_HEAD + "gmi|1.0000\nstage|Bogus\n", "malformed stage record: 'stage|Bogus'"),
        (_HEAD + "gmi|1.0000\nstage|Experimental\ncategory|FAO|score\n",
         "malformed category record: 'category|FAO|score'"),
        (_HEAD + "stage|Experimental\n", "program 'A' has no gmi record"),
        (_HEAD + "gmi|1.0000\ngmi|2.0000\nstage|Experimental\n", "duplicate gmi record for 'A'"),
        ("format|gmi-table|1\n", "not a structured comparison document"),
        (_HEAD + "gmi|1.0000\nstage|Experimental\nscore|1\n", "unknown record 'score'"),
        ("format|gmi-comparison|1\ngmi|1.0000\n", "record 'gmi' before any program block"),
        (_HEAD + f"gmi|1.0000\nstage|Experimental\n{_AUDIT}\n",
         f"malformed audit record: {_AUDIT!r}"),
        # The renderer writes no non-finite number, no repeated category
        # record and no repeated program.
        (_HEAD + "gmi|nan\nstage|Experimental\n", "malformed gmi record: 'gmi|nan'"),
        (_HEAD + "gmi|1.0000\nstage|Experimental\ncategory|FAO|score|inf\n",
         "malformed category record: 'category|FAO|score|inf'"),
        (_HEAD + "gmi|1.0000\nstage|Experimental\naudit|X|r|nan|inf|score|nan|exact\n",
         "malformed audit record: 'audit|X|r|nan|inf|score|nan|exact'"),
        (_HEAD + "gmi|1.0000\nstage|Experimental\naudit|X|r|1.0000|4.0000|score|-inf|exact\n",
         "malformed audit record: 'audit|X|r|1.0000|4.0000|score|-inf|exact'"),
        (_HEAD + "gmi|1.0000\nstage|Experimental\ncategory|FAO|input|0.5000\n"
         "category|FAO|input|0.7000\n", "duplicate category FAO input record for 'A'"),
        (_HEAD + "gmi|1.0000\nstage|Experimental\nprogram|A\ngmi|2.0000\nstage|Experimental\n",
         "duplicate program 'A'"),
        # Every number is printed to four decimals, a composite lies in
        # [0, 6] and names its own stage, an exclusion has one of three
        # reasons, and the programs record lists the blocks.
        (_HEAD + "gmi|1e3\nstage|Advanced\n", "malformed gmi record: 'gmi|1e3'"),
        (_HEAD + "gmi|1.84150\nstage|Foundational\n", "malformed gmi record: 'gmi|1.84150'"),
        (_HEAD + "gmi|6.0001\nstage|Advanced\n", "malformed gmi record: 'gmi|6.0001'"),
        (_HEAD + "gmi|1.0000\nstage|Experimental\ncategory|FAO|score|1_0\n",
         "malformed category record: 'category|FAO|score|1_0'"),
        (_HEAD + "gmi|1.8415\nstage|Advanced\n",
         "stage Advanced does not match gmi 1.8415 for 'A'"),
        (_HEAD + "gmi|1.0000\nstage|Experimental\naudit|X|r|||excluded|bogus|exact\n",
         "malformed audit record: 'audit|X|r|||excluded|bogus|exact'"),
        ("format|gmi-comparison|1\nprograms|B|A\nprogram|A\ngmi|1.0000\nstage|Experimental\n"
         "program|B\ngmi|2.0000\nstage|Foundational\n",
         "one programs record must name the program blocks in order"),
        ("format|gmi-comparison|1\nprogram|A\ngmi|1.0000\nstage|Experimental\n",
         "one programs record must name the program blocks in order"),
        (_HEAD + "gmi|1.0000\nstage|Experimental\nprograms|A\n",
         "one programs record must name the program blocks in order"),
    ],
    ids=["gmi-not-a-number", "gmi-no-value", "unknown-stage", "category-no-value",
         "no-gmi", "duplicate-gmi", "not-structured", "unknown-record",
         "record-before-program", "audit-mode", "gmi-nan", "category-inf", "audit-bounds-nan",
         "audit-score-inf", "duplicate-category", "duplicate-program", "gmi-exponent",
         "gmi-fifth-decimal", "gmi-above-six", "category-underscore", "stage-of-another-gmi",
         "excluded-bogus", "programs-out-of-order", "no-programs", "programs-after-a-block"],
)
def test_parse_structured_rejects_malformed_documents(document, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_structured(document)


@pytest.mark.parametrize("stage", ["Experimental", "Foundational"])
def test_parse_structured_accepts_every_number_the_renderer_writes(stage):
    # A printed 1.5000 may round a composite on either side of the stage
    # threshold; -0.0000 and a full-length float bound print as themselves.
    top = format(sys.float_info.max, ".4f")
    document = (f"format|gmi-comparison|1\nprograms|A\n\nprogram|A\ngmi|1.5000\nstage|{stage}\n"
                "category|FAO|input|-0.0000\ncategory|FAO|score|0.0000\n"
                f"audit|COM-QN-1|5|-{top}|{top}|score|-0.0000|exact\n"
                "audit|COM-QN-2|n.a.|||excluded|missing|unspecified\n").encode()
    assert render_comparison(parse_structured(document), fmt="structured") == document


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
