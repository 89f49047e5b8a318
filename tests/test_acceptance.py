"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` reports the same tests silently.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import pytest

from gmi.bundled import bundled_category_table_path, bundled_program_paths
from gmi.cli import main
from gmi.errors import ValueParseError
from gmi.ingest import (
    Qualifier,
    ValueKind,
    load_program_dataset,
    parse_value,
)
from gmi.report import render_comparison
from gmi.rubric import builtin_template, collect_responses, rubric_to_unit
from gmi.schema import Category, builtin_schema
from gmi.scoring import (
    Stage,
    classify_maturity,
    compute_gmi,
    load_category_table,
    score_category_table,
    score_datasets,
)

import test_properties

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCHEMA = builtin_schema()

PUBLISHED_COMPOSITES = {1.1807, 1.8415, 3.2945, 3.9312}
DERIVED_ALIGNMENT = {
    "Mantle": 1.8415,
    "Taiko": 3.2945,
    "Optimism": 3.9312,
    "Arbitrum STIP": 1.1807,
}


def test_criterion_1_composite_reproduction():
    """Feeding the published category rows through compute_gmi reproduces the
    published composite multiset at 1e-3, with the derived alignment, in
    under a second, and the column-order discrepancy is footnoted."""
    table = load_category_table(bundled_category_table_path().read_bytes())
    started = time.perf_counter()
    results = score_category_table(table)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0

    composites = sorted(r.gmi for r in results)
    for got, expected in zip(composites, sorted(PUBLISHED_COMPOSITES)):
        assert got == pytest.approx(expected, abs=1e-3)
    for result in results:
        assert result.gmi == pytest.approx(
            DERIVED_ALIGNMENT[result.program], abs=1e-3
        )

    rendered = render_comparison(results, fmt="table", notes=table.notes).decode()
    assert "different program columns" in rendered
    print("\nACCEPTANCE PASS 1: composite multiset {1.1807, 1.8415, 3.2945, "
          "3.9312} reproduced at 1e-3 with derived alignment, footnoted, <1s")


def test_criterion_2_ingestion_totality():
    """Every cell of the bundled transcription parses without ValueParseError,
    and the spot fixtures hold."""
    total = 0
    for path in bundled_program_paths():
        for line in path.read_text(encoding="utf-8").splitlines():
            stripped = line.strip()
            if not stripped or stripped.startswith("#") or stripped.startswith("program|"):
                continue
            fields = [f.strip() for f in stripped.split("|")]
            definition = SCHEMA.get(fields[0])
            assert definition is not None, fields[0]
            try:
                parse_value(fields[1], definition)
            except ValueParseError as exc:  # pragma: no cover - failure path
                pytest.fail(f"{path.name}: {exc}")
            total += 1
    assert total == 160  # 40 rows x 4 programs

    money = parse_value("$276m", SCHEMA.get("COM-QN-14"))
    assert money.kind is ValueKind.MONEY
    assert money.value == 276_000_000
    assert money.symbol == "USD"

    ratio = parse_value("1:28", SCHEMA.get("TAC-QN-6"))
    assert ratio.value == pytest.approx(0.035714, abs=1e-6)

    assert parse_value("n.a.", SCHEMA.get("COM-AUX-1")).kind is ValueKind.MISSING

    bounded = parse_value("<50K OP", SCHEMA.get("FAO-QN-2"))
    assert bounded.kind is ValueKind.TOKEN_AMOUNT
    assert bounded.value == 50_000
    assert bounded.symbol == "OP"
    assert bounded.qualifier is Qualifier.APPROX_UPPER_BOUND

    print("\nACCEPTANCE PASS 2: all 160 bundled cells parse; money/ratio/"
          "missing/bounded-token fixtures hold")


def test_criterion_3_oracle_equivalence_and_invariants():
    """The published per-category scores are not reproducible (their inputs
    are unpublished); instead the pipeline must match an independently coded
    brute-force oracle to 1e-9 on 1000 randomized instances. The invariant
    suites in test_properties.py cover range, anchors, monotonicity, affine
    invariance, permutation invariance, missing-value locality, additivity
    with ranking invariance, and directional involution."""
    rng = random.Random(424242)
    template = test_properties._survey()
    checked = 0
    for _ in range(1000):
        programs, schema, indicators, values, rubric_answers, datasets = (
            test_properties.make_instance(rng)
        )
        exp_cat, exp_norm, exp_gmi = test_properties.oracle_pipeline(
            programs, indicators, values, rubric_answers
        )
        _, results = score_datasets(
            datasets, schema, template=template, allow_partial=True
        )
        by_program = {r.program: r for r in results}
        assert set(by_program) == set(exp_gmi)
        for p in programs:
            result = by_program[p]
            for cat in Category:
                expected = exp_cat[p].get(cat.code)
                got = result.category_scores.get(cat)
                if expected is None:
                    assert got is None
                else:
                    assert got == pytest.approx(expected, abs=1e-9)
            assert result.gmi == pytest.approx(exp_gmi[p], abs=1e-9)
            for cat, expected in exp_norm[p].items():
                got = result.normalized_category_scores[Category[cat]]
                assert got == pytest.approx(expected, abs=1e-9)
        checked += 1
    assert checked == 1000
    print("\nACCEPTANCE PASS 3: 1000 randomized instances match the "
          "brute-force oracle at 1e-9 (invariant suites in test_properties)")


def test_criterion_4_rubric_anchors_and_count_preservation():
    """rubric_to_unit hits its anchors exactly; grouping preserves answer
    counts on randomized response sets."""
    assert rubric_to_unit(1) == 0.0
    assert rubric_to_unit(3) == 0.5
    assert rubric_to_unit(5) == 1.0

    template = builtin_template()
    ids = [c.id for c in template.criteria]
    rng = random.Random(99)
    for _ in range(500):
        answered = rng.sample(ids, rng.randint(0, len(ids)))
        answers = {cid: rng.randint(1, 5) for cid in answered}
        grouped = collect_responses(template, answers)
        assert sum(len(v) for v in grouped.values()) == len(answers)
    print("\nACCEPTANCE PASS 4: rubric anchors exact (1->0, 3->0.5, 5->1); "
          "500 randomized response sets preserve answer counts")


def test_criterion_5_determinism_and_goldens(tmp_path):
    """cmd_score twice on the bundled dataset is byte-identical, and the
    checked-in golden files match for all three output formats."""
    table_path = str(bundled_category_table_path())
    for fmt in ("table", "delimited", "structured"):
        runs = []
        for i in (1, 2):
            out = tmp_path / f"{fmt}-{i}.txt"
            code = main(["score", table_path, "--mode", "precomputed-categories",
                         "--format", fmt, "--out", str(out)])
            assert code == 0
            runs.append(out.read_bytes())
        assert runs[0] == runs[1]
        golden = (GOLDEN_DIR / f"published_comparison.{fmt}.txt").read_bytes()
        assert runs[0] == golden, f"golden mismatch for format {fmt}"

    raw_out = []
    for i in (1, 2):
        out = tmp_path / f"raw-{i}.txt"
        code = main(["score", *[str(p) for p in bundled_program_paths()],
                     "--allow-partial", "--format", "table", "--out", str(out)])
        assert code == 0
        raw_out.append(out.read_bytes())
    assert raw_out[0] == raw_out[1]
    golden = (GOLDEN_DIR / "raw_partial_comparison.table.txt").read_bytes()
    assert raw_out[0] == golden
    print("\nACCEPTANCE PASS 5: repeated runs byte-identical; goldens match "
          "for table, delimited and structured formats")


def test_criterion_6_stage_classification():
    """The four derived composites classify as Experimental, Foundational
    and twice Developmental under the documented thresholds."""
    expected = {
        1.1807: Stage.EXPERIMENTAL,
        1.8415: Stage.FOUNDATIONAL,
        3.2945: Stage.DEVELOPMENTAL,
        3.9312: Stage.DEVELOPMENTAL,
    }
    for gmi, stage in expected.items():
        assert classify_maturity(gmi) is stage

    table = load_category_table(bundled_category_table_path().read_bytes())
    results = {r.program: r for r in score_category_table(table)}
    assert results["Arbitrum STIP"].stage is Stage.EXPERIMENTAL
    assert results["Mantle"].stage is Stage.FOUNDATIONAL
    assert results["Taiko"].stage is Stage.DEVELOPMENTAL
    assert results["Optimism"].stage is Stage.DEVELOPMENTAL
    print("\nACCEPTANCE PASS 6: composites classify as {Experimental: 1.1807, "
          "Foundational: 1.8415, Developmental: 3.2945, Developmental: 3.9312}")
