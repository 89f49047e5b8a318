"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import re

import pytest

import run

run._use_checkout()

import cohort  # noqa: E402
import reference  # noqa: E402
from gmi.ingest import load_program_dataset, load_rates, validate_dataset  # noqa: E402
from gmi.schema import builtin_schema  # noqa: E402
from gmi.scoring import score_datasets  # noqa: E402
from tracer import Tracer  # noqa: E402

SCHEMA = builtin_schema()


def test_generator_is_deterministic_per_seed():
    first, again, other = cohort.generate(5, 40), cohort.generate(5, 40), cohort.generate(6, 40)
    assert [p.text for p in first.programs] == [p.text for p in again.programs]
    assert first.rates_text == again.rates_text
    assert [p.text for p in first.programs] != [p.text for p in other.programs]


CELL_FORMS = {
    "money with separators": r"\|\$\d{1,3}(,\d{3})+$",
    "money with suffix": r"\|\$[\d.]+[kKmMbB]$",
    "money with a trailing symbol": r"\|\$\S+ [A-Z]{2,6}$",
    "token amount": r"\|[\d.,]+[kKmMbB]? [A-Z]{2,6}$",
    "ratio": r"\|\d+:[\d,]+$",
    "inline duration": r"\|\d+ (week|month|year)s?$",
    "unit column": r"\|\d+\|(weeks|months|years)$",
    "code": r"\|\d+ \([^)]+\)$",
    "upper bound": r"\|<",
    "lower bound": r"\|>",
    "binary digit": r"^EFI-QN-1\|[01]$",
    "binary word": r"\|(no|yes|No|Yes)$",
    "iso code": r"^EFI-QN-6\|[A-Z]{3}$",
    "jurisdiction": r"\|(Cayman Islands|Singapore|Bermuda)$",
    "text": r"\|(Questbook|Charmverse)$",
    "link": r"\|Link$",
    "missing": r"\|(n\.a\.|N\.A\.)$",
    "tbc": r"\|(tbc|TBC)$",
    "empty": r"-\d+\|$",
    "rubric answer": r"^[a-z-]+\|[1-5]$",
}


def test_generator_covers_the_cell_grammar():
    small = cohort.generate(3, 200)
    text = "".join(p.text for p in small.programs)
    missing = [name for name, form in CELL_FORMS.items()
               if not re.search(form, text, re.MULTILINE)]
    assert missing == []
    assert any(cell.needs_rate for p in small.programs for cell in p.cells.values())
    assert small.rates_text.count("|") == len(cohort.RATES)


def _engine_results(small):
    datasets = [load_program_dataset(p.text.encode(), SCHEMA) for p in small.programs]
    _, results = score_datasets(datasets, SCHEMA, rates=load_rates(small.rates_text),
                                allow_partial=True)
    return datasets, results


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reference_agrees_with_engine_on_small_cohort(seed):
    small = cohort.generate(seed, 60)
    datasets, results = _engine_results(small)
    expected = reference.composites(small)
    assert any(len(r.normalized_category_scores) < 6 for r in results)
    for result in results:
        assert result.gmi == pytest.approx(expected[result.program], abs=1e-9)
        assert result.stage.value == reference.stage_of(expected[result.program])
    verdicts = reference.scorable_categories(small)
    for dataset in datasets:
        report = validate_dataset(dataset, SCHEMA)
        assert {c.code for c, v in report.categories.items() if v.scorable} == \
            verdicts[dataset.program]


def _corrupt(out: bytes) -> bytes:
    """Change the first composite's last digit."""
    head, sep, tail = out.partition(b"\ngmi|")
    digit = tail[5:6]
    return head + sep + tail[:5] + (b"1" if digit != b"1" else b"2") + tail[6:]


def test_checks_reject_corrupted_output(tmp_path):
    op = run.cohort_score_op(4, 30, tmp_path)
    code, out = run.call_main(op.argv)
    assert op.check(code, out)
    assert not op.check(code, _corrupt(out))
    assert not op.check(1, out)

    validate = run.cohort_validate_op(4, 30, tmp_path)
    code, out = run.call_main(validate.argv)
    assert validate.check(code, out)
    assert not validate.check(code, out.replace(b"scorable=yes", b"scorable=NO", 1))

    ops, _ = run._bundled_ops(0)
    for bundled in ops:
        code, out = run.call_main(bundled.argv)
        assert bundled.check(code, out), bundled.name
        assert not bundled.check(code, out[:-2] + b"#\n"), bundled.name


def test_corrupted_output_counts_in_error_rate(tmp_path, monkeypatch):
    op = run.cohort_score_op(4, 30, tmp_path)

    def corrupted_child(argv, workdir):
        code, out = run.call_main(argv)
        return code, _corrupt(out), 0.01, 10.0

    monkeypatch.setattr(run, "run_child", corrupted_child)
    monkeypatch.setattr(run, "_child_seconds", lambda code, workdir: 0.1)
    _, attempted, failed = run.measure_untraced(lambda: [op], 0, tmp_path)
    assert attempted >= 2 and failed == attempted

    real_call_main = run.call_main
    monkeypatch.setattr(run, "call_main",
                        lambda argv: (lambda c, o: (c, _corrupt(o)))(*real_call_main(argv)))
    _, attempted, failed = run.traced_round(Tracer(), [op], 0)
    assert attempted == 2 and failed == 2


def test_self_times_subtract_direct_children_only():
    tracer = Tracer()
    tracer.spans[:] = [("b", 10, 40), ("d", 60, 70), ("c", 50, 90), ("a", 0, 100),
                       ("e", 200, 250)]
    self_s, calls, root_s = tracer.self_times()
    assert {k: round(v * 1e9) for k, v in self_s.items()} == {
        "a": 30, "b": 30, "c": 30, "d": 10, "e": 50}
    assert root_s * 1e9 == pytest.approx(150)
    assert [parent for _, parent, _, _ in tracer.tree()] == [-1, 0, 0, 2, -1]


def test_traced_run_accounts_for_the_wall_time(tmp_path):
    op = run.cohort_score_op(8, 40, tmp_path)
    tracer = Tracer()
    run.install(tracer)
    try:
        start = run.time.perf_counter()
        code, out = run.call_main(op.argv)
        wall = run.time.perf_counter() - start
    finally:
        tracer.unwrap()
    assert op.check(code, out)
    self_s, calls, root_s = tracer.self_times()
    remainder = wall - root_s
    assert all(v >= 0 for v in self_s.values())
    assert 0 <= remainder < 0.05 * wall
    assert sum(self_s.values()) + remainder == pytest.approx(wall, rel=1e-9)
    assert calls["cli.main"] == 1 and calls["scoring.compute_gmi"] == 1
    rows = sum(len(p.cells) for p in cohort.generate(8, 40).programs)
    assert calls["ingest.parse_value"] == rows
    assert calls["ingest.scoring_status"] == rows


def test_wrappers_replace_the_callers_bindings_and_are_removed():
    import gmi.cli
    import gmi.scoring

    originals = (gmi.cli.score_datasets, gmi.scoring.scoring_status, gmi.cli.main)
    tracer = Tracer()
    run.install(tracer)
    try:
        assert gmi.cli.score_datasets is not originals[0]
        assert gmi.scoring.scoring_status is not originals[1]
        assert gmi.cli.score_datasets.__wrapped__ is originals[0]
    finally:
        tracer.unwrap()
    assert (gmi.cli.score_datasets, gmi.scoring.scoring_status, gmi.cli.main) == originals


def test_validation_never_reaches_scoring(tmp_path):
    op = run.cohort_validate_op(9, 40, tmp_path)
    values, attempted, failed = run.traced_round(Tracer(), [op], 0)
    assert failed == 0
    assert all(values[k] == 0 for k in values if k.startswith("scoring."))
    assert values["ingest.parse_value.calls"] > 0


def test_shape_counters_repeat_exactly(tmp_path):
    op = run.cohort_score_op(10, 40, tmp_path)
    first, _, _ = run.traced_round(Tracer(), [op], 0)
    second, _, _ = run.traced_round(Tracer(), [op], 0)
    exact = [k for k in first if not k.endswith("_s")]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["scoring.degenerate_columns"] >= 1  # the constant indicator


def test_outside_checkout_exits_nonzero_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "bundled-cli", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""

