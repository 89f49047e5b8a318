"""Shared audit records, the derived score matrix and chunked rendering.

Scoring hands one frozen AuditRecord to every program whose row in a
column is the same observation line, which ingest reads once into one
shared Observation; two different lines get two records even when their
cells are equal.  These tests pin that the sharing never shows in the
output bytes, that it is never coarser than the cell (raw text, column,
sign of zero), that ScoreMatrix's derived maps equal maps built eagerly
here, and that rendering holds little beyond the output itself.
"""

from __future__ import annotations

import importlib.util
import math
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from test_properties import make_instance

from gmi.bundled import bundled_program_paths
from gmi.ingest import load_program_dataset, load_rates, scoring_status
from gmi.report import FORMATS, render_comparison
from gmi.rubric import collect_responses
from gmi.schema import Category, Direction, builtin_schema
from gmi.scoring import Excluded, score_datasets

COHORT_PY = Path(__file__).resolve().parents[1] / "perfbench" / "cohort.py"


def _load_cohort_module():
    spec = importlib.util.spec_from_file_location("gmi_test_cohort", COHORT_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def cohort_300():
    """The benchmark generator's seed-7 cohort of 300 programs, loaded and
    scored with its rates and partial rescaling."""
    cohort = _load_cohort_module().generate(7, 300)
    schema = builtin_schema()
    datasets = [load_program_dataset(p.text, schema) for p in cohort.programs]
    rates = load_rates(cohort.rates_text)
    matrix, results = score_datasets(datasets, schema, rates=rates, allow_partial=True)
    return datasets, schema, rates, matrix, results


def _unshared(results):
    """*results* with every audit record replaced by a private copy."""
    return [r._replace(audit=tuple(a._replace() for a in r.audit)) for r in results]


def _records(result):
    return {rec.indicator: rec for rec in result.audit}


def _score_texts(texts: dict[str, str]):
    schema = builtin_schema()
    datasets = [load_program_dataset(f"program|{name}\n{body}", schema)
                for name, body in texts.items()]
    return score_datasets(datasets, schema, allow_partial=True)[1]


# The byte comparisons hold with or without sharing; the final check fails
# when no record is shared.
def test_sharing_never_changes_the_output_bytes(cohort_300):
    rng = random.Random(20261018)
    cohorts = [cohort_300[4]]
    for _ in range(200):
        _, schema, _, _, _, datasets = make_instance(rng)
        cohorts.append(score_datasets(datasets, schema, allow_partial=True)[1])
    shared = 0
    for results in cohorts:
        records = [rec for r in results for rec in r.audit]
        shared += len(records) - len({id(rec) for rec in records})
        private = _unshared(results)
        for fmt in FORMATS:
            assert render_comparison(results, fmt) == render_comparison(private, fmt), fmt
    assert shared > 0


# Fails when every cell gets its own record.
def test_identical_cells_in_one_column_share_one_record():
    results = _score_texts({
        "A": "FAO-QN-2|$1,000\nFAO-QN-3|$1,000\nFAO-QN-7|Questbook\nCOM-QN-1|5\n",
        "B": "FAO-QN-2|$1,000\nFAO-QN-3|$1000\nFAO-QN-7|Questbook\nCOM-QN-1|5|headcount\n",
        "C": "FAO-QN-2|$1,000\nFAO-QN-3|$5,000\n",
        "D": "FAO-QN-3|$5,000\n",
    })
    a, b, c, d = (_records(r) for r in results)
    # Identical cells: scored, absent, and unscorable ones.
    assert a["FAO-QN-2"] is b["FAO-QN-2"] is c["FAO-QN-2"]
    assert c["FAO-QN-3"] is d["FAO-QN-3"]
    assert a["FAO-QN-7"] is b["FAO-QN-7"]
    # The same value under a different raw text.
    assert a["FAO-QN-3"] is not b["FAO-QN-3"]
    assert a["FAO-QN-3"].score == b["FAO-QN-3"].score
    assert (a["FAO-QN-3"].raw, b["FAO-QN-3"].raw) == ("$1,000", "$1000")
    # The same text in another column.
    assert a["FAO-QN-2"] is not a["FAO-QN-3"]
    assert a["FAO-QN-2"].raw == a["FAO-QN-3"].raw
    # Two different lines with one cell: two records, one printed line.
    assert a["COM-QN-1"] is not b["COM-QN-1"]
    assert a["COM-QN-1"] == b["COM-QN-1"]
    line = b"\naudit|COM-QN-1|5|5.0000|5.0000|score|0.5000|exact\n"
    blocks = render_comparison(results, "structured").split(b"\nprogram|")
    assert [block.count(line) for block in blocks[1:]] == [1, 1, 0, 0]


# 0.0 == -0.0 and both hash alike, yet they render differently: a sharing
# key of value alone would print one program's sign for the other.
def test_signed_zeros_keep_their_own_score_text():
    results = _score_texts({
        "A": "COM-QN-1|0\n", "B": "COM-QN-1|-0\n", "C": "COM-QN-1|5\n",
        "D": "COM-QN-1|0\n", "E": "COM-QN-1|-0\n",
    })
    a, b, _, d, e = (_records(r)["COM-QN-1"] for r in results)
    assert a is d and b is e and a is not b
    rendered = render_comparison(results, "structured")
    assert rendered == render_comparison(_unshared(results), "structured")
    blocks = rendered.decode().split("\nprogram|")[1:]
    lines = {block.split("\n", 1)[0]: block for block in blocks}
    for program, score in (("A", "0.0000"), ("B", "-0.0000"), ("D", "0.0000"),
                           ("E", "-0.0000"), ("C", "1.0000")):
        raw = {"0.0000": "0", "-0.0000": "-0", "1.0000": "5"}[score]
        assert f"audit|COM-QN-1|{raw}|0.0000|5.0000|score|{score}|exact\n" in lines[program]


def _eager_matrix(datasets, schema, rates=None):
    """The matrix's two maps, built column by column with plain loops."""
    entries = {}
    included = {}
    for indicator in dict.fromkeys(i for ds in datasets for i in ds.observations):
        definition = schema.get(indicator)
        cells = {}
        for ds in datasets:
            obs = ds.observations.get(indicator)
            cells[ds.program] = (scoring_status(obs.value, definition, rates)
                                 if obs else (None, "missing"))
        if not definition.scorable:
            for program, (_, reason) in cells.items():
                if reason == "non-scorable":
                    entries[(program, indicator)] = Excluded(reason)
            continue
        present = [v for v, _ in cells.values() if v is not None]
        lo, hi = min(present, default=0.0), max(present, default=0.0)
        for program, (value, reason) in cells.items():
            if value is None:
                entries[(program, indicator)] = Excluded(reason)
                continue
            score = 0.5 if hi <= lo else (value - lo) / (hi - lo)
            if definition.direction is Direction.LOWER_BETTER:
                score = 1.0 - score
            entries[(program, indicator)] = score
            included.setdefault((program, definition.category), []).append(score)
    category_scores = {}
    for ds in datasets:
        grouped = collect_responses(ds.rubric)
        for cat in Category:
            inputs = list(included.get((ds.program, cat), []))
            if grouped.get(cat):
                inputs.append(math.fsum(grouped[cat]) / len(grouped[cat]))
            if inputs:
                category_scores[(ds.program, cat)] = math.fsum(inputs) / len(inputs)
    return entries, category_scores


def _assert_matrix_matches(matrix, datasets, schema, rates=None):
    # Read from the results on each access and never stored, so a caller
    # that never reads it pays nothing.
    assert not hasattr(matrix, "__dict__")
    entries, category_scores = _eager_matrix(datasets, schema, rates)
    assert matrix.entries == entries
    results_category_scores = {(result.program, cat): score for result in matrix.results
                               for cat, score in result.category_scores.items()}
    assert results_category_scores == category_scores
    excluded = [v for v in matrix.entries.values() if isinstance(v, Excluded)]
    assert excluded and len({id(v) for v in excluded}) <= 3  # one per reason
    assert all(type(v) is float for v in matrix.entries.values() if not isinstance(v, Excluded))
    assert all(type(v) is float for v in results_category_scores.values())
    assert [r.program for r in matrix.results] == [ds.program for ds in datasets]


def test_score_matrix_equals_an_eager_reference_on_bundled_data():
    schema = builtin_schema()
    datasets = [load_program_dataset(p.read_bytes(), schema) for p in bundled_program_paths()]
    matrix, _ = score_datasets(datasets, schema, allow_partial=True)
    _assert_matrix_matches(matrix, datasets, schema)


def test_score_matrix_equals_an_eager_reference_on_a_generated_cohort(cohort_300):
    datasets, schema, rates, matrix, _ = cohort_300
    _assert_matrix_matches(matrix, datasets, schema, rates)


# A renderer that holds a list of every line, the joined document and its
# encoding at once peaks at 4-5x the output; chunks joined once stay near 2x.
@pytest.mark.parametrize("fmt", FORMATS)
def test_rendering_peaks_near_the_output_size(cohort_300, fmt):
    results = cohort_300[4]
    tracemalloc.start()
    try:
        out = render_comparison(results, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(out), (peak, len(out), peak / len(out))
