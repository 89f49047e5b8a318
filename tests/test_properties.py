"""Property suites and brute-force oracle equivalence for the pipeline.

The oracle below reimplements the whole scoring chain with plain loops and
no shared helpers; the pipeline must match it to 1e-9 on randomized
instances (up to 5 programs, up to 4 indicators per category, random
missing mask, random rubric answers).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gmi.errors import PartialDataError
from gmi.ingest import Observation, ProgramDataset, TypedValue, ValueKind, validate_dataset
from gmi.rubric import builtin_template
from gmi.schema import (
    Category,
    DataType,
    Direction,
    IndicatorDef,
    Kind,
    Schema,
)
from gmi.scoring import (
    compute_gmi,
    directional_score,
    score_datasets,
)
from test_scoring import scale_column

CATS = [cat.code for cat in Category]


# ---------------------------------------------------------------------------
# Brute-force oracle (independent of gmi.scoring)
# ---------------------------------------------------------------------------


def oracle_pipeline(programs, indicators, values, rubric_answers):
    """Straight-line reimplementation: returns (category scores, normalized
    category scores, composites) as plain dicts keyed by program name.

    indicators: list of (indicator_id, category_code, direction) where
    direction is "higher" or "lower".
    values: dict (program, indicator_id) -> float | None.
    rubric_answers: dict (program, category_code) -> list of ints 1..5.
    """
    indicator_scores = {}
    for ind_id, cat, direction in indicators:
        present = {}
        for p in programs:
            v = values.get((p, ind_id))
            if v is not None:
                present[p] = v
        if not present:
            continue
        lo = min(present.values())
        hi = max(present.values())
        for p, v in present.items():
            if hi == lo:
                s = 0.5
            else:
                s = (v - lo) / (hi - lo)
            if direction == "lower":
                s = 1.0 - s
            indicator_scores[(p, ind_id)] = s

    category_scores = {p: {} for p in programs}
    for p in programs:
        for cat in CATS:
            xs = [
                indicator_scores[(p, ind_id)]
                for ind_id, c, _ in indicators
                if c == cat and (p, ind_id) in indicator_scores
            ]
            answers = rubric_answers.get((p, cat))
            if answers:
                units = [(a - 1) / 4 for a in answers]
                xs = xs + [sum(units) / len(units)]
            if xs:
                category_scores[p][cat] = sum(xs) / len(xs)

    normalized = {p: {} for p in programs}
    for cat in CATS:
        present = {p: category_scores[p][cat] for p in programs
                   if cat in category_scores[p]}
        if not present:
            continue
        lo = min(present.values())
        hi = max(present.values())
        for p, v in present.items():
            normalized[p][cat] = 0.5 if hi == lo else (v - lo) / (hi - lo)

    composites = {}
    for p in programs:
        cats = normalized[p]
        if not cats:
            continue
        total = sum(cats.values())
        if len(cats) < 6:
            total *= 6 / len(cats)
        composites[p] = total
    return category_scores, normalized, composites


# ---------------------------------------------------------------------------
# Random instance generation
# ---------------------------------------------------------------------------


def make_instance(rng: random.Random):
    n_programs = rng.randint(1, 5)
    programs = [f"P{i}" for i in range(1, n_programs + 1)]

    indicator_defs = []
    indicators = []
    for cat in Category:
        indicator_defs.append(
            IndicatorDef(f"{cat.code}-QN", cat, Kind.SYNTHETIC, None, "none",
                         Direction.NON_SCORABLE, f"{cat.value} roll-up")
        )
        indicator_defs.append(
            IndicatorDef(f"{cat.code}-QL", cat, Kind.RUBRIC, DataType.NUMERIC,
                         "scoring", Direction.HIGHER_BETTER, "rubric channel")
        )
        for i in range(rng.randint(0, 4)):
            ind_id = f"{cat.code}-QN-{50 + i}"
            direction = rng.choice(["higher", "lower"])
            indicator_defs.append(
                IndicatorDef(
                    ind_id, cat, Kind.QUANTITATIVE, DataType.NUMERIC, "none",
                    Direction.HIGHER_BETTER if direction == "higher"
                    else Direction.LOWER_BETTER,
                    "generated",
                )
            )
            indicators.append((ind_id, cat.code, direction))

    schema = Schema(indicators=tuple(indicator_defs))
    schema.validate()

    values = {}
    for ind_id, _, _ in indicators:
        for p in programs:
            if rng.random() < 0.25:
                values[(p, ind_id)] = None
            else:
                values[(p, ind_id)] = rng.uniform(-100.0, 100.0)

    # answers to the builtin survey, in its order: FAO and GOV can carry
    # two, and EFI and TAC, which no criterion serves, none
    criteria = builtin_template().criteria
    rubric_answers = {}
    per_program_rubric = {p: {} for p in programs}
    for p in programs:
        for criterion in criteria:
            if rng.random() < 0.4:
                answer = rng.randint(1, 5)
                rubric_answers.setdefault((p, criterion.category.code), []).append(answer)
                per_program_rubric[p][criterion.id] = answer

    # every program needs at least one category input
    for p in programs:
        has_value = any(
            values.get((p, ind_id)) is not None for ind_id, _, _ in indicators
        )
        if not has_value and not per_program_rubric[p]:
            criterion = rng.choice(criteria)
            answer = rng.randint(1, 5)
            rubric_answers[(p, criterion.category.code)] = [answer]
            per_program_rubric[p][criterion.id] = answer

    datasets = []
    for p in programs:
        observations = {}
        for ind_id, _, _ in indicators:
            v = values.get((p, ind_id))
            if v is not None:
                observations[ind_id] = Observation(ind_id, raw=repr(v),
                                                   value=TypedValue(ValueKind.NUMBER, v))
        datasets.append(ProgramDataset(program=p, observations=observations,
                                       rubric=per_program_rubric[p]))
    return programs, schema, indicators, values, rubric_answers, datasets


def test_pipeline_matches_brute_force_oracle():
    rng = random.Random(20240917)
    for _ in range(1000):
        programs, schema, indicators, values, rubric_answers, datasets = (
            make_instance(rng)
        )
        exp_cat, exp_norm, exp_gmi = oracle_pipeline(
            programs, indicators, values, rubric_answers
        )
        _, results = score_datasets(datasets, schema, allow_partial=True)
        by_program = {r.program: r for r in results}
        assert set(by_program) == set(exp_gmi)
        for p in programs:
            for cat in Category:
                expected = exp_cat[p].get(cat.code)
                got = by_program[p].category_scores.get(cat) if p in by_program else None
                if expected is None:
                    assert got is None
                else:
                    assert got == pytest.approx(expected, abs=1e-9)
            if p in exp_gmi:
                result = by_program[p]
                assert result.gmi == pytest.approx(exp_gmi[p], abs=1e-9)
                for cat in Category:
                    expected = exp_norm[p].get(cat.code)
                    got = result.normalized_category_scores.get(cat)
                    if expected is None:
                        assert got is None
                    else:
                        assert got == pytest.approx(expected, abs=1e-9)


def test_validate_predicts_partial_data_error():
    rng = random.Random(20241018)
    for _ in range(300):
        _, schema, _, _, _, datasets = make_instance(rng)
        unscorable = [
            (ds.program, cat.code)
            for ds in datasets
            for cat in validate_dataset(ds, schema).unscorable_categories()
        ]
        try:
            score_datasets(datasets, schema, allow_partial=False)
        except PartialDataError as exc:
            assert exc.missing == unscorable
        else:
            assert unscorable == []


# ---------------------------------------------------------------------------
# Invariant suites
# ---------------------------------------------------------------------------

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
value_maps = st.dictionaries(
    st.text(st.characters(whitelist_categories=("Lu",)), min_size=1, max_size=4),
    st.one_of(st.none(), finite_floats),
    min_size=1, max_size=8,
)


@given(value_maps)
def test_minmax_range_and_anchors(values):
    out = scale_column(values)
    present = {p: v for p, v in values.items() if v is not None}
    for program, value in values.items():
        if value is None:
            assert out[program] is None
        else:
            assert 0.0 <= out[program] <= 1.0
    if len(set(present.values())) >= 2:
        lo = min(present, key=present.get)
        hi = max(present, key=present.get)
        assert out[lo] == 0.0
        assert out[hi] == 1.0


@given(value_maps)
def test_minmax_monotone(values):
    out = scale_column(values)
    present = sorted(
        ((v, p) for p, v in values.items() if v is not None), key=lambda t: t[0]
    )
    for (v1, p1), (v2, p2) in zip(present, present[1:]):
        assert out[p1] <= out[p2]


@given(
    st.dictionaries(st.integers(0, 9).map("P{}".format),
                    st.floats(min_value=-1000.0, max_value=1000.0,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=8),
    st.floats(min_value=0.5, max_value=2.0, allow_nan=False),
    st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False),
)
def test_minmax_affine_invariance(values, a, b):
    # keep the spread representable after the affine map, otherwise float
    # absorption turns a non-degenerate column into a degenerate one
    spread = max(values.values()) - min(values.values())
    assume(spread == 0.0 or spread > 1.0)
    base = scale_column(values)
    scaled = scale_column({p: a * v + b for p, v in values.items()})
    for program in values:
        assert scaled[program] == pytest.approx(base[program], abs=1e-9)


@given(st.permutations(list(range(4))), st.randoms(use_true_random=False))
def test_permutation_invariance(order, rnd):
    names = ["W", "X", "Y", "Z"]
    scores = {
        name: {cat: rnd.uniform(0, 10) for cat in Category} for name in names
    }
    base = compute_gmi(scores)
    shuffled = {names[i]: scores[names[i]] for i in order}
    permuted = compute_gmi(shuffled)
    for name in names:
        assert permuted[name].gmi == pytest.approx(base[name].gmi, abs=0)
        assert permuted[name].normalized_category_scores == (
            base[name].normalized_category_scores
        )


@given(st.randoms(use_true_random=False))
@settings(max_examples=50)
def test_missing_value_locality(rnd):
    programs = [f"P{i}" for i in range(4)]
    values = {p: rnd.uniform(0, 100) for p in programs}
    ordered = sorted(programs, key=values.get)
    interior = ordered[1:-1]
    if not interior or values[ordered[0]] == values[ordered[-1]]:
        return
    victim = rnd.choice(interior)
    if values[victim] in (values[ordered[0]], values[ordered[-1]]):
        return
    base = scale_column(values)
    masked = scale_column({p: (None if p == victim else v)
                               for p, v in values.items()})
    for p in programs:
        if p != victim:
            assert masked[p] == base[p]
    assert masked[victim] is None


def _check_additivity_and_ranking(scores, weight):
    programs = list(scores)
    results = compute_gmi(scores)
    for result in results.values():
        assert result.gmi == pytest.approx(
            sum(result.normalized_category_scores.values()), abs=1e-12
        )
        assert 0.0 <= result.gmi <= 6.0
    plain = sorted(programs, key=lambda p: (results[p].gmi, p))
    weighted = sorted(
        programs,
        key=lambda p: (sum(weight * v for v in
                           results[p].normalized_category_scores.values()), p),
    )
    assert plain == weighted


# Scaling by a power of two is exact, so every partial sum of the weighted
# scores is the weight times the plain one and ties stay ties.  Another
# weight, such as 0.05, can round two tied sums apart.
_WEIGHTS = st.integers(min_value=-6, max_value=6).map(lambda k: 2.0 ** k)


@given(st.randoms(use_true_random=False), _WEIGHTS)
@settings(max_examples=100)
def test_additivity_and_ranking_invariance(rnd, weight):
    programs = [f"P{i}" for i in range(rnd.randint(2, 5))]
    _check_additivity_and_ranking(
        {p: {cat: rnd.uniform(0, 10) for cat in Category} for p in programs}, weight)


@pytest.mark.parametrize("exponent", range(-6, 7))
def test_ranking_invariance_keeps_a_tie(exponent):
    # Both composites are exactly 3.0: the normalized categories read
    # 0.5, 0.5, 0.5, 0, 0.5, 1 and 0.5, 0.5, 0.5, 1, 0.5, 0.
    rows = {"P0": (1, 1, 1, 0, 1, 1), "P1": (1, 1, 1, 1, 1, 0)}
    scores = {p: dict(zip(Category, row)) for p, row in rows.items()}
    assert {r.gmi for r in compute_gmi(scores).values()} == {3.0}
    _check_additivity_and_ranking(scores, 2.0 ** exponent)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_directional_involution(x):
    flipped = directional_score(x, Direction.LOWER_BETTER)
    assert directional_score(flipped, Direction.LOWER_BETTER) == pytest.approx(
        x, abs=1e-12
    )
    assert directional_score(x, Direction.HIGHER_BETTER) == x


@given(st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_pipeline_outputs_stay_in_range(rnd):
    rng = random.Random(rnd.randint(0, 2**32))
    _, schema, _, _, _, datasets = make_instance(rng)
    _, results = score_datasets(datasets, schema, allow_partial=True)
    for result in results:
        assert 0.0 <= result.gmi <= 6.0 + 1e-9
        for value in result.normalized_category_scores.values():
            assert 0.0 <= value <= 1.0
