"""Self-assessment survey template and response handling."""

from __future__ import annotations

import random

import pytest

from gmi.errors import ParseError, RubricRangeError, UnknownCriterion
from gmi.ingest import load_program_dataset
from gmi.rubric import (
    SCALE_ANCHORS,
    SCALE_MAX,
    SCALE_MIN,
    builtin_template,
    collect_responses,
    render_template,
)
from gmi.schema import Category, builtin_schema


def _answers(rows: str) -> dict[str, int]:
    """The rubric answers of an observation file holding *rows*."""
    return load_program_dataset("program|X\n" + rows, builtin_schema()).rubric


def test_builtin_template_has_six_criteria():
    assert len(builtin_template().criteria) == 6


def test_builtin_template_names():
    names = [c.name for c in builtin_template().criteria]
    assert names == [
        "Clarity of Objectives",
        "Alignment with Ecosystem Needs",
        "Diversity of Supported Projects",
        "Organizational Clarity",
        "Governance",
        "Community Participation and Engagement",
    ]


def test_builtin_template_category_assignments():
    by_name = {c.name: c.category for c in builtin_template().criteria}
    assert by_name["Clarity of Objectives"] is Category.GOV
    assert by_name["Alignment with Ecosystem Needs"] is Category.FAO
    assert by_name["Diversity of Supported Projects"] is Category.FAO
    assert by_name["Organizational Clarity"] is Category.PSO
    assert by_name["Governance"] is Category.GOV
    assert by_name["Community Participation and Engagement"] is Category.COM


def test_scale_anchors():
    assert SCALE_MIN == 1
    assert SCALE_MAX == 5
    assert SCALE_ANCHORS == ("Low", "High")


def test_collect_all_midpoints():
    template = builtin_template()
    answers = {c.id: 3 for c in template.criteria}
    grouped = collect_responses(template, answers)
    assert set(grouped) == {Category.GOV, Category.FAO, Category.PSO, Category.COM}
    for scores in grouped.values():
        assert all(s == 0.5 for s in scores)


def test_collect_single_answer():
    grouped = collect_responses(builtin_template(), {"governance": 5})
    assert grouped == {Category.GOV: [1.0]}


def test_collect_clarity_and_governance():
    grouped = collect_responses(
        builtin_template(), {"clarity-of-objectives": 2, "governance": 4}
    )
    assert grouped == {Category.GOV: [0.25, 0.75]}


def test_collect_rejects_unknown_criterion():
    with pytest.raises(UnknownCriterion):
        collect_responses(builtin_template(), {"velocity": 3})


def test_an_answered_unknown_criterion_is_rejected_on_its_row():
    with pytest.raises(UnknownCriterion, match="^line 3: criterion 'velocity' not present"):
        _answers("governance|4\nvelocity|3\n")
    assert _answers("governance|4\nvelocity|\n") == {"governance": 4}


def test_collect_rejects_out_of_range():
    with pytest.raises(RubricRangeError):
        collect_responses(builtin_template(), {"governance": 0})


def test_collect_preserves_answer_count():
    template = builtin_template()
    rng = random.Random(7)
    ids = [c.id for c in template.criteria]
    for _ in range(200):
        answered = rng.sample(ids, rng.randint(0, len(ids)))
        answers = {cid: rng.randint(1, 5) for cid in answered}
        grouped = collect_responses(template, answers)
        assert sum(len(v) for v in grouped.values()) == len(answers)


def test_collect_is_order_independent():
    template = builtin_template()
    answers = {"governance": 4, "clarity-of-objectives": 2,
               "organizational-clarity": 5}
    shuffled = dict(reversed(list(answers.items())))
    assert collect_responses(template, answers) == collect_responses(template, shuffled)


def test_template_render_is_deterministic():
    assert render_template() == render_template()


def test_template_round_trips_through_responses():
    filled = []
    score = 0
    for line in render_template().splitlines():
        if line.startswith("#") or not line.strip():
            filled.append(line)
        else:
            score = score % 5 + 1
            filled.append(line + str(score))
    answers = _answers("\n".join(filled))
    assert len(answers) == 6
    grouped = collect_responses(builtin_template(), answers)
    assert sum(len(v) for v in grouped.values()) == 6


def test_rubric_rows_skip_blank_scores():
    assert _answers("governance|4\nclarity-of-objectives|\n") == {"governance": 4}


def test_rubric_row_errors():
    with pytest.raises(ParseError):
        _answers("governance|x\n")
    with pytest.raises(RubricRangeError):
        _answers("governance|9\n")
    with pytest.raises(ParseError):
        _answers("governance|4\ngovernance|5\n")
