"""Self-assessment survey: builtin criteria, response handling, grouping.

The builtin survey is the only rubric.  Its responses are ``criterion-id|score``
rows inside an observation file (``gmi survey template`` prints them blank,
ready to paste in); scores run from 1 (Low) to 5 (High). A blank score means
the criterion was left unanswered and is omitted from the aggregation.

Layer order: this module sits above ``schema`` and below ``ingest``; it owns
the rubric row reader and the 1..5 range check that loading, validation and
scoring all apply.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping

from .errors import ParseError, RubricRangeError, UnknownCriterion
from .schema import Category, Record, read_number

SCALE_MIN = 1
SCALE_MAX = 5
SCALE_ANCHORS = ("Low", "High")


def check_score(score: int, criterion_id: str = "") -> None:
    """Raise RubricRangeError unless *score* lies on the 1..5 scale."""
    if score not in range(SCALE_MIN, SCALE_MAX + 1):
        raise RubricRangeError(score, criterion_id)


def rubric_to_unit(score: int) -> float:
    """Map a 1..5 answer, range-checked by its reader, onto [0, 1]."""
    return (score - 1) / 4


class Criterion(Record, namedtuple("Criterion", ("id", "category", "name", "prompt"))):
    __slots__ = ()
    id: str
    category: Category
    name: str
    prompt: str


class RubricTemplate(Record, namedtuple("RubricTemplate", ("criteria",))):
    __slots__ = ()


_BUILTIN = RubricTemplate((
    Criterion("clarity-of-objectives", Category.GOV, "Clarity of Objectives",
              "How clearly the program's goals are communicated."),
    Criterion("alignment-with-ecosystem-needs", Category.FAO, "Alignment with Ecosystem Needs",
              "The program's ability to address emerging ecosystem needs."),
    Criterion("diversity-of-supported-projects", Category.FAO, "Diversity of Supported Projects",
              "The variety of supported projects across different verticals."),
    Criterion("organizational-clarity", Category.PSO, "Organizational Clarity",
              "The transparency and efficiency of the program's structure."),
    Criterion("governance", Category.GOV, "Governance",
              "The decision-making processes and overall governance structure."),
    Criterion("community-participation-and-engagement", Category.COM,
              "Community Participation and Engagement",
              "How effectively the community is involved in the grant process."),
))

#: The builtin criterion ids, which every rubric answer names.
_BUILTIN_IDS = frozenset(c.id for c in _BUILTIN.criteria)


def builtin_template() -> RubricTemplate:
    """The builtin survey, the only rubric: one object, built at import."""
    return _BUILTIN


def collect_responses(answers: Mapping[str, int]) -> dict[Category, list[float]]:
    """Group unit-interval rubric scores by the criterion's category.

    Each answer must name a builtin criterion and lie on the 1..5 scale.
    Grouping runs in builtin order, so the result is independent of the
    order answers arrive in.
    """
    for criterion_id, score in answers.items():
        if criterion_id not in _BUILTIN_IDS:
            raise UnknownCriterion(criterion_id)
        check_score(score, criterion_id)
    grouped: dict[Category, list[float]] = {}
    for criterion in _BUILTIN.criteria:
        if criterion.id in answers:
            grouped.setdefault(criterion.category, []).append(
                rubric_to_unit(answers[criterion.id])
            )
    return grouped


def render_template() -> str:
    """Blank survey rows for the builtin template, ready to fill offline and
    paste into an observation file."""
    lines = [
        f"# Self-assessment survey: score each criterion from "
        f"{SCALE_MIN} ({SCALE_ANCHORS[0]}) to {SCALE_MAX} ({SCALE_ANCHORS[1]}).",
        "# Leave the score empty to skip a criterion.",
    ]
    for criterion in builtin_template().criteria:
        lines.append(f"# [{criterion.category.code}] {criterion.name}: {criterion.prompt}")
        lines.append(f"{criterion.id}|")
    return "\n".join(lines) + "\n"


def read_answer(fields: list[str]) -> tuple[str, int] | None:
    """One ``criterion-id|score`` row as ``(criterion id, score)``, or None
    for a blank score, which leaves the criterion unanswered.  An answered
    row must name a builtin criterion, so an unknown one fails on its row."""
    if len(fields) != 2:
        raise ParseError("rubric rows have 2 fields")
    criterion_id, score_text = fields
    if not score_text:
        return None
    try:
        score = read_number(score_text, int)
    except ValueError:
        raise ParseError(f"rubric score {score_text!r} is not an integer") from None
    check_score(score, criterion_id)
    if criterion_id not in _BUILTIN_IDS:
        raise UnknownCriterion(criterion_id)
    return criterion_id, score
