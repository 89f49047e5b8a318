"""Self-assessment survey: builtin criteria, response handling, grouping.

Response files are pipe-delimited ``criterion-id|score`` lines; scores run
from 1 (Low) to 5 (High). A blank score means the criterion was left
unanswered and is simply omitted from the aggregation. Observation files
carry the same rows, read by the same function.

Layer order: this module sits above ``schema`` and below ``ingest``; it owns
the rubric row reader and the 1..5 range check that loading, validation and
scoring all apply.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import ParseError, RubricRangeError, UnknownCriterion
from .schema import Category, Record, read_records, set_field

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: start-up does not import typing
    from typing import IO

SCALE_MIN = 1
SCALE_MAX = 5
SCALE_ANCHORS = ("Low", "High")


def check_score(score: int, criterion_id: str = "") -> int:
    """Return *score* if it lies on the 1..5 scale, else raise RubricRangeError."""
    if score not in range(SCALE_MIN, SCALE_MAX + 1):
        raise RubricRangeError(score, criterion_id)
    return score


def rubric_to_unit(score: int) -> float:
    """Map a 1..5 self-assessment answer onto [0, 1]."""
    return (check_score(score) - 1) / 4


class Criterion(Record):
    __slots__ = _fields = ("id", "category", "name", "prompt")
    id: str
    category: Category
    name: str
    prompt: str


class RubricTemplate(Record):
    __slots__ = _fields = ("criteria",)

    def __init__(self, criteria: tuple[Criterion, ...]) -> None:
        seen: set[str] = set()
        for criterion in criteria:
            if criterion.id in seen:
                raise ParseError(f"duplicate criterion id {criterion.id!r}")
            seen.add(criterion.id)
        set_field(self, "criteria", criteria)

    def get(self, criterion_id: str) -> Criterion | None:
        for criterion in self.criteria:
            if criterion.id == criterion_id:
                return criterion
        return None


_BUILTIN_CRITERIA = (
    ("clarity-of-objectives", Category.GOV, "Clarity of Objectives",
     "How clearly the program's goals are communicated."),
    ("alignment-with-ecosystem-needs", Category.FAO, "Alignment with Ecosystem Needs",
     "The program's ability to address emerging ecosystem needs."),
    ("diversity-of-supported-projects", Category.FAO, "Diversity of Supported Projects",
     "The variety of supported projects across different verticals."),
    ("organizational-clarity", Category.PSO, "Organizational Clarity",
     "The transparency and efficiency of the program's structure."),
    ("governance", Category.GOV, "Governance",
     "The decision-making processes and overall governance structure."),
    ("community-participation-and-engagement", Category.COM,
     "Community Participation and Engagement",
     "How effectively the community is involved in the grant process."),
)


def builtin_template() -> RubricTemplate:
    return RubricTemplate(
        criteria=tuple(Criterion(id=c[0], category=c[1], name=c[2], prompt=c[3])
                       for c in _BUILTIN_CRITERIA)
    )


def collect_responses(template: RubricTemplate,
                      answers: Mapping[str, int]) -> dict[Category, list[float]]:
    """Group unit-interval rubric scores by the criterion's category.

    Grouping runs in template order, so the result is independent of the
    order answers arrive in.
    """
    for criterion_id, score in answers.items():
        if template.get(criterion_id) is None:
            raise UnknownCriterion(criterion_id)
        check_score(score, criterion_id)
    grouped: dict[Category, list[float]] = {}
    for criterion in template.criteria:
        if criterion.id in answers:
            grouped.setdefault(criterion.category, []).append(
                rubric_to_unit(answers[criterion.id])
            )
    return grouped


def render_template(template: RubricTemplate | None = None) -> str:
    """Blank survey in the response file format, ready to fill offline."""
    template = template or builtin_template()
    lines = [
        f"# Self-assessment survey: score each criterion from "
        f"{SCALE_MIN} ({SCALE_ANCHORS[0]}) to {SCALE_MAX} ({SCALE_ANCHORS[1]}).",
        "# Leave the score empty to skip a criterion.",
    ]
    for criterion in template.criteria:
        lines.append(f"# [{criterion.category.code}] {criterion.name}: {criterion.prompt}")
        lines.append(f"{criterion.id}|")
    return "\n".join(lines) + "\n"


def read_answer(answers: dict[str, int], line_no: int, fields: list[str]) -> None:
    """Add one ``criterion-id|score`` row to *answers*; a blank score is
    unanswered and adds nothing."""
    if len(fields) != 2:
        raise ParseError(f"line {line_no}: rubric rows have 2 fields")
    criterion_id, score_text = fields
    if not score_text:
        return
    try:
        score = int(score_text)
    except ValueError:
        raise ParseError(
            f"line {line_no}: rubric score {score_text!r} is not an integer"
        ) from None
    check_score(score, criterion_id)
    if criterion_id in answers:
        raise ParseError(f"line {line_no}: duplicate rubric row for {criterion_id!r}")
    answers[criterion_id] = score


def load_responses(source: IO[bytes] | IO[str] | str) -> dict[str, int]:
    """Read filled survey lines; blank scores are skipped."""
    answers: dict[str, int] = {}
    for line_no, fields in read_records(source):
        read_answer(answers, line_no, fields)
    return answers
