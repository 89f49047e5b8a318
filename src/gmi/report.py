"""Deterministic rendering of the cohort comparison and of validations.

The comparison (``gmi score``) has three output formats that share one
reserved delimiter (``|``):

* ``table``      fixed-width text for terminals,
* ``delimited``  pipe-separated rows for spreadsheets and diffing,
* ``structured`` a key-value document that ``parse_structured`` reads back
  into GmiResult values (4-decimal fixed-point), rejecting malformed ones.

Each renderer reads the GmiResult values and their audit trails directly;
the exclusions and footnotes of the table and delimited formats are the
audit records that carry an exclusion or an approximate qualifier.  A
renderer yields UTF-8 chunks of at most one program's lines, or one
section of the table headers, and ``render_comparison`` joins them once:
no list of every line and no whole-document ``str`` is ever held.

The validation report (``gmi validate``) lists each category's coverage.
All numeric cells are rendered to four decimals with round-half-even.
Identical inputs render to identical bytes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

from .errors import ParseError
from .ingest import CategoryValidation, Qualifier, ValidationReport
from .schema import CATEGORIES, Category, read_lines, record_fields
from .scoring import AuditRecord, GmiResult, Stage

FORMATS = ("table", "delimited", "structured")

_ABSENT = "n.a."

# Enum ``.value``/``.name`` reads go through a Python-level descriptor, and
# on Python 3.10 and 3.11 so does a member read through its class, such as
# ``Qualifier.EXACT``; the renderers read these tables built at import.
_QUALIFIER_TEXT = {q: q.value for q in Qualifier}
_STAGE_TEXT = {s: s.value for s in Stage}
_CATEGORY_CODES = tuple((cat, cat.code) for cat in CATEGORIES)
_APPROXIMATE = (Qualifier.APPROX_UPPER_BOUND, Qualifier.APPROX_LOWER_BOUND)


def _fmt(x: float | None) -> str:
    return _ABSENT if x is None else format(x, ".4f")


def _table_rows(results: Sequence[GmiResult]) -> list[list[str]]:
    if not results:
        raise ValueError("at least one result is required")
    rows = [["ID", *(r.program for r in results)]]
    rows.append(["GMI", *(_fmt(r.gmi) for r in results)])
    for cat, code in _CATEGORY_CODES:
        rows.append([code, *(_fmt(r.normalized_category_scores.get(cat)) for r in results)])
    return rows


def _encoded(lines: Iterable[str]) -> bytes:
    """*lines*, each ended by a newline, as UTF-8; no lines give ``b""``."""
    return "".join(f"{line}\n" for line in lines).encode("utf-8")


def _exclusions(result: GmiResult) -> list[tuple[str, str, str, str]]:
    """Each excluded cell of *result* as (program, indicator, raw, reason)."""
    return [(result.program, rec.indicator, rec.raw, rec.exclusion)
            for rec in result.audit if rec.exclusion is not None]


def _footnotes(result: GmiResult) -> list[str]:
    """The footnotes for *result*'s approximate and token-unconverted cells."""
    footnotes = []
    for rec in result.audit:
        if rec.exclusion is None:
            if rec.qualifier in _APPROXIMATE:
                footnotes.append(
                    f"{result.program} {rec.indicator} {rec.raw!r} scored at face value "
                    f"({_QUALIFIER_TEXT[rec.qualifier]})"
                )
        elif rec.exclusion == "token-unconverted":
            footnotes.append(
                f"{result.program} {rec.indicator} {rec.raw!r} excluded: "
                "token amount with no conversion rate supplied"
            )
    return footnotes


def _table_section(title: str, chunks: Iterable[bytes]) -> Iterator[bytes]:
    yield f"\n{title}:\n".encode("utf-8")
    empty = True
    for chunk in chunks:
        empty = empty and not chunk
        yield chunk
    if empty:
        yield b"  (none)\n"


# The table and delimited formats list every exclusion before every
# footnote, so each walks the results once per section.

def _render_table(results: Sequence[GmiResult], notes: Sequence[str]) -> Iterator[bytes]:
    rows = _table_rows(results)
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    yield _encoded(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                   for row in rows)
    yield b"\nStages:\n"
    for r in results:
        yield f"  {r.program}: {_STAGE_TEXT[r.stage]}\n".encode("utf-8")
    yield from _table_section("Exclusions", (
        _encoded(f"  {' | '.join(row)}" for row in _exclusions(r)) for r in results))
    yield from _table_section("Footnotes", chain(
        (_encoded(f"  - {note}" for note in _footnotes(r)) for r in results),
        [_encoded(f"  - {note}" for note in notes)]))


def _render_delimited(results: Sequence[GmiResult], notes: Sequence[str]) -> Iterator[bytes]:
    rows = _table_rows(results)
    rows.append(["STAGE", *(_STAGE_TEXT[r.stage] for r in results)])
    yield _encoded("|".join(row) for row in rows)
    for r in results:
        yield _encoded("|".join(("EXCLUDED", *row)) for row in _exclusions(r))
    for r in results:
        yield _encoded(f"NOTE|{note}" for note in _footnotes(r))
    yield _encoded(f"NOTE|{note}" for note in notes)


def _bound(x: float | None) -> str:
    return "" if x is None else _fmt(x)


def _audit_line(rec: AuditRecord,
                bounds: dict[str, tuple[float | None, float | None, str, str]]) -> str:
    indicator, raw, minimum, maximum, score, exclusion, qualifier = rec
    # A column's records share its bound objects, so each column's bounds
    # are formatted once.  The check is by identity, never by value:
    # -0.0 == 0.0, yet they print differently.
    cached = bounds.get(indicator)
    if cached is None or cached[0] is not minimum or cached[1] is not maximum:
        cached = bounds[indicator] = (minimum, maximum, _bound(minimum), _bound(maximum))
    _, _, lo, hi = cached
    tail = f"score|{_fmt(score)}" if exclusion is None else f"excluded|{exclusion}"
    return f"audit|{indicator}|{raw}|{lo}|{hi}|{tail}|{_QUALIFIER_TEXT[qualifier]}"


def _render_structured(results: Sequence[GmiResult], notes: Sequence[str]) -> Iterator[bytes]:
    yield _encoded(["format|gmi-comparison|1",
                    "|".join(["programs", *(r.program for r in results)])])
    bounds: dict[str, tuple[float | None, float | None, str, str]] = {}
    # Programs share their audit records, so each distinct record's line is
    # formatted once.  The key is the record's identity: an AuditRecord
    # hashes by its fields in Python, and every record outlives this call.
    audit_lines: dict[int, str] = {}
    for result in results:
        lines = ["", f"program|{result.program}", f"gmi|{_fmt(result.gmi)}",
                 f"stage|{_STAGE_TEXT[result.stage]}"]
        for cat, code in _CATEGORY_CODES:
            if cat in result.category_scores:
                lines.append(f"category|{code}|input|{_fmt(result.category_scores[cat])}")
            if cat in result.normalized_category_scores:
                lines.append(
                    f"category|{code}|score|"
                    f"{_fmt(result.normalized_category_scores[cat])}"
                )
        for rec in result.audit:
            line = audit_lines.get(id(rec))
            if line is None:
                line = audit_lines[id(rec)] = _audit_line(rec, bounds)
            lines.append(line)
        yield _encoded(lines)
    if notes:
        yield _encoded(["", *(f"note|{note}" for note in notes)])


def render_comparison(results: Sequence[GmiResult], fmt: str = "table",
                      notes: Sequence[str] = ()) -> bytes:
    """Render the Mantle-style comparison: composite row first, then the six
    category rows in FAO/PSO/GOV/EFI/TAC/COM order, programs in input order.

    Each renderer yields encoded chunks of at most one program's lines (or
    one section of the table headers), which are joined once here.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    render = {"table": _render_table, "delimited": _render_delimited,
              "structured": _render_structured}[fmt]
    return b"".join(render(results, notes))


# Field count of each record kind inside a program block.
_RECORD_FIELDS = {"program": 2, "gmi": 2, "stage": 2, "category": 4, "audit": 8}
_CATEGORY_BUCKETS = {"input": "inputs", "score": "scores"}


def parse_structured(data: bytes | str) -> list[GmiResult]:
    """Parse the structured format back into GmiResult values.

    The document is read as every loader reads its own (``read_lines``, then
    ``record_fields``), one record at a time, so a cohort's tens of
    thousands of audit records are never all split at once.  Each program
    block needs exactly one ``gmi`` and one ``stage`` record; any malformed
    document raises ParseError.
    """
    records = filter(None, map(record_fields, read_lines(data)))
    if next(records, [])[:2] != ["format", "gmi-comparison"]:
        raise ParseError("not a structured comparison document")

    blocks: list[dict] = []
    for fields in records:
        line = "|".join(fields)
        key = fields[0]
        if key in ("programs", "note"):
            continue
        if key not in _RECORD_FIELDS:
            raise ParseError(f"unknown record {key!r}")
        if len(fields) != _RECORD_FIELDS[key]:
            raise ParseError(f"malformed {key} record: {line!r}")
        if key == "program":
            blocks.append({"program": fields[1], "inputs": {}, "scores": {}, "audit": []})
            continue
        if not blocks:
            raise ParseError(f"record {key!r} before any program block")
        block = blocks[-1]
        try:
            if key in ("gmi", "stage"):
                if key in block:
                    raise ParseError(f"duplicate {key} record for {block['program']!r}")
                block[key] = float(fields[1]) if key == "gmi" else Stage(fields[1])
            elif key == "category":
                cat = Category.from_code(fields[1])
                block[_CATEGORY_BUCKETS[fields[2]]][cat] = float(fields[3])
            else:
                _, indicator, raw, lo, hi, mode, payload, qualifier = fields
                if mode not in ("score", "excluded"):
                    raise ParseError(f"malformed audit record: {line!r}")
                block["audit"].append(
                    AuditRecord(
                        indicator=indicator,
                        raw=raw,
                        minimum=float(lo) if lo else None,
                        maximum=float(hi) if hi else None,
                        score=float(payload) if mode == "score" else None,
                        exclusion=payload if mode == "excluded" else None,
                        qualifier=Qualifier(qualifier),
                    )
                )
        except (KeyError, ValueError):
            raise ParseError(f"malformed {key} record: {line!r}") from None

    results = []
    for block in blocks:
        for key in ("gmi", "stage"):
            if key not in block:
                raise ParseError(f"program {block['program']!r} has no {key} record")
        results.append(
            GmiResult(
                program=block["program"],
                category_scores=block["inputs"],
                normalized_category_scores=block["scores"],
                gmi=block["gmi"],
                stage=block["stage"],
                audit=tuple(block["audit"]),
            )
        )
    return results


# ---------------------------------------------------------------------------
# Validation rendering
# ---------------------------------------------------------------------------


def _ids(ids: tuple[str, ...]) -> str:
    return ", ".join(ids) if ids else "-"


def _coverage_line(code: str, cv: CategoryValidation) -> str:
    flag = "yes" if cv.scorable else "NO"
    return (
        f"  {code}: scorable={flag} | included: {_ids(cv.scorable_present)} | "
        f"missing: {_ids(cv.missing)} | non-scorable: {_ids(cv.non_scorable)} | "
        f"token-unconverted: {_ids(cv.token_unconverted)} | "
        f"rubric responses: {cv.rubric_responses}"
    )


def render_validation(report: ValidationReport) -> bytes:
    lines = [f"Program: {report.program}"]
    for cat, code in _CATEGORY_CODES:
        lines.append(_coverage_line(code, report.categories[cat]))
    if not report.all_scorable:
        names = ", ".join(cat.code for cat in report.unscorable_categories())
        lines.append(f"  => unscorable categories: {names}")
    return ("\n".join(lines) + "\n").encode("utf-8")
