"""Deterministic rendering of the cohort comparison and of validations.

The comparison (``gmi score``) has three output formats that share one
reserved delimiter (``|``):

* ``table``      fixed-width text for terminals,
* ``delimited``  pipe-separated rows for spreadsheets and diffing,
* ``structured`` a key-value document that ``parse_structured`` reads back
  into GmiResult values (4-decimal fixed-point), accepting only what the
  renderer writes.

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

import math
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, zip_longest

from .errors import ParseError
from .ingest import EXCLUSION_REASONS, CategoryValidation, Qualifier, ValidationReport
from .schema import CATEGORIES, read_lines
from .scoring import CATEGORY_COUNT, AuditRecord, GmiResult, Stage, classify_maturity

FORMATS = ("table", "delimited", "structured")

_ABSENT = "n.a."

# Enum ``.value``/``.name`` reads go through a Python-level descriptor, and
# on Python 3.10 and 3.11 so does a member read through its class, such as
# ``Qualifier.EXACT``; the renderers read these tables built at import.
_QUALIFIER_TEXT = {q: q.value for q in Qualifier}
_STAGE_TEXT = {s: s.value for s in Stage}
_CATEGORY_CODES = tuple((cat, cat.code) for cat in CATEGORIES)
_CATEGORY_OF = {code: cat for cat, code in _CATEGORY_CODES}
_APPROXIMATE = (Qualifier.APPROX_UPPER_BOUND, Qualifier.APPROX_LOWER_BOUND)
#: Each column's (minimum, maximum, printed minimum, printed maximum).
_Bounds = dict[str, tuple[float | None, float | None, str, str]]


def _fmt(x: float | None, absent: str = _ABSENT) -> str:
    return absent if x is None else format(x, ".4f")


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
    return "\n".join([*lines, ""]).encode("utf-8")


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


def _audit_line(rec: AuditRecord, bounds: _Bounds) -> str:
    indicator, raw, minimum, maximum, score, exclusion, qualifier = rec
    # A column's records share its bound objects, so each column's bounds
    # are formatted once.  The check is by identity, never by value:
    # -0.0 == 0.0, yet they print differently.
    cached = bounds.get(indicator)
    if cached is None or cached[0] is not minimum or cached[1] is not maximum:
        cached = bounds[indicator] = (minimum, maximum, _fmt(minimum, ""), _fmt(maximum, ""))
    _, _, lo, hi = cached
    tail = f"score|{_fmt(score)}" if exclusion is None else f"excluded|{exclusion}"
    return f"audit|{indicator}|{raw}|{lo}|{hi}|{tail}|{_QUALIFIER_TEXT[qualifier]}"


def _block_lines(result: GmiResult, bounds: _Bounds, audit_lines: dict[int, str]) -> list[str]:
    """*result*'s structured block: a blank line, then its records."""
    lines = ["", f"program|{result.program}", f"gmi|{_fmt(result.gmi)}",
             f"stage|{_STAGE_TEXT[result.stage]}"]
    for cat, code in _CATEGORY_CODES:
        if cat in result.category_scores:
            lines.append(f"category|{code}|input|{_fmt(result.category_scores[cat])}")
        if cat in result.normalized_category_scores:
            lines.append(f"category|{code}|score|{_fmt(result.normalized_category_scores[cat])}")
    for rec in result.audit:
        line = audit_lines.get(id(rec))
        if line is None:
            line = audit_lines[id(rec)] = _audit_line(rec, bounds)
        lines.append(line)
    return lines


def _frame(results: Iterable[GmiResult], notes: Sequence[str]) -> tuple[list[str], list[str]]:
    """The structured head, before the blocks, and the note records after them."""
    return (["format|gmi-comparison|1", "|".join(["programs", *(r.program for r in results)])],
            ["", *(f"note|{note}" for note in notes)] if notes else [])


def _render_structured(results: Sequence[GmiResult], notes: Sequence[str]) -> Iterator[bytes]:
    head, tail = _frame(results, notes)
    yield _encoded(head)
    # Programs share their audit records, so each distinct record's line is
    # formatted once.  The key is the record's identity: an AuditRecord
    # hashes by its fields in Python, and every record outlives this call.
    bounds: _Bounds = {}
    audit_lines: dict[int, str] = {}
    for result in results:
        yield _encoded(_block_lines(result, bounds, audit_lines))
    yield _encoded(tail)


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


def _number(text: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    value = float(text)
    if not (lo <= value <= hi and math.isfinite(value)):
        raise ValueError(text)
    return value


def _read_block(lines: list[str], start: int, stop: int) -> GmiResult:
    """Read the block ``lines[start:stop]``, raising only for a field that
    cannot be read, and check what no rendering of it can show."""
    inputs, scores, audit = {}, {}, []
    at = start + 2
    try:
        gmi = _number(lines[at].partition("|")[2], 0, CATEGORY_COUNT)
        at += 1
        stage = Stage(lines[at].partition("|")[2])
        for at in range(at + 1, stop):
            fields = lines[at].split("|")
            if fields[0] == "category":
                if fields[2] == "input":
                    inputs[_CATEGORY_OF[fields[1]]] = _number(fields[3])
                else:
                    scores[_CATEGORY_OF[fields[1]]] = _number(fields[3], 0, 1)
                continue
            _, indicator, raw, lo, hi, mode, payload, qualifier = fields
            excluded = mode == "excluded"
            if excluded and payload not in EXCLUSION_REASONS:
                raise ValueError(payload)
            audit.append(AuditRecord(indicator, raw, _number(lo) if lo else None,
                                     _number(hi) if hi else None,
                                     None if excluded else _number(payload, 0, 1),
                                     payload if excluded else None, Qualifier(qualifier)))
    except (ValueError, LookupError):
        raise ParseError(f"line {at + 1}: not as the renderer writes it") from None
    if not scores or abs(math.fsum(scores.values()) * CATEGORY_COUNT / len(scores) - gmi) > 4e-4:
        raise ParseError(f"line {start + 3}: gmi is not its categories' rescaled sum")
    if stage not in {classify_maturity(min(max(gmi + d, 0), CATEGORY_COUNT)) for d in (-5e-5, 5e-5)}:
        raise ParseError(f"line {start + 4}: stage is not the stage of gmi")
    return GmiResult(lines[start + 1].partition("|")[2], inputs, scores, gmi, stage, tuple(audit))


def _match(lines: list[str], start: int, rendered: list[str]) -> None:
    """Raise at the first of *lines*, from document index *start*, not as *rendered*."""
    if lines != rendered:
        at = next(at for at, pair in enumerate(zip_longest(lines, rendered)) if pair[0] != pair[1])
        raise ParseError(f"line {start + at + 1}: not as the renderer writes it")


def parse_structured(data: bytes | str) -> list[GmiResult]:
    """Parse the structured format back into GmiResult values.

    A document is accepted only as the renderer writes its results, line for
    line after ``read_lines``.  Each program block is read leniently and
    rendered again on its own; then the head and the ``note`` records are
    rendered from what was read.  The first line that differs, or that
    cannot be read, raises ParseError ``line N: not as the renderer writes
    it``.  What no rendering shows is checked too: every number is finite,
    scores lie in [0, 1] and composites in [0, 6], an exclusion has one of
    three reasons, a block has a category score, its composite is within
    4e-4 of their sum × 6 / present and its stage is that of the composite
    ± 5e-5, and no program repeats.
    """
    lines = read_lines(data)
    cuts = [at for at, line in enumerate(lines) if not line] + [len(lines)]
    results: dict[str, GmiResult] = {}
    for start, stop in zip(cuts, cuts[1:]):
        if stop == start + 1 or not lines[start + 1].startswith("program|"):
            break
        result = _read_block(lines, start, stop)
        _match(lines[start:stop], start, _block_lines(result, {}, {}))
        if result.program in results:
            raise ParseError(f"line {start + 2}: program {result.program!r} repeats")
        results[result.program] = result
    else:
        start = len(lines)
    head, tail = _frame(results.values(), [line.partition("|")[2] for line in lines[start + 1:]])
    _match(lines[:cuts[0]], 0, head)
    _match(lines[start:], start, tail)
    return list(results.values())


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
    if unscorable := report.unscorable_categories():
        lines.append(f"  => unscorable categories: {', '.join(cat.code for cat in unscorable)}")
    return ("\n".join(lines) + "\n").encode("utf-8")
