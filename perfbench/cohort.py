"""Seeded synthetic cohorts of gmi observation files.

The generator walks the builtin indicator registry and rubric template and
writes one observation file per program, using every cell form of the
ingest grammar: ``$`` money with separators and k/m/b suffixes, token
amounts (with a matching rates file), ``A:B`` ratios, inline and unit-column
durations, ``N (text)`` codes, ``<``/``>`` qualifiers, ``0``/``1`` and
``no``/``yes`` binaries, jurisdictions and ISO codes, free text, ``Link``,
and the ``n.a.``/``tbc``/empty missing sentinels.

Alongside the bytes it keeps what each cell is known to mean, so that
``reference.py`` can score the cohort without the engine.  The same seed
gives the same bytes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from gmi.rubric import builtin_template
from gmi.schema import DataType, Kind, builtin_schema

#: Share of cells written as a missing sentinel.
MISSING_SHARE = 0.12
#: Share of rubric criteria a program leaves unanswered (row omitted).
SKIPPED_ANSWER_SHARE = 0.3
#: Share of programs that omit one or two whole categories.
PARTIAL_PROGRAM_SHARE = 0.08

RATES = {"ARB": 0.55, "OP": 1.75, "MNT": 0.62, "TKO": 1.25, "STRK": 0.4}

_MAGNITUDE = {"k": 1e3, "m": 1e6, "b": 1e9}
_WEEKS_PER = {"weeks": 1.0, "months": 4.345, "years": 52.14}
_MISSING_FORMS = ("n.a.", "tbc", "", "N.A.", "TBC")
_COUNTRIES = ("CYM", "CHE", "SGP", "PAN", "USA", "Cayman Islands",
              "Switzerland Foundation", "British Virgin Islands (BVI)", "Singapore",
              "Bermuda", "Liechtenstein Foundation")
_TEXTS = ("Link", "Questbook", "DAO + Foundation", "Native Token", "Grants Council",
          "Token House vote", "Charmverse", "Multisig (5 of 9)")
_CODE_LABELS = ("milestones", "DAO Treasury", "Principal allocates", "Native Token",
                "Foundation", "retroactive", "Token and network growth")

#: The constant indicator: every program reports ``1``, so its column is
#: degenerate and exercises the 0.5 midpoint rule.
CONSTANT_INDICATOR = "TAC-QN-5"


@dataclass(frozen=True)
class Cell:
    """What the engine should make of one written cell.

    ``value`` is the number the cell scores with once rates are applied, or
    None when it is excluded; ``needs_rate`` marks token amounts, which
    score only when a rates file is passed.
    """
    value: float | None
    needs_rate: bool = False


@dataclass(frozen=True)
class Program:
    name: str
    text: str
    cells: dict[str, Cell]
    rubric: dict[str, int]


@dataclass(frozen=True)
class Cohort:
    programs: tuple[Program, ...]
    rates_text: str
    criterion_categories: dict[str, str]  # rubric criterion id -> category code


def _fmt_num(rng: random.Random, lo: float, hi: float) -> tuple[str, float]:
    """A positive amount written with separators or a k/m/b suffix; returns
    the text and its value computed the way the text reads."""
    amount = 10 ** rng.uniform(math.log10(lo), math.log10(hi))
    style = rng.randrange(3) if amount >= 1e3 else 1
    if style == 0:
        whole = int(amount)
        return f"{whole:,}", float(whole)
    if style == 1:
        whole = int(amount)
        return str(whole), float(whole)
    suffix = "k" if amount < 1e6 else ("m" if amount < 1e9 else "b")
    mantissa = f"{amount / _MAGNITUDE[suffix]:.1f}"
    letter = rng.choice((suffix, suffix.upper()))
    return mantissa + letter, float(mantissa) * _MAGNITUDE[suffix]


def _qualified(rng: random.Random, text: str) -> str:
    roll = rng.random()
    if roll < 0.05:
        return "<" + text
    if roll < 0.1:
        return ">" + text
    return text


def _usd_cell(rng: random.Random) -> tuple[str, Cell]:
    roll = rng.random()
    text, value = _fmt_num(rng, 1e3, 5e9)
    if roll < 0.6:
        body = "$" + text
        if rng.random() < 0.1:
            body += " " + rng.choice(tuple(RATES))  # the dollar sign wins
        return _qualified(rng, body), Cell(value)
    symbol = rng.choice(tuple(RATES))
    return _qualified(rng, f"{text} {symbol}"), Cell(value * RATES[symbol], needs_rate=True)


def _duration_cell(rng: random.Random, unit: str) -> tuple[str, Cell]:
    src = rng.choice(tuple(_WEEKS_PER))
    n = rng.randint(1, 24 if src != "years" else 4)
    value = float(n) if src == unit else n * _WEEKS_PER[src] / _WEEKS_PER[unit]
    word = src if n != 1 else src[:-1]
    style = rng.randrange(3)
    if style == 0:
        return f"{n} {word}", Cell(value)
    if style == 1:
        return f"{n}|{src}", Cell(value)
    return f"{n}|{unit}", Cell(float(n))


def _ratio_cell(rng: random.Random) -> tuple[str, Cell]:
    if rng.random() < 0.6:
        num, den = rng.randint(1, 40), rng.randint(1, 2000)
        return f"{num}:{den:,}", Cell(float(num) / float(den))
    text = f"{rng.uniform(0.0001, 0.9):.6f}"
    return text, Cell(float(text))


def _scoring_cell(rng: random.Random) -> tuple[str, Cell]:
    n = rng.randint(0, 5)
    if rng.random() < 0.6:
        # A categorical code: no asserted polarity, so never scored.
        return f"{n} ({rng.choice(_CODE_LABELS)})", Cell(None)
    return str(n), Cell(float(n))


def _count_cell(rng: random.Random) -> tuple[str, Cell]:
    roll = rng.random()
    if roll < 0.15:
        n = rng.randint(1, 40)
        return f"{n} ({rng.choice(_CODE_LABELS)})", Cell(float(n))
    text, value = _fmt_num(rng, 1, 250_000)
    return _qualified(rng, text), Cell(value)


def _binary_cell(rng: random.Random) -> tuple[str, Cell]:
    bit = rng.randrange(2)
    text = rng.choice((str(bit), ("no", "yes")[bit], ("No", "Yes")[bit]))
    return text, Cell(float(bit))


def _cell(rng: random.Random, definition) -> tuple[str, Cell]:
    if definition.id == CONSTANT_INDICATOR:
        return "1", Cell(1.0)
    if rng.random() < MISSING_SHARE:
        sentinel = rng.choice(_MISSING_FORMS + (("Link",) if definition.data_type
                                                 is not DataType.TEXT else ()))
        return sentinel, Cell(None)
    data_type, unit = definition.data_type, definition.unit
    if data_type is DataType.TEXT:
        return rng.choice(_TEXTS), Cell(None)
    if data_type is DataType.ISO_ALPHA_3:
        return rng.choice(_COUNTRIES), Cell(None)
    if data_type is DataType.BINARY:
        return _binary_cell(rng)
    if unit == "USD":
        return _usd_cell(rng)
    if unit in _WEEKS_PER:
        return _duration_cell(rng, unit)
    if unit in ("conversion rate", "ratio"):
        return _ratio_cell(rng)
    if unit == "scoring":
        return _scoring_cell(rng)
    return _count_cell(rng)


def generate(seed: int, count: int) -> Cohort:
    """Generate *count* programs from *seed*."""
    rng = random.Random(seed)
    schema = builtin_schema()
    template = builtin_template()
    observable = [ind for ind in schema.indicators if ind.kind is Kind.QUANTITATIVE]
    categories = sorted({ind.category for ind in observable}, key=lambda c: c.name)
    programs = []
    for index in range(count):
        name = f"Program {index:05d}-{rng.choice(('L2', 'DAO', 'Grants', 'Fund'))}"
        dropped = set()
        if rng.random() < PARTIAL_PROGRAM_SHARE:
            dropped = set(rng.sample(categories, rng.randint(1, 2)))
        rows: list[str] = []
        cells: dict[str, Cell] = {}
        for definition in observable:
            if definition.category in dropped:
                continue
            text, cell = _cell(rng, definition)
            rows.append(f"{definition.id}|{text}")
            cells[definition.id] = cell
        rubric = {}
        for criterion in template.criteria:
            if criterion.category in dropped or rng.random() < SKIPPED_ANSWER_SHARE:
                continue
            rubric[criterion.id] = rng.randint(1, 5)
            rows.append(f"{criterion.id}|{rubric[criterion.id]}")
        rng.shuffle(rows)
        if rows and rng.random() < 0.3:
            rows.insert(rng.randrange(len(rows)), "")
        lines = ["# generated observation file", f"program|{name}", *rows]
        programs.append(Program(name, "\n".join(lines) + "\n", cells, rubric))
    rates = "".join(f"{symbol}|{rate}\n" for symbol, rate in RATES.items())
    criteria = {c.id: c.category.code for c in template.criteria}
    return Cohort(tuple(programs), rates, criteria)
