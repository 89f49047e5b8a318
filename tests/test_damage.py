"""The damaged-cohort property: every input ends in one of two ways.

A cohort of 2 to 8 programs from the benchmark's generator gets one damage
from a fixed menu, and runs through ``gmi score`` (structured, with rates
and partial rescaling) and ``gmi validate`` in process.  Either the score
run succeeds with finite composites in [0, 6] and structured output that
reads back to the same bytes, or it fails with one stderr line that names
the damaged file, and the damaged line too when one line's damage is
rejected while the file is read: as the row at fault or, for a repeated
row, as the first row it repeats.  ``gmi validate`` fails with status 2
exactly when ``gmi score`` does.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sharing import _load_cohort_module

from gmi.cli import main
from gmi.report import parse_structured, render_comparison
from gmi.schema import INDICATOR_ID_PATTERN

_GENERATE = _load_cohort_module().generate
_MAX = str(int(sys.float_info.max))  # 1.7976931348623157e308 written out in full


def _pick(data, lines, wanted=lambda line: True):
    return data.draw(st.sampled_from([i for i, line in enumerate(lines) if wanted(line)]))


def _joined(lines):
    return "".join(f"{line}\n" for line in lines).encode("utf-8")


def _flip_byte(lines, data):
    raw = bytearray(_joined(lines))
    at = data.draw(st.integers(0, len(raw) - 1))
    was = raw[at]
    raw[at] ^= 1 << data.draw(st.integers(0, 7))
    if {was, raw[at]} & {ord("\n"), ord("\r")}:
        return bytes(raw), None  # the flip joins or splits lines
    return bytes(raw), {raw.count(b"\n", 0, at) + 1}


def _delete_line(lines, data):
    i = _pick(data, lines)
    return _joined(lines[:i] + lines[i + 1:]), None


def _duplicate_line(lines, data):
    i = _pick(data, lines)
    return _joined(lines[:i + 1] + lines[i:]), {i + 2}


def _swap_lines(lines, data):
    i, j = sorted(data.draw(st.lists(st.integers(0, len(lines) - 1), min_size=2, max_size=2,
                                     unique=True)))
    swapped = [*lines[:i], lines[j], *lines[i + 1:j], lines[i], *lines[j + 1:]]
    return _joined(swapped), {i + 1, j + 1}


def _is_row(line):
    return bool(line.strip()) and not line.startswith("#")


def _id_case(lines, data):
    i = _pick(data, lines, _is_row)
    key, rest = lines[i].split("|", 1)
    key = key.lower() if key != key.lower() else key.upper()
    return _joined([*lines[:i], f"{key}|{rest}", *lines[i + 1:]]), {i + 1}


def _cell_damage(cell):
    def damage(lines, data):
        i = _pick(data, lines, lambda line: bool(INDICATOR_ID_PATTERN.match(line.split("|")[0])))
        fields = lines[i].split("|")
        fields[1] = cell
        return _joined([*lines[:i], "|".join(fields), *lines[i + 1:]]), {i + 1}
    return damage


def _drop_program(lines, data):
    i = _pick(data, lines, lambda line: line.startswith("program|"))
    return _joined(lines[:i] + lines[i + 1:]), None


def _insert(char):
    def damage(lines, data):
        i = _pick(data, lines)
        at = data.draw(st.integers(0, len(lines[i])))
        line = lines[i][:at] + char + lines[i][at:]
        return _joined([*lines[:i], line, *lines[i + 1:]]), {i + 1}
    return damage


def _empty_file(lines, data):
    return b"", None


#: Each damage takes a file's lines (without their ``\n``) and a Hypothesis
#: data object, and returns the damaged bytes and the 1-based numbers of the
#: lines it changed, or None when it changed no single line.
DAMAGES = {
    "flip-byte": _flip_byte, "delete-line": _delete_line, "duplicate-line": _duplicate_line,
    "swap-lines": _swap_lines, "id-case": _id_case, "max-cell": _cell_damage(_MAX),
    "min-cell": _cell_damage(f"-{_MAX}"), "nan-cell": _cell_damage("nan"),
    "negative-zero-cell": _cell_damage("-0"), "drop-program": _drop_program,
    "bom": _insert("\ufeff"), "nul": _insert("\x00"), "empty-file": _empty_file,
}


#: What the loader says of a whole file, with no line number.
_FILE_ERRORS = ("document is not UTF-8", "observation file must start with a 'program|<name>'")


def _run(argv):
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout.flush()
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged")


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**16), st.integers(2, 8), st.sampled_from(sorted(DAMAGES)), st.data())
def test_a_damaged_cohort_ends_in_one_of_two_ways(workdir, seed, count, damage, data):
    cohort = _GENERATE(seed, count)
    victim = data.draw(st.integers(0, count - 1))
    paths = [str(workdir / f"p{index}.txt") for index in range(count)]
    for index, (path, program) in enumerate(zip(paths, cohort.programs)):
        text = program.text.encode("utf-8")
        if index == victim:
            text, damaged_lines = DAMAGES[damage](program.text.split("\n")[:-1], data)
        with open(path, "wb") as file:
            file.write(text)
    rates = workdir / "rates.txt"
    rates.write_text(cohort.rates_text, encoding="utf-8")

    code, out, err = _run(["score", "--format", "structured", "--allow-partial",
                           "--rates", str(rates), *paths])
    validate_code, _, validate_err = _run(["validate", *paths])
    assert (validate_code == 2) == (code == 2), (validate_err, err)
    if code == 0:
        assert err == ""
        results = parse_structured(out)
        assert all(math.isfinite(r.gmi) and 0 <= r.gmi <= 6 for r in results)
        assert render_comparison(results, "structured") == out
        return
    assert code in (1, 2) and out == b""
    assert err.count("\n") == 1 and err.endswith("\n"), err
    path = paths[victim]
    assert path in err, err
    # An error raised while the damaged file is read names the file first,
    # then the line, unless it is about the whole file.
    prefix = re.match(rf"\w+: {re.escape(path)}: (.*)", err)
    if prefix and damaged_lines is not None and not prefix[1].startswith(_FILE_ERRORS):
        # A repeated row also names the first row with its key, which is the
        # damaged one when the damage copied a later row's key.
        named = re.match(r"line (\d+): .*?(?: \(first on line (\d+)\))?$", prefix[1])
        assert named, err
        assert {int(n) for n in named.groups() if n} & set(damaged_lines), (err, damaged_lines)
