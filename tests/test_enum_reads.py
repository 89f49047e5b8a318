"""Enum member reads stay off the per-row path.

On Python 3.10 and 3.11 ``EnumType`` defines ``__getattr__``, so a read
such as ``ValueKind.NUMBER`` runs Python code on every evaluation.  The
engine compares against module-level bindings of the members instead.  This
test counts every attribute read on an Enum class during a ``gmi`` run, by
hooking the metaclass's ``__getattribute__``, which works on every Python
version; the count must not grow with the number of programs.
"""

from __future__ import annotations

from test_sharing import _load_cohort_module

from gmi.cli import main
from gmi.schema import Category

PROGRAMS = 60


def _write_cohort(directory, count):
    cohort = _load_cohort_module().generate(1, count)
    directory.mkdir()
    paths = []
    for index, program in enumerate(cohort.programs):
        path = directory / f"p{index:04d}.txt"
        path.write_text(program.text, encoding="utf-8")
        paths.append(str(path))
    rates = directory / "rates.txt"
    rates.write_text(cohort.rates_text, encoding="utf-8")
    return paths, str(rates)


def _commands(paths, rates):
    score = ["score", *paths, "--rates", rates, "--allow-partial", "--format"]
    return {**{fmt: [*score, fmt] for fmt in ("table", "delimited", "structured")},
            "validate": ["validate", *paths]}


def test_enum_member_reads_do_not_grow_with_the_cohort(tmp_path, monkeypatch, capsys):
    small = _commands(*_write_cohort(tmp_path / "small", PROGRAMS))
    large = _commands(*_write_cohort(tmp_path / "large", 2 * PROGRAMS))
    for argv in small.values():  # fill one-time caches (regex compiles) first
        main(argv)
    capsys.readouterr()

    reads = [0]
    read_attribute = type.__getattribute__

    def counting(cls, name):
        reads[0] += 1
        return read_attribute(cls, name)

    def count(argv):
        reads[0] = 0
        monkeypatch.setattr(type(Category), "__getattribute__", counting)
        try:
            code = main(argv)
        finally:
            monkeypatch.undo()
        capsys.readouterr()
        return code, reads[0]

    for command in small:
        (small_code, small_reads), (large_code, large_reads) = (
            count(small[command]), count(large[command]))
        assert small_code == large_code
        assert 0 < small_reads == large_reads, command

