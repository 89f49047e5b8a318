"""Command-line behaviour: exit codes, modes, determinism."""

from __future__ import annotations

import contextlib
import gc
import io
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmi.cli
import gmi.rubric
import gmi.schema
from gmi.bundled import bundled_category_table_path, bundled_program_paths
from gmi.cli import main
from gmi.ingest import load_program_dataset
from gmi.rubric import builtin_template, collect_responses
from gmi.schema import builtin_schema

CATEGORY_TABLE = str(bundled_category_table_path())
PROGRAM_FILES = [str(p) for p in bundled_program_paths()]
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: The child process runs the console script that ``pip install`` wrote,
#: when there is one, and the module otherwise.
_SCRIPT = Path(sysconfig.get_path("scripts"), "gmi")
_CHILD = [str(_SCRIPT)] if _SCRIPT.is_file() else [sys.executable, "-m", "gmi.cli"]


@pytest.fixture
def gmi_run(capsysbinary, monkeypatch):
    """Run ``gmi *argv`` in the current directory twice, in process through
    ``main`` and in a child process, and return ``(exit status, stdout
    bytes, stderr text)``, which must be the same from both runs.  Neither
    run sees ``GMI_SCHEMA``."""
    monkeypatch.delenv("GMI_SCHEMA", raising=False)
    # The code under test comes first on the child's import path, from
    # whatever directory the child runs in.
    source_root = str(Path(gmi.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [source_root, os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        code = main(list(argv))
        out, err = capsysbinary.readouterr()
        child = subprocess.run([*_CHILD, *argv], capture_output=True, timeout=60, env=env)
        ran = (child.returncode, child.stdout, child.stderr.decode("utf-8"))
        assert ran == (code, out, err.decode("utf-8")), _CHILD
        return ran

    return run


def test_validate_bundled_reports_unscorable_categories(gmi_run):
    # GOV has only code-valued cells and links in the bundled data, and the
    # Optimism transparency figures are all placeholders, so the gate fails.
    code, out, _ = gmi_run("validate", *PROGRAM_FILES)
    assert code == 1
    assert b"unscorable categories: GOV" in out
    assert b"unscorable categories: GOV, TAC" in out


def test_validate_builds_the_rubric_template_once(monkeypatch, capsys):
    built = []
    original = gmi.rubric.builtin_template

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(gmi.rubric, "builtin_template", counting)
    assert main(["validate", *PROGRAM_FILES]) == 1
    assert "unscorable categories: GOV, TAC" in capsys.readouterr().out
    assert len(built) == 1


def test_validate_keeps_a_line_separator_inside_a_cell(tmp_path, capsys):
    # str.splitlines would end the line at U+0085 inside the cell and read
    # its tail as a malformed rubric row.
    expected_code = main(["validate", *PROGRAM_FILES])
    expected = capsys.readouterr().out
    source = Path(PROGRAM_FILES[0]).read_text(encoding="utf-8")
    lines = source.split("\n")
    row = lines.index("PSO-AUX-1|DAO + Foundation")
    lines[row] = "PSO-AUX-1|DAO\x85Foundation"
    edited = tmp_path / "edited.txt"
    edited.write_text("\n".join(lines), encoding="utf-8")
    assert main(["validate", str(edited), *PROGRAM_FILES[1:]]) == expected_code
    assert capsys.readouterr().out == expected


_BOGUS = ("UnknownCriterion: a.txt: line 3: criterion 'bogus-criterion' not present in the "
          "rubric template\n")


@pytest.mark.parametrize("files", [
    {"a.txt": "program|A\nCOM-QN-1|3\nbogus-criterion|4\n", "b.txt": "program|A\nCOM-QN-1|4\n"},
    {"a.txt": f"program|A\nPSO-QN-5|{int(sys.float_info.max)}\nbogus-criterion|4\n",
     "b.txt": f"program|B\nPSO-QN-5|-{int(sys.float_info.max)}\n"},
], ids=["beside-a-duplicate-program", "beside-an-overflowing-column"])
def test_an_unknown_criterion_is_the_first_error_of_validate_and_score(tmp_path, monkeypatch,
                                                                       gmi_run, files):
    # The row is rejected while its file is read, before any cohort check.
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        Path(name).write_text(text, encoding="utf-8")
    for command in (["validate"], ["score", "--allow-partial"]):
        assert gmi_run(*command, "a.txt", "b.txt") == (2, b"", _BOGUS), command


def test_validate_without_inputs_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate"])
    assert exc.value.code == 2


def test_score_precomputed_reproduces_published_composites(capsys):
    code = main(["score", CATEGORY_TABLE, "--mode", "precomputed-categories",
                 "--format", "delimited"])
    out = capsys.readouterr().out
    assert code == 0
    gmi_row = next(ln for ln in out.splitlines() if ln.startswith("GMI|"))
    cells = gmi_row.split("|")[1:]
    assert cells == ["1.8415", "3.2945", "3.9311", "1.1807"]


def test_score_single_program_precomputed(tmp_path, capsys):
    table = tmp_path / "one.txt"
    table.write_text(
        "program|FAO|PSO|GOV|EFI|TAC|COM\nSolo|1|2|3|4|5|6\n", encoding="utf-8"
    )
    code = main(["score", str(table), "--mode", "precomputed-categories",
                 "--format", "delimited"])
    out = capsys.readouterr().out
    assert code == 0
    assert "GMI|3.0000" in out
    assert "STAGE|Developmental" in out


def test_score_raw_without_allow_partial_names_missing_pairs(tmp_path, capsys):
    code = main(["score", *PROGRAM_FILES])
    err = capsys.readouterr().err
    assert code == 1
    assert "PartialDataError" in err
    assert "(Taiko, GOV)" in err

    # A program with no category at all is a domain failure as well, even
    # under --allow-partial, in both modes; validate agrees on the raw files.
    empty = tmp_path / "b.txt"
    empty.write_text("program|B\nFAO-QN-7|Questbook\n", encoding="utf-8")
    table = tmp_path / "table.txt"
    table.write_text("program|FAO|PSO|GOV|EFI|TAC|COM\nA|1|2|3|4|5|6\n"
                     "B|n.a.|n.a.|n.a.|n.a.|n.a.|n.a.\n", encoding="utf-8")
    for argv in (["score", PROGRAM_FILES[0], str(empty), "--allow-partial"],
                 ["score", str(table), "--mode", "precomputed-categories", "--allow-partial"]):
        assert main(argv) == 1
        assert capsys.readouterr().err == "EmptyCategory: program 'B' has no category scores\n"
    assert main(["validate", PROGRAM_FILES[0], str(empty)]) == 1
    capsys.readouterr()


def test_score_raw_allow_partial_succeeds(capsys):
    code = main(["score", *PROGRAM_FILES, "--allow-partial"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].startswith("ID")


def test_compare_is_alias_of_score(capsys):
    main(["score", *PROGRAM_FILES, "--allow-partial", "--format", "delimited"])
    score_out = capsys.readouterr().out
    main(["compare", *PROGRAM_FILES, "--allow-partial", "--format", "delimited"])
    compare_out = capsys.readouterr().out
    assert score_out == compare_out


@pytest.mark.parametrize("golden, argv", [
    (f"{name}.{fmt}", [*inputs, "--format", fmt])
    for name, inputs in (
        ("raw_partial_comparison", [*PROGRAM_FILES, "--allow-partial"]),
        ("published_comparison", [CATEGORY_TABLE, "--mode", "precomputed-categories"]))
    for fmt in ("delimited", "structured", "table")
], ids=["delimited", "structured", "table",
        "published-delimited", "published-structured", "published-table"])
def test_raw_partial_comparison_matches_golden(gmi_run, golden, argv):
    # Pins every golden byte for byte: the raw run's EXCLUDED and NOTE rows
    # and audit records, and the published composites.
    expected = (GOLDEN_DIR / f"{golden}.txt").read_bytes()
    assert gmi_run("score", *argv) == (0, expected, "")


def test_validate_and_score_agree_on_repeated_program_names(capsys):
    statuses = {}
    for command in ("validate", "score"):
        statuses[command] = main([command, PROGRAM_FILES[0], PROGRAM_FILES[0]])
        err = capsys.readouterr().err
        path = PROGRAM_FILES[0]
        assert err == f"ParseError: duplicate program 'Taiko' in {path} and {path}\n", command
    assert statuses["validate"] == statuses["score"] == 2


def test_repeated_program_names_both_inputs(tmp_path, capsys):
    paths = []
    for name, program in (("b1.txt", "A"), ("b2.txt", "B"), ("b3.txt", "B")):
        (tmp_path / name).write_text(f"program|{program}\nCOM-QN-1|10\n", encoding="utf-8")
        paths.append(str(tmp_path / name))
    for command in (["validate"], ["score", "--allow-partial"]):
        assert main([*command, *paths]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ParseError: duplicate program 'B' in {paths[1]} and {paths[2]}\n"


@pytest.mark.parametrize(
    "text,argv,line",
    [
        ("program|FAO|PSO|GOV|EFI|TAC|COM\nA|1|1|1|1|1|1\n|2|2|2|2|2|2\n",
         ["--mode", "precomputed-categories"], 3),
        ("program|A|extra\nCOM-QN-1|10\n", [], 1),
        ("program|A\nCOM-QN-1|10\nprogram|B\n", [], 3),
        ("program|", [], 1),
        ("# c\n\nprogram\n", [], 3),
    ],
    ids=["empty-table-program", "program-record-extra-field", "second-program-record",
         "empty-program-name", "program-record-without-name"],
)
def test_malformed_program_names_are_input_errors(tmp_path, capsys, text, argv, line):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    commands = [["score", "--allow-partial"]]
    if not argv:
        commands.append(["validate"])
    for command in commands:
        assert main([*command, str(path), *argv]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith(f"ParseError: {path}: line {line}: ") and "program" in err, err


def test_precomputed_mode_forbids_rates(tmp_path, capsys):
    rates = tmp_path / "rates.txt"
    rates.write_text("ARB|1.0\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["score", CATEGORY_TABLE, "--mode", "precomputed-categories",
              "--rates", str(rates)])
    assert exc.value.code == 2


def test_precomputed_mode_takes_one_input(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["score", CATEGORY_TABLE, CATEGORY_TABLE,
              "--mode", "precomputed-categories"])
    assert exc.value.code == 2


def test_rates_change_raw_scores(tmp_path, capsys):
    rates = tmp_path / "rates.txt"
    rates.write_text("ARB|1.0\nOP|1.0\n", encoding="utf-8")
    main(["score", *PROGRAM_FILES, "--allow-partial", "--format", "delimited"])
    without = capsys.readouterr().out
    code = main(["score", *PROGRAM_FILES, "--allow-partial", "--rates", str(rates),
                 "--format", "delimited"])
    with_rates = capsys.readouterr().out
    assert code == 0
    assert with_rates != without
    assert "token-unconverted" not in with_rates


def test_missing_file_is_input_error(capsys):
    code = main(["score", "does-not-exist.txt"])
    assert code == 2
    assert "error" in capsys.readouterr().err.lower()


def test_schema_flag_and_env_override(tmp_path, capsys, monkeypatch):
    main(["schema", "dump"])
    dumped = capsys.readouterr().out
    custom = tmp_path / "schema.txt"
    custom.write_text(dumped, encoding="utf-8")

    code = main(["schema", "dump", "--schema", str(custom)])
    assert code == 0
    assert capsys.readouterr().out == dumped

    monkeypatch.setenv("GMI_SCHEMA", str(custom))
    code = main(["schema", "dump"])
    assert code == 0
    assert capsys.readouterr().out == dumped

    monkeypatch.setenv("GMI_SCHEMA", str(tmp_path / "nope.txt"))
    code = main(["schema", "dump"])
    assert code == 2


def test_schema_dump_prints_the_builtin_document(gmi_run):
    assert gmi_run("schema", "dump") == (0, gmi.schema._BUILTIN_DOCUMENT.encode("utf-8"), "")


def test_a_schema_file_with_all_four_directions_dumps_back_unchanged(tmp_path, monkeypatch,
                                                                    gmi_run):
    lines = gmi.schema._BUILTIN_DOCUMENT.splitlines(keepends=True)
    for index, line in enumerate(lines):
        for row, direction in (("FAO-QN-6|", "|lower-better|"), ("PSO-QN-1|", "|higher-better|")):
            if line.startswith(row):
                lines[index] = line.replace("|default|", direction)
    four = "".join(lines)
    assert {line.split("|")[5] for line in four.splitlines()} == {
        "direction", "default", "higher-better", "lower-better", "non-scorable"}
    monkeypatch.chdir(tmp_path)
    Path("four.txt").write_text(four, encoding="utf-8")
    assert gmi_run("schema", "dump", "--schema", "four.txt") == (0, four.encode("utf-8"), "")


def test_precomputed_mode_never_reads_the_schema(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GMI_SCHEMA", str(tmp_path / "nope.txt"))
    code = main(["score", CATEGORY_TABLE, "--mode", "precomputed-categories"])
    assert code == 0
    expected = (GOLDEN_DIR / "published_comparison.table.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_broken_schema_file_is_input_error(tmp_path, capsys):
    broken = tmp_path / "broken.txt"
    broken.write_text("id|category|kind\n", encoding="utf-8")
    code = main(["validate", PROGRAM_FILES[0], "--schema", str(broken)])
    assert code == 2
    assert "ParseError" in capsys.readouterr().err


def test_survey_template_round_trip(capsys):
    code = main(["survey", "template"])
    template_text = capsys.readouterr().out
    assert code == 0
    for criterion in builtin_template().criteria:
        assert criterion.name in template_text
        assert f"{criterion.id}|" in template_text

    filled = [
        line + "4" if line and not line.startswith("#") else line
        for line in template_text.splitlines()
    ]
    answers = load_program_dataset("program|X\n" + "\n".join(filled), builtin_schema()).rubric
    grouped = collect_responses(builtin_template(), answers)
    assert sum(len(v) for v in grouped.values()) == 6


def test_survey_template_pastes_into_an_observation_file(tmp_path, capsys):
    main(["survey", "template"])
    survey = capsys.readouterr().out.replace("\ngovernance|\n", "\ngovernance|4\n")
    program = tmp_path / "x.txt"
    program.write_text("program|X\nCOM-QN-1|10\n" + survey, encoding="utf-8")
    # Blank answers are unanswered, so only the domain verdict remains:
    # four categories have no input.
    assert main(["validate", str(program)]) == 1
    assert main(["score", str(program), "--allow-partial"]) == 0


def test_survey_template_is_deterministic(capsys):
    main(["survey", "template"])
    first = capsys.readouterr().out
    main(["survey", "template"])
    assert capsys.readouterr().out == first


def test_out_flag_writes_identical_bytes(tmp_path):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    for out in (out1, out2):
        code = main(["score", CATEGORY_TABLE, "--mode", "precomputed-categories",
                     "--format", "structured", "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


_BIG = "155" + "0" * 306  # 1.55e308: finite, but the column's range is not


@pytest.mark.parametrize(
    "files,argv",
    [
        ({"a.txt": f"program|A\nCOM-QN-12|{'9' * 400}\n"},
         ["a.txt", "--allow-partial"]),
        ({"a.txt": f"program|A\nCOM-QN-7|{'9' * 308} years\n"},
         ["a.txt", "--allow-partial"]),
        ({"a.txt": f"program|A\nCOM-QN-12|-{_BIG}\n", "b.txt": f"program|B\nCOM-QN-12|{_BIG}\n"},
         ["a.txt", "b.txt", "--allow-partial"]),
        ({"a.txt": f"program|A\nFAO-QN-2|{'9' * 300} ARB\n", "b.txt": "program|B\nFAO-QN-2|$5\n",
          "rates.txt": "ARB|1e10\n"},
         ["a.txt", "b.txt", "--allow-partial", "--rates", "rates.txt"]),
        ({"t.txt": "program|FAO|PSO|GOV|EFI|TAC|COM\n"
                   "A|-1.55e308|1|1|1|1|1\nB|1.55e308|2|2|2|2|2\n"},
         ["t.txt", "--mode", "precomputed-categories"]),
    ],
    ids=["400-digit-cell", "unit-conversion-overflow", "column-range-overflow",
         "token-times-rate-overflow", "table-range-overflow"],
)
def test_non_finite_numbers_are_input_errors(tmp_path, capsys, files, argv):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    code = main(["score", *(str(tmp_path / a) if a in files else a for a in argv)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "Traceback" not in err


_MAX = str(int(sys.float_info.max))  # the largest float, written out in full
_E308 = "1" + "0" * 308
#: PSO-QN-5 cells whose pairs overflow a column's range, or do not.
_RANGE_CELLS = (_MAX, f"-{_MAX}", _E308, f"-{_E308}", "0", "-0", "5")


@pytest.fixture(scope="module")
def range_cells_dir(tmp_path_factory):
    """One-row program files: program P<position> with each of _RANGE_CELLS."""
    root = tmp_path_factory.mktemp("range-cells")
    for position in range(4):
        for index, cell in enumerate(_RANGE_CELLS):
            (root / f"p{position}-{index}.txt").write_text(
                f"program|P{position}\nPSO-QN-5|{cell}\n", encoding="utf-8")
    return root


def test_an_overflowing_column_is_the_one_error_of_validate_and_score(tmp_path, monkeypatch,
                                                                      gmi_run):
    monkeypatch.chdir(tmp_path)
    Path("a.txt").write_text(f"program|A\nPSO-QN-5|{_MAX}\n", encoding="utf-8")
    Path("b.txt").write_text(f"program|B\nPSO-QN-5|-{_MAX}\n", encoding="utf-8")
    error = ("ParseError: column PSO-QN-5 spans -1.7976931348623157e+308 to "
             "1.7976931348623157e+308, a range that overflows\n")
    for command in (["validate"], ["score", "--allow-partial"]):
        assert gmi_run(*command, "a.txt", "b.txt") == (2, b"", error), command


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(range(len(_RANGE_CELLS))), min_size=2, max_size=4))
def test_validate_predicts_the_overflow_exit_of_score(range_cells_dir, cells):
    paths = [str(range_cells_dir / f"p{position}-{index}.txt")
             for position, index in enumerate(cells)]
    outcomes = {}
    for command in (["validate"], ["score", "--allow-partial"]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*command, "--out", os.devnull, *paths])
        outcomes[command[0]] = (code == 2, err.getvalue())
    assert outcomes["validate"] == outcomes["score"]
    failed, err = outcomes["score"]
    if failed:
        assert err.count("\n") == 1 and err.startswith("ParseError: column PSO-QN-5 spans")
    else:
        assert err == ""


@pytest.mark.parametrize(
    "cell, rates, message",
    [("COM-QN-1|5 OP", "OP|2\n", "no conversion from 'OP' to 'headcount'")],
    ids=["token-amount-under-headcount"],
)
def test_currency_under_a_non_usd_indicator_is_an_input_error(tmp_path, capsys, cell,
                                                             rates, message):
    program = tmp_path / "b.txt"
    program.write_text(f"program|B\n{cell}\n", encoding="utf-8")
    (tmp_path / "rates.txt").write_text(rates, encoding="utf-8")
    for argv in (["validate", str(program)],
                 ["score", PROGRAM_FILES[0], str(program), "--allow-partial",
                  "--rates", str(tmp_path / "rates.txt")]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"UnitError: {program}: line 2: {message}\n"


@pytest.mark.parametrize(
    "rows, error",
    [("COM-QN-7|$5", "UnitError: b.txt: line 3: no conversion from 'USD' to 'weeks'"),
     ("COM-QN-1|lots of grants",
      "ValueParseError: b.txt: line 3: cannot parse 'lots of grants' for indicator COM-QN-1"),
     ("COM-QN-1|1,5", "ValueParseError: b.txt: line 3: cannot parse '1,5' for indicator "
                      "COM-QN-1: misgrouped thousands separator"),
     ("COM-QN-1|3\ncom-qn-2|5",
      "ParseError: b.txt: line 4: indicator id 'com-qn-2' must be upper-case"),
     ("COM-QN-99|3",
      "UnknownIndicator: b.txt: line 3: indicator 'COM-QN-99' not present in the active schema"),
     ("COM-QN-1|10\nCOM-QN-1|11",
      "DuplicateIndicator: b.txt: line 4: duplicate observation for indicator 'COM-QN-1'"),
     ("COM-QN-1|10\nCOM-QN-1|10",
      "DuplicateIndicator: b.txt: line 4: duplicate observation for indicator 'COM-QN-1'"),
     ("governance|9", "RubricRangeError: b.txt: line 3: rubric score 9 for criterion "
                      "'governance' outside the 1..5 scale"),
     ("governance|x", "ParseError: b.txt: line 3: rubric score 'x' is not an integer"),
     ("velocity|3", "UnknownCriterion: b.txt: line 3: criterion 'velocity' not present in "
                    "the rubric template"),
     ("COM-QN-1|1|2|3", "ParseError: b.txt: line 3: observation rows have 2 or 3 fields")],
    ids=["unit", "value-parse", "misgrouped-thousands", "lower-case-id", "unknown-indicator",
         "duplicate", "duplicate-memoised", "rubric-range", "rubric-not-an-integer",
         "unknown-criterion", "row-shape"],
)
def test_a_bad_row_names_the_file_and_the_line(tmp_path, monkeypatch, gmi_run, rows, error):
    # The second copy of a line is read through the schema's line memo, so
    # "duplicate-memoised" checks that path names its line too.
    monkeypatch.chdir(tmp_path)
    Path("b.txt").write_text(f"program|B\n# a comment\n{rows}\n", encoding="utf-8")
    for argv in (["validate", "b.txt"], ["score", PROGRAM_FILES[0], "b.txt", "--allow-partial"]):
        assert gmi_run(*argv) == (2, b"", f"{error}\n"), argv


@pytest.mark.parametrize(
    "name, text, argv, message",
    [("rates.txt", "ARB|1.0\nOP|x\n", ["score", *PROGRAM_FILES, "--rates", "rates.txt"],
      "rate 'x' is not a number"),
     ("rates.txt", "ARB|1.0\nOP|1|2\n", ["score", *PROGRAM_FILES, "--rates", "rates.txt"],
      "rate rows have 2 fields"),
     ("schema.txt", "id|category|kind|data_type|unit|direction|description\n"
                    "XYZ-QN|XYZ|synthetic|n.a.|none|non-scorable|Bogus\n",
      ["validate", PROGRAM_FILES[0], "--schema", "schema.txt"],
      "unknown category code 'XYZ'"),
     ("table.txt", "program|FAO|PSO|GOV|EFI|TAC|COM\nA|1|1|x|1|1|1\n",
      ["score", "table.txt", "--mode", "precomputed-categories"],
      "score 'x' is not a number")],
    ids=["rates", "rates-field-count", "schema", "category-table"],
)
def test_every_file_error_names_its_file(tmp_path, monkeypatch, capsys, name, text, argv,
                                         message):
    monkeypatch.chdir(tmp_path)
    Path(name).write_text(text, encoding="utf-8")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"ParseError: {name}: line 2: {message}\n"


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["score", *PROGRAM_FILES, "--allow-partial"], 0),
        (["score", *PROGRAM_FILES], 1),
        (["score", "does-not-exist.txt"], 2),
    ],
    ids=["success", "domain-failure", "input-error"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
def test_main_restores_the_callers_gc_state(capsys, monkeypatch, argv, expected, enabled):
    # Objects that outlive the command, as a caller keeping results makes,
    # are what a deferred collection would have to traverse.
    survivors = []

    def schema_with_survivors():
        survivors.append([[] for _ in range(2 * gc.get_threshold()[0])])
        return builtin_schema()

    monkeypatch.setattr(gmi.cli, "builtin_schema", schema_with_survivors)
    was_enabled = gc.isenabled()
    if enabled:
        gc.enable()
    else:
        gc.disable()
    try:
        assert main(argv) == expected
        assert gc.isenabled() is enabled
        if enabled:
            # main collected what it left behind; no collection is pending.
            assert gc.get_count()[0] < gc.get_threshold()[0]
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()
    assert survivors
    capsys.readouterr()
