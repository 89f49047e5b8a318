"""Benchmark of the gmi engine, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from
``src/``.  Workloads (``BENCHMARK.json`` says why each was chosen):

* ``bundled-cli``: a seeded rotation of short ``gmi`` commands on the
  bundled four-program data, checked byte for byte against
  ``tests/golden``.
* ``cohort-score-1k``: ``gmi score`` over 1000 generated programs with
  ``--rates --allow-partial --format structured``, checked against a
  plain-loop reference.
* ``cohort-validate-4k``: ``gmi validate`` over 4000 generated programs,
  checked verdict by verdict against the reference.  It is not listed in
  ``BENCHMARK.json``: its runs would not fit that benchmark's time budget at
  a run length that is steady on a noisy two-core machine.

With ``--trace 0`` every operation is one ``gmi`` child process, run one at
a time, and the end-to-end metrics come from those processes.  With
``--trace 1`` the same operations call ``gmi.cli.main`` in-process, once
untraced and once traced, and the per-layer metrics come from spans the
benchmark's wrappers record around the engine's public functions.  The
spans of the last traced round are written to
``.perfbench_traces/<workload>.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a human-readable
summary, including the error rate, goes to standard error.  Use
``--workload all`` to run every workload in turn and print that summary to
standard output.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_traces"

#: Least number of fresh interpreters timed for set-up, and for import time.
SETUP_SAMPLES = 15
IMPORT_SAMPLES = 9
#: Runs the ``gmi`` console entry point exactly as the installed script does.
ENTRY = "import sys; from gmi.cli import main; sys.exit(main())"
COLD_START = ("import gmi.cli, gmi.rubric, gmi.schema; "
              "gmi.schema.builtin_schema(); gmi.rubric.builtin_template()")

END_TO_END = {
    "setup_s": "s",
    "invocation_ms.p50": "ms",
    "programs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Reported in the summary only: a cohort run holds too few invocations for
#: a steady 90th percentile (none with ten samples beyond it).
SUMMARY_ONLY = {"invocations": "count", "invocation_ms.p90": "ms"}


class CheckoutError(Exception):
    """The working directory is not a gmi source checkout."""


@dataclass
class Op:
    """One ``gmi`` command and the check its output must pass."""
    name: str
    argv: list[str]
    programs: int
    check: Callable[[int, bytes], bool]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _bundled_ops(seed: int) -> tuple[list[Op], Callable[[], list[Op]]]:
    from gmi.bundled import bundled_category_table_path, bundled_program_paths
    from gmi.rubric import builtin_template
    from gmi.schema import builtin_schema, load_schema

    programs = [str(p) for p in bundled_program_paths()]  # golden order, not glob order
    table = str(bundled_category_table_path())
    schema = builtin_schema()
    criteria = [c.id for c in builtin_template().criteria]

    def golden(name: str) -> Callable[[int, bytes], bool]:
        expected = (GOLDEN / name).read_bytes()
        return lambda code, out: code == 0 and out == expected

    def validate_ok(code: int, out: bytes) -> bool:
        # GOV is unscorable for every bundled program and TAC for Optimism,
        # so the documented status is 1 (domain failure).
        text = out.decode("utf-8")
        return (code == 1 and text.count("Program: ") == 4
                and text.count("=> unscorable categories: GOV\n") == 3
                and "=> unscorable categories: GOV, TAC\n" in text)

    def schema_ok(code: int, out: bytes) -> bool:
        return code == 0 and load_schema(out) == schema

    def template_ok(code: int, out: bytes) -> bool:
        lines = out.decode("utf-8").splitlines()
        return code == 0 and [ln for ln in lines if not ln.startswith("#")] == [
            f"{c}|" for c in criteria]

    precomputed = ["score", table, "--mode", "precomputed-categories", "--format"]
    ops = [
        Op("score-raw", ["score", *programs, "--allow-partial"], 4,
           golden("raw_partial_comparison.table.txt")),
        *(Op(f"score-precomputed-{fmt}", [*precomputed, fmt], 4,
             golden(f"published_comparison.{fmt}.txt"))
          for fmt in ("table", "delimited", "structured")),
        Op("validate", ["validate", *programs], 4, validate_ok),
        Op("schema-dump", ["schema", "dump"], 0, schema_ok),
        Op("survey-template", ["survey", "template"], 0, template_ok),
    ]
    rng = random.Random(seed)

    def rotation() -> list[Op]:
        order = list(ops)
        rng.shuffle(order)
        return order

    return ops, rotation


def _write_cohort(seed: int, count: int, workdir: Path):
    from cohort import generate

    cohort = generate(seed, count)
    paths = []
    for index, program in enumerate(cohort.programs):
        path = workdir / f"p{index:05d}.txt"
        path.write_text(program.text, encoding="utf-8")
        paths.append(str(path))
    rates = workdir / "rates.txt"
    rates.write_text(cohort.rates_text, encoding="utf-8")
    return cohort, paths, str(rates)


def _verified_once(check: Callable[[int, bytes], bool]) -> Callable[[int, bytes], bool]:
    """Run *check* fully until it passes once; afterwards an output equal
    to that verified output passes without re-checking."""
    verified: list[tuple[int, bytes]] = []

    def cached(code: int, out: bytes) -> bool:
        if verified and verified[0] == (code, out):
            return True
        ok = check(code, out)
        if ok and not verified:
            verified.append((code, out))
        return ok

    return cached


def check_scores(cohort, code: int, out: bytes) -> bool:
    """The structured output of ``gmi score`` matches the reference."""
    import reference
    from gmi.report import parse_structured

    if code != 0:
        return False
    expected = reference.composites(cohort)
    results = parse_structured(out)
    if [r.program for r in results] != [p.name for p in cohort.programs]:
        return False
    for result in results:
        want = expected[result.program]
        if not (math.isfinite(result.gmi) and 0.0 <= result.gmi <= 6.0):
            return False
        if abs(result.gmi - want) > 1e-4:
            return False
        near_threshold = any(abs(want - upper) <= 1e-4 for upper, _ in reference.STAGES)
        if result.stage.value != reference.stage_of(want) and not near_threshold:
            return False
    return True


def check_validation(cohort, code: int, out: bytes) -> bool:
    """The verdicts and exit status of ``gmi validate`` match the reference."""
    import reference

    expected = reference.scorable_categories(cohort)
    want_code = 0 if all(len(cats) == len(reference.CATEGORIES)
                         for cats in expected.values()) else 1
    if code != want_code:
        return False
    seen: list[str] = []
    verdicts: dict[str, set[str]] = {}
    for line in out.decode("utf-8").splitlines():
        if line.startswith("Program: "):
            seen.append(line[len("Program: "):])
            verdicts[seen[-1]] = set()
        elif line.startswith("  ") and ": scorable=" in line[:20]:
            category, rest = line.strip().split(": scorable=", 1)
            if rest.startswith("yes "):
                verdicts[seen[-1]].add(category)
    return seen == [p.name for p in cohort.programs] and verdicts == expected


def cohort_score_op(seed: int, count: int, workdir: Path) -> Op:
    cohort, paths, rates = _write_cohort(seed, count, workdir)
    check = _verified_once(lambda code, out: check_scores(cohort, code, out))
    return Op("score", ["score", *paths, "--rates", rates, "--allow-partial",
                        "--format", "structured"], count, check)


def cohort_validate_op(seed: int, count: int, workdir: Path) -> Op:
    cohort, paths, _ = _write_cohort(seed, count, workdir)
    check = _verified_once(lambda code, out: check_validation(cohort, code, out))
    return Op("validate", ["validate", *paths], count, check)


def build_workload(name: str, seed: int, workdir: Path) -> tuple[Callable[[], list[Op]], int]:
    """Inputs and operations for *name*; returns a function giving the next
    batch of operations, and the bytes of input files each batch reads."""
    if name == "bundled-cli":
        ops, rotation = _bundled_ops(seed)
        return rotation, sum(_input_bytes(op.argv) for op in ops)
    if name == "cohort-score-1k":
        op = cohort_score_op(seed, 1000, workdir)
    elif name == "cohort-validate-4k":
        op = cohort_validate_op(seed, 4000, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return (lambda: [op]), _input_bytes(op.argv)


def _input_bytes(argv: list[str]) -> int:
    return sum(os.path.getsize(a) for a in argv if os.path.isfile(a))


WORKLOADS = ("bundled-cli", "cohort-score-1k", "cohort-validate-4k")


# ---------------------------------------------------------------------------
# Untraced run: one child process per operation
# ---------------------------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], workdir: Path) -> tuple[int, bytes, float, float]:
    """Run one ``gmi`` process; returns exit status, stdout, wall seconds and
    peak RSS in MB.  The child's standard error passes through."""
    out_path = workdir / "stdout.bin"
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], stdout=out,
                                env=_child_env(), cwd=workdir)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_bytes(), wall, usage.ru_maxrss / 1024


def passes(op: Op, code: int, out: bytes) -> bool:
    """Whether *op*'s output is correct; a check that cannot even read the
    output counts as a failed operation."""
    try:
        ok = op.check(code, out)
    except Exception:  # malformed output must fail the operation, not the run
        traceback.print_exc()
        ok = False
    if not ok:
        print(f"operation {op.name} failed its output check (exit status {code})",
              file=sys.stderr)
    return ok


def _child_seconds(code: str, workdir: Path) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=workdir, check=True)
    return time.perf_counter() - start


def measure_untraced(batches: Callable[[], list[Op]], seconds: float,
                     workdir: Path) -> tuple[dict[str, float], int, int]:
    _child_seconds(COLD_START, workdir)  # write the bytecode cache
    walls, rss, setups, programs = [], [], [], 0
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while len(walls) < 2 or time.perf_counter() < deadline:
        batch_wall = 0.0
        for op in batches():
            code, out, wall, peak = run_child(op.argv, workdir)
            attempted += 1
            failed += not passes(op, code, out)
            walls.append(wall)
            rss.append(peak)
            programs += op.programs
            batch_wall += wall
        # Cold starts are spread over the run, one per two seconds of
        # operations, so that set-up time sees the machine the operations saw.
        for _ in range(max(1, round(batch_wall / 2))):
            setups.append(_child_seconds(COLD_START, workdir))
    while len(setups) < SETUP_SAMPLES:
        setups.append(_child_seconds(COLD_START, workdir))
    metrics = {
        "setup_s": statistics.median(setups),
        "invocation_ms.p50": statistics.median(walls) * 1e3,
        "programs_per_s": programs / sum(walls),
        "peak_rss_mb": max(rss),
        "invocations": len(walls),
        "invocation_ms.p90": statistics.quantiles(walls, n=10)[8] * 1e3,
    }
    return metrics, attempted, failed


# ---------------------------------------------------------------------------
# Traced run: in-process calls, spans from the benchmark's wrappers
# ---------------------------------------------------------------------------

#: (module, binding, span name, keep arguments and result for counters)
WRAPPED = (
    ("gmi.cli", "main", "cli.main", False),
    ("gmi.cli", "builtin_schema", "schema.builtin_schema", False),
    ("gmi.cli", "dump_schema", "schema.dump_schema", False),
    ("gmi.cli", "load_program_dataset", "ingest.load_program_dataset", True),
    ("gmi.cli", "load_rates", "ingest.load_rates", False),
    ("gmi.cli", "validate_dataset", "ingest.validate_dataset", False),
    ("gmi.ingest", "parse_value", "ingest.parse_value", False),
    ("gmi.ingest", "coerce_unit", "ingest.coerce_unit", False),
    ("gmi.ingest", "scoring_status", "ingest.scoring_status", False),
    ("gmi.scoring", "scoring_status", "ingest.scoring_status", False),
    ("gmi.rubric", "builtin_template", "rubric.builtin_template", False),
    ("gmi.rubric", "collect_responses", "rubric.collect_responses", False),
    ("gmi.cli", "render_template", "rubric.render_template", False),
    ("gmi.cli", "score_datasets", "scoring.score_datasets", True),
    ("gmi.cli", "load_category_table", "scoring.load_category_table", False),
    ("gmi.cli", "score_category_table", "scoring.score_category_table", False),
    ("gmi.scoring", "compute_gmi", "scoring.compute_gmi", True),
    ("gmi.scoring", "minmax_normalize", "scoring.minmax_normalize", True),
    ("gmi.cli", "render_comparison", "report.render_comparison", False),
    ("gmi.cli", "render_validation", "report.render_validation", False),
)

SELF_TIMES = (
    "scoring.compute_gmi", "scoring.score_datasets", "scoring.minmax_normalize",
    "ingest.parse_value", "ingest.load_program_dataset", "ingest.coerce_unit",
    "ingest.scoring_status", "ingest.validate_dataset", "report.render_validation",
    "report.render_comparison", "rubric.collect_responses", "schema.builtin_schema",
    "cli.main",
)
CALL_COUNTS = (
    "scoring.compute_gmi", "scoring.score_datasets", "scoring.minmax_normalize",
    "ingest.parse_value", "ingest.scoring_status",
)
VALUE_KINDS = ("number", "ratio", "money", "token-amount", "binary", "country", "text",
               "missing")
EXCLUSION_REASONS = ("missing", "non-scorable", "token-unconverted")
SHAPE_COUNTERS = (
    *(f"ingest.cells.{kind}" for kind in VALUE_KINDS),
    *(f"scoring.excluded.{reason}" for reason in EXCLUSION_REASONS),
    "scoring.degenerate_columns", "scoring.partial_programs",
    "cli.bytes_in", "cli.bytes_out",
)


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name in SELF_TIMES}
    units.update({f"{name}.calls": "count" for name in CALL_COUNTS})
    units.update({name: "count" for name in SHAPE_COUNTERS})
    units.update({"cli.bytes_in": "bytes", "cli.bytes_out": "bytes", "cli.import_s": "s",
                  "trace.overhead_s": "s"})
    return units


def call_main(argv: list[str]) -> tuple[int, bytes]:
    """Call ``gmi.cli.main`` in-process with standard output captured."""
    import gmi.cli

    buffer = io.BytesIO()
    stdout, stderr = sys.stdout, sys.stderr
    sys.stdout = io.TextIOWrapper(buffer, encoding="utf-8")
    sys.stderr = io.StringIO()
    try:
        code = gmi.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an engine crash fails this operation, not the run
        traceback.print_exc(file=stderr)
        code = -1
    finally:
        sys.stdout.flush()
        sys.stdout.detach()
        sys.stdout, sys.stderr = stdout, stderr
    return code, buffer.getvalue()


def install(tracer) -> None:
    import importlib

    for module, attr, name, keep in WRAPPED:
        tracer.wrap(importlib.import_module(module), attr, name, keep)


def shape_counters(tracer, bytes_in: int, bytes_out: int) -> dict[str, int]:
    """Counts of the work itself, derived from the kept arguments and
    results; they must repeat exactly from run to run."""
    from gmi.scoring import Excluded

    counts = dict.fromkeys(SHAPE_COUNTERS, 0)
    counts["cli.bytes_in"], counts["cli.bytes_out"] = bytes_in, bytes_out
    # Each observation row is one parse_value call; coerce_unit keeps the kind.
    for _, dataset in tracer.kept_calls("ingest.load_program_dataset"):
        for obs in dataset.observations.values():
            counts[f"ingest.cells.{obs.value.kind.value}"] += 1
    for (values,), _ in tracer.kept_calls("scoring.minmax_normalize"):
        present = [v for v in values.values() if v is not None]
        counts["scoring.degenerate_columns"] += bool(present) and max(present) <= min(present)
    for _, (matrix, _) in tracer.kept_calls("scoring.score_datasets"):
        for entry in matrix.entries.values():
            if isinstance(entry, Excluded):
                counts[f"scoring.excluded.{entry.reason}"] += 1
    for _, results in tracer.kept_calls("scoring.compute_gmi"):
        counts["scoring.partial_programs"] += sum(
            len(r.normalized_category_scores) < 6 for r in results.values())
    return counts


def traced_round(tracer, ops: list[Op], bytes_in: int) -> tuple[dict[str, float], int, int]:
    """Run *ops* untraced, then traced; returns this round's per-layer
    values and the attempted and failed counts."""
    attempted = failed = 0
    walls = {}
    for traced in (False, True):
        tracer.clear()
        if traced:
            install(tracer)
        wall = bytes_out = 0
        try:
            for op in ops:
                start = time.perf_counter()
                code, out = call_main(op.argv)
                wall += time.perf_counter() - start
                attempted += 1
                failed += not passes(op, code, out)
                bytes_out += len(out)
        finally:
            tracer.unwrap()
        walls[traced] = wall

    self_s, calls, _ = tracer.self_times()
    values: dict[str, float] = {f"{n}.self_s": self_s.get(n, 0.0) for n in SELF_TIMES}
    values.update({f"{n}.calls": calls.get(n, 0) for n in CALL_COUNTS})
    values.update(shape_counters(tracer, bytes_in, bytes_out))
    values["trace.overhead_s"] = walls[True] - walls[False]
    return values, attempted, failed


def measure_traced(batches: Callable[[], list[Op]], bytes_in: int, seconds: float,
                   workdir: Path, trace_path: Path) -> tuple[dict[str, float], int, int]:
    from tracer import Tracer

    bare, imported = [], []
    for _ in range(IMPORT_SAMPLES):
        bare.append(_child_seconds("pass", workdir))
        imported.append(_child_seconds("import gmi.cli", workdir))

    tracer = Tracer()
    rounds: list[dict[str, float]] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        values, a, f = traced_round(tracer, batches(), bytes_in)
        rounds.append(values)
        attempted += a
        failed += f
    trace_path.parent.mkdir(exist_ok=True)
    tracer.dump(trace_path)
    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    metrics["cli.import_s"] = statistics.median(imported) - statistics.median(bare)
    return metrics, attempted, failed


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _use_checkout() -> None:
    """Import the engine from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "gmi" / "cli.py").is_file() or not GOLDEN.is_dir():
        raise CheckoutError(f"{ROOT} is not a gmi source checkout (no src/gmi, tests/golden)")
    sys.path.insert(0, str(SRC))
    import gmi

    if Path(gmi.__file__).resolve().parent != (SRC / "gmi").resolve():
        raise CheckoutError(f"gmi imported from {gmi.__file__}, not from {SRC}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, str]:
    """The result object for *name*, and a human-readable summary."""
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        batches, bytes_in = build_workload(name, seed, workdir)
        if trace:
            metrics, attempted, failed = measure_traced(
                batches, bytes_in, seconds, workdir, TRACES / f"{name}.tsv")
            units = per_layer_units()
        else:
            metrics, attempted, failed = measure_untraced(batches, seconds, workdir)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    lines = [f"{name}: attempted {attempted}, failed {failed}, "
             f"error_rate {failed / attempted:.4f}"]
    for key, unit in (units if trace else {**units, **SUMMARY_ONLY}).items():
        lines.append(f"  {key:<36} {metrics[key]:>14.6g} {unit}")
    return result, "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _use_checkout()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.workload == "all":
        for name in WORKLOADS:
            print(run_workload(name, args.seed, args.seconds, bool(args.trace))[1], flush=True)
        return 0
    result, text = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(text, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
