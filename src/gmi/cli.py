"""Command-line front end for reproducible batch runs.

Subcommands: ``validate``, ``score`` (registered with the alias
``compare``, so both names run one parser), ``survey template`` and
``schema dump``.  Exit statuses: 0 success, 1 domain failure (unscorable
data, partial cohorts), 2 input or usage failure; ``main`` alone maps
errors to them.

``main`` runs a command with the cyclic garbage collector suspended: a
scoring run keeps every cell of the cohort alive until it returns and
creates no reference cycles, so automatic collections would only traverse
live objects.  On return it collects the youngest generation, so that no
collection is left pending, and restores the caller's collector state.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .errors import EmptyCategory, GmiError, PartialDataError
from .ingest import (check_distinct_programs, column_bounds, load_program_dataset, load_rates,
                     validate_dataset)
from .report import FORMATS, render_comparison, render_validation
from .rubric import render_template
from .schema import Schema, builtin_schema, dump_schema, load_schema
from .scoring import GmiResult, load_category_table, score_category_table, score_datasets

SCHEMA_ENV_VAR = "GMI_SCHEMA"

MODE_RAW = "raw-indicators"
MODE_PRECOMPUTED = "precomputed-categories"

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _load(path: str, loader, *args):
    """*loader* run on the file at *path*; its errors name *path* as given.
    The file is read whole and unbuffered, in one system call per chunk."""
    with open(path, "rb", buffering=0) as file:
        data = file.read()
    try:
        return loader(data, *args)
    except GmiError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _active_schema(path: str | None) -> Schema:
    path = path or os.environ.get(SCHEMA_ENV_VAR)
    if not path:
        return builtin_schema()
    return _load(path, load_schema)


def _emit(payload: bytes, out: str | None) -> None:
    if out:
        with open(out, "wb") as file:
            file.write(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()


def _load_cohort(args: argparse.Namespace) -> tuple[Schema, list]:
    """The active schema and each input file's dataset under it; raises for
    a file that does not load, then for a program name two files share."""
    schema = _active_schema(args.schema)
    datasets = [_load(path, load_program_dataset, schema) for path in args.inputs]
    check_distinct_programs([ds.program for ds in datasets], args.inputs)
    return schema, datasets


def _cmd_validate(args: argparse.Namespace) -> int:
    schema, datasets = _load_cohort(args)
    columns: dict[str, list[float | None]] = {}
    reports = [validate_dataset(dataset, schema, columns) for dataset in datasets]
    for indicator, values in columns.items():  # the range rule score applies per column
        column_bounds(indicator, values)
    _emit(b"".join(map(render_validation, reports)), args.out)
    return EXIT_DOMAIN if any(report.unscorable_categories() for report in reports) else EXIT_OK


def _score_raw(args: argparse.Namespace) -> list[GmiResult]:
    """Load and score the observation files.  Only the results leave this
    frame, so the schema with its parse memos and the datasets are freed
    before the output is rendered."""
    rates = _load(args.rates, load_rates) if args.rates else None
    schema, datasets = _load_cohort(args)
    _, results = score_datasets(datasets, schema, rates=rates, allow_partial=args.allow_partial)
    return results


def _cmd_score(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.mode == MODE_PRECOMPUTED:
        if args.rates:
            parser.error("--rates cannot be combined with precomputed-categories mode")
        if len(args.inputs) != 1:
            parser.error("precomputed-categories mode takes exactly one input file")
        table = _load(args.inputs[0], load_category_table)
        results = score_category_table(table, allow_partial=args.allow_partial)
        notes = table.notes
    else:
        results = _score_raw(args)
        notes = ()
    _emit(render_comparison(results, fmt=args.format, notes=notes), args.out)
    return EXIT_OK


def _cmd_survey_template(args: argparse.Namespace) -> int:
    _emit(render_template().encode("utf-8"), args.out)
    return EXIT_OK


def _cmd_schema_dump(args: argparse.Namespace) -> int:
    schema = _active_schema(args.schema)
    _emit(dump_schema(schema).encode("utf-8"), args.out)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--schema", metavar="PATH",
                        help=f"schema file (default: builtin, or ${SCHEMA_ENV_VAR})")
    parser.add_argument("--out", metavar="PATH", help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmi",
        description="Grant Maturity Index scoring engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="load datasets and report scorability")
    _add_common(p_validate)
    p_validate.add_argument("inputs", nargs="+", metavar="FILE")
    p_validate.set_defaults(func=_cmd_validate)

    p_score = sub.add_parser("score", aliases=["compare"],
                             help="run the scoring pipeline and render a comparison")
    _add_common(p_score)
    p_score.add_argument("inputs", nargs="+", metavar="FILE")
    p_score.add_argument("--mode", choices=(MODE_RAW, MODE_PRECOMPUTED), default=MODE_RAW)
    p_score.add_argument("--allow-partial", action="store_true",
                         help="rescale composites when categories are missing")
    p_score.add_argument("--rates", metavar="PATH",
                         help="token conversion table (SYMBOL|usd-per-token)")
    p_score.add_argument("--format", choices=FORMATS, default="table")
    p_score.set_defaults(func=lambda args: _cmd_score(args, p_score))

    p_survey = sub.add_parser("survey", help="self-assessment survey utilities")
    survey_sub = p_survey.add_subparsers(dest="survey_command", required=True)
    p_template = survey_sub.add_parser("template", help="print the blank survey")
    p_template.add_argument("--out", metavar="PATH")
    p_template.set_defaults(func=_cmd_survey_template)

    p_schema = sub.add_parser("schema", help="indicator registry utilities")
    schema_sub = p_schema.add_subparsers(dest="schema_command", required=True)
    p_dump = schema_sub.add_parser("dump", help="print the active schema")
    _add_common(p_dump)
    p_dump.set_defaults(func=_cmd_schema_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except GmiError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN if isinstance(exc, (PartialDataError, EmptyCategory)) else EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if gc_was_enabled:
            gc.collect(0)
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
