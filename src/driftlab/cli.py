"""Command-line front end.

Subcommands:

* run <config> [--out DIR] [--jobs N]   execute the experiment, persist results
* report <DIR>                          print the saved comparison tables
* project <run_id> [--dir DIR]          print one run's PCA rows
* validate <config>                     check a config, list every violation

Exit codes: 0 success, 1 validation failure (bad config, --jobs below 1,
unknown run id, missing, unreadable or non-UTF-8 result paths), 2 runtime
failure, 130 interrupted (Ctrl-C) with the results of the strategies
finished so far written. A command line argparse rejects (an unknown
subcommand, a non-integer --jobs) exits 2 with its usage message.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import load_config
from .errors import ConfigError, DriftLabError, ValidationError
from .harness import PROJECTION_HEADER, RunInterrupted, persist_results, run_experiment

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_INTERRUPTED = 130


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftlab",
        description="Domain-incremental continual-learning experiments on "
                    "synthetic benchmark streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to a YAML experiment config")
    p_run.add_argument("--out", default=None, help="output directory (default: config's out_dir)")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="strategies run in parallel processes (default 1)")

    p_report = sub.add_parser("report", help="print the saved report of an experiment")
    p_report.add_argument("dir", help="results directory containing report.txt")

    p_project = sub.add_parser("project", help="print PCA projection rows of one run")
    p_project.add_argument("run_id", help="run identifier from the result CSVs")
    p_project.add_argument("--dir", default="results", help="results directory")

    p_validate = sub.add_parser("validate", help="validate a config file")
    p_validate.add_argument("config", help="path to a YAML experiment config")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be >= 1, got {args.jobs}")
    out = args.out if args.out is not None else cfg.out_dir
    os.makedirs(out, exist_ok=True)   # an out dir that cannot be made fails before the runs
    try:
        records = run_experiment(cfg, out_dir=out, jobs=args.jobs)
    except RunInterrupted as stop:
        persist_results(stop.records, out)
        print(f"interrupted: {len(stop.records)} finished runs written to {out}",
              file=sys.stderr)
        return EXIT_INTERRUPTED
    persist_results(records, out)
    failed = [r for r in records if not r.ok]
    for rec in records:
        status = f"FAILED ({rec.failure})" if not rec.ok else f"A_T={rec.final_accuracy:.4f}"
        print(f"{rec.run_id}  {rec.strategy:<16} seed={rec.seed:<6} {status}")
    print(f"results written to {out}")
    if failed:
        print(f"{len(failed)} of {len(records)} runs failed", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _read(out_dir, name) -> str:
    """The text of a result file; an unreadable or non-UTF-8 one is a ValidationError."""
    path = os.path.join(out_dir, name)
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ValidationError(f"no {name} under {out_dir!r}; run an experiment first") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def _cmd_report(args) -> int:
    print(_read(args.dir, "report.txt"), end="")
    return EXIT_OK


def _cmd_project(args) -> int:
    lines = _read(args.dir, "projection.csv").splitlines()
    if lines[:1] != [PROJECTION_HEADER]:
        raise ValidationError(f"the first line of projection.csv under {args.dir!r} "
                              f"is not {PROJECTION_HEADER!r}")
    rows = [line for line in lines[1:] if line.split(",", 1)[0] == args.run_id]
    if not rows:
        raise ValidationError(f"no projection rows for run {args.run_id!r}")
    print("\n".join([PROJECTION_HEADER, *rows]))
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"invalid config: {len(exc.violations)} problem(s)", file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        return EXIT_VALIDATION
    names = ", ".join(sc.name for sc in cfg.strategies)
    print(f"ok: {len(cfg.strategies)} strategies ({names}), "
          f"{len(cfg.seeds)} seeds, benchmark {cfg.benchmark.kind} "
          f"with {cfg.benchmark.n_domains} domains")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "report": _cmd_report, "project": _cmd_project,
               "validate": _cmd_validate}[args.command]
    try:
        return handler(args)
    except (ConfigError, ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DriftLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
