"""Command-line front end.

Subcommands:

* run <config> [--out DIR] [--jobs N]   execute the experiment, persist results
* report <DIR>                          print the saved comparison tables
* project <run_id> --router KIND [--dir DIR]   print one run's PCA rows
* validate <config>                     check a config, list every violation

Exit codes: 0 success, 1 validation failure (bad config, unknown run id,
missing files), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from .config import load_config
from .errors import ConfigError, DriftLabError, ValidationError
from .harness import PROJECTION_HEADER, persist_results, run_experiment
from .strategies import ROUTER_KINDS

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


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
    p_run.add_argument("--jobs", type=int, default=1, help="parallel runs (default 1)")

    p_report = sub.add_parser("report", help="print the saved report of an experiment")
    p_report.add_argument("dir", help="results directory containing report.txt")

    p_project = sub.add_parser("project", help="print PCA projection rows of one run")
    p_project.add_argument("run_id", help="run identifier from the result CSVs")
    p_project.add_argument("--router", required=True,
                           choices=ROUTER_KINDS,
                           help="router kind the projection belongs to")
    p_project.add_argument("--dir", default="results", help="results directory")

    p_validate = sub.add_parser("validate", help="validate a config file")
    p_validate.add_argument("config", help="path to a YAML experiment config")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be >= 1, got {args.jobs}")
    out = args.out if args.out is not None else cfg.out_dir
    records = run_experiment(cfg, out_dir=out, jobs=args.jobs)
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


def _cmd_report(args) -> int:
    path = os.path.join(args.dir, "report.txt")
    if not os.path.exists(path):
        raise ValidationError(f"no report.txt under {args.dir!r}; run an experiment first")
    with open(path) as fh:
        print(fh.read(), end="")
    return EXIT_OK


def _cmd_project(args) -> int:
    path = os.path.join(args.dir, "projection.csv")
    if not os.path.exists(path):
        raise ValidationError(f"no projection.csv under {args.dir!r}")
    rows = []
    with open(path) as fh:
        for row in csv.DictReader(fh):
            if row["run_id"] == args.run_id and row["router_kind"] == args.router:
                rows.append(row)
    if not rows:
        raise ValidationError(
            f"no projection rows for run {args.run_id!r} with router {args.router!r}"
        )
    print(PROJECTION_HEADER)
    fields = PROJECTION_HEADER.split(",")
    for row in rows:
        print(",".join(row[f] for f in fields))
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
    handler = {
        "run": _cmd_run,
        "report": _cmd_report,
        "project": _cmd_project,
        "validate": _cmd_validate,
    }[args.command]
    try:
        return handler(args)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DriftLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
