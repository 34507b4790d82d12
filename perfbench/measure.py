"""The benchmark's measuring process: runs driftlab experiments through the
public API (config.load_config -> harness.run_experiment ->
harness.persist_results) and checks and times them.

run.py starts this script in a fresh interpreter with BLAS threads pinned
and ``src/`` on PYTHONPATH. Subcommands:

    golden      regenerate configs/quickstart.yaml and configs/flip_t2.yaml
                into a temporary directory and compare them byte for byte
                with the committed results/
    run         repeat one workload for --seconds and print its metrics as
                one JSON line
    reference   rewrite reference.json: per-run row digests of every
                workload at the default workload seed
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import driftlab
from driftlab import config, harness
from spans import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, write_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
GOLDEN_CONFIGS = ("quickstart", "flip_t2")
ROW_FILES = ("matrix.csv", "summary.csv", "routing.csv", "projection.csv")
MIN_REPEATS = 3

if not os.path.abspath(driftlab.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    raise ImportError(f"driftlab was imported from {driftlab.__file__}, not from this checkout")


class TraceError(RuntimeError):
    """A span the workload exercises recorded no calls."""


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def row_digests(records, out_dir) -> dict:
    """SHA-256 of each run's persisted rows, {run_id: hex}; None for a failed run."""
    rows = {}
    for name in ROW_FILES:
        with open(os.path.join(out_dir, name)) as fh:
            next(fh)
            for line in fh:
                rows.setdefault(line.split(",", 1)[0], []).append(f"{name}:{line}")
    return {rec.run_id: (hashlib.sha256("".join(rows.get(rec.run_id, [])).encode())
                         .hexdigest() if rec.ok else None)
            for rec in records}


def count_failed(records, digests, reference) -> int:
    """Runs that failed or whose rows differ from the reference digests."""
    return sum(1 for rec in records
               if not rec.ok or digests[rec.run_id] != reference.get(rec.run_id))


def failed_ratio(failed: int, attempted: int) -> float:
    return failed / attempted


def tree_mismatches(produced, golden) -> list:
    """Relative paths that are missing, extra or different in produced."""
    def files(root):
        return {os.path.relpath(os.path.join(d, f), root)
                for d, _, names in os.walk(root) for f in names}

    ours, theirs = files(produced), files(golden)
    bad = sorted(ours ^ theirs)
    for rel in sorted(ours & theirs):
        with open(os.path.join(produced, rel), "rb") as a, \
                open(os.path.join(golden, rel), "rb") as b:
            if a.read() != b.read():
                bad.append(rel)
    return bad


# ---------------------------------------------------------------------------
# One experiment
# ---------------------------------------------------------------------------


@dataclass
class Repeat:
    wall: float
    cpu: float
    records: list
    digests: dict


def run_experiment_once(cfg_path, jobs, tmp) -> Repeat:
    """load_config, then run_experiment + persist_results timed, into a fresh
    directory that is removed afterwards."""
    cfg = config.load_config(cfg_path)
    out = tempfile.mkdtemp(dir=tmp)
    try:
        cpu0, t0 = cpu_seconds(), perf_counter()
        records = harness.run_experiment(cfg, out_dir=out, jobs=jobs)
        harness.persist_results(records, out)
        wall, cpu = perf_counter() - t0, cpu_seconds() - cpu0
        digests = row_digests(records, out)
    finally:
        shutil.rmtree(out)
    return Repeat(wall, cpu, records, digests)


def cpu_seconds() -> float:
    """User plus system time of this process and of its reaped children."""
    return sum(u.ru_utime + u.ru_stime for u in
               map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))


def host_probe() -> float:
    """A fixed pure-Python loop; its time shows how fast the host is right now."""
    t0 = perf_counter()
    total = 0
    for i in range(200_000):
        total += i
    return perf_counter() - t0


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced repeat
# ---------------------------------------------------------------------------

_TIMED = {
    "training.train_classifier": ("calls", "s", "self_s", "steps"),
    "nn.loss_and_grad": ("calls", "rows", "s"),
    "optim.apply_step": ("calls", "s"),
    "training.estimate_fisher_diag": ("calls", "rows", "s"),
    "training.ewc_penalty": ("calls", "s"),
    "strategies.Strategy.clone": ("calls", "s"),
    "gmm.fit_generator": ("calls", "s", "em_iters"),
    "gmm.sample_buffer": ("rows", "s"),
    "kmeans.CentroidRouter.add_domain": ("s",),
    "kmeans.CentroidRouter.predict": ("rows", "s"),
    "nn.predict": ("rows", "s"),
    "pca.pca_project_2d": ("s",),
    "memory.update_replay_buffer": ("s",),
    "memory.compose_replay_trainset": ("s",),
    "memory.build_router_trainset": ("s",),
    "strategies.save_checkpoint": ("s", "bytes"),
    "harness.persist_results": ("s", "bytes"),
    "benchmarks.build_stream": ("s",),
    "config.load_config": ("s",),
    "harness.execute_run": ("s",),
}


def layer_metrics(stats, wall, root_s, records, jobs) -> dict:
    """Per-layer metrics of one traced experiment taking wall seconds, whose
    outermost traced spans inside that wall time took root_s seconds."""
    def get(span, key):
        return stats.get(span, {}).get(key, 0)

    out = {f"{span}.{key}": get(span, key)
           for span, keys in _TIMED.items() for key in keys}
    candidates = get("harness.select", "candidates")
    out["harness.select.useful_ratio"] = (
        get("harness.select", "calls") / candidates if candidates else 0.0)
    mixtures = get("gmm.fit_generator", "mixtures")
    out["gmm.fit_generator.converged_ratio"] = (
        get("gmm.fit_generator", "converged") / mixtures if mixtures else 0.0)
    busy = sum(rec.duration for rec in records) if jobs > 1 else 0.0
    out["harness.pool.busy_s"] = busy
    out["harness.pool.idle_frac"] = 1.0 - busy / (jobs * wall) if jobs > 1 else 0.0
    out["harness.other_s"] = wall - root_s
    out["trace.wall_s"] = wall
    return out


def check_spans(stats, expects):
    missing = [span for span in expects if not stats.get(span, {}).get("calls")]
    if missing:
        raise TraceError(f"no calls recorded for expected spans {missing}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = os.path.join(ROOT, "src", "driftlab")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cmd_golden(args) -> int:
    bad = []
    for name in GOLDEN_CONFIGS:
        cfg = config.load_config(os.path.join(ROOT, "configs", f"{name}.yaml"))
        out = tempfile.mkdtemp(dir=args.tmp)
        try:
            records = harness.run_experiment(cfg, out_dir=out, jobs=2)
            harness.persist_results(records, out)
            bad += [f"results/{name}/{rel}" for rel in
                    tree_mismatches(out, os.path.join(ROOT, "results", name))]
        finally:
            shutil.rmtree(out)
    for rel in bad:
        print(f"golden mismatch: {rel}", file=sys.stderr)
    return 1 if bad else 0


def cmd_run(args) -> int:
    workload = WORKLOADS[args.workload]
    jobs = workload.jobs
    with open(REFERENCE) as fh:
        stored = json.load(fh)[workload.name]
    attempted = failed = 0
    reference = stored if args.seed == DEFAULT_SEED else None

    def repeat() -> Repeat:
        nonlocal attempted, failed, reference
        rep = run_experiment_once(args.config, jobs, args.tmp)
        if reference is None:
            reference = rep.digests
        attempted += len(rep.records)
        failed += count_failed(rep.records, rep.digests, reference)
        return rep

    repeat()                                  # warm-up: lazy imports, caches
    tracer = None
    if args.trace:
        spool = os.path.join(args.tmp, "spool")
        os.makedirs(spool)
        tracer = Tracer(spool)
    walls, cpus, probes, layers = [], [], [], []
    deadline = perf_counter() + args.seconds
    while len(walls) < MIN_REPEATS or perf_counter() < deadline:
        probes.append(host_probe())
        rep = repeat()
        walls.append(rep.wall)
        cpus.append(rep.cpu)
        if tracer is None:
            continue
        tracer.reset()
        tracer.install()
        try:
            rep = repeat()
        finally:
            tracer.uninstall()
        tracer.collect()
        check_spans(tracer.stats, workload.expects)
        # load_config is an outermost span too, but it runs before the wall clock starts
        inside_wall = tracer.root_s - tracer.stats["config.load_config"]["s"]
        layers.append(layer_metrics(tracer.stats, rep.wall, inside_wall, rep.records, jobs))

    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    if tracer is None:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mib": max(usage) / 1024.0,      # ru_maxrss is in KiB
            "ok_ratio": 1.0 - failed_ratio(failed, attempted),
        }
    else:
        metrics = {key: statistics.median(layer[key] for layer in layers)
                   for key in layers[0]}
        metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / statistics.median(walls)
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "wall_s_all": walls,
        "host_probe_s": {"median": statistics.median(probes), "min": min(probes),
                         "max": max(probes)},
        "env": environment(),
    }))
    return 0


def cmd_reference(args) -> int:
    reference = {}
    for name, workload in WORKLOADS.items():
        path = write_config(workload.config(DEFAULT_SEED),
                            os.path.join(args.tmp, f"{name}.yaml"))
        rep = run_experiment_once(path, workload.jobs, args.tmp)
        if not all(rec.ok for rec in rep.records):
            print(f"{name}: a run failed; not writing a reference", file=sys.stderr)
            return 1
        reference[name] = rep.digests
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in ("golden", "run", "reference"):
        p = sub.add_parser(name)
        p.add_argument("--tmp", required=True, help="directory for temporary outputs")
    run = sub.choices["run"]
    run.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    run.add_argument("--config", required=True, help="the workload's config file")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    return {"golden": cmd_golden, "run": cmd_run, "reference": cmd_reference}[args.cmd](args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except TraceError as exc:
        print(f"tracing error: {exc}", file=sys.stderr)
        sys.exit(3)
