"""Experiment runner: strategy x seed sweeps, deterministic persistence.

A run is one (strategy, seed) pair. The stream is rebuilt from the seed
alone, so every strategy in a config sees byte-identical data under the
same seed, no matter what its hyperparameters are. A task is one strategy
with all of its seeds: the runs of a task step together, and their
matching training requests train in lockstep. After each domain the
strategy is evaluated on the test splits of all seen domains, filling the
lower-triangular accuracy matrix; routing strategies are additionally
scored on domain identification over the union of test sets.

Persisted files (all CSV rows newline-terminated, floats to 6 places):

* matrix.csv      run_id,strategy,seed,s,t,alpha
* summary.csv     run_id,strategy,seed,t,avg_accuracy,bwt_final
* routing.csv     run_id,router_kind,domain,accuracy  (per-domain rows,
                  then one 'overall' row per run)
* report.txt      strategy x benchmark table, mean +/- std over seeds
* projection.csv  run_id,router_kind,domain,sample_index,pc1,pc2,routed_domain

Re-running an identical config overwrites all five files byte-identically.
Each file is written to a temp file and renamed into place, so a failed
write leaves the previous file whole.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from .benchmarks import StreamGuard, build_stream
from .config import ExperimentConfig, expand_grid, serialize_config
from .files import write_text
from .metrics import RoutingReport, average_accuracy, bwt, evaluate_accuracy, routing_accuracy
from .pca import pca_project_2d
from .rng import derive
from .strategies import run_lockstep, save_checkpoint, shared_fits, strategy_dispatch
from .harness_report import render_report

MATRIX_HEADER = "run_id,strategy,seed,s,t,alpha"
SUMMARY_HEADER = "run_id,strategy,seed,t,avg_accuracy,bwt_final"
ROUTING_HEADER = "run_id,router_kind,domain,accuracy"
PROJECTION_HEADER = "run_id,router_kind,domain,sample_index,pc1,pc2,routed_domain"


@dataclass
class RunRecord:
    """Everything one (strategy, seed) run produced."""

    run_id: str
    strategy: str
    seed: int
    benchmark_label: str
    matrix: np.ndarray = None   # (T, T) accuracies, NaN where s > t
    router_kind: str = None
    routing: RoutingReport = None
    projection: list = field(default_factory=list)     # rows for projection.csv
    duration: float = 0.0    # an equal share of its task's wall time
    failure: str = ""        # "Type: message"; empty for a run that finished
    traceback: str = ""      # the failure's full traceback

    @property
    def ok(self) -> bool:
        return not self.failure

    @property
    def avg_accuracy(self) -> list:
        """A_t for t = 0..T-1."""
        return [average_accuracy(self.matrix, t) for t in range(len(self.matrix))]

    @property
    def final_accuracy(self) -> float:
        return average_accuracy(self.matrix, len(self.matrix) - 1)

    @property
    def bwt_final(self):
        """Backward transfer, or None for a one-domain stream."""
        return bwt(self.matrix) if len(self.matrix) >= 2 else None


def run_id_for(cfg: ExperimentConfig, strategy_name: str, seed: int) -> str:
    """Deterministic run identifier: hash of the canonical config text plus
    the (strategy, seed) coordinates of the run within it."""
    return _new_records(cfg, strategy_name, [seed])[0].run_id


def benchmark_label(cfg: ExperimentConfig) -> str:
    return f"{cfg.benchmark.kind}/T{cfg.benchmark.n_domains}"


class RunInterrupted(KeyboardInterrupt):
    """A KeyboardInterrupt that carries the records of the tasks finished
    before it, in config order."""

    def __init__(self, records):
        super().__init__()
        self.records = records


def _select_and_train(strategy, grid, t, guard):
    """Per-domain model selection on the current domain's validation split,
    as a generator that yields the training requests of every candidate
    (Strategy.learn) once, as one round, and expects them trained when it
    is resumed.

    The strategy itself is the first point's candidate, and each further
    point learns a clone of it; each candidate takes its point as its hp.
    The best current-domain validation accuracy wins, ties resolving to
    the earliest point, and only the winner consolidates, with its own hp
    (consolidation never changes a prediction, so it cannot change the
    choice).
    """
    candidates = [strategy] + [strategy.clone() for _ in grid[1:]]
    for candidate, point in zip(candidates, grid):
        candidate.hp = point
    yield [req for candidate in candidates for req in candidate.learn(t, guard)]
    best = 0
    if len(grid) > 1:
        val = guard.val(t)
        scores = [evaluate_accuracy(candidate.predict, val) for candidate in candidates]
        best = scores.index(max(scores))
    candidates[best].consolidate(t, guard)
    return candidates[best]


def _new_records(cfg: ExperimentConfig, strategy_name: str, seeds) -> list:
    """An empty record per seed; the config text is serialized once for all,
    with the dropped field every run had, so that earlier run ids hold."""
    config_hash = hashlib.sha256(serialize_config(cfg, expert_init="sequential").encode())
    records = []
    for seed in seeds:
        digest = config_hash.copy()
        digest.update(f"|{strategy_name}|{seed}".encode())
        records.append(RunRecord(digest.hexdigest()[:12], strategy_name, seed,
                                 benchmark_label(cfg)))
    return records


def _fail(record: RunRecord, exc: Exception):
    """Call from an except block: keep the failure and its traceback."""
    record.failure = f"{type(exc).__name__}: {exc}"
    record.traceback = traceback.format_exc()


def execute_run(cfg: ExperimentConfig, strategy_cfg, seeds):
    """Every seed of one strategy, start to finish, stepped together so
    that their matching training requests train in lockstep.

    Returns [(record, strategy), ...] in seed order, with the finished
    strategy, or None for a run that failed. If anything raises, each seed
    reruns alone: a failed run keeps its own traceback, and the others get
    the results of their solo runs, which lockstep reproduces bit for bit.
    Failures are captured in the records instead of propagating, so
    sibling tasks continue. Each record's duration is an equal share of
    the wall time spent."""
    start = time.perf_counter()
    records = _new_records(cfg, strategy_cfg.name, seeds)
    try:
        runs = [_run_steps(rec, cfg, strategy_cfg, seed) for rec, seed in zip(records, seeds)]
        pairs = list(zip(records, run_lockstep(runs)))
    except Exception as exc:   # a failing run must not sink its siblings
        if len(seeds) > 1:
            pairs = [pair for seed in seeds for pair in execute_run(cfg, strategy_cfg, [seed])]
        else:
            _fail(records[0], exc)
            pairs = [(records[0], None)]
    share = (time.perf_counter() - start) / len(seeds)
    for record, _ in pairs:
        record.duration = share
    return pairs


def _run_steps(record: RunRecord, cfg: ExperimentConfig, strategy_cfg, seed: int):
    """One run as a generator that yields its training requests: fills the
    record and returns the finished strategy."""
    stream = build_stream(cfg.benchmark, derive(seed, "stream"))
    grid = expand_grid(strategy_cfg)
    strategy = strategy_dispatch(strategy_cfg.name, seed, stream.dim,
                                 stream.n_classes, grid[0])
    guard = StreamGuard(stream, privileged=strategy.privileged)
    T = stream.n_domains
    matrix = np.full((T, T), np.nan)
    for t in range(T):
        guard.advance(t)
        strategy = yield from _select_and_train(strategy, grid, t, guard)
        for s in range(t + 1):
            matrix[s, t] = evaluate_accuracy(strategy.predict, stream.domains[s].test)
    record.matrix = matrix
    if strategy.router_kind is not None:
        record.router_kind = strategy.router_kind
        X = np.vstack([d.test.X for d in stream.domains])
        true = np.concatenate([np.full(len(d.test), t) for t, d in enumerate(stream.domains)])
        routed = strategy.route(X)
        record.routing = routing_accuracy(routed, true, T)
        coords = pca_project_2d(X)
        record.projection = [
            (int(true[i]), i, float(coords[i, 0]), float(coords[i, 1]), int(routed[i]))
            for i in range(len(true))
        ]
    return strategy


def run_experiment(cfg: ExperimentConfig, out_dir=None, jobs: int = 1):
    """Execute every (strategy, seed) pair of a config, one task per
    strategy (execute_run).

    Returns the records in config order (strategies outer, seeds inner)
    and writes each run's <out>/runs/<run_id>/checkpoint.txt, or the
    traceback of a failed run to <out>/runs/<run_id>/failure.txt (a run
    whose checkpoint cannot be written fails too, in either mode; one whose
    failure.txt cannot be written keeps its failure in the record). Under
    jobs > 1, tasks run in at most min(jobs, tasks) worker processes, and
    the runs of a task whose worker dies (BrokenProcessPool) become failed
    records too, while the tasks that finished keep theirs. A
    KeyboardInterrupt comes out as RunInterrupted with the records of the
    tasks finished so far. Within the call (strategies.shared_fits), each
    process fits each distinct generator once, and every run and grid
    candidate that asks for a draw samples its own buffer from it.
    Persisting the aggregate CSVs is a separate step (persist_results).
    """
    out = out_dir if out_dir is not None else cfg.out_dir
    tasks = [(cfg, sc, out) for sc in cfg.strategies]
    done = []
    try:
        with shared_fits():
            if jobs <= 1:
                for task in tasks:
                    done.append(_run_task(task))
            else:
                with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
                    futures = [pool.submit(_run_task, task) for task in tasks]
                    try:
                        done = [_pool_result(future, task) for future, task in zip(futures, tasks)]
                    except KeyboardInterrupt:
                        pool.shutdown(wait=False, cancel_futures=True)
                        done = [future.result() for future in futures
                                if future.done() and not future.cancelled()
                                and future.exception() is None]
                        raise
    except KeyboardInterrupt:
        raise RunInterrupted([rec for records in done for rec in records]) from None
    return [rec for records in done for rec in records]


def _pool_result(future, task) -> list:
    try:
        return future.result()
    except BrokenProcessPool as exc:   # the worker died before it could report
        cfg, sc, out = task
        records = _new_records(cfg, sc.name, cfg.seeds)
        for record in records:
            _fail(record, exc)
            with contextlib.suppress(OSError):   # the record keeps the failure
                _write_failure(record, out)
        return records


def _write_failure(record: RunRecord, out):
    write_text(os.path.join(out, "runs", record.run_id), "failure.txt", record.traceback,
               replaces="checkpoint.txt")


def _run_task(task) -> list:
    cfg, sc, out = task
    records = []
    for record, strategy in execute_run(cfg, sc, cfg.seeds):
        # checkpoint in the worker: strategies do not cross process boundaries
        if strategy is not None:
            try:
                save_checkpoint(strategy, os.path.join(out, "runs", record.run_id))
            except Exception as exc:   # a run whose checkpoint cannot be written failed
                _fail(record, exc)
        if not record.ok:
            with contextlib.suppress(OSError):   # the record keeps the failure
                _write_failure(record, out)
        records.append(record)
    return records


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _tables(records):
    """(file name, header, rows) for each result CSV. Failed runs are
    skipped; each row is a tuple of its fields as written, in record order
    (config order), then domain indices ascending."""
    done = [rec for rec in records if rec.ok]
    yield "matrix.csv", MATRIX_HEADER, (
        (rec.run_id, rec.strategy, str(rec.seed), str(s), str(t), _fmt(rec.matrix[s, t]))
        for rec in done for t in range(len(rec.matrix)) for s in range(t + 1))
    yield "summary.csv", SUMMARY_HEADER, (
        (rec.run_id, rec.strategy, str(rec.seed), str(t), _fmt(a_t),
         "" if rec.bwt_final is None else _fmt(rec.bwt_final))
        for rec in done for t, a_t in enumerate(rec.avg_accuracy))
    yield "routing.csv", ROUTING_HEADER, (
        (rec.run_id, rec.router_kind, str(domain), _fmt(accuracy))
        for rec in done if rec.routing is not None
        for domain, accuracy in [*enumerate(rec.routing.per_domain),
                                 ("overall", rec.routing.accuracy)])
    yield "projection.csv", PROJECTION_HEADER, (
        (rec.run_id, rec.router_kind, str(domain), str(idx), _fmt(pc1), _fmt(pc2), str(routed))
        for rec in done for domain, idx, pc1, pc2, routed in rec.projection)


def persist_results(records, out_dir) -> dict:
    """Write the five result files; returns {name: path}.

    Identical records always produce byte-identical files.
    """
    paths = {}
    for name, header, rows in _tables(records):
        text = "\n".join([header, *map(",".join, rows)]) + "\n"
        paths[name] = write_text(out_dir, name, text)
    paths["report.txt"] = write_text(out_dir, "report.txt", render_report(records))
    return paths
