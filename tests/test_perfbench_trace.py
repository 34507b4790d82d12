"""perfbench's span tracer still reads the library: its work counters take
their inputs from the traced functions' arguments and results, so a
signature change that breaks `perfbench/run.py --trace 1` fails here, and
so does a change that leaves a span a workload expects without calls."""

import importlib.util
import sys
from pathlib import Path

import pytest

from driftlab import config, harness
from driftlab.config import parse_config
from driftlab.harness import run_experiment

ROOT = Path(__file__).resolve().parents[1]

TRACED_DOC = """
benchmark:
  kind: covariate_shift
  n_domains: 2
  class_means: [[0.0, -1.5], [0.0, 1.5]]
  variance: 1.0
  domain_shift: [6.0, 0.0]
  n_train: 40
  n_val: 10
  n_test: 10
strategies:
  - name: gen_replay
    epochs: 1
    hidden: [4]
    gmm_components: 2
    n_per_class: 8
  - name: g2d
    epochs: 1
    hidden: [4]
    router_hidden: [4]
    router_epochs: 1
    gmm_components: 2
    n_per_class: 8
  - name: er
    epochs: 1
    hidden: [4]
    quota: 5
seeds: [3]
out_dir: unused
"""


def load_perfbench(name):
    """A module of perfbench/, which is not a package, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


spans = load_perfbench("spans")
workloads = load_perfbench("workloads")


def test_the_perfbench_tracer_counts_em_iterations_and_admissions(tmp_path):
    tracer = spans.Tracer(str(tmp_path / "spool"))
    tracer.install()
    try:
        records = run_experiment(parse_config(TRACED_DOC), out_dir=str(tmp_path / "out"))
    finally:
        tracer.uninstall()
    assert [rec.failure for rec in records] == [""] * 3
    fits = tracer.stats["gmm.fit_generator"]
    # one fit per domain, shared by gen_replay and g2d
    assert fits["calls"] == 2 and fits["em_iters"] > 0 and fits["mixtures"] == 4
    # gen_replay admits each domain's draw, er each domain's real split
    assert tracer.stats["memory.update_replay_buffer"]["calls"] == 4


def trace_shrunk_workload(name, tmp_path):
    """Run a workload, shrunk to tiny splits and one epoch, under a tracer;
    it keeps its kind, strategies, grids and jobs, and runs the way
    perfbench runs it: load_config, run_experiment, persist_results, each
    looked up on its module, where the tracer wraps it. Returns the tracer,
    with every worker's spans collected, and the records."""
    workload = workloads.WORKLOADS[name]
    cfg = workload.config(workloads.DEFAULT_SEED)
    cfg["benchmark"] = {**cfg["benchmark"], "n_train": 60, "n_val": 10, "n_test": 10}
    cfg["strategies"] = [{**sc, "epochs": 1} for sc in cfg["strategies"]]
    path = workloads.write_config(cfg, str(tmp_path / "workload.yaml"))
    spool = tmp_path / "spool"
    spool.mkdir()
    tracer = spans.Tracer(str(spool))
    tracer.install()
    try:
        out = str(tmp_path / "out")
        records = harness.run_experiment(config.load_config(path), out_dir=out,
                                         jobs=workload.jobs)
        harness.persist_results(records, out)
    finally:
        tracer.uninstall()
    tracer.collect()
    return tracer, records


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_span_a_workload_expects_records_calls(name, tmp_path):
    tracer, records = trace_shrunk_workload(name, tmp_path)
    assert [rec.failure for rec in records if not rec.ok] == []
    silent = [span for span in workloads.WORKLOADS[name].expects
              if not tracer.stats.get(span, {}).get("calls")]
    assert silent == []


def test_selection_nests_the_training_it_drives(tmp_path):
    # train_loop: 3 strategies without grids, 3 seeds, 4 domains; a task's
    # seeds select together, once per domain
    tracer, records = trace_shrunk_workload("train_loop", tmp_path)
    assert len(records) == 9 and all(rec.ok for rec in records)
    select = tracer.stats["harness.select"]
    assert select["calls"] == 3 * 4
    assert select["candidates"] == select["calls"]
    assert select["s"] >= 0.99 * tracer.stats["training.train_classifier"]["s"]


def test_ewc_grid_trains_each_distinct_candidate_once(tmp_path):
    # 5 domains: ewc's three lam candidates are one training at domain 0,
    # where no anchor reads lam, and one stack at each later domain; er's
    # two quota candidates are one training at every domain, and its
    # domain 0 is ewc's
    tracer, records = trace_shrunk_workload("ewc_grid", tmp_path)
    assert len(records) == 2 and all(rec.ok for rec in records)
    assert tracer.stats["training.train_classifier"]["calls"] == 5 + 4
