"""perfbench's span tracer still reads the library: its work counters take
their inputs from the traced functions' arguments and results, so a
signature change that breaks `perfbench/run.py --trace 1` fails here."""

import importlib.util
from pathlib import Path

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


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_the_perfbench_tracer_counts_em_iterations_and_admissions(tmp_path):
    tracer = load_spans().Tracer(str(tmp_path / "spool"))
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
