"""The benchmark's own tests. The file name keeps them out of the repository's
test run; run them from the repository root with

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py
"""

import json
import os
import re

import pytest
import yaml

import measure
from spans import Tracer
from workloads import WORKLOADS, write_config

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

with open(os.path.join(measure.ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def test_metric_and_workload_names_follow_the_grammar():
    entries = BENCH["end_to_end"] + BENCH["per_layer"] + BENCH["workloads"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    for entry in entries:
        assert NAME.fullmatch(entry["name"]), entry["name"]
        if "unit" in entry:
            assert UNIT.fullmatch(entry["unit"]), entry["unit"]


def test_declared_metrics_are_the_measured_ones():
    measured = set(measure.layer_metrics({}, 1.0, 0.0, [], 1)) | {"trace.overhead_ratio"}
    assert {m["name"] for m in BENCH["per_layer"]} == measured
    assert {w["name"] for w in BENCH["workloads"]} == set(WORKLOADS)
    assert "setup_s" in {m["name"] for m in BENCH["end_to_end"]}


def test_workload_configs_are_valid_and_fixed_by_the_seed():
    from driftlab.config import parse_config

    for workload in WORKLOADS.values():
        assert workload.config(7) == workload.config(7)
        assert workload.config(7)["seeds"] != workload.config(8)["seeds"]
        parse_config(yaml.safe_dump(workload.config(7)))


def test_failed_ratio_counts_a_run_that_fails_at_run_time(tmp_path):
    # gmm_components above the 5 samples per class passes validation but
    # makes the generator fit raise inside the run
    cfg = {
        "benchmark": {"kind": "covariate_shift", "n_domains": 2,
                      "class_means": [[0.0, 0.0], [0.0, 4.0]],
                      "domain_shift": [3.0, 0.0],
                      "n_train": 10, "n_val": 10, "n_test": 10},
        "strategies": [{"name": "seqft", "epochs": 1},
                       {"name": "g2d", "epochs": 1, "router_epochs": 1,
                        "gmm_components": 8}],
        "seeds": [3],
    }
    path = write_config(cfg, str(tmp_path / "config.yaml"))
    rep = measure.run_experiment_once(path, 1, str(tmp_path))
    assert [rec.ok for rec in rep.records] == [True, False]
    failed = measure.count_failed(rep.records, rep.digests, rep.digests)
    assert measure.failed_ratio(failed, len(rep.records)) == 0.5


def test_a_digest_mismatch_counts_as_failed(tmp_path):
    cfg = WORKLOADS["ewc_grid"].config(5)
    cfg["benchmark"]["n_domains"] = 2
    path = write_config(cfg, str(tmp_path / "config.yaml"))
    rep = measure.run_experiment_once(path, 1, str(tmp_path))
    assert measure.count_failed(rep.records, rep.digests, rep.digests) == 0
    reference = dict(rep.digests)
    reference[rep.records[0].run_id] = "0" * 64
    failed = measure.count_failed(rep.records, rep.digests, reference)
    assert measure.failed_ratio(failed, len(rep.records)) == 0.5


def test_tracer_wraps_every_lookup_site_and_restores_them(tmp_path):
    import driftlab.optim
    import driftlab.strategies
    import driftlab.training

    originals = (driftlab.training.apply_step, driftlab.strategies.train_classifier)
    tracer = Tracer(str(tmp_path))
    tracer.install()
    try:
        assert driftlab.training.apply_step is not originals[0]
        assert driftlab.optim.apply_step is not originals[0]
        assert driftlab.strategies.train_classifier is not originals[1]
        cfg = WORKLOADS["train_loop"].config(5)
        cfg["seeds"] = cfg["seeds"][:1]
        path = write_config(cfg, str(tmp_path / "config.yaml"))
        rep = measure.run_experiment_once(path, 1, str(tmp_path))
    finally:
        tracer.uninstall()
    assert (driftlab.training.apply_step, driftlab.strategies.train_classifier) == originals
    stats = tracer.stats
    train = stats["training.train_classifier"]
    assert train["steps"] == stats["optim.apply_step"]["calls"]
    assert 0 < train["self_s"] < train["s"]
    assert stats["nn.loss_and_grad"]["calls"] == stats["optim.apply_step"]["calls"]
    assert all(rec.ok for rec in rep.records)
    measure.check_spans(stats, ("training.train_classifier", "nn.loss_and_grad"))
    with pytest.raises(measure.TraceError):
        measure.check_spans(stats, ("gmm.fit_generator",))
