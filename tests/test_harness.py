"""Harness behavior end to end: run records, model selection, persisted CSV
schemas, report rendering, failure isolation, and the CLI."""

import csv
import dataclasses
import inspect
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from driftlab import cli, harness, nn, strategies
from driftlab.benchmarks import StreamGuard, build_stream
from driftlab.config import expand_grid, load_config, parse_config
from driftlab.harness import (MATRIX_HEADER, PROJECTION_HEADER, ROUTING_HEADER,
                              SUMMARY_HEADER, benchmark_label, execute_run,
                              persist_results, run_experiment, run_id_for)
from driftlab.harness_report import _mean_std, render_report
from driftlab.metrics import evaluate_accuracy
from driftlab.rng import derive
from driftlab.strategies import (read_arrays, save_checkpoint, strategy_dispatch,
                                 train_requests)

import oracles

TINY_DOC = """
benchmark:
  kind: covariate_shift
  n_domains: 2
  class_means: [[0.0, -1.5], [0.0, 1.5]]
  variance: 1.0
  domain_shift: [6.0, 0.0]
  n_train: 60
  n_val: 20
  n_test: 30
strategies:
  - name: seqft
    epochs: 4
    batch_size: 16
    hidden: [8]
  - name: g2d
    epochs: 4
    batch_size: 16
    hidden: [8]
    router_hidden: [8]
    router_epochs: 10
    n_per_class: 12
seeds: [21, 22]
out_dir: results/tiny
"""

FLOAT6 = re.compile(r"^-?\d+\.\d{6}$")


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    cfg = parse_config(TINY_DOC)
    out = tmp_path_factory.mktemp("tiny_results")
    records = run_experiment(cfg, out_dir=str(out))
    paths = persist_results(records, str(out))
    return cfg, records, out, paths


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_records_cover_the_strategy_by_seed_grid(tiny):
    cfg, records, _, _ = tiny
    assert [(r.strategy, r.seed) for r in records] == \
        [(sc.name, seed) for sc in cfg.strategies for seed in cfg.seeds]
    assert all(r.ok for r in records)
    for rec in records:
        assert rec.benchmark_label == "covariate_shift/T2"
        assert len(rec.avg_accuracy) == 2
        assert rec.bwt_final is not None
        assert rec.duration > 0.0


def test_benchmark_label_format(tiny):
    cfg = tiny[0]
    assert benchmark_label(cfg) == "covariate_shift/T2"


def test_run_ids_are_short_hashes_distinct_per_run(tiny):
    cfg, records, _, _ = tiny
    ids = [r.run_id for r in records]
    assert len(set(ids)) == len(ids)
    for rid in ids:
        assert re.fullmatch(r"[0-9a-f]{12}", rid)
    assert records[0].run_id == run_id_for(cfg, "seqft", 21)
    changed = parse_config(TINY_DOC.replace("epochs: 4", "epochs: 5", 1))
    assert run_id_for(changed, "seqft", 21) != run_id_for(cfg, "seqft", 21)


def test_rerunning_a_run_reproduces_it_bit_for_bit(tiny):
    cfg = tiny[0]
    [(a, strategy)] = execute_run(cfg, cfg.strategies[1], [21])
    [(b, _)] = execute_run(cfg, cfg.strategies[1], [21])
    for t in range(2):
        for s in range(t + 1):
            assert a.matrix[s, t] == b.matrix[s, t]
    assert a.avg_accuracy == b.avg_accuracy
    assert a.routing.accuracy == b.routing.accuracy
    assert a.projection == b.projection
    assert strategy.name == "g2d"
    assert not hasattr(a, "_strategy")


def test_grid_selection_recovers_the_winning_scalar_run(tiny):
    cfg = tiny[0]
    [(scalar, _)] = execute_run(cfg, cfg.strategies[0], [21])
    gridded_cfg = parse_config(TINY_DOC)
    gridded_cfg.strategies[0].epochs = [0, 4]
    [(gridded, _)] = execute_run(gridded_cfg, gridded_cfg.strategies[0], [21])
    for t in range(2):
        for s in range(t + 1):
            assert gridded.matrix[s, t] == scalar.matrix[s, t]
    assert gridded.matrix[1, 1] > 0.8


GRID_DOC = """
benchmark:
  kind: covariate_shift
  n_domains: 3
  class_means: [[0.0, -1.5], [0.0, 1.5]]
  variance: 1.0
  domain_shift: [3.0, 0.0]
  n_train: 60
  n_val: 20
  n_test: 30
strategies:
  - name: ewc
    epochs: 4
    batch_size: 16
    hidden: [8]
    lam: [0.5, 5.0, 500.0]
  - name: er
    epochs: 4
    batch_size: 16
    hidden: [8]
    quota: [2, 8, 30]
seeds: [23, 24]
out_dir: unused
"""


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        # each call's arguments as positionals, however they were passed
        calls.append(inspect.signature(original).bind(*args, **kwargs).args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("lams", [[0.5], [0.5, 5.0, 500.0]])
def test_the_strategy_is_its_first_candidate_and_only_later_points_clone(monkeypatch, lams):
    cfg = parse_config(GRID_DOC)
    grid = expand_grid(dataclasses.replace(cfg.strategies[0], lam=lams))
    stream = build_stream(cfg.benchmark, derive(23, "stream"))
    strategy = strategy_dispatch("ewc", 23, stream.dim, stream.n_classes, grid[0])
    guard = StreamGuard(stream)
    guard.advance(0)
    clones = count_calls(monkeypatch, strategies.Strategy, "clone")
    # every candidate ties, so the first one wins
    monkeypatch.setattr(harness, "evaluate_accuracy", lambda predict, data: 0.5)
    [winner] = harness._select_and_train([strategy], grid, 0, [guard])
    assert winner is strategy
    assert len(clones) == len(grid) - 1
    assert all(args[0] is strategy for args in clones)


def test_the_winner_consolidates_with_its_own_point(monkeypatch):
    cfg = parse_config(GRID_DOC)
    grid = expand_grid(cfg.strategies[1])   # er, quota: [2, 8, 30]
    stream = build_stream(cfg.benchmark, derive(23, "stream"))
    strategy = strategy_dispatch("er", 23, stream.dim, stream.n_classes, grid[0])
    guard = StreamGuard(stream)
    guard.advance(0)
    admitted = count_calls(monkeypatch, strategies, "update_replay_buffer")
    scores = iter([0.1, 0.2, 0.3])   # the last point wins
    monkeypatch.setattr(harness, "evaluate_accuracy", lambda predict, data: next(scores))
    [winner] = harness._select_and_train([strategy], grid, 0, [guard])
    assert winner.hp is grid[-1]
    # update_replay_buffer(buffer, trainset, quota, seed)
    assert [args[2] for args in admitted] == [30]


def test_only_the_winning_candidate_consolidates(monkeypatch):
    cfg = parse_config(GRID_DOC)
    fisher = count_calls(monkeypatch, strategies, "estimate_fisher_diag")
    admitted = count_calls(monkeypatch, strategies, "update_replay_buffer")
    T = cfg.benchmark.n_domains
    [(rec, _)] = execute_run(cfg, cfg.strategies[0], [23])
    assert rec.ok
    assert len(fisher) == T
    [(rec, _)] = execute_run(cfg, cfg.strategies[1], [23])
    assert rec.ok
    # update_replay_buffer(buffer, trainset, quota, seed): each domain once
    assert [args[3] for args in admitted] == [derive(23, "domain", t, "reservoir")
                                              for t in range(T)]


def consolidate_every_candidate(strategies, grid, t, guards):
    """Selection as it was before winner-only consolidation: every
    candidate runs the whole of train_on_domain: learn, training, then
    consolidate. A point's candidates, one per run, train in one
    train_requests call, as the runs of a task do in the harness."""
    best = [(-1.0, None)] * len(strategies)
    for hp in grid:
        candidates = [strategy.clone() for strategy in strategies]
        for candidate in candidates:
            candidate.hp = hp
        train_requests([req for candidate, guard in zip(candidates, guards)
                        for req in candidate.learn(t, guard)])
        for i, (candidate, guard) in enumerate(zip(candidates, guards)):
            candidate.consolidate(t, guard)
            score = evaluate_accuracy(candidate.predict, guard.val(t))
            if score > best[i][0]:
                best[i] = (score, candidate)
    return [candidate for _, candidate in best]


def test_winner_only_consolidation_keeps_checkpoints_byte_identical(tmp_path, monkeypatch):
    cfg = parse_config(GRID_DOC)
    records = run_experiment(cfg, out_dir=str(tmp_path / "winner"))
    monkeypatch.setattr(harness, "_select_and_train", consolidate_every_candidate)
    fisher = count_calls(monkeypatch, strategies, "estimate_fisher_diag")
    reference = run_experiment(cfg, out_dir=str(tmp_path / "every"))
    assert len(fisher) == 3 * cfg.benchmark.n_domains * len(cfg.seeds)
    assert [r.run_id for r in records] == [r.run_id for r in reference]
    for rec in records:
        assert rec.ok, rec.failure
        name = Path("runs") / rec.run_id / "checkpoint.txt"
        winner = (tmp_path / "winner" / name).read_bytes()
        assert winner == (tmp_path / "every" / name).read_bytes(), rec.strategy
        if rec.strategy == "ewc":
            assert b"anchor2.FW0" in winner


# GRID_DOC's ewc with a lam grid whose first point is no penalty at all
LAM_GRID_DOC = GRID_DOC.replace("lam: [0.5, 5.0, 500.0]", "lam: [0.0, 5.0]")


def test_a_stacked_ewc_grid_reproduces_each_seed_alone(tmp_path):
    cfg = parse_config(LAM_GRID_DOC)
    ewc = cfg.strategies[0]
    together = execute_run(cfg, ewc, cfg.seeds)
    alone = [pair for seed in cfg.seeds for pair in execute_run(cfg, ewc, [seed])]
    for side, pairs in (("together", together), ("alone", alone)):
        for rec, strategy in pairs:
            assert rec.ok, rec.failure
            save_checkpoint(strategy, tmp_path / side / "runs" / rec.run_id)
        persist_results([rec for rec, _ in pairs], str(tmp_path / side))
    assert oracles.tree_mismatches(tmp_path / "together", tmp_path / "alone") == []
    checkpoints = list((tmp_path / "alone" / "runs").glob("*/checkpoint.txt"))
    assert len(checkpoints) == 2
    assert all(b"anchor2.FW0" in path.read_bytes() for path in checkpoints)


def test_a_zero_lam_candidate_walks_the_seqft_trajectory(monkeypatch):
    # every candidate ties, so the first one (lam = 0) wins every domain,
    # while the lam = 5 candidates train beside it
    cfg = parse_config(LAM_GRID_DOC)
    seqft = parse_config(LAM_GRID_DOC.replace("name: ewc", "name: seqft")
                         .replace("    lam: [0.0, 5.0]\n", "")).strategies[0]
    monkeypatch.setattr(harness, "evaluate_accuracy", lambda predict, data: 0.5)
    ewc_runs = execute_run(cfg, cfg.strategies[0], cfg.seeds)
    seqft_runs = execute_run(cfg, seqft, cfg.seeds)
    for (ewc_rec, ewc), (seqft_rec, plain) in zip(ewc_runs, seqft_runs):
        assert np.array_equal(ewc.model.params, plain.model.params)
        assert ewc_rec.avg_accuracy == seqft_rec.avg_accuracy
        assert len(ewc.anchors) == cfg.benchmark.n_domains


def test_train_classifier_runs_once_per_domain_and_stack(monkeypatch):
    cfg = parse_config(LAM_GRID_DOC)
    T = cfg.benchmark.n_domains
    trained = count_calls(monkeypatch, strategies, "train_classifier")
    execute_run(cfg, cfg.strategies[0], cfg.seeds)
    # domain 0 has no anchors, so a seed's candidates are one training and
    # both seeds one stack; later the lam = 0 candidates (no anchors) and
    # lam = 5 candidates split
    assert [len(requests) for (requests,) in trained] == [2] + [2, 2] * (T - 1)
    trained.clear()
    # er's 3 quota candidates: only the winner admits, so the candidates of
    # a seed are one training at every domain
    execute_run(cfg, cfg.strategies[1], cfg.seeds)
    assert [len(requests) for (requests,) in trained] == [2] * T


def test_grid_candidates_under_the_memo_keep_every_output(tmp_path, monkeypatch):
    # seqft beside LAM_GRID_DOC's ewc and er: ewc's domain 0, its lam = 0
    # candidates and er's domain 0 ask for seqft's trainings, and er's
    # quota candidates for one another's
    cfg = parse_config(LAM_GRID_DOC.replace(
        "strategies:\n", "strategies:\n  - name: seqft\n    epochs: 4\n"
        "    batch_size: 16\n    hidden: [8]\n"))
    assert [sc.name for sc in cfg.strategies] == ["seqft", "ewc", "er"]
    trained = count_calls(monkeypatch, strategies, "train_classifier")
    memo = run_experiment(cfg, out_dir=str(tmp_path / "memo"))
    persist_results(memo, str(tmp_path / "memo"))
    shared = sum(len(requests) for (requests,) in trained)
    trained.clear()
    # outside the memo: every request of every candidate trains, alone
    monkeypatch.setattr(harness, "train_requests", lambda requests: [
        strategies.train_classifier([req]) for req in requests])
    alone = run_experiment(cfg, out_dir=str(tmp_path / "alone"))
    persist_results(alone, str(tmp_path / "alone"))
    T, seeds = cfg.benchmark.n_domains, len(cfg.seeds)
    assert sum(len(requests) for (requests,) in trained) == (1 + 2 + 3) * T * seeds
    # under the memo, seqft trains at every domain, and ewc's lam = 5
    # candidates and one er candidate at each later one; the rest copy
    assert shared == (T + 2 * (T - 1)) * seeds
    assert all(rec.ok for rec in memo + alone)
    assert oracles.tree_mismatches(tmp_path / "memo", tmp_path / "alone") == []


def test_stacked_candidates_match_the_sequential_candidate_loop(tmp_path, monkeypatch):
    cfg = parse_config(LAM_GRID_DOC)
    stacked = run_experiment(cfg, out_dir=str(tmp_path / "stacked"))
    persist_results(stacked, str(tmp_path / "stacked"))
    monkeypatch.setattr(harness, "_select_and_train", oracles.select_one_candidate_at_a_time)
    trained = count_calls(monkeypatch, strategies, "train_classifier")
    sequential = run_experiment(cfg, out_dir=str(tmp_path / "sequential"))
    persist_results(sequential, str(tmp_path / "sequential"))
    assert max(len(requests) for (requests,) in trained) == len(cfg.seeds)
    assert all(rec.ok for rec in stacked + sequential)
    assert oracles.tree_mismatches(tmp_path / "stacked", tmp_path / "sequential") == []


def test_persisted_files_carry_golden_headers(tiny):
    _, _, _, paths = tiny
    assert set(paths) == {"matrix.csv", "summary.csv", "routing.csv",
                          "projection.csv", "report.txt"}
    heads = {
        "matrix.csv": MATRIX_HEADER,
        "summary.csv": SUMMARY_HEADER,
        "routing.csv": ROUTING_HEADER,
        "projection.csv": PROJECTION_HEADER,
    }
    for name, header in heads.items():
        with open(paths[name]) as fh:
            assert fh.readline().rstrip("\n") == header
    for path in paths.values():
        with open(path) as fh:
            assert fh.read().endswith("\n")


def test_matrix_rows_are_triangular_in_record_order(tiny):
    cfg, records, _, paths = tiny
    rows = read_rows(paths["matrix.csv"])
    assert len(rows) == len(records) * 3  # T=2 triangle has 3 cells
    expected_ids = [r.run_id for r in records for _ in range(3)]
    assert [row["run_id"] for row in rows] == expected_ids
    per_run = [(int(r["s"]), int(r["t"])) for r in rows[:3]]
    assert per_run == [(0, 0), (0, 1), (1, 1)]
    for row in rows:
        assert FLOAT6.match(row["alpha"])


def test_summary_rows_repeat_final_bwt_per_domain(tiny):
    _, records, _, paths = tiny
    rows = read_rows(paths["summary.csv"])
    assert len(rows) == len(records) * 2
    by_run = {}
    for row in rows:
        by_run.setdefault(row["run_id"], []).append(row)
    for rec in records:
        mine = by_run[rec.run_id]
        assert [int(r["t"]) for r in mine] == [0, 1]
        assert [r["avg_accuracy"] for r in mine] == \
            [f"{a:.6f}" for a in rec.avg_accuracy]
        assert {r["bwt_final"] for r in mine} == {f"{rec.bwt_final:.6f}"}


def test_routing_rows_list_domains_then_overall(tiny):
    _, records, _, paths = tiny
    rows = read_rows(paths["routing.csv"])
    routed = [r for r in records if r.routing is not None]
    assert {row["run_id"] for row in rows} == {r.run_id for r in routed}
    for rec in routed:
        mine = [row for row in rows if row["run_id"] == rec.run_id]
        assert [row["domain"] for row in mine] == ["0", "1", "overall"]
        assert all(row["router_kind"] == "synthetic" for row in mine)
        assert mine[-1]["accuracy"] == f"{rec.routing.accuracy:.6f}"


def test_projection_rows_walk_the_union_test_set(tiny):
    _, records, _, paths = tiny
    rows = read_rows(paths["projection.csv"])
    routed = [r for r in records if r.routing is not None]
    assert len(rows) == len(routed) * 60  # union of two 30-point test splits
    first = [r for r in rows if r["run_id"] == routed[0].run_id]
    assert [int(r["sample_index"]) for r in first] == list(range(60))
    for row in first[:5]:
        assert FLOAT6.match(row["pc1"]) and FLOAT6.match(row["pc2"])
        assert row["routed_domain"] in {"0", "1"}


def test_a_one_domain_experiment_has_no_bwt_and_constant_routing(tmp_path):
    cfg = parse_config(TINY_DOC.replace("n_domains: 2", "n_domains: 1")
                       .replace("seeds: [21, 22]", "seeds: [21]"))
    records = run_experiment(cfg, out_dir=str(tmp_path))
    assert [rec.ok for rec in records] == [True, True]
    paths = persist_results(records, str(tmp_path))

    summary = Path(paths["summary.csv"]).read_text().splitlines()[1:]
    assert len(summary) == 2 and all(line.endswith(",") for line in summary)
    report = Path(paths["report.txt"]).read_text().splitlines()
    for name in ("seqft", "g2d"):
        [line] = [line for line in report if line.startswith(f"{name} ")]
        assert line.split()[-1] == "-"

    g2d = records[1]
    assert [(row["run_id"], row["router_kind"], row["domain"], row["accuracy"])
            for row in read_rows(paths["routing.csv"])] == [
        (g2d.run_id, "synthetic", "0", "1.000000"),
        (g2d.run_id, "synthetic", "overall", "1.000000")]
    projection = read_rows(paths["projection.csv"])
    assert len(projection) == 30   # one 30-point test split
    assert {row["routed_domain"] for row in projection} == {"0"}


def test_persisting_twice_writes_byte_identical_files(tiny, tmp_path):
    _, records, out, paths = tiny
    again = persist_results(records, str(tmp_path))
    for name in paths:
        with open(paths[name], "rb") as fh:
            first = fh.read()
        with open(again[name], "rb") as fh:
            second = fh.read()
        assert first == second


def test_a_failed_report_render_keeps_the_previous_report(tiny, tmp_path, monkeypatch):
    _, records, _, _ = tiny
    paths = persist_results(records, str(tmp_path))
    before = {name: Path(path).read_bytes() for name, path in paths.items()}
    assert not list(tmp_path.glob("*.tmp"))

    def broken_render(records):
        raise RuntimeError("render failed")

    monkeypatch.setattr(harness, "render_report", broken_render)
    with pytest.raises(RuntimeError, match="render failed"):
        persist_results(records, str(tmp_path))
    assert {name: Path(path).read_bytes() for name, path in paths.items()} == before
    assert not list(tmp_path.glob("*.tmp"))


def test_a_failed_rename_leaves_no_temp_file(tiny, tmp_path, monkeypatch):
    _, records, _, _ = tiny
    paths = persist_results(records, str(tmp_path))
    before = {name: Path(path).read_bytes() for name, path in paths.items()}

    def broken_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(harness.os, "replace", broken_replace)
    with pytest.raises(OSError, match="rename failed"):
        persist_results(records, str(tmp_path))
    monkeypatch.undo()
    assert not list(tmp_path.glob("*.tmp"))
    assert {name: Path(path).read_bytes() for name, path in paths.items()} == before


def test_a_failure_traceback_is_written_whole_or_not_at_all(tmp_path, monkeypatch):
    record = harness.RunRecord("0123456789ab", "seqft", 1, "covariate_shift/T2",
                               failure="RuntimeError: boom", traceback="Traceback ...\n")
    run_dir = tmp_path / "runs" / record.run_id

    def broken_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(harness.os, "replace", broken_replace)
    with pytest.raises(OSError, match="rename failed"):
        harness._write_failure(record, str(tmp_path))
    monkeypatch.undo()
    assert list(run_dir.iterdir()) == []
    harness._write_failure(record, str(tmp_path))
    assert (run_dir / "failure.txt").read_text() == record.traceback


def test_checkpoints_land_under_the_run_id(tiny):
    _, records, out, _ = tiny
    for rec in records:
        run_dir = out / "runs" / rec.run_id
        assert run_dir.is_dir()
        assert [p.name for p in run_dir.iterdir()] == ["checkpoint.txt"]


def test_parallel_execution_reproduces_serial_results(tiny, tmp_path):
    cfg, _, _, paths = tiny
    records = run_experiment(cfg, out_dir=str(tmp_path), jobs=2)
    again = persist_results(records, str(tmp_path))
    with open(paths["matrix.csv"], "rb") as fh:
        serial = fh.read()
    with open(again["matrix.csv"], "rb") as fh:
        parallel = fh.read()
    assert serial == parallel


def test_mean_std_uses_sample_std_and_zero_for_singletons():
    assert _mean_std([0.5]) == (0.5, 0.0)
    mean, std = _mean_std([0.4, 0.6])
    assert mean == pytest.approx(0.5, abs=1e-15)
    assert std == pytest.approx(0.1414213562373095, abs=1e-15)


def test_report_tables_show_each_strategy_and_router(tiny):
    _, records, _, paths = tiny
    text = render_report(records)
    assert text.startswith("Continual-learning results")
    assert "benchmark: covariate_shift/T2" in text
    assert "seeds per strategy: 2" in text
    for name in ("seqft", "g2d"):
        assert any(line.startswith(name) for line in text.splitlines())
    assert "synthetic" in text
    assert "Failed runs" not in text
    accs = [r.final_accuracy for r in records if r.strategy == "seqft"]
    mean, std = _mean_std(accs)
    assert f"{mean:.6f} +/- {std:.6f}" in text
    with open(paths["report.txt"]) as fh:
        assert fh.read() == text


def test_one_dimensional_routed_run_keeps_its_results(tmp_path):
    # a 1-d stream has no second principal axis: the projection degrades
    # instead of discarding the finished run
    doc = (TINY_DOC.replace("[[0.0, -1.5], [0.0, 1.5]]", "[[0.0], [4.0]]")
                   .replace("domain_shift: [6.0, 0.0]", "domain_shift: [8.0]"))
    records = run_experiment(parse_config(doc), out_dir=str(tmp_path))
    assert all(r.ok for r in records), [r.failure for r in records]
    g2d = [r for r in records if r.strategy == "g2d"]
    assert all(r.routing is not None and r.projection for r in g2d)
    assert all(pc2 == 0.0 for r in g2d for _, _, _, pc2, _ in r.projection)


# a valid config whose g2d runs diverge: every SGD step overflows
DIVERGING_DOC = TINY_DOC.replace(
    "n_per_class: 12", "n_per_class: 12\n    optimizer: sgd\n    learning_rate: 1.0e+300")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_failing_run_is_contained_and_reported(tmp_path):
    cfg = parse_config(DIVERGING_DOC)
    records = run_experiment(cfg, out_dir=str(tmp_path))
    by_name = {}
    for rec in records:
        by_name.setdefault(rec.strategy, []).append(rec)
    assert all(r.ok for r in by_name["seqft"])
    assert all(not r.ok for r in by_name["g2d"])
    assert "NumericError" in by_name["g2d"][0].failure

    paths = persist_results(records, str(tmp_path))
    ids_in_matrix = {row["run_id"] for row in read_rows(paths["matrix.csv"])}
    assert ids_in_matrix == {r.run_id for r in by_name["seqft"]}
    report = render_report(records)
    assert "Failed runs" in report
    assert by_name["g2d"][0].run_id in report


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_run_leaves_its_traceback(tmp_path, jobs):
    cfg = parse_config(DIVERGING_DOC)
    records = run_experiment(cfg, out_dir=str(tmp_path), jobs=jobs)
    for rec in records:
        run_dir = tmp_path / "runs" / rec.run_id
        if rec.ok:
            assert not (run_dir / "failure.txt").exists()
            continue
        assert rec.failure.startswith("NumericError: non-finite loss")
        text = (run_dir / "failure.txt").read_text()
        assert text == rec.traceback
        assert text.startswith("Traceback (most recent call last):")
        assert "train_classifier" in text
        assert text.rstrip().endswith(rec.failure)
        assert not (run_dir / "checkpoint.txt").exists()
    assert sum(not rec.ok for rec in records) == 2


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers inherit the patched execute_run only when forked")
def test_a_dead_worker_keeps_the_finished_runs(tmp_path, monkeypatch, capsys):
    config_path = tmp_path / "exp.yaml"
    config_path.write_text(TINY_DOC)
    cfg = parse_config(TINY_DOC)
    out = tmp_path / "out"
    seqft_ids = [run_id_for(cfg, "seqft", seed) for seed in cfg.seeds]
    g2d_ids = [run_id_for(cfg, "g2d", seed) for seed in cfg.seeds]
    execute_run = harness.execute_run

    def execute_or_die(cfg, sc, seeds):
        if sc.name != "g2d":
            return execute_run(cfg, sc, seeds)
        # die once both seqft runs are done, so that only g2d is lost
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and not all(
                (out / "runs" / run_id / "checkpoint.txt").exists() for run_id in seqft_ids):
            time.sleep(0.01)
        time.sleep(0.5)
        os._exit(1)

    monkeypatch.setattr(harness, "execute_run", execute_or_die)
    assert cli.main(["run", str(config_path), "--out", str(out), "--jobs", "2"]) == 2
    stdout = capsys.readouterr().out
    assert stdout.count("FAILED (BrokenProcessPool") == 2
    assert {row["run_id"] for row in read_rows(out / "matrix.csv")} == set(seqft_ids)
    for run_id in seqft_ids:
        assert (out / "runs" / run_id / "checkpoint.txt").exists()
    for run_id in g2d_ids:
        assert "BrokenProcessPool" in (out / "runs" / run_id / "failure.txt").read_text()


@pytest.mark.parametrize("first_fails", [True, False])
def test_a_run_directory_holds_only_what_its_last_run_left(tmp_path, monkeypatch, first_fails):
    cfg = parse_config(TINY_DOC)
    real_build_stream = harness.build_stream

    def poisoned(bench, seed):
        stream = real_build_stream(bench, seed)
        stream.domains[0].train.X[0, 0] = np.nan
        return stream

    for fails in (first_fails, not first_fails):
        with monkeypatch.context() as patch:
            if fails:
                patch.setattr(harness, "build_stream", poisoned)
            records = run_experiment(cfg, out_dir=str(tmp_path))
        left = "failure.txt" if fails else "checkpoint.txt"
        assert len(records) == 4 and all(rec.ok != fails for rec in records)
        for rec in records:
            assert [p.name for p in (tmp_path / "runs" / rec.run_id).iterdir()] == [left]


def run_on_a_full_disk(out, monkeypatch, capsys, jobs):
    """driftlab run on TINY_DOC while no router's checkpoint blocks can be
    written: (exit code, stdout, matrix.csv, {run_id: (files, failure text)})."""
    out.parent.mkdir()
    config_path = out.parent / "exp.yaml"
    config_path.write_text(TINY_DOC)
    arrays = nn.Classifier.arrays

    def disk_full(model, tag):
        if tag == "router":
            raise OSError("disk full")
        return arrays(model, tag)

    monkeypatch.setattr(nn.Classifier, "arrays", disk_full)
    code = cli.main(["run", str(config_path), "--out", str(out), "--jobs", str(jobs)])
    monkeypatch.undo()
    runs = {}
    for run_dir in (out / "runs").iterdir():
        failure = run_dir / "failure.txt"
        runs[run_dir.name] = (sorted(p.name for p in run_dir.iterdir()),
                              failure.read_text() if failure.exists() else None)
    stdout = capsys.readouterr().out.replace(str(out), "<out>")
    return code, stdout, (out / "matrix.csv").read_text(), runs


FORKED = multiprocessing.get_start_method() == "fork"


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=pytest.mark.skipif(
    not FORKED, reason="pool workers inherit the patched arrays only when forked"))])
def test_a_failed_checkpoint_fails_its_run_serially_and_pooled(tmp_path, monkeypatch, capsys,
                                                               jobs):
    cfg = parse_config(TINY_DOC)
    seqft_ids = [run_id_for(cfg, "seqft", seed) for seed in cfg.seeds]
    g2d_ids = [run_id_for(cfg, "g2d", seed) for seed in cfg.seeds]
    got = run_on_a_full_disk(tmp_path / f"jobs{jobs}" / "out", monkeypatch, capsys, jobs)
    code, stdout, matrix, runs = got
    assert code == 2
    assert stdout.count("FAILED (OSError: disk full)") == 2
    assert {row.split(",")[0] for row in matrix.splitlines()[1:]} == set(seqft_ids)
    for run_id in seqft_ids:
        assert runs[run_id] == (["checkpoint.txt"], None)
    for run_id in g2d_ids:
        files, text = runs[run_id]
        assert files == ["failure.txt"]
        assert text.startswith("Traceback (most recent call last):")
        assert "in save_checkpoint" in text
        assert text.endswith("OSError: disk full\n")
    if jobs > 1:
        serial = run_on_a_full_disk(tmp_path / "jobs1" / "out", monkeypatch, capsys, 1)
        assert got == serial


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=pytest.mark.skipif(
    not FORKED, reason="pool workers inherit the patched writers only when forked"))])
def test_a_failure_that_cannot_be_written_keeps_every_record(tmp_path, monkeypatch, capsys,
                                                             jobs):
    config_path = tmp_path / "exp.yaml"
    config_path.write_text(TINY_DOC)
    cfg = parse_config(TINY_DOC)
    out = tmp_path / "out"
    seqft_ids = {run_id_for(cfg, "seqft", seed) for seed in cfg.seeds}
    g2d_ids = {run_id_for(cfg, "g2d", seed) for seed in cfg.seeds}
    save = harness.save_checkpoint

    def g2d_disk_full(strategy, out_dir):
        if strategy.name == "g2d":
            raise OSError("disk full")
        return save(strategy, out_dir)

    def disk_full(*args):
        raise OSError("disk full")

    monkeypatch.setattr(harness, "save_checkpoint", g2d_disk_full)
    monkeypatch.setattr(harness, "_write_failure", disk_full)
    assert cli.main(["run", str(config_path), "--out", str(out), "--jobs", str(jobs)]) == 2
    assert capsys.readouterr().out.count("FAILED (OSError: disk full)") == 2
    assert {row["run_id"] for row in read_rows(out / "matrix.csv")} == seqft_ids
    report = (out / "report.txt").read_text()
    assert all(run_id in report for run_id in g2d_ids)
    assert {p.name for p in (out / "runs").iterdir()} == seqft_ids
    for run_id in seqft_ids:
        assert (out / "runs" / run_id / "checkpoint.txt").exists()


def test_a_dead_worker_whose_failure_cannot_be_written_keeps_its_records(tmp_path,
                                                                          monkeypatch):
    cfg = parse_config(TINY_DOC)

    def disk_full(*args):
        raise OSError("disk full")

    monkeypatch.setattr(harness, "_write_failure", disk_full)
    died = Future()
    died.set_exception(BrokenProcessPool("worker died"))
    records = harness._pool_result(died, (cfg, cfg.strategies[1], str(tmp_path)))
    assert [rec.run_id for rec in records] == [run_id_for(cfg, "g2d", s) for s in cfg.seeds]
    assert all(rec.failure == "BrokenProcessPool: worker died" for rec in records)


def test_a_failing_seed_in_a_lockstep_group_leaves_its_siblings_alone(tmp_path, monkeypatch):
    # seed 22's first training row is NaN: seqft's slice of the stacked step
    # turns non-finite, and g2d's generator fit, which comes before its
    # trainings, fails in EM; 21 and 23 must end as if each had run alone
    cfg = parse_config(TINY_DOC.replace("seeds: [21, 22]", "seeds: [21, 22, 23]"))
    real_build_stream = harness.build_stream

    def poisoned(bench, seed):
        stream = real_build_stream(bench, seed)
        if seed == derive(22, "stream"):
            stream.domains[0].train.X[0, 0] = np.nan
        return stream

    monkeypatch.setattr(harness, "build_stream", poisoned)
    trained = count_calls(monkeypatch, strategies, "train_classifier")
    lockstep = run_experiment(cfg, out_dir=str(tmp_path / "lockstep"))
    assert max(len(requests) for (requests,) in trained) == 3

    healthy = [rec for rec in lockstep if rec.seed != 22]
    alone = []
    for sc in cfg.strategies:
        for seed in (21, 23):
            [(rec, strategy)] = execute_run(cfg, sc, [seed])
            save_checkpoint(strategy, tmp_path / "alone" / "runs" / rec.run_id)
            alone.append(rec)
    assert [rec.run_id for rec in healthy] == [rec.run_id for rec in alone]
    assert all(rec.ok for rec in healthy)
    persist_results(healthy, str(tmp_path / "lockstep"))
    persist_results(alone, str(tmp_path / "alone"))
    for rec in lockstep:
        if rec.seed == 22:
            failure, where = {"seqft": ("non-finite loss", "in train_classifier"),
                              "g2d": ("non-finite log-likelihood during EM",
                                      "in fit_em_stack")}[rec.strategy]
            assert rec.failure.startswith(f"NumericError: {failure}")
            text = (tmp_path / "lockstep" / "runs" / rec.run_id / "failure.txt").read_text()
            assert text == rec.traceback
            assert where in text
            shutil.rmtree(tmp_path / "lockstep" / "runs" / rec.run_id)
    assert oracles.tree_mismatches(tmp_path / "lockstep", tmp_path / "alone") == []


def test_jobs_never_start_more_workers_than_tasks(tiny, tmp_path, monkeypatch):
    cfg, serial, _, _ = tiny
    started = []

    class RecordingPool:
        """ProcessPoolExecutor's stand-in: records max_workers and runs
        each task as it is submitted, starting no process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    records = run_experiment(cfg, out_dir=str(tmp_path), jobs=4)
    assert started == [len(cfg.strategies)]
    assert [r.run_id for r in records] == [r.run_id for r in serial]
    assert all(r.ok for r in records)


def test_ctrl_c_keeps_the_finished_runs(tmp_path, monkeypatch, capsys):
    config_path = tmp_path / "exp.yaml"
    config_path.write_text(TINY_DOC)
    cfg = parse_config(TINY_DOC)
    out = tmp_path / "out"
    seqft_ids = {run_id_for(cfg, "seqft", seed) for seed in cfg.seeds}
    execute_run = harness.execute_run

    def interrupted_at_g2d(cfg, sc, seeds):
        if sc.name == "g2d":
            raise KeyboardInterrupt
        return execute_run(cfg, sc, seeds)

    monkeypatch.setattr(harness, "execute_run", interrupted_at_g2d)
    assert cli.main(["run", str(config_path), "--out", str(out)]) == 130
    assert "interrupted" in capsys.readouterr().err
    assert {row["run_id"] for row in read_rows(out / "matrix.csv")} == seqft_ids
    assert {p.name for p in (out / "runs").iterdir()} == seqft_ids
    for run_id in seqft_ids:
        assert (out / "runs" / run_id / "checkpoint.txt").exists()
    assert (out / "report.txt").exists()


SHARED_DOC = """
benchmark:
  kind: covariate_shift
  n_domains: 3
  class_means: [[0.0, -1.5], [0.0, 1.5]]
  variance: 1.0
  domain_shift: [6.0, 0.0]
  n_train: 60
  n_val: 20
  n_test: 30
strategies:
  - name: g2d
    epochs: 2
    batch_size: 16
    hidden: [8]
    router_hidden: [8]
    router_epochs: 4
    gmm_components: 2
    n_per_class: 12
  - name: gen_replay
    epochs: 2
    batch_size: 16
    hidden: [8]
    gmm_components: 2
    n_per_class: 12
seeds: [31, 32]
out_dir: unused
"""


def fitted_draws(fits):
    """The seed of each fit_generator(trainset, n_classes, config, seed)
    call, which derives from the run seed and the domain."""
    return [args[3] for args in fits]


def every_draw_once(cfg):
    """fitted_draws of one fit per (run seed, domain)."""
    return sorted(derive(seed, "domain", t, "generator")
                  for seed in cfg.seeds for t in range(cfg.benchmark.n_domains))


def buffer_blocks(cfg, out, name):
    """{seed: {buffer<t>.X/.y: array}} from each run's checkpoint."""
    return {seed: {key: arr for key, arr in read_arrays(
                Path(out) / "runs" / run_id_for(cfg, name, seed) / "checkpoint.txt").items()
                   if key.startswith("buffer")}
            for seed in cfg.seeds}


@pytest.mark.parametrize("gen_replay_change", [{}, {"gmm_components": 1}, {"n_per_class": 8}])
def test_an_experiment_fits_each_draw_once_for_g2d_and_gen_replay(tmp_path, monkeypatch,
                                                                  gen_replay_change):
    cfg = parse_config(SHARED_DOC)
    gen_replay = dataclasses.replace(cfg.strategies[1], **gen_replay_change)
    cfg = dataclasses.replace(cfg, strategies=[cfg.strategies[0], gen_replay])
    fits = count_calls(monkeypatch, strategies, "fit_generator")
    assert all(r.ok for r in run_experiment(cfg, out_dir=str(tmp_path / "both")))
    # a fit is shared when every fit input matches; n_per_class only sizes
    # the buffer that each strategy samples from it
    copies = 2 if "gmm_components" in gen_replay_change else 1
    assert sorted(fitted_draws(fits)) == sorted(every_draw_once(cfg) * copies)

    for sc in cfg.strategies:
        alone = dataclasses.replace(cfg, strategies=[sc])
        assert all(r.ok for r in run_experiment(alone, out_dir=str(tmp_path / sc.name)))
        shared = buffer_blocks(cfg, tmp_path / "both", sc.name)
        solo = buffer_blocks(alone, tmp_path / sc.name, sc.name)
        for seed in cfg.seeds:
            assert sorted(shared[seed]) == sorted(solo[seed]) == sorted(
                f"buffer{t}.{a}" for t in range(cfg.benchmark.n_domains) for a in "Xy")
            for key, arr in solo[seed].items():
                assert shared[seed][key].dtype == arr.dtype
                assert np.array_equal(shared[seed][key], arr), (sc.name, seed, key)


def test_grid_candidates_share_one_draw_per_seed_and_domain(tmp_path, monkeypatch):
    cfg = parse_config(SHARED_DOC)
    g2d = dataclasses.replace(cfg.strategies[0], learning_rate=[0.01, 0.05])
    cfg = dataclasses.replace(cfg, strategies=[g2d])
    fits = count_calls(monkeypatch, strategies, "fit_generator")
    assert all(r.ok for r in run_experiment(cfg, out_dir=str(tmp_path)))
    assert sorted(fitted_draws(fits)) == every_draw_once(cfg)


def test_shared_draws_close_when_run_experiment_returns(tmp_path, monkeypatch):
    cfg = parse_config(SHARED_DOC)
    seen = []
    fit_generator = strategies.fit_generator

    def fit_and_look(*args, **kwargs):
        seen.append(strategies._fits is not None)
        return fit_generator(*args, **kwargs)

    monkeypatch.setattr(strategies, "fit_generator", fit_and_look)
    run_experiment(cfg, out_dir=str(tmp_path))
    assert seen and all(seen)
    assert strategies._fits is None and strategies._trained is None


def test_shared_draws_close_when_run_experiment_raises(tmp_path, monkeypatch):
    def broken(*args):
        # both memos are open, and empty on entry
        assert strategies._fits == {} and strategies._trained == {}
        raise RuntimeError("broken harness")

    # execute_run contains every failure of a run, so only a fault of the
    # harness itself comes out of run_experiment
    monkeypatch.setattr(harness, "execute_run", broken)
    with pytest.raises(RuntimeError, match="broken harness"):
        run_experiment(parse_config(SHARED_DOC), out_dir=str(tmp_path))
    assert strategies._fits is None and strategies._trained is None


def test_shared_draws_close_when_a_run_is_interrupted(tmp_path, monkeypatch):
    execute_run = harness.execute_run

    def interrupted_at_gen_replay(cfg, sc, seeds):
        if sc.name == "gen_replay":
            raise KeyboardInterrupt
        return execute_run(cfg, sc, seeds)

    monkeypatch.setattr(harness, "execute_run", interrupted_at_gen_replay)
    with pytest.raises(harness.RunInterrupted) as stopped:
        run_experiment(parse_config(SHARED_DOC), out_dir=str(tmp_path))
    assert [rec.strategy for rec in stopped.value.records] == ["g2d", "g2d"]
    assert strategies._fits is None and strategies._trained is None


def test_consumers_of_one_fit_own_their_buffers(monkeypatch):
    cfg = parse_config(SHARED_DOC)
    fits = count_calls(monkeypatch, strategies, "fit_generator")
    with strategies.shared_work():
        [(_, g2d)] = execute_run(cfg, cfg.strategies[0], [31])
        [(_, again)] = execute_run(cfg, cfg.strategies[0], [31])
    assert len(fits) == cfg.benchmark.n_domains
    for buf, other in zip(g2d.synthetic, again.synthetic):
        for a, b in ((buf.X, other.X), (buf.y, other.y)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
            assert a.flags.writeable and b.flags.writeable
            assert not np.shares_memory(a, b)


BANK_DOC = """
benchmark:
  kind: covariate_shift
  n_domains: 3
  class_means: [[0.0, -1.5], [0.0, 1.5]]
  variance: 1.0
  domain_shift: [6.0, 0.0]
  n_train: 60
  n_val: 20
  n_test: 30
strategies:
  - name: seqft
    epochs: 2
    batch_size: 16
    hidden: [8]
  - name: oracle_router
    epochs: 2
    batch_size: 16
    hidden: [8]
    router_hidden: [8]
    router_epochs: 4
  - name: centroid_router
    epochs: 2
    batch_size: 16
    hidden: [8]
seeds: [33, 34]
out_dir: unused
"""


def test_an_experiment_trains_each_distinct_request_once(tmp_path, monkeypatch):
    cfg = parse_config(BANK_DOC)
    T = cfg.benchmark.n_domains
    trained = count_calls(monkeypatch, strategies, "train_classifier")
    assert all(r.ok for r in run_experiment(cfg, out_dir=str(tmp_path / "shared")))
    shared = len(trained)
    trained.clear()
    for sc in cfg.strategies:   # outside the memo, every request trains
        for record, strategy in execute_run(cfg, sc, cfg.seeds):
            save_checkpoint(strategy, str(tmp_path / "alone" / "runs" / record.run_id))
    # seqft trains once per domain and oracle_router each later router; the
    # experts of both banks are seqft's models and take seqft's rows
    assert (shared, len(trained)) == (T + (T - 1), 3 * T + (T - 1))
    assert len(list((tmp_path / "alone" / "runs").iterdir())) == 3 * len(cfg.seeds)
    assert oracles.tree_mismatches(tmp_path / "shared" / "runs",
                                   tmp_path / "alone" / "runs") == []


def test_cli_validate_accepts_and_rejects(tmp_path, capsys):
    good = tmp_path / "good.yaml"
    good.write_text(TINY_DOC)
    assert cli.main(["validate", str(good)]) == 0
    assert "ok: 2 strategies" in capsys.readouterr().out

    bad = tmp_path / "bad.yaml"
    bad.write_text(TINY_DOC.replace("name: seqft", "name: sqft"))
    assert cli.main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "invalid config" in err and "sqft" in err


def test_python_dash_m_driftlab_runs_the_cli():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "driftlab", "validate", "configs/quickstart.yaml"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ok:")


def test_cli_run_report_project_round_trip(tmp_path, capsys):
    config_path = tmp_path / "exp.yaml"
    config_path.write_text(TINY_DOC.replace("seeds: [21, 22]", "seeds: [21]"))
    out = tmp_path / "out"
    assert cli.main(["run", str(config_path), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert f"results written to {out}" in stdout
    assert "seqft" in stdout and "A_T=" in stdout
    assert (out / "matrix.csv").exists()

    assert cli.main(["report", str(out)]) == 0
    assert capsys.readouterr().out == (out / "report.txt").read_text()

    g2d_id = next(row["run_id"] for row in read_rows(out / "routing.csv"))
    assert cli.main(["project", g2d_id, "--dir", str(out)]) == 0
    printed = capsys.readouterr().out
    stored = [line for line in (out / "projection.csv").read_text().splitlines()
              if line.startswith(f"{g2d_id},synthetic,")]
    assert len(stored) == 60
    assert printed == "\n".join([PROJECTION_HEADER, *stored]) + "\n"

    assert cli.main(["project", "feedfeedfeed", "--dir", str(out)]) == 1
    assert "no projection rows" in capsys.readouterr().err


@pytest.mark.parametrize("data", [b"a,b\n1,2\n",
                                  b"run_id,router_kind,domain\nfeedfeedfeed,synthetic,0\n",
                                  b"", PROJECTION_HEADER.encode() + b"\nfeedfeedfeed,caf\xe9\n"],
                         ids=["foreign", "short", "empty", "latin1"])
def test_cli_project_rejects_a_foreign_projection_file(tmp_path, capsys, data):
    (tmp_path / "projection.csv").write_bytes(data)
    assert cli.main(["project", "feedfeedfeed", "--dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "projection.csv" in captured.err


def test_cli_report_rejects_a_report_that_is_not_utf8(tmp_path, capsys):
    (tmp_path / "report.txt").write_bytes(b"caf\xe9\n")     # Latin-1
    assert cli.main(["report", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "report.txt" in captured.err


def test_output_files_are_utf8_under_an_ascii_locale(tmp_path):
    # with the C locale and UTF-8 mode off, open() defaults to ASCII, so a
    # non-ASCII failure text could not be written without an encoding
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    script = ("import sys\n"
              "from driftlab.files import write_text\n"
              "from driftlab.strategies import read_arrays\n"
              "write_text(sys.argv[1], 'failure.txt', 'ValueError: caf\\xe9\\n')\n"
              "path = write_text(sys.argv[1], 'checkpoint.txt', 'caf\\xe9 int64 shape=\\n7\\n')\n"
              "assert read_arrays(path) == {'caf\\xe9': 7}\n")
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "failure.txt").read_bytes() == "ValueError: café\n".encode()
    assert (tmp_path / "checkpoint.txt").read_bytes() == "café int64 shape=\n7\n".encode()


def test_cli_error_exit_codes(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.yaml")]) == 1
    assert cli.main(["report", str(tmp_path / "nowhere")]) == 1
    capsys.readouterr()

    failing = tmp_path / "failing.yaml"
    failing.write_text(DIVERGING_DOC.replace("seeds: [21, 22]", "seeds: [21]"))
    out = tmp_path / "failout"
    assert cli.main(["run", str(failing), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "FAILED" in captured.out
    assert "runs failed" in captured.err
    assert cli.main(["report", str(out)]) == 0
    assert "Failed runs" in capsys.readouterr().out


def test_shipped_configs_regenerate_the_committed_results(tmp_path):
    # covariate_t4 is compared in test_acceptance, which runs it anyway
    root = Path(__file__).resolve().parents[1]
    for name in ("quickstart", "flip_t2"):
        cfg = load_config(root / "configs" / f"{name}.yaml")
        out = tmp_path / name
        persist_results(run_experiment(cfg, out_dir=str(out)), str(out))
        assert oracles.tree_mismatches(out, root / "results" / name) == [], name

