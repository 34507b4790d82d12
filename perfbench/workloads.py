"""The benchmark's workloads: driftlab experiment configs made from a seed.

A workload seed only chooses the run seeds inside the config. Every shape,
epoch count and split size is fixed, so the work per experiment (optimizer
steps, Fisher rows, mixtures fitted) is the same under every workload seed
and the timings of different seeds stay comparable. The seed still changes
every data stream, every initialization and every EM trajectory.

Why each workload exists is written next to it below and in README.md.
This module imports neither numpy nor driftlab, so the orchestrator can use
it without paying their import cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import yaml

# The workload seed whose per-run row digests are stored in reference.json.
DEFAULT_SEED = 1


def write_config(cfg: dict, path: str) -> str:
    """Write an experiment config as the YAML file that load_config reads."""
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)
    return path


@dataclass(frozen=True)
class Workload:
    name: str
    source: str        # name whose seed stream picks the run seeds
    n_seeds: int
    jobs: int
    body: dict         # the config without its seeds
    expects: tuple     # spans that must record calls in a traced repeat

    def config(self, seed: int) -> dict:
        """The experiment config of this workload under a workload seed."""
        rng = random.Random(f"{self.source}/{seed}")
        seeds = sorted(rng.sample(range(1, 2 ** 31), self.n_seeds))
        return {**self.body, "seeds": seeds, "out_dir": "perfbench-out"}


_TRAIN_BODY = {
    "benchmark": {
        "kind": "covariate_shift",
        "n_domains": 4,
        "class_means": [[0.0, 0.0, 0.0, 0.0], [0.0, 4.0, 0.0, 0.0]],
        "variance": [1.0, 1.0, 16.0, 16.0],
        "domain_shift": [[0.0, 0.0, 0.0, 0.0], [5.0, 3.0, 0.0, 0.0],
                         [10.0, 0.0, 0.0, 0.0], [15.0, 3.0, 0.0, 0.0]],
        "n_train": 128,
        "n_val": 50,
        "n_test": 100,
    },
    "strategies": [
        {"name": "seqft", "epochs": 15},
        {"name": "oracle_router", "epochs": 15, "router_epochs": 30},
        {"name": "mtl", "epochs": 40},
    ],
}

_TRAIN_SPANS = ("harness.execute_run", "training.train_classifier",
                "nn.loss_and_grad", "optim.apply_step", "nn.predict",
                "benchmarks.build_stream", "strategies.save_checkpoint",
                "harness.persist_results", "config.load_config")

WORKLOADS = {w.name: w for w in (
    Workload(
        # train_classifier is nearly all of the time: three strategies over
        # three seeds, no generators, no Fisher, tiny outputs. It exercises
        # the per-step loop and, having several seeds, lockstep training.
        name="train_loop",
        source="train_loop", n_seeds=3, jobs=1, body=_TRAIN_BODY,
        expects=_TRAIN_SPANS + ("memory.build_router_trainset",),
    ),
    Workload(
        # EM fitting of 30 mixtures leads; then synthetic buffers, the
        # centroid router's per-row loop, PCA and the largest outputs. One
        # seed and two epochs, so a training or lockstep change should not
        # move it.
        name="generative_routing",
        source="generative_routing", n_seeds=1, jobs=1,
        body={
            "benchmark": {
                "kind": "rotation",
                "n_domains": 5,
                "class_means": [[3.0, 0.0, 0.0, 0.0], [-1.5, 2.6, 0.0, 0.0],
                                [-1.5, -2.6, 0.0, 0.0]],
                "variance": 1.0,
                "angles": [0.0, 0.5, 1.0, 1.5, 2.0],
                "n_train": 900,
                "n_val": 60,
                "n_test": 600,
            },
            "strategies": [
                {"name": "gen_replay", "epochs": 2, "gmm_components": 3,
                 "n_per_class": 150},
                {"name": "g2d", "epochs": 2, "router_epochs": 2,
                 "gmm_components": 3, "n_per_class": 150},
                {"name": "centroid_router", "epochs": 2},
            ],
        },
        expects=("harness.execute_run", "gmm.fit_generator", "gmm.sample_buffer",
                 "kmeans.CentroidRouter.add_domain", "kmeans.CentroidRouter.predict",
                 "pca.pca_project_2d", "memory.update_replay_buffer",
                 "memory.compose_replay_trainset", "memory.build_router_trainset",
                 "strategies.save_checkpoint", "harness.persist_results"),
    ),
    Workload(
        # Diagonal Fisher estimation leads (single-row backprops); training
        # runs through the EWC penalty hook and through grid clones: 25
        # candidate trainings, of which 10 are kept.
        name="ewc_grid",
        source="ewc_grid", n_seeds=1, jobs=1,
        body={
            "benchmark": {
                "kind": "covariate_shift",
                "n_domains": 5,
                "class_means": [[0.0, -1.5, 0.0, 0.0], [0.0, 1.5, 0.0, 0.0]],
                "variance": 1.0,
                "domain_shift": [4.0, 0.0, 0.0, 0.0],
                "n_train": 500,
                "n_val": 100,
                "n_test": 200,
            },
            "strategies": [
                {"name": "ewc", "epochs": 5, "lam": [0.5, 5.0, 50.0]},
                {"name": "er", "epochs": 5, "quota": [10, 40]},
            ],
        },
        expects=("harness.execute_run", "training.estimate_fisher_diag",
                 "training.ewc_penalty", "strategies.Strategy.clone",
                 "training.train_classifier", "memory.update_replay_buffer",
                 "memory.compose_replay_trainset", "strategies.save_checkpoint"),
    ),
    Workload(
        # train_loop's inputs through the harness process pool, the only
        # workload that forks workers.
        name="train_jobs2",
        source="train_loop", n_seeds=3, jobs=2, body=_TRAIN_BODY,
        expects=_TRAIN_SPANS + ("harness.pool",),
    ),
)}
