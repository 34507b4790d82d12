"""Declarative experiment configs: parsing, validation, serialization.

A config is one YAML document with three required sections::

    benchmark:            # what stream to generate
      kind: covariate_shift          # or conditional_flip, rotation
      n_domains: 4
      class_means: [[0.0, 0.0], [0.0, 6.0]]   # one row per class
      variance: 1.0                  # scalar or per-dimension list
      domain_shift: [5.0, 0.0]       # cumulative step, or one vector per domain
      flip_domains: [1]              # conditional_flip only
      angles: [0.0, 1.5708]          # rotation only, one per domain
      n_train: 500
      n_val: 100
      n_test: 200
    strategies:           # list of strategy sections, each with a name
      - name: g2d
        epochs: 40                   # scalar, or a list to grid-search
    seeds: [1, 2, 3]
    out_dir: results

Scalar hyperparameters may be given as lists; the harness then selects the
best value per domain on the current domain's validation split. Validation
reports every violation at once, and serialize(parse(text)) round-trips.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field, fields, replace

import yaml

from .benchmarks import (RECIPE_KINDS as BENCHMARK_KINDS,
                         recipe_conditional_flip, recipe_covariate_shift,
                         recipe_rotation)
from .errors import ConfigError
from .strategies import EXPERT_INIT_MODES, STRATEGY_NAMES

# scalar knobs that accept a list value for per-domain grid selection
GRID_FIELDS = ("epochs", "batch_size", "learning_rate", "lam", "quota",
               "n_per_class", "gmm_components", "router_epochs",
               "router_learning_rate", "n_centroids", "n_neighbors")


@dataclass
class BenchmarkConfig:
    kind: str = "covariate_shift"
    n_domains: int = 2
    class_means: list = field(default_factory=lambda: [[0.0, 0.0], [0.0, 6.0]])
    variance: object = 1.0
    domain_shift: list = None
    flip_domains: list = field(default_factory=list)
    angles: list = None
    n_train: int = 500
    n_val: int = 100
    n_test: int = 200


@dataclass
class StrategyConfig:
    name: str = ""
    hidden: list = field(default_factory=lambda: [32])
    epochs: object = 40
    batch_size: object = 32
    learning_rate: object = 0.01
    optimizer: str = "adam"
    lam: object = 1.0
    fisher_samples: object = None
    quota: object = 15
    n_per_class: object = 15
    gmm_components: object = 1
    router_hidden: list = field(default_factory=lambda: [32])
    router_epochs: object = 80
    router_learning_rate: object = 0.01
    n_centroids: object = 5
    n_neighbors: object = 1
    expert_init: str = "sequential"


@dataclass
class ExperimentConfig:
    benchmark: BenchmarkConfig
    strategies: list
    seeds: list
    out_dir: str = "results"


def _field_names(cls):
    return [f.name for f in fields(cls)]


def _build_section(cls, raw, where, problems):
    if not isinstance(raw, dict):
        problems.append(f"{where}: expected a mapping, got {type(raw).__name__}")
        return cls()
    allowed = _field_names(cls)
    kwargs = {}
    for key, value in raw.items():
        if key not in allowed:
            problems.append(f"{where}: unknown field {key!r}")
        else:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        problems.append(f"{where}: {exc}")
        return cls()


def _check_positive_int(value, name, problems, minimum=1):
    values = value if isinstance(value, list) else [value]
    if not values:
        problems.append(f"{name}: grid list is empty")
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
            problems.append(f"{name}: expected integer >= {minimum}, got {v!r}")


def _check_positive_float(value, name, problems, allow_zero=False):
    values = value if isinstance(value, list) else [value]
    if not values:
        problems.append(f"{name}: grid list is empty")
    for v in values:
        ok = isinstance(v, (int, float)) and not isinstance(v, bool)
        if not ok or (v < 0 if allow_zero else v <= 0):
            bound = ">= 0" if allow_zero else "> 0"
            problems.append(f"{name}: expected number {bound}, got {v!r}")


def _validate_benchmark(bench: BenchmarkConfig, problems):
    """Returns the smallest class count of a training split (the balanced
    split gives the remainder to the lower classes), or None when the
    section is too broken to tell."""
    where = "benchmark"
    if bench.kind not in BENCHMARK_KINDS:
        problems.append(f"{where}.kind: {bench.kind!r} is not one of {', '.join(BENCHMARK_KINDS)}")
    if not isinstance(bench.n_domains, int) or bench.n_domains < 1:
        problems.append(f"{where}.n_domains: expected integer >= 1, got {bench.n_domains!r}")
        return
    means = bench.class_means
    dim = None
    if (not isinstance(means, list) or len(means) < 2
            or not all(isinstance(row, list) and row for row in means)):
        problems.append(f"{where}.class_means: expected >= 2 rows of numbers")
    else:
        dim = len(means[0])
        if any(len(row) != dim for row in means):
            problems.append(f"{where}.class_means: rows have unequal lengths")
            dim = None
    if isinstance(bench.variance, list):
        if dim is not None and len(bench.variance) != dim:
            problems.append(f"{where}.variance: expected {dim} entries, got {len(bench.variance)}")
        for v in bench.variance:
            if not isinstance(v, (int, float)) or v <= 0:
                problems.append(f"{where}.variance: entries must be positive numbers")
                break
    elif not isinstance(bench.variance, (int, float)) or bench.variance <= 0:
        problems.append(f"{where}.variance: expected a positive number, got {bench.variance!r}")
    if bench.domain_shift is not None and dim is not None:
        shift = bench.domain_shift
        flat = isinstance(shift, list) and all(isinstance(v, (int, float)) for v in shift)
        nested = (isinstance(shift, list)
                  and all(isinstance(row, list) and len(row) == dim for row in shift))
        if flat and len(shift) != dim:
            problems.append(f"{where}.domain_shift: vector must have length {dim}")
        elif nested and len(shift) != bench.n_domains:
            problems.append(f"{where}.domain_shift: need one vector per domain")
        elif not (flat or nested):
            problems.append(f"{where}.domain_shift: expected a vector or one vector per domain")
    flips = bench.flip_domains
    if not isinstance(flips, list):
        problems.append(f"{where}.flip_domains: expected a list of indices, got {flips!r}")
        flips = []
    for t in flips:
        if not isinstance(t, int) or not 0 <= t < bench.n_domains:
            problems.append(f"{where}.flip_domains: index {t!r} outside [0, {bench.n_domains})")
    if bench.kind == "rotation":
        if not isinstance(bench.angles, list) or len(bench.angles) != bench.n_domains:
            problems.append(f"{where}.angles: rotation needs one angle per domain")
        else:
            for a in bench.angles:
                if not isinstance(a, (int, float)) or isinstance(a, bool):
                    problems.append(f"{where}.angles: expected numbers, got {a!r}")
    for name in ("n_train", "n_val", "n_test"):
        v = getattr(bench, name)
        if not isinstance(v, int) or v < 1:
            problems.append(f"{where}.{name}: expected integer >= 1, got {v!r}")
    if dim is None or not isinstance(bench.n_train, int):
        return None
    if bench.n_train < 5 * len(means):
        problems.append(f"{where}.n_train: {bench.n_train} is below 5 per class "
                        f"for {len(means)} classes")
    return bench.n_train // len(means)


def _validate_strategy(sc: StrategyConfig, idx: int, per_class, problems):
    """per_class is what _validate_benchmark returned."""
    where = f"strategies[{idx}]"
    if sc.name not in STRATEGY_NAMES:
        problems.append(
            f"{where}.name: {sc.name!r} is not a strategy; valid names: "
            f"{', '.join(STRATEGY_NAMES)}"
        )
    for field_name, value in (("hidden", sc.hidden), ("router_hidden", sc.router_hidden)):
        if (not isinstance(value, list)
                or not all(isinstance(h, int) and h >= 1 for h in value)):
            problems.append(f"{where}.{field_name}: expected a list of integers >= 1")
    _check_positive_int(sc.epochs, f"{where}.epochs", problems, minimum=0)
    _check_positive_int(sc.batch_size, f"{where}.batch_size", problems)
    _check_positive_float(sc.learning_rate, f"{where}.learning_rate", problems)
    if sc.optimizer not in ("sgd", "adam"):
        problems.append(f"{where}.optimizer: expected 'sgd' or 'adam', got {sc.optimizer!r}")
    _check_positive_float(sc.lam, f"{where}.lam", problems, allow_zero=True)
    if sc.fisher_samples is not None:
        _check_positive_int(sc.fisher_samples, f"{where}.fisher_samples", problems)
    _check_positive_int(sc.quota, f"{where}.quota", problems)
    _check_positive_int(sc.n_per_class, f"{where}.n_per_class", problems)
    _check_positive_int(sc.gmm_components, f"{where}.gmm_components", problems)
    _check_positive_int(sc.router_epochs, f"{where}.router_epochs", problems, minimum=0)
    _check_positive_float(sc.router_learning_rate, f"{where}.router_learning_rate", problems)
    _check_positive_int(sc.n_centroids, f"{where}.n_centroids", problems)
    _check_positive_int(sc.n_neighbors, f"{where}.n_neighbors", problems)
    if sc.name in ("gen_replay", "g2d") and per_class is not None:
        grid = sc.gmm_components if isinstance(sc.gmm_components, list) else [sc.gmm_components]
        for k in grid:
            if isinstance(k, int) and k > per_class:
                problems.append(f"{where}.gmm_components: {k} exceeds the {per_class} "
                                f"training samples of the smallest class")
    if sc.expert_init not in EXPERT_INIT_MODES:
        problems.append(
            f"{where}.expert_init: expected one of {', '.join(EXPERT_INIT_MODES)}, "
            f"got {sc.expert_init!r}"
        )


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a YAML experiment config.

    Raises ConfigError carrying the full list of violations; a valid
    document yields an ExperimentConfig.
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"not parseable as YAML: {exc}"])
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a mapping with keys "
                           "benchmark, strategies, seeds"])
    problems = []
    known = {"benchmark", "strategies", "seeds", "out_dir"}
    for key in raw:
        if key not in known:
            problems.append(f"unknown top-level field {key!r}")
    for key, kind in (("benchmark", dict), ("strategies", list), ("seeds", list)):
        if key not in raw:
            problems.append(f"missing required field {key!r} ({kind.__name__})")

    bench = _build_section(BenchmarkConfig, raw.get("benchmark", {}), "benchmark", problems)
    per_class = _validate_benchmark(bench, problems)

    raw_strategies = raw.get("strategies", [])
    strategies = []
    if isinstance(raw_strategies, list) and raw_strategies:
        for i, entry in enumerate(raw_strategies):
            sc = _build_section(StrategyConfig, entry, f"strategies[{i}]", problems)
            _validate_strategy(sc, i, per_class, problems)
            strategies.append(sc)
        names = [sc.name for sc in strategies]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            problems.append(f"strategies: duplicate names {dupes}")
    elif "strategies" in raw:
        problems.append("strategies: expected a non-empty list")

    seeds = raw.get("seeds", [])
    if not isinstance(seeds, list) or not seeds:
        if "seeds" in raw:
            problems.append("seeds: expected a non-empty list of integers")
        seeds = []
    else:
        for s in seeds:
            if not isinstance(s, int) or isinstance(s, bool):
                problems.append(f"seeds: expected integers, got {s!r}")
        if len(set(seeds)) != len(seeds):
            problems.append("seeds: duplicates present")

    out_dir = raw.get("out_dir", "results")
    if not isinstance(out_dir, str) or not out_dir:
        problems.append(f"out_dir: expected a non-empty string, got {out_dir!r}")

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(bench, strategies, list(seeds), out_dir)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config back to YAML; parse(serialize(cfg)) == cfg."""
    doc = {
        "benchmark": asdict(cfg.benchmark),
        "strategies": [asdict(sc) for sc in cfg.strategies],
        "seeds": list(cfg.seeds),
        "out_dir": cfg.out_dir,
    }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def make_recipes(bench: BenchmarkConfig):
    """Turn the benchmark section into per-domain recipes."""
    sizes = dict(n_train=bench.n_train, n_val=bench.n_val, n_test=bench.n_test)
    if bench.kind == "rotation":
        return recipe_rotation(bench.class_means, bench.variance, bench.angles, **sizes)
    if bench.kind == "conditional_flip":
        return recipe_conditional_flip(
            bench.class_means, bench.variance, bench.flip_domains,
            bench.n_domains, shifts=bench.domain_shift, **sizes,
        )
    dim = len(bench.class_means[0])
    shift = bench.domain_shift if bench.domain_shift is not None else [0.0] * dim
    return recipe_covariate_shift(bench.class_means, shift, bench.variance,
                                  n_domains=bench.n_domains, **sizes)


def expand_grid(sc: StrategyConfig):
    """All hyperparameter combinations of a strategy section, in documented
    order: grid fields vary in their declaration order, later fields
    fastest. Each combination is a copy of the section with one scalar per
    grid field; a config without list values yields exactly one.
    """
    axes = []
    for name in GRID_FIELDS:
        value = getattr(sc, name)
        axes.append([(name, v) for v in (value if isinstance(value, list) else [value])])
    return [replace(sc, **dict(point)) for point in itertools.product(*axes)]
