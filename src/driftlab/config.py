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

The hyperparameters in GRID_FIELDS may be given as lists; the harness then
selects the best value per domain on the current domain's validation split.
Validation reports every violation at once, and serialize(parse(text))
round-trips.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field, fields, replace

import yaml

from .benchmarks import BenchmarkConfig, _is_count, _is_number, validate_benchmark
from .errors import ConfigError
from .strategies import STRATEGY_FIELDS, STRATEGY_NAMES

# scalar knobs that accept a list value for per-domain grid selection
GRID_FIELDS = ("epochs", "batch_size", "learning_rate", "lam", "quota",
               "n_per_class", "gmm_components", "router_epochs",
               "router_learning_rate")


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


@dataclass
class ExperimentConfig:
    benchmark: BenchmarkConfig
    strategies: list
    seeds: list
    out_dir: str = "results"


def _build_section(cls, raw, where, problems):
    if not isinstance(raw, dict):
        problems.append(f"{where}: expected a mapping, got {type(raw).__name__}")
        return cls()
    allowed = [f.name for f in fields(cls)]
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


def _grid_values(value, name, problems):
    """The values of a scalar or grid-list field; a grid list must hold
    one or more values, none of them repeated."""
    if not isinstance(value, list):
        return [value]
    if not value:
        problems.append(f"{name}: grid list is empty")
    elif any(v in value[:i] for i, v in enumerate(value)):
        problems.append(f"{name}: grid values repeat")
    return value


def _check_positive_int(value, name, problems, minimum=1):
    for v in _grid_values(value, name, problems):
        if not _is_count(v, minimum):
            problems.append(f"{name}: expected integer >= {minimum}, got {v!r}")


def _check_positive_float(value, name, problems, allow_zero=False):
    for v in _grid_values(value, name, problems):
        if not _is_number(v) or (v < 0 if allow_zero else v <= 0):
            bound = ">= 0" if allow_zero else "> 0"
            problems.append(f"{name}: expected finite number {bound}, got {v!r}")


def _validate_strategy(sc: StrategyConfig, idx: int, n_train, per_class, problems):
    """per_class is what validate_benchmark returned; when it is not None,
    n_train is a valid integer."""
    where = f"strategies[{idx}]"
    if sc.name not in STRATEGY_NAMES:
        problems.append(f"{where}.name: {sc.name!r} is not a strategy; "
                        f"valid names: {', '.join(STRATEGY_NAMES)}")
    else:
        # a default is no setting: serialize_config writes every field
        default = StrategyConfig()
        for f in fields(StrategyConfig):
            if (f.name not in ("name", *STRATEGY_FIELDS[sc.name])
                    and getattr(sc, f.name) != getattr(default, f.name)):
                problems.append(f"{where}.{f.name}: a {sc.name} strategy ignores this field")
    for field_name, value in (("hidden", sc.hidden), ("router_hidden", sc.router_hidden)):
        if not isinstance(value, list) or not all(_is_count(h) for h in value):
            problems.append(f"{where}.{field_name}: expected a list of integers >= 1")
    _check_positive_int(sc.epochs, f"{where}.epochs", problems, minimum=0)
    _check_positive_int(sc.batch_size, f"{where}.batch_size", problems)
    _check_positive_float(sc.learning_rate, f"{where}.learning_rate", problems)
    if sc.optimizer not in ("sgd", "adam"):
        problems.append(f"{where}.optimizer: expected 'sgd' or 'adam', got {sc.optimizer!r}")
    _check_positive_float(sc.lam, f"{where}.lam", problems, allow_zero=True)
    # one value per run, not grid fields: the Fisher estimate follows the
    # selection, and the centroid router keeps what it is built with at domain 0
    for name in ("fisher_samples", "n_centroids", "n_neighbors"):
        value = getattr(sc, name)
        if isinstance(value, list):
            problems.append(f"{where}.{name}: expected one integer, not a grid list")
        elif value is not None or name != "fisher_samples":     # None: the whole split
            _check_positive_int(value, f"{where}.{name}", problems)
    if (per_class is not None and isinstance(sc.fisher_samples, int)
            and sc.fisher_samples > n_train):
        problems.append(f"{where}.fisher_samples: {sc.fisher_samples} exceeds "
                        f"n_train {n_train}")
    _check_positive_int(sc.quota, f"{where}.quota", problems)
    _check_positive_int(sc.n_per_class, f"{where}.n_per_class", problems)
    _check_positive_int(sc.gmm_components, f"{where}.gmm_components", problems)
    _check_positive_int(sc.router_epochs, f"{where}.router_epochs", problems, minimum=0)
    _check_positive_float(sc.router_learning_rate, f"{where}.router_learning_rate", problems)
    if sc.name in ("gen_replay", "g2d") and per_class is not None:
        grid = sc.gmm_components if isinstance(sc.gmm_components, list) else [sc.gmm_components]
        for k in grid:
            if isinstance(k, int) and k > per_class:
                problems.append(f"{where}.gmm_components: {k} exceeds the {per_class} "
                                f"training samples of the smallest class")


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
    per_class = validate_benchmark(bench, problems)

    raw_strategies = raw.get("strategies", [])
    strategies = []
    if isinstance(raw_strategies, list) and raw_strategies:
        for i, entry in enumerate(raw_strategies):
            sc = _build_section(StrategyConfig, entry, f"strategies[{i}]", problems)
            _validate_strategy(sc, i, bench.n_train, per_class, problems)
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
            elif not 0 <= s < 2 ** 64:   # rng.derive masks a seed to 64 bits
                problems.append(f"seeds: {s} is outside [0, 2**64)")
        if any(s in seeds[:i] for i, s in enumerate(seeds)):   # a seed may not hash
            problems.append("seeds: duplicates present")

    out_dir = raw.get("out_dir", "results")
    if not isinstance(out_dir, str) or not out_dir:
        problems.append(f"out_dir: expected a non-empty string, got {out_dir!r}")

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(bench, strategies, list(seeds), out_dir)


def serialize_config(cfg: ExperimentConfig, **extra) -> str:
    """Render a config back to YAML; parse(serialize(cfg)) == cfg. Each
    keyword in extra is appended as a field to every strategy section."""
    doc = {
        "benchmark": asdict(cfg.benchmark),
        "strategies": [{**asdict(sc), **extra} for sc in cfg.strategies],
        "seeds": list(cfg.seeds),
        "out_dir": cfg.out_dir,
    }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return parse_config(text)


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
