"""Config parsing, exhaustive validation, serialization round-trips, and
hyperparameter grid expansion."""

from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import cli
from driftlab.benchmarks import (BENCHMARK_KINDS, BenchmarkConfig, _domains,
                                 build_stream)
from driftlab.config import (GRID_FIELDS, StrategyConfig, expand_grid, load_config,
                             parse_config, serialize_config)
from driftlab.errors import ConfigError
from driftlab.strategies import STRATEGY_FIELDS, STRATEGY_NAMES

VALID_DOC = """
benchmark:
  kind: covariate_shift
  n_domains: 3
  class_means: [[0.0, 0.0], [0.0, 4.0]]
  variance: 1.0
  domain_shift: [5.0, 0.0]
  n_train: 200
  n_val: 50
  n_test: 80
strategies:
  - name: seqft
    epochs: 10
  - name: g2d
    epochs: 10
    n_per_class: 20
seeds: [1, 2]
out_dir: results/demo
"""


def violations(text):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    return err.value.violations


def test_valid_document_parses():
    cfg = parse_config(VALID_DOC)
    assert cfg.benchmark.n_domains == 3
    assert [sc.name for sc in cfg.strategies] == ["seqft", "g2d"]
    assert cfg.seeds == [1, 2]
    assert cfg.out_dir == "results/demo"


def test_unset_fields_take_documented_defaults():
    cfg = parse_config(
        "benchmark: {class_means: [[0.0], [3.0]]}\n"
        "strategies: [{name: seqft}]\n"
        "seeds: [5]\n"
    )
    assert cfg.out_dir == "results"
    assert cfg.benchmark.kind == "covariate_shift"
    assert cfg.strategies[0].epochs == 40
    assert cfg.strategies[0].optimizer == "adam"


def test_serialize_then_parse_round_trips():
    cfg = parse_config(VALID_DOC)
    assert parse_config(serialize_config(cfg)) == cfg


def unreadable_is_a_config_error(path, reason):
    with pytest.raises(ConfigError, match=reason) as raised:
        load_config(path)
    assert str(path) in str(raised.value)
    for command in ("validate", "run"):
        assert cli.main([command, str(path)]) == 1


def test_a_directory_is_a_config_error(tmp_path):
    unreadable_is_a_config_error(tmp_path, "Is a directory")


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(VALID_DOC.replace("results/demo", "r\xe9sultats").encode("latin-1"))
    unreadable_is_a_config_error(path, "can't decode byte 0xe9")


def test_load_config_reads_a_file(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(VALID_DOC)
    assert load_config(path) == parse_config(VALID_DOC)


def test_shipped_example_configs_are_valid():
    config_dir = Path(__file__).resolve().parents[1] / "configs"
    for name in ("quickstart", "covariate_t4", "flip_t2"):
        cfg = load_config(config_dir / f"{name}.yaml")
        assert cfg.seeds


def test_unknown_strategy_name_lists_the_roster():
    problems = violations(VALID_DOC.replace("name: g2d", "name: g2dd"))
    joined = "; ".join(problems)
    assert "g2dd" in joined
    for name in STRATEGY_NAMES:
        assert name in joined


def test_all_violations_are_collected_at_once():
    doc = """
benchmark:
  kind: mystery_shift
  class_means: [[0.0, 0.0], [0.0, 4.0]]
  variance: -2.0
strategies:
  - name: seqft
    lam: -1.0
    optimizer: adagrad
seeds: [1, 1]
typo_section: true
"""
    problems = violations(doc)
    joined = "; ".join(problems)
    assert len(problems) >= 5
    assert "mystery_shift" in joined
    assert "variance" in joined
    assert "lam" in joined
    assert "adagrad" in joined
    assert "duplicates" in joined
    assert "typo_section" in joined


def test_unknown_fields_are_flagged_per_section():
    doc = VALID_DOC.replace("out_dir: results/demo",
                            "out_dir: results/demo\nextra: 1")
    assert any("extra" in p for p in violations(doc))
    doc = VALID_DOC.replace("n_test: 80", "n_test: 80\n  warp: 9")
    assert any("benchmark: unknown field 'warp'" in p for p in violations(doc))
    # expert_init was a field once; a config that still sets it is told so
    for field, value in (("momentum", "0.9"), ("expert_init", "sequential")):
        doc = VALID_DOC.replace("epochs: 10\n    n_per_class: 20",
                                f"epochs: 10\n    {field}: {value}")
        assert any(f"strategies[1]: unknown field '{field}'" in p for p in violations(doc))


def test_missing_required_sections_are_reported():
    problems = violations("out_dir: somewhere\n")
    joined = "; ".join(problems)
    for key in ("benchmark", "strategies", "seeds"):
        assert key in joined


def test_not_yaml_and_not_mapping_are_rejected():
    assert any("YAML" in p for p in violations("a: [unclosed"))
    assert any("mapping" in p for p in violations("- just\n- a list\n"))


def test_benchmark_geometry_violations():
    assert any("class_means" in p for p in violations(
        VALID_DOC.replace("[[0.0, 0.0], [0.0, 4.0]]", "[[0.0, 0.0]]")))
    assert any("unequal lengths" in p for p in violations(
        VALID_DOC.replace("[[0.0, 0.0], [0.0, 4.0]]", "[[0.0, 0.0], [0.0, 4.0, 1.0]]")))
    assert any("domain_shift" in p for p in violations(
        VALID_DOC.replace("[5.0, 0.0]", "[5.0, 0.0, 1.0]")))
    assert any("one vector per domain" in p for p in violations(
        VALID_DOC.replace("[5.0, 0.0]", "[[5.0, 0.0], [1.0, 0.0]]")))
    assert any("variance" in p for p in violations(
        VALID_DOC.replace("variance: 1.0", "variance: [1.0, 2.0, 3.0]")))
    assert any("n_train" in p for p in violations(
        VALID_DOC.replace("n_train: 200", "n_train: 0")))
    # every entry where a number is expected must be a finite number, not a
    # string, a bool, NaN or infinity; each of these passed and then failed
    # or built non-finite features in every run
    for old, new, field in [
        ("[[0.0, 0.0], [0.0, 4.0]]", '[["a", 0.0], [0.0, 3.0]]', "class_means"),
        ("[[0.0, 0.0], [0.0, 4.0]]", "[[.inf, 0.0], [0.0, 3.0]]", "class_means"),
        ("[[0.0, 0.0], [0.0, 4.0]]", "[[true, 0.0], [0.0, 3.0]]", "class_means"),
        ("[5.0, 0.0]", '[[0.0, "x"], [1.0, 1.0], [2.0, 2.0]]', "domain_shift"),
        ("[5.0, 0.0]", "[.nan, 0.0]", "domain_shift"),
        ("variance: 1.0", "variance: .inf", "variance"),
        ("variance: 1.0", "variance: true", "variance"),
        ("n_domains: 3", "n_domains: true", "n_domains"),
    ]:
        assert any(f"benchmark.{field}:" in p for p in violations(VALID_DOC.replace(old, new)))
    # finite entries whose shifted means overflow
    assert any("class means of domain 2 overflow" in p for p in violations(
        VALID_DOC.replace("[5.0, 0.0]", "[1.0e+308, 0.0]")))


def test_flip_indices_must_lie_inside_the_stream():
    doc = VALID_DOC.replace("kind: covariate_shift",
                            "kind: conditional_flip\n  flip_domains: [3]")
    assert any("flip_domains" in p for p in violations(doc))
    # a scalar instead of a list is a violation, not a crash
    assert any("flip_domains: expected a list" in p
               for p in violations(doc.replace("flip_domains: [3]", "flip_domains: 1")))


NO_SHIFT = "\n  domain_shift: [5.0, 0.0]"


def test_fields_a_kind_ignores_are_rejected():
    rotation = VALID_DOC.replace("kind: covariate_shift",
                                 "kind: rotation\n  angles: [0.0, 0.5, 1.0]")
    flip = VALID_DOC.replace("kind: covariate_shift", "kind: conditional_flip")
    for doc, extra, field_name in (
            (rotation, "", "domain_shift"),
            (rotation.replace(NO_SHIFT, ""), "\n  flip_domains: [1]", "flip_domains"),
            (VALID_DOC, "\n  flip_domains: [1]", "flip_domains"),
            (VALID_DOC, "\n  angles: [0.0, 0.5, 1.0]", "angles"),
            (flip, "\n  angles: [0.0, 0.5, 1.0]", "angles")):
        doc = doc.replace("n_train: 200", "n_train: 200" + extra)
        assert f"benchmark.{field_name}: a " in " ".join(violations(doc)), (doc, field_name)
    # an empty flip list is the default, not a setting
    parse_config(rotation.replace(NO_SHIFT, "\n  flip_domains: []"))


def test_rotation_needs_one_angle_per_domain():
    doc = VALID_DOC.replace("kind: covariate_shift",
                            "kind: rotation\n  angles: [0.0, 0.5]")
    assert any("angles" in p for p in violations(doc))
    # the right count of angles must also all be numbers
    assert any("angles: expected finite numbers" in p
               for p in violations(doc.replace("[0.0, 0.5]", '[0.0, "x", 1.0]')))
    assert any("angles: expected finite numbers" in p
               for p in violations(doc.replace("[0.0, 0.5]", "[0.0, .nan, 1.0]")))
    # a rotation turns the first two coordinates, so it needs two features
    one_d = doc.replace("[0.0, 0.5]", "[0.0, 0.5, 1.0]").replace(
        "[[0.0, 0.0], [0.0, 4.0]]", "[[0.0], [4.0]]").replace(NO_SHIFT, "")
    assert violations(one_d) == [
        "benchmark.class_means: rotation needs at least 2 features, got 1"]


def test_configs_that_can_never_run_are_rejected():
    # fewer than 5 training samples per class: build_stream would refuse
    assert any("n_train: 6 is below 5 per class" in p
               for p in violations(VALID_DOC.replace("n_train: 200", "n_train: 6")))
    # more mixture components than the smallest class has samples: every
    # generator fit would fail; the check covers each grid value
    small = VALID_DOC.replace("n_train: 200", "n_train: 12")
    doc = small.replace("n_per_class: 20", "n_per_class: 20\n    gmm_components: [1, 7]")
    assert any("gmm_components: 7 exceeds the 6" in p for p in violations(doc))
    # an odd split leaves the smaller count on the higher class
    assert violations(doc.replace("n_train: 12", "n_train: 13"))
    parse_config(small.replace("n_per_class: 20", "n_per_class: 20\n    gmm_components: 6"))
    # fisher_samples is one integer (not a grid field) no larger than the
    # training split the Fisher diagonal is estimated on
    def ewc_with_fisher(value):
        return VALID_DOC.replace("name: seqft\n    epochs: 10",
                                 f"name: ewc\n    epochs: 10\n    fisher_samples: {value}")

    assert any("fisher_samples: expected one integer" in p
               for p in violations(ewc_with_fisher("[10, 20]")))
    assert any("fisher_samples: 1000 exceeds n_train 200" in p
               for p in violations(ewc_with_fisher(1000)))
    assert parse_config(ewc_with_fisher(200)).strategies[0].fisher_samples == 200
    # strategy knobs are finite numbers
    for knob, value in (("learning_rate", ".inf"), ("lam", ".nan")):
        doc = VALID_DOC.replace("name: seqft\n    epochs: 10",
                                f"name: ewc\n    epochs: 10\n    {knob}: {value}")
        assert any(f"{knob}: expected finite number" in p for p in violations(doc))
    # a strategy without generators reads no gmm_components, so setting it
    # is a mistake, however large
    assert violations(small.replace("epochs: 10\n  - name: g2d",
                                    "epochs: 10\n    gmm_components: 7\n  - name: g2d")) == [
        "strategies[0].gmm_components: a seqft strategy ignores this field"]


def test_centroid_router_knobs_are_not_grid_fields():
    # the router is built once, at domain 0, so a grid over either knob
    # would silently keep its first value
    for knob, value in (("n_centroids", "[1, 10]"), ("n_neighbors", "[1, 3]")):
        doc = VALID_DOC.replace("name: g2d\n    epochs: 10\n    n_per_class: 20",
                                f"name: centroid_router\n    {knob}: {value}")
        assert any(f"strategies[1].{knob}: expected one integer, not a grid list" in p
                   for p in violations(doc))
        assert violations(doc.replace(value, "0"))
        parse_config(doc.replace(value, "3"))


def test_seed_list_validation():
    assert any("seeds" in p for p in violations(VALID_DOC.replace("[1, 2]", "[]")))
    assert any("seeds" in p for p in violations(VALID_DOC.replace("[1, 2]", "[1, two]")))
    assert violations(VALID_DOC.replace("[1, 2]", "[[1], 2]")) == [
        "seeds: expected integers, got [1]"]
    assert any("duplicates" in p for p in violations(VALID_DOC.replace("[1, 2]", "[4, 4]")))
    # seeds are masked to 64 bits, so -1 would run the stream of 2**64 - 1
    assert violations(VALID_DOC.replace("[1, 2]", "[-1, 18446744073709551615]")) == [
        "seeds: -1 is outside [0, 2**64)"]
    assert violations(VALID_DOC.replace("[1, 2]", "[18446744073709551616]")) == [
        "seeds: 18446744073709551616 is outside [0, 2**64)"]
    assert parse_config(VALID_DOC.replace("[1, 2]", "[0, 18446744073709551615]"))


def test_strategy_knob_validation():
    pairs = [
        ("epochs: 10\n    n_per_class: 20", "epochs: -1"),
        ("epochs: 10\n    n_per_class: 20", "batch_size: 0"),
        ("epochs: 10\n    n_per_class: 20", "learning_rate: 0.0"),
        ("epochs: 10\n    n_per_class: 20", "hidden: [0]"),
        ("epochs: 10\n    n_per_class: 20", "hidden: [true]"),
        ("epochs: 10\n    n_per_class: 20", "router_hidden: [true, 3]"),
        ("epochs: 10\n    n_per_class: 20", "quota: 0"),
        ("epochs: 10\n    n_per_class: 20", "router_epochs: -1"),
        ("epochs: 10\n    n_per_class: 20", "epochs: []"),
        ("epochs: 10\n    n_per_class: 20", "learning_rate: [0.05, 0.05]"),
        ("epochs: 10\n    n_per_class: 20", "router_epochs: [1, 2, 1.0]"),
    ]
    for old, new in pairs:
        assert violations(VALID_DOC.replace(old, new))
    # a repeated value would train an identical candidate that never wins a tie
    assert violations(VALID_DOC.replace(*pairs[-2])) == [
        "strategies[1].learning_rate: grid values repeat"]


def test_epochs_zero_is_a_legal_no_op():
    cfg = parse_config(VALID_DOC.replace("epochs: 10\n    n_per_class: 20", "epochs: 0"))
    assert cfg.strategies[1].epochs == 0


def test_duplicate_strategy_names_are_rejected():
    doc = VALID_DOC.replace("name: g2d", "name: seqft")
    assert any("duplicate names" in p for p in violations(doc))


def test_grid_expansion_counts_and_defaults():
    cfg = parse_config(VALID_DOC)
    single = expand_grid(cfg.strategies[0])
    assert len(single) == 1
    assert single[0].epochs == 10
    assert single[0].hidden == [32]

    gridded = parse_config(VALID_DOC.replace(
        "epochs: 10\n    n_per_class: 20",
        "epochs: [5, 10]\n    learning_rate: [0.1, 0.01, 0.001]"))
    combos = expand_grid(gridded.strategies[1])
    assert len(combos) == 6


def test_grid_order_varies_later_fields_fastest():
    cfg = parse_config(VALID_DOC.replace(
        "epochs: 10\n    n_per_class: 20",
        "epochs: [5, 10]\n    n_per_class: [10, 20]"))
    combos = expand_grid(cfg.strategies[1])
    assert GRID_FIELDS.index("epochs") < GRID_FIELDS.index("n_per_class")
    assert [(hp.epochs, hp.n_per_class) for hp in combos] == \
        [(5, 10), (5, 20), (10, 10), (10, 20)]


# The per-domain values a parsed benchmark section stands for: one
# (class means, cluster -> label) pair per domain.

def test_domains_covariate_vector_accumulates():
    cfg = parse_config(VALID_DOC)
    domains = list(_domains(cfg.benchmark))
    assert len(domains) == 3
    base = np.asarray(cfg.benchmark.class_means)
    for t, (means, labels) in enumerate(domains):
        assert labels.tolist() == [0, 1]
        assert np.allclose(means, base + t * np.array([5.0, 0.0]))


def test_domains_covariate_matrix_is_per_domain():
    doc = VALID_DOC.replace("domain_shift: [5.0, 0.0]",
                            "domain_shift: [[0.0, 0.0], [1.0, 0.0], [9.0, 9.0]]")
    cfg = parse_config(doc)
    domains = list(_domains(cfg.benchmark))
    base = np.asarray(cfg.benchmark.class_means)
    assert np.allclose(domains[1][0], base + np.array([1.0, 0.0]))
    assert np.allclose(domains[2][0], base + np.array([9.0, 9.0]))


def test_domains_flip_marks_only_listed_domains():
    doc = VALID_DOC.replace("kind: covariate_shift",
                            "kind: conditional_flip\n  flip_domains: [1]")
    cfg = parse_config(doc)
    assert [labels.tolist() for _, labels in _domains(cfg.benchmark)] == \
        [[0, 1], [1, 0], [0, 1]]


def test_domains_rotation_carries_angles():
    doc = VALID_DOC.replace("kind: covariate_shift",
                            "kind: rotation\n  angles: [0.0, 0.7, 1.4]").replace(NO_SHIFT, "")
    cfg = parse_config(doc)
    base = np.asarray(cfg.benchmark.class_means)
    for angle, (means, labels) in zip([0.0, 0.7, 1.4], _domains(cfg.benchmark)):
        c, s = np.cos(angle), np.sin(angle)
        assert np.allclose(means, base @ np.array([[c, s], [-s, c]]))
        assert labels.tolist() == [0, 1]


# Random benchmark sections, mostly valid: about one draw in twenty breaks
# a rule, with a NaN, an infinity, a string, a bool or a finite float of any
# magnitude and sign for a number, a vector of random length, a missing
# angle list, a flip index past the stream or too few training samples;
# and about one in four sets a field that the kind ignores.
WILD = st.one_of(st.sampled_from([float("nan"), float("inf"), float("-inf"), "x", True]),
                 st.floats(allow_nan=False, allow_infinity=False))
COORDS = st.floats(-10.0, 10.0)
VARIANCES = st.floats(0.01, 100.0)
IGNORED = {"covariate_shift": ("flip_domains", "angles"),
           "conditional_flip": ("angles",),
           "rotation": ("domain_shift", "flip_domains")}


def rarely(bad, good, one_in=20):
    return st.integers(1, one_in).flatmap(lambda i: bad if i == one_in else good)


def vectors(dim, good=COORDS):
    return rarely(st.lists(rarely(WILD, good), max_size=dim + 1),
                  st.lists(rarely(WILD, good), min_size=dim, max_size=dim))


@st.composite
def benchmark_sections(draw):
    kind = draw(st.sampled_from(BENCHMARK_KINDS))
    n_domains = draw(st.integers(1, 4))
    dim = draw(st.integers(1, 3))
    n_classes = draw(st.integers(2, 3))
    unset = {"domain_shift": st.none(), "flip_domains": st.just([]), "angles": st.none()}
    used = {
        "domain_shift": st.one_of(
            st.none(), vectors(dim),
            st.lists(vectors(dim), min_size=n_domains, max_size=n_domains)),
        "flip_domains": st.lists(rarely(st.just(n_domains),
                                        st.integers(0, n_domains - 1)), max_size=2),
        "angles": rarely(st.none(), st.lists(rarely(WILD, COORDS), min_size=n_domains,
                                             max_size=n_domains)),
    }
    return {
        "kind": kind,
        "n_domains": n_domains,
        "class_means": draw(st.lists(vectors(dim), min_size=n_classes, max_size=n_classes)),
        "variance": draw(st.one_of(rarely(WILD, VARIANCES), vectors(dim, VARIANCES))),
        **{name: draw(rarely(used[name], unset[name], 4) if name in IGNORED[kind]
                      else used[name])
           for name in ("domain_shift", "flip_domains", "angles")},
        "n_train": draw(rarely(st.just(5 * n_classes - 1), st.integers(5 * n_classes, 16))),
        "n_val": draw(st.integers(1, 4)),
        "n_test": draw(st.integers(1, 4)),
    }


@settings(max_examples=60, deadline=None)
@given(section=benchmark_sections(), seed=st.integers(0, 2 ** 32))
def test_random_benchmark_sections_are_rejected_or_build_finite_streams(section, seed):
    doc = yaml.safe_dump({"benchmark": section, "strategies": [{"name": "seqft"}],
                          "seeds": [1]})
    try:
        cfg = parse_config(doc)
    except ConfigError as exc:
        # build_stream applies the same rules as validate, with the same words
        with pytest.raises(ConfigError) as err:
            build_stream(BenchmarkConfig(**section), seed)
        assert err.value.violations == exc.violations
        return
    # no accepted section sets a field that its kind ignores
    assert all(section[name] in (None, []) for name in IGNORED[section["kind"]])
    stream = build_stream(cfg.benchmark, seed)
    n_classes = len(section["class_means"])
    assert stream.n_domains == section["n_domains"]
    for d in stream.domains:
        for split in (d.train, d.val, d.test):
            assert np.isfinite(split.X).all()
            assert ((0 <= split.y) & (split.y < n_classes)).all()
    assert parse_config(serialize_config(cfg)) == cfg


# Random valid strategy sections over a fixed benchmark whose smallest class
# has 10 training samples: each knob the strategy reads is set or left at
# its default, and a grid knob is a scalar or a list of one to three
# distinct values.
SMALL_BENCHMARK = {"n_domains": 2, "class_means": [[0.0, 0.0], [0.0, 4.0]],
                   "domain_shift": [3.0, 0.0], "n_train": 20, "n_val": 4, "n_test": 4}


def grid_knob(values):
    return st.one_of(values, st.lists(values, min_size=1, max_size=3, unique=True))


RATES = st.floats(1e-6, 1e3)
STRATEGY_KNOBS = {
    "hidden": st.lists(st.integers(1, 64), max_size=3),
    "epochs": grid_knob(st.integers(0, 50)),
    "batch_size": grid_knob(st.integers(1, 64)),
    "learning_rate": grid_knob(RATES),
    "optimizer": st.sampled_from(["sgd", "adam"]),
    "lam": grid_knob(st.floats(0.0, 1e3)),
    "fisher_samples": st.one_of(st.none(), st.integers(1, 20)),
    "quota": grid_knob(st.integers(1, 50)),
    "n_per_class": grid_knob(st.integers(1, 50)),
    "gmm_components": grid_knob(st.integers(1, 10)),
    "router_hidden": st.lists(st.integers(1, 64), max_size=3),
    "router_epochs": grid_knob(st.integers(0, 100)),
    "router_learning_rate": grid_knob(RATES),
    "n_centroids": st.integers(1, 10),
    "n_neighbors": st.integers(1, 10),
}


@st.composite
def strategy_sections(draw):
    names = draw(st.lists(st.sampled_from(STRATEGY_NAMES), min_size=1, max_size=3,
                          unique=True))
    sections = []
    for name in names:
        knobs = draw(st.lists(st.sampled_from(sorted(STRATEGY_FIELDS[name])), unique=True))
        sections.append({"name": name, **{k: draw(STRATEGY_KNOBS[k]) for k in knobs}})
    return sections


@settings(max_examples=40, deadline=None)
@given(sections=strategy_sections(), data=st.data())
def test_random_strategy_sections_parse_as_written_and_round_trip(sections, data):
    cfg = parse_config(yaml.safe_dump({"benchmark": SMALL_BENCHMARK,
                                       "strategies": sections, "seeds": [1]}))
    for sc, section in zip(cfg.strategies, sections):
        assert {k: getattr(sc, k) for k in section} == section
    assert parse_config(serialize_config(cfg)) == cfg
    # any other value than its default in a field the strategy never reads
    # is rejected
    i = data.draw(st.integers(0, len(sections) - 1))
    name = sections[i]["name"]
    knob = data.draw(st.sampled_from(sorted(set(STRATEGY_KNOBS) - set(STRATEGY_FIELDS[name]))))
    default = getattr(StrategyConfig(), knob)
    changed = [*sections]
    changed[i] = {**sections[i], knob: data.draw(STRATEGY_KNOBS[knob].filter(
        lambda value: value != default))}
    assert f"strategies[{i}].{knob}: a {name} strategy ignores this field" in violations(
        yaml.safe_dump({"benchmark": SMALL_BENCHMARK, "strategies": changed, "seeds": [1]}))
