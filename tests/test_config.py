"""Config parsing, exhaustive validation, serialization round-trips, and
hyperparameter grid expansion."""

from pathlib import Path

import numpy as np
import pytest

from driftlab.config import (GRID_FIELDS, expand_grid, load_config,
                             make_recipes, parse_config, serialize_config)
from driftlab.errors import ConfigError
from driftlab.strategies import STRATEGY_NAMES

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
    doc = VALID_DOC.replace("epochs: 10\n    n_per_class: 20",
                            "epochs: 10\n    momentum: 0.9")
    assert any("strategies[1]: unknown field 'momentum'" in p for p in violations(doc))


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


def test_flip_indices_must_lie_inside_the_stream():
    doc = VALID_DOC.replace("kind: covariate_shift",
                            "kind: conditional_flip\n  flip_domains: [3]")
    assert any("flip_domains" in p for p in violations(doc))
    # a scalar instead of a list is a violation, not a crash
    assert any("flip_domains: expected a list" in p
               for p in violations(doc.replace("flip_domains: [3]", "flip_domains: 1")))


def test_rotation_needs_one_angle_per_domain():
    doc = VALID_DOC.replace("kind: covariate_shift",
                            "kind: rotation\n  angles: [0.0, 0.5]")
    assert any("angles" in p for p in violations(doc))
    # the right count of angles must also all be numbers
    assert any("angles: expected numbers" in p
               for p in violations(doc.replace("[0.0, 0.5]", '[0.0, "x", 1.0]')))


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
    # strategies without generators ignore gmm_components
    parse_config(small.replace("epochs: 10\n  - name: g2d",
                               "epochs: 10\n    gmm_components: 7\n  - name: g2d"))


def test_seed_list_validation():
    assert any("seeds" in p for p in violations(VALID_DOC.replace("[1, 2]", "[]")))
    assert any("seeds" in p for p in violations(VALID_DOC.replace("[1, 2]", "[1, two]")))
    assert any("duplicates" in p for p in violations(VALID_DOC.replace("[1, 2]", "[4, 4]")))


def test_strategy_knob_validation():
    pairs = [
        ("epochs: 10\n    n_per_class: 20", "epochs: -1"),
        ("epochs: 10\n    n_per_class: 20", "batch_size: 0"),
        ("epochs: 10\n    n_per_class: 20", "learning_rate: 0.0"),
        ("epochs: 10\n    n_per_class: 20", "hidden: [0]"),
        ("epochs: 10\n    n_per_class: 20", "quota: 0"),
        ("epochs: 10\n    n_per_class: 20", "expert_init: lazy"),
        ("epochs: 10\n    n_per_class: 20", "epochs: []"),
    ]
    for old, new in pairs:
        assert violations(VALID_DOC.replace(old, new))


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
        "epochs: [5, 10]\n    lam: [0.1, 0.2]"))
    combos = expand_grid(cfg.strategies[1])
    assert GRID_FIELDS.index("epochs") < GRID_FIELDS.index("lam")
    assert [(hp.epochs, hp.lam) for hp in combos] == \
        [(5, 0.1), (5, 0.2), (10, 0.1), (10, 0.2)]


def test_make_recipes_covariate_vector_accumulates():
    cfg = parse_config(VALID_DOC)
    recipes = make_recipes(cfg.benchmark)
    assert len(recipes) == 3
    base = np.asarray(cfg.benchmark.class_means)
    for t, recipe in enumerate(recipes):
        assert recipe.kind == "covariate_shift"
        assert not recipe.flip_labels
        assert np.allclose(recipe.class_means, base + t * np.array([5.0, 0.0]))


def test_make_recipes_covariate_matrix_is_per_domain():
    doc = VALID_DOC.replace("domain_shift: [5.0, 0.0]",
                            "domain_shift: [[0.0, 0.0], [1.0, 0.0], [9.0, 9.0]]")
    cfg = parse_config(doc)
    recipes = make_recipes(cfg.benchmark)
    base = np.asarray(cfg.benchmark.class_means)
    assert np.allclose(recipes[1].class_means, base + np.array([1.0, 0.0]))
    assert np.allclose(recipes[2].class_means, base + np.array([9.0, 9.0]))


def test_make_recipes_flip_marks_only_listed_domains():
    doc = VALID_DOC.replace("kind: covariate_shift",
                            "kind: conditional_flip\n  flip_domains: [1]")
    cfg = parse_config(doc)
    recipes = make_recipes(cfg.benchmark)
    assert [r.flip_labels for r in recipes] == [False, True, False]


def test_make_recipes_rotation_carries_angles():
    doc = VALID_DOC.replace("kind: covariate_shift",
                            "kind: rotation\n  angles: [0.0, 0.7, 1.4]")
    cfg = parse_config(doc)
    recipes = make_recipes(cfg.benchmark)
    assert [r.rotation_angle for r in recipes] == [0.0, 0.7, 1.4]
    assert all(r.kind == "rotation" for r in recipes)
