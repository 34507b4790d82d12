"""The README matches the package: every module is listed in the Library
layout, each CSV is documented with the header it is written with, every
command example parses, every test it cites exists, and the committed
goldens keep the README's promises about the arrays that runs share."""

import csv
import re
import shlex
from pathlib import Path

import pytest

from driftlab import cli
from driftlab.harness import MATRIX_HEADER, PROJECTION_HEADER, ROUTING_HEADER, SUMMARY_HEADER
from driftlab.strategies import read_arrays

ROOT = Path(__file__).resolve().parents[1]


def section(title):
    """The README text from the heading ``## title`` up to the next one."""
    text = (ROOT / "README.md").read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end == -1 else text[start:end]


def test_library_layout_lists_every_module():
    listed = re.findall(r"^  (\w+\.py)\s", section("Library layout"), re.M)
    modules = sorted(p.name for p in (ROOT / "src" / "driftlab").glob("*.py")
                     if p.name != "__init__.py")
    assert sorted(listed) == modules


def test_outputs_give_each_csv_its_written_header():
    documented = re.findall(r"^\* `(\w+\.csv)` with `([^`]+)`", section("Outputs"), re.M)
    assert documented == [("matrix.csv", MATRIX_HEADER), ("summary.csv", SUMMARY_HEADER),
                          ("routing.csv", ROUTING_HEADER),
                          ("projection.csv", PROJECTION_HEADER)]


def test_every_driftlab_example_parses():
    """Each ``driftlab ...`` line of a bash block is a command the CLI
    accepts, so a removed flag cannot survive in an example."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```bash\n(.*?)^```", text, re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("driftlab ")]
    assert len(lines) >= 5
    parser = cli._build_parser()
    for line in lines:
        argv = shlex.split(line.replace("<run_id>", "0123456789ab"), comments=True)[1:]
        try:
            assert parser.parse_args(argv).command == argv[0]
        except SystemExit:
            pytest.fail(f"the CLI rejects the README example {line!r}")


def test_every_cited_test_exists():
    """Each test_* name in the README is a test function of the suite, so a
    renamed or deleted test cannot leave a promise pointing at nothing."""
    text = (ROOT / "README.md").read_text()
    cited = {name for name in re.findall(r"\btest_\w+(?:\.py)?", text)
             if not name.endswith(".py")}
    defined = {name for path in (ROOT / "tests").glob("test_*.py")
               for name in re.findall(r"^\s*def (test_\w+)", path.read_text(), re.M)}
    assert cited
    assert sorted(cited - defined) == []


def golden_checkpoints(name):
    """{(strategy, seed): {block name: array}} of a committed golden;
    summary.csv maps each run id to its (strategy, seed)."""
    root = ROOT / "results" / name
    with open(root / "summary.csv", encoding="utf-8") as fh:
        runs = {(row["strategy"], int(row["seed"])): row["run_id"] for row in csv.DictReader(fh)}
    return {run: read_arrays(root / "runs" / run_id / "checkpoint.txt")
            for run, run_id in runs.items()}


def blocks(arrays, prefix):
    """The blocks whose names start with prefix, as {(rest of name): (dtype,
    shape, bytes)}, so that == compares them bit for bit."""
    return {name[len(prefix):]: (a.dtype, a.shape, a.tobytes())
            for name, a in arrays.items() if name.startswith(prefix)}


@pytest.mark.parametrize("name", ["quickstart", "flip_t2", "covariate_t4"])
def test_committed_goldens_share_buffers_and_experts(name):
    """For every seed: g2d and gen_replay hold the same synthetic buffers;
    g2d, oracle_router and centroid_router hold the same expert bank; and
    the last expert, fine-tuned from its predecessor like seqft's model, is
    seqft's final model. flip_t2 runs only seqft and g2d."""
    checkpoints = golden_checkpoints(name)
    seeds = [seed for strategy, seed in checkpoints if strategy == "g2d"]
    assert seeds
    for seed in seeds:
        g2d = checkpoints[("g2d", seed)]
        assert blocks(g2d, "buffer")
        if ("gen_replay", seed) in checkpoints:
            assert blocks(g2d, "buffer") == blocks(checkpoints[("gen_replay", seed)], "buffer")
        for bank in ("oracle_router", "centroid_router"):
            if (bank, seed) in checkpoints:
                assert blocks(g2d, "expert") == blocks(checkpoints[(bank, seed)], "expert")
        last = len({block.split(".")[0] for block in g2d if block.startswith("expert")}) - 1
        assert blocks(g2d, f"expert{last}.") == blocks(checkpoints[("seqft", seed)], "model.")
