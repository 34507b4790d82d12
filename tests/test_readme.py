"""The README matches the package: every module is listed in the Library
layout, each CSV is documented with the header it is written with, and
every command example parses."""

import re
import shlex
from pathlib import Path

import pytest

from driftlab import cli
from driftlab.harness import MATRIX_HEADER, PROJECTION_HEADER, ROUTING_HEADER, SUMMARY_HEADER

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
