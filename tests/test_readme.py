"""The README's Library layout and Outputs sections match the package: every
module is listed, and each CSV is documented with the header it is written
with."""

import re
from pathlib import Path

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
