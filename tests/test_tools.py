"""The catalog diagram search tool recognizes the diagrams it produced."""

import importlib.util
from pathlib import Path

import pytest

from tanglekit.diagram import canonical_form, close_numerator, rotate

TOOL = Path(__file__).resolve().parent.parent / "tools" / "find_catalog_diagrams.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("find_catalog_diagrams", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_targets_match_shipped_diagrams(tool, catalog_entries):
    diagrams = {e.name: e.diagram for e in catalog_entries}
    assert len(tool.TARGETS) == 11
    for name, target in tool.TARGETS.items():
        assert tool.matches(target, diagrams[name]), name


def test_cutting_a_closure_open_gives_the_tangle_back(tool, catalog_entries):
    """N(T) cut at its two closure arcs is T, or T turned a half turn
    when the bottom arc carries the smaller edge id."""
    diagrams = {e.name: e.diagram for e in catalog_entries}
    for name in tool.TARGETS:
        d = diagrams[name]
        cuts = {canonical_form(t) for t in tool.all_cut_tangles(close_numerator(d))}
        assert (canonical_form(d) in cuts
                or canonical_form(rotate(rotate(d))) in cuts), name
