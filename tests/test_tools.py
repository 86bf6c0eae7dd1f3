"""The catalog diagram search tool recognizes the diagrams it produced."""

from tanglekit.diagram import canonical_form, close_numerator, rotate
from tanglekit.fraction import Fraction

from conftest import add_kink, r2_pair_closure


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


def test_kink_and_bigon_predicate(tool, catalog_entries):
    """No shipped diagram has a kink or a reducible bigon; every inserted
    first or second Reidemeister move is seen."""
    for e in catalog_entries:
        t = e.diagram
        assert not tool.has_kink_or_reducible_bigon(t), e.name
        L = close_numerator(t)
        for edge in sorted({x for c in L.crossings for x in c}):
            for variant in (0, 1):
                assert tool.has_kink_or_reducible_bigon(add_kink(L, edge, variant))
        assert tool.has_kink_or_reducible_bigon(r2_pair_closure(t, Fraction(0, 1)))


def test_seeded_search_finds_6_3(tool):
    found, wanted, tries = tool.search(["6_3"], budget=3000, verbose=False)
    assert not wanted and tries == 2200
    assert tool.matches(tool.TARGETS["6_3"], found["6_3"])
