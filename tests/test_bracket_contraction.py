"""The planar-contraction bracket against the 2^k state-sum oracle."""

import random

import pytest

from tanglekit import bracket, catalog
from tanglekit.bracket import jones, kauffman_bracket
from tanglekit.diagram import (
    Crossing,
    LinkDiagram,
    close_denominator,
    close_numerator,
    component_subdiagrams,
    from_rational,
    tangle_sum,
)
from tanglekit.fraction import frac_normalize
from tanglekit.quandle import determinant

from conftest import add_kink, r2_pair_closure, random_fraction, random_tangle_diagram
from oracles import disjoint_union, jones_at_minus_one, state_sum_bracket

MAX_ORACLE_CROSSINGS = 12
# the 15-crossing splitting candidate of 7_17 takes the oracle about 1 s
CLASSIFY_ORACLE_CROSSINGS = 15


def assert_matches_oracle(L: LinkDiagram):
    assert kauffman_bracket(L) == state_sum_bracket(L), L


def test_catalog_closures(catalog_entries):
    for e in catalog_entries:
        assert_matches_oracle(close_numerator(e.diagram))
        assert_matches_oracle(close_denominator(e.diagram))


def test_classify_closures(catalog_entries, monkeypatch):
    """Every diagram classify brackets, and every closure it builds within
    the oracle's reach; the larger closures are rejected by cheaper
    invariants before any bracket."""
    built, bracketed = [], []
    build = catalog.closure_link
    fast = bracket.kauffman_bracket

    def recording_build(t, c):
        built.append(build(t, c))
        return built[-1]

    def recording_bracket(d):
        bracketed.append(d)
        return fast(d)

    monkeypatch.setattr(catalog, "closure_link", recording_build)
    monkeypatch.setattr(bracket, "kauffman_bracket", recording_bracket)
    for e in catalog_entries:
        catalog.classify(e)
        for sc in component_subdiagrams(e.diagram):
            assert_matches_oracle(sc)
    assert built and bracketed
    assert max(d.crossing_count for d in bracketed) <= CLASSIFY_ORACLE_CROSSINGS
    for L in bracketed + built:
        if L.crossing_count <= CLASSIFY_ORACLE_CROSSINGS:
            assert_matches_oracle(L)


def test_random_closures_and_moves():
    rng = random.Random(20211029)
    checked = 0
    while checked < 40:
        t = random_tangle_diagram(rng)
        c = random_fraction(rng, 3, 2)
        L = close_numerator(tangle_sum(t, from_rational(c)))
        if not 0 < L.crossing_count <= MAX_ORACLE_CROSSINGS:
            continue
        edge = rng.choice(L.crossings).ports[rng.randrange(4)]
        other = close_numerator(from_rational(random_fraction(rng, 3, 2)))
        variants = [L, add_kink(L, edge, 0), add_kink(L, edge, 1),
                    r2_pair_closure(t, c), disjoint_union(L, other)]
        for V in variants:
            if V.crossing_count <= MAX_ORACLE_CROSSINGS:
                assert_matches_oracle(V)
        checked += 1


@pytest.mark.parametrize("loops", [1, 2, 3])
def test_extra_loops(loops):
    tre = close_numerator(from_rational(frac_normalize(3, 1)))
    assert_matches_oracle(LinkDiagram(crossings=tre.crossings, loops=loops))
    assert_matches_oracle(LinkDiagram(crossings=(), loops=loops))


def test_unmatched_edge_end_rejected():
    with pytest.raises(ValueError):
        kauffman_bracket(LinkDiagram(crossings=(Crossing((0, 1, 1, 2)),)))


def test_beyond_oracle_reach():
    L = close_numerator(from_rational(frac_normalize(23, 1)))
    assert jones_at_minus_one(jones(L)) == determinant(L) == 23
