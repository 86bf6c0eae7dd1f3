"""The planar-contraction bracket against the 2^k state-sum oracle, and
the packed kernel against the dict-tally contraction beyond its reach."""

import random

import pytest

from tanglekit import bracket, catalog
from tanglekit.bracket import jones, kauffman_bracket
from tanglekit.diagram import (
    DiagramError,
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
from oracles import (
    disjoint_union,
    greedy_contraction_order,
    jones_at_minus_one,
    state_sum_bracket,
    tally_contraction_bracket,
)

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
        edge = rng.choice(L.crossings)[rng.randrange(4)]
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
    with pytest.raises(DiagramError, match="dangling port: edge 0 has 1 incidences"):
        kauffman_bracket(LinkDiagram(crossings=((0, 1, 1, 2),)))


def test_beyond_oracle_reach():
    L = close_numerator(from_rational(frac_normalize(23, 1)))
    assert jones_at_minus_one(jones(L)) == determinant(L) == 23


def random_closure(rng: random.Random, lo: int, hi: int, parts: int = 2) -> LinkDiagram:
    """N(T1 + ... + T_parts + [r/s]) of lo..hi crossings from small random
    tangles."""
    while True:
        t = tangle_sum(*(random_tangle_diagram(rng) for _ in range(parts)))
        L = close_numerator(tangle_sum(t, from_rational(random_fraction(rng, 9, 7))))
        if lo <= L.crossing_count <= hi:
            return L


def test_packed_kernel_matches_tally_oracle(catalog_entries, monkeypatch):
    """The packed slots hold the coefficients: on large closures, on extra
    loops, kinks and distant unions (more circles than k + 1 and larger
    coefficients per crossing), and past the default crossing budget."""
    rng = random.Random(20261018)
    diagrams = [L for e in catalog_entries
                for L in (close_numerator(e.diagram), close_denominator(e.diagram))]
    diagrams += [random_closure(rng, 15, 24) for _ in range(350)]
    for _ in range(535):
        L = random_closure(rng, 1, 12, parts=1)
        edge = rng.choice(L.crossings)[rng.randrange(4)]
        union = L
        for _ in range(rng.randint(1, 4)):
            union = disjoint_union(union, close_numerator(
                from_rational(random_fraction(rng, 3, 2))))
        diagrams += [LinkDiagram(L.crossings, loops=rng.randint(0, 3)),
                     add_kink(L, edge, rng.randrange(2)),
                     LinkDiagram(union.crossings, union.loops + rng.randint(0, 3))]
    big = random_closure(rng, 30, 40, parts=4)
    monkeypatch.setenv("TANGLEKIT_CROSSING_BUDGET", str(big.crossing_count))
    diagrams.append(big)
    assert len(diagrams) >= 2000
    for L in diagrams:
        assert kauffman_bracket(L) == tally_contraction_bracket(L), L


def test_schedule_is_the_greedy_order(catalog_entries):
    """Same crossings in the same order as the rescoring greedy rule, and
    after each step exactly the open edges, each in one place."""
    rng = random.Random(1018)
    links = [L for e in catalog_entries
             for L in (close_numerator(e.diagram), close_denominator(e.diagram))]
    links += [random_closure(rng, 1, 24) for _ in range(200)]
    for L in links:
        steps = bracket._schedule(L)
        order = greedy_contraction_order(L)
        assert [ports for ports, _ in steps] == [L.crossings[i] for i in order]
        open_edges: set[int] = set()
        for (_, after), ci in zip(steps, order):
            for e in L.crossings[ci]:
                open_edges ^= {e}
            assert sorted(after) == sorted(open_edges), L
