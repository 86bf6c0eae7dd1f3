"""The planar-contraction bracket against the 2^k state-sum oracle, and
the packed kernel against the dict-tally contraction beyond its reach."""

import random
import sys
import threading

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
    tangle_product,
    tangle_sum,
    validate,
    walk,
)
from tanglekit.fraction import frac_normalize
from tanglekit.quandle import determinant

from conftest import (
    add_kink,
    montesinos_sum,
    r2_pair_closure,
    random_fraction,
    random_tangle_diagram,
)
from oracles import (
    disjoint_union,
    greedy_contraction_order,
    jones_at_minus_one,
    state_sum_bracket,
    state_tally,
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


def brick_wall_closure(strands: int, rows: int) -> LinkDiagram:
    """Closure of the braid whose rows alternate s1 s3 s5 ... and s2 s4 ...:
    a grid of crossings whose greedy frontier grows with both sides."""
    cur = list(range(strands))
    fresh = strands
    crossings = []
    for row in range(rows):
        for i in range(row % 2, strands - 1, 2):
            a, b = cur[i], cur[i + 1]
            c, d = cur[i], cur[i + 1] = fresh, fresh + 1
            fresh += 2
            # slots counterclockwise from the lower left end; the strand
            # from lower left to upper right passes under
            crossings.append((a, b, d, c))
    top = {e: p for p, e in enumerate(cur)}
    return LinkDiagram(tuple(tuple(top.get(e, e) for e in c) for c in crossings))


def count_compiles(monkeypatch) -> list:
    """Record each step the bracket compiles instead of finding it stored."""
    compiled = []
    compile_step = bracket._StepTable.compile

    def recording(table, step):
        compiled.append(step)
        return compile_step(table, step)

    monkeypatch.setattr(bracket._StepTable, "compile", recording)
    return compiled


def scheduled_steps(L: LinkDiagram) -> list[tuple[tuple, tuple]]:
    """Each step of L's schedule, as the key it looks up in a fresh step
    table, (n, the four ports' places, node), and its entry."""
    keys = []

    class Recording(dict):
        def get(self, key, default=None):
            keys.append(key)
            return dict.get(self, key, default)

    table = bracket._StepTable()
    table.entries = Recording()
    entries = list(bracket._schedule(L, table))
    assert len(keys) == len(entries) == L.crossing_count
    return list(zip(keys, entries))


def test_packed_kernel_matches_tally_oracle(catalog_entries, monkeypatch):
    """The packed slots hold the coefficients: on large closures, on extra
    loops, kinks and distant unions (more circles than k + 1 and larger
    coefficients per crossing), and past the default crossing budget.
    From an empty step table, a first pass compiles the steps and a second
    finds every one stored; the table never holds more than its cap, not
    even after a diagram whose frontier passes 12 open edges."""
    rng = random.Random(20261018)
    closures = [L for e in catalog_entries
                for L in (close_numerator(e.diagram), close_denominator(e.diagram))]
    diagrams = closures + [random_closure(rng, 15, 24) for _ in range(350)]
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
    wide = brick_wall_closure(7, 14)
    assert validate(wide) is None
    assert max(entry[3] for _, entry in scheduled_steps(wide)) > 12
    diagrams += [big, wide]
    monkeypatch.setenv("TANGLEKIT_CROSSING_BUDGET", str(wide.crossing_count))
    assert len(diagrams) >= 2000
    expected = [tally_contraction_bracket(L) for L in diagrams]
    for L in closures:
        assert tally_contraction_bracket(L) == state_sum_bracket(L), L
    monkeypatch.setattr(bracket, "_table", bracket._StepTable())
    compiled = count_compiles(monkeypatch)
    for L, b in zip(diagrams, expected):
        assert kauffman_bracket(L) == b, L
        assert bracket._table.stored <= bracket.STEP_CAP
    assert compiled and not bracket._table.full
    compiled.clear()
    assert [kauffman_bracket(L) for L in diagrams] == expected
    assert not compiled


def slot_bits(L: LinkDiagram) -> int:
    """The packed kernel's slot width B = 2k + strands + loops + 2."""
    return 2 * L.crossing_count + len(walk(L).strands) + L.loops + 2


def assert_below_half_slot(L: LinkDiagram, b):
    bound = 1 << slot_bits(L) - 1
    assert all(abs(c) < bound for _, c in b.coeffs), L


def small_variants(rng: random.Random, hi: int) -> list[LinkDiagram]:
    """A random closure of at most hi crossings, with extra loops, a kink
    and a distant union of 2-5 pieces, those of at most hi crossings."""
    L = random_closure(rng, 1, hi - 2, parts=1)
    edge = rng.choice(L.crossings)[rng.randrange(4)]
    union = L
    for _ in range(rng.randint(1, 4)):
        union = disjoint_union(union, close_numerator(
            from_rational(random_fraction(rng, 3, 2))))
    out = [L, LinkDiagram(L.crossings, loops=rng.randint(1, 3)),
           add_kink(L, edge, rng.randrange(2)),
           LinkDiagram(union.crossings, union.loops + rng.randint(0, 2))]
    return [V for V in out if V.crossing_count <= hi]


def test_packed_slots_read_back_both_oracles(monkeypatch):
    """Slots of B = 2k + strands + loops + 2 bits read back the bracket of
    both oracles: on odd and even k, crossing-free loops, kinks and distant
    unions (more strands than one) within the state sum's reach; against
    the tally contraction on 24-crossing closures at the default budget and
    on the brick wall.  Every coefficient is below 2^(B - 1)."""
    rng = random.Random(3402)
    small = [LinkDiagram((), loops=n) for n in (1, 2, 5)]
    for _ in range(60):
        small += small_variants(rng, MAX_ORACLE_CROSSINGS)
    assert {L.crossing_count % 2 for L in small} == {0, 1}
    assert any(len(walk(L).strands) > 2 for L in small)
    for L in small:
        b = kauffman_bracket(L)
        assert b == state_sum_bracket(L) == tally_contraction_bracket(L), L
        assert_below_half_slot(L, b)
    large = [close_numerator(montesinos_sum(rng, 24, 24)) for _ in range(6)]
    large += [random_closure(rng, 24, 24, parts=3) for _ in range(6)]
    for L in large:
        assert L.crossing_count == 24
        b = kauffman_bracket(L)
        assert b == tally_contraction_bracket(L), L
        assert_below_half_slot(L, b)
    wide = brick_wall_closure(7, 14)
    monkeypatch.setenv("TANGLEKIT_CROSSING_BUDGET", str(wide.crossing_count))
    b = kauffman_bracket(wide)
    assert b == tally_contraction_bracket(wide)
    assert_below_half_slot(wide, b)


def test_states_have_at_most_k_plus_strands_circles():
    """In Kauffman's state model a state's circles and the k crossings
    form a connected graph on each piece of the projection, and each
    crossing meets at most two circles, so a state has at most k + pieces
    circles, and a piece holds at least one strand.  Every state of
    seeded random diagrams of up to 11 crossings, distant unions and
    kinks included, keeps within k + strands, and twisted unknots
    N([1/n]) and their distant unions meet it; so the bracket's
    coefficients, at most 2^k * 2^(k + strands + loops - 1), are below
    2^(B - 1)."""
    rng = random.Random(3403)
    twisted = [close_numerator(from_rational(frac_normalize(1, n))) for n in range(1, 6)]
    diagrams = twisted + [disjoint_union(a, b) for a in twisted for b in twisted[:3]]
    while len(diagrams) < 250:
        diagrams += small_variants(rng, 11)
    met = 0
    for L in diagrams:
        most = max(circles for _, circles in state_tally(L))
        bound = L.crossing_count + len(walk(L).strands)
        assert most <= bound, L
        met += most == bound
        assert_below_half_slot(L, tally_contraction_bracket(L))
    assert met >= len(twisted) + 15


def test_steps_past_the_cap_are_compiled_for_their_call(monkeypatch):
    """A contraction that fills the table goes on with steps it does not
    store, and the next call starts from an empty table."""
    rng = random.Random(3202)
    links = [random_closure(rng, 10, 24) for _ in range(40)]
    monkeypatch.setattr(bracket, "STEP_CAP", 200)
    monkeypatch.setattr(bracket, "_table", bracket._StepTable())
    filled = 0
    for L in links:
        assert kauffman_bracket(L) == tally_contraction_bracket(L), L
        assert bracket._table.stored <= 200
        filled += bracket._table.full
    assert filled


def test_threads_share_the_table(monkeypatch):
    """Threads bracketing at once, each in its own order, against a small
    cap so that tables fill and are replaced under running contractions,
    get the oracle's brackets."""
    rng = random.Random(3203)
    links = [random_closure(rng, 8, 18) for _ in range(60)]
    expected = {L: tally_contraction_bracket(L) for L in links}
    monkeypatch.setattr(bracket, "STEP_CAP", 300)
    monkeypatch.setattr(bracket, "_table", bracket._StepTable())
    wrong: list[LinkDiagram] = []

    def work(seed: int):
        for L in random.Random(seed).sample(links, len(links)):
            if kauffman_bracket(L) != expected[L]:
                wrong.append(L)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong


def benchmark_shaped_closure(rng: random.Random) -> LinkDiagram:
    """N(T + [r/s]) of 10-14 crossings, T a sum or product of 2-4
    rational tangles of 1-4 crossings, as the closures benchmark draws."""
    def leaf():
        while True:
            t = from_rational(random_fraction(rng, 9, 7))
            if 1 <= t.crossing_count <= 4:
                return t

    while True:
        t = leaf()
        for _ in range(rng.randint(1, 3)):
            t = (tangle_sum if rng.random() < 0.5 else tangle_product)(t, leaf())
        t = tangle_sum(t, leaf())
        if 10 <= t.crossing_count <= 14 and validate(t) is None:
            return close_numerator(t)


def test_distinct_benchmark_links_share_their_steps(monkeypatch):
    """After one pass over 2,000 distinct closures shaped like the
    benchmark's, a second pass compiles no step."""
    rng = random.Random(3212)
    links = [benchmark_shaped_closure(rng) for _ in range(2000)]
    assert len(set(links)) > 1900
    monkeypatch.setattr(bracket, "_table", bracket._StepTable())
    compiled = count_compiles(monkeypatch)
    first = [kauffman_bracket(L) for L in links]
    assert compiled
    compiled.clear()
    assert [kauffman_bracket(L) for L in links] == first
    assert not compiled


def test_schedule_is_the_greedy_order(catalog_entries):
    """Same crossings in the same order as the rescoring greedy rule: the
    crossings of the oracle's order, replayed on a frontier of edges, have
    each step's port places; after each step the frontier holds exactly
    the open edges, each in one place, with no place past the new size;
    and each step starts at the node the step before it ended at."""
    rng = random.Random(1018)
    links = [L for e in catalog_entries
             for L in (close_numerator(e.diagram), close_denominator(e.diagram))]
    links += [random_closure(rng, 1, 24) for _ in range(200)]
    links.append(brick_wall_closure(7, 14))
    for L in links:
        open_edges: set[int] = set()
        at: list[int] = []  # place -> open edge
        node = 0
        for ci, (key, entry) in zip(greedy_contraction_order(L), scheduled_steps(L)):
            n, places = key[0], key[1:5]
            size, moves = entry[3], entry[4]
            assert n == len(at) and key[5] == node
            grown = at + [None] * 4
            for slot, (e, p) in enumerate(zip(L.crossings[ci], places)):
                open_edges ^= {e}
                # an open edge closes at its place, a fresh edge opens at
                # place n + slot (a kink's second port closes it again)
                if grown[p] == e:
                    grown[p] = None
                else:
                    assert p == n + slot and grown[p] is None
                    grown[p] = e
            for src, dst in moves:
                assert dst < size <= src and grown[dst] is None
                grown[dst], grown[src] = grown[src], None
            assert grown[size:] == [None] * (n + 4 - size)
            at = grown[:size]
            assert sorted(at) == sorted(open_edges), L
            node = entry[0]
