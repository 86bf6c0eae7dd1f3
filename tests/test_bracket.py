import itertools
import random

import pytest

from tanglekit.bracket import (
    DEFAULT_CROSSING_BUDGET,
    CrossingBudgetExceeded,
    jones,
    jones_unknot,
    jones_unlink,
    kauffman_bracket,
    kink_free_words,
    linking_number,
    possibly_knotted,
    split_union_jones,
    writhe,
)
from tanglekit.diagram import (
    LinkDiagram,
    close_denominator,
    close_numerator,
    component_subdiagrams,
    from_rational,
    mirror,
    orient,
    rotate,
    tangle_sum,
    validate,
    zero_tangle,
)
from tanglekit.fraction import frac_normalize
from tanglekit.laurent import LaurentPoly

from conftest import add_kink, montesinos_sum, r2_pair_closure, random_tangle_diagram
from oracles import (
    all_orientations,
    crossing_sign,
    disjoint_union,
    jones_at_minus_one,
    state_sum_bracket,
)


def F(p, q=1):
    return frac_normalize(p, q)


LOOP = LinkDiagram(crossings=(), loops=1)


class TestBracket:
    def test_single_loop_is_one(self):
        assert kauffman_bracket(LOOP) == LaurentPoly.one("A")

    def test_hopf(self):
        hopf = close_numerator(from_rational(F(2)))
        assert kauffman_bracket(hopf) == LaurentPoly.make("A", {4: -1, -4: -1})

    def test_disjoint_loop_factor(self):
        tre = close_numerator(from_rational(F(3)))
        with_loop = LinkDiagram(crossings=tre.crossings, loops=1)
        delta = LaurentPoly.make("A", {2: -1, -2: -1})
        assert kauffman_bracket(with_loop) == delta * kauffman_bracket(tre)

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("TANGLEKIT_CROSSING_BUDGET", "2")
        tre = close_numerator(from_rational(F(3)))
        with pytest.raises(CrossingBudgetExceeded):
            kauffman_bracket(tre)


class TestWritheLinking:
    def test_positive_trefoil_writhe(self):
        assert writhe(orient(close_numerator(from_rational(F(3))))) == 3

    def test_writhe_is_the_sign_sum(self, catalog_entries):
        """The bit rule over the entry ports equals the sum of crossing
        signs under every orientation, of tangles and of their closures."""
        for e in catalog_entries:
            for d in (e.diagram, close_numerator(e.diagram), close_denominator(e.diagram)):
                for od in all_orientations(d):
                    signs = [crossing_sign(od, ci) for ci in range(d.crossing_count)]
                    assert writhe(od) == sum(signs), d

    def test_hopf_linking(self):
        hopf = close_numerator(from_rational(F(2)))
        assert abs(linking_number(orient(hopf))) == 1

    def test_unlink_zero_linking(self):
        L = close_numerator(from_rational(F(0)))
        assert linking_number(orient(L)) == 0

    def test_component_count_guard(self):
        tre = close_numerator(from_rational(F(3)))
        with pytest.raises(ValueError):
            linking_number(orient(tre))


class TestJones:
    def test_unknot(self):
        assert jones(LOOP) == jones_unknot()

    def test_kinked_unknots_normalize(self):
        for n in (1, -1, 2, -2, 5):
            L = close_denominator(from_rational(F(n)))
            assert jones(L) == jones_unknot()

    def test_two_unlink(self):
        assert jones(LinkDiagram(crossings=(), loops=2)) == jones_unlink(2)

    def test_trefoil_pair(self):
        jt = jones(close_numerator(from_rational(F(3))))
        jm = jones(close_numerator(from_rational(F(-3))))
        expected = {
            str(LaurentPoly.make("sqrt_t", {2: 1, 6: 1, 8: -1})),
            str(LaurentPoly.make("sqrt_t", {-2: 1, -6: 1, -8: -1})),
        }
        assert {str(jt), str(jm)} == expected

    def test_orientation_reversal_invariance(self, catalog_entries):
        from tanglekit.diagram import component_count, strands

        torus = close_numerator(from_rational(F(4)))
        links = [torus] + [L for e in catalog_entries
                           for L in (close_numerator(e.diagram),
                                     close_denominator(e.diagram))
                           if component_count(L) == 2]
        for L in links:
            for bits in itertools.product((False, True), repeat=len(strands(L))):
                flipped = tuple(not b for b in bits)
                assert jones(L, orient(L, bits)) == jones(L, orient(L, flipped))
        # reversing one component of N([4]) changes the polynomial
        assert len({jones(torus, orient(torus, bits))
                    for bits in itertools.product((False, True), repeat=2)}) == 2

    def test_multiplicativity_distant_union(self):
        a = close_numerator(from_rational(F(3)))
        b = close_numerator(from_rational(F(2)))
        lhs = jones(disjoint_union(a, b))
        rhs = jones_unlink(2) * jones(a) * jones(b)
        assert lhs == rhs

    def test_det_consistency_at_minus_one(self):
        from tanglekit.quandle import determinant

        for p, q in [(3, 1), (5, 2), (7, 3), (9, 5), (-5, 3)]:
            L = close_numerator(from_rational(F(p, q)))
            assert jones_at_minus_one(jones(L)) == determinant(L)


def state_sum_jones(od) -> LaurentPoly:
    """The plain state sum times (-A^3)^(-writhe) by Laurent
    multiplication, at A = t^(-1/4)."""
    w = writhe(od)
    factor = LaurentPoly.make("A", {-3 * w: -1 if w % 2 else 1})
    normalized = state_sum_bracket(od.base) * factor
    return LaurentPoly.make("sqrt_t", {-e // 2: c for e, c in normalized.coeffs})


class TestJonesOffTheWalk:
    """The default orientation's Jones polynomial, its writhe read off the
    walk and its terms written in one pass, against an explicit
    orientation and the writhe-normalized plain state sum."""

    def assert_default_jones(self, L: LinkDiagram):
        poly = jones(L)
        od = orient(L)
        assert poly == jones(L, od), L
        if L.crossing_count <= 12:
            assert poly == state_sum_jones(od), L
        exponents = [e for e, _ in poly.coeffs]
        assert exponents == sorted(set(exponents)) and all(c for _, c in poly.coeffs)
        made = LaurentPoly.make("sqrt_t", dict(poly.coeffs))
        assert made == poly and hash(made) == hash(poly) and str(made) == str(poly)

    def test_seeded_links(self):
        rng = random.Random(2705)
        links = [LOOP, LinkDiagram(crossings=(), loops=2)]
        for _ in range(80):
            t = random_tangle_diagram(rng)
            links += [close_numerator(t), close_denominator(t)]
        for _ in range(20):
            t = montesinos_sum(rng, 6, 16)
            links += [close_numerator(t), close_denominator(t)]
        small = [L for L in links if 3 <= L.crossing_count <= 6]
        links += [disjoint_union(*rng.sample(small, 2)) for _ in range(10)]
        links += [add_kink(L, L.crossings[0][rng.randrange(4)], rng.randrange(2))
                  for L in small[:20]]
        links += [mirror(L) for L in links]
        for L in links:
            self.assert_default_jones(L)

    def test_catalog_closures(self, classified, catalog_entries):
        """Every closure classify builds and both closures of every entry,
        within the bracket's crossing budget."""
        links = [closed.diagram for c in classified.values() for closed in c._closures.values()]
        links += [close(e.diagram) for e in catalog_entries
                  for close in (close_numerator, close_denominator)]
        links = [L for L in links if L.crossing_count + L.loops <= DEFAULT_CROSSING_BUDGET]
        assert len(links) >= 50
        for L in links:
            self.assert_default_jones(L)


class TestReidemeisterInvariance:
    def test_r1_kink_bracket_factor(self):
        tre = close_numerator(from_rational(F(3)))
        base = kauffman_bracket(tre)
        edge = tre.crossings[0][0]
        factors = set()
        for variant in (0, 1):
            kinked = add_kink(tre, edge, variant)
            assert validate(kinked) is None
            br = kauffman_bracket(kinked)
            for shift, sign in ((3, -1), (-3, -1)):
                if br == base.shift(shift).scale(sign):
                    factors.add(shift)
            assert jones(kinked) == jones(tre)
        assert factors == {3, -3}

    def test_r1_on_catalog_closures(self, catalog_entries):
        for e in catalog_entries[:5]:
            L = close_numerator(e.diagram)
            base = jones(L)
            edge = L.crossings[0][1]
            assert jones(add_kink(L, edge, 0)) == base

    def test_r2_pair_insertion(self, catalog_entries):
        for e in catalog_entries[:4]:
            base = jones(close_numerator(tangle_sum(
                e.diagram, from_rational(F(0)))))
            padded = r2_pair_closure(e.diagram, F(0))
            assert jones(padded) == base

    def test_equivalent_constructions_agree(self):
        # the same rational tangle built through its mirror double
        for p, q in [(3, 2), (5, 3), (-7, 4)]:
            d1 = from_rational(F(p, q))
            d2 = mirror(from_rational(F(-p, q)))
            assert jones(close_numerator(d1)) == jones(close_numerator(d2))

    def test_commuted_sum_closures_agree(self):
        a, b = from_rational(F(1, 2)), from_rational(F(1, 3))
        assert (jones(close_numerator(tangle_sum(a, b)))
                == jones(close_numerator(tangle_sum(b, a))))

    def test_denominator_is_rotated_numerator(self):
        d = from_rational(F(5, 3))
        assert jones(close_denominator(d)) == jones(close_numerator(rotate(d)))


class TestComponentExtraction:
    def test_unlink_components(self):
        L = close_numerator(from_rational(F(0)))
        comps = component_subdiagrams(L)
        assert len(comps) == 2
        assert all(jones(c) == jones_unknot() for c in comps)

    def test_hopf_components_are_unknots(self):
        hopf = close_numerator(from_rational(F(2)))
        comps = component_subdiagrams(hopf)
        assert len(comps) == 2
        assert all(jones(c) == jones_unknot() for c in comps)

    def test_tangle_strings_closed_by_boundary_arcs(self):
        strings = component_subdiagrams(from_rational(F(5, 3)))
        assert len(strings) == 2
        assert all(jones(s) == jones_unknot() for s in strings)
        assert component_subdiagrams(zero_tangle()) == [LOOP, LOOP]

    def test_split_union_jones_of_actual_split(self):
        a = close_numerator(from_rational(F(3)))
        b = LOOP
        L = disjoint_union(a, b)
        assert split_union_jones(L) == jones(L)

    def test_hopf_is_not_split(self):
        hopf = close_numerator(from_rational(F(2)))
        assert jones(hopf) != split_union_jones(hopf)

    def test_split_union_jones_is_jones_of_the_union(self, catalog_entries):
        # the product formula against the Jones polynomial of the distant
        # union of the components, built as one diagram
        rng = random.Random(7007)
        links = [close(e.diagram) for e in catalog_entries
                 for close in (close_numerator, close_denominator)]
        for _ in range(100):
            t = random_tangle_diagram(rng)
            links += [close_numerator(t), close_denominator(t)]
        small = [L for L in links if L.crossing_count <= 6]
        for n in (3, 3, 3, 4, 4, 4):
            parts = rng.sample(small, n)
            union = parts[0]
            for part in parts[1:]:
                union = disjoint_union(union, part)
            links.append(union)
        for L in links:
            comps = component_subdiagrams(L)
            union = comps[0]
            for c in comps[1:]:
                union = disjoint_union(union, c)
            assert split_union_jones(L) == jones(union)


def unreduced_split_union_jones(L: LinkDiagram) -> LaurentPoly:
    """The distant union's Jones polynomial with every component knot
    bracketed, none skipped."""
    comps = component_subdiagrams(L)
    poly = jones_unlink(len(comps))
    for c in comps:
        poly = poly * jones(c)
    return poly


def kink_stack(rng: random.Random, L: LinkDiagram, count: int) -> LinkDiagram:
    """L with count kinks added one after another on random edges, the
    new kinks' edges included."""
    for _ in range(count):
        edges = sorted({e for c in L.crossings for e in c})
        L = add_kink(L, rng.choice(edges), rng.randrange(2))
    return L


@pytest.fixture(scope="module")
def certificate_links():
    """Closures of seeded random and Montesinos tangles, plain and
    mirrored, and distant unions of small ones."""
    rng = random.Random(1414)
    links = []
    for _ in range(60):
        t = random_tangle_diagram(rng)
        links += [close_numerator(t), close_denominator(t)]
    for _ in range(15):
        t = montesinos_sum(rng, 6, 14)
        links += [close_numerator(t), close_denominator(t)]
    small = [L for L in links if 3 <= L.crossing_count <= 7]
    links += [disjoint_union(*rng.sample(small, 2)) for _ in range(20)]
    return links + [mirror(L) for L in links]


class TestKinkCancellation:
    def test_split_union_jones_matches_every_component_bracketed(self, certificate_links):
        knotted = cancelled = 0
        for L in certificate_links:
            assert split_union_jones(L) == unreduced_split_union_jones(L)
            for word, c in zip(kink_free_words(L), component_subdiagrams(L)):
                knotted += len(word) == 6 and jones(c) != jones_unknot()
                cancelled += len(word) < 6 <= 2 * c.crossing_count
        # trefoil components, and components a kink reduces below three
        # crossings, are both among the inputs
        assert knotted and cancelled

    def test_kink_stacks_cancel(self, certificate_links):
        rng = random.Random(1415)
        for L in certificate_links[::3]:
            if not L.crossings:
                continue
            kinked = kink_stack(rng, L, rng.randint(1, 4))
            assert validate(kinked) is None
            assert (sorted(map(len, kink_free_words(kinked)))
                    == sorted(map(len, kink_free_words(L))))
            assert split_union_jones(kinked) == unreduced_split_union_jones(kinked)
            assert split_union_jones(kinked) == split_union_jones(L)

    def test_cancelled_count_within_component(self, certificate_links):
        for L in certificate_links:
            comps = component_subdiagrams(L)
            for word, c in zip(kink_free_words(L), comps):
                assert len(word) % 2 == 0 and len(set(word)) == len(word) // 2
                assert len(word) // 2 <= c.crossing_count

    def test_kinked_unknots_skip_the_bracket(self):
        rng = random.Random(1416)
        unknot = kink_stack(rng, close_numerator(from_rational(F(1))), 6)
        assert kink_free_words(unknot) == [[]] and possibly_knotted(unknot) == []
        trefoil = close_numerator(from_rational(F(3)))
        assert [len(w) for w in kink_free_words(trefoil)] == [6]
        assert [i for i, _ in possibly_knotted(disjoint_union(unknot, trefoil))] == [1]


class TestLaurent:
    def test_print_half_exponents(self):
        p = jones_unlink(2)
        assert str(p) == "-1*t^(-1/2) + -1*t^(1/2)"

    def test_print_integer_exponents(self):
        p = LaurentPoly.make("sqrt_t", {2: 1, -8: -1})
        assert str(p) == "-1*t^-4 + 1*t^1"

    def test_variable_mismatch(self):
        with pytest.raises(ValueError):
            LaurentPoly.one("A") + LaurentPoly.one("sqrt_t")

    def test_gaussian_evaluation(self):
        from fractions import Fraction as QQ

        p = LaurentPoly.make("sqrt_t", {1: 1})
        assert p.substitute_gaussian(QQ(0), QQ(1)) == (QQ(0), QQ(1))
        q = LaurentPoly.make("sqrt_t", {-2: 3})
        assert q.substitute_gaussian(QQ(0), QQ(1)) == (QQ(-3), QQ(0))
