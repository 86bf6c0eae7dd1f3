import itertools
import math
import random

import pytest

from tanglekit.catalog import _data_text, get_entry
from tanglekit.diagram import (
    Crossing,
    TangleDiagram,
    all_orientations,
    close_denominator,
    close_numerator,
    from_expression,
    from_rational,
    orient,
    tangle_sum,
    validate,
)
from tanglekit.expr import parse_expr
from tanglekit.fraction import Fraction, frac_mirror, frac_normalize
from tanglekit.quandle import (
    NotInvariant,
    arcs,
    color_search_finite,
    color_solve_dihedral,
    coloring_fraction,
    determinant,
    dihedral_relation_matrix,
    dihedral_table,
    monochromatic_report,
    nontrivial_c_colorings_finite,
    parse_quandle_table,
    quandle_check,
)
from tanglekit.snf import smith_normal_form

from conftest import dense, random_fraction, random_tangle_diagram
from oracles import (
    alternating_sum_check,
    c_constrained_report,
    disjoint_union,
    fraction_additivity_check,
    has_nontrivial_c_coloring,
    prime_factors,
)


def F(p, q=1):
    return frac_normalize(p, q)


class TestQuandleCheck:
    def test_dihedral_tables_pass(self):
        for n in (2, 3, 4, 5, 7):
            assert quandle_check([list(r) for r in dihedral_table(n).table]) is None

    def test_bundled_four_element_table(self):
        q = parse_quandle_table(_data_text("quandle_gf4.txt"))
        assert q.size == 4
        assert not q.is_involutory()

    def test_idempotence_violation(self):
        table = [[1, 0], [0, 1]]
        err = quandle_check(table)
        assert "idempotence" in err and "0" in err

    def test_bijectivity_violation(self):
        table = [[0, 0, 0], [1, 1, 1], [2, 2, 2]]
        t = [row[:] for row in table]
        t[0][1] = 1
        assert "bijection" in quandle_check(t)

    def test_distributivity_violation(self):
        # swap two off-diagonal entries within one column of a dihedral
        # table: idempotence and right-invertibility survive, so the
        # checker must blame self-distributivity
        table = [[(2 * y - x) % 4 for y in range(4)] for x in range(4)]
        table[0][1], table[2][1] = table[2][1], table[0][1]
        err = quandle_check(table)
        assert err is not None and "self-distributivity" in err


class TestDihedralSolver:
    def test_trefoil_nine_colorings(self):
        tre = close_numerator(from_rational(F(3)))
        assert color_solve_dihedral(tre, 3).count == 9

    def test_brute_force_agreement(self):
        rng = random.Random(7)
        for _ in range(6):
            d = random_tangle_diagram(rng)
            rows, _, ncols = dihedral_relation_matrix(d)
            rows = dense(rows, ncols)
            for n in (2, 3):
                if n ** ncols > 250000:
                    continue
                brute = sum(
                    1 for v in itertools.product(range(n), repeat=ncols)
                    if all(sum(r * c for r, c in zip(row, v)) % n == 0
                           for row in rows))
                assert color_solve_dihedral(d, n).count == brute

    def test_nullity_at_least_strands(self):
        rng = random.Random(3)
        for _ in range(8):
            d = random_tangle_diagram(rng)
            for n in (2, 3, 5):
                assert color_solve_dihedral(d, n).count >= n ** 2

    def test_generators_satisfy_relations(self):
        d = from_rational(F(5, 3))
        lat = color_solve_dihedral(d, 6)
        rows, _, ncols = dihedral_relation_matrix(d)
        rows = dense(rows, ncols)
        for g in lat.generators:
            for row in rows:
                assert sum(r * c for r, c in zip(row, g)) % 6 == 0


class TestFiniteSearch:
    def test_matches_dihedral_lattice_on_trefoil(self):
        tre = close_numerator(from_rational(F(3)))
        found = color_search_finite(orient(tre), dihedral_table(3))
        assert len(found) == color_solve_dihedral(tre, 3).count == 9

    def test_constants_always_present(self):
        q = parse_quandle_table(_data_text("quandle_gf4.txt"))
        d = from_rational(F(3, 2))
        found = color_search_finite(orient(d), q)
        n_arcs = max(arcs(d).values()) + 1
        for v in range(q.size):
            assert (v,) * n_arcs in found

    def test_gf4_coloring_of_7_7_for_some_orientation(self, catalog_entries):
        q = parse_quandle_table(_data_text("quandle_gf4.txt"))
        e = get_entry("7_7", catalog_entries)
        hits = [i for i, od in enumerate(all_orientations(e.diagram))
                if nontrivial_c_colorings_finite(od, q)]
        assert hits, "some orientation must admit a nontrivial c-coloring"
        assert len(hits) < 4, "and not every orientation (oriented quandle)"


def beside(t: TangleDiagram, L) -> TangleDiagram:
    """T with the link diagram L drawn apart from it: a tangle with a closed
    component, which ``validate`` refuses."""
    shift = 1 + max(max(t.boundary), *(e for c in t.crossings for e in c.ports))
    moved = tuple(Crossing(tuple(e + shift for e in c.ports)) for c in L.crossings)
    return TangleDiagram(crossings=t.crossings + moved, boundary=t.boundary)


class TestMonochromaticity:
    def test_6_4_c_trivial_all_moduli(self):
        d = from_expression(parse_expr("(1/3 + -1/2) * [-2]"))
        rep = monochromatic_report(d)
        assert rep.c_trivial_for_all_n

    def test_6_2_offending_modulus_three(self):
        d = from_expression(parse_expr("1/3 + 1/3"))
        rep = monochromatic_report(d)
        assert 3 in rep.offending_moduli
        assert rep.r0_monochromatic

    def test_7_13_integer_monochromatic(self, catalog_entries):
        rep = monochromatic_report(get_entry("7_13", catalog_entries).diagram)
        assert rep.r0_monochromatic and rep.polychromatic_somewhere()

    def test_report_consistent_with_modular_solver(self, catalog_entries):
        for e in catalog_entries[:8]:
            rep = monochromatic_report(e.diagram)
            for n in (2, 3, 5, 7, 9):
                expect = (rep.all_moduli
                          or any(n % p == 0 for p in rep.offending_moduli))
                assert has_nontrivial_c_coloring(e.diagram, n) == expect

    def test_one_elimination_answers_every_coloring_question(self, catalog_entries, tool):
        """dim(colorings) = 1 + dim(c-colorings) over every field, so the plain
        relation matrix gives what the c-constrained one gives.

        On valid tangles (the catalog, and 200 each from the test generator
        and from the search tool's planar growth) the plain matrix has nullity
        two, and the primes of its torsion are those of gcd(det N, det D).  On
        tangles with a distant closed component the identity holds as well,
        with nullity three: c-colorings at every modulus."""
        rng = random.Random(41)
        valid = [e.diagram for e in catalog_entries]
        valid += [random_tangle_diagram(rng) for _ in range(200)]
        grown = []
        while len(grown) < 200:
            t = tool.random_tangle(rng, rng.randint(3, 9))
            if t is not None and validate(t) is None:
                grown.append(t)
        valid += grown
        links = [close_numerator(from_rational(F(n))) for n in (1, 2, 3, 5)]
        closed = [beside(from_rational(f), L)
                  for f in (F(1, 3), F(2, 3), F(5, 2), F(-3, 4)) for L in links]
        assert all(validate(d) is not None for d in closed)

        for d in valid + closed:
            rows, _, ncols = dihedral_relation_matrix(d)
            nullity = ncols - smith_normal_form(rows, ncols, transforms=False).rank
            assert nullity == (2 if validate(d) is None else 3)
            rep = monochromatic_report(d)
            assert (rep.c_trivial_for_all_n, rep.offending_moduli, rep.all_moduli,
                    rep.r0_monochromatic) == c_constrained_report(d)
            for p in (2, 3, 5, 7, 11, 13):
                assert has_nontrivial_c_coloring(d, p) == (
                    rep.all_moduli or p in rep.offending_moduli)
        for d in valid:
            g = math.gcd(determinant(close_numerator(d)), determinant(close_denominator(d)))
            assert g > 0 and monochromatic_report(d).offending_moduli == prime_factors(g)


class TestColoringFraction:
    def test_rational_tangles(self):
        rng = random.Random(11)
        for _ in range(25):
            f = random_fraction(rng, 13, 13)
            assert coloring_fraction(from_rational(f)) == f

    def test_zero_tangle(self):
        assert coloring_fraction(from_rational(F(0))) == F(0)

    def test_infinity_tangle(self):
        assert coloring_fraction(from_rational(F(1, 0))).is_infinite

    def test_table_values(self, catalog_entries):
        for name, want in [("7_13", F(3, 4)), ("7_15", F(2, 3)),
                           ("7_17", F(8, 7)), ("7_18", F(2))]:
            got = coloring_fraction(get_entry(name, catalog_entries).diagram)
            assert got == want

    def test_additivity_on_rationals(self):
        d1, d2 = from_rational(F(1, 2)), from_rational(F(1, 3))
        s = tangle_sum(d1, d2)
        assert coloring_fraction(s) == F(5, 6)
        assert fraction_additivity_check(d1, d2)

    def test_additivity_random(self):
        rng = random.Random(23)
        for _ in range(15):
            d1 = from_rational(random_fraction(rng, 7, 5))
            d2 = from_rational(random_fraction(rng, 7, 5))
            assert fraction_additivity_check(d1, d2)

    def test_infinite_branch(self):
        d1, d2 = from_rational(F(1, 0)), from_rational(F(1, 2))
        s = tangle_sum(d1, d2)
        f = coloring_fraction(s)
        assert isinstance(f, NotInvariant) or f.is_infinite

    def test_alternating_sum_rule_on_basis(self):
        rng = random.Random(5)
        for _ in range(10):
            d = random_tangle_diagram(rng)
            lat = color_solve_dihedral(d, 0)
            for v in lat.basis:
                assert alternating_sum_check(lat.boundary_colors(v))


class TestDeterminant:
    def test_zero_crossing_unknot(self):
        from tanglekit.diagram import LinkDiagram

        assert determinant(LinkDiagram(crossings=(), loops=1)) == 1

    def test_unlink_zero(self):
        from tanglekit.diagram import LinkDiagram

        assert determinant(LinkDiagram(crossings=(), loops=2)) == 0

    def test_trefoil(self):
        tre = close_numerator(from_rational(F(3)))
        # 9 three-colorings force 3 | det; the minor computation gives 3
        assert determinant(tre) == 3

    def test_two_bridge_determinants(self):
        from tanglekit.fraction import numerator_two_bridge

        for p, q in [(5, 2), (7, 3), (-5, 3), (9, 5), (12, 5), (4, 1)]:
            f = F(p, q)
            L = close_numerator(from_rational(f))
            assert determinant(L) == numerator_two_bridge(f).alpha

    def test_minor_independence(self):
        rng = random.Random(17)
        for _ in range(12):
            d = random_tangle_diagram(rng)
            L = close_numerator(d)
            k = L.crossing_count
            if k == 0 or L.loops:
                continue
            base = determinant(L)
            for dr in range(k):
                for dc in range(k):
                    assert determinant(L, dr, dc) == base

    def test_large_sums_of_rationals(self):
        """The whole coloring pass on sums of 2-5 rationals with 20-50
        crossings, against the closed forms of Montesinos sums."""

        def ends(f):
            # which end NW is joined to: NE (0), SE (1) or SW (None)
            return None if f.den % 2 == 0 else f.num % 2

        rng = random.Random(29)
        checked = 0
        while checked < 30:
            fractions = []
            for _ in range(rng.randint(2, 5)):
                q = rng.randint(2, 13)
                p = rng.choice([x for x in range(-40, 41) if x and math.gcd(x, q) == 1])
                fractions.append(F(p, q))
            # a circle closes where the sum so far and the next summand
            # both join NW to SW
            pattern, closed = ends(fractions[0]), False
            for f in fractions[1:]:
                closed |= pattern is None and ends(f) is None
                pattern = None if None in (pattern, ends(f)) else (pattern + ends(f)) % 2
            if closed:
                continue
            d = from_rational(fractions[0])
            for f in fractions[1:]:
                d = tangle_sum(d, from_rational(f))
            if not 20 <= d.crossing_count <= 50:
                continue
            assert validate(d) is None
            qs = [f.den for f in fractions]
            total = sum(f.num * math.prod(qs) // f.den for f in fractions)
            assert determinant(close_numerator(d)) == abs(total)
            assert determinant(close_denominator(d)) == math.prod(qs)
            assert coloring_fraction(d) == F(total, math.prod(qs))
            checked += 1

    def test_determinant_law_on_random_tangles(self, tool):
        """det N(T + [r/s]) = |a*s + e*b*r| with a = det N(T), b = det D(T)
        and e the sign of the coloring fraction (Krebes, JKTR 1999), so
        that the determinant is 0 at the closure [-cf] and nowhere else."""
        from tanglekit.catalog import closure_link

        closures = {frac_normalize(r, s) for r in range(-4, 5)
                    for s in range(5) if math.gcd(r, s) == 1}
        rng = random.Random(41)
        tangles = [random_tangle_diagram(rng) for _ in range(100)]
        while len(tangles) < 200:
            t = tool.random_tangle(rng, rng.randint(2, 7))
            if t is not None and validate(t) is None:
                tangles.append(t)
        zeros = 0
        for t in tangles:
            a = determinant(close_numerator(t))
            b = determinant(close_denominator(t))
            cf = coloring_fraction(t)
            assert not isinstance(cf, NotInvariant)
            e = -1 if cf.num < 0 else 1
            candidate = frac_mirror(cf)
            for c in closures:
                det = determinant(closure_link(t, c))
                assert det == abs(a * c.den + e * b * c.num), (t, c)
                assert (det == 0) == (c == candidate), (t, c)
                zeros += det == 0
            assert determinant(closure_link(t, candidate)) == 0
        assert zeros > 10

    def test_split_presentation_zero(self):
        a = close_numerator(from_rational(F(3)))
        b = close_numerator(from_rational(F(2)))
        assert determinant(disjoint_union(a, b)) == 0
