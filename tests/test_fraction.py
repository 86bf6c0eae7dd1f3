
import math
import random

import pytest
from hypothesis import given, strategies as st

from tanglekit.fraction import (
    Fraction,
    INFINITY,
    TwoBridgeLink,
    continued_fraction,
    continued_fraction_value,
    frac_add,
    frac_add_integral,
    frac_mirror,
    frac_normalize,
    frac_rotate,
    numerator_two_bridge,
    parse_fraction,
    rational_closure_verdict,
    two_bridge_equivalent,
    unknotting_closure,
)

from oracles import scan_unknotting_closure


def F(p, q=1):
    return frac_normalize(p, q)


class TestNormalize:
    def test_gcd_reduction(self):
        assert frac_normalize(6, 4) == Fraction(3, 2)

    def test_infinity(self):
        assert frac_normalize(1, 0) == INFINITY
        assert frac_normalize(-7, 0) == INFINITY

    def test_sign_normalization(self):
        assert frac_normalize(-2, -4) == Fraction(1, 2)
        assert frac_normalize(2, -4) == Fraction(-1, 2)

    def test_rejects_zero_zero(self):
        with pytest.raises(ValueError):
            frac_normalize(0, 0)

    def test_non_reduced_construction_rejected(self):
        with pytest.raises(ValueError):
            Fraction(2, 4)
        with pytest.raises(ValueError):
            Fraction(1, -2)

    def test_parse_print(self):
        assert parse_fraction("3/2") == Fraction(3, 2)
        assert parse_fraction("-5") == Fraction(-5, 1)
        assert parse_fraction("inf") == INFINITY
        assert str(Fraction(-1, 3)) == "-1/3"
        assert str(INFINITY) == "inf"


class TestAddIntegral:
    def test_basic(self):
        assert frac_add_integral(F(1, 3), 1) == F(4, 3)

    def test_negative(self):
        assert frac_add_integral(F(2, 3), -1) == F(-1, 3)

    def test_infinity_absorbs(self):
        assert frac_add_integral(INFINITY, 5) == INFINITY

    @given(st.integers(-50, 50), st.integers(1, 30), st.integers(-20, 20),
           st.integers(-20, 20))
    def test_additivity(self, p, q, m, n):
        f = frac_normalize(p, q) if (p, q) != (0, 0) else F(0)
        lhs = frac_add_integral(f, m + n)
        rhs = frac_add_integral(frac_add_integral(f, m), n)
        assert lhs == rhs


class TestRotate:
    def test_examples(self):
        assert frac_rotate(F(1, 3)) == F(-3)
        assert frac_rotate(F(2, 3)) == F(-3, 2)
        assert frac_rotate(F(0)) == INFINITY
        assert frac_rotate(INFINITY) == F(0)

    @given(st.integers(-60, 60), st.integers(0, 40))
    def test_fourth_power_identity(self, p, q):
        if (p, q) == (0, 0):
            return
        f = frac_normalize(p, q)
        g = f
        for _ in range(4):
            g = frac_rotate(g)
        assert g == f


class TestMirror:
    def test_examples(self):
        assert frac_mirror(F(1, 2)) == F(-1, 2)
        assert frac_mirror(F(0)) == F(0)
        assert frac_mirror(INFINITY) == INFINITY


class TestContinuedFraction:
    def test_integral(self):
        assert continued_fraction(F(2)) == [2]
        assert continued_fraction(F(0)) == [0]

    def test_round_trip_examples(self):
        for p, q in [(3, 2), (-5, 3), (8, 7), (1, 3), (13, 5)]:
            f = F(p, q)
            assert continued_fraction_value(continued_fraction(f)) == f

    def test_entry_signs(self):
        for p, q in [(7, 5), (-7, 5), (5, 7), (-9, 2)]:
            entries = continued_fraction(F(p, q))
            interior = entries[:-1]
            assert all(c != 0 for c in interior)
            nonzero = [c for c in entries if c != 0]
            assert all(c > 0 for c in nonzero) or all(c < 0 for c in nonzero)

    def test_rejects_infinity(self):
        with pytest.raises(ValueError):
            continued_fraction(INFINITY)


class TestTwoBridge:
    def test_one_crossing_unknot(self):
        assert numerator_two_bridge(F(1)).is_unknot

    def test_zero_tangle_unlink(self):
        tb = numerator_two_bridge(F(0))
        assert tb.is_two_unlink and tb.components == 2

    def test_trefoil(self):
        tb = numerator_two_bridge(F(3))
        assert tb == TwoBridgeLink(3, 1) and tb.components == 1

    def test_denominator_via_rotation(self):
        # D(f) = N(rotate(f)): the denominator closure of [3] is the unknot
        assert numerator_two_bridge(frac_rotate(F(3))).is_unknot

    @given(st.integers(-60, 60), st.integers(0, 40))
    def test_component_parity(self, p, q):
        if (p, q) == (0, 0):
            return
        tb = numerator_two_bridge(frac_normalize(p, q))
        assert (tb.components == 2) == (tb.alpha % 2 == 0)

    def test_equivalence_predicate(self):
        assert two_bridge_equivalent(TwoBridgeLink(5, 2), TwoBridgeLink(5, 3))
        assert not two_bridge_equivalent(TwoBridgeLink(5, 2), TwoBridgeLink(7, 2))
        assert two_bridge_equivalent(TwoBridgeLink(7, 2), TwoBridgeLink(7, 4))


class TestRationalClosureVerdict:
    def test_symmetric_cancellation(self):
        v = rational_closure_verdict(F(1, 3), F(-1, 3))
        assert v.unlink and v.split and not v.unknot

    def test_five_crossing_knot(self):
        v = rational_closure_verdict(F(1, 2), F(1, 3))
        assert not v.unknot and not v.unlink

    def test_two_components_not_unlink(self):
        v = rational_closure_verdict(F(1, 2), F(1, 2))
        assert not v.unknot and not v.unlink and not v.split

    def test_unknot(self):
        assert rational_closure_verdict(F(1, 2), F(0)).unknot


class TestUnknottingClosure:
    @given(st.integers(-30, 30), st.integers(0, 20))
    def test_closure_unknots(self, p, q):
        if (p, q) == (0, 0):
            return
        f = frac_normalize(p, q)
        u = unknotting_closure(f)
        assert rational_closure_verdict(f, u).unknot

    def test_half(self):
        assert unknotting_closure(F(1, 2)) == F(0)

    def test_search_below_q_matches_the_wide_search(self):
        """Some s below q solves p*s = +-1 mod q, so stopping the search
        at q finds the closure that searching up to max(q, |p|) did."""
        checked = 0
        for q in range(61):
            for p in range(-60, 61):
                if math.gcd(p, q) == 1:
                    f = F(p, q)
                    assert unknotting_closure(f) == scan_unknotting_closure(f, wide=True), f
                    checked += 1
        assert checked > 4000

    def test_least_s_matches_the_full_scan(self):
        """Stopping at the least s gives the closure that scanning every s
        in [0, q] for the least (s, |r|) gave: inf, integers, halves and
        seeded fractions with q up to 2,000 and p of both signs."""
        rng = random.Random(2601)
        fractions = [INFINITY] + [F(p, q) for q in (1, 2) for p in (-3, -1, 0, 1, 3)
                                  if math.gcd(p, q) == 1]
        while len(fractions) < 300:
            q = rng.randint(3, 2000)
            p = rng.choice((-1, 1)) * rng.randint(1, 3 * q)
            if math.gcd(p, q) == 1:
                fractions.append(F(p, q))
        for f in fractions:
            u = unknotting_closure(f)
            assert u == scan_unknotting_closure(f), f
            assert rational_closure_verdict(f, u).unknot, f


@given(st.integers(-30, 30), st.integers(1, 20), st.integers(-30, 30),
       st.integers(1, 20))
def test_frac_add_matches_rationals(p1, q1, p2, q2):
    from fractions import Fraction as QQ

    f = frac_add(frac_normalize(p1, q1), frac_normalize(p2, q2))
    want = QQ(p1, q1) + QQ(p2, q2)
    assert (f.num, f.den) == (want.numerator, want.denominator)
