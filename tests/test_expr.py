import itertools
import math
import random
import time

import pytest

from tanglekit.expr import (
    CatalogHint,
    EmbedVerdict,
    ExprSyntaxError,
    Mirror,
    NamedRef,
    Product,
    RationalLeaf,
    Rotate,
    Sum,
    Verdict,
    VerdictConsistencyError,
    evaluate,
    expr_text,
    extend_sum_verdict,
    montesinos_verdict,
    parse_expr,
    rational_leaf_verdict,
    referenced_names,
)
from tanglekit.fraction import (
    Fraction,
    frac_add_integral,
    frac_normalize,
    frac_rotate,
    rational_closure_verdict,
)


def F(p, q=1):
    return frac_normalize(p, q)


class TestParser:
    def test_product_of_sum(self):
        e = parse_expr("(1/3 + 1/3) * [-2]")
        assert isinstance(e, Product) and isinstance(e.top, Sum)
        assert e.bottom == RationalLeaf(F(-2))

    def test_bracketed_zero(self):
        assert parse_expr("[0]") == RationalLeaf(F(0))

    def test_rot(self):
        assert parse_expr("rot(1/2)") == Rotate(RationalLeaf(F(1, 2)))

    def test_mirror_and_named(self):
        e = parse_expr("mirror(@t_1) + 2")
        assert isinstance(e, Sum) and e.left == Mirror(NamedRef("t_1"))

    def test_inf(self):
        assert parse_expr("inf") == RationalLeaf(Fraction(1, 0))
        assert parse_expr("[inf]") == RationalLeaf(Fraction(1, 0))

    def test_mixed_ops_need_parens(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("1/2 + 1/3 * 2")
        assert err.value.position > 0

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("1/2 + ")
        with pytest.raises(ExprSyntaxError):
            parse_expr("(1/2")
        with pytest.raises(ExprSyntaxError):
            parse_expr("1/2 $")

    def test_round_trip_text(self):
        for s in ["(1/3 + 1/3) * [-2]", "1/2 + 1/5", "rot(1/2)",
                  "mirror(@x)", "[0] + inf"]:
            e = parse_expr(s)
            assert parse_expr(expr_text(e)) == e

    def test_referenced_names(self):
        e = parse_expr("mirror(rot(@5_1)) * (@6_3 + 1/3 + @5_1)")
        assert referenced_names(e) == {"5_1", "6_3"}
        assert referenced_names(parse_expr("(1/3 + 1/3) * [-2]")) == set()


class TestMontesinos:
    def test_6_2_all_no(self):
        v = montesinos_verdict([F(1, 3), F(1, 3)])
        assert v.unknottable.is_no and v.unlinkable.is_no and v.splittable.is_no

    def test_7_1_not_unknottable(self):
        v = montesinos_verdict([F(1, 2), F(1, 5)])
        assert v.unknottable.is_no

    def test_unknottable_with_closure(self):
        v = montesinos_verdict([F(1, 2), F(1, 3)])
        assert v.unknottable.is_yes and v.unknottable.closure == F(-1)
        # double-cover arithmetic: p1 q2 + p2 q1 + p q1 q2 = +-1
        assert abs(1 * 3 + 1 * 2 + (-1) * 6) == 1

    def test_unlinkable_symmetric(self):
        v = montesinos_verdict([F(1, 3), F(-1, 3)])
        assert v.unlinkable.is_yes and v.unlinkable.closure == F(0)
        assert v.splittable.is_yes and v.splittable.closure == F(0)

    def test_three_or_more_all_no(self):
        v = montesinos_verdict([F(1, 2), F(1, 3), F(1, 5)])
        assert v.unknottable.is_no and v.unlinkable.is_no and v.splittable.is_no

    def test_rejects_integral_summand(self):
        with pytest.raises(ValueError):
            montesinos_verdict([F(2), F(1, 3)])

    def test_commuting_summands_same_closure(self):
        for fs in itertools.permutations([F(1, 2), F(1, 3)]):
            v = montesinos_verdict(list(fs))
            assert v.unknottable.closure == F(-1)

    def test_closure_arithmetic_cross_check(self):
        # when unknottable, the closure [p] satisfies the length-one
        # two-bridge condition |p1 q2 + p2 q1 + p q1 q2| = 1
        cases = 0
        for p1, q1, p2, q2 in itertools.product(
                range(-5, 6), range(2, 6), range(-5, 6), range(2, 6)):
            import math

            if math.gcd(abs(p1), q1) != 1 or math.gcd(abs(p2), q2) != 1:
                continue
            v = montesinos_verdict([F(p1, q1), F(p2, q2)])
            if v.unknottable.is_yes:
                p = v.unknottable.closure.num
                assert abs(p1 * q2 + p2 * q1 + p * q1 * q2) == 1
                cases += 1
            if v.unlinkable.is_yes:
                p = v.unlinkable.closure.num
                assert q1 == q2 and p1 + p2 + p * q1 == 0
        assert cases > 10


class TestExtendRules:
    def test_integral_summand_always_extends(self):
        v = extend_sum_verdict(F(-1), F(2))
        assert v.is_yes and v.closure == F(-3)

    def test_matching_denominator(self):
        v = extend_sum_verdict(F(2, 3), F(5, 3))
        assert v.is_yes and v.closure == F(-1)

    def test_mismatched_denominator(self):
        assert extend_sum_verdict(F(-1), F(1, 2)).is_no

    def test_product_numerator_match(self):
        v = product_extension(F(2, 3), F(2, 9))
        assert v.is_yes and same_answer(v, rotated_sum_extension(F(2, 3), F(2, 9)))

    def test_product_unit_numerator(self):
        v = product_extension(F(2, 3), F(1, 4))
        assert v.is_yes and same_answer(v, rotated_sum_extension(F(2, 3), F(1, 4)))

    def test_product_failure(self):
        v = product_extension(F(0), F(-2))
        assert v.is_no and same_answer(v, rotated_sum_extension(F(0), F(-2)))

    def test_rotation_reduction_soundness(self):
        import math

        for r in range(-8, 9):
            for s in range(0, 8):
                if (r, s) == (0, 0) or (s and math.gcd(abs(r), s) != 1):
                    continue
                if s == 0 and abs(r) != 1:
                    continue
                closure = frac_normalize(r, s)
                for p in range(-8, 9):
                    for q in range(1, 8):
                        if math.gcd(abs(p), q) != 1:
                            continue
                        factor = frac_normalize(p, q)
                        lhs = product_extension(closure, factor)
                        rhs = rotated_sum_extension(closure, factor)
                        assert same_answer(lhs, rhs), (closure, factor)

    def test_absorbed_integral_agrees_with_two_bridge_arithmetic(self):
        # a sum with an integral part folds to one rational; the closures
        # produced by the leaf verdict really close it up
        import math

        for p1 in range(-7, 8):
            for q1 in range(1, 8):
                if math.gcd(abs(p1), q1) != 1:
                    continue
                for n in range(-7, 8):
                    f = frac_add_integral(F(p1, q1), n)
                    v = rational_leaf_verdict(f)
                    assert rational_closure_verdict(f, v.unknottable.closure).unknot
                    assert rational_closure_verdict(f, v.splittable.closure).split


class TestThreeFactor:
    def test_7_16_route(self):
        # the sum's congruences, then the rotated factor [1/2] extends it
        r = evaluate(parse_expr("(1/3 + 1/3) * [-2]"))
        assert r.log[:3] == ["sum of rationals: congruence criteria on 1/3, 1/3",
                             "product evaluated as the rotated sum rot(1/3 + 1/3) + rot(-2)",
                             "extending rot(1/3 + 1/3) by rational summands 1/2"]
        v = r.verdict
        assert v.unknottable.is_no and v.unlinkable.is_no and v.splittable.is_no

    def test_6_4_route(self):
        # the sum's closure [0] rotates to inf, which + [1/2] cannot extend
        v = evaluate(parse_expr("(1/3 + -1/2) * [-2]")).verdict
        assert v.unknottable.is_no
        assert "closure inf" in v.unknottable.reason

    def test_unknottable_case(self):
        v = evaluate(parse_expr("(1/2 + 1/3) * -1/2")).verdict
        assert v.unknottable.is_yes and v.unknottable.closure == F(1)

    def test_precondition(self):
        """Shapes outside the three-factor criterion, an integral summand
        or a factor of numerator 1, are folded rather than refused."""
        pairs = [("(1/2 + 2) * -2", "5/2 * -2"),
                 ("(1/2 + 1/3) * 1/5", "rot(rot(1/2 + 1/3) + -5)")]
        for text, folded in pairs:
            assert (evaluate(parse_expr(text)).verdict
                    == evaluate(parse_expr(folded)).verdict)


def yes(c=None):
    return Verdict.yes(c)


def no():
    return Verdict.no("x")


def unk():
    return Verdict.unknown()


def product_extension(closure: Fraction, factor: Fraction) -> Verdict:
    """evaluate's unknotting verdict on T * [factor], for an essential T
    whose unknotting closure is ``closure``."""
    hint = CatalogHint(verdict=EmbedVerdict(yes(closure), no(), no()), essential=True)
    return evaluate(parse_expr(f"@T * {factor}"), {"T": hint}).verdict.unknottable


def rotated_sum_extension(closure: Fraction, factor: Fraction) -> Verdict:
    """The sum criterion on the rotated closure and factor, rotated back."""
    inner = extend_sum_verdict(frac_rotate(closure), frac_rotate(factor))
    return Verdict.yes(frac_rotate(inner.closure)) if inner.is_yes else inner


def same_answer(a: Verdict, b: Verdict) -> bool:
    return a.status == b.status and a.closure == b.closure


class TestEmbedVerdictInvariant:
    def test_unlink_yes_forces_split_yes(self):
        with pytest.raises(VerdictConsistencyError):
            EmbedVerdict(no(), yes(F(0)), no())


class TestEvaluate:
    def test_rational_leaf(self):
        r = evaluate(parse_expr("1/2"))
        assert r.rational == F(1, 2)
        v = r.verdict
        assert v.unknottable.is_yes and v.unlinkable.closure == F(-1, 2)

    def test_7_16_all_no(self):
        r = evaluate(parse_expr("(1/3 + 1/3) * [-2]"))
        v = r.verdict
        assert v.unknottable.is_no and v.unlinkable.is_no and v.splittable.is_no

    def test_7_1_all_no(self):
        v = evaluate(parse_expr("1/2 + 1/5")).verdict
        assert v.unknottable.is_no and v.unlinkable.is_no and v.splittable.is_no

    def test_integral_absorption(self):
        r = evaluate(parse_expr("1/3 + 1 + 1/3"))
        # absorbs to [4/3] + [1/3]: still a sum of two rationals
        assert r.verdict.unknottable.is_no

    def test_product_folds_rationals(self):
        # folding applies when a factor has numerator +-1
        assert evaluate(parse_expr("1 * 1")).rational == F(1, 2)
        assert evaluate(parse_expr("1/2 * 1/3")).rational == F(1, 5)

    def test_product_of_clasps_is_not_rational(self):
        # [2] * [2] rotates to the sum [-1/2] + [-1/2]: unlinkable with
        # closure [1] there, so closure [-1] after rotating back
        r = evaluate(parse_expr("2 * 2"))
        assert r.rational is None
        assert r.verdict.unknottable.is_no
        assert r.verdict.unlinkable.is_yes
        assert r.verdict.unlinkable.closure == F(-1)

    def test_rotation_at_leaf(self):
        assert evaluate(parse_expr("rot(1/2)")).rational == F(-2)

    def test_mirror_distributes(self):
        r = evaluate(parse_expr("mirror(1/3 + 1/3)"))
        assert r.verdict.unknottable.is_no

    def test_named_extension_chain(self):
        hint = CatalogHint(
            verdict=EmbedVerdict(yes(F(-1)), no(), no()), essential=True)
        r = evaluate(parse_expr("@base + 2 + -3"), {"base": hint})
        assert r.verdict.unknottable.is_yes
        assert r.verdict.unknottable.closure == F(0)

    def test_named_product_pruning(self):
        hint = CatalogHint(
            verdict=EmbedVerdict(no(), no(), no()), essential=True)
        r = evaluate(parse_expr("@base * [-2]"), {"base": hint})
        assert r.verdict.unknottable.is_no

    def test_named_mirror_transport(self):
        hint = CatalogHint(
            verdict=EmbedVerdict(yes(F(-1)), no(), no()), essential=True)
        r = evaluate(parse_expr("mirror(@base)"), {"base": hint})
        assert r.verdict.unknottable.closure == F(1)

    def test_named_rotation_transport(self):
        hint = CatalogHint(
            verdict=EmbedVerdict(yes(F(-1, 2)), no(), no()), essential=True)
        r = evaluate(parse_expr("rot(@base)"), {"base": hint})
        assert r.verdict.unknottable.closure == frac_rotate(F(-1, 2))

    def test_unresolved_reference(self):
        with pytest.raises(KeyError):
            evaluate(parse_expr("@missing + 1"))

    def test_unknown_with_reason(self):
        hint = CatalogHint(
            verdict=EmbedVerdict(unk(), unk(), unk()), essential=False)
        r = evaluate(parse_expr("@a + @b"),
                     {"a": hint, "b": hint})
        assert r.verdict.unknottable.status == "unknown"
        assert r.verdict.unknottable.reason

    def test_infinity_sum_unknown(self):
        r = evaluate(parse_expr("inf + 1/2"))
        assert r.verdict.unknottable.status == "unknown"

    def test_long_sum_keeps_term_order(self):
        # 3000 summands: flattening the chain must not recurse per term
        terms = [f"{i % 5 + 1}/{(7, 11, 13, 17, 19, 23, 29)[i % 7]}" for i in range(3000)]
        r = evaluate(parse_expr(" + ".join(terms)))
        assert r.log == ["sum of rationals: congruence criteria on " + ", ".join(terms)]
        assert r.verdict.unknottable.is_no

    def test_product_keeps_factor_order(self):
        r = evaluate(parse_expr("1/2 * 1/3 * 2/5"))
        assert r.log == ["product evaluated as the rotated sum "
                         "rot(1/2) + rot(1/3) + rot(2/5)"]

    def test_absorb_integrals_matches_restarting_scan(self):
        from oracles import restarting_absorb_integrals
        from tanglekit.expr import _absorb_integrals, _Item

        def fields(items):
            return [(it.rational, it.verdict, it.essential, it.label) for it in items]

        rng = random.Random(20261018)
        piece = _Item(rational=None, verdict=EmbedVerdict(unk(), unk(), unk()),
                      essential=True, label="@piece")
        for _ in range(2000):
            items = []
            for k in range(rng.randint(1, 7)):
                kind = rng.random()
                if kind < 0.45:
                    f = F(rng.randint(-4, 4))
                elif kind < 0.8:
                    q = rng.randint(2, 5)
                    f = F(rng.choice([p for p in range(-7, 8) if math.gcd(p, q) == 1]), q)
                elif kind < 0.9:
                    f = Fraction(1, 0)
                else:
                    items.append(piece)
                    continue
                items.append(_Item(rational=f, verdict=rational_leaf_verdict(f),
                                   essential=False, label=f"leaf{k}"))
            assert (fields(_absorb_integrals(items))
                    == fields(restarting_absorb_integrals(items))), fields(items)

    def test_long_product_with_integral_rotations(self):
        # each factor rotates to the integral summand [-3]; absorbing them
        # must stay linear in the number of factors
        start = time.perf_counter()
        r = evaluate(parse_expr(" * ".join(["1/3"] * 3000)))
        assert time.perf_counter() - start < 2
        assert r.rational == F(1, 9000)
        assert r.verdict == evaluate(parse_expr("1/9000")).verdict

    def test_montesinos_closure_unique_across_commutation(self):
        a = evaluate(parse_expr("1/2 + 1/3")).verdict.unknottable.closure
        b = evaluate(parse_expr("1/3 + 1/2")).verdict.unknottable.closure
        assert a == b == F(-1)
