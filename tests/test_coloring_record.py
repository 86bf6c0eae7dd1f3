"""The coloring record: colors by propagation and one Smith form of the
leftover relations for the all-moduli report, the coloring fraction and
both closure determinants, against the full-matrix Smith form, the
separate eliminations and the dense oracles."""

import random
from math import gcd

import pytest

from tanglekit.diagram import (
    DiagramError,
    TangleDiagram,
    _ends,
    close_denominator,
    close_numerator,
    from_expression,
    from_rational,
    horizontal_twists,
    mirror,
    rotate,
    tangle_product,
    tangle_sum,
    validate,
    zero_tangle,
)
from tanglekit import quandle
from tanglekit.expr import parse_expr
from tanglekit.fraction import continued_fraction_value, frac_normalize
from tanglekit.quandle import (
    MonochromaticReport,
    _paint,
    _propagate,
    color_solve_dihedral,
    coloring_fraction,
    coloring_record,
    determinant,
    dihedral_relation_matrix,
    monochromatic_report,
)
from tanglekit.snf import smith_normal_form

from conftest import dense, montesinos_sum, random_tangle_diagram
from oracles import bareiss_determinant


def fresh(t: TangleDiagram) -> TangleDiagram:
    """An equal diagram whose coloring record has not been computed."""
    return TangleDiagram(t.crossings, t.boundary, t.loops)


def report_fields(rep: MonochromaticReport):
    return (rep.c_trivial_for_all_n, rep.offending_moduli, rep.all_moduli,
            rep.r0_monochromatic)


def oracle_determinant(link) -> int:
    """The (0, 0) first minor by Bareiss, with the conventions of
    ``determinant`` for crossing-free, looped and lifted-off pictures."""
    k = link.crossing_count
    if k == 0:
        return 1 if link.loops == 1 else 0
    rows, _, ncols = dihedral_relation_matrix(link)
    if link.loops or ncols != k:
        return 0
    return abs(bareiss_determinant([row[1:] for row in dense(rows, ncols)[1:]]))


def assert_record_matches(t: TangleDiagram, bareiss: bool = True):
    """The record against separate eliminations on an equal, record-free
    diagram, and the closures' determinants against Bareiss."""
    direct = fresh(t)
    rows, _, ncols = dihedral_relation_matrix(direct)
    report = MonochromaticReport(smith_normal_form(rows, ncols, ()))
    fraction = color_solve_dihedral(direct, 0).coloring_fraction()
    links = (close_numerator(direct), close_denominator(direct))
    assert all(link._determinant is None for link in links)
    dets = tuple(determinant(link) for link in links)
    if bareiss:
        assert dets == tuple(oracle_determinant(link) for link in links), t

    record = coloring_record(t)
    assert coloring_record(t) is record
    assert report_fields(record.report) == report_fields(report), t
    assert report_fields(monochromatic_report(t)) == report_fields(report)
    assert record.fraction == fraction == coloring_fraction(t), t
    closed = (close_numerator(t), close_denominator(t))
    assert tuple(link._determinant for link in closed) == (record.det_numerator,
                                                           record.det_denominator)
    assert closed == links
    assert tuple(determinant(link) for link in closed) == dets, t
    if t.crossing_count and not t.loops:
        # a closure without loops has the record's determinant itself
        for link, det in zip(closed, (record.det_numerator, record.det_denominator)):
            if not link.loops:
                assert det == determinant(link), t


def variants(t: TangleDiagram):
    return (t, mirror(t), rotate(t))


def test_record_on_seeded_tangles():
    """Random small tangles and Montesinos sums, plain, mirrored and
    rotated; Bareiss on every closure of the small ones and of a third of
    the sums."""
    rng = random.Random(1301)
    for _ in range(200):
        for t in variants(random_tangle_diagram(rng)):
            assert_record_matches(t)
    for i in range(60):
        for t in variants(montesinos_sum(rng)):
            assert_record_matches(t, bareiss=i % 3 == 0)


def kinked_zero() -> TangleDiagram:
    """[1] stacked on [0]: the NW-NE strand passes through one kink and
    the SW-SE strand is crossing-free."""
    return tangle_product(horizontal_twists(1), zero_tangle())


def test_crossing_free_strand_closes_into_a_loop():
    """[0] stacked on [1]: a crossing-free NW-NE strand, which N(T)
    closes into a loop, and a kinked SW-SE strand."""
    t = tangle_product(zero_tangle(), horizontal_twists(1))
    assert validate(t) is None and t.boundary[0] == t.boundary[1]
    assert close_numerator(t).loops == 1
    assert_record_matches(t)
    assert determinant(close_numerator(t)) == 0
    assert determinant(close_denominator(t)) == 1


def test_over_only_strand_gives_zero():
    """In [1] + [-1] the strand from NW to NE passes over at both
    crossings, so N(T) has three arcs and two crossings: the strand lifts
    off as a split unknot.  D(T) is a one-component unknot."""
    t = tangle_sum(horizontal_twists(1), horizontal_twists(-1))
    n = close_numerator(t)
    assert n.loops == 0 and dihedral_relation_matrix(n)[2] == 3 > n.crossing_count
    assert_record_matches(t)
    record = coloring_record(t)
    assert (record.det_numerator, record.det_denominator) == (0, 1)
    for u in variants(t)[1:]:
        assert_record_matches(u)


def test_kinks_on_boundary_arcs():
    """A kink on the NW-NE strand of [0], alone and summed on either side
    of rational tangles and sums, plain, mirrored and rotated."""
    k = kinked_zero()
    assert validate(k) is None
    assert_record_matches(k)
    rng = random.Random(1302)
    for _ in range(20):
        t = random_tangle_diagram(rng)
        for u in (tangle_sum(t, k), tangle_sum(k, t), tangle_sum(k, t, k),
                  tangle_product(rotate(k), t)):
            if validate(u) is None:
                for w in variants(u):
                    assert_record_matches(w)


def test_record_is_not_part_of_the_value():
    """The cached record and a closure's determinant change neither
    equality, hash, repr nor immutability."""
    t, twin = from_rational(frac_normalize(3, 5)), from_rational(frac_normalize(3, 5))
    before = (repr(t), hash(t))
    record = coloring_record(t)
    assert t._colorings is record and twin._colorings is None
    assert t == twin and (repr(t), hash(t)) == before == (repr(twin), hash(twin))
    assert "_colorings" not in repr(t)
    for name, value in (("_colorings", None), ("loops", 1)):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(t, name, value)
    with pytest.raises(AttributeError):
        del t._colorings
    link, plain = close_numerator(t), close_numerator(twin)
    assert link._determinant == record.det_numerator == 3 and plain._determinant is None
    assert link == plain and hash(link) == hash(plain) and repr(link) == repr(plain)
    with pytest.raises(AttributeError, match="cannot assign to field '_determinant'"):
        link._determinant = 1


def benchmark_shaped_sum(rng: random.Random) -> TangleDiagram:
    """A sum of 2-5 rationals p/q with 2 <= q <= 40 and |p| <= 40, of 20
    to 50 crossings."""
    while True:
        terms = []
        for _ in range(rng.randint(2, 5)):
            q = rng.randint(2, 40)
            p = rng.choice([p for p in range(-40, 41) if gcd(p, q) == 1])
            terms.append(from_rational(frac_normalize(p, q)))
        t = tangle_sum(*terms)
        if 20 <= t.crossing_count <= 50:
            return t


def test_record_on_benchmark_shaped_sums():
    """Sums shaped like the coloring benchmark's inputs take the
    propagation; plain, mirrored and rotated, with Bareiss on the
    closures of every fourth."""
    rng = random.Random(1703)
    for i in range(120):
        t = benchmark_shaped_sum(rng)
        assert _propagate(t) is not None
        for u in variants(t):
            assert_record_matches(u, bareiss=i % 4 == 0)


def small_fraction(rng: random.Random):
    q = rng.randint(1, 9)
    return frac_normalize(rng.choice([p for p in range(-9, 10) if gcd(p, q) == 1]), q)


def test_record_on_products_that_need_quarter_turns():
    """Products whose naive gluing would close a circle, so that the
    first factor is turned before it is glued."""
    rng = random.Random(1704)
    seen = 0
    while seen < 30:
        a, b, c = (small_fraction(rng) for _ in range(3))
        top = tangle_sum(from_rational(a), from_rational(b))
        naive = tangle_product(top, from_rational(c))
        if naive.loops == 0 and validate(naive) is None:
            continue
        try:
            t = from_expression(parse_expr(f"({a} + {b}) * {c}"))
        except DiagramError:
            continue  # no quarter turn avoids a circle
        assert validate(t) is None and t != naive
        seen += 1
        for u in variants(t):
            assert_record_matches(u, bareiss=seen % 3 == 0)


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("n", [10, 60, 88, 89, 90, 120, 200, 320])
def test_record_on_fibonacci_tangles(n):
    """F_n/F_(n+1) has the twist vector 1, 1, ..., 1, so its colors grow
    like the golden ratio to the crossing count: past about 88 crossings
    a coefficient outgrows 64 bits, and the field width must double."""
    t = from_rational(frac_normalize(fibonacci(n), fibonacci(n + 1)))
    k = t.crossing_count
    assert (_paint(_ends(t), 64) is None) == (k > 88)
    assert _propagate(t) is not None
    for u in variants(t):
        assert_record_matches(u, bareiss=k <= 60)
    record = coloring_record(t)
    assert record.fraction == frac_normalize(fibonacci(n), fibonacci(n + 1))
    assert (record.det_numerator, record.det_denominator) == (fibonacci(n), fibonacci(n + 1))


def test_record_on_a_rational_of_3000_crossings():
    """Long twist regions: 3000 crossings, and coefficients of 35 bits."""
    entries = [3, 1000, 2, 1000, 5, 990]
    f = continued_fraction_value(entries)
    t = from_rational(f)
    assert t.crossing_count == sum(entries) == 3000
    assert _propagate(t) is not None
    assert_record_matches(t, bareiss=False)
    record = coloring_record(t)
    assert record.fraction == f
    assert (record.det_numerator, record.det_denominator) == (abs(f.num), f.den)


@pytest.mark.parametrize("f, width", [(frac_normalize(100000, 1), 64),
                                      (frac_normalize(fibonacci(120), fibonacci(121)), 128)])
def test_bit_limit_counts_the_colors_in_use(monkeypatch, f, width):
    """``_PACKED_BITS`` bounds the seeds and the width in use on each arc,
    not the most seeds propagation takes on: a rational of 100,000
    crossings paints with two seeds in 64-bit fields, F_120/F_121 with two
    in 128-bit ones, and each takes the whole matrix only when the limit
    is below those colors' bits."""
    t = from_rational(f)
    found = _propagate(t)
    assert found is not None and found[2] == 2
    record = coloring_record(t)
    assert record.fraction == f
    assert (record.det_numerator, record.det_denominator) == (abs(f.num), f.den)
    in_use = (t.crossing_count + 2) * 2 * width
    monkeypatch.setattr(quandle, "_PACKED_BITS", in_use)
    assert _propagate(t) == found
    monkeypatch.setattr(quandle, "_PACKED_BITS", in_use - 1)
    assert _propagate(t) is None


def test_record_of_a_long_sum_takes_the_whole_matrix():
    """A sum of 30 rationals needs a seed for each summand, more than
    propagation takes on; the record then eliminates the whole relation
    matrix, with the same answers."""
    t = from_expression(parse_expr(" + ".join(["1/3", "-2/5", "3/7"] * 10)))
    assert _propagate(t) is None
    for u in variants(t):
        assert_record_matches(u, bareiss=False)
    assert coloring_record(t).fraction == frac_normalize(10 * (35 - 42 + 45), 105)
