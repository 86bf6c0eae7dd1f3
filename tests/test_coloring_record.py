"""The coloring record: colors by propagation and one Smith form of the
leftover relations for the all-moduli report, the coloring fraction and
both closure determinants, against the full-matrix Smith form, the
separate eliminations and the dense oracles; and link determinants by
the same propagation, against Bareiss and the Jones polynomial at -1."""

import random
from collections import Counter
from fractions import Fraction as QQ
from math import gcd

import pytest

from tanglekit import diagram
from tanglekit.bracket import jones
from tanglekit.diagram import (
    _NE,
    _NW,
    _SE,
    _SW,
    TangleDiagram,
    _ends,
    close_denominator,
    close_numerator,
    component_count,
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
    _boundary_answers,
    _paint,
    _propagate,
    coloring_fraction,
    coloring_record,
    determinant,
    dihedral_relation_matrix,
    monochromatic_report,
)
from tanglekit.snf import SmithForm, dense_smith_form, smith_normal_form

from conftest import (
    add_kink,
    cut_tangles,
    dense,
    fibonacci,
    montesinos_sum,
    r2_pair_closure,
    random_fraction,
    random_tangle_diagram,
    sparse,
)
from oracles import (
    bareiss_determinant,
    disjoint_union,
    jones_at_minus_one,
    quotient_determinant,
    whole_matrix_fraction,
)


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
    report = MonochromaticReport(smith_normal_form(rows, ncols))
    fraction = whole_matrix_fraction(direct)
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
    to 50 crossings, that passes ``validate``, as every input of the
    coloring benchmark does; returned record-free and with no ends
    built."""
    while True:
        terms = []
        for _ in range(rng.randint(2, 5)):
            q = rng.randint(2, 40)
            p = rng.choice([p for p in range(-40, 41) if gcd(p, q) == 1])
            terms.append(from_rational(frac_normalize(p, q)))
        t = tangle_sum(*terms)
        if 20 <= t.crossing_count <= 50 and validate(t) is None:
            return fresh(t)


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
        t = from_expression(parse_expr(f"({a} + {b}) * {c}"))
        err = validate(t)
        if err is not None:
            # a + b already has a closed component; one turn fixes any other
            assert err == validate(top) == "closed component in tangle"
            continue
        assert t != naive
        seen += 1
        for u in variants(t):
            assert_record_matches(u, bareiss=seen % 3 == 0)


@pytest.mark.parametrize("n", [10, 60, 88, 89, 90, 120, 200, 320])
def test_record_on_fibonacci_tangles(n):
    """F_n/F_(n+1) has the twist vector 1, 1, ..., 1, so its colors grow
    like the golden ratio to the crossing count: past about 88 crossings
    a coefficient outgrows 64 bits, and the field width must double."""
    t = from_rational(frac_normalize(fibonacci(n), fibonacci(n + 1)))
    k = t.crossing_count
    assert (_paint(_ends(t), 4 * k, 64) is None) == (k > 88)
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


@pytest.mark.parametrize("text", [" + ".join(["1/3"] * 19 + ["inf"]),
                                  " + ".join(["inf"] + ["1/3"] * 19)])
def test_long_sum_with_two_ends_on_one_arc(text):
    """Past the seed cap, a sum with inf at one end has two boundary ends
    on one arc (NE and SE when inf is last), so a row of the boundary
    line lifted through the whole matrix can be empty; the record still
    matches the separate eliminations in every variant."""
    t = from_expression(parse_expr(text))
    assert _propagate(t) is None
    for u in variants(t):
        assert_record_matches(u, bareiss=False)
    record = coloring_record(t)
    assert record.fraction.is_infinite
    assert (record.det_numerator, record.det_denominator) == (3 ** 19, 0)


def test_coloring_op_builds_the_ends_once(monkeypatch):
    """The coloring benchmark's op (validate, report, fraction and both
    closure determinants) builds the tangle's ends in validate, and the
    record's propagation and both closures read them from the tangle."""
    rng = random.Random(1801)
    tangles = [benchmark_shaped_sum(rng) for _ in range(40)]
    builds, calls = [], []
    build = diagram._ends

    def counted(d):
        calls.append(d)
        if isinstance(d, TangleDiagram) and d._mate is None:
            builds.append(d)
        return build(d)

    monkeypatch.setattr(diagram, "_ends", counted)
    monkeypatch.setattr(quandle, "_ends", counted)
    for t in tangles:
        del builds[:], calls[:]
        assert validate(t) is None
        monochromatic_report(t).polychromatic_somewhere()
        coloring_fraction(t)
        determinant(close_numerator(t)), determinant(close_denominator(t))
        assert [d is t for d in builds] == [True] and [d is t for d in calls] == [True] * 4


NUMERATOR, DENOMINATOR = ((_NW, _NE), (_SW, _SE)), ((_NW, _SW), (_NE, _SE))
# e_NW - e_NE - e_SW + e_SE, zero in the cokernel of every tangle's
# relation matrix (see the quandle module docstring)
SUM_RULE = {_NW: 1, _NE: -1, _SW: -1, _SE: 1}


def class_is_zero(smith: SmithForm, row: dict[int, int]) -> bool:
    """The sum of row[i] times kept row i of v is zero in the cokernel:
    its entry is 0 on every free column and a multiple of the factor on
    every column of a factor above 1."""
    for j, col in enumerate(smith.v):
        if col is not None:
            x = sum(c * col.get(i, 0) for i, c in row.items())
            if x % smith.factors[j] if j < smith.rank else x:
                return False
    return True


def test_the_boundary_sum_rule_holds_in_the_cokernel(tool, catalog_entries):
    """e_NW - e_NE - e_SW + e_SE, the entries of ends on one arc added
    up, lifted through the Smith form of the whole relation matrix, is
    zero in its cokernel: the one fact the record's closure determinants
    rest on.  On the eight rotations and mirrors of each catalog entry,
    random tangles, Montesinos sums and cut tangles of 5-8 crossings,
    each that passes ``validate``."""
    tangles = []
    for e in catalog_entries:
        for t in (e.diagram, mirror(e.diagram)):
            for _ in range(4):
                tangles.append(t)
                t = rotate(t)
    rng = random.Random(2901)
    tangles += [random_tangle_diagram(rng) for _ in range(300)]
    tangles += [montesinos_sum(rng) for _ in range(100)]
    tangles += cut_tangles(tool, rng, 150, 5, 8)
    checked = 0
    for t in tangles:
        if validate(t) is not None:
            continue
        rows, arc_of, ncols = dihedral_relation_matrix(t)
        rule = Counter()
        for end, e in enumerate(t.boundary):
            rule[arc_of[e]] += SUM_RULE[end]
        smith = smith_normal_form(rows, ncols, lift=[{j: x for j, x in rule.items() if x}])
        assert class_is_zero(smith, {0: 1}), t
        checked += 1
    assert checked >= 600, checked


def closure_shape(smith: SmithForm) -> str:
    rank = smith.rank
    cols = [j for j, col in enumerate(smith.v) if col is not None]
    if cols == [rank, rank + 1]:
        return "free"
    if len(cols) == 3 and cols[1:] == [rank, rank + 1]:
        return "torsion"
    return "other"


def record_answers(smith: SmithForm):
    """What the record reads of its Smith form, kept on the boundary line."""
    return (smith.factors, smith.rank, report_fields(MonochromaticReport(smith)),
            *_boundary_answers(smith))


def boundary_line(ends: list[list[int]]) -> list[list[int]]:
    """The rows NE - NW and NE - SE of the boundary ends' colors."""
    nw, ne, _, se = ends
    return [[b - a for a, b in zip(end, ne)] for end in (nw, se)]


def test_dense_form_matches_the_sparse_form_on_records(catalog_entries):
    """The dense Smith form of the propagated leftovers against the sparse
    form of the same rows, both lifting the boundary line: the same
    factors and rank, report, fraction and closure determinants, on 1,500
    coloring-benchmark-shaped sums, each plain, mirrored and rotated, and
    on the catalog."""
    rng = random.Random(1901)
    tangles = [u for _ in range(1500) for u in variants(benchmark_shaped_sum(rng))]
    tangles += [e.diagram for e in catalog_entries]
    for t in tangles:
        leftovers, ends, seeds = _propagate(t)
        line = boundary_line(ends)
        sparse_form = smith_normal_form(sparse(leftovers), seeds, lift=sparse(line))
        dense_form = dense_smith_form([row[:] for row in leftovers], seeds, line)
        assert record_answers(dense_form) == record_answers(sparse_form), t


def test_closure_determinants_in_closed_form_match_the_quotient(catalog_entries):
    """The record's determinants, each the torsion times one gcd, against
    the dense Smith form of the two-join quotient, read off a form of the
    same leftovers kept on the four boundary ends, on 1,500
    coloring-benchmark-shaped sums and the catalog: at least 300 with no
    torsion and two free columns, and 300 with one torsion factor."""
    rng = random.Random(1802)
    tangles = [benchmark_shaped_sum(rng) for _ in range(1500)]
    tangles += [e.diagram for e in catalog_entries]
    shapes = {"free": 0, "torsion": 0, "other": 0}
    for t in tangles:
        leftovers, ends, seeds = _propagate(t)
        four = dense_smith_form(leftovers, seeds, ends)
        shapes[closure_shape(four)] += 1
        record = coloring_record(t)
        assert (record.det_numerator, record.det_denominator) == (
            quotient_determinant(four, NUMERATOR), quotient_determinant(four, DENOMINATOR)), t
    assert shapes["torsion"] >= 300 and shapes["free"] >= 300, shapes


def hand_made(f: int, columns: list[dict[int, int]]) -> SmithForm:
    """A Smith form of rank 2 with a unit factor and the factor f, and
    the columns of v for f and two free columns, on the boundary rows."""
    return SmithForm([1, f], 2, [None, *columns], 4, 4)


def line_of(four: SmithForm) -> SmithForm:
    """A Smith form kept on the four boundary rows, kept instead on the
    boundary line NE - NW and NE - SE."""
    v = [col if col is None else
         {i: x for i, x in enumerate((col.get(_NE, 0) - col.get(_NW, 0),
                                      col.get(_NE, 0) - col.get(_SE, 0))) if x}
         for col in four.v]
    return SmithForm(four.factors, four.rank, v, four.cols, 2)


def rule_column(rng: random.Random, f: int) -> dict[int, int]:
    """A column on the boundary rows with small random entries on NE, SW
    and SE, and NW chosen so that NW - NE - SW + SE is a multiple of f,
    0 for a free column (f = 0)."""
    ne, sw, se = (rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(3))
    nw = ne + sw - se + f * rng.randint(-2, 2)
    return {p: x for p, x in zip((_NW, _NE, _SW, _SE), (nw, ne, sw, se)) if x}


@pytest.mark.parametrize("f, columns, line_gcd", [
    # NE - NW is 0 on both free columns: free rank two
    (3, [{}, {_SW: 1, _SE: 1}, {_NW: 1, _NE: 1}], 0),
    # only the torsion column meets the boundary: free rank two
    (3, [{_NW: 3}, {}, {}], 0),
    # NE - NW = (1, 0): Z^3 / <3 e_0, e_0 + e_1> = Z / 3 + Z
    (3, [{_NE: 1, _SE: 1}, {_NE: 1, _SE: 1}, {_SW: 1, _SE: 1}], 1),
    # NE - NW = (6, 12): Z / 3 + Z / 6 + Z
    (3, [{_NW: 1, _NE: 1}, {_NE: 6, _SE: 6}, {_NE: 12, _SE: 12}], 6),
    # a torsion column that keeps the sum rule only mod 3: Z / 9 + Z
    (3, [{_NE: 2, _SW: 1}, {_NE: 3, _SE: 3}, {_NW: -3, _SW: -3}], 3),
])
def test_torsion_closed_form_branches(f, columns, line_gcd):
    """det N(T) is f times the gcd of the line's NE - NW entries on the
    free columns, and det D(T) f times that of its NE - SE entries, as
    the two-join quotient gives them."""
    four = hand_made(f, columns)
    assert closure_shape(four) == "torsion" and class_is_zero(four, SUM_RULE)
    _, det_n, det_d = _boundary_answers(line_of(four))
    assert det_n == quotient_determinant(four, NUMERATOR) == f * line_gcd
    assert det_d == quotient_determinant(four, DENOMINATOR)


def test_torsion_closed_form_on_random_columns():
    """One torsion factor and two free columns with random entries that
    keep the sum rule: the torsion times one gcd against the two-join
    quotient."""
    rng = random.Random(1803)
    seen = {True: 0, False: 0}
    for _ in range(3000):
        f = rng.choice([2, 3, 4, 6, 9])
        four = hand_made(f, [rule_column(rng, f), rule_column(rng, 0), rule_column(rng, 0)])
        _, *dets = _boundary_answers(line_of(four))
        for joins, det in zip((NUMERATOR, DENOMINATOR), dets):
            assert det == quotient_determinant(four, joins), four.v
            seen[det == 0] += 1
    assert min(seen.values()) >= 500, seen


def random_shape(rng: random.Random, t: int, m: int) -> SmithForm:
    """A Smith form kept on the four boundary rows, of a unit factor, t
    torsion factors drawn apart (so they need not divide one another) and
    nullity m, with small random entries that keep the sum rule."""
    factors = [1] + [rng.choice((2, 3, 4, 5, 6, 9, 10)) for _ in range(t)]
    columns = [rule_column(rng, f) for f in factors[1:]]
    columns += [rule_column(rng, 0) for _ in range(m)]
    return SmithForm(factors, t + 1, [None, *columns], t + 1 + m, 4)


def test_closure_determinants_on_random_shapes():
    """The torsion times one gcd against the two-join quotient, for
    t = 0-3 torsion factors, with and without a divisibility chain, and
    nullity m = 2-4: by the sum rule a closure's two joins free at most
    one rank between them, so every m above 2 gives 0."""
    rng = random.Random(2001)
    nonzero, unchained = Counter(), 0
    for _ in range(120):
        for t in range(4):
            for m in range(2, 5):
                four = random_shape(rng, t, m)
                factors = four.factors
                unchained += any(b % a for a, b in zip(factors, factors[1:]))
                _, *dets = _boundary_answers(line_of(four))
                for joins, det in zip((NUMERATOR, DENOMINATOR), dets):
                    assert det == quotient_determinant(four, joins), (factors, four.v)
                    nonzero[t, m] += det != 0
    assert all(nonzero[t, 2] >= 100 for t in range(4)), nonzero
    assert all(nonzero[t, m] == 0 for t in range(4) for m in (3, 4)), nonzero
    assert unchained >= 200, unchained


# ---------------------------------------------------------------------------
# link determinants by propagation

def at_minus_one(link) -> int:
    """|V(-1)|, the Jones polynomial at sqrt_t = i: real for a knot (where
    ``jones_at_minus_one`` reads it) and imaginary for two components."""
    poly = jones(link)
    if component_count(link) == 1:
        return jones_at_minus_one(poly)
    re, im = poly.substitute_gaussian(QQ(0), QQ(1))
    assert re == 0 or im == 0
    return abs(re + im)


def assert_link_determinant(link) -> int:
    """The determinant of a link with none cached, against Bareiss on its
    (0, 0) minor and, up to 16 crossings, against |V(-1)|."""
    assert link._determinant is None
    det = determinant(link)
    assert det == oracle_determinant(link), link
    if link.crossing_count + link.loops <= 16:
        assert det == at_minus_one(link), link
    return det


def test_link_determinant_on_seeded_closures():
    """Both closures of record-free random tangles and Montesinos sums
    take the propagation, and match Bareiss and |V(-1)|."""
    rng = random.Random(2701)
    tangles = [random_tangle_diagram(rng) for _ in range(150)]
    tangles += [montesinos_sum(rng, 6, 40) for _ in range(60)]
    for t in tangles:
        for link in (close_numerator(fresh(t)), close_denominator(fresh(t))):
            if link.crossing_count and not link.loops:
                assert _propagate(link) is not None
            assert_link_determinant(link)


def test_link_determinant_on_catalog_closures(classified, catalog_entries):
    """Every closure classify builds for the catalog, and both closures of
    every entry, record-free."""
    links = [closed.diagram for c in classified.values() for closed in c._closures.values()]
    assert len(links) >= 20
    links += [close(fresh(e.diagram)) for e in catalog_entries
              for close in (close_numerator, close_denominator)]
    for link in links:
        assert_link_determinant(link)


def test_link_determinant_under_reidemeister_moves():
    """Kinks of both handednesses, mirrors and a cancelling clasp pair
    keep the determinant, each computed afresh."""
    rng = random.Random(2702)
    for _ in range(40):
        t = random_tangle_diagram(rng)
        base = close_numerator(fresh(t))
        if not base.crossing_count or base.loops:
            continue
        det = assert_link_determinant(base)
        edges = sorted({e for c in base.crossings for e in c})
        moved = [add_kink(base, rng.choice(edges), variant) for variant in (0, 1)]
        moved += [mirror(base), mirror(moved[0])]
        for link in moved:
            assert validate(link) is None
            assert assert_link_determinant(link) == det
        c = random_fraction(rng, 3, 3)
        plain = close_numerator(tangle_sum(fresh(t), from_rational(c)))
        if not plain.loops:
            clasped = r2_pair_closure(fresh(t), c)
            assert assert_link_determinant(clasped) == assert_link_determinant(plain)


def test_split_links_have_determinant_zero():
    """Distant unions, and a link with a component that passes over at
    every crossing it meets, which lifts off: determinant 0 both ways."""
    rng = random.Random(2703)
    small = [close_numerator(fresh(random_tangle_diagram(rng))) for _ in range(40)]
    small = [link for link in small if link.crossing_count and not link.loops]
    for _ in range(20):
        union = disjoint_union(*rng.sample(small, 2))
        assert validate(union) is None
        assert assert_link_determinant(union) == 0
    # the NW-NE strand of [1] + [-1] passes over both crossings, and the
    # numerator closure closes it into a circle above [1] + [-1] over [3]
    clasp = tangle_sum(horizontal_twists(1), horizontal_twists(-1))
    lifted = close_numerator(tangle_product(clasp, from_rational(frac_normalize(3, 1))))
    assert validate(lifted) is None and component_count(lifted) == 2
    assert dihedral_relation_matrix(lifted)[2] > lifted.crossing_count
    assert assert_link_determinant(lifted) == 0
    assert assert_link_determinant(disjoint_union(lifted, small[0])) == 0


def test_link_determinant_is_a_first_minor_of_the_leftovers(catalog_entries, monkeypatch):
    """On catalog closures, random closures, their kinked variants and
    distant unions, and Montesinos closures, each afresh, the determinant
    read off the leftover relations equals |Bareiss| of a dense first
    minor of the whole matrix.  Some links leave fewer rows than seeds - 1
    (determinant 0), and no link takes a Smith form."""
    rng = random.Random(3303)
    forms = []
    monkeypatch.setattr(quandle, "dense_smith_form", lambda *a: forms.append(a))
    links = [close(fresh(e.diagram)) for e in catalog_entries
             for close in (close_numerator, close_denominator)]
    small = []
    while len(small) < 150:
        t = tangle_sum(random_tangle_diagram(rng), from_rational(random_fraction(rng, 5, 5)))
        link = close_numerator(t)
        if link.crossing_count and not link.loops:
            small.append(link)
    for link in small:
        edge = rng.choice(link.crossings)[rng.randrange(4)]
        links += [link, add_kink(link, edge, rng.randrange(2)),
                  disjoint_union(link, rng.choice(small))]
    for _ in range(40):
        t = montesinos_sum(rng)
        links += [close_numerator(fresh(t)), close_denominator(fresh(t))]
    paths = Counter()
    for link in links:
        det = determinant(link)
        assert det == oracle_determinant(link), link
        if link.crossing_count and not link.loops:
            leftovers, _, seeds = _propagate(link)
            paths[len(leftovers) < seeds - 1, det == 0] += 1
    # fewer rows, a zero minor (mostly distant unions), a nonzero minor
    assert paths[True, True] >= 5 and not paths[True, False]
    assert paths[False, True] >= 100 and paths[False, False] >= 300
    assert not forms


def counted_eliminations(monkeypatch) -> list[int]:
    """A list that gains an entry at each ``integer_determinant`` call."""
    calls = []
    eliminate = quandle.integer_determinant

    def counted(rows, ncols):
        calls.append(ncols)
        return eliminate(rows, ncols)

    monkeypatch.setattr(quandle, "integer_determinant", counted)
    return calls


def test_closure_certificate_colors_the_link(monkeypatch):
    """A closure shaped like the closure benchmark's, 10-14 crossings:
    the component count builds the link's ends, the determinant reads
    them, and no relation matrix is eliminated."""
    rng = random.Random(2704)
    eliminations = counted_eliminations(monkeypatch)
    builds = []
    build = diagram._ends

    def counted(d):
        if d._mate is None:
            builds.append(d)
        return build(d)

    monkeypatch.setattr(diagram, "_ends", counted)
    monkeypatch.setattr(quandle, "_ends", counted)
    checked = 0
    while checked < 60:
        t = tangle_sum(random_tangle_diagram(rng), from_rational(random_fraction(rng, 5, 5)))
        link = close_numerator(t)
        if not 10 <= link.crossing_count <= 14 or link.loops:
            continue
        del builds[:]
        component_count(link)
        det = determinant(link)
        assert builds == [link]
        assert det == oracle_determinant(link)
        checked += 1
    assert eliminations == []


def test_long_mixed_sum_link_takes_the_elimination(monkeypatch):
    """Both closures of a sum of 30 rationals need more seeds than
    propagation takes on, so each eliminates its (0, 0) minor, and agrees
    with the closed forms and the coloring record."""
    eliminations = counted_eliminations(monkeypatch)
    terms = ["1/3", "-2/5", "3/7"] * 10
    t = from_expression(parse_expr(" + ".join(terms)))
    links = (close_numerator(t), close_denominator(t))
    assert all(_propagate(link) is None for link in links)
    dets = [determinant(link) for link in links]
    assert len(eliminations) == 2
    assert dets == [10 * (35 - 42 + 45) * 105 ** 9, 105 ** 10]
    record = coloring_record(t)
    assert dets == [record.det_numerator, record.det_denominator]
