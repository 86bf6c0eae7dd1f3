"""The sparse Smith normal form and determinant against the dense oracles."""

import itertools
import random

import pytest

from tanglekit import snf
from tanglekit.diagram import TangleDiagram, close_denominator, close_numerator
from tanglekit.fraction import frac_normalize
from tanglekit.quandle import (
    boundary_arcs,
    color_solve_dihedral,
    coloring_fraction,
    coloring_record,
    determinant,
    dihedral_relation_matrix,
)
from tanglekit.diagram import from_rational
from tanglekit.snf import integer_determinant, smith_normal_form

from conftest import dense, montesinos_sum, random_tangle_diagram, sparse
from oracles import (
    bareiss_determinant,
    c_constrained_matrix,
    check_smith_form,
    dense_smith_normal_form,
)


def assert_matches_oracle(a):
    sf = smith_normal_form(sparse(a), len(a[0]))
    check_smith_form(a, sf)
    assert all(f > 0 for f in sf.factors)
    assert all(d2 % d1 == 0 for d1, d2 in zip(sf.factors, sf.factors[1:]))
    if len(a) == len(a[0]):
        assert integer_determinant(sparse(a), len(a)) == bareiss_determinant(a), a


def coloring_shaped(rng, rows, cols):
    """One 2 and two -1 per row, in distinct columns."""
    a = []
    for _ in range(rows):
        row = [0] * cols
        over, x, y = rng.sample(range(cols), 3)
        row[over], row[x], row[y] = 2, -1, -1
        a.append(row)
    return a


def no_units(rng, rows, cols):
    """About three nonzeros per row, none of them a unit."""
    a = []
    for _ in range(rows):
        row = [0] * cols
        for j in rng.sample(range(cols), min(3, cols)):
            row[j] = rng.choice((2, -2, 3, -3, 4, 6, -9, 10))
        a.append(row)
    return a


@pytest.mark.parametrize("shape", [coloring_shaped, no_units])
def test_random_sparse_matrices(shape):
    rng = random.Random(f"snf/{shape.__name__}")
    for _ in range(60):
        n = rng.randint(3, 40)
        m = n if rng.random() < 0.5 else rng.randint(3, 40)
        assert_matches_oracle(shape(rng, n, m))


@pytest.mark.parametrize("shape", [coloring_shaped, no_units])
def test_lifted_rows_come_back_times_v(shape):
    """Rows w handed in as ``lift`` come back as the rows of w @ v, with
    the factors, pivots and kept columns of the full transform."""
    rng = random.Random(f"snf/lift/{shape.__name__}")
    for _ in range(40):
        n, m = rng.randint(3, 20), rng.randint(3, 20)
        a = shape(rng, n, m)
        w = [{j: rng.choice((-3, -1, 1, 2, 5)) for j in rng.sample(range(m), 3)}
             for _ in range(4)]
        full = smith_normal_form(sparse(a), m)
        lifted = smith_normal_form(sparse(a), m, lift=w)
        assert (lifted.factors, lifted.rank, lifted.cols) == (full.factors, full.rank, m)
        assert lifted.kept == frozenset(range(4))
        for col, whole in zip(lifted.v, full.v):
            assert (col is None) == (whole is None)
            if col is not None:
                assert col == {i: x for i, row in enumerate(w)
                               if (x := sum(c * whole.get(j, 0) for j, c in row.items()))}


def test_non_unit_and_divisibility_paths_run(monkeypatch):
    """The no-unit matrices reach a non-unit pivot with an entry it does
    not divide, so the divisibility repair is checked above."""
    offenders = []
    original = snf._Elimination.not_divisible

    def recording(self, r, p):
        found = original(self, r, p)
        offenders.append(found)
        return found

    monkeypatch.setattr(snf._Elimination, "not_divisible", recording)
    rng = random.Random("snf/no_units")
    for _ in range(10):
        n = rng.randint(3, 40)
        m = n if rng.random() < 0.5 else rng.randint(3, 40)
        smith_normal_form(sparse(no_units(rng, n, m)), m)
    assert any(x is None for x in offenders)
    assert any(x is not None for x in offenders)


def test_parking_never_changes_a_pivot(monkeypatch):
    """A parked row goes back to the scan before any step changes it or
    a column it meets, so parking every row the search passes gives the
    factors, transforms and determinants of parking none."""
    rng = random.Random("snf/parking")
    mats = []
    for _ in range(40):
        n = rng.randint(3, 40)
        m = n if rng.random() < 0.5 else rng.randint(3, 40)
        mats += [coloring_shaped(rng, n, m), no_units(rng, n, m)]
    for _ in range(40):
        mats += diagram_matrices(random_tangle_diagram(rng))

    def run():
        out = []
        for a in mats:
            sf = smith_normal_form(sparse(a), len(a[0]))
            det = integer_determinant(sparse(a), len(a)) if len(a) == len(a[0]) else None
            out.append((sf.factors, sf.v, det))
        return out

    monkeypatch.setattr(snf, "_PARK_AFTER", len(max(mats, key=len)))
    never = run()
    monkeypatch.setattr(snf, "_PARK_AFTER", 0)
    assert run() == never


def diagram_matrices(d):
    """The plain and c-constrained relation matrices of a tangle and the
    closure minors its determinants are taken of."""
    rows, _, ncols = dihedral_relation_matrix(d)
    out = [dense(rows, ncols), dense(*c_constrained_matrix(d))]
    for link in (close_numerator(d), close_denominator(d)):
        rows, _, ncols = dihedral_relation_matrix(link)
        if rows and ncols == len(rows):
            out.append([row[1:] for row in dense(rows, ncols)[1:]])
    return [a for a in out if a and a[0]]


def test_catalog_matrices(catalog_entries):
    for e in catalog_entries:
        for a in diagram_matrices(e.diagram):
            assert_matches_oracle(a)


def test_random_diagram_matrices():
    rng = random.Random(11)
    for _ in range(40):
        for a in diagram_matrices(random_tangle_diagram(rng)):
            assert_matches_oracle(a)


def test_sparse_rows_as_dense_input(catalog_entries):
    """The relation rows eliminate to the same factors without a column
    transform as with it, and the square relation rows of a closure, row 0
    replaced by the unit row e_0, give the determinant of their dense
    matrix: the (0, 0) cofactor, which is not always 0 as the full
    determinant is."""
    def plain(d):
        rows, _, ncols = dihedral_relation_matrix(d)
        return rows, ncols

    rng = random.Random(17)
    tangles = ([e.diagram for e in catalog_entries]
               + [random_tangle_diagram(rng) for _ in range(20)])
    nonzero = 0
    for d in tangles:
        # the elimination uses sparse rows as working storage: build afresh
        for build in (plain, c_constrained_matrix):
            sf = smith_normal_form(*build(d))
            lean = smith_normal_form(*build(d), v_rows=())
            assert lean.v is None and lean.factors == sf.factors
        for link in (close_numerator(d), close_denominator(d)):
            rows, ncols = plain(link)
            if rows and ncols == len(rows):
                rows[0] = {0: 1}
                expect = bareiss_determinant(dense(rows, ncols))
                assert integer_determinant(rows, ncols) == expect
                nonzero += expect != 0
    assert nonzero > 40


def test_determinant_every_minor(catalog_entries):
    """quandle.determinant builds each first minor sparse, renumbering the
    columns past the dropped one; every minor must match the oracle."""
    rng = random.Random(19)
    tangles = ([e.diagram for e in catalog_entries]
               + [random_tangle_diagram(rng) for _ in range(20)])
    checked = 0
    for d in tangles:
        for link in (close_numerator(d), close_denominator(d)):
            rows, _, ncols = dihedral_relation_matrix(link)
            k = link.crossing_count
            if link.loops or k == 0 or ncols != k:
                continue
            a = dense(rows, ncols)
            for dr in range(k):
                for dc in range(k):
                    minor = [[x for j, x in enumerate(row) if j != dc]
                             for i, row in enumerate(a) if i != dr]
                    assert determinant(link, dr, dc) == abs(bareiss_determinant(minor))
                    checked += 1
    assert checked > 1000


def lattice_diagrams(catalog_entries):
    rng = random.Random(13)
    return ([e.diagram for e in catalog_entries]
            + [random_tangle_diagram(rng) for _ in range(20)])


def test_kernel_basis_is_the_whole_lattice(catalog_entries):
    """The integer basis annihilates the relations, has rank equal to the
    nullity and is saturated (all its invariant factors are 1), so it
    spans the same lattice as any other basis, the oracle's included."""
    for d in lattice_diagrams(catalog_entries):
        rows, _, ncols = dihedral_relation_matrix(d)
        rows = dense(rows, ncols)
        basis = color_solve_dihedral(d, 0).basis
        for vec in basis:
            assert all(sum(r * x for r, x in zip(row, vec)) == 0 for row in rows)
        nullity = ncols - dense_smith_normal_form(rows).rank
        assert len(basis) == nullity
        sf = dense_smith_normal_form(basis)
        assert sf.rank == nullity and set(sf.factors) == {1}


def span_size(generators, n, dim):
    """Size of the subgroup of (Z/n)^dim the generators span."""
    seen = {(0,) * dim}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = tuple((a + b) % n for a, b in zip(x, g))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def test_mod_n_generators_span_count(catalog_entries):
    checked = 0
    for d in lattice_diagrams(catalog_entries):
        for n in (2, 3, 5, 6):
            lat = color_solve_dihedral(d, n)
            if lat.count > 5000:
                continue
            assert span_size(lat.generators, n, lat.arc_count) == lat.count
            checked += 1
    assert checked >= 100


def test_determinant_edge_cases():
    assert integer_determinant([], 0) == 1
    assert integer_determinant(sparse([[0]]), 1) == 0
    assert integer_determinant(sparse([[-7]]), 1) == -7
    assert integer_determinant(sparse([[0, 1], [1, 0]]), 2) == -1
    assert integer_determinant(sparse([[2, 4], [1, 2]]), 2) == 0
    for perm in itertools.permutations(range(4)):
        a = [[1 if perm[i] == j else 0 for j in range(4)] for i in range(4)]
        assert integer_determinant(sparse(a), 4) == bareiss_determinant(a)


def seeded_tangles():
    """300 small tangles and 200 Montesinos sums of 20-50 crossings."""
    rng = random.Random(1212)
    return ([random_tangle_diagram(rng) for _ in range(300)]
            + [montesinos_sum(rng) for _ in range(200)])


def test_coloring_pass_on_seeded_tangles():
    """The column transform kept on the boundary arcs alone equals the
    full transform on those rows, so the coloring fraction read from it
    is the full lattice's; the factors are the dense oracle's and every
    closure's first minor has the Bareiss determinant, both on the direct
    path (a closure of a copy without a coloring record) and as carried
    from the tangle's record."""
    minors = 0
    for t in seeded_tangles():
        rows, arc_of, ncols = dihedral_relation_matrix(t)
        a = dense(rows, ncols)
        full = smith_normal_form(rows, ncols)
        keep = sorted(set(boundary_arcs(t, arc_of)))
        part = smith_normal_form(dihedral_relation_matrix(t)[0], ncols,
                                 lift=[{p: 1} for p in keep])
        assert part.factors == full.factors == dense_smith_normal_form(a).factors
        assert part.kept == set(range(len(keep))) and full.kept is None
        assert [col is None for col in part.v] == [col is None for col in full.v]
        assert all(col is None or part_col == {i: col[p] for i, p in enumerate(keep) if p in col}
                   for part_col, col in zip(part.v, full.v))
        assert coloring_fraction(t) == color_solve_dihedral(t, 0).coloring_fraction()
        bare = TangleDiagram(t.crossings, t.boundary, t.loops)
        for close in (close_numerator, close_denominator):
            link, carried = close(bare), close(t)
            assert link._determinant is None and carried._determinant is not None
            assert determinant(carried) == determinant(link)
            rows, _, n = dihedral_relation_matrix(link)
            if link.loops or n != link.crossing_count:
                continue
            minor = [row[1:] for row in dense(rows, n)[1:]]
            expect = bareiss_determinant(minor)
            assert integer_determinant(sparse(minor), n - 1) == expect
            assert determinant(link) == determinant(carried) == abs(expect)
            minors += 1
    assert minors > 900


def test_partial_transform_gives_no_kernel_basis():
    a = [[2, -1, -1, 0], [0, 2, -1, -1]]
    rows_0_3 = smith_normal_form(sparse(a), 4, lift=[{0: 1}, {3: 1}])
    for sf, missing in ((smith_normal_form(sparse(a), 4, ()), 1), (rows_0_3, 2)):
        assert sf.factors == [1, 1]
        with pytest.raises(ValueError, match="kept only some rows"):
            sf.kernel_basis()
        with pytest.raises(ValueError, match="kept only some rows"):
            sf.kernel_basis_mod(3)
        with pytest.raises(ValueError, match=f"row {missing} of the column transform was not kept"):
            sf.kernel_row(missing)
    with pytest.raises(ValueError, match="lifting unit rows"):
        smith_normal_form(sparse(a), 4, [0, 3])
    full = smith_normal_form(sparse(a), 4)
    assert rows_0_3.kernel_row(1) == full.kernel_row(3)
    assert full.kernel_row(3) == [full.v[2][3], full.v[3][3]]
    assert coloring_record(from_rational(frac_normalize(3, 5))).fraction == frac_normalize(3, 5)
