"""The dense Smith form of small matrices against the sparse form and the
dense oracle: the same factors and rank, a column transform that
``check_smith_form`` accepts, lifted rows that come back as w @ v, and
the same report, fraction and closure determinants read from either."""

import random

import pytest

from tanglekit.quandle import MonochromaticReport, _boundary_answers
from tanglekit.snf import SmithForm, dense_smith_form, smith_normal_form

from conftest import sparse
from oracles import check_smith_form, identity, mat_mul


def record_answers(smith: SmithForm):
    """What a coloring record reads of a Smith form kept on the two rows
    of a boundary line (the report's primes, factored from the factors
    above 1 on first read, are left out: the factors of a random matrix
    can be too large to factor)."""
    report = MonochromaticReport(smith)
    return (smith.factors, smith.rank, report.all_moduli, report.r0_monochromatic,
            report.c_trivial_for_all_n, report.polychromatic_somewhere(),
            *_boundary_answers(smith))


def assert_dense_matches(a: list[list[int]], ncols: int, rng: random.Random):
    w = [[rng.randint(-5, 5) if rng.random() < 0.6 else 0 for _ in range(ncols)]
         for _ in range(2)]
    lifted = dense_smith_form([row[:] for row in a], ncols, [row[:] for row in w])
    reference = smith_normal_form(sparse(a), ncols, lift=sparse(w))
    assert (lifted.factors, lifted.rank, lifted.cols, lifted.lifted) == (
        reference.factors, reference.rank, ncols, 2), a
    assert record_answers(lifted) == record_answers(reference), a
    # the whole transform, lifted on the unit rows by default, is a valid v ...
    full = dense_smith_form([row[:] for row in a], ncols)
    check_smith_form(a, full)
    # ... and the rows lifted above are w @ v
    for col, whole in zip(lifted.v, full.v):
        assert (col is None) == (whole is None), a
        if col is not None:
            assert col == {i: x for i, row in enumerate(w)
                           if (x := sum(c * whole.get(j, 0) for j, c in enumerate(row)))}, a


def unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A random n x n unimodular matrix: row additions, swaps and signs."""
    u = identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            k = rng.randint(-4, 4)
            u[i] = [x + k * y for x, y in zip(u[i], u[j])]
            if rng.random() < 0.2:
                u[i], u[j] = u[j], u[i]
        elif rng.random() < 0.3:
            u[i] = [-x for x in u[i]]
    return u


def hidden_chain(rng: random.Random, m: int, n: int) -> list[list[int]]:
    """U @ D @ V for unimodular U and V and a diagonal D such as
    diag(2, 4, 0), so that the divisibility chain is hidden."""
    chains = [[2, 4, 0], [3, 6, 12], [2, 2, 6, 0, 0], [1, 5, 10], [6, 4, 9],
              [4, 6], [12, 18, 8, 0]]
    diag = rng.choice(chains)[:min(m, n)]
    d = [[diag[i] if i == j and i < len(diag) else 0 for j in range(n)] for i in range(m)]
    return mat_mul(mat_mul(unimodular(rng, m), d), unimodular(rng, n))


def large_entries(rng: random.Random, m: int, n: int) -> list[list[int]]:
    """Entries up to 10^6 in magnitude, about half of them zero, and now
    and then a zero row."""
    return [[0] * n if rng.random() < 0.1 else
            [rng.randint(-10 ** 6, 10 ** 6) if rng.random() < 0.5 else 0 for _ in range(n)]
            for _ in range(m)]


def low_rank(rng: random.Random, m: int, n: int) -> list[list[int]]:
    """A product m x r times r x n with r below n - 2: nullity above 2."""
    r = rng.randint(0, max(0, min(m, n - 3)))
    left = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(m)]
    right = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] if r else [0] * n
            for row in left]


def leftover_shaped(rng: random.Random, m: int, n: int) -> list[list[int]]:
    """Dense rows of large entries over n columns, about n - 2 of them,
    as propagation leaves them."""
    return [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)] for _ in range(max(0, n - 2))]


@pytest.mark.parametrize("shape", [hidden_chain, large_entries, low_rank, leftover_shaped])
def test_dense_form_on_random_matrices(shape):
    rng = random.Random(f"snf/dense/{shape.__name__}")
    for _ in range(120):
        n = rng.randint(1, 16)
        m = rng.randint(0, 14)
        assert_dense_matches(shape(rng, m, n), n, rng)


@pytest.mark.parametrize("a, ncols, factors", [
    ([], 3, []),
    ([[0, 0, 0], [0, 0, 0]], 3, []),
    ([[2, 0, 0], [0, 4, 0], [0, 0, 0]], 3, [2, 4]),
    ([[4, 0], [0, 6]], 2, [2, 12]),
    ([[6, 10, 15]], 3, [1]),
    ([[1302816, -868544], [-434272, 1]], 2, [1, 1302816 - 868544 * 434272]),
])
def test_dense_form_edge_cases(a, ncols, factors):
    assert dense_smith_form([row[:] for row in a], ncols, identity(ncols)).factors == [
        abs(f) for f in factors]
    assert_dense_matches(a, ncols, random.Random(ncols))
