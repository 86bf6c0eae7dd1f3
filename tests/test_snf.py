import itertools
import random

from hypothesis import given, settings, strategies as st

from tanglekit.snf import integer_determinant, smith_normal_form

from conftest import sparse
from oracles import check_smith_form


small_matrix = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-6, 6), min_size=c, max_size=c),
            min_size=r, max_size=r)))


@settings(max_examples=150, deadline=None)
@given(small_matrix)
def test_snf_decomposition(a):
    sf = smith_normal_form(sparse(a), len(a[0]))
    check_smith_form(a, sf)
    for d1, d2 in zip(sf.factors, sf.factors[1:]):
        assert d1 > 0 and d2 % d1 == 0


@settings(max_examples=100, deadline=None)
@given(small_matrix)
def test_kernel_basis_annihilates(a):
    sf = smith_normal_form(sparse(a), len(a[0]))
    for vec in sf.kernel_basis():
        for row in a:
            assert sum(x * y for x, y in zip(row, vec)) == 0


@settings(max_examples=60, deadline=None)
@given(small_matrix, st.integers(2, 6))
def test_solutions_mod_counts(a, n):
    cols = len(a[0])
    if n ** cols > 4000:
        return
    sf = smith_normal_form(sparse(a), cols)
    brute = 0
    for vec in itertools.product(range(n), repeat=cols):
        if all(sum(r * v for r, v in zip(row, vec)) % n == 0 for row in a):
            brute += 1
    assert sf.solutions_mod(n) == brute


def test_golden_diagonal():
    sf = smith_normal_form(sparse([[2, 0], [0, 3]]), 2)
    assert sf.factors == [1, 6]


def test_empty_and_zero():
    assert smith_normal_form([], 0).factors == []
    assert smith_normal_form(sparse([[0, 0]]), 2).rank == 0


def test_integer_determinant_matches_permutation_expansion():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        brute = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            seen = [False] * n
            # sign via cycle decomposition
            p = list(perm)
            for i in range(n):
                if not seen[i]:
                    j, clen = i, 0
                    while not seen[j]:
                        seen[j] = True
                        j = p[j]
                        clen += 1
                    if clen % 2 == 0:
                        sign = -sign
            term = sign
            for i in range(n):
                term *= m[i][perm[i]]
            brute += term
        assert integer_determinant(sparse(m), n) == abs(brute)
