"""Slow reference implementations that the fast library paths are tested
against."""

from tanglekit.diagram import LinkDiagram, TangleDiagram, tangle_sum
from tanglekit.fraction import frac_add
from tanglekit.laurent import LaurentPoly
from tanglekit.quandle import NotInvariant, _c_constrained_matrix, coloring_fraction
from tanglekit.snf import SmithForm, smith_normal_form


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def state_sum_bracket(d: LinkDiagram) -> LaurentPoly:
    """Kauffman bracket as the plain sum over all 2^k smoothings.

    Each state smooths crossing i by A (slots 0-1, 2-3) or B (slots 0-3,
    1-2) and counts its circles with a union-find over the edges.
    """
    k = d.crossing_count
    if k == 0 and d.loops == 0:
        raise ValueError("bracket of the empty diagram is undefined")

    a_pairs = []
    b_pairs = []
    for c in d.crossings:
        p = c.ports
        a_pairs.append(((p[0], p[1]), (p[2], p[3])))
        b_pairs.append(((p[0], p[3]), (p[1], p[2])))

    edges = sorted({e for c in d.crossings for e in c.ports})
    index = {e: i for i, e in enumerate(edges)}
    ne = len(edges)
    delta = LaurentPoly.make("A", {2: -1, -2: -1})

    # Group states by (a - b, loop count): exponents of A and delta.
    tally: dict[tuple[int, int], int] = {}
    for state in range(1 << k):
        parent = list(range(ne))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        a_count = 0
        for ci in range(k):
            if state >> ci & 1:
                pairs = b_pairs[ci]
            else:
                pairs = a_pairs[ci]
                a_count += 1
            for u, v in pairs:
                ru, rv = find(index[u]), find(index[v])
                if ru != rv:
                    parent[ru] = rv
        circles = len({find(i) for i in range(ne)}) + d.loops
        key = (2 * a_count - k, circles)
        tally[key] = tally.get(key, 0) + 1

    total = LaurentPoly.zero("A")
    for (a_exp, circles), mult in tally.items():
        term = (delta ** (circles - 1)).shift(a_exp).scale(mult)
        total = total + term
    return total


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def dense_smith_normal_form(a: list[list[int]]) -> SmithForm:
    """Smith normal form by dense row and column reduction, pivoting on the
    entry of smallest magnitude in the whole trailing block.

    The row transform u is tracked too, and u @ a @ v is checked to be the
    diagonal of the factors before the form is returned without it."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [list(r) for r in a]
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, k):
        # row dst += k * row src
        m[dst] = [x + k * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, k):
        for r in m:
            r[dst] += k * r[src]
        for r in v:
            r[dst] += k * r[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # Locate the nonzero entry of smallest magnitude in the trailing block.
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        # Clear the pivot row and column; restart if a smaller remainder shows up.
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t] != 0:
                add_row(t, i, -(m[i][t] // m[t][t]))
                if m[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if m[t][j] != 0:
                add_col(t, j, -(m[t][j] // m[t][t]))
                if m[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # Pivot must divide every remaining entry for the factor chain.
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if m[t][t] < 0:
            negate_row(t)
        t += 1

    factors = [m[i][i] for i in range(limit) if m[i][i] != 0]
    assert mat_mul(mat_mul(u, a), v) == m
    assert all(m[i][j] == 0 for i in range(rows) for j in range(cols)
               if i != j or i >= len(factors))
    return SmithForm(factors=factors, rank=len(factors), v=v, rows=rows, cols=cols)


def check_smith_form(a: list[list[int]], sf: SmithForm):
    """Assert what a Smith form of a must satisfy without its row transform:
    the oracle's factors and rank, a unimodular v, a @ v zero past the rank
    and its column j < rank divisible by d_j."""
    oracle = dense_smith_normal_form(a)
    assert sf.factors == oracle.factors and sf.rank == oracle.rank, a
    assert abs(bareiss_determinant(sf.v)) == 1, a
    if not a or not a[0]:
        return
    av = mat_mul(a, sf.v)
    for row in av:
        assert all(x == 0 for x in row[sf.rank:]), a
        assert all(x % d == 0 for x, d in zip(row, sf.factors)), a


def bareiss_determinant(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss fraction-free
    elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(r) for r in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def has_nontrivial_c_coloring(d: TangleDiagram, n: int) -> bool:
    """Is there a mod-n c-coloring using more than one color (n >= 2)?"""
    rows, ncols = _c_constrained_matrix(d)
    return smith_normal_form(rows, ncols, transforms=False).solutions_mod(n) > n


def alternating_sum_check(colors: tuple[int, int, int, int]) -> bool:
    """NW + SE = NE + SW for boundary colors (a, b, c, d) of a coloring."""
    a, b, c, d = colors
    return a + d == b + c


def fraction_additivity_check(d1: TangleDiagram, d2: TangleDiagram) -> bool:
    """fraction(d1 + d2) = fraction(d1) + fraction(d2) where all defined.

    Infinite fractions follow the degenerate branch: inf plus a finite
    fraction is inf.  Returns True when the law holds or when one of the
    three fractions is not invariant (nothing to check).
    """
    f1 = coloring_fraction(d1)
    f2 = coloring_fraction(d2)
    fs = coloring_fraction(tangle_sum(d1, d2))
    if any(isinstance(x, NotInvariant) for x in (f1, f2, fs)):
        return True
    if f1.is_infinite and f2.is_infinite:
        return True
    return fs == frac_add(f1, f2)
