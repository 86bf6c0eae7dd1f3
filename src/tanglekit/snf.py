"""Smith normal form and determinants of sparse integer matrices.

One elimination core with three consumers in :mod:`tanglekit.quandle`:
integer coloring lattices, all-moduli monochromaticity reports, and link
determinants.  Their matrices are dihedral relation matrices, one row per
crossing with three nonzeros (2, -1, -1), so nearly every row has a unit
entry and a diagram of k crossings gives about k rows with 3k nonzeros.
Rows are ``{column: value}`` dicts with a column -> rows index, and a
pivot step touches only the rows that meet its column and the columns
that meet its row.  :mod:`tanglekit.quandle` builds its rows in this form
and hands them over as they are; a dense matrix (a list of rows) is
converted on entry.

Pivots follow Markowitz (Management Science 1957): a unit entry whenever
one exists, taken early once its cost (other nonzeros in its row times
other nonzeros in its column) is at most that of a row and a column of
three, so that elimination fills in little; otherwise the entry of
smallest magnitude.  A unit pivot clears its column and row exactly.  A
larger pivot is reduced Euclid-style until it is alone in its row and
column, and must then divide every remaining entry; if some entry is not
a multiple, its column is added to the pivot column and the reduction
goes on with a smaller pivot.  Every later entry is then a multiple of
the pivot, so the pivots come out as the divisibility chain of invariant
factors (the argument of Kannan and Bachem, SIAM J. Comput. 1979).

Only the column operations are recorded, in the column transform ``v``,
and only when asked for: its last columns span the integer kernel, which
the coloring lattices need.  Nothing reads the row transform, so it is
not kept; the all-moduli report needs the factors alone and records no
transform at all.

The determinant runs the same core with row operations only: each pivot
clears its column from the rows not yet pivoted, which leaves the matrix
triangular up to a permutation of rows and columns, so the determinant
is the product of the pivots times the sign of that permutation.  Every
operation adds an integer multiple of one row (or column) to another, so
all arithmetic is exact in the integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class SmithForm:
    """u @ a @ v = diag(d_1, ..., d_r, 0, ...) for some unimodular u and v.

    ``factors`` are the nonzero diagonal entries d_1 | d_2 | ... | d_r
    (the invariant factors) and ``rank`` is r.  Only ``v`` is kept: column
    j < r of a @ v is d_j times column j of u^-1, and the last
    cols - rank columns of a @ v are zero.  ``v`` is None when the form
    was computed without transforms.
    """

    factors: list[int]
    rank: int
    v: list[list[int]] | None
    rows: int
    cols: int

    def kernel_basis(self) -> list[list[int]]:
        """Basis of the integer kernel of a: the last cols - rank columns of v."""
        return [[self.v[i][j] for i in range(self.cols)] for j in range(self.rank, self.cols)]

    def solutions_mod(self, n: int) -> int:
        """Number of solutions of a x = 0 (mod n), n >= 1."""
        if n < 1:
            raise ValueError("modulus must be >= 1")
        count = n ** (self.cols - self.rank)
        for d in self.factors:
            count *= math.gcd(d, n)
        return count

    def kernel_basis_mod(self, n: int) -> list[list[int]]:
        """Generators of the solution space of a x = 0 (mod n).

        Free columns of v enter as-is; a torsion column with invariant
        factor d contributes (n/gcd(d, n)) times the column when
        gcd(d, n) > 1.
        """
        gens = []
        for j, d in enumerate(self.factors):
            g = math.gcd(d, n)
            if g > 1:
                scale = n // g
                gens.append([(scale * self.v[i][j]) % n for i in range(self.cols)])
        for col in self.kernel_basis():
            gens.append([x % n for x in col])
        return gens


class _Elimination:
    """The not yet pivoted part of a sparse integer matrix.

    ``rows[i]`` maps column -> nonzero value (the caller's dicts, changed
    in place); ``cols[j]`` lists the active rows with a nonzero in column
    j, and ``active`` holds the rows not yet pivoted, in index order.
    With ``transforms`` set, every column operation is repeated on ``v``
    (the columns of the column transform), sparse too.
    """

    def __init__(self, rows: list[dict[int, int]], ncols: int, transforms: bool):
        self.rows = rows
        self.cols: list[list[int]] = [[] for _ in range(ncols)]
        cols = self.cols
        for i, row in enumerate(rows):
            for j in row:
                cols[j].append(i)
        self.active = dict.fromkeys(range(len(rows)))
        self.v = [{j: 1} for j in range(ncols)] if transforms else None

    def pivot(self) -> tuple[int, int] | None:
        """The first unit entry of Markowitz cost (row nonzeros - 1) x
        (column nonzeros - 1) at most 4, as in a row and a column of
        three, else the unit entry of least cost, else an entry of least
        magnitude; None when the active rows are zero."""
        best = None
        best_cost = 0
        smallest = None
        smallest_abs = 0
        rows, cols = self.rows, self.cols
        for r in self.active:
            row = rows[r]
            others = len(row) - 1
            for c, x in row.items():
                if x == 1 or x == -1:
                    cost = others * (len(cols[c]) - 1)
                    if best is None or cost < best_cost:
                        if cost <= 4:
                            return r, c
                        best, best_cost = (r, c), cost
                elif best is None and (smallest is None or abs(x) < smallest_abs):
                    smallest, smallest_abs = (r, c), abs(x)
        return best or smallest

    def add_col(self, src: int, multiples: list[tuple[int, int]]):
        """Column dst += k * column src for each (dst, k) in multiples."""
        rows, cols, v = self.rows, self.cols, self.v
        for dst, k in multiples:
            for i in cols[src]:
                row = rows[i]
                y = row.get(dst)
                if y is None:
                    row[dst] = k * row[src]
                    cols[dst].append(i)
                elif y := y + k * row[src]:
                    row[dst] = y
                else:
                    del row[dst]
                    cols[dst].remove(i)
            if v is not None:
                _axpy(v[dst], v[src], k)

    def clear_column(self, r: int, c: int) -> int:
        """Row operations until column c has one active nonzero; returns
        its row, which is r unless a smaller remainder took over."""
        rows, cols = self.rows, self.cols
        while len(cols[c]) > 1:
            pivot_row = rows[r]
            p = pivot_row[c]
            left = [r]
            for i in cols[c]:
                row = rows[i]
                if i == r or not (k := -(row[c] // p)):
                    if i != r:
                        left.append(i)
                    continue
                # row i += k * row r; column c keeps the remainder
                for j, x in pivot_row.items():
                    if j == c:
                        continue
                    y = row.get(j)
                    if y is None:
                        row[j] = k * x
                        cols[j].append(i)
                    elif y := y + k * x:
                        row[j] = y
                    else:
                        del row[j]
                        cols[j].remove(i)
                if y := row[c] + k * p:
                    row[c] = y
                    left.append(i)
                else:
                    del row[c]
            cols[c] = left
            if len(left) > 1:
                r = min(left[1:], key=lambda i: abs(rows[i][c]))
        return r

    def clear_row(self, r: int, c: int) -> int:
        """Column operations until row r has one nonzero; returns its
        column, which is c unless a smaller remainder took over."""
        row = self.rows[r]
        while len(row) > 1:
            p = row[c]
            self.add_col(c, [(j, -q) for j in row if j != c and (q := row[j] // p)])
            if len(row) > 1:
                c = min((j for j in row if j != c), key=lambda j: abs(row[j]))
        return c

    def not_divisible(self, r: int, p: int) -> int | None:
        """A column with an active entry outside row r that p does not divide."""
        for i in self.active:
            if i != r:
                for j, x in self.rows[i].items():
                    if x % p:
                        return j
        return None

    def retire(self, r: int):
        """Take row r out of the active part once its pivot column is clear."""
        del self.active[r]
        for j in self.rows[r]:
            self.cols[j].remove(r)


def _axpy(dst: dict[int, int], src: dict[int, int], k: int):
    """dst += k * src on sparse vectors."""
    for j, x in src.items():
        if y := dst.get(j, 0) + k * x:
            dst[j] = y
        else:
            del dst[j]


def _sparse(a: list[list[int]]) -> list[dict[int, int]]:
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def smith_normal_form(a, ncols: int | None = None, transforms: bool = True) -> SmithForm:
    """Smith normal form of an integer matrix.

    ``a`` is a dense matrix, or, when ``ncols`` is given, sparse rows
    ``{column: value}`` over ``ncols`` columns, which are used as working
    storage and left changed.  Pivots are searched in row order and, within
    a row, in key order.  Returns the invariant factors normalized positive
    with d_1 | d_2 | ... and, with ``transforms``, the unimodular column
    transform.  Handles empty matrices.
    """
    if ncols is None:
        a, ncols = _sparse(a), len(a[0]) if a else 0
    e = _Elimination(a, ncols, transforms)
    pivots = []
    while (at := e.pivot()) is not None:
        r, c = at
        while True:
            r = e.clear_column(r, c)
            c = e.clear_row(r, c)
            if len(e.cols[c]) > 1:
                continue
            p = e.rows[r][c]
            if abs(p) > 1:
                offender = e.not_divisible(r, p)
                if offender is not None:
                    # the pivot column takes an entry p does not divide
                    e.add_col(offender, [(c, 1)])
                    continue
            break
        e.retire(r)
        pivots.append((r, c))

    factors = [abs(e.rows[r][c]) for r, c in pivots]
    v = None
    if transforms:
        # pivot columns first, in the order found (a divisibility chain),
        # then the rest in index order; the free columns span the kernel
        pivot_cols = {c for _, c in pivots}
        col_order = [c for _, c in pivots] + [j for j in range(ncols) if j not in pivot_cols]
        v = [[0] * ncols for _ in range(ncols)]
        for k, c in enumerate(col_order):
            for i, x in e.v[c].items():
                v[i][k] = x
    return SmithForm(factors=factors, rank=len(factors), v=v, rows=len(a), cols=ncols)


def integer_determinant(a, ncols: int | None = None) -> int:
    """Determinant of a square integer matrix by sparse unimodular row
    reduction.

    ``a`` is a dense matrix, or, when ``ncols`` is given, ``ncols`` sparse
    rows ``{column: value}`` over as many columns, used as working storage
    as in :func:`smith_normal_form`.
    """
    if ncols is None:
        a, ncols = _sparse(a), len(a)
    e = _Elimination(a, ncols, transforms=False)
    pivot, clear_column, retire, rows = e.pivot, e.clear_column, e.retire, e.rows
    det = 1
    pivot_col = [0] * ncols
    for _ in range(ncols):
        at = pivot()
        if at is None:
            return 0
        r, c = at
        r = clear_column(r, c)
        det *= rows[r][c]
        pivot_col[r] = c
        retire(r)
    return _permutation_sign(pivot_col) * det


def _permutation_sign(perm: list[int]) -> int:
    """The sign of the permutation i -> perm[i]: -1 per cycle of even length."""
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign
