"""Smith normal form and determinants of sparse integer matrices.

One elimination core with two consumers in :mod:`tanglekit.quandle`:
the Smith form of a diagram's relation matrix, which gives its integer
coloring lattice and its c-colorings at every modulus, and link
determinants.  Their matrices are dihedral relation matrices, one row per
crossing with three nonzeros (2, -1, -1), so nearly every row has a unit
entry and a diagram of k crossings gives about k rows with 3k nonzeros.
Rows are ``{column: value}`` dicts with a column -> rows index, and a
pivot step touches only the rows that meet its column and the columns
that meet its row.  :mod:`tanglekit.quandle` builds its rows in this form
and hands them over as they are.

Pivots follow Markowitz (Management Science 1957): a unit entry whenever
one exists, taken early once its cost (other nonzeros in its row times
other nonzeros in its column) is at most that of a row and a column of
three, so that elimination fills in little; otherwise the entry of
smallest magnitude.  The search reads the rows in index order and stops
at the first cheap unit.  A long run of rows without one is parked: each
parked row waits in a heap under the key of its best entry and goes back
to the scan as soon as a step is about to change it or a column it
meets.  The search answers as a full rescan would, but a long run of
such rows (a sum of thousands of rational tangles leaves one) is not
rescanned at every pivot.

A unit pivot is one step: row operations clear its column, and then its
row is alone in that column, so the column operations that clear the row
change that row alone; they are recorded on the column transform and the
row is retired.  A larger pivot is reduced Euclid-style until it is alone
in its row and column, and must then divide every remaining entry; if
some entry is not a multiple, its column is added to the pivot column and
the reduction goes on with a smaller pivot.  Every later entry is then a
multiple of the pivot, so the pivots come out as the divisibility chain
of invariant factors (the argument of Kannan and Bachem, SIAM J. Comput.
1979).

Only the column operations are recorded, in the column transform ``v``,
and only as much of it as the caller asks for: all of ``v``, none of it,
or the rows of w @ v for rows w the caller hands in, since a column
operation acts on each row by itself (rows of ``v`` itself are w @ v for
unit rows w).  The last columns of ``v`` span the integer kernel, which
the coloring lattices need in full; a tangle's coloring record
eliminates its leftover relations over a few seeds and hands in the
colors of its four boundary ends, rows over the seeds, so it gets back
v's boundary rows of the whole relation matrix (see
:mod:`tanglekit.quandle`).  Of the columns, only the free ones and those
of factors above 1 are read, so each unit pivot's column is dropped once
its step has used it, and ``v`` is kept as sparse columns.  Nothing
reads the row transform, so it is not kept.

The determinant runs the same core with row operations only: each pivot
clears its column from the rows not yet pivoted, which leaves the matrix
triangular up to a permutation of rows and columns, so the determinant
is the product of the pivots times the sign of that permutation.  Every
operation adds an integer multiple of one row (or column) to another, so
all arithmetic is exact in the integers.
"""

from __future__ import annotations

import math
from bisect import insort
from collections.abc import Sequence
from heapq import heappop, heappush

# A run of rows without a cheap unit that the pivot search passes is
# parked once it is longer than this; a shorter run is cheaper to rescan
# than to park and requeue.
_PARK_AFTER = 16


class SmithForm:
    """u @ a @ v = diag(d_1, ..., d_r, 0, ...) for some unimodular u and v.

    ``factors`` are the nonzero diagonal entries d_1 | d_2 | ... | d_r
    (the invariant factors) and ``rank`` is r.  Only v is kept, and only
    the columns of it that the kernel and the torsion need: column j < r
    of a @ v is d_j times column j of u^-1, and the last cols - rank
    columns of a @ v are zero.  ``v[j]`` is column j of v as a sparse
    ``{row: value}`` dict for each j >= rank and each d_j > 1, and None
    for the columns of unit factors.  The columns hold every row of v
    when ``kept`` is None; when rows w were lifted, ``kept`` holds 0, ...,
    len(w) - 1 and they hold the rows of w @ v.  ``v`` is None when no
    row was kept.
    """

    __slots__ = ("factors", "rank", "v", "cols", "kept")

    def __init__(self, factors: list[int], rank: int, v: list[dict[int, int] | None] | None,
                 cols: int, kept: frozenset[int] | None = None):
        self.factors = factors
        self.rank = rank
        self.v = v
        self.cols = cols
        self.kept = kept

    def _full_v(self) -> list[dict[int, int] | None]:
        v = self.v
        if v is None or self.kept is not None:
            raise ValueError("this Smith form kept only some rows of its column "
                             "transform; a kernel basis needs all of them")
        return v

    def kernel_basis(self) -> list[list[int]]:
        """Basis of the integer kernel of a: the last cols - rank columns of v."""
        v = self._full_v()
        return [[col.get(i, 0) for i in range(self.cols)] for col in v[self.rank:]]

    def kernel_row(self, i: int) -> list[int]:
        """Entry i of each kernel basis vector: row i of v past the rank."""
        if self.v is None or (self.kept is not None and i not in self.kept):
            raise ValueError(f"row {i} of the column transform was not kept")
        return [col.get(i, 0) for col in self.v[self.rank:]]

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
        v = self._full_v()
        gens = []
        for j, d in enumerate(self.factors):
            g = math.gcd(d, n)
            if g > 1:
                scale = n // g
                col = v[j]
                gens.append([(scale * col.get(i, 0)) % n for i in range(self.cols)])
        for col in self.kernel_basis():
            gens.append([x % n for x in col])
        return gens


class _Elimination:
    """The not yet pivoted part of a sparse integer matrix.

    ``rows[i]`` maps column -> nonzero value (the caller's dicts, changed
    in place), and ``cols[j]`` lists the active rows, those not yet
    pivoted, with a nonzero in column j.  ``v[j]`` is column j of the
    column transform (or of w @ v for the rows w of ``lift``), sparse
    too, until a unit pivot in column j makes it one nothing reads again;
    ``v`` is None when no row is kept.

    The pivot search reads the active rows in ``scan``, a sorted list,
    except the parked ones: the heap ``parked`` holds the key of each
    parked row's best entry, ``key_of`` maps each parked row to its key,
    and ``parked_in[j]`` lists the parked rows with a nonzero in column
    j.  Every step first passes the columns whose rows or counts it is
    about to change to ``touch``, which returns the parked rows that meet
    them to the scan before their keys can go stale.
    """

    def __init__(self, rows: list[dict[int, int]], ncols: int,
                 v_rows: Sequence[int] | None,
                 lift: Sequence[dict[int, int]] | None = None):
        self.rows = rows
        self.cols: list[list[int]] = [[] for _ in range(ncols)]
        cols = self.cols
        for i, row in enumerate(rows):
            for j in row:
                cols[j].append(i)
        self.scan = list(range(len(rows)))
        self.parked: list[tuple[int, int, int, int]] = []
        self.key_of: dict[int, tuple[int, int, int, int]] = {}
        self.parked_in: dict[int, set[int]] = {}
        if lift is not None:
            self.v = [{} for _ in range(ncols)]
            for i, w in enumerate(lift):
                for j, x in w.items():
                    self.v[j][i] = x
        elif v_rows is None:
            self.v = [{j: 1} for j in range(ncols)]
        else:
            self.v = None

    def pivot(self) -> tuple[int, int] | None:
        """The first unit entry of Markowitz cost (row nonzeros - 1) x
        (column nonzeros - 1) at most 4, as in a row and a column of
        three, else the unit entry of least cost, else an entry of least
        magnitude, ties going to the first row and, within a row, to the
        first column in key order; None when the active rows are zero."""
        rows, cols, scan = self.rows, self.cols, self.scan
        for passed, r in enumerate(scan):
            row = rows[r]
            others = len(row) - 1
            for c, x in row.items():
                if (x == 1 or x == -1) and others * (len(cols[c]) - 1) <= 4:
                    if passed > _PARK_AFTER:
                        self._park(passed)
                    return r, c
        keys = [key for r in scan if (key := self._key(r))]
        if len(scan) > _PARK_AFTER:
            self._park(len(scan))
        parked, key_of = self.parked, self.key_of
        while parked and key_of.get(parked[0][2]) != parked[0]:
            heappop(parked)
        if parked:
            keys.append(parked[0])
        best = min(keys, default=None)
        return None if best is None else (best[2], best[3])

    def _key(self, r: int) -> tuple[int, int, int, int] | None:
        """Row r's best pivot entry, for a row without a unit of cost at
        most 4, as (1, cost, r, column) for its first unit of least cost,
        else (2, magnitude, r, column) for its first entry of least
        magnitude; None for a zero row."""
        cols = self.cols
        row = self.rows[r]
        others = len(row) - 1
        key = None
        for c, x in row.items():
            if x == 1 or x == -1:
                cost = others * (len(cols[c]) - 1)
                if key is None or key[0] == 2 or cost < key[1]:
                    key = 1, cost, r, c
            elif key is None or (key[0] == 2 and abs(x) < key[1]):
                key = 2, abs(x), r, c
        return key

    def _park(self, count: int):
        """Park the first ``count`` rows of the scan under their keys; a
        zero row stays zero and is dropped."""
        key_of, parked, parked_in = self.key_of, self.parked, self.parked_in
        for r in self.scan[:count]:
            key = self._key(r)
            if key is not None:
                key_of[r] = key
                heappush(parked, key)
                for j in self.rows[r]:
                    parked_in.setdefault(j, set()).add(r)
        del self.scan[:count]

    def touch(self, columns):
        """Return to the scan the parked rows that meet these columns,
        before a step changes those rows or the columns' counts."""
        parked_in = self.parked_in
        if not parked_in or parked_in.keys().isdisjoint(columns):
            return
        for j in columns:
            for i in parked_in.pop(j, ()):
                del self.key_of[i]
                for other in self.rows[i]:
                    if other != j:
                        meet = parked_in[other]
                        meet.discard(i)
                        if not meet:
                            del parked_in[other]
                insort(self.scan, i)

    def unit_step(self, r: int, c: int):
        """Pivot on the unit p = rows[r][c] in one step.  Row operations
        clear column c; then row r's column operations change row r
        alone, so they are recorded on v only, and row r, left as p in
        column c, is retired.  Column c of v is dropped: no later step
        reads or changes it, and a unit factor's column is not kept."""
        rows, cols = self.rows, self.cols
        pivot_row = rows[r]
        if self.parked_in:
            self.touch(pivot_row)
        p = pivot_row.pop(c)
        for i in cols[c]:
            if i == r:
                continue
            # row i -= (row i's entry in c) * p * row r, which clears c
            row = rows[i]
            k = -p * row.pop(c)
            for j, x in pivot_row.items():
                y = row.get(j)
                if y is None:
                    row[j] = k * x
                    cols[j].append(i)
                elif y := y + k * x:
                    row[j] = y
                else:
                    del row[j]
                    cols[j].remove(i)
        cols[c] = []
        self.scan.remove(r)
        for j in pivot_row:
            cols[j].remove(r)
        v = self.v
        if v is not None:
            if vc := v[c]:
                # column j -= (row r's entry in j) * p * column c
                for j, x in pivot_row.items():
                    _axpy(v[j], vc, -p * x)
            v[c] = None
        pivot_row.clear()
        pivot_row[c] = p

    def add_col(self, src: int, multiples: list[tuple[int, int]]):
        """Column dst += k * column src for each (dst, k) in multiples."""
        rows, cols, v = self.rows, self.cols, self.v
        self.touch([src] + [dst for dst, _ in multiples])
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
            self.touch(pivot_row)
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
        for i in sorted([*self.scan, *self.key_of]):
            if i != r:
                for j, x in self.rows[i].items():
                    if x % p:
                        return j
        return None

    def retire(self, r: int):
        """Take row r out of the active part once its pivot column is clear."""
        self.touch(self.rows[r])
        self.scan.remove(r)
        for j in self.rows[r]:
            self.cols[j].remove(r)


def _axpy(dst: dict[int, int], src: dict[int, int], k: int):
    """dst += k * src on sparse vectors."""
    for j, x in src.items():
        if y := dst.get(j, 0) + k * x:
            dst[j] = y
        else:
            del dst[j]


def smith_normal_form(a: list[dict[int, int]], ncols: int,
                      v_rows: Sequence[int] | None = None,
                      lift: Sequence[dict[int, int]] | None = None) -> SmithForm:
    """Smith normal form of an integer matrix given as sparse rows
    ``{column: value}`` over ``ncols`` columns.

    The rows are used as working storage and left changed.  Pivots are
    searched in row order and, within a row, in key order.  Returns the
    invariant factors normalized positive with d_1 | d_2 | ... and the
    unimodular column transform v: all of its rows when ``v_rows`` is
    None, none when it is empty.  Given ``lift``, sparse rows w_0, w_1,
    ... over the columns, it keeps instead row i of w @ v as row i: the
    column operations act on those rows as on rows of v, so unit rows w
    pick rows of v.  Of the transform, only the free columns and those of
    factors above 1 are kept (see :class:`SmithForm`).  Handles empty
    matrices.
    """
    if v_rows:
        raise ValueError("rows of v are picked by lifting unit rows")
    e = _Elimination(a, ncols, v_rows, lift)
    pivots, factors = [], []  # pivot columns and |pivots|, in the order found
    while (at := e.pivot()) is not None:
        r, c = at
        p = e.rows[r][c]
        if p == 1 or p == -1:
            e.unit_step(r, c)
        else:
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
        pivots.append(c)
        factors.append(abs(p))
    v = None
    if e.v is not None:
        # pivot columns first, in the order found (a divisibility chain),
        # then the rest in index order; the free columns span the kernel
        pivot_cols = set(pivots)
        v = [e.v[c] if f > 1 else None for c, f in zip(pivots, factors)]
        v += [e.v[j] for j in range(ncols) if j not in pivot_cols]
    kept = None if lift is None else frozenset(range(len(lift)))
    return SmithForm(factors=factors, rank=len(factors), v=v, cols=ncols, kept=kept)


def integer_determinant(a: list[dict[int, int]], ncols: int) -> int:
    """Determinant of a square integer matrix by sparse unimodular row
    reduction.

    ``a`` is ``ncols`` sparse rows ``{column: value}`` over as many
    columns, used as working storage as in :func:`smith_normal_form`.
    """
    e = _Elimination(a, ncols, ())
    pivot, unit_step, rows = e.pivot, e.unit_step, e.rows
    det = 1
    pivot_col = [0] * ncols
    for _ in range(ncols):
        at = pivot()
        if at is None:
            return 0
        r, c = at
        p = rows[r][c]
        if p == 1 or p == -1:
            unit_step(r, c)
        else:
            r = e.clear_column(r, c)
            p = rows[r][c]
            e.retire(r)
        det *= p
        pivot_col[r] = c
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
