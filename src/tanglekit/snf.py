"""Smith normal form and determinants of integer matrices.

Two forms serve :mod:`tanglekit.quandle`, one for each kind of matrix it
has.

* The sparse core, :func:`smith_normal_form` and
  :func:`integer_determinant`, takes dihedral relation matrices: the Smith
  form of a diagram's relation matrix, which gives its integer coloring
  lattice and its c-colorings at every modulus (``color``), and, only
  past the limits of propagation in :mod:`tanglekit.quandle`, the whole
  matrix of a tangle for its coloring record and a first minor of a link
  for its determinant.
  These have one row per crossing with three nonzeros (2, -1, -1), so
  nearly every row has a unit entry and a diagram of k crossings gives
  about k rows with 3k nonzeros.  Rows are ``{column: value}`` dicts with
  a column -> rows index, and a pivot step touches only the rows that
  meet its column and the columns that meet its row.
  :mod:`tanglekit.quandle` builds its rows in this form and hands them
  over as they are.
* The dense form, :func:`dense_smith_form`, takes what propagating
  colors leaves for a tangle's coloring record (a link's determinant
  reads one first minor of it instead): a few dense rows over at most
  16 seeds, with entries in the millions and seldom a unit (on the
  coloring benchmark's sums, 2 to 8 seeds and two rows fewer, and 195
  of 3,176 rows with an entry of +-1).  The sparse core would take its
  Euclid path on nearly every pivot; an extended-gcd step on plain
  lists clears each entry in one step instead.

Both return one shape of :class:`SmithForm`: the invariant factors and
the column transform on the rows the caller lifts, all of it by default.
The rest of this account is the sparse core's.

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

Only the column operations are recorded, and only on the rows the
caller lifts: a form keeps the rows of w @ v for rows w handed in, since
a column operation acts on each row by itself.  By default w is the unit
rows, so w @ v is all of ``v``.  The last columns of ``v`` span the
integer kernel, which the coloring lattices need in full; a tangle's
coloring record that eliminates the whole relation matrix lifts two
rows, its boundary line e_NE - e_NW and e_NE - e_SE over the boundary
arcs (and the dense form takes the same differences of the boundary
ends' colors over the seeds; see :mod:`tanglekit.quandle`).  Of the
columns, only the free ones and those of factors above 1 are read, so
each unit pivot's column is dropped once its step has used it, and ``v``
is kept as sparse columns.  Nothing reads the row transform, so it is
not kept.

The determinant runs the same core with row operations only: each pivot
clears its column from the rows not yet pivoted, which leaves the matrix
triangular up to a permutation of rows and columns, so the determinant
is the product of the pivots up to sign.  Every caller reads its
absolute value (all first minors of a coloring matrix agree only up to
sign), so the permutation is not tracked.  Every operation adds an
integer multiple of one row (or column) to another, so all arithmetic is
exact in the integers.
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
    (the invariant factors) and ``rank`` is r, over ``cols`` columns of a.
    Of v, only w @ v is kept for the ``lifted`` rows w the caller handed
    in (by default the unit rows, so all of v), and only the columns that
    the kernel and the torsion need: column j < r of a @ v is d_j times
    column j of u^-1, and the last cols - rank columns of a @ v are zero.
    ``v[j]`` is column j of w @ v as a sparse ``{row: value}`` dict for
    each j >= rank and each d_j > 1, and None for the columns of unit
    factors.
    """

    __slots__ = ("factors", "rank", "v", "cols", "lifted")

    def __init__(self, factors: list[int], rank: int, v: list[dict[int, int] | None],
                 cols: int, lifted: int):
        self.factors = factors
        self.rank = rank
        self.v = v
        self.cols = cols
        self.lifted = lifted

    def kernel_basis(self) -> list[list[int]]:
        """The lifted rows of a basis of the integer kernel of a: the last
        cols - rank columns of w @ v."""
        return [[col.get(i, 0) for i in range(self.lifted)] for col in self.v[self.rank:]]

    def solutions_mod(self, n: int) -> int:
        """Number of solutions of a x = 0 (mod n), n >= 1."""
        if n < 1:
            raise ValueError("modulus must be >= 1")
        count = n ** (self.cols - self.rank)
        for d in self.factors:
            count *= math.gcd(d, n)
        return count

    def kernel_basis_mod(self, n: int) -> list[list[int]]:
        """The lifted rows of generators of the solutions of a x = 0 (mod n).

        Free columns of v enter as-is; a torsion column with invariant
        factor d contributes (n/gcd(d, n)) times the column when
        gcd(d, n) > 1.
        """
        gens = []
        for j, d in enumerate(self.factors):
            g = math.gcd(d, n)
            if g > 1:
                scale = n // g
                col = self.v[j]
                gens.append([(scale * col.get(i, 0)) % n for i in range(self.lifted)])
        for col in self.kernel_basis():
            gens.append([x % n for x in col])
        return gens


class _Elimination:
    """The not yet pivoted part of a sparse integer matrix.

    ``rows[i]`` maps column -> nonzero value (the caller's dicts, changed
    in place), and ``cols[j]`` lists the active rows, those not yet
    pivoted, with a nonzero in column j.  ``v[j]`` is column j of w @ v
    for the lifted rows w, sparse too, until a unit pivot in column j
    makes it one nothing reads again; ``v`` is None for a determinant,
    which keeps no transform.

    The pivot search reads the active rows in ``scan``, a sorted list,
    except the parked ones: the heap ``parked`` holds the key of each
    parked row's best entry, ``key_of`` maps each parked row to its key,
    and ``parked_in[j]`` lists the parked rows with a nonzero in column
    j.  Every step first passes the columns whose rows or counts it is
    about to change to ``touch``, which returns the parked rows that meet
    them to the scan before their keys can go stale.
    """

    def __init__(self, rows: list[dict[int, int]], ncols: int,
                 v: list[dict[int, int]] | None):
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
        self.v = v

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
                      lift: Sequence[dict[int, int]] | None = None) -> SmithForm:
    """Smith normal form of an integer matrix given as sparse rows
    ``{column: value}`` over ``ncols`` columns.

    The rows are used as working storage and left changed.  Pivots are
    searched in row order and, within a row, in key order.  Returns the
    invariant factors normalized positive with d_1 | d_2 | ... and the
    column transform v on the rows ``lift``, sparse rows w_0, w_1, ...
    over the columns (by default the unit rows): row i of w @ v is kept
    as row i, since the column operations act on those rows as on rows
    of v.  Of the transform, only the free columns and those of factors
    above 1 are kept (see :class:`SmithForm`).  Handles empty matrices.
    """
    if lift is None:
        lift = [{j: 1} for j in range(ncols)]
    v = [{} for _ in range(ncols)]
    for i, w in enumerate(lift):
        for j, x in w.items():
            v[j][i] = x
    e = _Elimination(a, ncols, v)
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
    # pivot columns first, in the order found (a divisibility chain), then
    # the rest in index order; the free columns span the kernel
    pivot_cols = set(pivots)
    v = [e.v[c] if f > 1 else None for c, f in zip(pivots, factors)]
    v += [e.v[j] for j in range(ncols) if j not in pivot_cols]
    return SmithForm(factors, len(factors), v, ncols, len(lift))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = x*a + y*b a gcd of a and b, up to sign."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def dense_smith_form(a: list[list[int]], ncols: int,
                     lift: list[list[int]] | None = None) -> SmithForm:
    """Smith normal form of a small dense integer matrix, rows of
    ``ncols`` entries, keeping row i of w @ v for each row w_i of
    ``lift`` (by default the unit rows), as :func:`smith_normal_form`
    does: the same factors, rank and layout of v, whose kept columns may
    differ by unimodular operations that keep the kernel and the
    cokernel.

    Each pivot, an entry of least magnitude, clears its column by 2 x 2
    unimodular row steps from the extended gcd (Bradley, *Algorithms for
    Hermite and Smith normal matrices*, Math. Comp. 1971), which leave the
    gcd of the two entries at the pivot and zero below it, and then its
    row by column steps, recorded on the lifted rows; a column step the
    pivot did not divide leaves a smaller pivot, and the two clear again.
    The factors above 1 are then made a divisibility chain in pairs,
    diag(a, b) to diag(gcd, lcm) by one more column step.  The rows and
    ``lift`` are used as working storage.
    """
    if lift is None:
        lift = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    rows = [row for row in a if any(row)]
    live = list(range(ncols))  # columns not yet pivoted
    pivots = []
    while rows:
        best = 0
        for row in rows:
            for j in live:
                if (x := row[j]) and (not best or abs(x) < best):
                    best, r, c = abs(x), row, j
        if not best:
            break
        p = r[c]
        tracked = rows + lift  # what a column step acts on
        while True:
            for row in rows:
                if row is r or not (b := row[c]):
                    continue
                if b % p == 0:
                    q = b // p
                    for j in live:
                        if y := r[j]:
                            row[j] -= q * y
                else:
                    # rows (r, row) <- (x*r + y*row, s*r + t*row)
                    g, x, y = _xgcd(p, b)
                    s, t = -b // g, p // g
                    for j in live:
                        u, z = r[j], row[j]
                        r[j] = x * u + y * z
                        row[j] = s * u + t * z
                    p = g
            refilled = False  # a column step changed column c below r
            for j in live:
                if j == c or not (b := r[j]):
                    continue
                if b % p == 0:
                    q = b // p
                    for row in tracked:
                        row[j] -= q * row[c]
                else:
                    # columns (c, j) <- (x*c + y*j, s*c + t*j)
                    g, x, y = _xgcd(p, b)
                    s, t = -b // g, p // g
                    for row in tracked:
                        u, z = row[c], row[j]
                        row[c] = x * u + y * z
                        row[j] = s * u + t * z
                    p = g
                    refilled = True
            if not refilled:
                break
        rows.remove(r)
        live.remove(c)
        pivots.append((c, abs(p)))
    units = sum(d == 1 for _, d in pivots)
    chain = [d for _, d in pivots if d > 1]
    torsion = [[row[c] for row in lift] for c, d in pivots if d > 1]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            d, e = chain[i], chain[j]
            if e % d:
                # diag(d, e) @ [[1, -y*e/g], [1, x*d/g]] = U^-1 diag(g, d*e/g)
                g, x, y = _xgcd(d, e)
                s, t = -y * e // g, x * d // g
                vi, vj = torsion[i], torsion[j]
                torsion[i] = [u + z for u, z in zip(vi, vj)]
                torsion[j] = [s * u + t * z for u, z in zip(vi, vj)]
                chain[i], chain[j] = g, d * e // g
    v = [None] * units  # a gcd can come out 1 too
    v += [{i: x for i, x in enumerate(col) if x} if d > 1 else None
          for d, col in zip(chain, torsion)]
    v += [{i: row[j] for i, row in enumerate(lift) if row[j]} for j in live]
    return SmithForm([1] * units + chain, units + len(chain), v, ncols, len(lift))


def integer_determinant(a: list[dict[int, int]], ncols: int) -> int:
    """Absolute value of the determinant of a square integer matrix, by
    sparse unimodular row reduction.

    ``a`` is ``ncols`` sparse rows ``{column: value}`` over as many
    columns, used as working storage as in :func:`smith_normal_form`.
    """
    e = _Elimination(a, ncols, None)
    pivot, unit_step, rows = e.pivot, e.unit_step, e.rows
    det = 1
    for _ in range(ncols):
        at = pivot()
        if at is None:
            return 0
        r, c = at
        if rows[r][c] in (1, -1):
            unit_step(r, c)
        else:
            r = e.clear_column(r, c)
            det *= rows[r][c]
            e.retire(r)
    return abs(det)
