"""Quandle colorings of tangle and link diagrams.

A quandle is a set with a self-distributive, right-invertible, idempotent
operation.  Colorings label the arcs of a diagram (maximal over-strands)
so that at each crossing the label of the left under-arc, seen along the
over-strand direction, is the right under-arc label acted on by the
over-arc label.  For the dihedral quandle on Z/n (x * y = 2y - x mod n)
the operation is involutory and the crossing rule is the linear relation
2*over = in + out, so colorings mod n, and over the integers for n = 0,
are computed from one integer matrix through its Smith normal form.

A tangle coloring is a c-coloring when its four boundary arcs share one
color, and a d-coloring otherwise.  Every coloring satisfies the
alternating boundary sum rule NW + SE = NE + SW, so modulo the constant
colorings its boundary colors are fixed by the pair (NE - NW, NE - SE):
an integer d-coloring has (NE - NW, NE - SE) != (0, 0), and the ratio of
these two differences is a well-defined extended rational, the coloring
fraction.  On a rational tangle diagram the coloring fraction recovers
the tangle fraction, which pins down every sign convention in this
package.

For a tangle diagram that passes ``validate`` the boundary colors modulo
the constants span exactly one line over every field.  Over Q and F_p,
p odd, colorings modulo the constants are the first cohomology of the
double branched cover of the ball (Przytycki, *3-coloring and other
elementary invariants of knots*, 1998), and half-lives-half-dies on its
boundary torus leaves a line; over F_2 the crossing rule reads in = out,
so colors are constant along each of the two strings.  Hence
dim(colorings) = 1 + dim(c-colorings) over every field, and one Smith
form of the plain relation matrix answers every coloring question:
nontrivial c-colorings mod p exist exactly when its nullity exceeds two
or p divides an invariant factor (the primes of Krebes' gcd(det N, det D)
obstruction, JKTR 1999), and its kernel gives the coloring fraction.

A tangle's relation matrix M is eliminated the way one colors by hand,
propagating colors from a few free arcs, as Kauffman and Lambropoulou
(*On the classification of rational tangles*, 2004) read a rational
tangle's fraction (:class:`ColoringRecord`):

* Unit pivots.  A color is an integer vector over the seeds, the arcs
  left free.  A crossing whose over-arc and one under side are colored
  paints the other side 2*over - side, along its arc and over every
  crossing that arc passes: the relation has coefficient -1 there.  When
  nothing propagates, the over-arc of a pending crossing, one with a
  colored side first, becomes a new seed (else an under side, and last
  the end of a crossing-free strand).  A crossing whose three arcs are
  colored already leaves its relation 2*over - a - b in seed coordinates.
* Leftover relations.  Each painted arc and the crossing that painted it
  pair off in a triangular block with unit diagonal, so M is equivalent
  to the identity on that block beside L, the leftover relations over
  the seeds: M's invariant factors above 1, its nullity and its
  cokernel are L's, and the class of e_p below is that of arc p's
  color, a row over the seeds, modulo L's rows.  So only L takes a Smith
  form, and its column operations act on the colors of the four boundary
  ends in place of v's boundary rows.  On the sums of 2-5 rationals
  measured, L was 1-6 rows over 3-8 seeds, two rows fewer than seeds,
  dense, with entries up to about 10^6 and seldom a unit, so it takes
  :func:`tanglekit.snf.dense_smith_form`, extended-gcd steps on plain
  lists; only the whole matrix M goes to the sparse core.
* Width.  A color is packed into one integer, a signed coefficient in a
  field of ``width`` bits per seed, so painting is one integer
  expression.  A painted color is 2*over - side of earlier ones, so
  coefficients stay below 3^k and a leftover's below 4 * 3^k.  The width
  starts at 64 bits and doubles whenever a mask test finds a coefficient
  out of range, so it stops doubling once it reaches 2k + 6.  Past 16
  seeds (a long sum of rationals needs one or two per summand), or once
  the colors in use, seeds times width bits on each arc, would pass 8 MiB,
  the record takes M itself: every arc a seed, every relation left over.
  ``_MAX_SEEDS`` and ``_PACKED_BITS`` say what each limit rests on.

With the column transform v of M's Smith form kept on the rows of the
four boundary arcs, the record answers these questions and gives both
closure determinants too:

* Report and fraction.  The report reads M's nullity and torsion, and
  the fraction the boundary rows of M's integer kernel, the free columns
  of v.
* The cokernel.  Let A be Z^arcs modulo the row space of M.  The Smith
  form splits it as Z/d_j for each invariant factor d_j > 1 and Z for each
  free column of v, and the class of the unit vector e_p has coordinate
  v[p][j] in the summand of column j.  Its free rank is M's nullity.
* Closure determinants.  N(T) and D(T) have T's crossings and T's arcs
  with the boundary arcs fused: NW with NE and SW with SE for N(T), NW
  with SW and NE with SE for D(T).  So the closure's relation matrix is M
  with those columns added together, and its cokernel is A with the
  classes of e_NW - e_NE and e_SW - e_SE (for D(T), e_NW - e_SW and
  e_NE - e_SE) set to zero, which only needs v's boundary rows.  All
  first minors of a link's coloring matrix agree up to sign, so the
  determinant of a closure of k crossings is their gcd, the product of
  the first k - 1 invariant factors: the order of the quotient's torsion
  when its free rank, the closure's nullity, is one, and 0 when it is
  more.  With no torsion factor, or one, and the nullity two, the
  quotient has two or three columns, and that order is a gcd of the
  join rows' entries or of the quotient's 2 x 2 minors (see
  :func:`_closure_determinant`); only larger quotients take a Smith form.
  A closure with more arcs than crossings has a component that
  never passes under, which lifts off as a split component, so its
  nullity is at least two and its determinant 0 here as well.
  :func:`determinant` still runs the closure's own crossing and loop
  checks first: a crossing-free strand closes into a loop that the
  matrix does not see.
"""

from __future__ import annotations

from math import gcd

from .diagram import (
    _NE,
    _NW,
    _SE,
    _SW,
    Diagram,
    LinkDiagram,
    OrientedDiagram,
    TangleDiagram,
    UnionFind,
    _ends,
)
from .fraction import Fraction, frac_normalize
from .snf import SmithForm, dense_smith_form, integer_determinant, smith_normal_form
from .value import Value, setfield


# ---------------------------------------------------------------------------
# quandles

def quandle_check(table: list[list[int]]) -> str | None:
    """Verify the three quandle axioms exhaustively.

    Returns None if the table is a quandle, else a message naming the
    first violated axiom with a witness.
    """
    m = len(table)
    for row in table:
        if len(row) != m or any(not (0 <= x < m) for x in row):
            return f"malformed table: expected {m} entries in 0..{m - 1} per row"
    for x in range(m):
        if table[x][x] != x:
            return f"idempotence fails: {x} * {x} = {table[x][x]}"
    for y in range(m):
        col = [table[x][y] for x in range(m)]
        if len(set(col)) != m:
            return f"right translation by {y} is not a bijection"
    for x in range(m):
        for y in range(m):
            for z in range(m):
                left = table[table[x][y]][z]
                right = table[table[x][z]][table[y][z]]
                if left != right:
                    return (f"self-distributivity fails at ({x}, {y}, {z}): "
                            f"({x}*{y})*{z} = {left} != {right}")
    return None


class FiniteQuandle(Value):
    """Finite quandle given by its multiplication table (checked)."""

    __slots__ = ("table",)

    def __init__(self, table: tuple[tuple[int, ...], ...]):
        err = quandle_check([list(r) for r in table])
        if err:
            raise ValueError(err)
        setfield(self, "table", table)

    @property
    def size(self) -> int:
        return len(self.table)

    def op(self, x: int, y: int) -> int:
        return self.table[x][y]

    def is_involutory(self) -> bool:
        return all(self.op(self.op(x, y), y) == x
                   for x in range(self.size) for y in range(self.size))


def dihedral_table(n: int) -> FiniteQuandle:
    """The dihedral quandle R_n (n >= 1) as an explicit table."""
    if n < 1:
        raise ValueError("dihedral_table needs n >= 1")
    return FiniteQuandle(tuple(tuple((2 * y - x) % n for y in range(n))
                               for x in range(n)))


def parse_quandle_table(text: str) -> FiniteQuandle:
    """Load a table from text: first line m, then m rows of m integers."""
    rows = [ln.split() for ln in text.splitlines() if ln.split()]
    if not rows:
        raise ValueError("empty quandle file")
    m = int(rows[0][0])
    if len(rows) != m + 1:
        raise ValueError(f"expected {m} table rows, found {len(rows) - 1}")
    table = tuple(tuple(int(x) for x in row) for row in rows[1:])
    return FiniteQuandle(table)


# ---------------------------------------------------------------------------
# arcs and the dihedral relation matrix

def arcs(d: Diagram) -> dict[int, int]:
    """Map each edge to its arc index; arcs are maximal over-strands.

    Edges are merged across a crossing when they occupy the two over
    slots; under-strands break.  Arc indices are dense, ordered by the
    smallest edge id in the arc.
    """
    over = UnionFind()
    for c in d.crossings:
        over.union(c[1], c[3])
    edges = {e for c in d.crossings for e in c}
    if isinstance(d, TangleDiagram):
        edges.update(d.boundary)
    # a parent id is smaller than its child's, so in increasing order a
    # root opens the next arc and every other edge finds its parent's
    parent = over.parent
    arc_of = {}
    n = 0
    for e in sorted(edges):
        if e in parent:
            arc_of[e] = arc_of[parent[e]]
        else:
            arc_of[e] = n
            n += 1
    return arc_of


def dihedral_relation_matrix(d: Diagram) -> tuple[list[dict[int, int]], dict[int, int], int]:
    """One row 2*over - in - out per crossing, columns indexed by arc.

    Returns the rows as sparse ``{arc: coefficient}`` dicts with their arcs
    in increasing order and zero coefficients left out (at a kink the
    over-arc can also be an under-arc), the arc of each edge and the
    number of arcs.
    """
    arc_of = arcs(d)
    ncols = (max(arc_of.values()) + 1) if arc_of else 0
    rows = []
    for p in d.crossings:
        lo, over, hi = arc_of[p[0]], arc_of[p[1]], arc_of[p[2]]
        if lo > hi:
            lo, hi = hi, lo
        if lo == hi or over == lo or over == hi:
            # a repeated arc: the coefficients add up and may cancel
            row = dict.fromkeys(sorted({lo, over, hi}), 0)
            row[lo] -= 1
            row[hi] -= 1
            row[over] += 2
            row = {j: x for j, x in row.items() if x}
        elif over < lo:
            row = {over: 2, lo: -1, hi: -1}
        elif over < hi:
            row = {lo: -1, over: 2, hi: -1}
        else:
            row = {lo: -1, hi: -1, over: 2}
        rows.append(row)
    return rows, arc_of, ncols


def boundary_arcs(d: TangleDiagram, arc_of: dict[int, int]) -> tuple[int, ...]:
    return tuple(arc_of[e] for e in d.boundary)


class ColoringLattice:
    """Solution space of the dihedral crossing relations.

    For modulus n > 0 the solutions form a subgroup of (Z/n)^arcs;
    ``count`` is its size and ``generators`` generate it.  For n = 0 the
    integer solution lattice is described by ``basis`` (a Z-basis) and
    the ``invariant_factors`` of the relation matrix.  For tangles,
    ``boundary`` holds the arc indices at NW, NE, SW, SE, and the same
    Smith form gives the coloring fraction, as :class:`ColoringRecord`
    does from the few relations its color propagation leaves over.
    """

    __slots__ = ("modulus", "arc_count", "smith", "boundary")

    def __init__(self, modulus: int, arc_count: int, smith: SmithForm,
                 boundary: tuple[int, ...] | None):
        self.modulus = modulus
        self.arc_count = arc_count
        self.smith = smith
        self.boundary = boundary

    @property
    def invariant_factors(self) -> list[int]:
        return list(self.smith.factors)

    @property
    def basis(self) -> list[list[int]]:
        return self.smith.kernel_basis()

    @property
    def count(self) -> int:
        if self.modulus == 0:
            raise ValueError("integer lattice is infinite; use basis")
        return self.smith.solutions_mod(self.modulus)

    @property
    def generators(self) -> list[list[int]]:
        if self.modulus == 0:
            return self.basis
        return self.smith.kernel_basis_mod(self.modulus)

    def boundary_colors(self, solution: list[int]) -> tuple[int, int, int, int]:
        if self.boundary is None:
            raise ValueError("link diagrams have no boundary colors")
        return tuple(solution[a] for a in self.boundary)

    def coloring_fraction(self) -> Fraction | NotInvariant:
        """See :func:`coloring_fraction`."""
        if self.boundary is None:
            raise ValueError("link diagrams have no boundary colors")
        return _fraction(self.smith, self.boundary)


def _fraction(smith: SmithForm, boundary: tuple[int, ...]) -> Fraction | NotInvariant:
    """The coloring fraction from the kernel rows of the boundary columns
    (see :func:`coloring_fraction`)."""
    nw, ne, _, se = (smith.kernel_row(a) for a in boundary)
    pairs = [(b - a, b - c) for a, b, c in zip(nw, ne, se)]
    pairs = [pair for pair in pairs if pair != (0, 0)]
    if not pairs:
        return NotInvariant(rank=0)
    x, y = pairs[0]
    if any(x * b != y * a for a, b in pairs):
        return NotInvariant(rank=2)
    return frac_normalize(x, y)


def color_solve_dihedral(d: Diagram, n: int) -> ColoringLattice:
    """Solve the dihedral coloring system mod n (n = 0: over the integers).

    Orientations are irrelevant: the dihedral operation is involutory.
    The nullity is at least the number of strands, so nontrivial
    colorings exist mod every n for diagrams with more than one strand.
    """
    if n < 0:
        raise ValueError("modulus must be >= 0")
    rows, arc_of, ncols = dihedral_relation_matrix(d)
    sf = smith_normal_form(rows, ncols)
    boundary = boundary_arcs(d, arc_of) if isinstance(d, TangleDiagram) else None
    return ColoringLattice(modulus=n, arc_count=ncols, smith=sf, boundary=boundary)


# Propagation gives up past this many seeds, and the record takes the
# Smith form of the whole relation matrix: a long sum of rationals needs a
# seed or two per summand, and its leftover relations, with coefficients
# that grow along the sum, take longer to eliminate than the sparse matrix
# (measured in-process on random sums of rationals: the two took about as
# long at 20 seeds).
# No benchmark workload reaches this many seeds, so the limit is unverified
# end to end.
_MAX_SEEDS = 16
# It also gives up when the colors in use, seeds times width bits on each
# of the k + 2 arcs, would pass this many bits (8 MiB).  On Fibonacci
# fractions F_n/F_(n+1), two seeds with coefficients near phi^k,
# propagation took no longer than the whole matrix up to 45 Mi bits
# (F_5800, 4,096-bit fields: 18.8 against 22.7 ms), and 1.3-1.9 times as
# long from 94 Mi bits on (F_6000, F_8000, F_12000; in-process, best of 7).
_PACKED_BITS = 1 << 26


class ColoringRecord:
    """What the coloring obstructions read of a tangle diagram, from its
    colors by propagation and one Smith form of the leftover relations
    (see the module docstring): the all-moduli c-coloring ``report``, the
    coloring ``fraction``, and the determinants ``det_numerator`` and
    ``det_denominator`` of its two closures' relation matrices, which
    :func:`determinant` returns once the closure's own crossing and loop
    checks pass."""

    __slots__ = ("report", "fraction", "det_numerator", "det_denominator")

    def __init__(self, t: TangleDiagram):
        smith = _boundary_smith(t)
        self.report = MonochromaticReport(smith)
        self.fraction = _fraction(smith, range(4))
        self.det_numerator = _closure_determinant(smith, ((_NW, _NE), (_SW, _SE)))
        self.det_denominator = _closure_determinant(smith, ((_NW, _SW), (_NE, _SE)))


def _boundary_smith(t: TangleDiagram) -> SmithForm:
    """The Smith form of t's relation matrix with v kept on the boundary
    ends NW, NE, SW, SE, rows 0-3: the dense form of the leftover
    relations over the seeds, or past the limits of propagation the
    sparse form of the whole matrix, every arc a seed."""
    found = _propagate(t)
    if found is None:
        rows, arc_of, ncols = dihedral_relation_matrix(t)
        return smith_normal_form(rows, ncols, lift=[{arc_of[e]: 1} for e in t.boundary])
    leftovers, ends, seeds = found
    return dense_smith_form(leftovers, seeds, ends)


def _propagate(t: TangleDiagram) -> tuple[list[list[int]], list[list[int]], int] | None:
    """Color t's arcs by propagation (see the module docstring): the
    leftover relations and the colors of the ends NW, NE, SW, SE, as
    dense rows of coefficients over the seeds, and the number of seeds.
    None past ``_MAX_SEEDS`` seeds, or past ``_PACKED_BITS`` (see there)."""
    mate = _ends(t)
    width = 64
    while (found := _paint(mate, width)) is None:
        width *= 2
    return found or None  # False: past the seeds or the bits


def _paint(mate: list[int], width: int):
    """:func:`_propagate` at one width; None when a painted color has a
    coefficient of magnitude 2^(width - 3) or more, and False when it
    needs more than ``_MAX_SEEDS`` seeds or when its k + 2 arcs' colors
    would pass ``_PACKED_BITS``.

    A color is packed into one integer, ``width`` bits per seed, with
    signed coefficients: seed j is ``1 << (j * width)``, and a painted
    color is computed from earlier ones as an integer.  While every
    coefficient has magnitude below 2^(width - 3), a painted color's are
    below 3 * 2^(width - 3) and a leftover's below 2^(width - 1), so each
    decodes exactly; adding 2^(width - 3) to every coefficient then puts
    each one in [0, 2^(width - 2)) exactly when it is in range, so the
    two top bits of every field of the sum are clear, which one mask
    tests.
    """
    k4 = len(mate) - 4
    k = k4 // 4
    color: list[int | None] = [None] * len(mate)
    done = [False] * k  # crossings that painted, or left their relation
    queue: list[int] = []  # crossings that gained a color
    push = queue.append
    sided: list[int] = []  # crossings seen with a colored side and no over color
    leftovers: list[int] = []
    seeds = 0
    low = high = 0  # 2^(width - 3) and the two top bits in each seed's field
    first = 0  # crossings before it are done

    def extend(y: int, c: int):
        """Paint the arc beyond end y: over every crossing it passes, and
        the end where it stops (an under port or a boundary end)."""
        z = mate[y]
        while z < k4 and z & 1 and color[z] is None:
            color[z] = color[z ^ 2] = c
            push(z >> 2)
            z = mate[z ^ 2]
        if color[z] is None:  # else a closed over-circle came back round
            color[z] = c
            if z < k4:
                push(z >> 2)

    while True:
        while queue:
            ci = queue.pop()
            if done[ci]:
                continue
            y = 4 * ci
            over, a, b = color[y + 1], color[y], color[y + 2]
            if over is None:
                if a is not None or b is not None:
                    sided.append(ci)
            elif a is not None and b is not None:
                done[ci] = True
                if r := 2 * over - a - b:
                    leftovers.append(r)
            elif a is not None or b is not None:
                # the unit pivot: the uncolored side is 2*over - the other
                done[ci] = True
                if a is None:
                    c = 2 * over - b
                else:
                    c = 2 * over - a
                    y += 2
                if (c + low) & high:
                    return None
                color[y] = c
                extend(y, c)
        # nothing propagates: a new seed on the over-arc of a pending
        # crossing, one with a colored side first, else on an under side,
        # else on a crossing-free strand
        while sided and color[4 * sided[-1] + 1] is not None:
            sided.pop()
        if sided:
            y = 4 * sided.pop() + 1
        else:
            while first < k and done[first]:
                first += 1
            if first < k:
                y = 4 * first + (color[4 * first + 1] is None)
            else:
                y = next((y for y in range(k4, k4 + 4) if color[y] is None), None)
                if y is None:
                    break
        if seeds == _MAX_SEEDS or (k + 2) * (seeds + 1) * width > _PACKED_BITS:
            return False
        c = 1 << (seeds * width)
        seeds += 1
        low += c << (width - 3)
        high += c * (3 << (width - 2))
        color[y] = c
        if y < k4:
            push(y >> 2)
            if y & 1:
                color[y ^ 2] = c
                extend(y ^ 2, c)
        extend(y, c)
    rows = [_unpack(r, width, seeds) for r in leftovers]
    return rows, [_unpack(color[y], width, seeds) for y in range(k4, k4 + 4)], seeds


def _unpack(x: int, width: int, seeds: int) -> list[int]:
    """The signed coefficients of a packed color over ``seeds`` seeds,
    each of magnitude below 2^(width - 1)."""
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    out = [0] * seeds
    j = 0
    while x:
        out[j] = c = ((x + half) & mask) - half
        x = (x - c) >> width
        j += 1
    return out


def _closure_determinant(smith: SmithForm, joins) -> int:
    """The torsion order of the cokernel with the classes of e_p - e_q
    set to zero for each join (p, q) of boundary arcs, when that leaves
    free rank one; else 0.

    In the common shape, no torsion and nullity two, the quotient is Z^2
    modulo the rows of the 2 x 2 join matrix: free rank one exactly when
    that matrix has rank one, and then its torsion order is the gcd of
    the entries.  With one torsion factor f and nullity two, it is Z^3
    modulo the rows (f, 0, 0), (a, b, c) and (x, y, z): free rank zero
    when their determinant f * (b*z - c*y) is not 0, else free rank one
    exactly when some 2 x 2 minor is not 0, and then its torsion order is
    the gcd of the 2 x 2 minors.  Other shapes take the quotient's Smith
    form."""
    v, rank = smith.v, smith.rank
    cols = [j for j, col in enumerate(v) if col is not None]
    joined = [[v[j].get(p, 0) - v[j].get(q, 0) for j in cols] for p, q in joins]
    if cols == [rank, rank + 1]:
        (a, b), (c, d) = joined
        return 0 if a * d != b * c else gcd(a, b, c, d)
    if len(cols) == 3 and cols[1:] == [rank, rank + 1]:
        f = smith.factors[cols[0]]
        (a, b, c), (x, y, z) = joined
        if f * (b * z - c * y):
            return 0
        return gcd(f * b, f * c, f * y, f * z, a * y - b * x, a * z - c * x)
    relations = [{i: smith.factors[j]} for i, j in enumerate(cols) if j < rank]
    relations += [{i: x for i, x in enumerate(row) if x} for row in joined]
    quotient = smith_normal_form(relations, len(cols), ())
    if len(cols) - quotient.rank != 1:
        return 0
    det = 1
    for d in quotient.factors:
        det *= d
    return det


def coloring_record(t: TangleDiagram) -> ColoringRecord:
    """t's coloring record, computed on first use and cached on t."""
    record = t._colorings
    if record is None:
        record = ColoringRecord(t)
        setfield(t, "_colorings", record)
    return record


# ---------------------------------------------------------------------------
# c-colorings and monochromaticity

class MonochromaticReport:
    """All-moduli summary of the c-colorings of a tangle, read from the
    Smith form of its plain relation matrix.

    Two dimensions of the nullity are the constants and the line of
    boundary colors; any more give c-colorings at every modulus
    (``all_moduli``), and each torsion factor adds them mod its primes
    (``offending_moduli``, factored on first read: trial division of a
    large prime factor takes far longer than the Smith form).
    ``r0_monochromatic`` means every integer c-coloring is constant.
    """

    __slots__ = ("c_trivial_for_all_n", "all_moduli", "r0_monochromatic",
                 "_torsion", "_primes")

    def __init__(self, smith: SmithForm):
        nullity = smith.cols - smith.rank
        self._torsion = [f for f in smith.factors if f > 1]
        self._primes = None
        self.all_moduli = nullity > 2
        self.r0_monochromatic = nullity == 2
        self.c_trivial_for_all_n = nullity == 2 and not self._torsion

    @property
    def offending_moduli(self) -> frozenset[int]:
        if self._primes is None:
            self._primes = frozenset().union(*map(_prime_divisors, self._torsion))
        return self._primes

    def polychromatic_somewhere(self) -> bool:
        return self.all_moduli or bool(self._torsion)


def _prime_divisors(n: int) -> set[int]:
    out = set()
    n = abs(n)
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def monochromatic_report(d: TangleDiagram) -> MonochromaticReport:
    """Classify the c-colorings of d across all moduli at once, from the
    Smith form of the plain relation matrix, read off d's coloring record.

    Exact for tangle diagrams that pass ``validate``, by dim(colorings) =
    1 + dim(c-colorings) over every field (see the module docstring).
    """
    return coloring_record(d).report


# ---------------------------------------------------------------------------
# coloring fraction

class NotInvariant(Value):
    """Returned when the boundary lattice mod constants has rank != 1."""

    __slots__ = ("rank",)

    def __init__(self, rank: int):
        setfield(self, "rank", rank)

    def __str__(self):
        return f"not invariant (boundary rank {self.rank})"


def coloring_fraction(d: TangleDiagram) -> Fraction | NotInvariant:
    """(NE - NW)/(NE - SE) of a generator of the integer boundary lattice.

    Each basis vector of the integer coloring lattice (read off d's
    coloring record) gives its boundary colors modulo the constants as
    the pair (NE - NW, NE - SE), by the alternating sum rule.  When these
    pairs span rank one the ratio is
    independent of the chosen element and is returned in lowest terms,
    with both infinite values collapsed to inf; otherwise NotInvariant
    carries the rank.  The rank is one for tangle diagrams that pass
    ``validate`` (see the module docstring).
    """
    return coloring_record(d).fraction


# ---------------------------------------------------------------------------
# finite quandle search

def color_search_finite(od: OrientedDiagram, q: FiniteQuandle) -> list[tuple[int, ...]]:
    """All colorings of an oriented diagram by a finite quandle.

    At each crossing the left under-arc, seen along the over-strand
    direction, must equal (right under-arc) * (over-arc).  Backtracking
    with unit propagation: a constraint with two known arcs forces the
    third through the operation or its right inverse, so only a few arcs
    are ever branched on.  The result is deterministic and sorted; it
    always contains the constant colorings.
    """
    d = od.base
    arc_of = arcs(d)
    ncols = len(set(arc_of.values()))
    if ncols == 0:
        return []
    constraints = []  # (z_arc, x_arc, y_arc): z = x * y
    for ci, c in enumerate(d.crossings):
        over_in = od.over_entry_slot(ci)
        x_arc = arc_of[c[(over_in + 1) % 4]]
        z_arc = arc_of[c[(over_in + 3) % 4]]
        y_arc = arc_of[c[over_in]]
        constraints.append((z_arc, x_arc, y_arc))
    # right inverse: inv[z][y] = the unique x with x * y = z
    m = q.size
    inv = [[0] * m for _ in range(m)]
    for x in range(m):
        for y in range(m):
            inv[q.op(x, y)][y] = x

    results = []
    color: list[int | None] = [None] * ncols

    def propagate(trail) -> bool:
        changed = True
        while changed:
            changed = False
            for z, x, y in constraints:
                cz, cx, cy = color[z], color[x], color[y]
                if cx is not None and cy is not None:
                    want = q.op(cx, cy)
                    if cz is None:
                        color[z] = want
                        trail.append(z)
                        changed = True
                    elif cz != want:
                        return False
                elif cz is not None and cy is not None:
                    want = inv[cz][cy]
                    if cx is None:
                        color[x] = want
                        trail.append(x)
                        changed = True
        return True

    def search():
        try:
            i = color.index(None)
        except ValueError:
            results.append(tuple(color))
            return
        for v in range(m):
            trail = [i]
            color[i] = v
            if propagate(trail):
                search()
            for j in trail:
                color[j] = None

    search()
    return sorted(results)


def nontrivial_c_colorings_finite(od: OrientedDiagram, q: FiniteQuandle) -> list[tuple[int, ...]]:
    """Colorings using more than one color with all boundary arcs equal."""
    d = od.base
    if not isinstance(d, TangleDiagram):
        raise ValueError("c-colorings are defined for tangles")
    arc_of = arcs(d)
    bnd = [arc_of[e] for e in d.boundary]
    out = []
    for coloring in color_search_finite(od, q):
        if len({coloring[i] for i in bnd}) == 1 and len(set(coloring)) > 1:
            out.append(coloring)
    return out


# ---------------------------------------------------------------------------
# determinant

def determinant(d: LinkDiagram, drop_row: int = 0, drop_col: int = 0) -> int:
    """Link determinant as a first minor of the dihedral relation matrix.

    The value is independent of which row and column are deleted.  The
    0-crossing unknot has determinant 1; diagrams with extra crossing-free
    loops, or with a component that never passes under, present a split
    picture and get determinant 0.  A closure built from a tangle whose
    coloring record exists already carries its determinant.
    """
    k = d.crossing_count
    if k == 0:
        return 1 if d.loops == 1 else 0
    if d.loops > 0:
        return 0
    if not (0 <= drop_row < k and 0 <= drop_col < k):
        raise ValueError("row/column to delete is out of range")
    if d._determinant is not None:
        return d._determinant
    rows, _, ncols = dihedral_relation_matrix(d)
    if ncols != k:
        # some component has no undercrossing and lifts off the diagram
        return 0
    # the dropped row replaced by the unit row at the dropped column: by
    # expansion along that row, its determinant is the minor up to sign
    rows[drop_row] = {drop_col: 1}
    return abs(integer_determinant(rows, k))
