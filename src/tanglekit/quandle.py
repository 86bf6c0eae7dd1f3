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

A diagram's relation matrix M is eliminated the way one colors by hand,
propagating colors from a few free arcs, as Kauffman and Lambropoulou
(*On the classification of rational tangles*, 2004) read a rational
tangle's fraction: a tangle's for its :class:`ColoringRecord`, a link's
for its :func:`determinant`.

* Unit pivots.  A color is an integer vector over the seeds, the arcs
  left free.  A crossing whose over-arc and one under side are colored
  paints the other side 2*over - side, along its arc and over every
  crossing that arc passes: the relation has coefficient -1 there.  When
  nothing propagates, the over-arc of a pending crossing, one with a
  colored side first, becomes a new seed (else an under side, and last
  the end of a crossing-free strand of a tangle).  A crossing whose three
  arcs are colored already leaves its relation 2*over - a - b in seed
  coordinates.
* Leftover relations.  Each painted arc and the crossing that painted it
  pair off in a triangular block with unit diagonal, so M is equivalent
  to the identity on that block beside L, the leftover relations over
  the seeds: M's invariant factors above 1, its nullity and its
  cokernel are L's, and the class of e_p below is that of arc p's
  color, a row over the seeds, modulo L's rows.  So only L takes a Smith
  form, and for a tangle its column operations act on the boundary
  line's two rows of colors in place of v's rows.  On the sums of 2-5
  rationals measured, L was 1-6 rows over 3-8 seeds, two rows fewer than
  seeds, dense, with entries up to about 10^6 and seldom a unit, so it
  takes :func:`tanglekit.snf.dense_smith_form`, extended-gcd steps on
  plain lists; only the whole matrix M goes to the sparse core.
* Width.  A color is packed into one integer, a signed coefficient in a
  field of ``width`` bits per seed, so painting is one integer
  expression.  A painted color is 2*over - side of earlier ones, so
  coefficients stay below 3^k and a leftover's below 4 * 3^k.  The width
  starts at 64 bits and doubles whenever a mask test finds a coefficient
  out of range, so it stops doubling once it reaches 2k + 6.  Past 16
  seeds (a long sum of rationals needs one or two per summand), or once
  the colors in use, seeds times width bits on each arc, would pass 8 MiB,
  the record takes M itself: every arc a seed, every relation left over;
  a link's determinant then eliminates the (0, 0) minor of M with the
  sparse core.  ``_MAX_SEEDS`` and ``_PACKED_BITS`` say what each limit
  rests on.
* Link determinants.  A link has ports but no boundary ends, so L takes
  its Smith form with no lifted rows.  M has k rows, and the constants
  lie in its kernel.  On a planar diagram all first minors of M agree up
  to sign, so each is up to sign their gcd, the product of M's first
  k - 1 invariant factors: the product of L's factors when M's nullity,
  seeds less L's rank, is one, and 0 when it is more.  A component that
  never passes under closes into an arc of its own, beyond the k arcs
  that end at the crossings' under sides, so the nullity is at least two
  and the determinant 0, that of the split picture it lifts off to.

With the column transform v of M's Smith form kept on the boundary
line, the two rows e_NE - e_NW and e_NE - e_SE, the record answers
these questions and gives both closure determinants too:

* Report and fraction.  The report reads M's nullity and torsion, and
  the fraction the pairs (NE - NW, NE - SE) of M's integer kernel, the
  line's entries on the free columns of v.
* The cokernel.  Let A be Z^arcs modulo the row space of M.  The Smith
  form splits it as Z/d_j for each invariant factor d_j > 1 and Z for each
  free column of v, and the class of a row w has coordinate (w v)_j in
  the summand of column j.  Its free rank is M's nullity.
* The sum rule.  On a planar diagram every coloring mod every n lifts to
  Dehn labels of the regions, and a boundary arc's color is the sum of
  the labels of the two outer regions beside it, so NW - NE - SW + SE
  cancels around the disk.  A homomorphism from A to Z/n is a coloring
  mod n, and every nonzero class of the finitely generated A is nonzero
  under one of them, so e_NW - e_NE - e_SW + e_SE is zero in A.
* Closure determinants.  N(T) and D(T) have T's crossings and T's arcs
  with the boundary arcs fused: NW with NE and SW with SE for N(T), NW
  with SW and NE with SE for D(T).  So the closure's relation matrix is M
  with those columns added together, and its cokernel is A with the
  classes of e_NW - e_NE and e_SW - e_SE (for D(T), e_NW - e_SW and
  e_NE - e_SE) set to zero.  By the sum rule the two classes agree, so
  one relation r is enough, the line's row NE - NW for N(T) and NE - SE
  for D(T).  All first minors of a link's coloring matrix agree up to
  sign, so the determinant of a closure of k crossings is their gcd, the
  product of the first k - 1 invariant factors: the order of the
  quotient's torsion when its free rank, the closure's nullity, is one,
  and 0 when it is more.  Take the t invariant factors f_i > 1, P their
  product, and m = M's nullity.  The quotient is Z^(t + m) modulo the
  rows f_i e_i and r, whose free part a lies on the m free columns, so
  its free rank is m less the rank of a.  M has k rows and at least
  k + 2 arcs, so m is at least two, and free rank one needs m = 2 and
  a != 0.  The torsion order is then the gcd of the (t + 1)-square
  minors: one that leaves out a torsion column keeps the row f_i e_i
  with no entry and is 0, and the one that leaves out free column j is
  P a_(1 - j).  So det N(T) is P gcd(a_0, a_1) on the line's NE - NW
  entries and det D(T) the same on its NE - SE entries; a gcd of zeros
  is 0, as is every other nullity, and the closures take no Smith form.
  A closure with more arcs than crossings has a component that
  never passes under, which lifts off as a split component, so its
  nullity is at least two and its determinant 0 here as well.
  :func:`determinant` still runs the closure's own crossing and loop
  checks first: a crossing-free strand closes into a loop that the
  matrix does not see.
"""

from __future__ import annotations

from math import gcd, prod

from .diagram import Diagram, LinkDiagram, TangleDiagram, UnionFind, _ends
from .fraction import Fraction, frac_normalize
from .snf import SmithForm, dense_smith_form, integer_determinant, smith_normal_form
from .value import Value, setfield


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


def color_solve_dihedral(d: Diagram) -> SmithForm:
    """The Smith form of d's dihedral relation matrix, with all of its
    column transform: ``solutions_mod(n)`` counts the colorings mod n and
    ``kernel_basis_mod(n)`` generates them, and ``kernel_basis()`` and
    ``factors`` give the integer coloring lattice.  Each crossing-free
    loop is an arc on no relation, a free column after the edge arcs.

    Orientations are irrelevant: the dihedral operation is involutory.
    The nullity is at least the number of strands and loops, so
    nontrivial colorings exist mod every n for diagrams with more than
    one.
    """
    rows, _, ncols = dihedral_relation_matrix(d)
    return smith_normal_form(rows, ncols + d.loops)


# Propagation gives up past this many seeds, and the record takes the
# Smith form of the whole relation matrix (a link's determinant, the
# elimination of its first minor): a long sum of rationals needs a seed
# or two per summand.  The seed count alone does not say which is
# faster (in-process, best of 5, Python 3.11 on a 2-CPU Xeon): on
# repeated 1/3 + -2/5 + 3/7 propagation took 0.4-0.7 times as long from 4
# to 301 seeds, on repeated 1/3 as long at 31 seeds, 1.8 times as long at
# 61 and 4.2 times at 101, its leftover coefficients growing along the sum.
# No benchmark workload reaches this many seeds, so the limit is unverified
# end to end.
_MAX_SEEDS = 16
# It also gives up when the colors in use, seeds times width bits on each
# arc (k + 2 of a tangle, k of a link), would pass this many bits
# (8 MiB).  On Fibonacci fractions F_n/F_(n+1), two seeds with
# coefficients near phi^k, propagation took no longer than the whole
# matrix up to 45 Mi bits (F_5800, 4,096-bit fields: 18.8 against
# 22.7 ms), and 1.3-1.9 times as long from 94 Mi bits on (F_6000, F_8000,
# F_12000; in-process, best of 7).
_PACKED_BITS = 1 << 26


class ColoringRecord:
    """What the coloring obstructions read of a tangle diagram, from its
    colors by propagation and one Smith form of the leftover relations
    (see the module docstring): the all-moduli c-coloring ``report``, and
    from the boundary line the coloring ``fraction`` and the determinants
    ``det_numerator`` and ``det_denominator`` of its two closures'
    relation matrices, which :func:`determinant` returns once the
    closure's own crossing and loop checks pass."""

    __slots__ = ("report", "fraction", "det_numerator", "det_denominator")

    def __init__(self, t: TangleDiagram):
        smith = _boundary_smith(t)
        self.report = MonochromaticReport(smith)
        self.fraction, self.det_numerator, self.det_denominator = _boundary_answers(smith)


def _boundary_smith(t: TangleDiagram) -> SmithForm:
    """The Smith form of t's relation matrix with v kept on the boundary
    line, the rows NE - NW and NE - SE, rows 0 and 1: the dense form of
    the leftover relations over the seeds, lifting the differences of the
    boundary ends' colors, or past the limits of propagation the sparse
    form of the whole matrix, every arc a seed.  A row is empty when its
    two ends lie on one arc."""
    found = _propagate(t)
    if found is None:
        rows, arc_of, ncols = dihedral_relation_matrix(t)
        nw, ne, _, se = (arc_of[e] for e in t.boundary)
        line = [{ne: 1, end: -1} if end != ne else {} for end in (nw, se)]
        return smith_normal_form(rows, ncols, lift=line)
    leftovers, (nw, ne, _, se), seeds = found
    line = [[b - a for a, b in zip(end, ne)] for end in (nw, se)]
    return dense_smith_form(leftovers, seeds, line)


def _boundary_answers(smith: SmithForm) -> tuple[Fraction | NotInvariant, int, int]:
    """The coloring fraction (see :func:`coloring_fraction`) and the
    determinants of N(T) and D(T) (see the module docstring), read off
    the kernel basis on the lifted boundary line: a pair (NE - NW,
    NE - SE) per free column."""
    kernel = smith.kernel_basis()
    if len(kernel) == 2:
        torsion = prod(smith.factors)
        dets = tuple(torsion * gcd(*entries) for entries in zip(*kernel))
    else:
        dets = 0, 0
    pairs = [pair for pair in kernel if any(pair)]
    if not pairs:
        return NotInvariant(rank=0), *dets
    x, y = pairs[0]
    if any(x * b != y * a for a, b in pairs):
        return NotInvariant(rank=2), *dets
    return frac_normalize(x, y), *dets


def _propagate(d: Diagram) -> tuple[list[list[int]], list[list[int]], int] | None:
    """Color d's arcs by propagation (see the module docstring): the
    leftover relations and the colors of the boundary ends (NW, NE, SW,
    SE of a tangle, none of a link), as dense rows of coefficients over
    the seeds, and the number of seeds.  None past ``_MAX_SEEDS`` seeds,
    or past ``_PACKED_BITS`` (see there)."""
    mate = _ends(d)
    k4 = 4 * len(d.crossings)
    width = 64
    while (found := _paint(mate, k4, width)) is None:
        width *= 2
    return found or None  # False: past the seeds or the bits


def _paint(mate: list[int], k4: int, width: int):
    """:func:`_propagate` at one width, for the ends ``mate`` of a
    diagram whose ports are the ends below k4; None when a painted color
    has a coefficient of magnitude 2^(width - 3) or more, and False when
    it needs more than ``_MAX_SEEDS`` seeds or when its arcs' colors
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
    k = k4 // 4
    arcs = k + (len(mate) - k4) // 2  # k + 2 for a tangle, k for a link
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
                y = next((y for y in range(k4, len(mate)) if color[y] is None), None)
                if y is None:
                    break
        if seeds == _MAX_SEEDS or arcs * (seeds + 1) * width > _PACKED_BITS:
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
    return rows, [_unpack(color[y], width, seeds) for y in range(k4, len(mate))], seeds


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
    (``offending_moduli``, factored on first read, by trial division up
    to ``_TRIAL_DIVISION_BOUND``).  A cofactor left over above the square
    of that bound is reported unfactored: it is a product of primes that
    all exceed the bound, and every divisor above 1 of a torsion factor
    is a modulus with nontrivial c-colorings too.
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


# Trial division stops here: a cofactor with no divisor below the bound,
# the worst case, costs 2**15 odd trial divisors, a few milliseconds, and
# every torsion factor below 2**32 is still factored completely.
_TRIAL_DIVISION_BOUND = 1 << 16


def _prime_divisors(n: int) -> set[int]:
    """The prime divisors of n up to the trial-division bound, and the
    cofactor left over: a prime when it is at most the bound squared,
    else a product of larger primes, kept whole."""
    out = set()
    n = abs(n)
    p = 2
    while p * p <= n and p <= _TRIAL_DIVISION_BOUND:
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
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
# determinant

def determinant(d: LinkDiagram) -> int:
    """Link determinant, the absolute value of a first minor of the
    dihedral relation matrix; every first minor agrees up to sign.  The
    0-crossing unknot has determinant 1; diagrams with extra crossing-free
    loops, or with a component that never passes under, present a split
    picture and get determinant 0.  A closure built from a tangle whose
    coloring record exists already carries its determinant.

    Otherwise d's arcs are colored by propagation, as a tangle's record
    colors them (see the module docstring), and the dense Smith form of
    the leftover relations gives the matrix's invariant factors above 1
    and its nullity, seeds less rank: the determinant is the product of
    the factors when the nullity is 1, and 0 when it is more.  Past the
    limits of propagation the (0, 0) minor is eliminated with the sparse
    core instead.
    """
    k = d.crossing_count
    if k == 0:
        return 1 if d.loops == 1 else 0
    if d.loops > 0:
        return 0
    if d._determinant is not None:
        return d._determinant
    found = _propagate(d)
    if found is not None:
        leftovers, _, seeds = found
        smith = dense_smith_form(leftovers, seeds, [])
        return prod(smith.factors) if seeds - smith.rank == 1 else 0
    rows, _, ncols = dihedral_relation_matrix(d)
    if ncols != k:
        # some component has no undercrossing and lifts off the diagram
        return 0
    # row 0 replaced by the unit row e_0: by expansion along that row,
    # its determinant is the (0, 0) minor
    rows[0] = {0: 1}
    return integer_determinant(rows, k)
