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
"""

from __future__ import annotations

from .diagram import (
    Diagram,
    LinkDiagram,
    OrientedDiagram,
    TangleDiagram,
    UnionFind,
)
from .fraction import Fraction, frac_normalize
from .snf import SmithForm, integer_determinant, smith_normal_form
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
        over.union(c.ports[1], c.ports[3])
    edges = {e for c in d.crossings for e in c.ports}
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
    for c in d.crossings:
        p = c.ports
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
    Smith form gives the monochromatic report and the coloring fraction.
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

    def monochromatic_report(self) -> MonochromaticReport:
        """See :func:`monochromatic_report`."""
        return MonochromaticReport(self.smith)

    def coloring_fraction(self) -> Fraction | NotInvariant:
        """See :func:`coloring_fraction`."""
        pairs = []
        for v in self.basis:
            nw, ne, _, se = self.boundary_colors(v)
            if (ne - nw, ne - se) != (0, 0):
                pairs.append((ne - nw, ne - se))
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


# ---------------------------------------------------------------------------
# c-colorings and monochromaticity

class MonochromaticReport:
    """All-moduli summary of the c-colorings of a tangle, read from the
    Smith form of its plain relation matrix.

    Two dimensions of the nullity are the constants and the line of
    boundary colors; any more give c-colorings at every modulus
    (``all_moduli``), and each torsion factor adds them mod its primes
    (``offending_moduli``).  ``r0_monochromatic`` means every integer
    c-coloring is constant.
    """

    __slots__ = ("c_trivial_for_all_n", "offending_moduli", "all_moduli",
                 "r0_monochromatic")

    def __init__(self, smith: SmithForm):
        nullity = smith.cols - smith.rank
        torsion = [f for f in smith.factors if f > 1]
        self.offending_moduli = frozenset().union(*map(_prime_divisors, torsion))
        self.all_moduli = nullity > 2
        self.r0_monochromatic = nullity == 2
        self.c_trivial_for_all_n = nullity == 2 and not torsion

    def polychromatic_somewhere(self) -> bool:
        return self.all_moduli or bool(self.offending_moduli)


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
    """Classify the c-colorings of d across all moduli at once, from one
    Smith form of the plain relation matrix without transforms.

    Exact for tangle diagrams that pass ``validate``, by dim(colorings) =
    1 + dim(c-colorings) over every field (see the module docstring).
    """
    rows, _, ncols = dihedral_relation_matrix(d)
    return MonochromaticReport(smith_normal_form(rows, ncols, transforms=False))


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

    Each basis vector of the integer coloring lattice (one Smith form,
    with its column transform) gives its boundary colors modulo the
    constants as the pair (NE - NW, NE - SE), by the alternating sum rule.
    When these pairs span rank one the ratio is independent of the chosen
    element and is returned in lowest terms, with both infinite values
    collapsed to inf; otherwise NotInvariant carries the rank.  The rank
    is one for tangle diagrams that pass ``validate`` (see the module
    docstring).
    """
    return color_solve_dihedral(d, 0).coloring_fraction()


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
        x_arc = arc_of[c.ports[(over_in + 1) % 4]]
        z_arc = arc_of[c.ports[(over_in + 3) % 4]]
        y_arc = arc_of[c.ports[over_in]]
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
    picture and get determinant 0.
    """
    k = d.crossing_count
    if k == 0:
        return 1 if d.loops == 1 else 0
    if d.loops > 0:
        return 0
    rows, _, ncols = dihedral_relation_matrix(d)
    if ncols != k:
        # some component has no undercrossing and lifts off the diagram
        return 0
    if not (0 <= drop_row < k and 0 <= drop_col < ncols):
        raise ValueError("row/column to delete is out of range")
    del rows[drop_row]
    # columns past drop_col move one to the left, so keys stay in order
    minor = [{j - (j > drop_col): x for j, x in row.items() if j != drop_col}
             for row in rows]
    return abs(integer_determinant(minor, k - 1))
