"""Slow reference implementations that the fast library paths are tested
against."""

from collections import Counter
from fractions import Fraction as QQ
from itertools import product
from math import comb

from tanglekit.diagram import (
    _CIRCLE_POS,
    _SE,
    BOUNDARY_LABELS,
    DiagramError,
    LinkDiagram,
    OrientedDiagram,
    TangleDiagram,
    UnionFind,
    _ends,
    horizontal_twists,
    infinity_tangle,
    orient,
    renumber,
    strands,
    tangle_product,
    tangle_sum,
    vertical_twists,
    walk,
    zero_tangle,
)
from tanglekit.fraction import continued_fraction, frac_add, frac_normalize
from tanglekit.laurent import LaurentPoly
from tanglekit.quandle import (
    NotInvariant,
    arcs,
    color_solve_dihedral,
    coloring_fraction,
    dihedral_relation_matrix,
)
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
    for p in d.crossings:
        a_pairs.append(((p[0], p[1]), (p[2], p[3])))
        b_pairs.append(((p[0], p[3]), (p[1], p[2])))

    edges = sorted({e for c in d.crossings for e in c})
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


def greedy_contraction_order(d: LinkDiagram) -> list[int]:
    """Crossings in greedy order: next, the one sharing most edges with the
    open boundary of those already taken (lowest index on ties), every
    crossing rescored at every step."""
    open_edges: set[int] = set()
    left = list(range(d.crossing_count))
    order = []
    while left:
        ci = max(left, key=lambda i: (
            sum(e in open_edges for e in d.crossings[i]), -i))
        left.remove(ci)
        order.append(ci)
        for e in d.crossings[ci]:
            open_edges ^= {e}
    return order


def tally_contraction_bracket(d: LinkDiagram) -> LaurentPoly:
    """Kauffman bracket by crossing-by-crossing contraction in the greedy
    order, with a dict of (a - b, closed circles) counts per matching of
    the open edges; no crossing budget."""
    if d.crossing_count == 0 and d.loops == 0:
        raise ValueError("bracket of the empty diagram is undefined")

    # matching (sorted (edge, partner) pairs, both directions) ->
    # {(a - b, closed circles): number of partial states}
    states: dict[tuple, dict[tuple[int, int], int]] = {(): {(0, 0): 1}}
    for ci in greedy_contraction_order(d):
        p = d.crossings[ci]
        smoothings = ((((p[0], p[1]), (p[2], p[3])), 1),
                      (((p[0], p[3]), (p[1], p[2])), -1))
        merged: dict[tuple, dict[tuple[int, int], int]] = {}
        for matching, tally in states.items():
            for arcs, step in smoothings:
                partner = dict(matching)
                closed = 0
                for x, y in arcs:
                    # far ends of the paths at x and y; a fresh edge is its
                    # own far end and stays open
                    fx = partner.pop(x, x)
                    fy = partner.pop(y, y)
                    if fx == y:
                        closed += 1
                    else:
                        partner[fx] = fy
                        partner[fy] = fx
                out = merged.setdefault(tuple(sorted(partner.items())), {})
                for (a_exp, circles), mult in tally.items():
                    key = (a_exp + step, circles + closed)
                    out[key] = out.get(key, 0) + mult
        states = merged
    if set(states) != {()}:
        raise ValueError("diagram has edges with an unmatched end")

    # delta^n = (-A^2 - A^-2)^n = (-1)^n sum_k C(n, k) A^(2n - 4k)
    terms: dict[int, int] = {}
    for (a_exp, circles), mult in states[()].items():
        n = circles + d.loops - 1
        signed = -mult if n % 2 else mult
        for k in range(n + 1):
            e = a_exp + 2 * n - 4 * k
            terms[e] = terms.get(e, 0) + signed * comb(n, k)
    return LaurentPoly.make("A", terms)


def two_pass_glue(parts, joins, outer=None):
    """``diagram._glue`` as two passes: fuse the shifted copies through a
    union-find into a diagram labeled by class roots, then ``renumber``
    it."""
    crossings, ends, loops = [], [], 0
    offset = 0
    for d in parts:
        ids = [e for c in d.crossings for e in c] + list(d.boundary)
        shift = offset - min(ids)
        crossings += [[e + shift for e in c] for c in d.crossings]
        ends.append([e + shift for e in d.boundary])
        loops += d.loops
        offset = max(ids) + shift + 1
    edges = UnionFind()
    for (i, a), (j, b) in joins:
        if not edges.union(ends[i][a], ends[j][b]):
            loops += 1
    crossings = tuple(tuple(map(edges.find, c)) for c in crossings)
    if outer is None:
        return renumber(LinkDiagram(crossings, loops))
    boundary = tuple(edges.find(ends[i][a]) for i, a in outer)
    return renumber(TangleDiagram(crossings, boundary, loops))


def block_by_block_rational(f) -> TangleDiagram:
    """``diagram.from_rational`` one block at a time: each twist block is
    summed or stacked onto a copy of the tangle built so far (quadratic
    in the number of blocks), and the result is renumbered."""
    if f.is_infinite:
        return infinity_tangle()
    entries = continued_fraction(f)
    m = len(entries)
    t = None
    for i, c in enumerate(entries, start=1):
        horizontal = (m - i) % 2 == 0
        if c == 0:
            if t is None:
                t = zero_tangle() if horizontal else infinity_tangle()
            continue
        block = horizontal_twists(c) if horizontal else vertical_twists(c)
        if t is None:
            t = block
        elif horizontal:
            t = tangle_sum(t, block)
        else:
            t = tangle_product(t, block)
    return renumber(t)


def scan_unknotting_closure(f, wide=False):
    """``fraction.unknotting_closure`` as a full scan: every s in [0, q]
    (``wide``: up to max(q, |p|)), keeping the least (s, |r|) with
    p*s + r*q = +-1, +1 before -1 on ties."""
    p, q = f.num, f.den
    best = None
    for s in range(0, max(q, abs(p) if wide else 0, 1) + 1):
        for target in (1, -1):
            rest = target - p * s
            if q == 0:
                if rest != 0:
                    continue
                r = 0
            else:
                if rest % q != 0:
                    continue
                r = rest // q
            cand = (s, abs(r))
            if best is None or cand < best[0]:
                best = (cand, frac_normalize(r, s))
    return best[1]


def ends_by_edge(d) -> list[int]:
    """``diagram._ends`` from each edge's list of ends, for diagrams
    whose every edge has two."""
    at = [e for c in d.crossings for e in c]
    if isinstance(d, TangleDiagram):
        at += d.boundary
    held: dict[int, list[int]] = {}
    for y, e in enumerate(at):
        held.setdefault(e, []).append(y)
    mate = [0] * len(at)
    for x, y in held.values():
        mate[x], mate[y] = y, x
    return mate


def traced_faces(mate: list[int], k4: int) -> list[list[int]]:
    """Faces as orbits on ends, the turn computed at each step: go along
    the edge, then to the next port counterclockwise; a boundary end
    wraps around."""
    seen = [False] * len(mate)
    faces = []
    for y in range(len(mate)):
        face = []
        while not seen[y]:
            seen[y] = True
            face.append(y)
            y = mate[y]
            if y < k4:
                y = (y & ~3) | ((y + 1) & 3)
        if face:
            faces.append(face)
    return faces


def open_strand_endpoints(d: TangleDiagram) -> list[tuple[str, str]]:
    """The endpoint pairing of the two open strands, labels sorted."""
    mate = _ends(d)
    k4 = 4 * len(d.crossings)
    return sorted(tuple(sorted((BOUNDARY_LABELS[s[0] - k4],
                                BOUNDARY_LABELS[mate[s[-1]] - k4])))
                  for s in strands(d) if s[0] >= k4)


def union_find_validate(d) -> str | None:
    """``diagram.validate`` with the pieces found by a union-find over the
    crossings and boundary ends and counted with one ``Counter`` each for
    vertices, ends and faces; a tangle's negative loop count reads as a
    closed component."""
    try:
        mate = _ends(d)
    except DiagramError as err:
        return str(err)
    if isinstance(d, LinkDiagram):
        if d.crossing_count == 0 and d.loops == 0:
            return "empty diagram"
        if d.loops < 0:
            return "negative loop count"
    elif d.loops:
        return "closed component in tangle"

    k4 = 4 * len(d.crossings)
    node = [y >> 2 if y < k4 else y for y in range(len(mate))]
    pieces = UnionFind()
    for y, z in enumerate(mate):
        if y < z:
            pieces.union(node[y], node[z])
    faces = traced_faces(mate, k4)
    piece = {v: pieces.find(v) for v in set(node)}
    vertices = Counter(piece.values())
    ends = Counter(map(piece.__getitem__, node))
    face_count = Counter(piece[node[f[0]]] for f in faces)
    if any(2 * n - ends[p] + 2 * face_count[p] != 4 for p, n in vertices.items()):
        return "planarity: Euler count fails"

    if isinstance(d, TangleDiagram):
        st = strands(d)
        if len(st) > 2:
            return "closed component in tangle"
        if len({piece[y] for y in range(k4, k4 + 4)}) == 1:
            for face in faces:
                pos = [_CIRCLE_POS[y - k4] for y in face if y >= k4]
                steps = {(b - a) % 4 for a, b in zip(pos, pos[1:] + pos[:1])}
                if len(pos) == 4 and steps == {3}:
                    return None
            return "boundary order: endpoints not in the order NW, SW, SE, NE on one face"
        if mate[st[0][-1]] == k4 + _SE:
            return "planarity: boundary chords interleave"
    return None


def jones_at_minus_one(poly: LaurentPoly) -> int:
    """|V(-1)| via sqrt_t = i; defined for knots (imaginary part vanishes)."""
    if poly.var != "sqrt_t":
        raise ValueError("expected a Jones polynomial in sqrt_t")
    re, im = poly.substitute_gaussian(QQ(0), QQ(1))
    if im != 0:
        raise ValueError("V(-1) is not real; restrict the check to knots")
    if re.denominator != 1:
        raise AssertionError("V(-1) must be an integer")
    return abs(int(re))


def disjoint_union(d1: LinkDiagram, d2: LinkDiagram) -> LinkDiagram:
    """Distant union of two link diagrams."""
    offset = max((e for c in d1.crossings for e in c), default=-1) + 1
    moved = tuple(tuple(e + offset for e in c) for c in d2.crossings)
    return LinkDiagram(crossings=d1.crossings + moved, loops=d1.loops + d2.loops)


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
    columns = [{i: v[i][j] for i in range(cols) if v[i][j]} for j in range(cols)]
    return SmithForm(factors=factors, rank=len(factors), v=columns, cols=cols, lifted=cols)


def check_smith_form(a: list[list[int]], sf: SmithForm):
    """Assert what a Smith form of a must satisfy without its row transform:
    the oracle's factors and rank, no column of v kept for a unit factor,
    a @ v zero on the free columns and divisible by d_j on the column of
    each d_j > 1, kept columns that extend to a unimodular matrix (taken
    together, invariant factors all 1), and as many free columns as the
    nullity, so that they span the whole integer kernel."""
    oracle = dense_smith_normal_form(a)
    assert sf.factors == oracle.factors and sf.rank == oracle.rank, a
    assert all((col is None) == (j < sf.rank and sf.factors[j] == 1)
               for j, col in enumerate(sf.v)), a
    if not a or not a[0]:
        return
    for j, col in enumerate(sf.v):
        if col is None:
            continue
        d = sf.factors[j] if j < sf.rank else 0
        for row in a:
            x = sum(row[i] * y for i, y in col.items())
            assert (x % d == 0) if d else x == 0, a
    kept = [[col.get(i, 0) for i in range(sf.cols)] for col in sf.v if col is not None]
    if kept:
        spanned = dense_smith_normal_form(kept)
        assert spanned.rank == len(kept) and set(spanned.factors) == {1}, a
    assert len(sf.kernel_basis()) == sf.cols - sf.rank, a


def quotient_determinant(smith: SmithForm, joins) -> int:
    """The determinant of the closure that joins each pair (p, q) of
    boundary arcs, for a Smith form kept on the four rows NW, NE, SW, SE,
    by the dense Smith form of the quotient: a relation d_j e_j per
    torsion factor, and the joined rows e_p - e_q of the kept columns of
    v, one per join.  It reads no sum rule, so it takes the shapes that
    break one too."""
    v, rank = smith.v, smith.rank
    cols = [j for j, col in enumerate(v) if col is not None]
    relations = [[smith.factors[j] if i == t else 0 for i in range(len(cols))]
                 for t, j in enumerate(cols) if j < rank]
    relations += [[v[j].get(p, 0) - v[j].get(q, 0) for j in cols] for p, q in joins]
    quotient = dense_smith_normal_form(relations)
    if len(cols) - quotient.rank != 1:
        return 0
    det = 1
    for d in quotient.factors:
        det *= d
    return det


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


def c_constrained_matrix(d: TangleDiagram) -> tuple[list[dict[int, int]], int]:
    """The crossing relations plus rows forcing all boundary arcs equal,
    sparse as in ``dihedral_relation_matrix``: its solutions are the
    c-colorings."""
    rows, arc_of, ncols = dihedral_relation_matrix(d)
    first, *others = sorted({arc_of[e] for e in d.boundary})
    rows += [{first: 1, other: -1} for other in others]
    return rows, ncols


def has_nontrivial_c_coloring(d: TangleDiagram, n: int) -> bool:
    """Is there a mod-n c-coloring using more than one color (n >= 2)?"""
    rows, ncols = c_constrained_matrix(d)
    return smith_normal_form(rows, ncols).solutions_mod(n) > n


def prime_factors(n: int) -> set[int]:
    """The primes dividing n >= 1, by trial division."""
    out, p = set(), 2
    while n > 1:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    return out


def c_constrained_report(d: TangleDiagram) -> tuple[bool, set[int], bool, bool]:
    """``monochromatic_report``'s (c_trivial_for_all_n, offending_moduli,
    all_moduli, r0_monochromatic) read from the c-constrained matrix: its
    nullity counts the integer c-colorings, the constants included, and
    each torsion factor adds c-colorings mod its primes."""
    rows, ncols = c_constrained_matrix(d)
    sf = smith_normal_form(rows, ncols)
    nullity = ncols - sf.rank
    torsion = [f for f in sf.factors if f > 1]
    primes = set().union(*(prime_factors(f) for f in torsion))
    return nullity == 1 and not torsion, primes, nullity >= 2, nullity == 1


def whole_matrix_fraction(t: TangleDiagram):
    """The coloring fraction read off the integer kernel basis of t's
    whole relation matrix at its boundary arcs: no color propagation, no
    dense form and no lifted rows.  The pairs (NE - NW, NE - SE) of the
    basis span a lattice of rank 0, 1 or 2, and the fraction is their
    common ratio when the rank is 1."""
    arc_of = arcs(t)
    nw, ne, _, se = (arc_of[e] for e in t.boundary)
    pairs = {(x[ne] - x[nw], x[ne] - x[se]) for x in color_solve_dihedral(t).kernel_basis()}
    pairs.discard((0, 0))
    if not pairs:
        return NotInvariant(rank=0)
    (x, y), *others = pairs
    if any(x * b != y * a for a, b in others):
        return NotInvariant(rank=2)
    return frac_normalize(x, y)


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


def restarting_absorb_integrals(items: list) -> list:
    """Integral summands absorbed one merge at a time, rescanning the list
    from the start after each merge."""
    from tanglekit.expr import _Item, rational_leaf_verdict
    from tanglekit.fraction import frac_add_integral

    out = list(items)
    changed = True
    while changed:
        changed = False
        for i, it in enumerate(out):
            if it.rational is None or not it.rational.is_integral:
                continue
            for j, other in enumerate(out):
                if i == j or other.rational is None or other.rational.is_infinite:
                    continue
                merged = frac_add_integral(other.rational, it.rational.num)
                out[j] = _Item(rational=merged, verdict=rational_leaf_verdict(merged),
                               essential=False, label=str(merged))
                del out[i]
                changed = True
                break
            if changed:
                break
    return out


# ---------------------------------------------------------------------------
# finite quandles, by exhaustive search; a table is a tuple of rows, and
# x * y is table[x][y]

# The Alexander quandle x * y = w x + (1 + w) y on GF(4) = {0, 1, w, w^2},
# numbered in that order: not involutory, so its colorings tell the
# orientations of a diagram apart.
GF4_TABLE = ((0, 3, 1, 2), (2, 1, 3, 0), (3, 0, 2, 1), (1, 2, 0, 3))


def quandle_check(table) -> str | None:
    """None if the table is a quandle, else a message naming the first
    violated axiom with a witness."""
    m = len(table)
    for row in table:
        if len(row) != m or any(not (0 <= x < m) for x in row):
            return f"malformed table: expected {m} entries in 0..{m - 1} per row"
    for x in range(m):
        if table[x][x] != x:
            return f"idempotence fails: {x} * {x} = {table[x][x]}"
    for y in range(m):
        if len({table[x][y] for x in range(m)}) != m:
            return f"right translation by {y} is not a bijection"
    for x, y, z in product(range(m), repeat=3):
        left = table[table[x][y]][z]
        right = table[table[x][z]][table[y][z]]
        if left != right:
            return (f"self-distributivity fails at ({x}, {y}, {z}): "
                    f"({x}*{y})*{z} = {left} != {right}")
    return None


def dihedral_table(n: int) -> tuple[tuple[int, ...], ...]:
    """The dihedral quandle R_n: x * y = 2y - x mod n."""
    return tuple(tuple((2 * y - x) % n for y in range(n)) for x in range(n))


def is_involutory(table) -> bool:
    m = len(table)
    return all(table[table[x][y]][y] == x for x in range(m) for y in range(m))


def all_orientations(d) -> list[OrientedDiagram]:
    """The 2^s orientations of a diagram of s strands."""
    s = len(walk(d).strands)
    return [orient(d, bits) for bits in product((False, True), repeat=s)]


def over_entry_slot(od: OrientedDiagram, ci: int) -> int:
    """The slot at which the over-strand enters crossing ci."""
    return 1 if 4 * ci + 1 in od.heads else 3


def crossing_sign(od: OrientedDiagram, ci: int) -> int:
    """+1 when the under-strand passes right-to-left seen along the
    over-strand direction; that is, under enters one slot
    counterclockwise from the over entry.  The reference for the bit rule
    of ``bracket._signs``."""
    under_in = (over_entry_slot(od, ci) + 1) % 4
    return 1 if 4 * ci + under_in in od.heads else -1


def color_search_finite(od: OrientedDiagram, table) -> list[tuple[int, ...]]:
    """All colorings of an oriented diagram by a finite quandle, sorted.

    At each crossing the left under-arc, seen along the over-strand
    direction, must equal (right under-arc) * (over-arc).  Backtracking
    with unit propagation: a constraint with two known arcs forces the
    third through the operation or its right inverse."""
    d = od.base
    arc_of = arcs(d)
    ncols = len(set(arc_of.values()))
    if ncols == 0:
        return []
    constraints = []  # (z_arc, x_arc, y_arc): z = x * y
    for ci, c in enumerate(d.crossings):
        over_in = over_entry_slot(od, ci)
        constraints.append((arc_of[c[(over_in + 3) % 4]], arc_of[c[(over_in + 1) % 4]],
                            arc_of[c[over_in]]))
    m = len(table)
    inv = [[0] * m for _ in range(m)]  # inv[z][y]: the x with x * y = z
    for x in range(m):
        for y in range(m):
            inv[table[x][y]][y] = x
    results = []
    color: list[int | None] = [None] * ncols

    def propagate(trail) -> bool:
        changed = True
        while changed:
            changed = False
            for z, x, y in constraints:
                cz, cx, cy = color[z], color[x], color[y]
                if cx is not None and cy is not None:
                    want = table[cx][cy]
                    if cz is None:
                        color[z] = want
                        trail.append(z)
                        changed = True
                    elif cz != want:
                        return False
                elif cz is not None and cy is not None and cx is None:
                    color[x] = inv[cz][cy]
                    trail.append(x)
                    changed = True
        return True

    def backtrack():
        if None not in color:
            results.append(tuple(color))
            return
        i = color.index(None)
        for c in range(m):
            trail = [i]
            color[i] = c
            if propagate(trail):
                backtrack()
            for j in trail:
                color[j] = None

    backtrack()
    return sorted(results)


def nontrivial_c_colorings_finite(od: OrientedDiagram, table) -> list[tuple[int, ...]]:
    """Colorings of an oriented tangle using more than one color with all
    four boundary arcs equal."""
    arc_of = arcs(od.base)
    ends = [arc_of[e] for e in od.base.boundary]
    return [c for c in color_search_finite(od, table)
            if len({c[i] for i in ends}) == 1 and len(set(c)) > 1]
