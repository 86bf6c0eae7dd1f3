"""Combinatorial planar diagrams of 2-string tangles and links.

A diagram is a 4-valent plane graph given by an explicit rotation system:
each crossing lists its four incident edge ids counterclockwise, with the
convention that slots 0 and 2 carry the under-strand and slots 1 and 3 the
over-strand.  Tangles additionally name four boundary endpoints NW, NE,
SW, SE sitting on the disk boundary in the circular order NW, NE, SE, SW.
No geometry is stored; planarity is checked combinatorially through the
Euler count of the face tracing.

Conventions fixed here and relied on elsewhere:

* the single positive crossing (the tangle [1], coloring fraction +1) has
  its under-strand on the SW-NE diagonal;
* rotation is 90 degrees counterclockwise, so the endpoint at NE moves to
  NW; on rational tangles this realizes p/q -> -q/p, and diagrammatically
  D(T) = N(rotate(T));
* mirroring swaps every over/under designation and nothing else;
* a crossing is positive when the under-strand passes right-to-left as
  seen along the over-strand direction; equivalently the under-strand
  enters at the slot counterclockwise-next from the over entry slot;
* rational tangles are realized from the twist vector of
  :func:`tanglekit.fraction.continued_fraction`, innermost block first,
  alternating vertical/horizontal and ending in a horizontal block.

Diagrams are immutable, hashable values: crossings are tuples of port
tuples, and a tangle's boundary is the 4-tuple of the edge ids at NW, NE,
SW, SE (the order of ``BOUNDARY_LABELS``).  All constructors return fresh
values.

Walks run over the ends of edges, numbered by plain integers: ``4*ci +
slot`` for the ports of crossing ci, then ``4*k + i`` for a tangle's
boundary endpoints in ``BOUNDARY_LABELS`` order (k crossings).  Each end
has a mate, the other end of its edge, and going straight through a
crossing maps a port y to ``y ^ 2`` (Cori's encoding of a rotation system
as permutations on darts).  A strand is the list of ends it leaves from;
an orientation is the set of ports at which a strand enters its crossing.

File format (one diagram per file): a header line ``tangle`` or ``link``;
one line ``X i j k l`` per crossing listing edge ids counterclockwise
starting at an under edge (an optional trailing ``o`` token is accepted
and ignored); ``O n`` for n crossing-free loops; for tangles a final line
``B NW=e NE=e SW=e SE=e`` (labels in any order, each exactly once).
Parsing validates the diagram.  Printing reproduces parsed files byte
for byte.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .fraction import Fraction, continued_fraction
from .value import Value, setfield

BOUNDARY_LABELS = ("NW", "NE", "SW", "SE")
_NW, _NE, _SW, _SE = range(4)
# Position of NW, NE, SW, SE on the disk boundary, circle order NW, NE, SE, SW.
_CIRCLE_POS = (0, 1, 3, 2)


class Crossing(Value):
    """Four edge ids counterclockwise; slots 0, 2 are the under-strand."""

    __slots__ = ("ports",)

    def __init__(self, ports: tuple[int, int, int, int]):
        setfield(self, "ports", ports)

    def canonical(self) -> tuple[int, int, int, int]:
        """Rotation-normalized ports (shifting by 2 preserves the data)."""
        shifted = self.ports[2:] + self.ports[:2]
        return min(self.ports, shifted)


class DiagramError(ValueError):
    pass


class TangleDiagram(Value):
    """Crossings, the edge ids at NW, NE, SW, SE, and crossing-free loops."""

    __slots__ = ("crossings", "boundary", "loops")

    def __init__(self, crossings: tuple[Crossing, ...],
                 boundary: tuple[int, int, int, int], loops: int = 0):
        if type(boundary) is not tuple or len(boundary) != 4:
            raise DiagramError("tangle must name all four endpoints NW, NE, SW, SE")
        setfield(self, "crossings", crossings)
        setfield(self, "boundary", boundary)
        setfield(self, "loops", loops)

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)


class LinkDiagram(Value):
    """Crossings and crossing-free loops."""

    __slots__ = ("crossings", "loops")

    def __init__(self, crossings: tuple[Crossing, ...], loops: int = 0):
        setfield(self, "crossings", crossings)
        setfield(self, "loops", loops)

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)


Diagram = TangleDiagram | LinkDiagram


# ---------------------------------------------------------------------------
# ends of edges

def _ends(d: Diagram) -> tuple[list[int], list[int]]:
    """``at[y]``, the edge at end y, and ``mate[y]``, the other end of it."""
    at = [e for c in d.crossings for e in c.ports]
    if isinstance(d, TangleDiagram):
        at += d.boundary
    ends: dict[int, list[int]] = {}
    for y, e in enumerate(at):
        ends.setdefault(e, []).append(y)
    mate = at[:]
    for e, ys in ends.items():
        if len(ys) != 2:
            raise DiagramError(f"dangling port: edge {e} has {len(ys)} incidences")
        a, b = ys
        mate[a], mate[b] = b, a
    return at, mate


class UnionFind:
    """Classes of fused ids (edges, or the vertices of a diagram's connected
    pieces); the smallest id of a class is its root."""

    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, e: int) -> int:
        parent = self.parent
        while e in parent:
            e = parent[e]
        return e

    def union(self, a: int, b: int) -> bool:
        """Merge the classes of a and b; False if they were one already."""
        a, b = self.find(a), self.find(b)
        if a == b:
            return False
        if a < b:
            self.parent[b] = a
        else:
            self.parent[a] = b
        return True


# ---------------------------------------------------------------------------
# construction: elementary tangles and gluing

def _glue(parts: tuple[TangleDiagram, ...], joins, outer=None) -> Diagram:
    """Disjoint copies of the parts with pairs of endpoints fused.

    Endpoints are named (part, boundary position).  ``joins`` lists the
    pairs to fuse; ``outer`` names the new tangle's NW, NE, SW, SE, and
    without it the result is a link.  Fusing the two ends of one arc
    closes it into a crossing-free loop.
    """
    crossings, ends, loops = [], [], 0
    offset = 0
    for d in parts:
        ids = [e for c in d.crossings for e in c.ports] + list(d.boundary)
        shift = offset - min(ids)
        crossings += [[e + shift for e in c.ports] for c in d.crossings]
        ends.append([e + shift for e in d.boundary])
        loops += d.loops
        offset = max(ids) + shift + 1
    edges = UnionFind()
    for (i, a), (j, b) in joins:
        if not edges.union(ends[i][a], ends[j][b]):
            loops += 1
    crossings = tuple(Crossing(tuple(map(edges.find, c))) for c in crossings)
    if outer is None:
        return renumber(LinkDiagram(crossings, loops))
    boundary = tuple(edges.find(ends[i][a]) for i, a in outer)
    return renumber(TangleDiagram(crossings, boundary, loops))


def zero_tangle() -> TangleDiagram:
    """The 0-tangle: horizontal arcs NW-NE and SW-SE, no crossings."""
    return TangleDiagram(crossings=(), boundary=(0, 0, 1, 1))


def infinity_tangle() -> TangleDiagram:
    """The infinity tangle: vertical arcs NW-SW and NE-SE."""
    return TangleDiagram(crossings=(), boundary=(0, 1, 0, 1))


def horizontal_twists(n: int) -> TangleDiagram:
    """The integral tangle [n]: |n| horizontal half-twists chained east.

    Crossing i meets edges 2i (NW), 2i + 1 (SW), 2i + 2 (NE) and 2i + 3
    (SE), in slot order SW, SE, NE, NW for n > 0 (under-strand SW-NE) and
    NW, SW, SE, NE for n < 0 (under-strand NW-SE)."""
    if n == 0:
        return zero_tangle()
    k = abs(n)
    if n > 0:
        ports = ((2 * i + 1, 2 * i + 3, 2 * i + 2, 2 * i) for i in range(k))
    else:
        ports = ((2 * i, 2 * i + 1, 2 * i + 3, 2 * i + 2) for i in range(k))
    return TangleDiagram(crossings=tuple(map(Crossing, ports)),
                         boundary=(0, 2 * k, 1, 2 * k + 1))


def vertical_twists(n: int) -> TangleDiagram:
    """The vertical twist tangle with fraction 1/n (n != 0)."""
    if n == 0:
        return infinity_tangle()
    return rotate(horizontal_twists(-n))


def tangle_sum(t: TangleDiagram, *more: TangleDiagram) -> TangleDiagram:
    """Glue the summands west to east in one pass: each one's NE and SE to
    the next one's NW and SW."""
    parts = (t, *more)
    joins = []
    for i in range(len(parts) - 1):
        joins += [((i, _NE), (i + 1, _NW)), ((i, _SE), (i + 1, _SW))]
    last = len(parts) - 1
    return _glue(parts, joins, [(0, _NW), (last, _NE), (0, _SW), (last, _SE)])


def tangle_product(t: TangleDiagram, u: TangleDiagram) -> TangleDiagram:
    """Glue u's north side to t's south side (t stacked above u)."""
    return _glue((t, u), [((0, _SW), (1, _NW)), ((0, _SE), (1, _NE))],
                 [(0, _NW), (0, _NE), (1, _SW), (1, _SE)])


def rotate(t: TangleDiagram) -> TangleDiagram:
    """Rotate 90 degrees counterclockwise: the NE endpoint moves to NW."""
    nw, ne, sw, se = t.boundary
    return TangleDiagram(crossings=t.crossings, boundary=(ne, se, nw, sw),
                         loops=t.loops)


def mirror(d: Diagram) -> Diagram:
    """Swap every over/under designation (the planar map is unchanged)."""
    flipped = tuple(Crossing((c.ports[1], c.ports[2], c.ports[3], c.ports[0]))
                    for c in d.crossings)
    if isinstance(d, TangleDiagram):
        return TangleDiagram(flipped, d.boundary, d.loops)
    return LinkDiagram(flipped, d.loops)


def close_numerator(t: TangleDiagram) -> LinkDiagram:
    """Join NE to NW and SE to SW by unknotted arcs."""
    return _glue((t,), [((0, _NE), (0, _NW)), ((0, _SE), (0, _SW))])


def close_denominator(t: TangleDiagram) -> LinkDiagram:
    """Join NW to SW and NE to SE by unknotted arcs."""
    return _glue((t,), [((0, _NW), (0, _SW)), ((0, _NE), (0, _SE))])


def renumber(d: Diagram) -> Diagram:
    """Relabel edges 0, 1, 2, ... in order of first appearance."""
    mapping: dict[int, int] = {}

    def get(e):
        if e not in mapping:
            mapping[e] = len(mapping)
        return mapping[e]

    crossings = tuple(Crossing(tuple(get(e) for e in c.ports)) for c in d.crossings)
    if isinstance(d, TangleDiagram):
        boundary = tuple(get(e) for e in d.boundary)
        return TangleDiagram(crossings=crossings, boundary=boundary, loops=d.loops)
    return LinkDiagram(crossings=crossings, loops=d.loops)


def canonical_form(d: Diagram):
    """Hashable normal form: renumbered crossings with rotation-normalized
    port tuples, plus boundary/loops.  Equal forms mean equal labeled graphs."""
    d = renumber(d)
    cr = tuple(c.canonical() for c in d.crossings)
    if isinstance(d, TangleDiagram):
        return ("tangle", cr, d.boundary, d.loops)
    return ("link", cr, d.loops)


# ---------------------------------------------------------------------------
# strands, components, orientation

def strands(d: Diagram, mate: list[int] | None = None) -> list[list[int]]:
    """Strand passes, open strands first, each the list of ends it leaves from.

    Walks start at the boundary ends NW, NE, SW, SE, then at the ports in
    index order; this discovery order fixes the default orientation.
    Crossing-free loops (``d.loops``) are not listed.  ``mate`` is
    ``_ends(d)[1]`` when the caller has it already.
    """
    if mate is None:
        mate = _ends(d)[1]
    k4 = 4 * len(d.crossings)
    seen = [False] * len(mate)
    result = []
    for y in [*range(k4, len(mate)), *range(k4)]:
        strand = []
        while not seen[y]:
            strand.append(y)
            z = mate[y]
            seen[y] = seen[z] = True
            if z >= k4:
                break
            y = z ^ 2
        if strand:
            result.append(strand)
    return result


def open_strand_endpoints(d: TangleDiagram) -> list[tuple[str, str]]:
    """The endpoint pairing of the two open strands, labels sorted."""
    mate = _ends(d)[1]
    k4 = 4 * len(d.crossings)
    return sorted(tuple(sorted((BOUNDARY_LABELS[s[0] - k4],
                                BOUNDARY_LABELS[mate[s[-1]] - k4])))
                  for s in strands(d, mate) if s[0] >= k4)


def component_count(d: LinkDiagram) -> int:
    return len(strands(d)) + d.loops


def component_subdiagrams(d: Diagram) -> list[LinkDiagram]:
    """Each strand alone, the other strands erased, as a link diagram.

    At a crossing with another strand the kept strand runs straight
    through, so the two edges of its pass fuse; an open strand is closed
    by an arc joining its two end edges.  For a link these are the
    component knots, for a tangle its strings closed by boundary arcs.
    """
    at, mate = _ends(d)
    k4 = 4 * len(d.crossings)
    out = []
    for s in strands(d, mate):
        own = {at[y] for y in s}
        edges = UnionFind()
        kept = []
        for c in d.crossings:
            p = c.ports
            under, over = p[0] in own, p[1] in own
            if under and over:
                kept.append(p)
            elif under:
                edges.union(p[0], p[2])
            elif over:
                edges.union(p[1], p[3])
        if s[0] >= k4:
            edges.union(at[s[0]], at[s[-1]])
        crossings = tuple(Crossing(tuple(map(edges.find, p))) for p in kept)
        out.append(renumber(LinkDiagram(crossings, loops=0 if kept else 1)))
    return out + [LinkDiagram((), loops=1)] * d.loops


class OrientedDiagram(Value):
    """A diagram with a direction assigned to every strand.

    ``heads`` holds the ports at which a strand enters its crossing;
    ``strand_of[y]`` is the index of the strand through end y.
    """

    __slots__ = ("base", "heads", "strand_of")

    def __init__(self, base: Diagram, heads: frozenset[int], strand_of: tuple[int, ...]):
        setfield(self, "base", base)
        setfield(self, "heads", heads)
        setfield(self, "strand_of", strand_of)

    def over_entry_slot(self, ci: int) -> int:
        return 1 if 4 * ci + 1 in self.heads else 3

    def crossing_sign(self, ci: int) -> int:
        """+1 when the under-strand passes right-to-left seen along the
        over-strand direction; that is, under enters one slot
        counterclockwise from the over entry."""
        under_in = (self.over_entry_slot(ci) + 1) % 4
        return 1 if 4 * ci + under_in in self.heads else -1


def orient(d: Diagram, choice: tuple[bool, ...] | None = None) -> OrientedDiagram:
    """Assign directions to strands; choice[i] reverses strand i.

    The default orients every strand along its discovery order.  Use
    :func:`all_orientations` to enumerate the 2^s assignments.
    """
    mate = _ends(d)[1]
    st = strands(d, mate)
    if choice is None:
        choice = (False,) * len(st)
    if len(choice) != len(st):
        raise DiagramError(f"expected {len(st)} direction bits, got {len(choice)}")
    k4 = 4 * len(d.crossings)
    strand_of = [0] * len(mate)
    heads = []
    for i, (back, strand) in enumerate(zip(choice, st)):
        for y in strand:
            z = mate[y]
            strand_of[y] = strand_of[z] = i
            head = y if back else z
            if head < k4:
                heads.append(head)
    return OrientedDiagram(d, frozenset(heads), tuple(strand_of))


def all_orientations(d: Diagram) -> list[OrientedDiagram]:
    s = len(strands(d))
    return [orient(d, bits) for bits in itertools.product((False, True), repeat=s)]


# ---------------------------------------------------------------------------
# faces and validation

def _faces(mate: list[int], k4: int) -> list[list[int]]:
    """Orbits of the face rule on ends: go along the edge, then turn to the
    next port counterclockwise; at a boundary end (``y >= k4``) the face
    wraps around.  Each face is the list of ends it leaves from."""
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


def validate(d: Diagram) -> str | None:
    """Check the diagram invariants; return the first diagnostic, or None.

    Checks, in order: every edge has exactly two ends; the rotation
    system is planar on every connected piece (Euler count); tangles have
    no closed components, and their endpoints in the circular order NW,
    NE, SE, SW on one face, or on two pieces whose chords do not cross.
    """
    try:
        mate = _ends(d)[1]
    except DiagramError as err:
        return str(err)
    if isinstance(d, LinkDiagram):
        if d.crossing_count == 0 and d.loops == 0:
            return "empty diagram"
        if d.loops < 0:
            return "negative loop count"
    elif d.loops:
        return "closed component in tangle"

    # planarity: V - E + F = 2 on every connected piece, whose vertices
    # are the crossings and the boundary ends; counted doubled, so each
    # end, half an edge, takes 1
    k4 = 4 * len(d.crossings)
    node = [y >> 2 if y < k4 else y for y in range(len(mate))]
    pieces = UnionFind()
    for y, z in enumerate(mate):
        pieces.union(node[y], node[z])
    faces = _faces(mate, k4)
    euler = Counter()
    for v in set(node):
        euler[pieces.find(v)] += 2
    for v in node:
        euler[pieces.find(v)] -= 1
    for f in faces:
        euler[pieces.find(node[f[0]])] += 2
    if any(x != 4 for x in euler.values()):
        return "planarity: Euler count fails"

    if isinstance(d, TangleDiagram):
        st = strands(d, mate)
        if len(st) > 2:
            return "closed component in tangle"
        if len({pieces.find(y) for y in range(k4, k4 + 4)}) == 1:
            for face in faces:
                pos = [_CIRCLE_POS[y - k4] for y in face if y >= k4]
                steps = {(b - a) % 4 for a, b in zip(pos, pos[1:] + pos[:1])}
                if len(pos) == 4 and len(steps) == 1:
                    return None
            return "boundary order: endpoints not in circular order on one face"
        # two pieces, one open strand each: the chords cross when the
        # strand from NW ends at SE
        if mate[st[0][-1]] == k4 + _SE:
            return "planarity: boundary chords interleave"
    return None


# ---------------------------------------------------------------------------
# expression realization

def from_rational(f: Fraction) -> TangleDiagram:
    """Diagram of the rational tangle [f] from its twist vector.

    Blocks alternate vertical then horizontal, innermost first, ending in
    a horizontal block; the crossing count is the sum of |entries|.
    """
    if f.is_infinite:
        return infinity_tangle()
    entries = continued_fraction(f)
    m = len(entries)
    t: TangleDiagram | None = None
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
    assert t is not None
    return renumber(t)


def from_expression(expr, resolver=None) -> TangleDiagram:
    """Realize a tangle expression as a diagram.

    Rational leaves come from :func:`from_rational`; a chain of sums is
    glued east to west in one :func:`tangle_sum`, and products glue south
    to north.  When a product's naive gluing
    would close a circle (the factors' end patterns both run across the
    glued disk), the first factor is re-embedded by quarter turns until
    the gluing stays a 2-string tangle; the result is the same tangle up
    to equivalence, which is all the algebraic expressions promise.
    NamedRef leaves are resolved through ``resolver``.
    """
    from . import expr as ex

    if isinstance(expr, ex.RationalLeaf):
        return from_rational(expr.value)
    if isinstance(expr, ex.Sum):
        return tangle_sum(*(from_expression(term, resolver)
                            for term in ex._flatten_sum(expr)))
    if isinstance(expr, ex.Product):
        top = from_expression(expr.top, resolver)
        bottom = from_expression(expr.bottom, resolver)
        for _ in range(4):
            candidate = tangle_product(top, bottom)
            if candidate.loops == 0 and validate(candidate) is None:
                return candidate
            top = rotate(top)
        raise DiagramError("product cannot be realized without closed circles")
    if isinstance(expr, ex.Rotate):
        return rotate(from_expression(expr.child, resolver))
    if isinstance(expr, ex.Mirror):
        return mirror(from_expression(expr.child, resolver))
    if isinstance(expr, ex.NamedRef):
        if resolver is None:
            raise DiagramError(f"unresolved reference @{expr.name}")
        d = resolver(expr.name)
        if d is None:
            raise DiagramError(f"unresolved reference @{expr.name}")
        return d
    raise TypeError(f"not an expression: {expr!r}")


# ---------------------------------------------------------------------------
# file format

def print_diagram(d: Diagram) -> str:
    lines = []
    lines.append("tangle" if isinstance(d, TangleDiagram) else "link")
    for c in d.crossings:
        lines.append("X " + " ".join(str(e) for e in c.ports))
    if d.loops:
        lines.append(f"O {d.loops}")
    if isinstance(d, TangleDiagram):
        lines.append("B " + " ".join(f"{lab}={e}"
                                     for lab, e in zip(BOUNDARY_LABELS, d.boundary)))
    return "\n".join(lines) + "\n"


def parse_diagram(text: str) -> Diagram:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DiagramError("empty diagram file")
    kind = lines[0]
    if kind not in ("tangle", "link"):
        raise DiagramError(f"unknown diagram header {kind!r}")
    crossings = []
    loops = 0
    boundary = None
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "X":
            body = parts[1:]
            if body and body[-1] == "o":
                body = body[:-1]
            if len(body) != 4:
                raise DiagramError(f"crossing line needs four edge ids: {ln!r}")
            crossings.append(Crossing(tuple(int(x) for x in body)))
        elif parts[0] == "O":
            if len(parts) != 2:
                raise DiagramError(f"loop line needs one count: {ln!r}")
            loops = int(parts[1])
        elif parts[0] == "B":
            boundary = {}
            for item in parts[1:]:
                lab, _, e = item.partition("=")
                if lab not in BOUNDARY_LABELS:
                    raise DiagramError(f"unknown endpoint label {lab!r}")
                if lab in boundary:
                    raise DiagramError(f"repeated endpoint label {lab!r}")
                boundary[lab] = int(e)
        else:
            raise DiagramError(f"unknown line {ln!r}")
    if kind == "tangle":
        if boundary is None:
            raise DiagramError("tangle file lacks a B line")
        if len(boundary) != 4:
            raise DiagramError("tangle must name all four endpoints NW, NE, SW, SE")
        d = TangleDiagram(crossings=tuple(crossings), loops=loops,
                          boundary=tuple(boundary[lab] for lab in BOUNDARY_LABELS))
    elif boundary is not None:
        raise DiagramError("link file must not carry a B line")
    else:
        d = LinkDiagram(crossings=tuple(crossings), loops=loops)
    err = validate(d)
    if err:
        raise DiagramError(err)
    return d
