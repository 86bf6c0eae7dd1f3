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

Diagrams are immutable, hashable values.  A diagram's crossings are a
tuple of plain 4-tuples of edge ids in slot order (no object per
crossing), and a tangle's boundary is the 4-tuple of the edge ids at NW,
NE, SW, SE (the order of ``BOUNDARY_LABELS``).  All constructors return
fresh values.  Gluing tangles (sums, products) numbers the edges 0, 1,
2, ... afresh; a closure keeps its tangle's crossings and edge ids, with
each fused pair of boundary edges under the smaller id, and shares every
crossing tuple it does not rename.

Walks run over the ends of edges, numbered by plain integers: ``4*ci +
slot`` for the ports of crossing ci, then ``4*k + i`` for a tangle's
boundary endpoints in ``BOUNDARY_LABELS`` order (k crossings).  Each end
has a mate, the other end of its edge, and going straight through a
crossing maps a port y to ``y ^ 2`` (Cori's encoding of a rotation system
as permutations on darts).  A strand is the list of ends it leaves from;
an orientation is the tuple of ports at which the strands enter their
crossings, in walk order: the default one is the walk's own entry ports.

A diagram walks its ends once.  Every diagram, tangle or link, keeps
the mate of each end in its ``_mate`` slot and its :class:`Walk` (the
strands, their entry ports and the strand of each end, found in one
pass) in its ``_walk`` slot, outside its value key, each built by the
first caller to need it: ``validate``, the coloring record's
propagation, the closures (which rebuild only the crossings at the
far ends of the fused boundary edges) and the component knots (cut
straight from them, each knot given its own ends) share the ends; the
bracket's schedule, slot width and crossing signs, :func:`strands`,
:func:`component_count`, :func:`orient`, :func:`component_subdiagrams`
and the slow path of ``validate`` share the walk.  The records are
plain data: an :class:`OrientedDiagram` refers back to its diagram, so
one is built from the walk on each call instead, and no diagram is kept
alive by a reference cycle that only the cyclic garbage collector could
free.

Validation counts V - E + F over the whole diagram, its faces the orbits
of :func:`_turns`, and compares it with the number of pieces: the count
is exact, since no connected piece has Euler characteristic above 2.  A
tangle's two open strands are walked first, and the crossings the first
one passes are marked.  When the strands cover every end, they are the
pieces: one when the second meets a marked crossing, else two, and no
walk is built.  Only links and tangles with ends on closed components
read the pieces off the walk: the strands, less one per crossing that
joins two pieces.

File format (one diagram per file): a header line ``tangle`` or ``link``;
one line ``X i j k l`` per crossing listing edge ids counterclockwise
starting at an under edge (an optional trailing ``o`` token is accepted
and ignored); ``O n`` for n crossing-free loops; for tangles a final line
``B NW=e NE=e SW=e SE=e`` (labels in any order, each exactly once).
Parsing validates the diagram.  Printing reproduces parsed files byte
for byte.
"""

from __future__ import annotations

from collections import Counter

from .fraction import Fraction, continued_fraction
from .value import Value, setfield

BOUNDARY_LABELS = ("NW", "NE", "SW", "SE")
_NW, _NE, _SW, _SE = range(4)
# Position of NW, NE, SW, SE on the disk boundary, circle order NW, NE, SE, SW.
_CIRCLE_POS = (0, 1, 3, 2)


class DiagramError(ValueError):
    pass


class TangleDiagram(Value):
    """Crossings, the edge ids at NW, NE, SW, SE, and crossing-free loops.

    ``_mate`` and ``_walk`` cache :func:`_ends` and :func:`walk`, and
    ``_colorings`` caches :func:`tanglekit.quandle.coloring_record`.
    """

    __slots__ = ("crossings", "boundary", "loops", "_mate", "_walk", "_colorings")

    def __init__(self, crossings: tuple[tuple[int, int, int, int], ...],
                 boundary: tuple[int, int, int, int], loops: int = 0):
        if type(boundary) is not tuple or len(boundary) != 4:
            raise DiagramError("tangle must name all four endpoints NW, NE, SW, SE")
        setfield(self, "crossings", crossings)
        setfield(self, "boundary", boundary)
        setfield(self, "loops", loops)
        setfield(self, "_mate", None)
        setfield(self, "_walk", None)
        setfield(self, "_colorings", None)

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)


class LinkDiagram(Value):
    """Crossings and crossing-free loops.

    ``_mate`` and ``_walk`` cache :func:`_ends` and :func:`walk`, and
    ``_determinant`` is a closure's determinant, known from its tangle's
    coloring record, or None; without it
    :func:`tanglekit.quandle.determinant` colors the link by propagation
    over its cached ends.
    """

    __slots__ = ("crossings", "loops", "_mate", "_walk", "_determinant")

    def __init__(self, crossings: tuple[tuple[int, int, int, int], ...], loops: int = 0):
        setfield(self, "crossings", crossings)
        setfield(self, "loops", loops)
        setfield(self, "_mate", None)
        setfield(self, "_walk", None)
        setfield(self, "_determinant", None)

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)


Diagram = TangleDiagram | LinkDiagram


# ---------------------------------------------------------------------------
# ends of edges

def _ends(d: Diagram) -> list[int]:
    """``mate[y]``, the other end of the edge at end y.  d keeps the
    list in its ``_mate`` slot, so callers must not change it; an invalid
    diagram raises each time, and keeps nothing."""
    if d._mate is not None:
        return d._mate
    at = [e for c in d.crossings for e in c]
    if isinstance(d, TangleDiagram):
        at += d.boundary
    mate = at[:]
    first: dict[int, int] = {}
    for y, e in enumerate(at):
        x = first.pop(e, None)
        if x is None:
            first[e] = y
        else:
            mate[x], mate[y] = y, x
    # every edge has an even number of ends, two on average: two each
    if first or 2 * len(set(at)) != len(at):
        e, n = next((e, n) for e, n in Counter(at).items() if n != 2)
        raise DiagramError(f"dangling port: edge {e} has {n} incidences")
    setfield(d, "_mate", mate)
    return mate


class UnionFind:
    """Classes of fused ids (edges, or the vertices of a diagram's connected
    pieces); the smallest id of a class is its root, and every parent is
    smaller than its child."""

    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, e: int) -> int:
        """The root of e's class; the path walked is halved on the way,
        each id on it pointed at its grandparent."""
        parent = self.parent
        while e in parent:
            p = parent[e]
            if p not in parent:
                return p
            parent[e] = g = parent[p]
            e = g
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

def _glue(parts: tuple[TangleDiagram, ...], joins, outer) -> TangleDiagram:
    """Disjoint copies of the parts with pairs of endpoints fused.

    Endpoints are named (part, boundary position).  ``joins`` lists the
    pairs to fuse and ``outer`` names the new tangle's NW, NE, SW, SE.
    Fusing the two ends of one arc closes it into a crossing-free loop.
    Edges come out numbered 0, 1, 2, ... in order of first appearance, as
    :func:`renumber` numbers them, in the pass that fuses them; closures
    are not glued (see :func:`_close`).
    """
    ports, ends, loops, offset = [], [], 0, 0
    for d in parts:
        own = [e for c in d.crossings for e in c]
        ids = own + list(d.boundary)
        shift = offset - min(ids)
        offset = max(ids) + shift + 1
        ports += [e + shift for e in own] if shift else own
        ends.append([e + shift for e in d.boundary])
        loops += d.loops
    edges = UnionFind()
    for (i, a), (j, b) in joins:
        if not edges.union(ends[i][a], ends[j][b]):
            loops += 1
    # each id to its class root, then each root to its first appearance
    root = list(range(offset))
    for e in edges.parent:
        root[e] = edges.find(e)
    ports = list(map(root.__getitem__, ports))
    boundary = [root[ends[i][a]] for i, a in outer]
    number = {e: n for n, e in enumerate(dict.fromkeys(ports + boundary))}
    it = iter(map(number.__getitem__, ports))
    return TangleDiagram(tuple(zip(it, it, it, it)),
                         tuple(map(number.__getitem__, boundary)), loops)


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
    return TangleDiagram(crossings=tuple(ports),
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
    flipped = tuple((b, c, e, a) for a, b, c, e in d.crossings)
    if isinstance(d, TangleDiagram):
        return TangleDiagram(flipped, d.boundary, d.loops)
    return LinkDiagram(flipped, d.loops)


def _close(t: TangleDiagram, pairs, det: int | None) -> LinkDiagram:
    """t with the boundary edges at each pair of positions fused.

    The link keeps t's crossing order, slot order and edge ids.  Each
    fused edge takes the smallest id of its class, so only the crossings
    holding a renamed id are rebuilt: the crossing of the port at the
    other end of each renamed boundary edge, read off t's ends (at most
    four).  Every other crossing tuple is t's own.  A pair already fused
    closes an arc into a crossing-free loop.  ``det`` is the link's
    determinant when known; the link keeps no reference to t.  A tangle
    with a dangling port raises :class:`DiagramError`, as
    :func:`validate` reports it."""
    mate = _ends(t)
    b = t.boundary
    edges = UnionFind()
    loops = t.loops
    for i, j in pairs:
        if not edges.union(b[i], b[j]):
            loops += 1
    crossings = t.crossings
    if edges.parent:
        k4 = 4 * len(crossings)
        root = {e: edges.find(e) for e in edges.parent}
        crossings = list(crossings)
        for i, e in enumerate(b):
            if e in root and (y := mate[k4 + i]) < k4:
                crossings[y >> 2] = tuple(root.get(x, x) for x in crossings[y >> 2])
        crossings = tuple(crossings)
    link = LinkDiagram(crossings, loops)
    if det is not None:
        setfield(link, "_determinant", det)
    return link


def close_numerator(t: TangleDiagram) -> LinkDiagram:
    """Join NE to NW and SE to SW by unknotted arcs.

    The link has t's crossings and edge ids (see :func:`_close`), and
    takes its determinant from t's coloring record when that exists."""
    rec = t._colorings
    return _close(t, ((_NE, _NW), (_SE, _SW)), None if rec is None else rec.det_numerator)


def close_denominator(t: TangleDiagram) -> LinkDiagram:
    """Join NW to SW and NE to SE by unknotted arcs; edge ids and the
    determinant are as in :func:`close_numerator`."""
    rec = t._colorings
    return _close(t, ((_NW, _SW), (_NE, _SE)), None if rec is None else rec.det_denominator)


def renumber(d: Diagram) -> Diagram:
    """Relabel edges 0, 1, 2, ... in order of first appearance."""
    mapping: dict[int, int] = {}

    def get(e):
        if e not in mapping:
            mapping[e] = len(mapping)
        return mapping[e]

    crossings = tuple(tuple(get(e) for e in c) for c in d.crossings)
    if isinstance(d, TangleDiagram):
        boundary = tuple(get(e) for e in d.boundary)
        return TangleDiagram(crossings=crossings, boundary=boundary, loops=d.loops)
    return LinkDiagram(crossings=crossings, loops=d.loops)


def canonical_form(d: Diagram):
    """Hashable normal form: renumbered crossings with rotation-normalized
    port tuples, plus boundary/loops.  Equal forms mean equal labeled graphs."""
    d = renumber(d)
    # shifting a crossing's ports by two slots preserves the data
    cr = tuple(min(c, c[2:] + c[:2]) for c in d.crossings)
    if isinstance(d, TangleDiagram):
        return ("tangle", cr, d.boundary, d.loops)
    return ("link", cr, d.loops)


# ---------------------------------------------------------------------------
# strands, components, orientation

def strands(d: Diagram) -> list[list[int]]:
    """Strand passes, open strands first, each the list of ends it leaves
    from: ``walk(d).strands``, which callers must not change."""
    return walk(d).strands


class Walk:
    """A diagram's ends walked once, as plain data: the ``strands``, open
    ones first, each the list of ends it leaves from, walked from NW, NE,
    SW, SE and then from the ports in index order (crossing-free loops are
    not listed); the ``heads``, the ports at which the walk enters a
    crossing, in walk order, which are the default orientation; and
    ``strand_of[y]``, the strand through end y under every orientation.
    It holds no reference to the diagram, so a diagram caching it makes
    no cycle."""

    __slots__ = ("strands", "heads", "strand_of")

    def __init__(self, strands, heads, strand_of):
        self.strands = strands
        self.heads = heads
        self.strand_of = strand_of


def walk(d: Diagram) -> Walk:
    """d's ends walked once, in one pass that lists the strands, their
    entry ports and each end's strand; kept in d's ``_walk`` slot."""
    if d._walk is not None:
        return d._walk
    mate = _ends(d)
    k4 = 4 * len(d.crossings)
    strand_of = [-1] * len(mate)
    heads = []
    result = []
    for y in [*range(k4, len(mate)), *range(k4)]:
        if strand_of[y] >= 0:
            continue
        i = len(result)
        strand = []
        while strand_of[y] < 0:
            strand.append(y)
            z = mate[y]
            strand_of[y] = strand_of[z] = i
            if z >= k4:
                break
            heads.append(z)
            y = z ^ 2
        result.append(strand)
    w = Walk(result, tuple(heads), tuple(strand_of))
    setfield(d, "_walk", w)
    return w


def component_count(d: LinkDiagram) -> int:
    return len(walk(d).strands) + d.loops


def component_knot(d: Diagram, i: int) -> LinkDiagram:
    """Strand i of d alone, as in :func:`component_subdiagrams`, cut
    straight from d's ends.

    The knot keeps the crossings strand i passes twice, in d's order.
    From each of their ports the strand is followed through the crossings
    it passes once (straight on, ``y ^ 2``), and from a boundary end of
    an open strand on from its other boundary end, to the port where the
    knot's edge closes.  Edges are numbered in order of first appearance,
    as :func:`renumber` numbers them, and the knot keeps the ends it was
    cut from in its ``_mate`` slot.
    """
    w = walk(d)
    strand_of = w.strand_of
    mate = _ends(d)
    k = len(d.crossings)
    own = [ci for ci in range(k) if strand_of[4 * ci] == i == strand_of[4 * ci + 1]]
    if not own:
        return LinkDiagram((), loops=1)
    # crossing of d -> its first port in the knot, or -1 when it is not kept
    at = [-1] * k
    for n, ci in enumerate(own):
        at[ci] = 4 * n
    k4 = 4 * k
    s = w.strands[i]
    # an open strand's two boundary ends sum to ends, so either gives the
    # other; a closed strand reaches neither
    ends = s[0] + mate[s[-1]]
    kept = 4 * len(own)
    knot = [-1] * kept
    edge = [0] * kept
    number = 0
    for x in range(kept):
        if knot[x] >= 0:
            continue
        z = mate[4 * own[x >> 2] + (x & 3)]
        while True:
            if z >= k4:
                z = mate[ends - z]
            else:
                y = at[z >> 2]
                if y >= 0:
                    break
                z = mate[z ^ 2]
        y += z & 3
        knot[x], knot[y] = y, x
        edge[x] = edge[y] = number
        number += 1
    it = iter(edge)
    out = LinkDiagram(tuple(zip(it, it, it, it)))
    setfield(out, "_mate", knot)
    return out


def component_subdiagrams(d: Diagram) -> list[LinkDiagram]:
    """Each strand alone, the other strands erased, as a link diagram.

    At a crossing with another strand the kept strand runs straight
    through, so the two edges of its pass fuse; an open strand is closed
    by an arc joining its two end edges.  For a link these are the
    component knots, for a tangle its strings closed by boundary arcs.
    """
    out = [component_knot(d, i) for i in range(len(walk(d).strands))]
    return out + [LinkDiagram((), loops=1)] * d.loops


class OrientedDiagram(Value):
    """A diagram with a direction assigned to every strand.

    ``heads`` holds the ports at which the strands enter their crossings,
    in walk order; the strand through an end is read off
    :func:`walk`, since it does not depend on the directions.
    """

    __slots__ = ("base", "heads")

    def __init__(self, base: Diagram, heads: tuple[int, ...]):
        setfield(self, "base", base)
        setfield(self, "heads", heads)


def orient(d: Diagram, choice: tuple[bool, ...] | None = None) -> OrientedDiagram:
    """Assign directions to strands; choice[i] reverses strand i.

    The default orients every strand along its discovery order, and its
    heads are :func:`walk`'s own; an explicit choice is computed on each
    call, its heads in walk order too.
    """
    w = walk(d)
    if choice is None:
        return OrientedDiagram(d, w.heads)
    if len(choice) != len(w.strands):
        raise DiagramError(f"expected {len(w.strands)} direction bits, got {len(choice)}")
    k4 = 4 * len(d.crossings)
    mate = _ends(d)
    heads = [y if back else mate[y] for back, strand in zip(choice, w.strands)
             for y in strand]
    return OrientedDiagram(d, tuple(h for h in heads if h < k4))


# ---------------------------------------------------------------------------
# faces and validation

def _turns(mate: list[int], k4: int) -> list[int]:
    """The face rule on ends: the end after y on its face.  Go along the
    edge, then turn to the next port counterclockwise; at a boundary end
    (``y >= k4``) the face wraps around."""
    ccw = list(range(1, k4 + 1))
    ccw[3::4] = range(0, k4, 4)
    ccw += range(k4, len(mate))
    return list(map(ccw.__getitem__, mate))


def validate(d: Diagram) -> str | None:
    """Check the diagram invariants; return the first diagnostic, or None.

    Checks, in order: every edge has exactly two ends; the loop count is
    not negative; the rotation system is planar on every connected piece
    (Euler count); tangles have no closed components, and their
    endpoints lie on one face whose walk from NW meets them in the order
    NW, SW, SE, NE, the order every constructor builds, or on two pieces
    whose chords do not cross.
    """
    try:
        mate = _ends(d)
    except DiagramError as err:
        return str(err)
    if d.loops < 0:
        return "negative loop count"
    if isinstance(d, LinkDiagram):
        if d.crossing_count == 0 and d.loops == 0:
            return "empty diagram"
    elif d.loops:
        return "closed component in tangle"

    # planarity: V - E + F = 2 on every connected piece, whose vertices
    # are the crossings and the boundary ends.  Counted doubled, a
    # crossing (four half edges) takes -2, a boundary end +1 and a face +2,
    # so each piece must sum to 4.  No piece sums to more (a connected
    # graph has Euler characteristic at most 2), so the sum over the whole
    # diagram is 4 per piece exactly when every piece sums to 4.  Faces
    # are the orbits of the turns, each counted at its first end.
    k4 = 4 * len(d.crossings)
    n = len(mate)
    turn = _turns(mate, k4)
    seen = [False] * n
    faces = []
    for y in range(n):
        if not seen[y]:
            faces.append(y)
            while not seen[y]:
                seen[y] = True
                y = turn[y]

    pieces = 0
    if isinstance(d, TangleDiagram):
        # walk the two open strands, from NW and from the next boundary
        # end that NW's strand does not reach, marking the crossings the
        # first one passes; the ends they leave short of all ends lie on
        # closed components
        covered = 0
        far = []
        passed = bytearray(len(d.crossings))
        for y in (k4, k4 + 1):
            if far and far[0] == y:
                y = k4 + 2
            met = 0
            while True:
                z = mate[y]
                covered += 2
                if z >= k4:
                    break
                y = z ^ 2
                if far:
                    met |= passed[y >> 2]
                else:
                    passed[y >> 2] = 1
            far.append(z)
        if covered == n:
            # every edge lies on an open strand, so the strands are the
            # pieces: one if they meet at a crossing, else two
            pieces = 2 - met
    if not pieces:
        # the strands, less one for each crossing that joins two pieces
        w = walk(d)
        joined = UnionFind()
        pieces = len(w.strands) - sum(joined.union(w.strand_of[y], w.strand_of[y + 1])
                                      for y in range(0, k4, 4))
    if 2 * len(faces) + (n - k4) - k4 // 2 != 4 * pieces:
        return "planarity: Euler count fails"

    if isinstance(d, TangleDiagram):
        if covered != n:
            return "closed component in tangle"
        if pieces == 1:
            # the face through NW is the only one that can hold all four
            pos, y = [_CIRCLE_POS[_NW]], turn[k4]
            while y != k4:
                if y > k4:
                    pos.append(_CIRCLE_POS[y - k4])
                y = turn[y]
            if pos == [0, 3, 2, 1]:
                return None
            return "boundary order: endpoints not in the order NW, SW, SE, NE on one face"
        # two pieces, one open strand each: the chords cross when the
        # strand from NW ends at SE
        if far[0] == k4 + _SE:
            return "planarity: boundary chords interleave"
    return None


# ---------------------------------------------------------------------------
# expression realization

# The most crossings :func:`from_rational` builds.  Realization is linear
# in the crossing count, and a fraction of twenty digits can ask for 10^19.
RATIONAL_CROSSING_LIMIT = 100_000


def from_rational(f: Fraction) -> TangleDiagram:
    """Diagram of the rational tangle [f] from its twist vector.

    Blocks alternate vertical then horizontal, innermost first, ending in
    a horizontal block; the crossing count is the sum of |entries|.  Each
    block is summed onto the tangle so far (horizontal) or stacked below
    it (vertical), and all of them are glued in one :func:`_glue`, so the
    time is linear in the crossing count.  A count over
    ``RATIONAL_CROSSING_LIMIT`` (100,000) raises :class:`DiagramError`
    before anything is built.
    """
    if f.is_infinite:
        return infinity_tangle()
    entries = continued_fraction(f)
    count = sum(map(abs, entries))
    if count > RATIONAL_CROSSING_LIMIT:
        raise DiagramError(f"rational tangle {f} needs {count} crossings, over "
                           f"the limit of {RATIONAL_CROSSING_LIMIT}")
    m = len(entries)
    parts: list[TangleDiagram] = []
    joins = []
    outer = [(0, _NW), (0, _NE), (0, _SW), (0, _SE)]
    for i, c in enumerate(entries, start=1):
        horizontal = (m - i) % 2 == 0
        if c == 0:
            if not parts:
                parts.append(zero_tangle() if horizontal else infinity_tangle())
            continue
        j = len(parts)
        parts.append(horizontal_twists(c) if horizontal else vertical_twists(c))
        if j == 0:
            continue
        nw, ne, sw, se = outer
        if horizontal:
            joins += [(ne, (j, _NW)), (se, (j, _SW))]
            outer = [nw, (j, _NE), sw, (j, _SE)]
        else:
            joins += [(sw, (j, _NW)), (se, (j, _NE))]
            outer = [nw, ne, (j, _SW), (j, _SE)]
    return _glue(tuple(parts), joins, outer)


def _nw_joins_ne(t: TangleDiagram) -> bool:
    """Whether the strand from NW ends at NE, read off t's walk."""
    return _ends(t)[walk(t).strands[0][-1]] == 4 * len(t.crossings) + _NE


def from_expression(expr, resolver=None) -> TangleDiagram:
    """Realize a tangle expression as a diagram.

    Rational leaves come from :func:`from_rational`; a chain of sums is
    glued west to east in one :func:`tangle_sum`, and products glue south
    to north.  When both factors of a product join NW to NE, gluing them
    as written would close a circle, so the top factor is turned once
    first.  A turned factor makes another tangle, rot(T1) * T2 in place
    of T1 * T2, so the catalog writes its products to glue as written.
    Nothing is validated here: a factor with a closed component gives a
    tangle that :func:`validate` refuses, as a sum does.
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
        if _nw_joins_ne(top) and _nw_joins_ne(bottom):
            top = rotate(top)
        return tangle_product(top, bottom)
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
        lines.append("X " + " ".join(map(str, c)))
    if d.loops:
        lines.append(f"O {d.loops}")
    if isinstance(d, TangleDiagram):
        lines.append("B " + " ".join(f"{lab}={e}"
                                     for lab, e in zip(BOUNDARY_LABELS, d.boundary)))
    return "\n".join(lines) + "\n"


def _integers(tokens, ln: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, tokens))
    except ValueError:
        raise DiagramError(f"expected integers: {ln!r}") from None


def parse_diagram(text: str) -> Diagram:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DiagramError("empty diagram file")
    kind = lines[0]
    if kind not in ("tangle", "link"):
        raise DiagramError(f"unknown diagram header {kind!r}")
    crossings = []
    loops = None
    boundary = None
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "X":
            body = parts[1:]
            if body and body[-1] == "o":
                body = body[:-1]
            if len(body) != 4:
                raise DiagramError(f"crossing line needs four edge ids: {ln!r}")
            crossings.append(_integers(body, ln))
        elif parts[0] == "O":
            if len(parts) != 2:
                raise DiagramError(f"loop line needs one count: {ln!r}")
            if loops is not None:
                raise DiagramError(f"repeated loop line: {ln!r}")
            loops, = _integers(parts[1:], ln)
        elif parts[0] == "B":
            if boundary is not None:
                raise DiagramError(f"repeated boundary line: {ln!r}")
            boundary = {}
            for item in parts[1:]:
                lab, _, e = item.partition("=")
                if lab not in BOUNDARY_LABELS:
                    raise DiagramError(f"unknown endpoint label {lab!r}")
                if lab in boundary:
                    raise DiagramError(f"repeated endpoint label {lab!r}")
                boundary[lab], = _integers((e,), ln)
        else:
            raise DiagramError(f"unknown line {ln!r}")
    if kind == "tangle":
        if boundary is None:
            raise DiagramError("tangle file lacks a B line")
        if len(boundary) != 4:
            raise DiagramError("tangle must name all four endpoints NW, NE, SW, SE")
        d = TangleDiagram(crossings=tuple(crossings), loops=loops or 0,
                          boundary=tuple(boundary[lab] for lab in BOUNDARY_LABELS))
    elif boundary is not None:
        raise DiagramError("link file must not carry a B line")
    else:
        d = LinkDiagram(crossings=tuple(crossings), loops=loops or 0)
    err = validate(d)
    if err:
        raise DiagramError(err)
    return d
