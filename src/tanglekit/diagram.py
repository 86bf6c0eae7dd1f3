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
an orientation is the set of ports at which a strand enters its crossing.

A link diagram walks its ends once.  The first of :func:`component_count`,
:func:`orient`, :func:`component_subdiagrams` and the bracket's schedule
to need them builds a :class:`Walk` (the mate of each end, the strands
and the default orientation) and caches it in the link's ``_walk`` slot,
outside its value key, as ``_determinant`` is.  The record is plain
data: an :class:`OrientedDiagram` refers back to its diagram, so one is
built from the record on each call instead, and no link is kept alive
by a reference cycle that only the cyclic garbage collector could free.

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


class DiagramError(ValueError):
    pass


class TangleDiagram(Value):
    """Crossings, the edge ids at NW, NE, SW, SE, and crossing-free loops.

    ``_colorings`` caches :func:`tanglekit.quandle.coloring_record`.
    """

    __slots__ = ("crossings", "boundary", "loops", "_colorings")

    def __init__(self, crossings: tuple[tuple[int, int, int, int], ...],
                 boundary: tuple[int, int, int, int], loops: int = 0):
        if type(boundary) is not tuple or len(boundary) != 4:
            raise DiagramError("tangle must name all four endpoints NW, NE, SW, SE")
        setfield(self, "crossings", crossings)
        setfield(self, "boundary", boundary)
        setfield(self, "loops", loops)
        setfield(self, "_colorings", None)

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)


class LinkDiagram(Value):
    """Crossings and crossing-free loops.

    ``_determinant`` is a closure's determinant, known from its tangle's
    coloring record, or None.  ``_walk`` caches :func:`walk`.
    """

    __slots__ = ("crossings", "loops", "_determinant", "_walk")

    def __init__(self, crossings: tuple[tuple[int, int, int, int], ...], loops: int = 0):
        setfield(self, "crossings", crossings)
        setfield(self, "loops", loops)
        setfield(self, "_determinant", None)
        setfield(self, "_walk", None)

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)


Diagram = TangleDiagram | LinkDiagram


# ---------------------------------------------------------------------------
# ends of edges

def _ends(d: Diagram) -> list[int]:
    """``mate[y]``, the other end of the edge at end y."""
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
    holding a renamed id (at most four) are rebuilt, and every other
    crossing tuple is t's own.  A pair already fused closes an arc into
    a crossing-free loop.  ``det`` is the link's determinant when known;
    the link keeps no reference to t."""
    b = t.boundary
    edges = UnionFind()
    loops = t.loops
    for i, j in pairs:
        if not edges.union(b[i], b[j]):
            loops += 1
    crossings = t.crossings
    if edges.parent:
        root = {e: edges.find(e) for e in edges.parent}
        renamed = root.keys()
        crossings = tuple(c if renamed.isdisjoint(c) else tuple(root.get(e, e) for e in c)
                          for c in crossings)
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

def strands(d: Diagram, mate: list[int] | None = None) -> list[list[int]]:
    """Strand passes, open strands first, each the list of ends it leaves from.

    Walks start at the boundary ends NW, NE, SW, SE, then at the ports in
    index order; this discovery order fixes the default orientation.
    Crossing-free loops (``d.loops``) are not listed.  ``mate`` is
    ``_ends(d)`` when the caller has it already.
    """
    if mate is None:
        mate = _ends(d)
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
    mate = _ends(d)
    k4 = 4 * len(d.crossings)
    return sorted(tuple(sorted((BOUNDARY_LABELS[s[0] - k4],
                                BOUNDARY_LABELS[mate[s[-1]] - k4])))
                  for s in strands(d, mate) if s[0] >= k4)


class Walk:
    """The strands of a diagram and its default orientation, as plain
    data: ``mate`` as from :func:`_ends`, the ``strands`` as from
    :func:`strands`, and the default orientation's ``heads`` (a tuple:
    a link keeps its walk, and a frozenset of 20 ports takes ten times
    the memory) and ``strand_of`` (see :class:`OrientedDiagram`).  It
    holds no reference to the diagram, so a link caching it makes no
    cycle."""

    __slots__ = ("mate", "strands", "heads", "strand_of")

    def __init__(self, mate, strands, heads, strand_of):
        self.mate = mate
        self.strands = strands
        self.heads = heads
        self.strand_of = strand_of


def walk(d: Diagram) -> Walk:
    """d's ends walked once, cached on a link diagram (a tangle's is built
    afresh on each call)."""
    if isinstance(d, LinkDiagram) and d._walk is not None:
        return d._walk
    mate = _ends(d)
    st = strands(d, mate)
    k4 = 4 * len(d.crossings)
    strand_of = [0] * len(mate)
    heads = []
    for i, strand in enumerate(st):
        for y in strand:
            z = mate[y]
            strand_of[y] = strand_of[z] = i
            if z < k4:
                heads.append(z)
    w = Walk(mate, st, tuple(heads), tuple(strand_of))
    if isinstance(d, LinkDiagram):
        setfield(d, "_walk", w)
    return w


def component_count(d: LinkDiagram) -> int:
    return len(walk(d).strands) + d.loops


def component_knot(d: Diagram, i: int) -> LinkDiagram:
    """Strand i of d alone, as in :func:`component_subdiagrams`."""
    w = walk(d)
    strand_of = w.strand_of
    edges = UnionFind()
    kept = []
    for ci, p in enumerate(d.crossings):
        under, over = strand_of[4 * ci] == i, strand_of[4 * ci + 1] == i
        if under and over:
            kept.append(p)
        elif under:
            edges.union(p[0], p[2])
        elif over:
            edges.union(p[1], p[3])
    s = w.strands[i]
    k4 = 4 * len(d.crossings)
    if s[0] >= k4:
        edges.union(d.boundary[s[0] - k4], d.boundary[w.mate[s[-1]] - k4])
    crossings = tuple(tuple(map(edges.find, p)) for p in kept)
    return renumber(LinkDiagram(crossings, loops=0 if kept else 1))


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

    The default orients every strand along its discovery order, and is
    read from :func:`walk`; an explicit choice is computed on each call.
    Use :func:`all_orientations` to enumerate the 2^s assignments.
    """
    w = walk(d)
    if choice is None:
        return OrientedDiagram(d, frozenset(w.heads), w.strand_of)
    if len(choice) != len(w.strands):
        raise DiagramError(f"expected {len(w.strands)} direction bits, got {len(choice)}")
    k4 = 4 * len(d.crossings)
    mate = w.mate
    heads = [y if back else mate[y] for back, strand in zip(choice, w.strands)
             for y in strand]
    return OrientedDiagram(d, frozenset(h for h in heads if h < k4), w.strand_of)


def all_orientations(d: Diagram) -> list[OrientedDiagram]:
    s = len(walk(d).strands)
    return [orient(d, bits) for bits in itertools.product((False, True), repeat=s)]


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


def _faces(mate: list[int], k4: int) -> list[list[int]]:
    """Orbits of :func:`_turns`, each the list of ends it leaves from."""
    turn = _turns(mate, k4)
    seen = [False] * len(mate)
    faces = []
    for y in range(len(mate)):
        face = []
        while not seen[y]:
            seen[y] = True
            face.append(y)
            y = turn[y]
        if face:
            faces.append(face)
    return faces


def validate(d: Diagram) -> str | None:
    """Check the diagram invariants; return the first diagnostic, or None.

    Checks, in order: every edge has exactly two ends; the loop count is
    not negative; the rotation system is planar on every connected piece
    (Euler count); tangles have no closed components, and their
    endpoints in the circular order NW, NE, SE, SW on one face, or on two
    pieces whose chords do not cross.
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
    # are the crossings and the boundary ends.  One search over mate
    # labels each end with its piece, all four ports of a crossing at
    # once.  Counted doubled, a crossing (four half edges) takes -2, a
    # boundary end +1 and a face, in the piece of its first end, +2.
    k4 = 4 * len(d.crossings)
    n = len(mate)
    piece = [-1] * n
    euler = []
    for start in range(n):
        if piece[start] >= 0:
            continue
        p = len(euler)
        term = 0
        todo = [start]
        while todo:
            y = todo.pop()
            if piece[y] >= 0:
                continue
            if y < k4:
                y &= ~3
                piece[y] = piece[y + 1] = piece[y + 2] = piece[y + 3] = p
                todo += mate[y:y + 4]
                term -= 2
            else:
                piece[y] = p
                todo.append(mate[y])
                term += 1
        euler.append(term)
    turn = _turns(mate, k4)
    seen = [False] * n
    for y in range(n):
        if not seen[y]:
            euler[piece[y]] += 2
            while not seen[y]:
                seen[y] = True
                y = turn[y]
    if any(t != 4 for t in euler):
        return "planarity: Euler count fails"

    if isinstance(d, TangleDiagram):
        # walk the two open strands, from NW and from the next boundary
        # end that NW's strand does not reach; the ends they leave short
        # of all ends lie on closed components
        covered = 0
        far = []
        for y in (k4, k4 + 1):
            if far and far[0] == y:
                y = k4 + 2
            while True:
                z = mate[y]
                covered += 2
                if z >= k4:
                    break
                y = z ^ 2
            far.append(z)
        if covered < n:
            return "closed component in tangle"
        if piece[k4] == piece[k4 + 1] == piece[k4 + 2] == piece[k4 + 3]:
            # the face through NW is the only one that can hold all four
            pos, y = [_CIRCLE_POS[_NW]], turn[k4]
            while y != k4:
                if y > k4:
                    pos.append(_CIRCLE_POS[y - k4])
                y = turn[y]
            steps = {(b - a) % 4 for a, b in zip(pos, pos[1:] + pos[:1])}
            if len(pos) == 4 and len(steps) == 1:
                return None
            return "boundary order: endpoints not in circular order on one face"
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
    a horizontal block; the crossing count is the sum of |entries|.  A
    count over ``RATIONAL_CROSSING_LIMIT`` (100,000) raises
    :class:`DiagramError` before anything is built.
    """
    if f.is_infinite:
        return infinity_tangle()
    entries = continued_fraction(f)
    count = sum(map(abs, entries))
    if count > RATIONAL_CROSSING_LIMIT:
        raise DiagramError(f"rational tangle {f} needs {count} crossings, over "
                           f"the limit of {RATIONAL_CROSSING_LIMIT}")
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
