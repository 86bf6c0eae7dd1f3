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
from dataclasses import dataclass, replace

from .fraction import Fraction, continued_fraction

BOUNDARY_LABELS = ("NW", "NE", "SW", "SE")
_NW, _NE, _SW, _SE = range(4)
# Circular order of the endpoints on the disk boundary.
_CIRCLE_ORDER = ("NW", "NE", "SE", "SW")

UNDER_SLOTS = (0, 2)
OVER_SLOTS = (1, 3)


@dataclass(frozen=True)
class Crossing:
    """Four edge ids counterclockwise; slots 0, 2 are the under-strand."""

    ports: tuple[int, int, int, int]

    def canonical(self) -> tuple[int, int, int, int]:
        """Rotation-normalized ports (shifting by 2 preserves the data)."""
        shifted = self.ports[2:] + self.ports[:2]
        return min(self.ports, shifted)


class DiagramError(ValueError):
    pass


@dataclass(frozen=True)
class TangleDiagram:
    crossings: tuple[Crossing, ...]
    boundary: tuple[int, int, int, int]   # edge ids at NW, NE, SW, SE
    loops: int = 0

    def __post_init__(self):
        if type(self.boundary) is not tuple or len(self.boundary) != 4:
            raise DiagramError("tangle must name all four endpoints NW, NE, SW, SE")

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)


@dataclass(frozen=True)
class LinkDiagram:
    crossings: tuple[Crossing, ...]
    loops: int = 0

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)


Diagram = TangleDiagram | LinkDiagram


# ---------------------------------------------------------------------------
# incidence bookkeeping

def edge_incidences(d: Diagram) -> dict[int, list[tuple]]:
    """Map edge id -> its incidences ('X', ci, slot) and ('B', label)."""
    inc: dict[int, list[tuple]] = {}
    for ci, c in enumerate(d.crossings):
        for slot, e in enumerate(c.ports):
            inc.setdefault(e, []).append(("X", ci, slot))
    if isinstance(d, TangleDiagram):
        for label, e in zip(BOUNDARY_LABELS, d.boundary):
            inc.setdefault(e, []).append(("B", label))
    return inc


def _other_incidence(incs: list[tuple], this: tuple) -> tuple:
    a, b = incs
    return b if a == this else a


class UnionFind:
    """Classes of fused edge ids; the smallest id of a class is its root."""

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
    """The integral tangle [n]: |n| horizontal half-twists chained east."""
    if n == 0:
        return zero_tangle()
    k = abs(n)
    crossings = []
    # per-crossing geometric positions of the slots, counterclockwise
    if n > 0:
        # under-strand on the SW-NE diagonal: slots are SW, SE, NE, NW
        pos = {"SW": 0, "SE": 1, "NE": 2, "NW": 3}
    else:
        # under-strand on the NW-SE diagonal: slots are NW, SW, SE, NE
        pos = {"NW": 0, "SW": 1, "SE": 2, "NE": 3}
    # edges: 0 = NW arc, 1 = SW arc, then two new edges per joint, finally NE/SE
    ports_by_crossing = [[None] * 4 for _ in range(k)]
    next_edge = 0

    def assign(ci, corner, e):
        ports_by_crossing[ci][pos[corner]] = e

    nw = next_edge; next_edge += 1
    sw = next_edge; next_edge += 1
    assign(0, "NW", nw)
    assign(0, "SW", sw)
    for ci in range(k - 1):
        top = next_edge; next_edge += 1
        bot = next_edge; next_edge += 1
        assign(ci, "NE", top)
        assign(ci, "SE", bot)
        assign(ci + 1, "NW", top)
        assign(ci + 1, "SW", bot)
    ne = next_edge; next_edge += 1
    se = next_edge; next_edge += 1
    assign(k - 1, "NE", ne)
    assign(k - 1, "SE", se)
    crossings = tuple(Crossing(tuple(p)) for p in ports_by_crossing)
    return TangleDiagram(crossings=crossings,
                         boundary=(nw, ne, sw, se))


def vertical_twists(n: int) -> TangleDiagram:
    """The vertical twist tangle with fraction 1/n (n != 0)."""
    if n == 0:
        return infinity_tangle()
    return rotate(horizontal_twists(-n))


def tangle_sum(t: TangleDiagram, u: TangleDiagram) -> TangleDiagram:
    """Glue u's west side to t's east side (NE~NW and SE~SW)."""
    return _glue((t, u), [((0, _NE), (1, _NW)), ((0, _SE), (1, _SW))],
                 [(0, _NW), (1, _NE), (0, _SW), (1, _SE)])


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
    return replace(d, crossings=flipped)


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

def strands(d: Diagram, inc: dict[int, list[tuple]] | None = None) -> list[list[tuple]]:
    """Strand passes, open strands first.

    Each strand is a list of traversal steps (edge, from_incidence,
    to_incidence).  Crossing-free loops (``d.loops``) are not listed.
    ``inc`` is ``edge_incidences(d)`` when the caller has it already.
    """
    if inc is None:
        inc = edge_incidences(d)
    crossings = d.crossings
    # (edge, incidence) for both incidences of every edge walked
    visited: set[tuple[int, tuple]] = set()
    result = []

    def walk(e, here):
        steps = []
        while True:
            far = _other_incidence(inc[e], here)
            steps.append((e, here, far))
            visited.add((e, far))
            visited.add((e, here))
            if far[0] == "B":
                return steps
            _, ci, slot = far
            out = (slot + 2) % 4
            here = ("X", ci, out)
            e = crossings[ci].ports[out]
            if (e, here) in visited:
                return steps

    if isinstance(d, TangleDiagram):
        done_labels = set()
        for label, e in zip(BOUNDARY_LABELS, d.boundary):
            if label in done_labels:
                continue
            steps = walk(e, ("B", label))
            result.append(steps)
            end = steps[-1][2]
            if end[0] == "B":
                done_labels.add(end[1])
    for ci, c in enumerate(crossings):
        for slot, e in enumerate(c.ports):
            start = ("X", ci, slot)
            if (e, start) not in visited:
                result.append(walk(e, start))
    return result


def open_strand_endpoints(d: TangleDiagram, st: list[list[tuple]] | None = None
                          ) -> list[tuple[str, str]]:
    """The endpoint pairing of the two open strands, labels sorted; ``st``
    is ``strands(d)`` when the caller has it already."""
    pairs = []
    for strand in strands(d) if st is None else st:
        a, b = strand[0][1], strand[-1][2]
        if a[0] == "B" and b[0] == "B":
            pairs.append(tuple(sorted((a[1], b[1]))))
    return sorted(pairs)


def component_count(d: LinkDiagram) -> int:
    return len(strands(d)) + d.loops


def component_subdiagrams(d: Diagram) -> list[LinkDiagram]:
    """Each strand alone, the other strands erased, as a link diagram.

    At a crossing with another strand the kept strand runs straight
    through, so the two edges of its pass fuse; an open strand is closed
    by an arc joining its two end edges.  For a link these are the
    component knots, for a tangle its strings closed by boundary arcs.
    """
    out = []
    for s in strands(d):
        own = {e for e, _, _ in s}
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
        if s[0][1][0] == "B":
            edges.union(s[0][0], s[-1][0])
        crossings = tuple(Crossing(tuple(map(edges.find, p))) for p in kept)
        out.append(renumber(LinkDiagram(crossings, loops=0 if kept else 1)))
    return out + [LinkDiagram((), loops=1)] * d.loops


@dataclass(frozen=True)
class OrientedDiagram:
    """A diagram with a direction assigned to every strand.

    edge_dir maps each edge id to its (tail, head) incidences.
    """

    base: Diagram
    edge_dir: dict[int, tuple[tuple, tuple]]

    def over_entry_slot(self, ci: int) -> int:
        c = self.base.crossings[ci]
        for slot in OVER_SLOTS:
            e = c.ports[slot]
            if self.edge_dir[e][1] == ("X", ci, slot):
                return slot
        raise DiagramError(f"crossing {ci} has no oriented over entry")

    def under_entry_slot(self, ci: int) -> int:
        c = self.base.crossings[ci]
        for slot in UNDER_SLOTS:
            e = c.ports[slot]
            if self.edge_dir[e][1] == ("X", ci, slot):
                return slot
        raise DiagramError(f"crossing {ci} has no oriented under entry")

    def crossing_sign(self, ci: int) -> int:
        """+1 when the under-strand passes right-to-left seen along the
        over-strand direction; that is, under enters one slot
        counterclockwise from the over entry."""
        over_in = self.over_entry_slot(ci)
        under_in = self.under_entry_slot(ci)
        return 1 if under_in == (over_in + 1) % 4 else -1


def orient(d: Diagram, choice: tuple[bool, ...] | None = None) -> OrientedDiagram:
    """Assign directions to strands; choice[i] reverses strand i.

    The default orients every strand along its discovery order.  Use
    :func:`all_orientations` to enumerate the 2^s assignments.
    """
    st = strands(d)
    if choice is None:
        choice = (False,) * len(st)
    if len(choice) != len(st):
        raise DiagramError(f"expected {len(st)} direction bits, got {len(choice)}")
    edge_dir: dict[int, tuple[tuple, tuple]] = {}
    for bits, strand in zip(choice, st):
        for e, a, b in strand:
            edge_dir[e] = (b, a) if bits else (a, b)
    return OrientedDiagram(base=d, edge_dir=edge_dir)


def all_orientations(d: Diagram) -> list[OrientedDiagram]:
    s = len(strands(d))
    return [orient(d, bits) for bits in itertools.product((False, True), repeat=s)]


# ---------------------------------------------------------------------------
# faces and validation

def _faces(d: Diagram, inc: dict[int, list[tuple]]) -> list[list[tuple]]:
    """Orbits of the face-tracing permutation; darts are (edge, to_inc).
    ``inc`` is ``edge_incidences(d)``."""
    for e, (a, b) in inc.items():
        if a == b:
            raise DiagramError(f"edge {e} has twice the same incidence")
    crossings = d.crossings
    seen = set()
    faces = []
    for e, pair in inc.items():
        for to in pair:
            cur = (e, to)
            if cur in seen:
                continue
            face = []
            while cur not in seen:
                seen.add(cur)
                face.append(cur)
                edge, at = cur
                if at[0] == "X":
                    # turn counterclockwise onto the next slot
                    _, ci, slot = at
                    slot = (slot + 1) % 4
                    edge = crossings[ci].ports[slot]
                    at = ("X", ci, slot)
                # else a one-valent endpoint: the face wraps around it
                a, b = inc[edge]
                cur = (edge, b if a == at else a)
            faces.append(face)
    return faces


def _node(incidence: tuple) -> tuple:
    """The vertex of an incidence: ('X', ci) for a crossing, or the
    endpoint ('B', label) itself."""
    return incidence if incidence[0] == "B" else incidence[:2]


def _incidence_components(inc: dict[int, list[tuple]]) -> list[set]:
    """Connected components of the crossing/endpoint graph (edges as links),
    from the edge incidences."""
    adj: dict[tuple, list] = {}
    for a, b in inc.values():
        va, vb = _node(a), _node(b)
        adj.setdefault(va, []).append(vb)
        adj.setdefault(vb, []).append(va)
    comps = []
    left = set(adj)
    while left:
        seed = left.pop()
        comp = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    left.discard(w)
                    frontier.append(w)
        comps.append(comp)
    return comps


def validate(d: Diagram) -> str | None:
    """Check the diagram invariants; return the first diagnostic, or None.

    Checks, in order: every edge has exactly two incidences; the rotation
    system is planar on every connected piece (Euler count); tangles have
    exactly two open strands, no closed components, and their endpoints in
    the circular order NW, NE, SE, SW on the outer face.
    """
    inc = edge_incidences(d)
    for e, pair in inc.items():
        if len(pair) != 2:
            return f"dangling port: edge {e} has {len(pair)} incidences"
    if isinstance(d, LinkDiagram):
        if d.crossing_count == 0 and d.loops == 0:
            return "empty diagram"
        if d.loops < 0:
            return "negative loop count"
    if isinstance(d, TangleDiagram) and d.loops:
        return "closed component in tangle"

    # planarity, per connected component of the underlying 4-valent graph
    comps = _incidence_components(inc)
    faces = _faces(d, inc)
    for comp in comps:
        ne = sum(1 for a, _ in inc.values() if _node(a) in comp)
        nf = sum(1 for f in faces if _node(f[0][1]) in comp)
        if len(comp) - ne + nf != 2:
            return "planarity: Euler count fails"

    if isinstance(d, TangleDiagram):
        st = strands(d, inc)
        open_strands = [s for s in st if s[0][1][0] == "B" or s[-1][2][0] == "B"]
        if len(open_strands) != 2:
            return f"strand count: {len(open_strands)} open strands"
        if len(st) > 2:
            return "closed component in tangle"
        err = _check_boundary_order(d, comps, faces, st)
        if err:
            return err
    return None


def _check_boundary_order(d: TangleDiagram, comps, faces, st) -> str | None:
    """Endpoints must sit on a common face in circle order NW, NE, SE, SW.

    ``comps``, ``faces`` and ``st`` are the incidence components, faces and
    strands of d."""
    endpoint_comp = {}
    for comp in comps:
        for v in comp:
            if v[0] == "B":
                endpoint_comp[v[1]] = id(comp)
    if len(set(endpoint_comp.values())) == 1:
        for face in faces:
            labels = [to[1] for _, to in face if to[0] == "B"]
            if not labels:
                continue
            if set(labels) != set(BOUNDARY_LABELS):
                continue
            seq = labels
            doubled = list(_CIRCLE_ORDER) * 2
            fwd = any(seq == doubled[i:i + 4] for i in range(4))
            rev = any(seq == doubled[i:i + 4][::-1] for i in range(4))
            if fwd or rev:
                return None
        return "boundary order: endpoints not in circular order on one face"
    # two separate open strands: their chords must not interleave
    pairs = open_strand_endpoints(d, st)
    order = {lab: i for i, lab in enumerate(_CIRCLE_ORDER)}
    if len(pairs) == 2:
        (a1, b1), (a2, b2) = pairs
        i, j = sorted((order[a1], order[b1]))
        k, l = sorted((order[a2], order[b2]))
        interleaves = (i < k < j < l) or (k < i < l < j)
        if interleaves:
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

    Rational leaves come from :func:`from_rational`; sums glue east to
    west and products glue south to north.  When a product's naive gluing
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
        return tangle_sum(from_expression(expr.left, resolver),
                          from_expression(expr.right, resolver))
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
