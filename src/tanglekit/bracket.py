"""Kauffman bracket by planar contraction, writhe, linking number and Jones.

The bracket of a link diagram is the sum over its 2^k smoothings of
A^(a-b) * (-A^2 - A^(-2))^(loops-1), where a and b count the two smoothing
types.  With the crossing convention of :mod:`tanglekit.diagram` (slots
counterclockwise, under-strand at slots 0 and 2), the A-smoothing joins
slot 0 with slot 1 and slot 2 with slot 3; the B-smoothing joins 0 with 3
and 1 with 2.

The sum is not enumerated.  Crossings are contracted one at a time
(Kauffman's state model read as a Temperley-Lieb contraction; Bar-Natan's
crossing-by-crossing order).  A partial state is a non-crossing matching
of the open edges, telling which open ends the contracted part joins;
states with equal matchings are merged.  Work grows with the number of
matchings of the boundary, not with 2^k.  The plain state sum and the
earlier contraction, which kept a dict of (a - b, closed circles) counts
per matching, are kept in the tests as oracles.

Schedule.  ``_schedule`` picks the next crossing greedily: the one
sharing most edges with the open boundary, the lowest index on ties.
Shared counts are kept only for crossings on the boundary, and they only
grow.  It runs on the diagram's cached array of ends, not on edge ids:
an open edge's place on the frontier is kept at its far end, the end
where it will close, so a port reads its edge's place off its own end.
A port that opens an edge takes a fresh place past the frontier, and the
open edges left past the new size then move into the places that
closed.  A matching is the tuple of the places of the far ends, so a
step rewrites only the few places its crossing touches.

Steps.  A step is (n, p0, p1, p2, p3, node): the frontier size before
it, its four ports' places and the node it starts from.  Places 0..n-1
are full before every step, so those five numbers fix the size after it
and its moves.  A step names no edge and no diagram, so distinct links
share steps: along a sum or product of small rational tangles the greedy
order opens and closes edges in a few patterns, and the frontier stays
narrow (on the benchmark's 10-14-crossing closures it never holds more
than 6 open edges, so at most 5 matchings are live).  A node is the
tuple of the matchings live at once, interned as an id.  What a step
does is the same for every link, so it is compiled once, on first
sight: into the size after it and its moves, which the schedule applies
to its places, and, by the far-end rewrite of each matching, into the
next node and the transitions (i, j, kind), where matching i, smoothed,
becomes matching j of the next node and kind (the smoothing and the
circles it closed) fixes the tally arithmetic.  A contraction is then a
walk through one module-level table keyed by step: per step, one lookup
and a shift and an addition per transition; no list of steps is built.
On 30,000 benchmark closures the table stopped growing at 961 entries
over 103 nodes, about 240 KB with equal matchings, transitions, moves
and entries stored once.  It stores at most ``STEP_CAP``
transitions; a step that does not fit is compiled for its call alone,
and the table is replaced by an empty one only at the start of the next
bracket call, never inside a contraction.

Packing.  A matching's tally sum c_e A^e is kept as one integer, its value
at A = X = 2^B (Kronecker substitution), so merging two states is one
addition.  Each smoothing makes two arcs: an arc that stays open weighs
A^2, an arc that closes a circle weighs delta A^2 = -(A^4 + 1), and the
A-smoothing weighs A^2 more than the B-smoothing.  Exponents stay
non-negative, and the contraction ends with the value at X of
A^(5k) sum A^(a-b) delta^circles.  Multiplied by (-(X^4 + 1))^(loops-1),
or for loops = 0 divided exactly by -(X^4 + 1) (every state has a
circle), it is the value of A^(5k + 2 loops - 2) <D>, read once in
balanced base X from its lowest nonzero slot.

Why B = 3k + loops + 2 suffices.  Integer arithmetic is exact, so the
final integer is the final polynomial's value at X, however the sums
before it overflowed their slots; its slots read back the coefficients
when each has |c| < X/2.  |c| is at most the l1 norm of <D>, which is at most
the sum over the 2^k states of |delta^(circles+loops-1)|_1 =
2^(circles+loops-1).  Every circle of a state runs through one of the 2k
arcs of the smoothed crossings (crossing-free loops are counted apart),
so circles <= 2k, and |c| <= 2^(3k+loops-1) < 2^(B-1).

The Jones polynomial is the writhe-normalized bracket under A = t^(-1/4);
it is reported in the sqrt_t variable of :mod:`tanglekit.laurent`, and
the unknot has Jones polynomial 1.

These are the not-unknot / not-split obstruction engines: a split link
has linking number zero between any two components, and its Jones
polynomial is (-t^(1/2) - t^(-1/2)) times the product of the factors'.
The printed coefficient conventions of other sources vary; only computed
values are ever compared with computed values here.

Kinks.  The distant union's factors are the Jones polynomials of the
component knots, and most of them are unknots once their kinks are
gone.  The Gauss word of component i lists the crossings of i with
itself in the order i passes them, each twice.  Two adjacent passages
through one crossing c enclose a loop that meets no other crossing of
the component: a simple closed curve on the sphere, with the rest of
the component, which is connected and does not cross it, on one side.
The other side is an empty disk, so c is a kink, a first Reidemeister
move removes it, and the word loses the two adjacent letters.  Hence
cancelling adjacent equal letters with a stack and then trimming equal
letters from both ends (the word is cyclic) is repeated Reidemeister I
(:func:`kink_free_words`).  A knot diagram with fewer than three
crossings is the unknot, whose factor is 1, so only a component whose
word keeps three crossings or more is bracketed
(:func:`possibly_knotted`).
"""

from __future__ import annotations

import os
import threading
from math import comb

from .diagram import (
    Diagram,
    LinkDiagram,
    OrientedDiagram,
    _ends,
    component_count,
    component_knot,
    walk,
)
from .laurent import LaurentPoly

DEFAULT_CROSSING_BUDGET = 24
_BUDGET_ENV = "TANGLEKIT_CROSSING_BUDGET"


class CrossingBudgetExceeded(RuntimeError):
    pass


def crossing_budget() -> int:
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return DEFAULT_CROSSING_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{_BUDGET_ENV} must be an integer, not {raw!r}") from None


def kauffman_bracket(d: LinkDiagram) -> LaurentPoly:
    """Bracket polynomial in A; the crossing-free single loop has bracket 1."""
    k = d.crossing_count
    budget = crossing_budget()
    # loops widen the packed slots as crossings do, so they count too
    if k + d.loops > budget:
        if not d.loops:
            raise CrossingBudgetExceeded(f"{k} crossings exceeds budget {budget}")
        raise CrossingBudgetExceeded(
            f"{k} crossings and {d.loops} loops exceed budget {budget}")
    if k == 0 and d.loops == 0:
        raise ValueError("bracket of the empty diagram is undefined")

    # a full table is replaced, never emptied under a running contraction
    global _table
    if _table.full:
        _table = _StepTable()
    table = _table
    bits = 3 * k + d.loops + 2
    b2, b4, b8 = 2 * bits, 4 * bits, 8 * bits
    b4_1 = b4 + 1
    # the shift of a transition's tally, by kind = 2 * closed + smoothing
    # (0 for A, 1 for B): A^2 more for the A-smoothing, A^2 per open arc
    shifts = (b2 + b4, b4, b2 + b2, b2, b2, 0)

    # the matchings' packed tallies, in the order of the step's node
    tallies = [1]
    for _, width, transitions, _, _ in _schedule(d, table):
        merged = [0] * width
        # an open arc weighs A^2, an arc that closed a circle -(A^4 + 1) A^2
        for i, j, kind in transitions:
            if kind < 2:
                merged[j] += tallies[i] << shifts[kind]
            elif kind < 4:
                t = tallies[i] << shifts[kind]
                merged[j] -= (t << b4) + t
            else:
                t = tallies[i] << shifts[kind]
                merged[j] += (t << b8) + (t << b4_1) + t
        tallies = merged

    # times delta^n A^(2n) = (-(A^4 + 1))^n for n = loops - 1 (exact for
    # n = -1: every state has a circle), total is the value of
    # A^(5k + 2n) <d>
    (total,) = tallies
    n = d.loops - 1
    if n < 0:
        total = -(total // ((1 << b4) + 1))
    else:
        total *= (-(1 << b4) - 1) ** n
    slot = ((total & -total).bit_length() - 1) // bits
    total >>= slot * bits
    mask, sign = (1 << bits) - 1, 1 << bits - 1
    coeffs = []
    while total:
        c = total & mask
        total >>= bits
        if c & sign:
            c -= 1 << bits
            total += 1
        if c:
            coeffs.append((slot - 5 * k - 2 * n, c))
        slot += 1
    return LaurentPoly("A", tuple(coeffs))


def _schedule(d: LinkDiagram, table: _StepTable):
    """Contract d's crossings in greedy order: yield each step's entry in
    table, compiled first when it is not stored.

    Next comes the crossing sharing most edges with the open boundary
    (lowest index on ties).  Shared counts are kept only for crossings on
    the boundary and only grow: an edge opens at one crossing and closes
    at its other end.  An open edge's place is kept at its far end, the
    end where it will close.  A port whose end holds no place opens its
    edge at place n + slot (a kink's two ports share the first), and one
    that holds a place closes it there; the entry's moves then carry the
    open edges left past the new size into the places that closed.
    """
    k = d.crossing_count
    mate = _ends(d)
    entries = table.entries
    taken = [False] * k
    # crossing on the boundary -> k * shared edges - index, the greedy key
    key: dict[int, int] = {}
    # end -> the place of the open edge that closes there, or -1; and
    # place -> the end where its open edge closes, or -1
    placed = [-1] * len(mate)
    at: list[int] = []
    node: int | tuple = 0
    for _ in range(k):
        if key:
            ci = max(key, key=key.__getitem__)
            del key[ci]
        else:
            ci = taken.index(False)
        taken[ci] = True
        n = len(at)
        at += (-1, -1, -1, -1)
        places = [n]
        for y in range(4 * ci, 4 * ci + 4):
            p = placed[y]
            if p < 0:
                z = mate[y]
                p = placed[z] = n + (y & 3)
                at[p] = z
                other = z >> 2
                if not taken[other]:
                    key[other] = key.get(other, -other) + k
            else:
                at[p] = -1
            places.append(p)
        places.append(node)
        step = tuple(places)
        entry = entries.get(step)
        if entry is None:
            entry = table.compile(step)
        node, _, _, size, moves = entry
        for src, dst in moves:
            z = at[dst] = at[src]
            placed[z] = dst
        del at[size:]
        yield entry


class _StepTable:
    """Compiled contraction steps, shared by every bracket call (see the
    module docstring's "Steps").

    An entry maps (n, the four ports' places, node id) to the next node's
    id, its width, the transitions (i, j, kind), with kind = 2 * closed
    circles + smoothing (0 for A, 1 for B), the frontier size after the
    step and its (from, to) place moves.  A step that does not fit under
    ``STEP_CAP`` is compiled for its call alone, its next node carried as
    the matchings themselves, and the table is marked full, to be replaced
    by an empty one at the start of the next call.
    """

    __slots__ = ("entries", "nodes", "ids", "shared", "stored", "full", "lock")

    def __init__(self):
        self.entries: dict[tuple, tuple] = {}
        # node 0 is the empty frontier's one matching
        self.nodes: list[tuple] = [((),)]
        self.ids: dict[tuple, int] = {((),): 0}
        # one copy of each equal matching, transition, transition tuple,
        # move tuple and entry
        self.shared: dict[tuple, tuple] = {}
        self.stored = 0
        self.full = False
        # node ids are list positions, so storing is one critical section
        self.lock = threading.Lock()

    def compile(self, step: tuple) -> tuple:
        """The entry of step = (n, p0, p1, p2, p3, node): the places 0..n-1
        are full before it, so the ports' places fix the size after it and
        its moves, and the far-end rewrite of each matching fixes the
        transitions.  Stored when the node is interned and the cap has
        room."""
        n, p0, p1, p2, p3, node = step
        full = [True] * n + [False] * 4
        for p in (p0, p1, p2, p3):
            full[p] = not full[p]
        size = full.count(True)
        # the open edges left past the new size move, highest place first,
        # into the free places below it, lowest first
        late = [p for p in range(size, n + 4) if full[p]]
        moves = tuple([(late.pop(), j) for j in range(size) if not full[j]])
        matchings = self.nodes[node] if isinstance(node, int) else node
        # places: the open edges, then the four ports; a fresh edge is
        # its own far end
        ends = range(n, n + 4)
        smoothings = ((p0, p1, p2, p3, 0), (p0, p3, p1, p2, 1))
        index: dict[tuple[int, ...], int] = {}
        transitions = []
        for i, matching in enumerate(matchings):
            for x, y, u, v, smoothing in smoothings:
                far = [*matching, *ends]
                fx, fy = far[x], far[y]
                if fx == y:
                    closed = 1
                else:
                    closed = 0
                    far[fx], far[fy] = fy, fx
                fu, fv = far[u], far[v]
                if fu == v:
                    closed += 1
                else:
                    far[fu], far[fv] = fv, fu
                for src, dst in moves:
                    f = far[dst] = far[src]
                    far[f] = dst
                del far[size:]
                j = index.setdefault(tuple(far), len(index))
                transitions.append((i, j, 2 * closed + smoothing))
        after = tuple(index)
        with self.lock:
            if not isinstance(node, int) or self.stored + len(transitions) > STEP_CAP:
                self.full = True
                return after, len(after), transitions, size, moves
            share = self.shared.setdefault
            nid = self.ids.get(after)
            if nid is None:
                after = tuple([share(m, m) for m in after])
                nid = self.ids[after] = len(self.nodes)
                self.nodes.append(after)
            transitions = tuple([share(t, t) for t in transitions])
            entry = (nid, len(after), share(transitions, transitions), size,
                     share(moves, moves))
            entry = self.entries[step] = share(entry, entry)
            self.stored += len(transitions)
            return entry


# transitions the step table stores at most: the benchmark's closures need
# about 7,000, and a full table of wide-frontier steps holds about 2.4 MB
STEP_CAP = 1 << 15
_table = _StepTable()


def _signs(heads, k: int) -> list[int]:
    """The sign of each of the k crossings under an orientation with
    entry ports heads.

    A crossing is positive when its under-strand enters one slot
    counterclockwise from the over-strand's entry: at slots (1, 2) or
    (3, 0), over first.  Of its two entry ports one is an over slot and
    one an under slot, so it is positive exactly when one of the two
    slots is 2 or 3, that is, when the two entries differ in the bit of
    value 2."""
    flips = [0] * k
    for y in heads:
        flips[y >> 2] ^= y & 2
    return [f - 1 for f in flips]


def writhe(od: OrientedDiagram) -> int:
    """Sum of crossing signs over all crossings."""
    return sum(_signs(od.heads, od.base.crossing_count))


def linking_number(od: OrientedDiagram) -> int:
    """Half the signed count of crossings between the two components."""
    d = od.base
    if not isinstance(d, LinkDiagram):
        raise ValueError("linking number needs a link diagram")
    w = walk(d)
    if len(w.strands) + d.loops != 2:
        raise ValueError("linking number needs exactly 2 components")
    strand_of = w.strand_of
    total = sum(s for ci, s in enumerate(_signs(od.heads, d.crossing_count))
                if strand_of[4 * ci] != strand_of[4 * ci + 1])
    if total % 2 != 0:
        raise AssertionError("inter-component sign sum must be even")
    return total // 2


def jones(d: LinkDiagram, orientation: OrientedDiagram | None = None) -> LaurentPoly:
    """Jones polynomial in sqrt_t: (-A^3)^(-writhe) <D> at A = t^(-1/4).

    The default orientation runs every component forward in discovery
    order; for links the polynomial depends only on the relative
    orientations of the components.  The bracket's terms A^e map one to
    one onto the terms sqrt_t^((3w - e)/2), in reverse order, so the
    coefficients are written in one pass, sorted and with no zeros.
    """
    if orientation is None:
        heads = walk(d).heads
    else:
        d = orientation.base
        heads = orientation.heads
    w = sum(_signs(heads, d.crossing_count))
    br = kauffman_bracket(d)
    # times (-A^3)^(-w): exponent shift -3w, sign (-1)^w; then A^e is
    # t^(-e/4), the doubled sqrt_t exponent -e/2
    shift = 3 * w
    sign = -1 if w & 1 else 1
    coeffs = []
    for e, c in reversed(br.coeffs):
        e -= shift
        if e & 1:
            raise AssertionError("normalized bracket must have even A exponents")
        coeffs.append((-e // 2, sign * c))
    return LaurentPoly("sqrt_t", tuple(coeffs))


def jones_unknot() -> LaurentPoly:
    return LaurentPoly.one("sqrt_t")


def jones_unlink(components: int) -> LaurentPoly:
    """(-t^(1/2) - t^(-1/2))^(components - 1), written by the binomial
    theorem: with m = components - 1, the term t^((m - 2i)/2) has
    coefficient (-1)^m C(m, i)."""
    m = components - 1
    if m < 0:
        raise ValueError("negative powers are not supported")
    sign = -1 if m & 1 else 1
    return LaurentPoly("sqrt_t", tuple((m - 2 * i, sign * comb(m, i))
                                       for i in range(m, -1, -1)))


def kink_free_words(d: Diagram) -> list[list[int]]:
    """Each strand's Gauss word on its own crossings, kinks cancelled.

    The word lists the crossings of strand i with itself, each twice, in
    the order the strand passes them (an open strand is closed by a
    boundary arc, which passes none); adjacent equal letters cancel, the
    word read cyclically (see the module docstring).
    """
    w = walk(d)
    strand_of = w.strand_of
    k4 = 4 * len(d.crossings)
    words = []
    for i, strand in enumerate(w.strands):
        stack = []
        for y in strand:
            # y ^ 1 is a port of the other pass through y's crossing
            if y < k4 and strand_of[y ^ 1] == i:
                c = y >> 2
                if stack and stack[-1] == c:
                    stack.pop()
                else:
                    stack.append(c)
        lo, hi = 0, len(stack)
        while lo < hi and stack[lo] == stack[hi - 1]:
            lo += 1
            hi -= 1
        words.append(stack[lo:hi])
    return words


def possibly_knotted(d: Diagram) -> list[tuple[int, LinkDiagram]]:
    """(i, component knot i) for the strands whose kink-free word keeps
    three crossings or more; every other component knot is the unknot."""
    return [(i, component_knot(d, i)) for i, word in enumerate(kink_free_words(d))
            if len(word) >= 6]


def split_union_jones(d: LinkDiagram) -> LaurentPoly:
    """Jones polynomial of the distant union of d's n components:
    (-t^(1/2) - t^(-1/2))^(n - 1) times the product of their polynomials,
    where only :func:`possibly_knotted` components have a factor other than 1.

    If d were a split link, its Jones polynomial would equal this value;
    inequality is therefore a not-split certificate.
    """
    n = component_count(d)
    if not n:
        raise ValueError("empty diagram")
    poly = jones_unlink(n)
    for _, knot in possibly_knotted(d):
        poly = poly * jones(knot)
    return poly
