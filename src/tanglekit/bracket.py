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
grow.  Each open edge keeps one place on the frontier from step to step,
and a matching is the tuple of the places of the far ends, so that a
step rewrites only the few places its crossing touches.

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
from collections import defaultdict

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

    bits = 3 * k + d.loops + 2
    b2, b4, b8 = 2 * bits, 4 * bits, 8 * bits

    # matching (far end of each open edge, as a place on the frontier)
    # -> packed tally
    states: dict[tuple[int, ...], int] = {(): 1}
    before: tuple[int, ...] = ()
    for ports, after in _schedule(d):
        # places: the open edges, then the four ports; a port already open
        # keeps its place, and a fresh edge is its own far end
        grown = before + ports
        ends = tuple(range(len(before), len(grown)))
        p0, p1, p2, p3 = map(grown.index, ports)
        smoothings = ((p0, p1, p2, p3, b2), (p0, p3, p1, p2, 0))
        # open edges placed past the new frontier move into closed places
        moves = [(grown.index(e), j) for j, e in enumerate(after) if grown[j] != e]
        size = len(after)
        merged: defaultdict[tuple[int, ...], int] = defaultdict(int)
        for matching, tally in states.items():
            for x, y, u, v, lift in smoothings:
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
                # times the lift (A^2 for the A-smoothing), A^2 per open
                # arc and -(A^4 + 1) per arc that closed a circle
                if not closed:
                    merged[tuple(far)] += tally << lift + b4
                elif closed == 1:
                    t = tally << lift + b2
                    merged[tuple(far)] -= (t << b4) + t
                else:
                    t = tally << lift
                    merged[tuple(far)] += (t << b8) + (t << b4 + 1) + t
        states = merged
        before = after

    # times delta^n A^(2n) = (-(A^4 + 1))^n for n = loops - 1 (exact for
    # n = -1: every state has a circle), total is the value of
    # A^(5k + 2n) <d>
    (total,) = states.values()
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


def _schedule(d: LinkDiagram) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Contraction steps in greedy order: each crossing's ports and the
    open edges after it.

    Next comes the crossing sharing most edges with the open boundary
    (lowest index on ties).  Shared counts are kept only for crossings on
    the boundary and only grow: an edge opens at one crossing and closes
    at its other end.  An open edge keeps its place from step to step: a
    step appends the crossing's ports to the open edges, and open edges
    past the new end of the boundary move into the places of closed ones.
    """
    k = d.crossing_count
    mate = _ends(d)
    taken = [False] * k
    # crossing on the boundary -> k * shared edges - index, the greedy key
    key: dict[int, int] = {}
    is_open: set[int] = set()
    frontier: tuple[int, ...] = ()
    steps = []
    for _ in range(k):
        if key:
            ci = max(key, key=key.__getitem__)
            del key[ci]
        else:
            ci = taken.index(False)
        taken[ci] = True
        ports = d.crossings[ci]
        for y, e in enumerate(ports, 4 * ci):
            if e in is_open:
                is_open.remove(e)
            else:
                is_open.add(e)
                other = mate[y] >> 2
                if not taken[other]:
                    key[other] = key.get(other, -other) + k
        grown = frontier + ports
        frontier = grown[:len(is_open)]
        if not is_open.issuperset(frontier):
            spare = [e for e in grown[len(frontier):] if e in is_open]
            frontier = tuple([e if e in is_open else spare.pop() for e in frontier])
        steps.append((ports, frontier))
    return steps


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
    """(-t^(1/2) - t^(-1/2))^(components - 1)."""
    delta = LaurentPoly.make("sqrt_t", {1: -1, -1: -1})
    return delta ** (components - 1)


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
