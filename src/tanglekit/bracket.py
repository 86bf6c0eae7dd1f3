"""Kauffman bracket by planar contraction, writhe, linking number and Jones.

The bracket of a link diagram is the sum over its 2^k smoothings of
A^(a-b) * (-A^2 - A^(-2))^(loops-1), where a and b count the two smoothing
types.  With the crossing convention of :mod:`tanglekit.diagram` (slots
counterclockwise, under-strand at slots 0 and 2), the A-smoothing joins
slot 0 with slot 1 and slot 2 with slot 3; the B-smoothing joins 0 with 3
and 1 with 2.

The sum is not enumerated.  Crossings are contracted one at a time
(Kauffman's state model read as a Temperley-Lieb contraction; Bar-Natan's
crossing-by-crossing order), each next crossing the one sharing most
edges with the open boundary.  A partial state is a non-crossing matching
of the open edges, telling which open ends the contracted part joins;
states with equal matchings are merged, each keeping a tally of
(a - b, closed circles) counts.  Work grows with the number of matchings
of the boundary, not with 2^k.  The plain state sum is kept in the tests
as the oracle this contraction is checked against.

The Jones polynomial is the writhe-normalized bracket under A = t^(-1/4);
it is reported in the sqrt_t variable of :mod:`tanglekit.laurent`, and
the unknot has Jones polynomial 1.

These are the not-unknot / not-split obstruction engines: a split link
has linking number zero between any two components, and its Jones
polynomial is (-t^(1/2) - t^(-1/2)) times the product of the factors'.
The printed coefficient conventions of other sources vary; only computed
values are ever compared with computed values here.
"""

from __future__ import annotations

import os
from math import comb

from .diagram import LinkDiagram, OrientedDiagram, component_subdiagrams, orient
from .laurent import LaurentPoly

DEFAULT_CROSSING_BUDGET = 24
_BUDGET_ENV = "TANGLEKIT_CROSSING_BUDGET"


class CrossingBudgetExceeded(RuntimeError):
    pass


def crossing_budget() -> int:
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return DEFAULT_CROSSING_BUDGET
    return int(raw)


def kauffman_bracket(d: LinkDiagram) -> LaurentPoly:
    """Bracket polynomial in A; the crossing-free single loop has bracket 1."""
    k = d.crossing_count
    budget = crossing_budget()
    if k > budget:
        raise CrossingBudgetExceeded(f"{k} crossings exceeds budget {budget}")
    if k == 0 and d.loops == 0:
        raise ValueError("bracket of the empty diagram is undefined")

    # matching (sorted (edge, partner) pairs, both directions) ->
    # {(a - b, closed circles): number of partial states}
    states: dict[tuple, dict[tuple[int, int], int]] = {(): {(0, 0): 1}}
    for ci in _contraction_order(d):
        p = d.crossings[ci].ports
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


def _contraction_order(d: LinkDiagram) -> list[int]:
    """Crossings in greedy order: next, the one sharing most edges with the
    open boundary of those already taken (lowest index on ties)."""
    open_edges: set[int] = set()
    left = list(range(d.crossing_count))
    order = []
    while left:
        ci = max(left, key=lambda i: (
            sum(e in open_edges for e in d.crossings[i].ports), -i))
        left.remove(ci)
        order.append(ci)
        for e in d.crossings[ci].ports:
            open_edges ^= {e}
    return order


def writhe(od: OrientedDiagram) -> int:
    """Sum of crossing signs over all crossings."""
    return sum(od.crossing_sign(ci) for ci in range(od.base.crossing_count))


def linking_number(od: OrientedDiagram) -> int:
    """Half the signed count of crossings between the two components."""
    d = od.base
    if not isinstance(d, LinkDiagram):
        raise ValueError("linking number needs a link diagram")
    if len(set(od.strand_of)) + d.loops != 2:
        raise ValueError("linking number needs exactly 2 components")
    total = sum(od.crossing_sign(ci) for ci in range(d.crossing_count)
                if od.strand_of[4 * ci] != od.strand_of[4 * ci + 1])
    if total % 2 != 0:
        raise AssertionError("inter-component sign sum must be even")
    return total // 2


def jones(d: LinkDiagram, orientation: OrientedDiagram | None = None) -> LaurentPoly:
    """Jones polynomial in sqrt_t: (-A^3)^(-writhe) <D> at A = t^(-1/4).

    The default orientation runs every component forward in discovery
    order; for links the polynomial depends only on the relative
    orientations of the components.
    """
    od = orientation if orientation is not None else orient(d)
    d = od.base
    w = writhe(od)
    br = kauffman_bracket(d)
    # multiply by (-A^3)^(-w): exponent shift -3w, sign (-1)^w
    sign = -1 if w % 2 else 1
    normalized = br.shift(-3 * w).scale(sign)
    terms: dict[int, int] = {}
    for a_exp, coeff in normalized.coeffs:
        if a_exp % 2 != 0:
            raise AssertionError("normalized bracket must have even A exponents")
        terms[-a_exp // 2] = terms.get(-a_exp // 2, 0) + coeff
    return LaurentPoly.make("sqrt_t", terms)


def jones_unknot() -> LaurentPoly:
    return LaurentPoly.one("sqrt_t")


def jones_unlink(components: int) -> LaurentPoly:
    """(-t^(1/2) - t^(-1/2))^(components - 1)."""
    delta = LaurentPoly.make("sqrt_t", {1: -1, -1: -1})
    return delta ** (components - 1)


def split_union_jones(d: LinkDiagram) -> LaurentPoly:
    """Jones polynomial of the distant union of d's n components:
    (-t^(1/2) - t^(-1/2))^(n - 1) times the product of their polynomials.

    If d were a split link, its Jones polynomial would equal this value;
    inequality is therefore a not-split certificate.
    """
    comps = component_subdiagrams(d)
    if not comps:
        raise ValueError("empty diagram")
    poly = jones_unlink(len(comps))
    for c in comps:
        poly = poly * jones(c)
    return poly
