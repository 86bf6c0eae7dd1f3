"""Search for catalog tangle diagrams matching the published answers.

The bundled catalog needs concrete planar diagrams for the essential
tangles that have no algebraic expression.  This tool enumerates the
standard closed diagrams of the target's crossing number (rational links,
and the closures of sums and products of two rational tangles), cuts each
open at every pair of edges, and keeps for each target the first cut
tangle that matches it: ``classify``, told nothing of essentiality, must
give it the published verdict of the ``EXPECTED_*`` tables of
``tanglekit.catalog``, and ``matches`` checks only the facts ``classify``
does not hold.  The search is deterministic.  Survivors are written as
diagram files for the package data directory, over the shipped ones,
each with the evidence ``classify`` gives it.

Run:  python tools/find_catalog_diagrams.py [entry ...]
"""

from __future__ import annotations

import sys
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the package, and the test oracles for the finite-quandle search and the
# face tracing
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from tanglekit.bracket import jones, jones_unlink, possibly_knotted  # noqa: E402
from tanglekit.catalog import (  # noqa: E402
    _SWEEP,
    EXPECTED_FRACTIONS,
    EXPECTED_UNKNOTTABLE,
    EXPECTED_UNLINKABLE,
    CatalogEntry,
    Classification,
    ClosedLink,
    classify,
    closure_link,
)
from tanglekit.diagram import (  # noqa: E402
    LinkDiagram,
    TangleDiagram,
    _ends,
    canonical_form,
    close_numerator,
    from_rational,
    print_diagram,
    renumber,
    tangle_sum,
    validate,
)
from tanglekit.fraction import Fraction, frac_mirror, frac_normalize  # noqa: E402
from tanglekit.quandle import coloring_record  # noqa: E402
from oracles import (  # noqa: E402
    GF4_TABLE,
    all_orientations,
    nontrivial_c_colorings_finite,
    traced_faces,
)

OUT_DIR = ROOT / "src" / "tanglekit" / "data" / "catalog"


# ---------------------------------------------------------------------------
# cut tangles

def cut_edges(L: LinkDiagram, e: int, f: int) -> list[TangleDiagram]:
    """Tangles obtained by cutting open two edges of a closed diagram.

    The two cut edges become the four boundary endpoints, paired so each
    former edge spans an adjacent pair (its middle piece is a closure
    arc).  Of the four ways to place the pairs, those ``validate``
    refuses are dropped, among them every one whose ends run round the
    other way.
    """
    out = []
    if L.loops:
        return out
    fresh = max((x for c in L.crossings for x in c), default=-1) + 1
    e1, e2, f1, f2 = fresh, fresh + 1, fresh + 2, fresh + 3

    def rewritten(old, new_a, new_b, crossings):
        done = 0
        res = []
        for c in crossings:
            row = []
            for x in c:
                if x == old:
                    row.append(new_a if done == 0 else new_b)
                    done += 1
                else:
                    row.append(x)
            res.append(tuple(row))
        return res, done

    rows, n_e = rewritten(e, e1, e2, L.crossings)
    rows2, n_f = rewritten(f, f1, f2, rows)
    if n_e != 2 or n_f != 2:
        return out
    crossings = tuple(rows2)
    # boundaries in NW, NE, SW, SE order
    for boundary in ((e1, e2, f1, f2), (e1, e2, f2, f1),
                     (e2, e1, f1, f2), (e2, e1, f2, f1)):
        t = TangleDiagram(crossings=crossings, boundary=boundary)
        if validate(t) is None:
            out.append(renumber(t))
    return out


def all_cut_tangles(L: LinkDiagram):
    """Every tangle with a plain-arc closure equal to the diagram L."""
    edges = sorted({x for c in L.crossings for x in c})
    for i, e in enumerate(edges):
        for f in edges[i + 1:]:
            yield from cut_edges(L, e, f)


def has_kink_or_reducible_bigon(d: TangleDiagram) -> bool:
    mate = _ends(d)
    k4 = 4 * d.crossing_count
    for y in range(k4):
        if mate[y] < k4 and mate[y] >> 2 == y >> 2:
            return True  # kink
    for face in traced_faces(mate, k4):
        if len(face) != 2:
            continue
        ends = [face[0], mate[face[0]], face[1], mate[face[1]]]
        if max(ends) >= k4:
            continue
        # the bigon's two edges: one over at both crossings, one under
        if [y & 1 for y in ends] in ([1, 1, 0, 0], [0, 0, 1, 1]):
            return True  # second Reidemeister bigon
    return False


# ---------------------------------------------------------------------------
# the facts a target matches beyond its published verdict

def unique_unknotting_closure(t: TangleDiagram, main: Fraction) -> bool:
    """No second sweep closure may certify as the unknot."""
    for c in _SWEEP:
        if c == main:
            continue
        if ClosedLink(closure_link(t, c)).is_unknot():
            return False
    return True


@cache
def torus_jones(n: int) -> tuple:
    """Jones polynomials of N([n]) and N([-n]), the (2, n) torus knot or
    link and its mirror image."""
    return tuple(jones(close_numerator(from_rational(Fraction(s * n, 1))))
                 for s in (1, -1))


def gf4_orientations(t) -> list[int]:
    return [i for i, od in enumerate(all_orientations(t))
            if nontrivial_c_colorings_finite(od, GF4_TABLE)]


# The facts each target matches beyond its published verdict and the
# coloring fraction of an ``EXPECTED_FRACTIONS`` target.  The crossing
# number is the name's.  The facts: N(T) has the Jones polynomial of
# N([n_torus]) or its mirror; some or no orientation has a nontrivial
# GF(4) c-coloring; targets of one pair differ in N(T)'s Jones
# polynomial; the splitting candidate has linking number 0 or not, and
# these component knots.  The search tries targets in this order, so
# 7_2 claims a drawing before its partner 7_14.
TARGETS = {
    "5_1": dict(n_torus=5),
    "6_1": {},
    "7_2": dict(pair="A"),
    "7_14": dict(pair="A"),
    "7_5": dict(gf4="none"),
    "7_7": dict(gf4="some"),
    "6_3": {},
    "7_13": dict(lk_zero=True, comps="trefoil+unknot"),
    "7_15": dict(lk_zero=True, comps="unknots"),
    "7_17": dict(lk_zero=False),
    "7_18": dict(lk_zero=False),
}


def crossing_number(name: str) -> int:
    return int(name.split("_")[0])


def judge(name: str, t: TangleDiagram) -> Classification:
    """``classify`` on the drawing, which must not assume it is essential:
    its "splittable: no" has to be a certified rejection."""
    return classify(CatalogEntry(name, t, None, essential=False))


def matches(name: str, t: TangleDiagram) -> bool:
    """Does ``classify`` give the drawing the target's published verdict,
    the status and closure of each property, and does the drawing have
    the facts ``classify`` does not hold?  The cheap necessary facts come
    first: the coloring record's c-coloring status and fraction, and the
    certificate at the published unknotting closure."""
    target = TARGETS[name]
    unknot = EXPECTED_UNKNOTTABLE.get(name)
    unlink = EXPECTED_UNLINKABLE.get(name)
    record = coloring_record(t)
    cf = record.fraction
    if record.report.polychromatic_somewhere() != (unknot is None):
        return False
    if unlink is not None and cf != frac_mirror(unlink):
        return False
    if name in EXPECTED_FRACTIONS and cf != EXPECTED_FRACTIONS[name]:
        return False
    if unknot is not None and not ClosedLink(closure_link(t, unknot)).is_unknot():
        return False
    judged = judge(name, t)
    v = judged.verdict
    if ([(p.status, p.closure) for p in (v.unknottable, v.unlinkable, v.splittable)]
            != [("no", None) if c is None else ("yes", c) for c in (unknot, unlink, unlink)]):
        return False
    if unknot is not None and not unique_unknotting_closure(t, unknot):
        return False
    if "n_torus" in target and jones(close_numerator(t)) not in torus_jones(target["n_torus"]):
        return False
    if "gf4" in target and bool(gf4_orientations(t)) != (target["gf4"] == "some"):
        return False
    if "lk_zero" not in target:
        return True
    L = judged.closure(frac_mirror(cf))
    if target["lk_zero"] != (L.linking_number == 0):
        return False
    # V(K1) V(K2) = 1 forces both factors to be 1, and a trefoil's
    # polynomial is a monomial times an irreducible cubic, so a product
    # equal to it has one factor equal to 1
    union = L.split_union_jones
    if target.get("comps") == "unknots":
        return union == jones_unlink(2)
    if target.get("comps") == "trefoil+unknot":
        trefoils = torus_jones(3)
        return (union in [jones_unlink(2) * j for j in trefoils]
                and any(jones(k) in trefoils for _, k in possibly_knotted(t)))
    return True


def variants(t: TangleDiagram):
    """The eight rotation/mirror images; fractions map by -1/f and -f."""
    from tanglekit.diagram import mirror, rotate

    cur = t
    for _ in range(4):
        yield cur
        yield mirror(cur)
        cur = rotate(cur)


def rational_pool(k: int):
    """All reduced fractions whose twist vector has |entries| summing to k."""
    from math import gcd

    from tanglekit.fraction import continued_fraction

    out = []
    for p in range(-3 * k * k, 3 * k * k + 1):
        for q in range(0, 3 * k * k + 1):
            if (p, q) == (0, 0) or (q == 0 and p != 1):
                continue
            if q and gcd(abs(p), q) != 1:
                continue
            f = frac_normalize(p, q)
            if f.is_infinite:
                continue
            if sum(abs(c) for c in continued_fraction(f)) == k:
                out.append(f)
    return out


def closed_diagram_pool(k: int):
    """Closed k-crossing diagrams: rational, sum-of-rationals and product
    forms, numerator and denominator closures."""
    from tanglekit.diagram import close_denominator, tangle_product

    pool = []

    def add(t):
        pool.append(close_numerator(t))
        pool.append(close_denominator(t))

    rationals = {}
    for kk in range(1, k + 1):
        rationals[kk] = rational_pool(kk)
    for f in rationals[k]:
        add(from_rational(f))
    for k1 in range(2, k - 1):
        for f1 in rationals[k1]:
            for f2 in rationals[k - k1]:
                add(tangle_sum(from_rational(f1), from_rational(f2)))
    for k1 in range(2, k - 1):
        for f1 in rationals[k1]:
            for f2 in rationals[k - k1]:
                add(tangle_product(from_rational(f1), from_rational(f2)))
    return pool


def cut_search(names: list[str], verbose: bool = True):
    """Cut every closed diagram of ``closed_diagram_pool`` open at every
    pair of edges, and keep for each named target the first cut tangle, in
    one of its eight rotation/mirror images, that ``matches`` it.  A pair
    target is searched with its partners, and every target in ``TARGETS``
    order, so each drawing of a pair goes to the same target whatever is
    asked for.
    Returns the found diagrams of the named targets by name and the named
    targets left unmatched."""
    found: dict[str, TangleDiagram] = {}
    pairs = {TARGETS[n].get("pair") for n in names} - {None}
    wanted = [n for n in TARGETS if n in names or TARGETS[n].get("pair") in pairs]
    seen = set()

    def consider(t):
        for v in variants(t):
            key = canonical_form(v)
            if key in seen:
                continue
            seen.add(key)
            for name in wanted:
                if crossing_number(name) != v.crossing_count or not matches(name, v):
                    continue
                pair = TARGETS[name].get("pair")
                if pair and any(TARGETS[p].get("pair") == pair and
                                jones(close_numerator(u)) == jones(close_numerator(v))
                                for p, u in found.items()):
                    continue
                found[name] = v
                wanted.remove(name)
                if verbose:
                    print(f"found {name}", flush=True)
                break

    ks = sorted({crossing_number(n) for n in wanted})
    for k in ks:
        if not wanted:
            break
        if verbose:
            print(f"# pool of closed {k}-crossing diagrams", flush=True)
        for L in closed_diagram_pool(k):
            if not wanted:
                break
            if L.loops or L.crossing_count != k:
                continue
            # every cut is a valid k-crossing tangle; skip the reducible ones
            for t in all_cut_tangles(L):
                if has_kink_or_reducible_bigon(t):
                    continue
                consider(t)
                if not wanted:
                    break
    return ({n: t for n, t in found.items() if n in names},
            [n for n in wanted if n in names])


def main():
    found, missing = cut_search(sys.argv[1:] or list(TARGETS))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name, t in found.items():
        path = OUT_DIR / f"{name}.tangle"
        path.write_text(print_diagram(t))
        print(f"wrote {path}")
        for line in judge(name, t).evidence:
            print(f"  {line}")
    if missing:
        print("missing:", sorted(missing))


if __name__ == "__main__":
    main()
