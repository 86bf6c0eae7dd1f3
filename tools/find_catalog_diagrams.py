"""Search for catalog tangle diagrams matching published invariant data.

The bundled catalog needs concrete planar diagrams for the essential
tangles that have no algebraic expression.  This tool grows random planar
tangle diagrams (a seeded, reproducible process) and keeps those whose
computed invariants match every fact recorded for the target entry:
crossing number, closure invariants, monochromaticity across all moduli,
coloring fractions, linking numbers, knotted-string data, and closure
uniqueness cross-checks.  Survivors are written as diagram files for the
package data directory.

Run:  python tools/find_catalog_diagrams.py [--budget N] [entry ...]
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tanglekit.bracket import (  # noqa: E402
    jones,
    jones_unknot,
    jones_unlink,
    linking_number,
    split_union_jones,
)
from tanglekit.catalog import closure_link, unknot_certified, unlink_certified  # noqa: E402
from tanglekit.diagram import (  # noqa: E402
    BOUNDARY_LABELS,
    Crossing,
    LinkDiagram,
    TangleDiagram,
    _faces,
    all_orientations,
    canonical_form,
    close_numerator,
    component_count,
    component_subdiagrams,
    edge_incidences,
    from_rational,
    orient,
    print_diagram,
    renumber,
    tangle_sum,
    validate,
)
from tanglekit.fraction import Fraction, frac_mirror, frac_normalize  # noqa: E402
from tanglekit.quandle import (  # noqa: E402
    coloring_fraction,
    determinant,
    monochromatic_report,
    nontrivial_c_colorings_finite,
    parse_quandle_table,
)

OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "tanglekit" / "data" / "catalog"

GF4_TABLE = "4\n0 3 1 2\n2 1 3 0\n3 0 2 1\n1 2 0 3\n"


# ---------------------------------------------------------------------------
# random planar tangle growth

def random_tangle(rng: random.Random, k: int) -> TangleDiagram | None:
    """Grow a random k-crossing tangle by sewing crossings into the outer face.

    The boundary of the growth region is a cyclic list of open crossing
    ports; each step either attaches a new crossing along 1..3 consecutive
    boundary ports or caps two adjacent ports with an edge.  Returns None
    when the attempt deadlocks.
    """
    crossings: list[list] = []
    cycle: list[tuple[int, int]] = []
    next_edge = [0]

    def new_edge():
        next_edge[0] += 1
        return next_edge[0] - 1

    def attach(j: int):
        nonlocal cycle
        ci = len(crossings)
        crossings.append([None] * 4)
        offset = rng.randrange(4)
        if not cycle:
            cycle = [(ci, (offset + t) % 4) for t in range(4)]
            return
        i = rng.randrange(len(cycle))
        run = [cycle[(i + t) % len(cycle)] for t in range(j)]
        for t, (cj, slot) in enumerate(run):
            s = (offset + j - 1 - t) % 4
            e = new_edge()
            crossings[ci][s] = e
            crossings[cj][slot] = e
        free = [(ci, (offset + j + t) % 4) for t in range(4 - j)]
        rest = [cycle[(i + j + t) % len(cycle)] for t in range(len(cycle) - j)]
        cycle = free + rest

    def cap() -> bool:
        nonlocal cycle
        n = len(cycle)
        candidates = [i for i in range(n)
                      if cycle[i][0] != cycle[(i + 1) % n][0]]
        if not candidates:
            return False
        i = rng.choice(candidates)
        (c1, s1), (c2, s2) = cycle[i], cycle[(i + 1) % n]
        e = new_edge()
        crossings[c1][s1] = e
        crossings[c2][s2] = e
        if i + 1 < n:
            del cycle[i:i + 2]
        else:
            del cycle[i]
            del cycle[0]
        return True

    attach(1)
    while len(crossings) < k:
        if len(cycle) > 6 and rng.random() < 0.4:
            if not cap():
                return None
            continue
        max_j = min(3, (len(cycle) + 0) // 1)
        j = rng.randint(1, min(3, max_j))
        if len(cycle) - 2 * j + 4 < 4:
            j = 1
        if j > len(cycle):
            j = len(cycle)
        attach(j)
    while len(cycle) > 4:
        if not cap():
            return None
    if len(cycle) != 4:
        return None

    boundary = {}
    labels = ["NW", "NE", "SE", "SW"]
    shift = rng.randrange(4)
    for t, (ci, slot) in enumerate(cycle):
        e = new_edge()
        crossings[ci][slot] = e
        boundary[labels[(t + shift) % 4]] = e
    if any(x is None for c in crossings for x in c):
        return None
    return renumber(TangleDiagram(
        crossings=tuple(Crossing(tuple(c)) for c in crossings),
        boundary=tuple(boundary[lab] for lab in BOUNDARY_LABELS)))


def cut_edges(L: LinkDiagram, e: int, f: int) -> list[TangleDiagram]:
    """Tangles obtained by cutting open two edges of a closed diagram.

    The two cut edges become the four boundary endpoints, paired so each
    former edge spans an adjacent pair (its middle piece is a closure
    arc); both side assignments are produced and invalid ones dropped.
    """
    out = []
    if L.loops:
        return out
    fresh = max((x for c in L.crossings for x in c.ports), default=-1) + 1
    e1, e2, f1, f2 = fresh, fresh + 1, fresh + 2, fresh + 3

    def rewritten(old, new_a, new_b, crossings):
        done = 0
        res = []
        for c in crossings:
            row = []
            for x in c.ports:
                if x == old:
                    row.append(new_a if done == 0 else new_b)
                    done += 1
                else:
                    row.append(x)
            res.append(tuple(row))
        return res, done

    rows, n_e = rewritten(e, e1, e2, L.crossings)
    rows = [Crossing(p) for p in rows]
    rows2, n_f = rewritten(f, f1, f2, rows)
    if n_e != 2 or n_f != 2:
        return out
    crossings = tuple(Crossing(p) for p in rows2)
    # boundaries in NW, NE, SW, SE order
    for boundary in ((e1, e2, f1, f2), (e1, e2, f2, f1),
                     (e2, e1, f1, f2), (e2, e1, f2, f1)):
        t = TangleDiagram(crossings=crossings, boundary=boundary)
        if validate(t) is None:
            out.append(renumber(t))
    return out


def all_cut_tangles(L: LinkDiagram):
    """Every tangle with a plain-arc closure equal to the diagram L."""
    edges = sorted({x for c in L.crossings for x in c.ports})
    for i, e in enumerate(edges):
        for f in edges[i + 1:]:
            yield from cut_edges(L, e, f)


def has_kink_or_reducible_bigon(d: TangleDiagram) -> bool:
    inc = edge_incidences(d)
    for e, pair in inc.items():
        if pair[0][0] == "X" and pair[1][0] == "X" and pair[0][1] == pair[1][1]:
            return True  # kink
    for face in _faces(d, inc):
        if len(face) != 2:
            continue
        (e1, _), (e2, _) = face
        if e1 == e2:
            continue
        if any(kind != "X" for kind, *_ in inc[e1] + inc[e2]):
            continue
        over1 = all(s in (1, 3) for _, _, s in inc[e1])
        over2 = all(s in (1, 3) for _, _, s in inc[e2])
        under1 = all(s in (0, 2) for _, _, s in inc[e1])
        under2 = all(s in (0, 2) for _, _, s in inc[e2])
        if (over1 and under2) or (over2 and under1):
            return True  # second Reidemeister bigon
    return False


def basic_ok(d: TangleDiagram | None, k: int) -> bool:
    if d is None or d.crossing_count != k:
        return False
    if validate(d) is not None:
        return False
    if has_kink_or_reducible_bigon(d):
        return False
    return True


# ---------------------------------------------------------------------------
# certified closure tests

SWEEP = [frac_normalize(*pq) for pq in
         [(0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1), (3, 1), (-3, 1),
          (1, 2), (-1, 2), (1, 3), (-1, 3), (2, 3), (-2, 3), (3, 2), (-3, 2)]]


def unique_unknotting_closure(t: TangleDiagram, main: Fraction) -> bool:
    """No second sweep closure may certify as the unknot."""
    for c in SWEEP:
        if c == main:
            continue
        if unknot_certified(closure_link(t, c)):
            return False
    return True


# ---------------------------------------------------------------------------
# per-entry predicates

_TREFOIL_J = None
_TORUS5_J = None


def trefoil_jones():
    global _TREFOIL_J
    if _TREFOIL_J is None:
        _TREFOIL_J = (jones(close_numerator(from_rational(Fraction(3, 1)))),
                      jones(close_numerator(from_rational(Fraction(-3, 1)))))
    return _TREFOIL_J


def torus5_jones():
    global _TORUS5_J
    if _TORUS5_J is None:
        _TORUS5_J = (jones(close_numerator(from_rational(Fraction(5, 1)))),
                     jones(close_numerator(from_rational(Fraction(-5, 1)))))
    return _TORUS5_J


def gf4_orientations(t) -> list[int]:
    q = parse_quandle_table(GF4_TABLE)
    hits = []
    for i, od in enumerate(all_orientations(t)):
        if nontrivial_c_colorings_finite(od, q):
            hits.append(i)
    return hits


def splits_at_fraction_candidate(t) -> bool:
    """Does the coloring-fraction splitting candidate certify as an unlink?

    A rational tangle always does (its mirror fraction is its unlinking
    closure), so this rejects rational impostors among candidates that
    are supposed to be essential and unknottable.
    """
    from tanglekit.quandle import NotInvariant

    cf = coloring_fraction(t)
    if isinstance(cf, NotInvariant):
        return True  # want definite behavior; treat as suspicious
    from tanglekit.fraction import continued_fraction

    cand = frac_mirror(cf)
    weight = 0 if cand.is_infinite else sum(abs(c) for c in continued_fraction(cand))
    if weight + t.crossing_count > 22 or cand.is_infinite:
        # closure too large for bracket certificates; use cheap obstructions
        L = closure_link(t, cand)
        if component_count(L) == 1:
            return False
        return linking_number(orient(L)) == 0
    return unlink_certified(closure_link(t, cand))


def match_unknottable(t, closure: Fraction, n_jones=None, gf4=None) -> bool:
    rep = monochromatic_report(t)
    if not rep.c_trivial_for_all_n:
        return False
    if not unknot_certified(closure_link(t, closure)):
        return False
    if closure != Fraction(0, 1):
        if unknot_certified(close_numerator(t)):
            return False
    if not unique_unknotting_closure(t, closure):
        return False
    if splits_at_fraction_candidate(t):
        return False
    # deleted-string closures may legitimately be knotted for unknottable
    # tangles (the deletion ball is not a subtangle), so no string filter
    if n_jones is not None and jones(close_numerator(t)) not in n_jones:
        return False
    if gf4 == "some" and not gf4_orientations(t):
        return False
    if gf4 == "none" and gf4_orientations(t):
        return False
    return True


def match_six_three(t) -> bool:
    rep = monochromatic_report(t)
    if not rep.polychromatic_somewhere():
        return False
    if not unlink_certified(close_numerator(t)):
        return False
    for c in SWEEP:
        if unknot_certified(closure_link(t, c)):
            return False
        if c == Fraction(0, 1):
            continue
        L2 = closure_link(t, c)
        if component_count(L2) == 2 and determinant(L2) == 0:
            if jones(L2) == jones_unlink(2):
                return False
    return True


def match_r0_mono(t, frac: Fraction, lk_zero: bool, comps: str | None) -> bool:
    rep = monochromatic_report(t)
    if not rep.r0_monochromatic or not rep.polychromatic_somewhere():
        return False
    if coloring_fraction(t) != frac:
        return False
    L = closure_link(t, frac_mirror(frac))
    if component_count(L) != 2:
        return False
    if determinant(L) != 0:
        return False
    lk = linking_number(orient(L))
    if lk_zero != (lk == 0):
        return False
    if comps is not None:
        cj = [jones(c) for c in component_subdiagrams(L)]
        if comps == "trefoil+unknot":
            ok = (sorted(map(str, cj)) in
                  [sorted([str(jones_unknot()), str(tj)]) for tj in trefoil_jones()])
            if not ok:
                return False
            knotted = [jones(sc) for sc in component_subdiagrams(t)]
            if not any(j in trefoil_jones() for j in knotted):
                return False
        elif comps == "unknots":
            if any(str(j) != str(jones_unknot()) for j in cj):
                return False
        if jones(L) == split_union_jones(L):
            return False
    return True


TARGETS = {
    "5_1": dict(k=5, kind="unknottable", closure=frac_normalize(-1, 1), n_jones="t5"),
    "6_1": dict(k=6, kind="unknottable", closure=frac_normalize(-1, 1)),
    "7_2": dict(k=7, kind="unknottable", closure=frac_normalize(-1, 1), pair="A"),
    "7_14": dict(k=7, kind="unknottable", closure=frac_normalize(-1, 1), pair="A"),
    "7_5": dict(k=7, kind="unknottable", closure=frac_normalize(0, 1), gf4="none"),
    "7_7": dict(k=7, kind="unknottable", closure=frac_normalize(0, 1), gf4="some"),
    "6_3": dict(k=6, kind="six_three"),
    "7_13": dict(k=7, kind="r0mono", frac=frac_normalize(3, 4), lk_zero=True,
                 comps="trefoil+unknot"),
    "7_15": dict(k=7, kind="r0mono", frac=frac_normalize(2, 3), lk_zero=True,
                 comps="unknots"),
    "7_17": dict(k=7, kind="r0mono", frac=frac_normalize(8, 7), lk_zero=False,
                 comps=None),
    "7_18": dict(k=7, kind="r0mono", frac=frac_normalize(2, 1), lk_zero=False,
                 comps=None),
}


def matches(target: dict, t: TangleDiagram) -> bool:
    if target["kind"] == "unknottable":
        nj = torus5_jones() if target.get("n_jones") == "t5" else None
        return match_unknottable(t, target["closure"], n_jones=nj,
                                 gf4=target.get("gf4"))
    if target["kind"] == "six_three":
        return match_six_three(t)
    if target["kind"] == "r0mono":
        return match_r0_mono(t, target["frac"], target["lk_zero"], target["comps"])
    raise ValueError(target["kind"])


def variants(t: TangleDiagram):
    """The eight rotation/mirror images; fractions map by -1/f and -f."""
    from tanglekit.diagram import mirror, rotate

    cur = t
    for _ in range(4):
        yield cur
        yield mirror(cur)
        cur = rotate(cur)


def search(names: list[str], budget: int = 300000, seed: int = 20240801,
           verbose: bool = True):
    rng = random.Random(seed)
    found: dict[str, TangleDiagram] = {}
    seen = set()
    wanted = {n: TARGETS[n] for n in names}
    tries = 0
    stats = {"raw": 0, "basic": 0}
    while wanted and tries < budget:
        tries += 1
        ks = sorted({s["k"] for s in wanted.values()})
        k = rng.choice(ks)
        base = random_tangle(rng, k)
        stats["raw"] += 1
        if not basic_ok(base, k):
            continue
        stats["basic"] += 1
        for t in variants(base):
            key = canonical_form(t)
            if key in seen:
                continue
            seen.add(key)
            hit = None
            for name in list(wanted):
                target = wanted[name]
                if target["k"] != k:
                    continue
                try:
                    ok = matches(target, t)
                except Exception:
                    ok = False
                if not ok:
                    continue
                # paired targets must end up with distinct closures of N
                if target.get("pair"):
                    partner = [p for p in TARGETS
                               if p != name and TARGETS[p].get("pair") == target["pair"]]
                    clash = False
                    for p in partner:
                        if p in found and str(jones(close_numerator(found[p]))) == \
                                str(jones(close_numerator(t))):
                            clash = True
                    if clash:
                        continue
                hit = name
                break
            if hit:
                found[hit] = t
                del wanted[hit]
                if verbose:
                    print(f"[{tries}] found {hit}  "
                          f"({stats['basic']} valid candidates seen)", flush=True)
    return found, wanted, tries


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


def cut_search(names: list[str], seed: int = 5, random_budget: int = 30000,
               verbose: bool = True):
    """Cut-pair search over standard closed diagrams plus random closures."""
    found: dict[str, TangleDiagram] = {}
    wanted = {n: TARGETS[n] for n in names}
    seen = set()

    def consider(t, origin):
        for v in variants(t):
            key = canonical_form(v)
            if key in seen:
                continue
            seen.add(key)
            for name in list(wanted):
                target = wanted[name]
                if target["k"] != v.crossing_count:
                    continue
                try:
                    ok = matches(target, v)
                except Exception:
                    ok = False
                if not ok:
                    continue
                if target.get("pair"):
                    partner = [p for p in TARGETS
                               if p != name and TARGETS[p].get("pair") == target["pair"]]
                    if any(p in found and
                           str(jones(close_numerator(found[p]))) ==
                           str(jones(close_numerator(v))) for p in partner):
                        continue
                found[name] = v
                del wanted[name]
                if verbose:
                    print(f"found {name} via {origin}", flush=True)
                break

    ks = sorted({TARGETS[n]["k"] for n in names})
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
            for t in all_cut_tangles(L):
                if not basic_ok(t, k):
                    continue
                consider(t, f"cut of a {k}-crossing closed diagram")
                if not wanted:
                    break
    if wanted:
        if verbose:
            print("# random closures fallback", flush=True)
        rng = random.Random(seed)
        for i in range(random_budget):
            if not wanted:
                break
            k = rng.choice(sorted({s["k"] for s in wanted.values()}))
            base = random_tangle(rng, k)
            if not basic_ok(base, k):
                continue
            L = close_numerator(base)
            if L.loops:
                continue
            for t in all_cut_tangles(L):
                if not basic_ok(t, k):
                    continue
                consider(t, "cut of a random closure")
                if not wanted:
                    break
    return found, wanted


def main():
    args = sys.argv[1:]
    budget = 300000
    mode = "grow"
    if args and args[0] == "--cut":
        mode = "cut"
        args = args[1:]
    if args and args[0] == "--budget":
        budget = int(args[1])
        args = args[2:]
    names = args or list(TARGETS)
    if mode == "cut":
        found, missing = cut_search(names)
    else:
        found, missing, _tries = search(names, budget=budget)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name, t in found.items():
        path = OUT_DIR / f"{name}.tangle"
        path.write_text(print_diagram(t))
        print(f"wrote {path}")
    if missing:
        print("missing:", sorted(missing))


if __name__ == "__main__":
    main()
