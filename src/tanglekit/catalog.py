"""The catalog of essential 2-string tangles up to seven crossings.

Each entry of the bundled manifest has one source: a diagram file, or
an algebraic expression (a sum of two rationals, possibly times an
integral tangle), realized as a diagram once, at load time, and decided
by the congruence criteria of :mod:`tanglekit.expr`.  The other entries
are decided through diagram obstructions: nontrivial dihedral
c-colorings rule out unknottability, the coloring fraction of an
integer-monochromatic tangle pins the unique rational splitting closure
candidate, and candidate closures are then confirmed or rejected by the
Jones polynomial, determinant and linking number of the closed diagram.
A classification eliminates the entry's relation matrix once, for both
coloring questions, builds each closure once and computes each of its
invariants once, on first use (:class:`ClosedLink`).

Positive answers are invariant-certified: the named closure is exhibited
and the closed diagram has the Jones polynomial and determinant of the
unknot or unlink.  No unknot-recognition algorithm is claimed; at this
diagram scale the certificate leaves no known impostors.  Every verdict
carries an evidence log, and Unknown is a legal outcome.
"""

from __future__ import annotations

import json
import os
from functools import cached_property

from .bracket import (
    jones,
    jones_unknot,
    jones_unlink,
    linking_number,
    split_union_jones,
)
from .diagram import (
    DiagramError,
    LinkDiagram,
    OrientedDiagram,
    TangleDiagram,
    close_numerator,
    component_count,
    component_subdiagrams,
    from_expression,
    from_rational,
    orient,
    parse_diagram,
    tangle_sum,
    validate,
)
from .expr import (
    EmbedVerdict,
    TangleExpr,
    Verdict,
    evaluate,
    expr_text,
    parse_expr,
)
from .fraction import Fraction, frac_mirror, frac_normalize
from .laurent import LaurentPoly
from .quandle import (
    ColoringLattice,
    NotInvariant,
    color_solve_dihedral,
    determinant,
)


class CatalogError(ValueError):
    pass


class CatalogEntry:
    __slots__ = ("name", "diagram", "expression", "essential")

    def __init__(self, name: str, diagram: TangleDiagram,
                 expression: TangleExpr | None, essential: bool):
        self.name = name
        self.diagram = diagram
        self.expression = expression
        self.essential = essential


# the closures tried for unknotting certificates
_SWEEP = [frac_normalize(*pq) for pq in
          [(0, 1), (-1, 1), (1, 1), (-2, 1), (2, 1), (1, 2), (-1, 2)]]


def _data_text(name: str) -> str:
    """A bundled data file, read from the package directory.

    Not through ``importlib.resources``: from Python 3.12 on it imports
    ``inspect``, which would add its import time to every cold start.
    """
    path = os.path.join(os.path.dirname(__file__), "data", name)
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def load_catalog() -> list[CatalogEntry]:
    """Load and validate the bundled catalog.

    Each manifest row names exactly one source, a diagram file or an
    expression; a row with both or neither is rejected.  A diagram file
    is validated as it is parsed; an expression is realized once with
    :func:`from_expression` and the realization is validated.
    """
    entries = []
    for row in json.loads(_data_text("catalog/manifest.json")):
        name = row["name"]
        if bool(row.get("diagram")) == bool(row.get("expression")):
            raise CatalogError(f"{name}: needs exactly one of a diagram file "
                               "and an expression")
        if row.get("diagram"):
            expression = None
            try:
                diagram = parse_diagram(_data_text(f"catalog/{row['diagram']}"))
            except DiagramError as ex:
                raise CatalogError(f"{name}: invalid diagram: {ex}")
        else:
            expression = parse_expr(row["expression"])
            diagram = from_expression(expression)
            err = validate(diagram)
            if err:
                raise CatalogError(f"{name}: invalid diagram: {err}")
        entries.append(CatalogEntry(name=name, diagram=diagram, expression=expression,
                                    essential=bool(row.get("essential", True))))
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        raise CatalogError("duplicate entry names")
    return entries


def get_entry(name: str, entries: list[CatalogEntry] | None = None) -> CatalogEntry:
    entries = entries if entries is not None else load_catalog()
    for e in entries:
        if e.name == name:
            return e
    raise CatalogError(f"no catalog entry named {name}")


# ---------------------------------------------------------------------------
# certified closure evidence

def closure_link(t: TangleDiagram, c: Fraction) -> LinkDiagram:
    """N(T + [c]), the numerator closure of T plus the rational tangle c."""
    return close_numerator(tangle_sum(t, from_rational(c)))


class ClosedLink:
    """A link diagram whose invariants are each computed once, on first use.

    The one orientation is shared by the Jones polynomial and the
    linking number.
    """

    def __init__(self, diagram: LinkDiagram):
        self.diagram = diagram

    @cached_property
    def components(self) -> int:
        return component_count(self.diagram)

    @cached_property
    def determinant(self) -> int:
        return determinant(self.diagram)

    @cached_property
    def orientation(self) -> OrientedDiagram:
        return orient(self.diagram)

    @cached_property
    def linking_number(self) -> int:
        return linking_number(self.orientation)

    @cached_property
    def jones(self) -> LaurentPoly:
        return jones(self.diagram, self.orientation)

    @cached_property
    def split_union_jones(self) -> LaurentPoly:
        return split_union_jones(self.diagram)

    def is_unknot(self) -> bool:
        return (self.components == 1 and self.determinant == 1
                and self.jones == jones_unknot())

    def is_unlink(self) -> bool:
        """The unlink's Jones polynomial, equal to the distant union's, forces
        V(K1) V(K2) = 1, so each component knot has V = 1 (V(1) = 1 and
        V'(1) = 0 for every knot)."""
        return (self.components == 2 and self.determinant == 0
                and self.linking_number == 0 and self.jones == jones_unlink(2)
                and self.split_union_jones == self.jones)


class Classification:
    """The verdict and evidence log of one entry, with the closures and the
    coloring lattice computed on the way, each at most once."""

    def __init__(self, entry: CatalogEntry):
        self.entry = entry
        self.verdict: EmbedVerdict | None = None
        self.evidence: list[str] = []
        self._closures: dict[Fraction, ClosedLink] = {}

    def closure(self, c: Fraction) -> ClosedLink:
        """N(T + [c]), built on first use."""
        if c not in self._closures:
            self._closures[c] = ClosedLink(closure_link(self.entry.diagram, c))
        return self._closures[c]

    @cached_property
    def colorings(self) -> ColoringLattice:
        """One elimination for both coloring questions."""
        return color_solve_dihedral(self.entry.diagram, 0)

    @cached_property
    def coloring_fraction(self) -> Fraction | NotInvariant:
        return self.colorings.coloring_fraction()


def _split_candidate_evidence(L: ClosedLink, c: Fraction, evidence: list[str]):
    """Test the unique rational splitting candidate closure L = N(T + [c]).

    Returns 'unlink', 'rejected' or 'inconclusive'.  Rejections certify
    that N(T + c) is not split: wrong component count, nonzero linking
    number, or a Jones polynomial different from the distant union of the
    component knots.
    """
    if L.components == 1:
        evidence.append(f"N(T + [{c}]) is a knot, so it is not a split link")
        return "rejected"
    if L.is_unlink():
        evidence.append(f"N(T + [{c}]) certifies as the 2-component unlink "
                        "(Jones, determinant, linking number, component knots)")
        return "unlink"
    if L.components == 2:
        lk = L.linking_number
        if lk != 0:
            evidence.append(f"N(T + [{c}]) has linking number {lk} != 0, "
                            "so it is not split")
            return "rejected"
        jl = L.jones
        ju = L.split_union_jones
        if jl != ju:
            evidence.append(f"N(T + [{c}]) has Jones {jl}, but the distant "
                            f"union of its component knots has {ju}; not split")
            return "rejected"
    evidence.append(f"no certificate either way for N(T + [{c}])")
    return "inconclusive"


def classify(entry: CatalogEntry) -> Classification:
    """Decide the three embedding properties of a catalog entry.

    Pipeline: the algebraic criteria when an expression is present; then
    coloring obstructions, both read from one Smith form (a nontrivial
    dihedral c-coloring at any modulus rules out unknottability; the
    coloring fraction leaves one rational splitting closure candidate,
    confirmed or rejected on the closed diagram); positive answers come
    from exhibiting a closure whose diagram carries unknot or unlink
    invariants.  Unknotting closures are sought in a small sweep, an
    unlinking closure only at the splitting candidate: every unlink has
    determinant 0, and by the determinant law det N(T + [r/s]) =
    |a*s + e*b*r| (Krebes; a = det N(T), b = det D(T), e the sign of the
    coloring fraction) no other closure has.  Unknown is returned when
    nothing applies.  A validated entry is integer-monochromatic, and
    c-colored only mod the primes of its torsion (see
    :mod:`tanglekit.quandle`).
    """
    t = entry.diagram
    record = Classification(entry)
    evidence = record.evidence
    unknot = Verdict.unknown()
    unlink = Verdict.unknown()
    split = Verdict.unknown()

    if entry.expression is not None:
        result = evaluate(entry.expression)
        evidence.append(f"algebraic route on {expr_text(entry.expression)}")
        evidence.extend("  " + line for line in result.log)
        unknot, unlink, split = (result.verdict.unknottable,
                                 result.verdict.unlinkable,
                                 result.verdict.splittable)

    rep = record.colorings.monochromatic_report()
    if rep.polychromatic_somewhere():
        moduli = ", ".join(str(p) for p in sorted(rep.offending_moduli))
        msg = f"nontrivial dihedral c-coloring mod {moduli}"
        if unknot.is_no:
            evidence.append(f"coloring route agrees: {msg} independently "
                            "rules out unknottability")
        elif unknot.is_yes:
            raise CatalogError(f"{entry.name}: expression says unknottable "
                               "but a c-coloring obstruction exists")
        else:
            unknot = Verdict.no(msg)
            evidence.append(msg + ", so not unknottable")
    else:
        evidence.append("every dihedral c-coloring is trivial (all moduli)")

    # a knotted string blocks unlinkability
    knotted = [i for i, sc in enumerate(component_subdiagrams(t))
               if jones(sc) != jones_unknot()]
    if knotted and not unlink.is_no:
        unlink = Verdict.no("a string is knotted (its closure has nontrivial "
                            "Jones polynomial)")
        evidence.append(f"string {knotted[0]} is knotted, so the tangle is "
                        "not unlinkable")

    # splitting/unlinking candidate from the coloring fraction
    if split.status == "unknown":
        cf = record.coloring_fraction
        if isinstance(cf, NotInvariant):
            evidence.append(f"coloring fraction is {cf}; no candidate derived")
        else:
            cand = frac_mirror(cf)
            evidence.append(f"integer-monochromatic with coloring fraction "
                            f"{cf}: unique rational splitting candidate [{cand}]")
            outcome = _split_candidate_evidence(record.closure(cand), cand, evidence)
            if outcome == "unlink":
                unlink = Verdict.yes(cand)
                split = Verdict.yes(cand)
            elif outcome == "rejected":
                split = Verdict.no(f"the unique splitting candidate [{cand}] "
                                   "is rejected by closure invariants")
                if not unlink.is_no:
                    unlink = Verdict.no("not splittable, and an unlink is split")

    # positive unknotting closures from a small sweep
    if unknot.status == "unknown":
        for c in _SWEEP:
            if record.closure(c).is_unknot():
                unknot = Verdict.yes(c)
                evidence.append(f"N(T + [{c}]) certifies as the unknot "
                                "(determinant 1, Jones 1); invariant-certified")
                break
        else:
            evidence.append("no unknotting closure found in the sweep")

    # an essential tangle cannot be unknottable and splittable at once
    if entry.essential and unknot.is_yes:
        reason = "essential and unknottable excludes splittable"
        if split.status == "unknown":
            split = Verdict.no(reason)
            evidence.append(reason)
        if unlink.status == "unknown":
            unlink = Verdict.no(reason + " (an unlink is split)")

    record.verdict = EmbedVerdict(unknot, unlink, split)
    return record


# ---------------------------------------------------------------------------
# reproduction of the classification

# The published classification, the one copy of the answers, read only by
# the reproduction to diff against.  Every answer not listed is "no".
EXPECTED_UNKNOTTABLE = {
    "5_1": Fraction(-1, 1),
    "6_1": Fraction(-1, 1),
    "7_2": Fraction(-1, 1),
    "7_5": Fraction(0, 1),
    "7_7": Fraction(0, 1),
    "7_14": Fraction(-1, 1),
}
EXPECTED_UNLINKABLE = {"6_3": Fraction(0, 1)}
EXPECTED_FRACTIONS = {
    "7_13": frac_normalize(3, 4),
    "7_15": frac_normalize(2, 3),
    "7_17": frac_normalize(8, 7),
    "7_18": frac_normalize(2, 1),
}


class ReproduceReport:
    __slots__ = ("ok", "lines", "data")

    def __init__(self, ok: bool, lines: list[str], data: dict):
        self.ok = ok
        self.lines = lines
        self.data = data

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def reproduce_tables(entries: list[CatalogEntry] | None = None) -> ReproduceReport:
    """Classify the whole catalog and diff it against the published sets.

    Checks: the unknottable set with its closures, the unlinkable =
    splittable set with its closure, the coloring fractions of the four
    integer-monochromatic entries, and the dual derivation (algebraic and
    coloring) of the 7_16 obstruction.
    """
    entries = entries if entries is not None else load_catalog()
    results = {e.name: classify(e) for e in entries}
    lines = []
    diffs = []

    def check(cond: bool, message: str):
        mark = "ok " if cond else "DIFF"
        lines.append(f"[{mark}] {message}")
        if not cond:
            diffs.append(message)

    got_unknottable = {n: r.verdict.unknottable.closure
                       for n, r in results.items() if r.verdict.unknottable.is_yes}
    check(set(got_unknottable) == set(EXPECTED_UNKNOTTABLE),
          f"unknottable set {sorted(got_unknottable)} vs "
          f"expected {sorted(EXPECTED_UNKNOTTABLE)}")
    for n, c in sorted(EXPECTED_UNKNOTTABLE.items()):
        check(got_unknottable.get(n) == c,
              f"unknotting closure of {n}: {got_unknottable.get(n)} vs [{c}]")

    got_unlinkable = {n: r.verdict.unlinkable.closure
                      for n, r in results.items() if r.verdict.unlinkable.is_yes}
    got_splittable = {n: r.verdict.splittable.closure
                      for n, r in results.items() if r.verdict.splittable.is_yes}
    check(set(got_unlinkable) == set(EXPECTED_UNLINKABLE),
          f"unlinkable set {sorted(got_unlinkable)} vs {sorted(EXPECTED_UNLINKABLE)}")
    check(set(got_splittable) == set(EXPECTED_UNLINKABLE),
          f"splittable set {sorted(got_splittable)} vs {sorted(EXPECTED_UNLINKABLE)}")
    for n, c in EXPECTED_UNLINKABLE.items():
        check(got_unlinkable.get(n) == c,
              f"unlinking closure of {n}: {got_unlinkable.get(n)} vs [{c}]")

    for n, f in sorted(EXPECTED_FRACTIONS.items()):
        cf = results[n].coloring_fraction
        check(cf == f, f"coloring fraction of {n}: {cf} vs {f}")

    r716 = results.get("7_16")
    if r716 is not None:
        dual = (r716.verdict.unknottable.is_no
                and any("coloring route agrees" in line for line in r716.evidence))
        check(dual, "7_16 obstruction derived both algebraically and by coloring")

    ok = not diffs
    lines.append("RESULT: " + ("all classification tables reproduced"
                               if ok else f"{len(diffs)} differences"))
    data = {
        "schema": "tanglekit-report/1",
        "ok": ok,
        "unknottable": {n: str(c) for n, c in sorted(got_unknottable.items())},
        "unlinkable": {n: str(c) for n, c in sorted(got_unlinkable.items())},
        "splittable": {n: str(c) for n, c in sorted(got_splittable.items())},
        "verdicts": {
            n: {
                "unknottable": _verdict_json(r.verdict.unknottable),
                "unlinkable": _verdict_json(r.verdict.unlinkable),
                "splittable": _verdict_json(r.verdict.splittable),
                "evidence": r.evidence,
            }
            for n, r in sorted(results.items())
        },
        "computed_obstruction_invariants": _obstruction_invariants(results),
        "diffs": diffs,
    }
    return ReproduceReport(ok=ok, lines=lines, data=data)


def _obstruction_invariants(results: dict[str, Classification]) -> dict:
    """Record the computed not-split evidence values (documentation only;
    printed coefficient conventions elsewhere differ, so these are never
    compared against external sources)."""
    out = {}
    for name, frac in sorted(EXPECTED_FRACTIONS.items()):
        c = frac_mirror(frac)
        L = results[name].closure(c)
        out[f"N({name} + [{c}])"] = {
            "determinant": L.determinant,
            "linking_number": L.linking_number,
            "jones": str(L.jones),
            "jones_of_component_union": str(L.split_union_jones)}
    return out


def _verdict_json(v: Verdict) -> dict:
    out = {"status": v.status}
    if v.closure is not None:
        out["closure"] = str(v.closure)
    if v.reason:
        out["reason"] = v.reason
    return out
