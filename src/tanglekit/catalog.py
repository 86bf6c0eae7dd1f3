"""The catalog of essential 2-string tangles up to seven crossings.

Entries are loaded from a bundled manifest plus diagram files.  Twelve
entries carry algebraic expressions (sums of two rationals, possibly
times an integral tangle) and are decided by the congruence criteria of
:mod:`tanglekit.expr`; the remaining entries are decided through diagram
obstructions: nontrivial dihedral c-colorings rule out unknottability,
the coloring fraction of an integer-monochromatic tangle pins the unique
rational splitting closure candidate, and candidate closures are then
confirmed or rejected by building the closed diagram and computing its
Jones polynomial, determinant and linking number.

Positive answers are invariant-certified: the named closure is exhibited
and the closed diagram has the Jones polynomial and determinant of the
unknot or unlink.  No unknot-recognition algorithm is claimed; at this
diagram scale the certificate leaves no known impostors.  Every verdict
carries an evidence log, and Unknown is a legal outcome.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

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
    TangleDiagram,
    close_denominator,
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
    EvalResult,
    TangleExpr,
    Verdict,
    evaluate,
    expr_text,
    parse_expr,
)
from .fraction import Fraction, frac_mirror, frac_normalize, parse_fraction
from .quandle import (
    NotInvariant,
    coloring_fraction,
    determinant,
    monochromatic_report,
)


class CatalogError(ValueError):
    pass


@dataclass
class CatalogEntry:
    name: str
    diagram: TangleDiagram
    expression: TangleExpr | None
    essential: bool
    expected: dict[str, Verdict]
    notes: str = ""


@dataclass
class Classification:
    entry: CatalogEntry
    verdict: EmbedVerdict
    evidence: list[str] = field(default_factory=list)


# the closures tried for unknotting and unlinking certificates
_SWEEP = [frac_normalize(*pq) for pq in
          [(0, 1), (-1, 1), (1, 1), (-2, 1), (2, 1), (1, 2), (-1, 2)]]


def _data_text(name: str) -> str:
    pkg = resources.files("tanglekit").joinpath("data")
    return pkg.joinpath(name).read_text()


def load_catalog(path: str | Path | None = None) -> list[CatalogEntry]:
    """Load and validate the catalog (bundled manifest by default).

    Every entry's diagram must validate (diagram files are validated as
    they are parsed); when an expression is present,
    its realization must agree with the stored diagram on the
    determinants of both closures and on the monochromaticity report.
    """
    if path is None:
        manifest = json.loads(_data_text("catalog/manifest.json"))
        reader = lambda fn: _data_text(f"catalog/{fn}")
    else:
        base = Path(path)
        manifest = json.loads((base / "manifest.json").read_text())
        reader = lambda fn: (base / fn).read_text()

    entries = []
    for row in manifest:
        name = row["name"]
        expression = parse_expr(row["expression"]) if row.get("expression") else None
        if row.get("diagram"):
            try:
                diagram = parse_diagram(reader(row["diagram"]))
            except DiagramError as ex:
                raise CatalogError(f"{name}: invalid diagram: {ex}")
        elif expression is not None:
            diagram = from_expression(expression)
            err = validate(diagram)
            if err:
                raise CatalogError(f"{name}: invalid diagram: {err}")
        else:
            raise CatalogError(f"{name}: neither diagram nor expression")
        if expression is not None:
            realized = from_expression(expression)
            for label, closer in (("numerator", close_numerator),
                                  ("denominator", close_denominator)):
                da = determinant(closer(diagram))
                db = determinant(closer(realized))
                if da != db:
                    raise CatalogError(
                        f"{name}: diagram/expression disagree on the "
                        f"{label} determinant: {da} != {db}")
            ra = monochromatic_report(diagram)
            rb = monochromatic_report(realized)
            if (ra.c_trivial_for_all_n, ra.r0_monochromatic,
                    ra.offending_moduli, ra.all_moduli) != (
                    rb.c_trivial_for_all_n, rb.r0_monochromatic,
                    rb.offending_moduli, rb.all_moduli):
                raise CatalogError(
                    f"{name}: diagram/expression disagree on monochromaticity")
        expected = {}
        for key, val in row.get("expected", {}).items():
            status = val["status"]
            closure = parse_fraction(val["closure"]) if val.get("closure") else None
            expected[key] = Verdict(status=status, closure=closure,
                                    reason=val.get("reason"))
        entries.append(CatalogEntry(
            name=name, diagram=diagram, expression=expression,
            essential=bool(row.get("essential", True)),
            expected=expected, notes=row.get("notes", "")))
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


def unknot_certified(L: LinkDiagram) -> bool:
    return (component_count(L) == 1 and determinant(L) == 1
            and jones(L) == jones_unknot())


def unlink_certified(L: LinkDiagram) -> bool:
    if component_count(L) != 2 or determinant(L) != 0:
        return False
    if linking_number(orient(L)) != 0:
        return False
    if jones(L) != jones_unlink(2):
        return False
    return all(jones(c) == jones_unknot() for c in component_subdiagrams(L))


def _split_candidate_evidence(t: TangleDiagram, c: Fraction, evidence: list[str]):
    """Test the unique rational splitting candidate closure c.

    Returns 'unlink', 'rejected' or 'inconclusive'.  Rejections certify
    that N(T + c) is not split: wrong component count, nonzero linking
    number, or a Jones polynomial different from the distant union of the
    component knots.
    """
    from .bracket import CrossingBudgetExceeded

    L = closure_link(t, c)
    comps = component_count(L)
    if comps == 1:
        evidence.append(f"N(T + [{c}]) is a knot, so it is not a split link")
        return "rejected"
    try:
        if unlink_certified(L):
            evidence.append(f"N(T + [{c}]) certifies as the 2-component unlink "
                            "(Jones, determinant, linking number, component knots)")
            return "unlink"
        if comps == 2:
            lk = linking_number(orient(L))
            if lk != 0:
                evidence.append(f"N(T + [{c}]) has linking number {lk} != 0, "
                                "so it is not split")
                return "rejected"
            jl = jones(L)
            ju = split_union_jones(L)
            if jl != ju:
                evidence.append(f"N(T + [{c}]) has Jones {jl}, but the distant "
                                f"union of its component knots has {ju}; not split")
                return "rejected"
    except CrossingBudgetExceeded:
        evidence.append(f"N(T + [{c}]) exceeds the bracket crossing budget; "
                        "only the cheap obstructions were tried")
        return "inconclusive"
    evidence.append(f"no certificate either way for N(T + [{c}])")
    return "inconclusive"


def classify(entry: CatalogEntry) -> Classification:
    """Decide the three embedding properties of a catalog entry.

    Pipeline: the algebraic criteria when an expression is present; then
    coloring obstructions (a nontrivial dihedral c-coloring at any
    modulus rules out unknottability; the coloring fraction of an
    integer-monochromatic tangle leaves one rational splitting closure
    candidate, confirmed or rejected on the closed diagram); positive
    answers come from exhibiting a closure whose diagram carries unknot
    or unlink invariants.  Unknown is returned when nothing applies.
    """
    t = entry.diagram
    evidence: list[str] = []
    unknot = Verdict.unknown()
    unlink = Verdict.unknown()
    split = Verdict.unknown()

    if entry.expression is not None:
        result: EvalResult = evaluate(entry.expression)
        evidence.append(f"algebraic route on {expr_text(entry.expression)}")
        evidence.extend("  " + line for line in result.log)
        unknot, unlink, split = (result.verdict.unknottable,
                                 result.verdict.unlinkable,
                                 result.verdict.splittable)

    rep = monochromatic_report(t)
    if rep.polychromatic_somewhere():
        moduli = ("every modulus" if rep.all_moduli
                  else ", ".join(str(p) for p in sorted(rep.offending_moduli)))
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
        cf = coloring_fraction(t)
        if rep.r0_monochromatic and not isinstance(cf, NotInvariant):
            cand = frac_mirror(cf)
            evidence.append(f"integer-monochromatic with coloring fraction "
                            f"{cf}: unique rational splitting candidate [{cand}]")
            outcome = _split_candidate_evidence(t, cand, evidence)
            if outcome == "unlink":
                unlink = Verdict.yes(cand)
                split = Verdict.yes(cand)
            elif outcome == "rejected":
                split = Verdict.no(f"the unique splitting candidate [{cand}] "
                                   "is rejected by closure invariants")
                if not unlink.is_no:
                    unlink = Verdict.no("not splittable, and an unlink is split")
        elif isinstance(cf, NotInvariant):
            evidence.append(f"coloring fraction is {cf}; no candidate derived")

    # positive unknotting closures from a small sweep
    if unknot.status == "unknown":
        for c in _SWEEP:
            L = closure_link(t, c)
            if unknot_certified(L):
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

    # unlink candidates that may remain: the same sweep
    if unlink.status == "unknown":
        for c in _SWEEP:
            L = closure_link(t, c)
            if unlink_certified(L):
                unlink = Verdict.yes(c)
                if split.status == "unknown" or not split.is_yes:
                    split = Verdict.yes(c)
                evidence.append(f"N(T + [{c}]) certifies as the 2-unlink; "
                                "invariant-certified")
                break

    if unlink.is_yes and not split.is_yes:
        split = Verdict.yes(unlink.closure)
    verdict = EmbedVerdict(unknot, unlink, split)
    return Classification(entry=entry, verdict=verdict, evidence=evidence)


# ---------------------------------------------------------------------------
# reproduction of the classification

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


@dataclass
class ReproduceReport:
    ok: bool
    lines: list[str]
    data: dict

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
        entry = next(e for e in entries if e.name == n)
        cf = coloring_fraction(entry.diagram)
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
        "computed_obstruction_invariants": _obstruction_invariants(entries),
        "diffs": diffs,
    }
    return ReproduceReport(ok=ok, lines=lines, data=data)


def _obstruction_invariants(entries) -> dict:
    """Record the computed not-split evidence values (documentation only;
    printed coefficient conventions elsewhere differ, so these are never
    compared against external sources)."""
    out = {}
    for name, frac in sorted(EXPECTED_FRACTIONS.items()):
        entry = next((e for e in entries if e.name == name), None)
        if entry is None:
            continue
        L = closure_link(entry.diagram, frac_mirror(frac))
        row = {"determinant": determinant(L),
               "linking_number": linking_number(orient(L)),
               "jones": str(jones(L)),
               "jones_of_component_union": str(split_union_jones(L))}
        out[f"N({name} + [{frac_mirror(frac)}])"] = row
    return out


def _verdict_json(v: Verdict) -> dict:
    out = {"status": v.status}
    if v.closure is not None:
        out["closure"] = str(v.closure)
    if v.reason:
        out["reason"] = v.reason
    return out
