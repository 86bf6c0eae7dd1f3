import json
import random

import pytest

from tanglekit.catalog import (
    CatalogEntry,
    CatalogError,
    classify,
    get_entry,
    load_catalog,
    reproduce_tables,
)
from tanglekit.diagram import close_numerator, from_expression, strands, validate
from tanglekit.expr import CatalogHint, evaluate, parse_expr
from tanglekit.fraction import frac_normalize

from conftest import cut_tangles, random_tangle_diagram


def F(p, q=1):
    return frac_normalize(p, q)


def serve_manifest(monkeypatch, rows):
    """Make the loader read ``rows`` as its manifest; diagram files are the
    bundled ones."""
    import tanglekit.catalog as cat

    real = cat._data_text
    monkeypatch.setattr(cat, "_data_text", lambda name: json.dumps(rows)
                        if name == "catalog/manifest.json" else real(name))


EXPECTED_NAMES = {
    "5_1", "6_1", "6_2", "6_3", "6_4",
    "7_1", "7_2", "7_3", "7_4", "7_5", "7_6", "7_7", "7_8", "7_9",
    "7_10", "7_11", "7_12", "7_13", "7_14", "7_15", "7_16", "7_17", "7_18",
}


class TestLoad:
    def test_all_entries_present(self, catalog_entries):
        assert {e.name for e in catalog_entries} == EXPECTED_NAMES

    def test_all_diagrams_valid(self, catalog_entries):
        for e in catalog_entries:
            assert validate(e.diagram) is None, e.name

    def test_crossing_counts(self, catalog_entries):
        for e in catalog_entries:
            stated = int(e.name.split("_")[0])
            if e.expression is None:
                assert e.diagram.crossing_count == stated, e.name
            else:
                # expression realizations may carry extra crossings
                assert e.diagram.crossing_count >= stated, e.name

    def test_every_entry_essential(self, catalog_entries):
        assert all(e.essential for e in catalog_entries)

    def test_expression_agreement_gate(self, catalog_entries):
        from tanglekit.diagram import close_denominator
        from tanglekit.quandle import determinant, monochromatic_report

        for e in catalog_entries:
            if e.expression is None:
                continue
            realized = from_expression(e.expression)
            assert determinant(close_numerator(e.diagram)) == \
                determinant(close_numerator(realized))
            assert determinant(close_denominator(e.diagram)) == \
                determinant(close_denominator(realized))
            ra = monochromatic_report(e.diagram)
            rb = monochromatic_report(realized)
            assert ra.offending_moduli == rb.offending_moduli

    def test_products_glue_as_written(self, catalog_entries):
        """Every product row names the tangle it draws: its two factors'
        realizations, the second glued below the first with no quarter
        turn, make a valid tangle, the catalog diagram."""
        from tanglekit.diagram import tangle_product
        from tanglekit.expr import Product

        products = [e for e in catalog_entries if isinstance(e.expression, Product)]
        assert len(products) == 7
        for e in products:
            glued = tangle_product(from_expression(e.expression.top),
                                   from_expression(e.expression.bottom))
            assert validate(glued) is None, e.name
            assert glued == e.diagram, e.name

    def test_missing_entry(self, catalog_entries):
        with pytest.raises(CatalogError):
            get_entry("9_99", catalog_entries)

    def test_served_manifest_loads(self, monkeypatch):
        serve_manifest(monkeypatch, [{"name": "a", "diagram": "5_1.tangle"},
                                     {"name": "b", "expression": "1/3 + 1/3"}])
        entries = load_catalog()
        assert [(e.name, e.expression is None) for e in entries] == [
            ("a", True), ("b", False)]

    @pytest.mark.parametrize("rows, message", [
        ([{"name": "x", "diagram": "5_1.tangle", "expression": "1/3 + 1/3"}],
         "exactly one"),
        ([{"name": "x", "diagram": None, "expression": None}], "exactly one"),
        ([{"name": "x", "diagram": "5_1.tangle"},
          {"name": "x", "expression": "1/3 + 1/3"}], "duplicate"),
    ])
    def test_malformed_manifest(self, monkeypatch, rows, message):
        serve_manifest(monkeypatch, rows)
        with pytest.raises(CatalogError, match=message):
            load_catalog()


class TestClassify:
    def test_6_3_unlinkable(self, classified):
        v = classified["6_3"].verdict
        assert v.unlinkable.is_yes and v.unlinkable.closure == F(0)
        assert v.splittable.is_yes and v.unknottable.is_no

    def test_5_1_unknottable(self, classified):
        v = classified["5_1"].verdict
        assert v.unknottable.is_yes and v.unknottable.closure == F(-1)
        assert v.unlinkable.is_no and v.splittable.is_no

    def test_7_13_all_no_with_evidence(self, classified):
        r = classified["7_13"]
        v = r.verdict
        assert v.unknottable.is_no and v.unlinkable.is_no and v.splittable.is_no
        evidence = "\n".join(r.evidence)
        assert "splitting candidate [-3/4]" in evidence
        assert "knotted" in evidence

    def test_montesinos_entries_all_no(self, classified):
        for name in ("6_2", "6_4", "7_1", "7_3", "7_4", "7_6", "7_8",
                     "7_9", "7_10", "7_11", "7_12", "7_16"):
            v = classified[name].verdict
            assert v.unknottable.is_no, name
            assert v.unlinkable.is_no, name
            assert v.splittable.is_no, name

    def test_no_unknown_verdicts(self, classified):
        for name, r in classified.items():
            for key in ("unknottable", "unlinkable", "splittable"):
                assert getattr(r.verdict, key).status != "unknown", (name, key)

    def test_double_derivation_of_coloring_entries(self, classified):
        for name in ("6_2", "7_16"):
            evidence = "\n".join(classified[name].evidence)
            assert "coloring route agrees" in evidence, name

    def test_coloring_agreement_is_recorded(self, classified):
        """The record, not the evidence text, says which entries the
        coloring route confirmed: exactly those whose evidence says so."""
        agrees = {name for name, r in classified.items() if r.coloring_agrees}
        assert agrees == {"6_2", "7_16"}
        assert agrees == {name for name, r in classified.items()
                          if any("coloring route agrees" in line for line in r.evidence)}

    def test_every_closure_classify_builds_is_a_link_diagram(self, classified):
        """A closure's invariants are evidence only when N(T + [c]) is a
        planar diagram, so every closure read passes ``validate``.  Each
        drawing-only entry reads at least its splitting candidate."""
        for name, r in classified.items():
            assert r._closures or r.entry.expression is not None, name
            for c, L in r._closures.items():
                assert validate(L.diagram) is None, (name, c)

    def test_knotted_string_gate(self, classified):
        r = classified["7_13"]
        assert "knotted" in (r.verdict.unlinkable.reason or "") or \
            any("knotted" in line for line in r.evidence)

    def test_strings_bracketed_only_while_unlinkability_is_open(
            self, catalog_entries, classified, monkeypatch):
        """Counting jones calls: no string of an entry whose unlinkability
        the algebraic route decided is bracketed, and on every other entry
        the strings are bracketed up to the first knotted one."""
        import tanglekit.catalog as cat
        from tanglekit.bracket import jones, jones_unknot, possibly_knotted

        calls = []
        monkeypatch.setattr(cat, "jones", lambda d: calls.append(d) or jones(d))
        decided_strings = 0
        for e in catalog_entries:
            del calls[:]
            r = cat.classify(e)
            assert r.verdict == classified[e.name].verdict, e.name
            closures = {id(L.diagram) for L in r._closures.values()}
            bracketed = sum(id(d) not in closures for d in calls)
            knotted = [jones(sc) != jones_unknot() for _, sc in possibly_knotted(e.diagram)]
            if (e.expression is not None
                    and evaluate(e.expression).verdict.unlinkable.status != "unknown"):
                assert bracketed == 0, e.name
                decided_strings += len(knotted)
            else:
                want = knotted.index(True) + 1 if True in knotted else len(knotted)
                assert bracketed == want, e.name
        assert decided_strings >= 10

    def test_answer_blind(self, catalog_entries, classified, monkeypatch):
        """The published answers never reach the classifier."""
        import tanglekit.catalog as cat

        def sealed(self, *args):
            raise AssertionError("classify read the published answers")

        class Sealed:
            __getattr__ = __getitem__ = __contains__ = __iter__ = __len__ = sealed
            __bool__ = sealed

        for table in ("EXPECTED_UNKNOTTABLE", "EXPECTED_UNLINKABLE",
                      "EXPECTED_FRACTIONS"):
            monkeypatch.setattr(cat, table, Sealed())
        for e in catalog_entries:
            r = cat.classify(e)
            assert r.verdict == classified[e.name].verdict, e.name
            assert r.evidence == classified[e.name].evidence, e.name


class TestNoRationalInDisguise:
    """A drawing whose closures N(T + [c]) match those of the rational
    tangle [cf], with cf its coloring fraction, may be that rational tangle
    drawn with extra crossings.  No entry matches on more than one of ten
    fractions c; a rational tangle drawn as a sum matches on all ten."""

    SWEEP = [F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(3, 2),
             F(1, 3), F(-3)]

    def agreements(self, t):
        from tanglekit.bracket import jones
        from tanglekit.catalog import closure_link
        from tanglekit.diagram import from_rational
        from tanglekit.quandle import coloring_record

        rational = from_rational(coloring_record(t).fraction)
        return sum(jones(closure_link(t, c)) == jones(closure_link(rational, c))
                   for c in self.SWEEP)

    def test_catalog_entries(self, catalog_entries):
        assert len(catalog_entries) == 23
        for e in catalog_entries:
            assert self.agreements(e.diagram) <= 1, e.name

    def test_a_rational_sum_matches_everywhere(self):
        from tanglekit.diagram import from_rational, tangle_sum

        t = tangle_sum(from_rational(F(1, 3)), from_rational(F(1)))
        assert self.agreements(t) == len(self.SWEEP)


class TestUnknownIsLegal:
    def test_synthetic_entry_with_no_applicable_criterion(self):
        # a rational tangle diagram whose unknotting closures all fall
        # outside the sweep: the driver must answer unknown with a log,
        # while the splitting candidate route still certifies the unlink
        from tanglekit.catalog import CatalogEntry, classify
        from tanglekit.diagram import from_rational

        entry = CatalogEntry(
            name="synthetic_7_5ths", diagram=from_rational(F(7, 5)),
            expression=None, essential=False)
        r = classify(entry)
        assert r.verdict.unknottable.status == "unknown"
        assert r.verdict.unlinkable.is_yes
        assert r.verdict.unlinkable.closure == F(-7, 5)
        assert any("no unknotting closure found" in line for line in r.evidence)


class TestImages:
    def test_every_image_gets_one_status_per_property(self, tool):
        """A rotation or mirror carries closures along and keeps the three
        properties, and the sweep is closed under both, so the eight images
        of a drawing, told nothing of essentiality, get one status per
        property.  Without [inf] in the sweep, 13 of these 150 tangles read
        "yes" in some images and "unknown" in others."""
        rng = random.Random(31)
        tangles = (cut_tangles(tool, rng, 100, 5, 9)
                   + [random_tangle_diagram(rng) for _ in range(50)])
        for i, t in enumerate(tangles):
            verdicts = [classify(CatalogEntry(f"t{i}", v, None, essential=False)).verdict
                        for v in tool.variants(t)]
            for key in ("unknottable", "unlinkable", "splittable"):
                assert len({getattr(v, key).status for v in verdicts}) == 1, (i, key)


class TestCappedPieces:
    def test_no_no_across_an_infinity_cap(self, catalog_entries, classified):
        """Each entry in six images and four contexts that cap it with [inf]
        or [0]: 438 of the 552 expressions are tangles, and 381 of those
        have a crossing-free string, so they are split.  N(T + [inf] + c)
        is D(T) # D(c), so no such sum is called not splittable, and one is
        called not unlinkable only when the piece is not unknottable."""
        diagrams = {e.name: e.diagram for e in catalog_entries}
        hints = {name: CatalogHint(verdict=r.verdict, essential=r.entry.essential)
                 for name, r in classified.items()}
        images = ("@{}", "rot(@{})", "rot(rot(@{}))", "rot(rot(rot(@{})))",
                  "mirror(@{})", "mirror(rot(@{}))")
        contexts = ("{} + inf", "inf + {}", "({}) * [0]", "[0] * ({})")
        tangles = free = 0
        for name in sorted(diagrams):
            for image in images:
                for context in contexts:
                    text = context.format(image.format(name))
                    expr = parse_expr(text)
                    d = from_expression(expr, diagrams.get)
                    if validate(d) is not None:
                        continue
                    tangles += 1
                    free += min(len(s) for s in strands(d)[:2]) == 1
                    v = evaluate(expr, hints).verdict
                    assert not v.splittable.is_no, text
                    assert not v.unlinkable.is_no or v.unknottable.is_no, text
        assert (tangles, free) == (438, 381)


class TestSubtanglePruning:
    def test_7_16_via_reference_to_6_2(self, catalog_entries, classified):
        hints = {"6_2": CatalogHint(verdict=classified["6_2"].verdict,
                                    essential=True)}
        r = evaluate(parse_expr("@6_2 * [-2]"), hints)
        assert r.verdict.unknottable.is_no
        assert r.verdict.unlinkable.is_no


class TestReproduce:
    def test_tables_reproduced(self, catalog_entries):
        report = reproduce_tables(catalog_entries)
        assert report.ok, report.text()

    def test_report_schema(self, catalog_entries):
        report = reproduce_tables(catalog_entries)
        data = json.loads(json.dumps(report.data))
        assert data["schema"] == "tanglekit-report/1"
        assert data["unknottable"] == {
            "5_1": "-1", "6_1": "-1", "7_2": "-1",
            "7_5": "0", "7_7": "0", "7_14": "-1"}
        assert data["unlinkable"] == {"6_3": "0"}
        assert data["splittable"] == {"6_3": "0"}
        assert set(data["verdicts"]) == EXPECTED_NAMES

    def test_diff_detection(self, catalog_entries):
        # corrupt one expected set entry and check the diff machinery
        import tanglekit.catalog as cat

        broken = dict(cat.EXPECTED_UNKNOTTABLE)
        broken["6_2"] = F(0)
        orig = cat.EXPECTED_UNKNOTTABLE
        cat.EXPECTED_UNKNOTTABLE = broken
        try:
            report = reproduce_tables(catalog_entries)
            assert not report.ok
            assert any("6_2" in d for d in report.data["diffs"])
        finally:
            cat.EXPECTED_UNKNOTTABLE = orig
