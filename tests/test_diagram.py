import gc
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tanglekit.bracket import jones, linking_number, split_union_jones
from tanglekit.diagram import (
    DiagramError,
    LinkDiagram,
    TangleDiagram,
    UnionFind,
    _ends,
    _glue,
    canonical_form,
    close_denominator,
    close_numerator,
    component_count,
    component_subdiagrams,
    from_expression,
    from_rational,
    infinity_tangle,
    mirror,
    orient,
    parse_diagram,
    print_diagram,
    renumber,
    rotate,
    strands,
    tangle_product,
    tangle_sum,
    validate,
    walk,
    zero_tangle,
)
from tanglekit.expr import parse_expr
from tanglekit.fraction import continued_fraction, frac_normalize
from tanglekit.quandle import coloring_record, determinant

from conftest import add_kink, fibonacci, montesinos_sum, random_fraction, random_tangle_diagram
from oracles import (
    all_orientations,
    block_by_block_rational,
    crossing_sign,
    ends_by_edge,
    open_strand_endpoints,
    two_pass_glue,
    union_find_validate,
)


def F(p, q=1):
    return frac_normalize(p, q)


class TestElementaryTangles:
    def test_one_crossing_endpoints(self):
        d = from_rational(F(1))
        assert d.crossing_count == 1
        assert open_strand_endpoints(d) == [("NE", "SW"), ("NW", "SE")]

    def test_zero_tangle(self):
        d = zero_tangle()
        assert d.crossing_count == 0
        assert open_strand_endpoints(d) == [("NE", "NW"), ("SE", "SW")]

    def test_infinity_tangle(self):
        d = infinity_tangle()
        assert open_strand_endpoints(d) == [("NE", "SE"), ("NW", "SW")]

    def test_crossing_count_is_twist_weight(self):
        for p, q in [(3, 2), (8, 7), (-5, 3), (13, 5), (1, 4)]:
            f = F(p, q)
            weight = sum(abs(c) for c in continued_fraction(f))
            assert from_rational(f).crossing_count == weight

    def test_validate_ok(self):
        for p, q in [(1, 1), (3, 2), (-5, 3), (0, 1), (1, 0)]:
            assert validate(from_rational(F(p, q))) is None


class TestGluing:
    def test_sum_adds_crossings(self):
        a, b = from_rational(F(3)), from_rational(F(1, 2))
        assert tangle_sum(a, b).crossing_count == 5

    def test_sum_associativity(self):
        a, b, c = (from_rational(F(1, 2)), from_rational(F(1, 3)),
                   from_rational(F(-2)))
        lhs = tangle_sum(tangle_sum(a, b), c)
        rhs = tangle_sum(a, tangle_sum(b, c))
        assert canonical_form(lhs) == canonical_form(rhs)

    def test_sum_chain_glued_at_once(self):
        # one n-ary gluing gives the left-nested chain of binary sums,
        # edge for edge, loops included
        rng = random.Random(6006)
        for _ in range(200):
            parts = [rng.choice([infinity_tangle(), zero_tangle()]) if rng.random() < 0.2
                     else from_rational(random_fraction(rng, 5, 4))
                     for _ in range(rng.randint(1, 6))]
            chain = parts[0]
            for part in parts[1:]:
                chain = tangle_sum(chain, part)
            assert tangle_sum(*parts) == chain

    def test_glue_numbers_edges_as_two_passes_did(self):
        """Each gluing equals the two-pass construction: fuse the copies
        through a union-find, then renumber.  Parts come renumbered, with
        their edge ids shifted, and mirrored."""
        nw, ne, sw, se = range(4)
        specs = [
            (2, [((0, ne), (1, nw)), ((0, se), (1, sw))], [(0, nw), (1, ne), (0, sw), (1, se)]),
            (3, [((0, ne), (1, nw)), ((0, se), (1, sw)), ((1, ne), (2, nw)), ((1, se), (2, sw))],
             [(0, nw), (2, ne), (0, sw), (2, se)]),
            (2, [((0, sw), (1, nw)), ((0, se), (1, ne))], [(0, nw), (0, ne), (1, sw), (1, se)]),
        ]
        rng = random.Random(1203)
        tangles = ([random_tangle_diagram(rng) for _ in range(300)]
                   + [montesinos_sum(rng) for _ in range(200)]
                   + [zero_tangle(), infinity_tangle()])
        for n, t in enumerate(tangles):
            if n % 3 == 1:
                t = TangleDiagram(tuple(tuple(e + 7 for e in c)
                                        for c in t.crossings),
                                  tuple(e + 7 for e in t.boundary))
            elif n % 3 == 2:
                t = mirror(t)
            for count, joins, outer in specs:
                parts = tuple(rng.choice(tangles) for _ in range(count - 1))
                parts = (t,) + parts
                assert _glue(parts, joins, outer) == two_pass_glue(parts, joins, outer)

    def test_union_find_halves_paths_below_each_child(self):
        rng = random.Random(1204)
        uf = UnionFind()
        members = {x: {x} for x in range(300)}
        for step in range(3000):
            a, b = rng.randrange(300), rng.randrange(300)
            merged = members[a] | members[b]
            assert uf.union(a, b) == (members[a] is not members[b])
            for x in merged:
                members[x] = merged
            if step % 500 == 0:
                assert all(uf.find(x) == min(members[x]) for x in range(300))
                assert all(p < child for child, p in uf.parent.items())

    def test_product_stacks(self):
        a, b = from_rational(F(1)), from_rational(F(1))
        p = tangle_product(a, b)
        assert p.crossing_count == 2
        assert validate(p) is None

    def test_sum_can_close_a_circle(self):
        s = tangle_sum(infinity_tangle(), infinity_tangle())
        assert s.loops == 1
        assert validate(s) == "closed component in tangle"
        # capping the east side of 1/2 closes its NE-SE string into a
        # circle that crosses the other string twice; no loop is counted
        s = tangle_sum(from_rational(F(1, 2)), infinity_tangle())
        assert s.loops == 0
        assert validate(s) == "closed component in tangle"


class TestClosures:
    def test_numerator_zero(self):
        L = close_numerator(zero_tangle())
        assert L.crossing_count == 0 and component_count(L) == 2

    def test_denominator_zero(self):
        L = close_denominator(zero_tangle())
        assert component_count(L) == 1

    def test_rotation_coherence(self):
        for p, q in [(1, 1), (3, 2), (-5, 3), (5, 2)]:
            d = from_rational(F(p, q))
            lhs = canonical_form(close_denominator(d))
            rhs = canonical_form(close_numerator(rotate(d)))
            assert lhs == rhs

    def test_closure_renumbered_is_the_glued_closure(self, catalog_entries):
        """A closure fuses the boundary edges in place: renumbered, it is
        the two-pass gluing of the one tangle; every crossing it does not
        rename is the tangle's own tuple, and it adds no edge id.  Built
        after the coloring record, it carries the determinant of the
        closure of a record-free copy."""
        rng = random.Random(1601)
        tangles = ([e.diagram for e in catalog_entries]
                   + [zero_tangle(), infinity_tangle()]
                   + [random_tangle_diagram(rng) for _ in range(300)]
                   + [montesinos_sum(rng, 4, 20) for _ in range(100)])
        tangles += [tangle_sum(rng.choice(tangles), rng.choice(tangles)) for _ in range(100)]
        tangles += [tangle_product(rng.choice(tangles), rng.choice(tangles))
                    for _ in range(100)]
        tangles += [mirror(t) for t in tangles] + [rotate(t) for t in tangles]
        tangles += [TangleDiagram(tuple(tuple(e + 7 for e in c) for c in t.crossings),
                                  tuple(e + 7 for e in t.boundary), t.loops)
                    for t in tangles[::5]]
        nw, ne, sw, se = range(4)
        closures = (
            (close_numerator, [((0, ne), (0, nw)), ((0, se), (0, sw))], "det_numerator"),
            (close_denominator, [((0, nw), (0, sw)), ((0, ne), (0, se))], "det_denominator"))
        for t in tangles:
            ids = {e for c in t.crossings for e in c} | set(t.boundary)
            record = coloring_record(t) if validate(t) is None else None
            for close, joins, field in closures:
                link = close(t)
                assert renumber(link) == two_pass_glue((t,), joins), t
                assert {e for c in link.crossings for e in c} <= ids
                rebuilt = [i for i, c in enumerate(link.crossings) if c is not t.crossings[i]]
                assert len(rebuilt) <= 4
                if record is not None:
                    plain = close(TangleDiagram(t.crossings, t.boundary, t.loops))
                    assert plain._determinant is None and plain == link
                    assert link._determinant == getattr(record, field) == determinant(plain), t

    def test_dangling_tangle_raises_the_validate_message(self):
        """A closure reads the tangle's ends, so a tangle with a dangling
        port raises DiagramError with validate's message, and keeps no
        ends."""
        t = TangleDiagram(((0, 1, 2, 3), (3, 2, 4, 5)), (0, 1, 4, 9))
        message = validate(t)
        assert message == "dangling port: edge 5 has 1 incidences"
        for close in (close_numerator, close_denominator):
            with pytest.raises(DiagramError) as err:
                close(t)
            assert str(err.value) == message
        assert t._mate is None

    def test_component_count_matches_two_bridge(self):
        from tanglekit.fraction import numerator_two_bridge

        for p, q in [(3, 1), (4, 1), (5, 2), (8, 3), (0, 1), (12, 5)]:
            f = F(p, q)
            L = close_numerator(from_rational(f))
            assert component_count(L) == numerator_two_bridge(f).components


class TestMirrorRotate:
    def test_mirror_involution_on_crossing_data(self):
        # mirror leaves edge ids alone; the double mirror stores each
        # port tuple rotated by two, the same crossing data
        for p, q in [(1, 1), (3, 2), (-5, 3)]:
            d = from_rational(F(p, q))
            dd = mirror(mirror(d))
            assert dd.boundary == d.boundary
            assert dd.crossings == tuple(c[2:] + c[:2] for c in d.crossings)
            assert canonical_form(mirror(d)) != canonical_form(d)

    def test_rotate_four_times_identity(self):
        d = from_rational(F(3, 2))
        r = d
        for _ in range(4):
            r = rotate(r)
        assert canonical_form(r) == canonical_form(d)


BOUNDARY_ORDER = "boundary order: endpoints not in the order NW, SW, SE, NE on one face"


class TestValidateDiagnostics:
    def test_dangling_port(self):
        d = TangleDiagram(
            crossings=((0, 1, 2, 3),),
            boundary=(0, 1, 2, 4))
        assert "dangling port" in validate(d)

    def test_nonplanar_rotation_system(self):
        # a twisted pairing wiring two crossings into a genus-1 system
        d = LinkDiagram(crossings=((0, 1, 2, 3),
                                   (0, 2, 1, 3)))
        assert validate(d) == "planarity: Euler count fails"

    def test_interleaved_boundary_chords(self):
        d = TangleDiagram(crossings=(), boundary=(0, 1, 1, 0))
        assert validate(d) == "planarity: boundary chords interleave"

    def test_empty_link(self):
        assert validate(LinkDiagram(crossings=())) == "empty diagram"

    def test_boundary_out_of_circle_order(self):
        # the one-crossing tangle with its NE and SE endpoints swapped
        nw, ne, sw, se = from_rational(F(1)).boundary
        d = TangleDiagram(crossings=from_rational(F(1)).crossings,
                          boundary=(nw, se, sw, ne))
        assert validate(d) == BOUNDARY_ORDER

    def test_reflected_ends_are_refused(self):
        """Reflected, (NE, NW, SE, SW), a one-piece tangle runs its ends
        round the other way; [0] is two pieces and stays valid."""
        for p in range(-6, 7):
            for q in range(1, 7):
                if math.gcd(p, q) != 1:
                    continue
                t = from_rational(F(p, q))
                nw, ne, sw, se = t.boundary
                reflected = TangleDiagram(t.crossings, (ne, nw, se, sw))
                assert validate(t) is None
                assert validate(reflected) == (None if p == 0 else BOUNDARY_ORDER), (p, q)

    def test_negative_loop_count_in_either_kind(self):
        t = from_rational(F(3, 2))
        for d in (TangleDiagram(t.crossings, t.boundary, -1),
                  TangleDiagram((), (0, 0, 1, 1), -2),
                  LinkDiagram(close_numerator(t).crossings, -1),
                  LinkDiagram((), -1)):
            assert validate(d) == "negative loop count"
            with pytest.raises(DiagramError, match="^negative loop count$"):
                parse_diagram(print_diagram(d))


def mutants(d, rng):
    """Broken and unbroken variants of d: two ports swapped, one port
    relabelled in -3..12, a tangle's boundary shuffled, and a tangle's
    crossings re-read as a link."""
    flat = [e for c in d.crossings for e in c]
    out = []
    if flat:
        for _ in range(2):
            swapped = flat[:]
            i, j = rng.randrange(len(flat)), rng.randrange(len(flat))
            swapped[i], swapped[j] = swapped[j], swapped[i]
            relabelled = flat[:]
            relabelled[rng.randrange(len(flat))] = rng.randint(-3, 12)
            for ports in (swapped, relabelled):
                it = iter(ports)
                crossings = tuple(zip(it, it, it, it))
                out.append(TangleDiagram(crossings, d.boundary, d.loops)
                           if isinstance(d, TangleDiagram)
                           else LinkDiagram(crossings, d.loops))
    if isinstance(d, TangleDiagram):
        for _ in range(2):
            boundary = list(d.boundary)
            rng.shuffle(boundary)
            out.append(TangleDiagram(d.crossings, tuple(boundary), d.loops))
        out.append(LinkDiagram(d.crossings, d.loops))
    return out


class TestValidateOracle:
    def test_validate_matches_union_find_oracle(self, catalog_entries):
        rng = random.Random(1501)
        tangles = ([random_tangle_diagram(rng) for _ in range(400)]
                   + [montesinos_sum(rng) for _ in range(150)]
                   + [e.diagram for e in catalog_entries])
        seen = Counter()
        for t in tangles:
            for d in (t, close_numerator(t), close_denominator(t)):
                for m in [d, *mutants(d, rng)]:
                    got = validate(m)
                    assert got == union_find_validate(m), print_diagram(m)
                    seen[got if got is None else got.split(" edge")[0]] += 1
        assert sum(seen.values()) >= 10_000
        # every diagnostic but the loop count's is reached
        assert set(seen) == {
            None, "dangling port:", "empty diagram", "planarity: Euler count fails",
            "planarity: boundary chords interleave", "closed component in tangle",
            BOUNDARY_ORDER}


class TestOrientation:
    def test_two_string_tangle_has_four_orientations(self):
        assert len(all_orientations(from_rational(F(3, 2)))) == 4

    def test_hopf_signs(self):
        hopf = close_numerator(from_rational(F(2)))
        signs = set()
        for od in all_orientations(hopf):
            signs.add(tuple(crossing_sign(od, i) for i in range(2)))
        assert signs == {(1, 1), (-1, -1)}

    def test_zero_crossing_loop(self):
        L = LinkDiagram(crossings=(), loops=1)
        assert component_count(L) == 1
        assert len(all_orientations(L)) == 1

    def test_positive_twists_have_positive_writhe(self):
        from tanglekit.bracket import writhe

        L = close_numerator(from_rational(F(3)))
        assert writhe(orient(L)) == 3


def walk_corpus(catalog_entries) -> list:
    """Catalog tangles, their closures and closures with a kink added."""
    tangles = [e.diagram for e in catalog_entries]
    links = [close(t) for t in tangles for close in (close_numerator, close_denominator)]
    kinked = [add_kink(L, L.crossings[0][slot], slot % 2)
              for L in links[::3] if L.crossings for slot in (0, 1)]
    return tangles + links + kinked


class TestEndWalks:
    def test_every_end_lies_in_one_strand(self, catalog_entries):
        for d in walk_corpus(catalog_entries):
            mate = _ends(d)
            left = [y for s in strands(d) for y in s]
            assert sorted(left + [mate[y] for y in left]) == list(range(len(mate)))

    def test_one_under_and_one_over_entry_per_crossing(self, catalog_entries):
        for d in walk_corpus(catalog_entries):
            for od in all_orientations(d):
                for ci in range(d.crossing_count):
                    assert len({4 * ci, 4 * ci + 2} & set(od.heads)) == 1
                    assert len({4 * ci + 1, 4 * ci + 3} & set(od.heads)) == 1

    def test_mirror_negates_every_crossing_sign(self, catalog_entries):
        def sign_vectors(d):
            return {tuple(crossing_sign(od, ci) for ci in range(d.crossing_count))
                    for od in all_orientations(d)}

        for d in walk_corpus(catalog_entries):
            negated = {tuple(-x for x in v) for v in sign_vectors(d)}
            assert sign_vectors(mirror(d)) == negated

    def test_reversing_one_component_negates_linking_number(self, catalog_entries):
        linked = 0
        for d in walk_corpus(catalog_entries):
            if isinstance(d, LinkDiagram) and len(strands(d)) == 2 and not d.loops:
                lk = linking_number(orient(d))
                assert linking_number(orient(d, (True, False))) == -lk
                assert linking_number(orient(d, (False, True))) == -lk
                linked += lk != 0
        assert linked > 0

    def test_oriented_diagrams_hash_by_value(self, catalog_entries):
        for d in walk_corpus(catalog_entries):
            copy = parse_diagram(print_diagram(d))
            assert orient(copy) == orient(d) and hash(orient(copy)) == hash(orient(d))
            assert len(set(all_orientations(d))) == 2 ** len(strands(d))


class TestExpressionRealization:
    def test_sum_expression(self):
        d = from_expression(parse_expr("1/3 + 1/3"))
        assert d.crossing_count == 6 and validate(d) is None

    def test_product_reembeds_to_avoid_circles(self):
        d = from_expression(parse_expr("(1/3 + 1/3) * [-2]"))
        assert validate(d) is None and d.loops == 0

    def test_named_reference_resolution(self):
        base = from_rational(F(1, 2))
        d = from_expression(parse_expr("@x + [1]"), resolver={"x": base}.get)
        assert d.crossing_count == 3

    def test_unresolved_reference(self):
        with pytest.raises(Exception):
            from_expression(parse_expr("@missing"))


class TestValueType:
    def test_diagrams_hash_by_value(self, catalog_entries):
        rng = random.Random(2)
        diagrams = [e.diagram for e in catalog_entries]
        diagrams += [from_rational(random_fraction(rng, 9, 7)) for _ in range(10)]
        diagrams += [close_numerator(d) for d in diagrams]
        for d in diagrams:
            assert hash(parse_diagram(print_diagram(d))) == hash(d)
        assert len(set(diagrams)) == len({canonical_form(d) for d in diagrams})

    def test_boundary_cannot_be_assigned(self):
        d = from_rational(F(3, 2))
        before, key = print_diagram(d), hash(d)
        with pytest.raises(AttributeError):
            d.boundary = (0, 1, 2, 3)
        with pytest.raises(AttributeError):
            del d.boundary
        with pytest.raises(TypeError):
            d.boundary[0] = 99
        assert print_diagram(d) == before and hash(d) == key
        assert d == from_rational(F(3, 2))


class TestWalkRecord:
    def test_cached_walk_is_not_part_of_the_value(self):
        L, twin = (close_numerator(from_rational(F(5, 3))) for _ in range(2))
        before = (repr(L), hash(L))
        assert component_count(L) == 1 and L._walk is walk(L) and twin._walk is None
        assert L == twin and (repr(L), hash(L)) == before == (repr(twin), hash(twin))
        assert "_walk" not in repr(L)
        for name, value in (("_walk", None), ("loops", 1)):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(L, name, value)
        with pytest.raises(AttributeError):
            del L._walk

    def test_a_diagram_walks_its_ends_once(self, monkeypatch):
        """A tangle builds its walk once across the callers that read it,
        and a link builds its ends once across validate, its walk and the
        bracket's schedule."""
        import tanglekit.bracket as bracket
        import tanglekit.diagram as diagram

        ends, walks = [], []
        build_ends, build_walk = diagram._ends, diagram.walk

        def counted_ends(d):
            if d._mate is None:
                ends.append(d)
            return build_ends(d)

        def counted_walk(d):
            if d._walk is None:
                walks.append(d)
            return build_walk(d)

        for module in (diagram, bracket):
            monkeypatch.setattr(module, "_ends", counted_ends)
            monkeypatch.setattr(module, "walk", counted_walk)
        rng = random.Random(2602)
        checked = 0
        for _ in range(40):
            t = tangle_sum(random_tangle_diagram(rng), from_rational(random_fraction(rng)))
            del ends[:], walks[:]
            if validate(t) is not None:
                continue
            diagram.walk(t), orient(t), component_subdiagrams(t), bracket.kink_free_words(t)
            assert walks == [t] and ends == [t]
            L = close_numerator(t)
            del ends[:], walks[:]
            assert validate(L) is None
            component_count(L), orient(L), jones(L), component_subdiagrams(L)
            assert sum(d is L for d in ends) == 1 and sum(d is L for d in walks) == 1
            assert L._walk is walk(L) and t._walk is walk(t)
            checked += 1
        assert checked >= 10

    def test_explicit_orientation_is_not_cached(self):
        hopf = close_numerator(from_rational(F(2)))
        default = orient(hopf)
        record = hopf._walk
        flipped = orient(hopf, (False, True))
        assert hopf._walk is record and default.heads is record.heads
        assert default.heads != flipped.heads
        assert orient(hopf, (False, False)) == default == orient(hopf)
        assert orient(hopf) is not default
        assert linking_number(flipped) == -linking_number(default)

    def test_certificate_leaves_no_reference_cycle(self):
        """A cached walk that referred back to its link would keep every
        link alive until the cyclic collector ran."""
        from tanglekit.catalog import ClosedLink

        rng = random.Random(1417)
        gc.collect()
        gc.disable()
        try:
            for _ in range(30):
                t = tangle_sum(random_tangle_diagram(rng), from_rational(random_fraction(rng)))
                L = close_numerator(t)
                component_count(L), determinant(L), jones(L), split_union_jones(L)
                if component_count(L) == 2:
                    linking_number(orient(L))
                closed = ClosedLink(L)
                closed.is_unknot(), closed.is_unlink()
            del t, L, closed
            assert gc.collect() == 0
        finally:
            gc.enable()


def ends_corpus(catalog_entries) -> list[TangleDiagram]:
    """Catalog tangles and seeded sums and products, plain, mirrored and
    rotated, none of them with its ends built yet."""
    rng = random.Random(1801)
    tangles = [e.diagram for e in catalog_entries]
    tangles += [random_tangle_diagram(rng) for _ in range(100)]
    tangles += [montesinos_sum(rng) for _ in range(50)]
    return [u for t in tangles
            for u in (TangleDiagram(t.crossings, t.boundary, t.loops), mirror(t), rotate(t))]


class TestEndsRecord:
    def test_cached_ends_equal_a_fresh_build(self, catalog_entries):
        """validate builds the ends once; the record's propagation and the
        walk read the same list."""
        for t in ends_corpus(catalog_entries):
            assert t._mate is None
            assert validate(t) is None
            mate = t._mate
            assert mate == ends_by_edge(t)
            assert _ends(t) is mate
            w = walk(t)
            assert t._walk is w and walk(t) is w and t._mate is mate
            coloring_record(t)
            assert t._mate is mate

    def test_invalid_tangle_reports_as_a_fresh_copy(self, catalog_entries):
        """A tangle with a dangling port keeps no ends and gives the same
        diagnostic on every validate; one that fails a later check keeps
        its ends, and reports on its second validate as a fresh copy does
        on its first."""
        rng = random.Random(1802)
        seen = Counter()
        tangles = ends_corpus(catalog_entries)[::3]
        tangles.append(TangleDiagram(((0, 1, 2, 3),), (0, 1, 2, 4)))
        for t in tangles:
            for m in [t, *mutants(t, rng)]:
                if not isinstance(m, TangleDiagram):
                    continue
                first = validate(m)
                dangling = first is not None and first.startswith("dangling port")
                if dangling:
                    assert m._mate is None
                    with pytest.raises(DiagramError, match="^dangling port"):
                        _ends(m)
                    assert m._mate is None
                else:
                    assert m._mate == ends_by_edge(m)
                copy = TangleDiagram(m.crossings, m.boundary, m.loops)
                assert validate(m) == first == validate(copy)
                seen["dangling" if dangling else "valid" if first is None else "other"] += 1
        assert min(seen.values()) >= 50, seen

    def test_cached_ends_are_not_part_of_the_value(self):
        t, twin = from_rational(F(5, 3)), from_rational(F(5, 3))
        before = (repr(t), hash(t))
        assert validate(t) is None and t._mate is not None and twin._mate is None
        assert t == twin and (repr(t), hash(t)) == before == (repr(twin), hash(twin))
        assert "_mate" not in repr(t)
        for name, value in (("_mate", None), ("boundary", (0, 1, 2, 3))):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(t, name, value)
        with pytest.raises(AttributeError):
            del t._mate


class TestRationalRealization:
    def test_one_pass_equals_block_by_block(self):
        """One gluing of all twist blocks gives the tangle that gluing them
        one at a time gave, crossing order and edge ids included: seeded
        fractions, F_n/F_(n+1) up to n = 200 and their negatives, and the
        fractions whose twist vectors hold 0 (0 itself, and every proper
        fraction, whose last entry is 0)."""
        rng = random.Random(1803)
        fractions = [random_fraction(rng, 400, 300) for _ in range(400)]
        fractions += [F(fibonacci(n), fibonacci(n + 1)) for n in range(201)]
        fractions += [F(-fibonacci(n), fibonacci(n + 1)) for n in range(1, 201, 7)]
        fractions += [F(0), F(1, 0), F(7), F(-7), F(-1, 3), F(2, 5), F(-11, 4)]
        entries = Counter()
        for f in fractions:
            assert from_rational(f) == block_by_block_rational(f), f
            if not f.is_infinite:
                entries.update("zero" if c == 0 else "negative" if c < 0 else "positive"
                               for c in continued_fraction(f))
        assert min(entries.values()) >= 100, entries


class TestFileFormat:
    def test_round_trip_bit_exact(self, catalog_entries):
        rng = random.Random(1)
        diagrams = [e.diagram for e in catalog_entries]
        diagrams += [from_rational(random_fraction(rng, 9, 7)) for _ in range(10)]
        diagrams += [close_numerator(from_rational(F(3, 2)))]
        for d in diagrams:
            text = print_diagram(d)
            assert print_diagram(parse_diagram(text)) == text

    def test_golden_tangle_file(self):
        text = print_diagram(renumber(from_rational(F(1))))
        assert text == "tangle\nX 0 1 2 3\nB NW=3 NE=2 SW=0 SE=1\n"

    def test_loops_line(self):
        L = LinkDiagram(crossings=(), loops=2)
        assert print_diagram(L) == "link\nO 2\n"
        assert parse_diagram(print_diagram(L)).loops == 2

    def test_optional_over_marker_accepted(self):
        d = parse_diagram("tangle\nX 0 1 2 3 o\nB NW=3 NE=2 SW=0 SE=1\n")
        assert d.crossing_count == 1

    def test_bad_header(self):
        with pytest.raises(Exception):
            parse_diagram("nonsense\n")

    @pytest.mark.parametrize("line", ["X 0 1 a 3", "O two", "B NW=0 NE=1 SW=2 SE"])
    def test_non_integer_field_quotes_its_line(self, line):
        lines = {"X": "X 0 1 2 3", "O": "O 0", "B": "B NW=3 NE=2 SW=0 SE=1"}
        lines[line[0]] = line
        with pytest.raises(DiagramError) as err:
            parse_diagram("tangle\n" + "\n".join(lines.values()) + "\n")
        assert repr(line) in str(err.value)

    def test_repeated_loop_line_quotes_it(self):
        with pytest.raises(DiagramError, match="repeated loop line: 'O 1'"):
            parse_diagram("link\nX 0 1 1 0\nO 2\nO 1\n")
        with pytest.raises(DiagramError, match="repeated loop line: 'O 0'"):
            parse_diagram("tangle\nX 0 1 2 3\nO 0\nB NW=3 NE=2 SW=0 SE=1\nO 0\n")

    def test_repeated_boundary_line_quotes_it(self):
        with pytest.raises(DiagramError, match="repeated boundary line: 'B NW=3'"):
            parse_diagram("tangle\nX 0 1 2 3\nB NW=3 NE=2 SW=0 SE=1\nB NW=3\n")
        with pytest.raises(DiagramError, match="repeated boundary line"):
            parse_diagram("tangle\nX 0 1 2 3\nB NW=3 NE=2 SW=0 SE=1\n"
                          "B NW=3 NE=2 SW=0 SE=1\n")


# arbitrary small port tuples, boundaries and loop counts, and valid
# diagrams from small rationals, mirrored, rotated and closed
ports = st.tuples(*[st.integers(-2, 7)] * 4)
arbitrary = st.one_of(
    st.builds(TangleDiagram, st.lists(ports, max_size=4).map(tuple), ports,
              st.integers(-1, 2)),
    st.builds(LinkDiagram, st.lists(ports, max_size=4).map(tuple), st.integers(-1, 2)))


@st.composite
def built(draw):
    p, q = draw(st.integers(-9, 9)), draw(st.integers(0, 7))
    t = from_rational(F(p, q) if math.gcd(p, q) == 1 else F(1))
    t = draw(st.sampled_from([t, mirror(t), rotate(t)]))
    return draw(st.sampled_from([t, close_numerator(t), close_denominator(t)]))


@settings(max_examples=400, deadline=None)
@given(arbitrary)
def test_validate_returns_a_diagnostic_and_never_raises(d):
    result = validate(d)
    assert result is None or type(result) is str
    if d.loops >= 0:
        assert result == union_find_validate(d)


@settings(max_examples=300, deadline=None)
@given(st.one_of(arbitrary, built()))
def test_printed_diagram_parses_back_or_is_refused(d):
    try:
        back = parse_diagram(print_diagram(d))
    except DiagramError:
        assert validate(d) is not None
    else:
        assert back == d and validate(d) is None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_what_the_library_builds_runs_one_direction(data):
    """Sums, products, rotations and mirrors of valid tangles, and both
    closures of each, pass ``validate``, but for a sum or product that
    closes a circle."""
    def rational():
        p, q = data.draw(st.integers(-5, 5)), data.draw(st.integers(0, 4))
        return from_rational(F(p, q) if math.gcd(p, q) == 1 else F(1))

    built = [rational()]
    for op in data.draw(st.lists(st.sampled_from(["sum", "product", "rotate", "mirror"]),
                                 max_size=4)):
        t = built[-1]
        if op in ("sum", "product"):
            glue = tangle_sum if op == "sum" else tangle_product
            pair = (t, rational())
            u = glue(*(pair if data.draw(st.booleans()) else pair[::-1]))
            err = validate(u)
            if err is not None:
                assert err == "closed component in tangle"
                continue
        else:
            u = rotate(t) if op == "rotate" else mirror(t)
        built.append(u)
    for t in built:
        for d in (t, close_numerator(t), close_denominator(t)):
            assert validate(d) is None, print_diagram(d)


# a tangle's end pattern is its fraction p/q as (p mod 2, q mod 2), a point
# of P^1(Z/2), named by the end that NW joins; (0, 0) is a closed circle
NW_JOINS = {(0, 1): "NE", (1, 0): "SW", (1, 1): "SE"}


def pattern_sum(a, b):
    return ((a[0] * b[1] + b[0] * a[1]) % 2, a[1] * b[1] % 2)


def pattern_product(top, bottom):
    """The product's pattern, its top factor turned when both join NW to
    NE, as :func:`from_expression` turns it."""
    if top == bottom == (0, 1):
        top = (1, 0)
    return (top[0] * bottom[0] % 2, (top[0] * bottom[1] + bottom[0] * top[1]) % 2)


small_rationals = st.tuples(st.integers(-5, 5), st.integers(0, 4)).filter(
    lambda pq: math.gcd(*pq) == 1).map(lambda pq: (f"{pq[0]}/{pq[1]}", (pq[0] % 2, pq[1] % 2)))


def combined(children):
    """Sums, products, rotations and mirrors of expressions, each with its
    end pattern."""
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda ab: (f"({ab[0][0]} + {ab[1][0]})", pattern_sum(ab[0][1], ab[1][1]))),
        pairs.map(lambda ab: (f"({ab[0][0]} * {ab[1][0]})",
                              pattern_product(ab[0][1], ab[1][1]))),
        children.map(lambda a: (f"rot({a[0]})", a[1][::-1])),
        children.map(lambda a: (f"mirror({a[0]})", a[1])),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(small_rationals, combined, max_leaves=5))
def test_realization_follows_the_end_pattern_arithmetic(case):
    """A realized expression is refused for a closed component exactly
    where fraction arithmetic mod 2 gives (0 : 0); elsewhere it is a valid
    tangle whose NW joins the end that the arithmetic names."""
    text, pattern = case
    t = from_expression(parse_expr(text))
    if pattern == (0, 0):
        assert validate(t) == "closed component in tangle", text
        return
    assert validate(t) is None, text
    nw = next(pair for pair in open_strand_endpoints(t) if "NW" in pair)
    assert set(nw) == {"NW", NW_JOINS[pattern]}, text
