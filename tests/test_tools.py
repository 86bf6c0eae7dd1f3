"""The catalog diagram search tool recognizes the diagrams it produced,
the benchmark's tracer names only functions that exist, and no library
module imports a name it never reads."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from tanglekit.catalog import ClosedLink, closure_link
from tanglekit.diagram import canonical_form, close_numerator, from_rational, rotate
from tanglekit.fraction import Fraction
from tanglekit.quandle import monochromatic_report

from conftest import add_kink, r2_pair_closure


def test_targets_match_shipped_diagrams(tool, catalog_entries):
    diagrams = {e.name: e.diagram for e in catalog_entries}
    assert len(tool.TARGETS) == 11
    for name in tool.TARGETS:
        assert tool.matches(name, diagrams[name]), name


def test_cutting_a_closure_open_gives_the_tangle_back(tool, catalog_entries):
    """N(T) cut at its two closure arcs is T, or T turned a half turn
    when the bottom arc carries the smaller edge id."""
    diagrams = {e.name: e.diagram for e in catalog_entries}
    for name in tool.TARGETS:
        d = diagrams[name]
        cuts = {canonical_form(t) for t in tool.all_cut_tangles(close_numerator(d))}
        assert (canonical_form(d) in cuts
                or canonical_form(rotate(rotate(d))) in cuts), name


def test_kink_and_bigon_predicate(tool, catalog_entries):
    """No shipped diagram has a kink or a reducible bigon; every inserted
    first or second Reidemeister move is seen."""
    for e in catalog_entries:
        t = e.diagram
        assert not tool.has_kink_or_reducible_bigon(t), e.name
        L = close_numerator(t)
        for edge in sorted({x for c in L.crossings for x in c}):
            for variant in (0, 1):
                assert tool.has_kink_or_reducible_bigon(add_kink(L, edge, variant))
        assert tool.has_kink_or_reducible_bigon(r2_pair_closure(t, Fraction(0, 1)))


def test_rational_impostors_fail_only_the_split_guard(tool):
    """The rational tangles 5/4, 6/5 and 7/6 have the crossing numbers of
    5_1, 6_1 and 7_2, and unknot at -1 and at no other sweep closure; only
    their unlinking closure, the splitting candidate -cf, tells them apart
    from an unknottable target, and ``classify`` finds it."""
    minus_one = Fraction(-1, 1)
    for name, p in (("5_1", 5), ("6_1", 6), ("7_2", 7)):
        t = from_rational(Fraction(p, p - 1))
        assert t.crossing_count == p
        assert monochromatic_report(t).c_trivial_for_all_n, name
        assert ClosedLink(closure_link(t, minus_one)).is_unknot(), name
        assert tool.unique_unknotting_closure(t, minus_one), name
        unlinkable = tool.judge(name, t).verdict.unlinkable
        assert unlinkable.is_yes and unlinkable.closure == Fraction(-p, p - 1), name
        assert not tool.matches(name, t), name


def test_cut_search_finds_5_1(tool, catalog_entries):
    found, missing = tool.cut_search(["5_1"], verbose=False)
    assert not missing
    assert tool.matches("5_1", found["5_1"])
    shipped = {e.name: e.diagram for e in catalog_entries}["5_1"]
    assert canonical_form(found["5_1"]) == canonical_form(shipped)


def test_pair_target_alone_gets_its_own_drawing(tool, catalog_entries):
    """7_14 is searched with its partner 7_2, which claims the first drawing
    of the pair, so it gets the shipped 7_14 and not 7_2's drawing."""
    found, missing = tool.cut_search(["7_14"], verbose=False)
    assert list(found) == ["7_14"] and not missing
    shipped = {e.name: e.diagram for e in catalog_entries}["7_14"]
    assert canonical_form(found["7_14"]) == canonical_form(shipped)


def test_tool_finds_the_test_oracles_on_its_own(tmp_path):
    """Loaded by path in a fresh interpreter whose path has neither
    ``src/`` nor ``tests/``, the tool sets up both itself, and its GF(4)
    search, from the test oracles, colors 7_7 in some orientations and
    not in all."""
    tool = Path(__file__).resolve().parent.parent / "tools" / "find_catalog_diagrams.py"
    code = f"""
import importlib.util, sys
assert "oracles" not in sys.modules and not any(p.endswith("tests") for p in sys.path)
spec = importlib.util.spec_from_file_location("find_catalog_diagrams", {str(tool)!r})
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
from tanglekit.catalog import get_entry, load_catalog
print(tool.gf4_orientations(get_entry("7_7", load_catalog()).diagram))
"""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[0, 3]"


def test_tracer_wraps_only_existing_names():
    """Every name in the benchmark tracer's ``TRACED`` list is in its
    module's (or class's) ``__dict__``, where ``install`` looks it up, so
    deleting a traced function fails here.  The tracer is only read."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for layer, cls, attrs in tracer.TRACED:
        owner = importlib.import_module(f"tanglekit.{layer}")
        if cls is not None:
            owner = getattr(owner, cls)
        assert [a for a in attrs if a not in owner.__dict__] == [], (layer, cls)


def test_no_module_imports_a_name_it_never_reads():
    """Every name a module under ``src/tanglekit`` imports is read in it,
    as a name or the base of an attribute, annotations included; only
    ``__future__`` features and the package's re-exports in
    ``__init__.py`` are exempt."""
    package = Path(__file__).resolve().parent.parent / "src" / "tanglekit"
    unread = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - read:
            unread[path.name] = sorted(imported - read)
    assert unread == {}
