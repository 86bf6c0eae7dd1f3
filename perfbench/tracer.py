"""Span tracer for the benchmark's traced runs.

``install`` wraps the public entry points of each tanglekit module named
in ``TRACED`` and rebinds every name other tanglekit modules imported
with ``from .x import y``, so that calls between modules are seen too.
Each call records a span (name, start, end, parent) in memory; nothing
is written until the run ends.  Functions that are not listed (helpers
such as ``edge_incidences`` or ``component_subdiagrams``) are not
wrapped, so their time counts as self time of the listed caller.

A span's self time is its duration minus the durations of its direct
children.  ``summarize`` folds spans into additive totals per layer; the
caller divides them by the number of ops.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

BUILD = ("zero_tangle", "infinity_tangle", "horizontal_twists", "vertical_twists",
         "tangle_sum", "tangle_product", "rotate", "mirror", "close_numerator",
         "close_denominator", "renumber", "from_rational", "from_expression")
STRANDS = ("strands", "orient", "component_count")
FRACTION = ("frac_normalize", "frac_add_integral", "frac_add", "frac_rotate",
            "frac_mirror", "frac_reciprocal", "parse_fraction", "continued_fraction",
            "continued_fraction_value", "numerator_two_bridge",
            "two_bridge_equivalent", "rational_closure_verdict", "unknotting_closure")
LAURENT = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "scale", "shift",
           "substitute_gaussian")

# (layer, class or None, wrapped attributes); spans are named "layer.attr"
TRACED = (
    ("fraction", None, FRACTION),
    ("diagram", None, BUILD + STRANDS + ("validate", "parse_diagram")),
    ("snf", None, ("smith_normal_form", "integer_determinant")),
    ("quandle", None, ("monochromatic_report", "coloring_fraction", "determinant")),
    ("laurent", "LaurentPoly", LAURENT),
    ("bracket", None, ("kauffman_bracket", "jones", "linking_number",
                       "split_union_jones")),
    ("expr", None, ("parse_expr", "evaluate")),
    ("catalog", None, ("load_catalog", "classify")),
    ("cli", None, ("main",)),
)

# metric group -> span names; "<group>.calls" and "<group>.self_ms" are
# reported for the groups the layer map names
GROUPS = {
    "bracket.kauffman_bracket": ("bracket.kauffman_bracket",),
    "bracket.jones": ("bracket.jones",),
    "bracket.linking_number": ("bracket.linking_number",),
    "bracket.split_union_jones": ("bracket.split_union_jones",),
    "laurent": tuple(f"laurent.{m}" for m in LAURENT),
    "snf.smith_normal_form": ("snf.smith_normal_form",),
    "snf.integer_determinant": ("snf.integer_determinant",),
    "quandle.monochromatic_report": ("quandle.monochromatic_report",),
    "quandle.coloring_fraction": ("quandle.coloring_fraction",),
    "quandle.determinant": ("quandle.determinant",),
    "diagram.build": tuple(f"diagram.{f}" for f in BUILD),
    "diagram.validate": ("diagram.validate",),
    "diagram.strands": tuple(f"diagram.{f}" for f in STRANDS),
    "diagram.parse_diagram": ("diagram.parse_diagram",),
    "fraction": tuple(f"fraction.{f}" for f in FRACTION),
    "fraction.unknotting_closure": ("fraction.unknotting_closure",),
    "expr.parse_expr": ("expr.parse_expr",),
    "expr.evaluate": ("expr.evaluate",),
    "catalog.load_catalog": ("catalog.load_catalog",),
    "catalog.classify": ("catalog.classify",),
    "cli.main": ("cli.main",),
}


def _yes_count(args, result) -> int:
    v = result.verdict
    return sum(x.is_yes for x in (v.unknottable, v.unlinkable, v.splittable))


def _matrix_cells(args, result) -> int:
    a = args[0]
    return len(a) * (len(a[0]) if a else 0)


# span name -> note(args, result), recorded after the span closes
NOTES = {
    "bracket.kauffman_bracket": lambda args, result: args[0],
    "quandle.determinant": lambda args, result: args[0],
    "snf.smith_normal_form": _matrix_cells,
    "catalog.classify": _yes_count,
}


class Tracer:
    """Spans as [name, start, end, parent index, note], in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """Return fn recording one span per call; values and exceptions
        pass through unchanged."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if note is not None:
                record[4] = note(args, result)
            return result

        return traced


def install(tracer: Tracer):
    """Wrap every function in TRACED and rebind its imported aliases.

    Returns a function that restores the originals.
    """
    wrappers = {}
    restore = []
    for layer, cls, attrs in TRACED:
        owner = importlib.import_module(f"tanglekit.{layer}")
        if cls is not None:
            owner = getattr(owner, cls)
        for attr in attrs:
            fn = owner.__dict__[attr]
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{attr}", fn))
            restore.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)][1])
    for name, mod in list(sys.modules.items()):
        if name != "tanglekit" and not name.startswith("tanglekit."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                restore.append((mod, attr, value))
                setattr(mod, attr, hit[1])

    def uninstall():
        for owner, attr, fn in reversed(restore):
            setattr(owner, attr, fn)

    return uninstall


def self_times(spans) -> list[float]:
    """Self time of each span in seconds."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def summarize(spans) -> dict:
    """Additive totals over the spans of one process.

    Call after uninstalling the tracer: distinct diagrams are counted by
    ``canonical_form``, which must not itself be traced.
    """
    from tanglekit.diagram import canonical_form

    groups_of: dict[str, list[str]] = {}
    for group, names in GROUPS.items():
        for name in names:
            groups_of.setdefault(name, []).append(group)
    totals: dict[str, float] = {}
    for group in GROUPS:
        totals[f"{group}.calls"] = 0
        totals[f"{group}.self_ms"] = 0.0
    for span, self_s in zip(spans, self_times(spans)):
        for group in groups_of.get(span[0], ()):
            totals[f"{group}.calls"] += 1
            totals[f"{group}.self_ms"] += self_s * 1e3
    # notes are recorded only for calls that returned
    brackets = [s[4] for s in spans if s[0] == "bracket.kauffman_bracket"
                and s[4] is not None]
    dets = [s[4] for s in spans if s[0] == "quandle.determinant" and s[4] is not None]
    totals["bracket.states"] = sum(2 ** d.crossing_count for d in brackets)
    totals["bracket.max_crossings"] = max((d.crossing_count for d in brackets), default=0)
    totals["bracket.distinct"] = len({canonical_form(d) for d in brackets})
    totals["quandle.determinant.distinct"] = len({canonical_form(d) for d in dets})
    totals["snf.smith_normal_form.cells"] = sum(
        s[4] or 0 for s in spans if s[0] == "snf.smith_normal_form")
    totals["catalog.yes_verdicts"] = sum(
        s[4] or 0 for s in spans if s[0] == "catalog.classify")
    totals["catalog.closures_tried"] = sum(
        1 for s in spans if s[0] == "diagram.close_numerator"
        and _has_ancestor(spans, s[3], "catalog.classify"))
    return totals


def _has_ancestor(spans, index: int, name: str) -> bool:
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False
