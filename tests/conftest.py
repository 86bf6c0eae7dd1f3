import importlib.util
import random
from pathlib import Path

import pytest

from tanglekit.diagram import (
    LinkDiagram,
    TangleDiagram,
    close_numerator,
    from_rational,
    tangle_product,
    tangle_sum,
    validate,
)
from tanglekit.fraction import Fraction, frac_normalize


@pytest.fixture(scope="session")
def catalog_entries():
    from tanglekit.catalog import load_catalog

    return load_catalog()


@pytest.fixture(scope="session")
def classified(catalog_entries):
    from tanglekit.catalog import classify

    return {e.name: classify(e) for e in catalog_entries}


@pytest.fixture(scope="session")
def tool():
    """tools/find_catalog_diagrams.py, loaded by path."""
    path = Path(__file__).resolve().parent.parent / "tools" / "find_catalog_diagrams.py"
    spec = importlib.util.spec_from_file_location("find_catalog_diagrams", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def dense(rows: list[dict[int, int]], ncols: int) -> list[list[int]]:
    """Sparse ``{column: value}`` rows as a dense matrix."""
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def sparse(a: list[list[int]]) -> list[dict[int, int]]:
    """A dense matrix as sparse ``{column: value}`` rows."""
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def random_fraction(rng: random.Random, max_abs=13, max_den=13) -> Fraction:
    import math

    while True:
        p = rng.randint(-max_abs, max_abs)
        q = rng.randint(1, max_den)
        if (p, q) == (0, 0):
            continue
        if math.gcd(abs(p), q) != 1:
            continue
        return frac_normalize(p, q)


def random_tangle_diagram(rng: random.Random) -> TangleDiagram:
    """Random valid tangle diagram from small rational building blocks."""
    while True:
        t = from_rational(random_fraction(rng, 5, 4))
        for _ in range(rng.randint(0, 2)):
            u = from_rational(random_fraction(rng, 3, 3))
            t = tangle_sum(t, u) if rng.random() < 0.5 else tangle_product(t, u)
        if t.crossing_count <= 10 and validate(t) is None:
            return t


def cut_tangles(tool, rng: random.Random, count: int, lo: int, hi: int) -> list[TangleDiagram]:
    """``count`` valid tangles of lo to hi crossings, cut open from numerator
    closures of :func:`random_tangle_diagram` by the catalog search tool's
    ``all_cut_tangles``, at most three per closure.  Many are not
    rational tangles."""
    out = []
    while len(out) < count:
        L = close_numerator(random_tangle_diagram(rng))
        if lo <= L.crossing_count <= hi:
            cuts = list(tool.all_cut_tangles(L))
            out += rng.sample(cuts, min(3, len(cuts)))
    return out[:count]


def montesinos_sum(rng: random.Random, lo: int = 20, hi: int = 50) -> TangleDiagram:
    """Valid sum of 2-5 rational tangles p/q, |p| <= 12, 1 <= q <= 13, of
    lo to hi crossings."""
    while True:
        terms = [from_rational(random_fraction(rng, 12, 13)) for _ in range(rng.randint(2, 5))]
        t = tangle_sum(*terms)
        if lo <= t.crossing_count <= hi and validate(t) is None:
            return t


def add_kink(L: LinkDiagram, edge: int, variant: int = 0) -> LinkDiagram:
    """First Reidemeister move: insert a kink on the given edge."""
    fresh = max(x for c in L.crossings for x in c) + 1
    b, g = fresh, fresh + 1
    replaced = [False]
    rows = []
    for c in L.crossings:
        ports = []
        for x in c:
            if x == edge and not replaced[0]:
                replaced[0] = True
                ports.append(b)
            else:
                ports.append(x)
        rows.append(tuple(ports))
    if variant == 0:
        kink = (edge, b, g, g)
    else:
        kink = (edge, g, g, b)
    return LinkDiagram(crossings=tuple(rows) + (kink,), loops=L.loops)


def r2_pair_closure(t: TangleDiagram, closure: Fraction):
    """N(T + [1] + [-1] + closure): inserts a cancelling clasp pair."""
    from tanglekit.diagram import close_numerator

    padded = tangle_sum(tangle_sum(t, from_rational(Fraction(1, 1))),
                        from_rational(Fraction(-1, 1)))
    return close_numerator(tangle_sum(padded, from_rational(closure)))
