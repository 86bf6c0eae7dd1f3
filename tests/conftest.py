import random

import pytest

from tanglekit.diagram import (
    Crossing,
    LinkDiagram,
    TangleDiagram,
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


def dense(rows: list[dict[int, int]], ncols: int) -> list[list[int]]:
    """Sparse ``{column: value}`` rows as a dense matrix."""
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


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


def add_kink(L: LinkDiagram, edge: int, variant: int = 0) -> LinkDiagram:
    """First Reidemeister move: insert a kink on the given edge."""
    fresh = max(x for c in L.crossings for x in c.ports) + 1
    b, g = fresh, fresh + 1
    replaced = [False]
    rows = []
    for c in L.crossings:
        ports = []
        for x in c.ports:
            if x == edge and not replaced[0]:
                replaced[0] = True
                ports.append(b)
            else:
                ports.append(x)
        rows.append(Crossing(tuple(ports)))
    if variant == 0:
        kink = Crossing((edge, b, g, g))
    else:
        kink = Crossing((edge, g, g, b))
    return LinkDiagram(crossings=tuple(rows) + (kink,), loops=L.loops)


def r2_pair_closure(t: TangleDiagram, closure: Fraction):
    """N(T + [1] + [-1] + closure): inserts a cancelling clasp pair."""
    from tanglekit.diagram import close_numerator

    padded = tangle_sum(tangle_sum(t, from_rational(Fraction(1, 1))),
                        from_rational(Fraction(-1, 1)))
    return close_numerator(tangle_sum(padded, from_rational(closure)))
