"""Seeded input generators for the benchmark workloads.

Pure Python with no tanglekit import: the program under test sees only
what these functions return.  Each generator follows a fixed schedule of
input sizes (crossing counts, expression shapes, term magnitudes) and
draws only the details from the seed, so runs with different seeds do
the same amount of work and their figures can be compared.

Each generator is an endless stream, so that a run never has to use an
input twice however fast the program gets.  The closure and coloring
streams never yield the same input twice; they raise InputsExhausted
rather than loop for ever when MAX_DRAWS draws in a row find nothing new.
``make_inputs`` gives the first batch of a stream, the one a worker
builds at set-up, and its digest identifies the stream.

End patterns.  A 2-string tangle without closed circles joins its four
ends NW, NE, SW, SE in one of three pairings, named by the end that NW
is joined to: "NE" (the pattern of [0]), "SW" (of [inf]) and "SE" (of
[1]).  The rational tangle p/q has pattern NE when p is even, SW when q
is even, and SE when both are odd.  Tracking patterns through sums and
products tells, without building a diagram, whether a gluing closes a
circle and how many components a numerator closure has.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction as QQ
from typing import Iterator

WORKLOADS = ("reproduce", "closures", "colorings", "algebra")

# The argv of one reproduce op, after ``python -m tanglekit.cli``.
REPRODUCE_ARGV = ["--format", "json", "reproduce"]

# The 23 catalog names, kept here so that the algebra generator does not
# read the program's catalog.
CATALOG_NAMES = (
    "5_1", "6_1", "6_2", "6_3", "6_4", "7_1", "7_2", "7_3", "7_4", "7_5",
    "7_6", "7_7", "7_8", "7_9", "7_10", "7_11", "7_12", "7_13", "7_14",
    "7_15", "7_16", "7_17", "7_18",
)

CLOSURE_CROSSINGS = (10, 11, 12, 13, 14)
COLORING_CROSSINGS = tuple(range(20, 51))
# inputs built at set-up; further ones are built during the run
CLOSURE_INPUTS = 500
COLORING_INPUTS = 1550
ALGEBRA_INPUTS = 16384
# draws in a row that find no new input before a stream gives up
MAX_DRAWS = 100_000
ALGEBRA_SHAPES = ("sum", "sum_times", "ref_plus", "mirror_rot_ref_times")
# Every ALGEBRA_LARGE_EVERY-th slot of each shape carries one leaf with a
# 4-5 digit term; the sizes sweep 10^3..10^5 log-evenly over
# ALGEBRA_LARGE_STEPS large ops.
ALGEBRA_LARGE_EVERY = 4
ALGEBRA_LARGE_STEPS = 64


class InputsExhausted(RuntimeError):
    """A stream found no new input in MAX_DRAWS draws."""


def _draws(name: str):
    """Count draws since the last input found; raise after MAX_DRAWS."""
    for _ in range(MAX_DRAWS):
        yield
    raise InputsExhausted(f"no new {name} input in {MAX_DRAWS} draws")


def crossings(p: int, q: int) -> int:
    """Crossing count of the rational tangle p/q: the sum of its partial
    quotients, as the twist-vector realization draws it."""
    a, b, total = abs(p), q, 0
    while b:
        total += a // b
        a, b = b, a % b
    return total


def pattern(p: int, q: int) -> str:
    if p % 2 == 0:
        return "NE"
    if q % 2 == 0:
        return "SW"
    return "SE"


_PAIRS = {"NE": (("NW", "NE"), ("SW", "SE")),
          "SW": (("NW", "SW"), ("NE", "SE")),
          "SE": (("NW", "SE"), ("NE", "SW"))}
# Quarter turn counterclockwise: the end at NE moves to NW, and so on.
_ROTATE = {"NE": "SW", "SW": "NE", "SE": "SE"}


def _glue(left: str, right: str, joins, outer) -> str | None:
    """Pattern of two tangles glued along ``joins``; None if a circle closes.

    Ends of the left tangle are named ``("l", label)``, of the right one
    ``("r", label)``; ``outer`` maps each label of the result to its end.
    """
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    for side, pat in (("l", left), ("r", right)):
        for a, b in _PAIRS[pat]:
            union((side, a), (side, b))
    for a, b in joins:
        union(a, b)
    roots = {find(end) for end in outer.values()}
    if len(roots) != 2:
        return None
    glued = {find(("l", a)) for a in ("NW", "NE", "SW", "SE")}
    glued |= {find(("r", a)) for a in ("NW", "NE", "SW", "SE")}
    if glued - roots:
        return None
    nw = find(outer["NW"])
    return next(lab for lab in ("NE", "SW", "SE") if find(outer[lab]) == nw)


def sum_pattern(left: str, right: str) -> str | None:
    """Pattern of the sum (right glued east of left), None if it closes a circle."""
    return _glue(left, right, [(("l", "NE"), ("r", "NW")), (("l", "SE"), ("r", "SW"))],
                 {"NW": ("l", "NW"), "SW": ("l", "SW"),
                  "NE": ("r", "NE"), "SE": ("r", "SE")})


def product_pattern(top: str, bottom: str) -> str:
    """Pattern of the product (bottom glued south of top).  Like the
    diagram realization, the top factor is turned a quarter at a time
    until the gluing closes no circle; two turns always suffice."""
    for _ in range(4):
        out = _glue(top, bottom, [(("l", "SW"), ("r", "NW")), (("l", "SE"), ("r", "NE"))],
                    {"NW": ("l", "NW"), "NE": ("l", "NE"),
                     "SW": ("r", "SW"), "SE": ("r", "SE")})
        if out is not None:
            return out
        top = _ROTATE[top]
    raise AssertionError("no quarter turn realizes the product")


def leaf_text(p: int, q: int) -> str:
    return f"[{p}/{q}]" if q != 1 else f"[{p}]"


def _rationals(max_term: int, min_den: int, max_crossings: int) -> dict[int, list]:
    """Reduced p/q, p != 0, with terms up to max_term, grouped by crossings."""
    pool: dict[int, list] = {}
    for q in range(min_den, max_term + 1):
        for p in range(-max_term, max_term + 1):
            if p == 0 or math.gcd(p, q) != 1:
                continue
            c = crossings(p, q)
            if 1 <= c <= max_crossings:
                pool.setdefault(c, []).append((p, q))
    return pool


def closure_stream(seed: int) -> Iterator[dict]:
    """Numerator closures N(T + [r/s]) of 10-14 crossings, all distinct.

    T is a sum or product of 2-4 rational tangles of 1-4 crossings.
    Input i has CLOSURE_CROSSINGS[i % 5] crossings and 1 + (i // 5) % 2
    components, as the end patterns predict.
    """
    rng = random.Random(f"closures/{seed}")
    pool = _rationals(9, 1, 4)
    leaves = [pq for c in sorted(pool) for pq in pool[c]]
    seen = set()
    for i in itertools.count():
        target = CLOSURE_CROSSINGS[i % len(CLOSURE_CROSSINGS)]
        components = 1 + i // len(CLOSURE_CROSSINGS) % 2
        for _ in _draws("closure"):  # raises when the draws run out
            x = _draw_closure(rng, leaves, target, components, seen)
            if x is not None:
                break
        seen.add((x["tangle"], *x["closure"]))
        yield x


def _draw_closure(rng, leaves, target: int, components: int, seen) -> dict | None:
    """One draw of a closure input; None if it misses the target or repeats."""
    n = rng.randint(2, 4)
    parts = [rng.choice(leaves) for _ in range(n)]
    r, s = rng.choice(leaves)
    if sum(crossings(*pq) for pq in parts) + crossings(r, s) != target:
        return None
    text, pat = leaf_text(*parts[0]), pattern(*parts[0])
    for pq in parts[1:]:
        if rng.random() < 0.5:
            pat = sum_pattern(pat, pattern(*pq))
            op = " + "
        else:
            pat = product_pattern(pat, pattern(*pq))
            op = " * "
        if pat is None:
            break
        text = f"({text}{op}{leaf_text(*pq)})"
    if pat is None:
        return None
    closed = sum_pattern(pat, pattern(r, s))
    if closed is None or (closed == "NE") != (components == 2) or (text, r, s) in seen:
        return None
    return {"tangle": text, "closure": [r, s], "crossings": target,
            "components": components}


def coloring_stream(seed: int) -> Iterator[dict]:
    """Sums of 2-5 rational tangles p_i/q_i with q_i >= 2 and 20-50
    crossings, all distinct.

    Input i has COLORING_CROSSINGS[i % 31] crossings.  Sums whose ends
    would close a circle are drawn again.
    """
    rng = random.Random(f"colorings/{seed}")
    pool = _rationals(40, 2, 46)
    seen = set()
    for i in itertools.count():
        target = COLORING_CROSSINGS[i % len(COLORING_CROSSINGS)]
        for _ in _draws("coloring"):  # raises when the draws run out
            parts = _draw_coloring(rng, pool, target)
            if parts is not None and tuple(parts) not in seen:
                break
        seen.add(tuple(parts))
        yield {"summands": parts, "crossings": target}


def _draw_coloring(rng, pool, target: int) -> list | None:
    """Summands of one draw; None if it misses the target or closes a circle."""
    n = rng.randint(2, 5)
    parts, left = [], target
    for k in range(n - 1, -1, -1):
        # leave at least 2 crossings for each summand still to draw
        c = left if k == 0 else rng.randint(2, left - 2 * k)
        if c not in pool:
            return None
        parts.append(rng.choice(pool[c]))
        left -= c
    pat = pattern(*parts[0])
    for pq in parts[1:]:
        pat = sum_pattern(pat, pattern(*pq)) if pat else None
    return parts if pat is not None else None


def _coprime_partner(rng: random.Random, q: int, lo: int, hi: int) -> int:
    while True:
        p = rng.randint(lo, hi)
        if p != 0 and math.gcd(p, q) == 1:
            return p


def algebra_stream(seed: int) -> Iterator[dict]:
    """Expressions for ``parse_expr`` plus ``evaluate``.

    Input i has shape ALGEBRA_SHAPES[i % 4]; sums have two terms in even
    slots i // 4 and three in odd ones.  Small leaves have terms up to
    12.  In every ALGEBRA_LARGE_EVERY-th input of a shape one leaf has a
    4-5 digit denominator.  ``sum_leaves`` lists the leaves of pure sums
    of rationals, for the determinant check.
    """
    rng = random.Random(f"algebra/{seed}")
    large_ops = 0
    for i in itertools.count():
        shape = ALGEBRA_SHAPES[i % len(ALGEBRA_SHAPES)]
        slot = i // len(ALGEBRA_SHAPES)
        n = {"sum": 2 + slot % 2, "sum_times": 3}.get(shape, 1)
        leaves = []
        for _ in range(n):
            q = rng.randint(2, 12)
            leaves.append((_coprime_partner(rng, q, -12, 12), q))
        if slot % ALGEBRA_LARGE_EVERY == 0:
            step = large_ops % ALGEBRA_LARGE_STEPS
            large_ops += 1
            size = round(1000 * 100 ** ((step + 0.5) / ALGEBRA_LARGE_STEPS))
            q = rng.randint(size, size + size // 50)
            leaves[rng.randrange(n)] = (_coprime_partner(rng, q, -q + 1, q - 1), q)
        texts = [leaf_text(*pq) for pq in leaves]
        if shape == "sum":
            text = " + ".join(texts)
        elif shape == "sum_times":
            text = f"({texts[0]} + {texts[1]}) * {texts[2]}"
        elif shape == "ref_plus":
            text = f"@{rng.choice(CATALOG_NAMES)} + {texts[0]}"
        else:
            text = f"mirror(rot(@{rng.choice(CATALOG_NAMES)})) * {texts[0]}"
        yield {"expr": text,
               "sum_leaves": [list(pq) for pq in leaves] if shape == "sum" else None}


STREAMS = {"closures": (closure_stream, CLOSURE_INPUTS),
           "colorings": (coloring_stream, COLORING_INPUTS),
           "algebra": (algebra_stream, ALGEBRA_INPUTS)}


def input_stream(workload: str, seed: int) -> Iterator:
    """The workload's endless input stream; every reproduce op runs the same argv."""
    if workload == "reproduce":
        return itertools.repeat(REPRODUCE_ARGV)
    if workload in STREAMS:
        return STREAMS[workload][0](seed)
    raise ValueError(f"unknown workload {workload!r}")


def first_batch(workload: str) -> int:
    """Number of inputs a worker builds at set-up."""
    return STREAMS[workload][1] if workload in STREAMS else 1


def make_inputs(workload: str, seed: int, count: int | None = None) -> list:
    """The first ``count`` inputs of the stream, by default the set-up batch."""
    count = first_batch(workload) if count is None else count
    return list(itertools.islice(input_stream(workload, seed), count))


def digest(inputs) -> str:
    """SHA-256 of the inputs in canonical JSON."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# references for the output checks: closed forms, not tanglekit

def montesinos_dets(leaves) -> tuple[int, int]:
    """det N and det D of the sum of rational tangles p_i/q_i:
    |sum_i p_i prod_{j != i} q_j| and prod_i q_i."""
    num = sum(p * math.prod(q for k, (_, q) in enumerate(leaves) if k != i)
              for i, (p, _) in enumerate(leaves))
    return abs(num), abs(math.prod(q for _, q in leaves))


def fraction_sum(leaves) -> QQ:
    return sum((QQ(p, q) for p, q in leaves), QQ(0))


def gaussian_value(coeffs, power_of_i: bool) -> tuple[int, int]:
    """Sum of c * x^e over (e, c) at x = i (power_of_i) or at x = 1."""
    if not power_of_i:
        return sum(c for _, c in coeffs), 0
    re = im = 0
    for e, c in coeffs:
        k = e % 4
        if k == 0:
            re += c
        elif k == 1:
            im += c
        elif k == 2:
            re -= c
        else:
            im -= c
    return re, im
