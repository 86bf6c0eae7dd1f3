"""Slow reference implementations that the fast library paths are tested
against."""

from tanglekit.diagram import LinkDiagram
from tanglekit.laurent import LaurentPoly


def state_sum_bracket(d: LinkDiagram) -> LaurentPoly:
    """Kauffman bracket as the plain sum over all 2^k smoothings.

    Each state smooths crossing i by A (slots 0-1, 2-3) or B (slots 0-3,
    1-2) and counts its circles with a union-find over the edges.
    """
    k = d.crossing_count
    if k == 0 and d.loops == 0:
        raise ValueError("bracket of the empty diagram is undefined")

    a_pairs = []
    b_pairs = []
    for c in d.crossings:
        p = c.ports
        a_pairs.append(((p[0], p[1]), (p[2], p[3])))
        b_pairs.append(((p[0], p[3]), (p[1], p[2])))

    edges = sorted({e for c in d.crossings for e in c.ports})
    index = {e: i for i, e in enumerate(edges)}
    ne = len(edges)
    delta = LaurentPoly.make("A", {2: -1, -2: -1})

    # Group states by (a - b, loop count): exponents of A and delta.
    tally: dict[tuple[int, int], int] = {}
    for state in range(1 << k):
        parent = list(range(ne))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        a_count = 0
        for ci in range(k):
            if state >> ci & 1:
                pairs = b_pairs[ci]
            else:
                pairs = a_pairs[ci]
                a_count += 1
            for u, v in pairs:
                ru, rv = find(index[u]), find(index[v])
                if ru != rv:
                    parent[ru] = rv
        circles = len({find(i) for i in range(ne)}) + d.loops
        key = (2 * a_count - k, circles)
        tally[key] = tally.get(key, 0) + 1

    total = LaurentPoly.zero("A")
    for (a_exp, circles), mult in tally.items():
        term = (delta ** (circles - 1)).shift(a_exp).scale(mult)
        total = total + term
    return total
