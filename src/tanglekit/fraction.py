"""Exact arithmetic of rational tangle fractions and their 2-bridge closures.

A rational tangle is classified up to strong equivalence by an extended
rational number p/q (Conway).  This module is the arithmetic home of those
symbols: the integral tangles [n] are n/1, the zero tangle is 0/1 and the
infinity tangle is 1/0.

Conventions fixed here and relied on by every other module:

* fractions are stored reduced, the denominator is >= 0, and the sign is
  carried by the numerator; infinity is canonically (1, 0);
* a 90 degree counterclockwise rotation of a tangle sends p/q to -q/p;
* mirroring sends p/q to -p/q (a 180 degree turn fixes rational tangles);
* ``continued_fraction`` produces the alternating twist vector
  [c_1, ..., c_m] with value c_m + 1/(c_(m-1) + ... + 1/c_1), all entries
  of one sign except that the final entry may be 0.  The diagram builder
  realizes c_1 as the innermost block and ends with a horizontal block.
"""

from __future__ import annotations

import math

from .value import Value, setfield


class Fraction(Value):
    """Reduced extended rational p/q with q >= 0; (1, 0) is infinity."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        if den < 0 or (den == 0 and num != 1):
            raise ValueError(f"non-canonical fraction ({num}, {den})")
        if den != 0 and math.gcd(abs(num), den) != 1:
            raise ValueError(f"fraction ({num}, {den}) is not reduced")
        setfield(self, "num", num)
        setfield(self, "den", den)

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    __repr__ = __str__


INFINITY = Fraction(1, 0)
ZERO = Fraction(0, 1)


def frac_normalize(p: int, q: int) -> Fraction:
    """Reduce (p, q), carrying the sign on the numerator.

    (p, 0) for any p != 0 normalizes to infinity; (0, 0) is rejected.
    """
    if p == 0 and q == 0:
        raise ValueError("(0, 0) does not represent a tangle fraction")
    if q == 0:
        return INFINITY
    if q < 0:
        p, q = -p, -q
    g = math.gcd(abs(p), q)
    return Fraction(p // g, q // g)


def frac_add_integral(f: Fraction, n: int) -> Fraction:
    """Fraction of the tangle sum with n horizontal twists: f + n.

    Infinity absorbs every integral summand.
    """
    return frac_normalize(f.num + n * f.den, f.den)


def frac_add(f: Fraction, g: Fraction) -> Fraction:
    """Numerical sum of extended rationals (inf + inf is rejected).

    This is plain arithmetic on fractions, used by the coloring-fraction
    additivity law.  It is *not* a statement that the tangle sum of two
    rational tangles is rational (it usually is not).
    """
    if f.is_infinite and g.is_infinite:
        raise ValueError("inf + inf is undefined")
    return frac_normalize(f.num * g.den + g.num * f.den, f.den * g.den)


def frac_rotate(f: Fraction) -> Fraction:
    """Fraction of the 90 degree rotation: -1/f.  An involution on values."""
    return frac_normalize(-f.den, f.num)


def frac_mirror(f: Fraction) -> Fraction:
    """Fraction of the mirror image: -f.  Fixes 0 and infinity."""
    if f.is_infinite:
        return f
    return Fraction(-f.num, f.den)


def frac_reciprocal(f: Fraction) -> Fraction:
    """1/f on extended rationals."""
    return frac_normalize(f.den, f.num)


def parse_fraction(text: str) -> Fraction:
    """Parse 'p/q', a bare integer, or 'inf'."""
    text = text.strip()
    if text in ("inf", "Inf", "INF", "oo"):
        return INFINITY
    if "/" in text:
        a, _, b = text.partition("/")
        return frac_normalize(int(a), int(b))
    return Fraction(int(text), 1)


def continued_fraction(f: Fraction) -> list[int]:
    """Twist vector [c_1, ..., c_m] with f = c_m + 1/(c_(m-1) + ... + 1/c_1).

    All entries share the sign of f except that the last may be 0 (proper
    fractions); interior entries are never 0.  Round-trips exactly through
    :func:`continued_fraction_value`.
    """
    if f.is_infinite:
        raise ValueError("infinity has no twist vector")
    p, q = abs(f.num), f.den
    outer_first = []
    while True:
        a, r = divmod(p, q)
        outer_first.append(a)
        if r == 0:
            break
        p, q = q, r
    entries = outer_first[::-1]
    if f.num < 0:
        entries = [-a for a in entries]
    return entries


def continued_fraction_value(entries: list[int]) -> Fraction:
    """Evaluate a twist vector: c_m + 1/(c_(m-1) + ... + 1/c_1)."""
    if not entries:
        raise ValueError("empty twist vector")
    p, q = entries[0], 1
    for c in entries[1:]:
        p, q = c * p + q, p
    return frac_normalize(p, q)


class TwoBridgeLink(Value):
    """Schubert normal form b(alpha, beta) of a 2-bridge link.

    alpha = 0 is the 2-component unlink (stored as b(0, 1)) and alpha = 1
    is the unknot (stored as b(1, 0)); otherwise 0 <= beta < alpha with
    gcd(alpha, beta) = 1.  The link has two components iff alpha is even.
    """

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: int, beta: int):
        if alpha == 0:
            ok = beta == 1
        elif alpha == 1:
            ok = beta == 0
        else:
            ok = 0 <= beta < alpha and math.gcd(alpha, beta) == 1
        if not ok:
            raise ValueError(f"b({alpha}, {beta}) is not in normal form")
        setfield(self, "alpha", alpha)
        setfield(self, "beta", beta)

    @property
    def components(self) -> int:
        return 2 if self.alpha % 2 == 0 else 1

    @property
    def is_unknot(self) -> bool:
        return self.alpha == 1

    @property
    def is_two_unlink(self) -> bool:
        return self.alpha == 0

    def __str__(self) -> str:
        return f"b({self.alpha},{self.beta})"


def numerator_two_bridge(f: Fraction) -> TwoBridgeLink:
    """Numerator closure of the rational tangle f = p/q as a 2-bridge link.

    N(p/q) = b(|p|, q*sign(p) mod |p|); the denominator closure is obtained
    by rotating first: D(f) = numerator_two_bridge(frac_rotate(f)).
    """
    p, q = f.num, f.den
    alpha = abs(p)
    if alpha == 0:
        return TwoBridgeLink(0, 1)
    if alpha == 1:
        return TwoBridgeLink(1, 0)
    beta = (q if p > 0 else -q) % alpha
    return TwoBridgeLink(alpha, beta)


def two_bridge_equivalent(a: TwoBridgeLink, b: TwoBridgeLink) -> bool:
    """Schubert-style equivalence predicate used by test oracles.

    Same alpha, and beta' = beta or beta*beta' = +-1 (mod alpha).
    """
    if a.alpha != b.alpha:
        return False
    if a.beta == b.beta:
        return True
    if a.alpha <= 1:
        return True
    return (a.beta * b.beta) % a.alpha in (1 % a.alpha, (-1) % a.alpha)


class RationalClosureVerdict:
    __slots__ = ("unknot", "unlink", "split")

    def __init__(self, unknot: bool, unlink: bool, split: bool):
        self.unknot = unknot
        self.unlink = unlink
        self.split = split


def rational_closure_verdict(t: Fraction, u: Fraction) -> RationalClosureVerdict:
    """Decide N(t + u) for rational t = p/q, u = r/s.

    N(t + u) is the 2-bridge link with alpha = |p*s + r*q|: the unknot iff
    alpha = 1, and the 2-component unlink (hence split) iff alpha = 0.
    """
    alpha = abs(t.num * u.den + u.num * t.den)
    return RationalClosureVerdict(unknot=alpha == 1, unlink=alpha == 0, split=alpha == 0)


def unknotting_closure(f: Fraction) -> Fraction:
    """A canonical rational closure u with N(f + u) the unknot.

    For a rational tangle every u = r/s with |p*s + r*q| = 1 works; the
    canonical representative minimizes (s, |r|).  Rational tangles have
    infinitely many unknotting closures, so this choice is cosmetic.
    """
    p, q = f.num, f.den
    best = None
    # p*s + r*q = +-1 with s >= 0; s can be searched mod q (mod |p| if q = 0).
    bound = max(q, abs(p), 1)
    for s in range(0, bound + 1):
        for target in (1, -1):
            rest = target - p * s
            if q == 0:
                if rest != 0:
                    continue
                r = 0
            else:
                if rest % q != 0:
                    continue
                r = rest // q
            cand = (s, abs(r))
            if best is None or cand < best[0]:
                best = (cand, frac_normalize(r, s) if (r, s) != (0, 0) else None)
    if best is None or best[1] is None:
        raise ValueError(f"no unknotting closure for {f}")
    return best[1]
