"""Sparse Laurent polynomials with exact integer coefficients.

Two variable tags are used: ``A`` for bracket polynomials (integer
exponents of A) and ``sqrt_t`` for Jones polynomials, whose exponents are
half-integer powers of t stored doubled, so the stored exponent e means
t^(e/2).  Zero coefficients are never stored.
"""

from __future__ import annotations

from .value import Value, setfield


class LaurentPoly(Value):
    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: tuple[tuple[int, int], ...]):
        setfield(self, "var", var)
        setfield(self, "coeffs", coeffs)  # sorted (exponent, coefficient)

    def _key(self):
        return self.var, self.coeffs

    @classmethod
    def make(cls, var: str, terms: dict[int, int]) -> "LaurentPoly":
        clean = {e: c for e, c in terms.items() if c != 0}
        return cls(var=var, coeffs=tuple(sorted(clean.items())))

    @classmethod
    def zero(cls, var: str) -> "LaurentPoly":
        return cls.make(var, {})

    @classmethod
    def one(cls, var: str) -> "LaurentPoly":
        return cls.make(var, {0: 1})

    def _check(self, other: "LaurentPoly"):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        terms = dict(self.coeffs)
        for e, c in other.coeffs:
            terms[e] = terms.get(e, 0) + c
        return LaurentPoly.make(self.var, terms)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.var, tuple((e, -c) for e, c in self.coeffs))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        terms: dict[int, int] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                terms[e1 + e2] = terms.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly.make(self.var, terms)

    def scale(self, k: int) -> "LaurentPoly":
        return LaurentPoly.make(self.var, {e: k * c for e, c in self.coeffs})

    def shift(self, delta: int) -> "LaurentPoly":
        """Multiply by var^delta."""
        return LaurentPoly(self.var, tuple((e + delta, c) for e, c in self.coeffs))

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not supported")
        out = LaurentPoly.one(self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def substitute_gaussian(self, re, im):
        """Evaluate at var = re + im*i, for re and im of
        ``fractions.Fraction``; returns the real and imaginary parts."""
        from fractions import Fraction as QQ

        vr, vi = QQ(0), QQ(0)
        for e, c in self.coeffs:
            pr, pi = _gauss_pow(re, im, e)
            vr += c * pr
            vi += c * pi
        return vr, vi

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.coeffs:
            parts.append(f"{c}*{self._power_str(e)}")
        return " + ".join(parts)

    def _power_str(self, e: int) -> str:
        if self.var == "sqrt_t":
            if e % 2 == 0:
                return f"t^{e // 2}"
            return f"t^({e}/2)"
        return f"{self.var}^{e}"

    __repr__ = __str__


def _gauss_pow(re, im, e: int):
    if e < 0:
        norm = re * re + im * im
        if norm == 0:
            raise ZeroDivisionError("evaluation at 0 with negative exponent")
        re, im = re / norm, -im / norm
        e = -e
    pr, pi = 1, 0
    br, bi = re, im
    while e:
        if e & 1:
            pr, pi = pr * br - pi * bi, pr * bi + pi * br
        br, bi = br * br - bi * bi, 2 * br * bi
        e >>= 1
    return pr, pi
