"""Algebraic tangle expressions and the embedding verdict engine.

Expressions are trees over rational leaves with tangle sum, product
(second factor glued below the first), 90 degree counterclockwise
rotation, mirror, and named references into a catalog.  The engine
decides, where its criteria apply, whether the denoted tangle is
unknottable, unlinkable or splittable, each answer carrying either the
(unique, for essential tangles) rational closure tangle or an obstruction
reason; anything outside the criteria is reported Unknown, never guessed.

Criteria implemented:

* a rational tangle is unknottable, unlinkable and splittable;
* a sum of two rational tangles with denominators > 1 is unknottable iff
  p1*q2 + p2*q1 = +-1 mod q1*q2 (closure the unique integral [p] with
  p1*q2 + p2*q1 + p*q1*q2 = +-1), unlinkable iff q1 = q2 and
  p1 + p2 = 0 mod q1 (closure [-(p1+p2)/q1]), and splittable iff
  unlinkable; sums of three or more are none of the three;
* for an essential tangle with known closure r/s, the sum with [p/q] has
  a closure iff q = 1 (new closure r/s - p) or q = s and p = r mod q
  (new closure [(r-p)/s]); the product version is the image of the sum
  version under rotation, which sends closures r/s to -s/r;
* a decomposition piece of an unknottable tangle is unknottable, and the
  analogous pruning rules for unlinkable/splittable;
* for a side-by-side union: unknottable iff both pieces are, unlinkable
  iff each piece is unlinkable or unknottable, splittable always.

The unlinkable/splittable clauses of the extension criteria mirror the
unknottable congruences with the corresponding closure; evidence logs
mark them as derived rather than independently stated.
"""

from __future__ import annotations

import re

from .fraction import (
    Fraction,
    frac_add_integral,
    frac_mirror,
    frac_normalize,
    frac_rotate,
    unknotting_closure,
)
from .value import Value, setfield

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


class Verdict(Value):
    """One of the three embedding answers for one property."""

    __slots__ = ("status", "closure", "reason")

    def __init__(self, status: str, closure: Fraction | None = None,
                 reason: str | None = None):
        setfield(self, "status", status)
        setfield(self, "closure", closure)
        setfield(self, "reason", reason)

    @classmethod
    def yes(cls, closure: Fraction | None = None) -> "Verdict":
        return cls(status=YES, closure=closure)

    @classmethod
    def no(cls, reason: str) -> "Verdict":
        return cls(status=NO, reason=reason)

    @classmethod
    def unknown(cls, reason: str | None = None) -> "Verdict":
        return cls(status=UNKNOWN, reason=reason)

    @property
    def is_yes(self) -> bool:
        return self.status == YES

    @property
    def is_no(self) -> bool:
        return self.status == NO

    def __str__(self) -> str:
        if self.is_yes:
            return f"yes({self.closure})" if self.closure is not None else "yes"
        if self.is_no:
            return f"no ({self.reason})"
        return "unknown" + (f" ({self.reason})" if self.reason else "")


class VerdictConsistencyError(AssertionError):
    pass


class EmbedVerdict(Value):
    __slots__ = ("unknottable", "unlinkable", "splittable")

    def __init__(self, unknottable: Verdict, unlinkable: Verdict, splittable: Verdict):
        if unlinkable.is_yes and not splittable.is_yes:
            raise VerdictConsistencyError("unlinkable tangles are splittable")
        setfield(self, "unknottable", unknottable)
        setfield(self, "unlinkable", unlinkable)
        setfield(self, "splittable", splittable)

    def transform_closures(self, fn) -> "EmbedVerdict":
        def t(v: Verdict) -> Verdict:
            if v.is_yes and v.closure is not None:
                return Verdict.yes(fn(v.closure))
            return v

        return EmbedVerdict(t(self.unknottable), t(self.unlinkable), t(self.splittable))

    def __str__(self) -> str:
        return (f"unknottable: {self.unknottable}; unlinkable: {self.unlinkable}; "
                f"splittable: {self.splittable}")


def make_verdict(unknottable: Verdict, unlinkable: Verdict,
                 splittable: Verdict | None = None) -> EmbedVerdict:
    """Assemble an EmbedVerdict, deriving splittable=yes from unlinkable=yes."""
    if splittable is None or (unlinkable.is_yes and not splittable.is_yes):
        splittable = Verdict.yes(unlinkable.closure) if unlinkable.is_yes else (
            splittable or Verdict.unknown())
    return EmbedVerdict(unknottable, unlinkable, splittable)


# ---------------------------------------------------------------------------
# expression trees

class RationalLeaf(Value):
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        setfield(self, "value", value)


class Sum(Value):
    __slots__ = ("left", "right")

    def __init__(self, left: "TangleExpr", right: "TangleExpr"):
        setfield(self, "left", left)
        setfield(self, "right", right)


class Product(Value):
    __slots__ = ("top", "bottom")

    def __init__(self, top: "TangleExpr", bottom: "TangleExpr"):
        setfield(self, "top", top)
        setfield(self, "bottom", bottom)


class Rotate(Value):
    __slots__ = ("child",)

    def __init__(self, child: "TangleExpr"):
        setfield(self, "child", child)


class Mirror(Value):
    __slots__ = ("child",)

    def __init__(self, child: "TangleExpr"):
        setfield(self, "child", child)


class NamedRef(Value):
    __slots__ = ("name",)

    def __init__(self, name: str):
        setfield(self, "name", name)


TangleExpr = RationalLeaf | Sum | Product | Rotate | Mirror | NamedRef


def expr_text(e: TangleExpr) -> str:
    if isinstance(e, RationalLeaf):
        return f"[{e.value}]" if e.value.is_integral else str(e.value)
    if isinstance(e, Sum):
        return f"{expr_text(e.left)} + {expr_text(e.right)}"
    if isinstance(e, Product):
        def wrap(x):
            t = expr_text(x)
            return f"({t})" if isinstance(x, (Sum, Product)) else t
        return f"{wrap(e.top)} * {wrap(e.bottom)}"
    if isinstance(e, Rotate):
        return f"rot({expr_text(e.child)})"
    if isinstance(e, Mirror):
        return f"mirror({expr_text(e.child)})"
    if isinstance(e, NamedRef):
        return f"@{e.name}"
    raise TypeError(f"not an expression: {e!r}")


def referenced_names(e: TangleExpr) -> set[str]:
    """The catalog names an expression refers to with @name."""
    names: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, NamedRef):
            names.add(node.name)
        elif isinstance(node, Sum):
            stack += [node.left, node.right]
        elif isinstance(node, Product):
            stack += [node.top, node.bottom]
        elif isinstance(node, (Rotate, Mirror)):
            stack.append(node.child)
    return names


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"\s*(?:(?P<int>-?\d+)|(?P<name>@[A-Za-z0-9_]+)"
                    r"|(?P<word>rot|mirror|inf)|(?P<sym>[][()+*/]))")


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", pos)
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


# the groups an expression opens, with the node each one wraps its chain in
_GROUPS = {"(": lambda e: e, "rot": Rotate, "mirror": Mirror}


def parse_expr(text: str) -> TangleExpr:
    """Parse the expression grammar.

    Atoms: ``[p/q]``, bare ``p/q``, integers, ``inf``, ``rot(...)``,
    ``mirror(...)``, ``@name`` and parenthesized expressions.  ``+`` and
    ``*`` chain left-associatively but may not be mixed without
    parentheses.  One loop reads the tokens; each open group waits on a
    stack with the chain it interrupted, so nesting costs no recursion.
    """
    tokens = _tokenize(text)
    i = 0

    def take(expected):
        nonlocal i
        kind, val, pos = tokens[i]
        if val != expected:
            raise ExprSyntaxError(f"expected {expected!r}, found {val or 'end'!r}", pos)
        i += 1

    def number(kind, val, pos):
        """The fraction whose numerator is the token just read."""
        nonlocal i
        if kind != "int":
            raise ExprSyntaxError(f"expected a number, found {val or 'end'!r}", pos)
        num = int(val)
        if tokens[i][1] != "/":
            return Fraction(num, 1)
        kind, val, pos = tokens[i + 1]
        if kind != "int":
            raise ExprSyntaxError("expected a denominator", pos)
        i += 2
        return frac_normalize(num, int(val))

    groups = []          # (wrapper, chain, operator) of each open group
    node = op = None     # the chain being read and its operator
    while True:
        kind, val, pos = tokens[i]
        i += 1
        if val in _GROUPS:
            if val != "(":
                take("(")
            groups.append((_GROUPS[val], node, op))
            node = op = None
            continue
        if val == "[":
            kind, val, pos = tokens[i]
            i += 1
            atom = RationalLeaf(Fraction(1, 0) if val == "inf" else number(kind, val, pos))
            take("]")
        elif val == "inf":
            atom = RationalLeaf(Fraction(1, 0))
        elif kind == "name":
            atom = NamedRef(val[1:])
        elif kind == "int":
            atom = RationalLeaf(number(kind, val, pos))
        else:
            raise ExprSyntaxError(f"expected an atom, found {val or 'end'!r}", pos)
        # the atom ends a term of the chain, and perhaps groups
        while True:
            node = atom if node is None else (Sum if op == "+" else Product)(node, atom)
            kind, val, pos = tokens[i]
            if val in ("+", "*"):
                if op not in (None, val):
                    raise ExprSyntaxError("mixed + and * need explicit parentheses", pos)
                op = val
                i += 1
                break
            if not groups:
                if kind != "end":
                    raise ExprSyntaxError(f"trailing input {val!r}", pos)
                return node
            take(")")
            wrap, outer, op = groups.pop()
            atom, node = wrap(node), outer


# ---------------------------------------------------------------------------
# the criteria

def montesinos_verdict(fractions: list[Fraction]) -> EmbedVerdict:
    """Verdicts for the sum [p1/q1] + ... + [pn/qn], all q_i > 1, n >= 2.

    Three or more summands are never unknottable, unlinkable or
    splittable.  For n = 2 the congruence criteria apply and the closure,
    when it exists, is the unique integral tangle balancing the double
    branched cover.
    """
    if len(fractions) < 2:
        raise ValueError("a rational-sum list needs at least two entries")
    for f in fractions:
        if f.is_infinite or f.den <= 1:
            raise ValueError(f"summand {f} has denominator <= 1; absorb integral "
                             "parts before dispatching")
    if len(fractions) > 2:
        reason = "three or more rational summands: covering space is irreducible"
        return make_verdict(Verdict.no(reason), Verdict.no(reason), Verdict.no(reason))
    (p1, q1), (p2, q2) = (fractions[0].num, fractions[0].den), (fractions[1].num, fractions[1].den)
    s = p1 * q2 + p2 * q1
    m = q1 * q2
    hits = [t for t in (1, -1) if (t - s) % m == 0]
    if len(hits) > 1:
        raise AssertionError("both congruence signs fired; q1*q2 >= 4 forbids this")
    if hits:
        p = (hits[0] - s) // m
        unknot = Verdict.yes(Fraction(p, 1))
    else:
        unknot = Verdict.no(f"p1*q2 + p2*q1 = {s} is not +-1 mod {m}")
    if q1 == q2 and (p1 + p2) % q1 == 0:
        unlink = Verdict.yes(Fraction(-(p1 + p2) // q1, 1))
    elif q1 != q2:
        unlink = Verdict.no(f"denominators differ: {q1} != {q2}")
    else:
        unlink = Verdict.no(f"p1 + p2 = {p1 + p2} is not 0 mod {q1}")
    split = Verdict.yes(unlink.closure) if unlink.is_yes else Verdict.no(
        "splittable iff unlinkable for sums of two rationals: " + unlink.reason)
    return EmbedVerdict(unknot, unlink, split)


def extend_sum_verdict(closure: Fraction, added: Fraction) -> Verdict:
    """Does T + [p/q] keep a closure, given essential T with closure r/s?

    Yes iff q = 1 (new closure r/s - p) or q = s and p = r mod q (new
    closure the integer [(r - p)/q]).  The same congruence serves the
    unknotting, unlinking and splitting closures.
    """
    if added.is_infinite:
        return Verdict.unknown("adding the infinity tangle is not covered")
    p, q = added.num, added.den
    r, s = closure.num, closure.den
    if q == 1:
        return Verdict.yes(frac_add_integral(closure, -p))
    if q == s and (p - r) % q == 0:
        return Verdict.yes(Fraction((r - p) // q, 1))
    return Verdict.no(f"q = {q} is neither 1 nor matching the closure "
                      f"denominator {s} with p = r mod q")


def extend_product_verdict(closure: Fraction, factor: Fraction) -> Verdict:
    """Does T * [p/q] keep a closure, given essential T with closure r/s?

    Rotating 90 degrees carries T * [p/q] to T-rotated + [-q/p] and the
    closure r/s to -s/r, so this is the sum criterion conjugated by
    rotation; a resulting closure rotates back.
    """
    inner = extend_sum_verdict(frac_rotate(closure), frac_rotate(factor))
    if inner.is_yes:
        return Verdict.yes(frac_rotate(inner.closure))
    return inner


def three_factor_verdict(f1: Fraction, f2: Fraction, f3: Fraction) -> EmbedVerdict:
    """Verdicts for ([f1] + [f2]) * [f3] with q1, q2 != 1 and p3 != 1.

    The sum part must have a closure equal to an integral tangle that the
    product criterion accepts; otherwise the piece obstruction already
    kills the whole (a decomposition factor of an unknottable tangle is
    unknottable, and likewise for the other properties).
    """
    for f in (f1, f2):
        if f.is_infinite or f.den == 1:
            raise ValueError(f"three-factor needs non-integral summands, got {f}")
    if f3.num == 1:
        raise ValueError("three-factor needs p3 != 1; fold the product instead")
    base = montesinos_verdict([f1, f2])

    def extend(v: Verdict, label: str) -> Verdict:
        if v.is_no:
            return Verdict.no(f"sum factor is not {label}: {v.reason}")
        out = extend_product_verdict(v.closure, f3)
        if out.is_no:
            return Verdict.no(f"{label} closure {v.closure} of the sum is not "
                              f"compatible with the factor {f3}: {out.reason}")
        return out

    unknot = extend(base.unknottable, "unknottable")
    unlink = extend(base.unlinkable, "unlinkable")
    split = extend(base.splittable, "splittable")
    return make_verdict(unknot, unlink, split)


def union_verdict(v1: EmbedVerdict, v2: EmbedVerdict) -> EmbedVerdict:
    """Verdicts for a side-by-side union of two tangles.

    The union is unknottable iff both pieces are; unlinkable iff each
    piece is unlinkable or unknottable; and always splittable.  Union
    closures are not rational tangles, so yes answers carry no closure.
    """
    if v1.unknottable.is_yes and v2.unknottable.is_yes:
        unknot = Verdict.yes()
    elif v1.unknottable.is_no or v2.unknottable.is_no:
        which = v1.unknottable if v1.unknottable.is_no else v2.unknottable
        unknot = Verdict.no(f"a union piece is not unknottable: {which.reason}")
    else:
        unknot = Verdict.unknown()

    def ok(v: EmbedVerdict):
        return v.unlinkable.is_yes or v.unknottable.is_yes

    def bad(v: EmbedVerdict):
        return v.unlinkable.is_no and v.unknottable.is_no

    if ok(v1) and ok(v2):
        unlink = Verdict.yes()
    elif bad(v1) or bad(v2):
        unlink = Verdict.no("a union piece is neither unlinkable nor unknottable")
    else:
        unlink = Verdict.unknown()
    return EmbedVerdict(unknot, unlink, Verdict.yes())


def rational_leaf_verdict(f: Fraction) -> EmbedVerdict:
    """Every rational tangle is unknottable, unlinkable and splittable.

    The splitting (= unlinking) closure is the unique [-f]; the reported
    unknotting closure is the canonical minimal one among infinitely many.
    """
    return EmbedVerdict(
        Verdict.yes(unknotting_closure(f)),
        Verdict.yes(frac_mirror(f)),
        Verdict.yes(frac_mirror(f)),
    )


# ---------------------------------------------------------------------------
# evaluation

class CatalogHint:
    """Closure data for a named tangle: its verdicts and essentiality."""

    __slots__ = ("verdict", "essential")

    def __init__(self, verdict: EmbedVerdict, essential: bool):
        self.verdict = verdict
        self.essential = essential


class EvalResult:
    __slots__ = ("verdict", "rational", "log")

    def __init__(self, verdict: EmbedVerdict, rational: Fraction | None, log: list[str]):
        self.verdict = verdict
        self.rational = rational
        self.log = log


class UnresolvedReference(KeyError):
    pass


class _Item:
    """A normalized summand: a rational value or an evaluated piece."""

    __slots__ = ("rational", "verdict", "essential", "label")

    def __init__(self, rational: Fraction | None, verdict: EmbedVerdict | None,
                 essential: bool, label: str):
        self.rational = rational
        self.verdict = verdict
        self.essential = essential
        self.label = label


def evaluate(expr: TangleExpr, hints: dict[str, CatalogHint] | None = None) -> EvalResult:
    """Evaluate an expression to embedding verdicts.

    Normalization folds rationals, absorbs integral summands, rewrites
    rotations through the fraction rule, and evaluates every product as a
    rotated sum; the matching criterion is then dispatched.  Unknown is
    returned, with a reason, whenever no criterion applies; piece
    obstructions still prune (a decomposition piece that is not
    unknottable makes the whole not unknottable, and the analogues).
    """
    hints = hints or {}
    log: list[str] = []
    item = _eval(expr, hints, log, mirrored=False)
    verdict, rational = item.verdict, item.rational
    if rational is None and verdict.unknottable.is_yes and verdict.splittable.is_yes:
        raise VerdictConsistencyError(
            "unknottable and splittable would force a rational tangle")
    return EvalResult(verdict=verdict, rational=rational, log=log)


def _rotate_item(it: _Item) -> _Item:
    """The evaluated 90 degree rotation: properties kept, closures -1/f."""
    if it.rational is not None:
        f = frac_rotate(it.rational)
        return _Item(rational=f, verdict=rational_leaf_verdict(f),
                     essential=False, label=f"rot({it.label})")
    return _Item(rational=None, verdict=it.verdict.transform_closures(frac_rotate),
                 essential=it.essential, label=f"rot({it.label})")


def _eval(expr: TangleExpr, hints, log, mirrored: bool) -> _Item:
    """Evaluate bottom-up; the mirrored flag distributes to the leaves.

    Rotation and mirror preserve the three embedding properties and act
    on closure fractions by -1/f and -f, so both are handled on evaluated
    results rather than by tree rewriting.
    """
    if isinstance(expr, Mirror):
        return _eval(expr.child, hints, log, not mirrored)
    if isinstance(expr, Rotate):
        return _rotate_item(_eval(expr.child, hints, log, mirrored))
    if isinstance(expr, RationalLeaf):
        f = frac_mirror(expr.value) if mirrored else expr.value
        return _Item(rational=f, verdict=rational_leaf_verdict(f),
                     essential=False, label=str(f))
    if isinstance(expr, NamedRef):
        if expr.name not in hints:
            raise UnresolvedReference(expr.name)
        hint = hints[expr.name]
        v = hint.verdict
        if mirrored:
            v = v.transform_closures(frac_mirror)
            log.append(f"@{expr.name}: closures mirrored")
        return _Item(rational=None, verdict=v, essential=hint.essential,
                     label=f"@{expr.name}")
    if isinstance(expr, Sum):
        items = [_eval(t, hints, log, mirrored) for t in _flatten_sum(expr)]
        return _eval_sum(items, log)
    if isinstance(expr, Product):
        factors = [_eval(t, hints, log, mirrored) for t in _flatten_product(expr)]
        rotated = [_rotate_item(it) for it in factors]
        log.append("product evaluated as the rotated sum "
                   + " + ".join(it.label for it in rotated))
        out = _eval_sum(rotated, log)
        # undo the rotation; on fractions the rotation is an involution
        return _rotate_item(out)
    raise TypeError(f"not an expression: {expr!r}")


def _flatten_sum(expr: TangleExpr) -> list[TangleExpr]:
    """The summands of a chain of sums, left to right, without recursion."""
    terms, stack = [], [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Sum):
            stack += (node.right, node.left)
        else:
            terms.append(node)
    return terms


def _flatten_product(expr: TangleExpr) -> list[TangleExpr]:
    """The factors of a chain of products, top to bottom, without recursion."""
    terms, stack = [], [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Product):
            stack += (node.bottom, node.top)
        else:
            terms.append(node)
    return terms


def _eval_sum(items: list[_Item], log) -> _Item:
    if len(items) == 1:
        return items[0]

    # absorb integral rational summands into a non-integral rational one
    folded = _absorb_integrals(items)
    rationals = [it for it in folded if it.rational is not None]
    others = [it for it in folded if it.rational is None]
    label = " + ".join(it.label for it in folded)

    if not others:
        if len(rationals) == 1:
            f = rationals[0].rational
            return _Item(rational=f, verdict=rational_leaf_verdict(f),
                         essential=False, label=label)
        fractions = [it.rational for it in rationals]
        if all(not f.is_infinite and f.den > 1 for f in fractions):
            log.append("sum of rationals: congruence criteria on "
                       + ", ".join(str(f) for f in fractions))
            return _Item(rational=None, verdict=montesinos_verdict(fractions),
                         essential=True, label=label)
        return _Item(rational=None,
                     verdict=_pruned_unknown(folded, log,
                                             "sum involves the infinity tangle"),
                     essential=False, label=label)

    if len(others) == 1 and others[0].verdict is not None and others[0].essential:
        base = others[0]
        v = base.verdict
        log.append(f"extending {base.label} by rational summands "
                   + ", ".join(str(it.rational) for it in rationals))
        for it in rationals:
            v = _extend_all(v, it.rational, log)
        return _Item(rational=None, verdict=v, essential=True, label=label)

    return _Item(rational=None,
                 verdict=_pruned_unknown(folded, log, "no sum criterion applies"),
                 essential=False, label=label)


def _absorb_integrals(items: list[_Item]) -> list[_Item]:
    """Add every integral rational summand into one rational summand.

    The target is the first finite non-integral rational summand or, when
    there is none, the last integral one; every other item keeps its
    order.
    """
    integral = [i for i, it in enumerate(items)
                if it.rational is not None and it.rational.is_integral]
    if not integral:
        return list(items)
    target = next((i for i, it in enumerate(items)
                   if it.rational is not None and not it.rational.is_infinite
                   and not it.rational.is_integral), integral[-1])
    added = set(integral) - {target}
    if not added:
        return list(items)
    merged = frac_add_integral(items[target].rational,
                               sum(items[i].rational.num for i in added))
    absorbed = _Item(rational=merged, verdict=rational_leaf_verdict(merged),
                     essential=False, label=str(merged))
    return [absorbed if i == target else it
            for i, it in enumerate(items) if i not in added]


def _extend_all(v: EmbedVerdict, added: Fraction, log) -> EmbedVerdict:
    def step(component: Verdict, label: str) -> Verdict:
        if component.is_no:
            return Verdict.no(f"piece is not {label}: {component.reason}")
        if component.status == UNKNOWN or component.closure is None:
            return Verdict.unknown(f"{label} closure of the piece is unknown")
        out = extend_sum_verdict(component.closure, added)
        if out.is_no:
            return Verdict.no(f"{label} closure {component.closure} does not "
                              f"extend over + [{added}]: {out.reason}")
        return out

    unknot = step(v.unknottable, "unknottable")
    unlink = step(v.unlinkable, "unlinkable")
    split = step(v.splittable, "splittable")
    if not v.unlinkable.is_yes or unlink.is_yes:
        log.append("unlinkable/splittable extension uses the mirrored "
                   "congruence (derived clause)")
    return make_verdict(unknot, unlink, split)


def _pruned_unknown(items: list[_Item], log, reason: str) -> EmbedVerdict:
    """Unknown overall, but piece obstructions prune definite answers."""
    unknot = Verdict.unknown(reason)
    for it in items:
        v = it.verdict
        if v is not None and v.unknottable.is_no:
            unknot = Verdict.no(f"piece {it.label} is not unknottable")
            log.append(f"pruned: {it.label} not unknottable makes the whole "
                       "not unknottable")
            break
    unlink = Verdict.unknown(reason)
    verdicts = [it.verdict for it in items if it.verdict is not None]
    if any(v.unlinkable.is_no and v.unknottable.is_no for v in verdicts):
        unlink = Verdict.no("a piece is neither unlinkable nor unknottable")
    elif len(verdicts) == len(items) and all(v.unlinkable.is_no for v in verdicts):
        unlink = Verdict.no("no piece is unlinkable and one must be")
    split = Verdict.unknown(reason)
    if len(verdicts) == len(items) and all(v.splittable.is_no for v in verdicts):
        split = Verdict.no("no piece is splittable and one must be")
    return EmbedVerdict(unknot, unlink, split)
