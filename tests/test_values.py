"""Value semantics of the immutable value classes: equality and hashing by
class and fields, no assignment or deletion, and their printed forms."""

import pytest

from tanglekit.diagram import (
    LinkDiagram,
    OrientedDiagram,
    TangleDiagram,
    close_numerator,
    from_rational,
    orient,
)
from tanglekit.expr import (
    EmbedVerdict,
    Mirror,
    NamedRef,
    Product,
    RationalLeaf,
    Rotate,
    Sum,
    Verdict,
)
from tanglekit.fraction import Fraction, TwoBridgeLink, frac_normalize
from tanglekit.laurent import LaurentPoly
from tanglekit.quandle import NotInvariant


def trefoil():
    return close_numerator(from_rational(Fraction(3, 1)))


def hopf():
    return close_numerator(from_rational(Fraction(2, 1)))


def yes(p, q=1):
    return Verdict.yes(frac_normalize(p, q))


L1, L2, L3 = RationalLeaf(Fraction(1, 2)), RationalLeaf(Fraction(1, 3)), NamedRef("6_2")

# (class, its fields, for each field another value); equal fields must
# give equal values and a change in any one field an unequal one
VALUES = [
    (Fraction, (-3, 2), (3, 7)),
    (TwoBridgeLink, (5, 2), (7, 3)),
    (TangleDiagram, ((), (0, 0, 1, 1), 0), (hopf().crossings, (0, 1, 0, 1), 1)),
    (LinkDiagram, (hopf().crossings, 0), (trefoil().crossings, 1)),
    (OrientedDiagram, tuple(getattr(orient(hopf()), f) for f in OrientedDiagram.__slots__),
     (trefoil(), ())),
    (LaurentPoly, ("sqrt_t", ((-1, -1), (1, -1))), ("A", ((1, -1),))),
    (Verdict, ("yes", Fraction(-1, 1), None), ("no", Fraction(0, 1), "r")),
    (EmbedVerdict, (yes(-1), Verdict.no("a"), Verdict.no("b")),
     (Verdict.no("r"), Verdict.no("s"), yes(1))),
    (RationalLeaf, (Fraction(1, 2),), (Fraction(-1, 2),)),
    (Sum, (L1, L2), (L3, L1)),
    (Product, (L1, L2), (L3, L1)),
    (Rotate, (L3,), (NamedRef("6_3"),)),
    (Mirror, (L1,), (L2,)),
    (NamedRef, ("7_16",), ("7_15",)),
    (NotInvariant, (2,), (0,)),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]


@pytest.mark.parametrize("cls, fields, others", VALUES, ids=IDS)
def test_equal_fields_equal_values(cls, fields, others):
    a, b = cls(*fields), cls(*fields)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    for i, x in enumerate(others):
        changed = cls(*fields[:i], x, *fields[i + 1:])
        assert a != changed and changed != a
        assert {a: 1}.get(changed) is None


@pytest.mark.parametrize("cls, fields, others", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, others):
    a = cls(*fields)
    before, key = repr(a), hash(a)
    for name, x in zip(cls.__slots__, others):
        with pytest.raises(AttributeError):
            setattr(a, name, x)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a) == before and hash(a) == key and a == cls(*fields)


@pytest.mark.parametrize("a, b", [
    (Sum(L1, L2), Product(L1, L2)),
    (Rotate(L1), Mirror(L1)),
    (Fraction(1, 0), TwoBridgeLink(1, 0)),
    (Fraction(0, 1), TwoBridgeLink(0, 1)),
    (LinkDiagram((), 0), TangleDiagram((), (0, 0, 1, 1), 0)),
])
def test_equal_fields_in_different_classes_differ(a, b):
    assert a != b and b != a
    assert len({a, b}) == 2


def test_diagrams_of_equal_fields_from_different_builds():
    assert trefoil() == trefoil() and hash(trefoil()) == hash(trefoil())
    assert trefoil() != hopf()


def test_checks_run_on_construction():
    with pytest.raises(ValueError):
        Fraction(2, 4)
    with pytest.raises(ValueError):
        Fraction(1, -2)
    with pytest.raises(ValueError):
        TwoBridgeLink(4, 2)
    with pytest.raises(ValueError):
        TangleDiagram((), [0, 0, 1, 1])
    with pytest.raises(AssertionError):
        EmbedVerdict(Verdict.unknown(), yes(0), Verdict.unknown())


# the printed forms of the earlier dataclass version, which output shows
@pytest.mark.parametrize("value, text, rep", [
    (Fraction(-3, 2), "-3/2", "-3/2"),
    (Fraction(1, 0), "inf", "inf"),
    (Fraction(4, 1), "4", "4"),
    (LaurentPoly.make("sqrt_t", {-3: 2, 4: -1, 1: 1}),
     "2*t^(-3/2) + 1*t^(1/2) + -1*t^2", "2*t^(-3/2) + 1*t^(1/2) + -1*t^2"),
    (LaurentPoly.make("A", {-2: -1, 2: -1}), "-1*A^-2 + -1*A^2", "-1*A^-2 + -1*A^2"),
    (LaurentPoly.zero("A"), "0", "0"),
    (yes(-1), "yes(-1)", "Verdict(status='yes', closure=-1, reason=None)"),
    (Verdict.yes(), "yes", "Verdict(status='yes', closure=None, reason=None)"),
    (Verdict.no("because"), "no (because)",
     "Verdict(status='no', closure=None, reason='because')"),
    (Verdict.unknown(), "unknown", "Verdict(status='unknown', closure=None, reason=None)"),
    (Verdict.unknown("r"), "unknown (r)",
     "Verdict(status='unknown', closure=None, reason='r')"),
    (EmbedVerdict(yes(-1), yes(0), yes(0)),
     "unknottable: yes(-1); unlinkable: yes(0); splittable: yes(0)",
     "EmbedVerdict(unknottable=Verdict(status='yes', closure=-1, reason=None), "
     "unlinkable=Verdict(status='yes', closure=0, reason=None), "
     "splittable=Verdict(status='yes', closure=0, reason=None))"),
])
def test_printed_forms(value, text, rep):
    assert str(value) == text
    assert repr(value) == rep
