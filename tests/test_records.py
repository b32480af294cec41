"""The record contract: every record class of the package is a slotted named
tuple that behaves like the frozen dataclass it replaced."""

import importlib
import operator
import pkgutil
from fractions import Fraction as Q

import pytest

import limitlab
from limitlab._record import _Record
from limitlab.analyzers import DensityVerdict
from limitlab.functions import PiecewiseFn
from limitlab.limits import Verdict
from limitlab.poly import Poly
from limitlab.sets import EMPTY, FULL_LINE, CantorAffine, Intersection, Piece, Union, interval, points


def _record_classes() -> list[type]:
    out = []
    for info in pkgutil.iter_modules(limitlab.__path__):
        if info.name == "__main__":  # running it would run the CLI
            continue
        mod = importlib.import_module(f"limitlab.{info.name}")
        out += [c for c in vars(mod).values() if isinstance(c, type) and issubclass(c, _Record) and c is not _Record and c.__module__ == mod.__name__]
    return out


RECORDS = _record_classes()


def _sample(cls: type) -> _Record:
    # _make fills the fields as given, whatever the class's own __new__ does
    return cls._make(range(1, len(cls._fields) + 1))


def test_the_walk_finds_the_records_of_every_module():
    names = {c.__name__ for c in RECORDS}
    assert {"Interval", "EmptySet", "Union", "Normal", "Piece", "Poly", "Term", "Verdict", "Report", "MCEstimate"} <= names
    assert len(RECORDS) >= 28


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_record_equals_only_its_own_class(cls):
    r = _sample(cls)
    fields = tuple(r)
    assert r == _sample(cls) and not r != _sample(cls)
    assert r != fields and fields != r and not r == fields and not fields == r
    for other in RECORDS:
        if other is not cls and len(other._fields) == len(cls._fields):
            assert r != _sample(other) and _sample(other) != r
    assert hash(r) == hash(fields)
    assert bool(r)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_record_is_immutable_and_has_no_dict(cls):
    r = _sample(cls)
    assert not hasattr(r, "__dict__")
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
    with pytest.raises(AttributeError):
        r.extra = 0


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_record_has_no_tuple_order_or_arithmetic(cls):
    r = _sample(cls)
    for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.add, operator.mul):
        if f"__{op.__name__}__" not in vars(cls):
            with pytest.raises(TypeError):
                op(r, r)
    with pytest.raises(TypeError):
        2 * r


def test_empty_records_are_true_and_poly_keeps_its_arithmetic():
    assert bool(EMPTY) and bool(Poly(()))
    x = Poly.x()
    assert x + x == Poly.make([0, 2]) and x * x == Poly.make([0, 0, 1]) and x - x == Poly(())
    with pytest.raises(TypeError):
        x < x


def test_keywords_defaults_and_replace():
    c = CantorAffine(offset=Q(0), scale=Q(1))
    assert c.clip is None and c == CantorAffine(Q(0), Q(1), None)
    assert Piece(core=EMPTY).removals == ()
    assert Verdict("pass") == Verdict(status="pass", witness=(), evidence="")
    assert DensityVerdict("zero") == DensityVerdict(kind="zero", value=None, lower_bound=None, reason="")
    iv = interval(0, 1)
    assert iv._replace(hi=Q(2)) == interval(0, 2) and iv == interval(0, 1)
    # Union and PiecewiseFn normalize what they are given to tuples
    assert Union([EMPTY]).args == (EMPTY,) and Intersection(iter([EMPTY])).args == (EMPTY,)
    f = PiecewiseFn(domain=FULL_LINE, branches=[[EMPTY, Poly.const(1)]], default=Poly.const(0))
    assert f.branches == ((EMPTY, Poly.const(1)),)


def test_union_and_intersection_of_the_same_args_differ():
    x = points(1)
    assert Union((x,)) != Intersection((x,))
    assert len({Union((x,)), Intersection((x,)), (x,), ((x,),)}) == 4


def test_repr_is_unchanged():
    assert repr(interval(0, None, True, False)) == "Interval(lo=Fraction(0, 1), hi=None, lo_incl=True, hi_incl=False)"
    assert repr(EMPTY) == "EmptySet()"
    assert repr(Union((points(1),))) == "Union(args=(FinitePoints(points=(Fraction(1, 1),)),))"
    assert repr(Piece(CantorAffine(Q(0), Q(1)))) == (
        "Piece(core=CantorAffine(offset=Fraction(0, 1), scale=Fraction(1, 1), clip=None), removals=())"
    )
    assert repr(Verdict("pass")) == "Verdict(status='pass', witness=(), evidence='')"
