"""padicorb's value types: 14 `typing.NamedTuple` records and 7 plain
read-only classes that validate or memoize.  Each keeps its constructor's
positional order, field names, value equality and hashing within its class,
read-only attributes and validation errors."""

import inspect
from fractions import Fraction
from functools import cached_property

import pytest

from padicorb.bruhat import Atom, BruhatFn, MellinCharacter
from padicorb.errors import DomainError, KindError, UnsupportedAtomError
from padicorb.groups import GroupElt, HeckeElt, KSection, SymLaurent
from padicorb.localfield import LocalFieldCtx, QuadExt
from padicorb.orbital import (BabyInput, ChartImage, FLPoint, FLReport, MatchingCase,
                              MatchingReport)
from padicorb.rational import Poly, RationalFnT
from padicorb.spaces import (Germ, KLTail, SWElem, SXElem, SZElem, _GermTransform,
                             _ShellPlan)

CTX = LocalFieldCtx(3)
SPLIT, INERT = QuadExt(CTX, "split"), QuadExt(CTX, "inert")


def _entries():  # 1 + 3o and 3 + 27o, away from 0 and -1
    return ((((0, 1),), 1, 1 + 0j), (((1, 1),), 3, -0.5 + 0j))


def _window():
    return BruhatFn(CTX, "F", _entries())


def _germ():
    return Germ(1 + 0j, 0.5 + 0j, 2)


# class -> a function returning fresh, equal positional arguments on each call
ARGS = {
    Atom: lambda: ((Fraction(1), Fraction(1, 3)), 0, 1 + 0j),
    BruhatFn: lambda: (CTX, "F", _entries(), None),
    MellinCharacter: lambda: (INERT, "eta"),
    GroupElt: lambda: (CTX, (Fraction(1), Fraction(0), Fraction(3), Fraction(1))),
    HeckeElt: lambda: (((0, 1 + 0j), (2, 0.5 + 0j)),),
    SymLaurent: lambda: ((1 + 0j, 2 + 0j),),
    KSection: lambda: (((1, 1 + 0j),),),
    Poly: lambda: ((1 + 0j, 2 + 0j),),
    RationalFnT: lambda: (Poly.of(1), Poly.of(1, -0.5)),
    _GermTransform: lambda: (1j, 2 + 0j, 3),
    _ShellPlan: lambda: (1j, ((1, 2, 1 + 0j, 3.0),), 1),
    SXElem: lambda: (CTX, "split", _window(), _germ()),
    SZElem: lambda: (CTX, "inert", _window(), _germ(), Germ(0j, 1 + 0j, 1)),
    KLTail: lambda: (2 + 0j, 1),
    SWElem: lambda: (CTX, "split", 0.5 + 0j, _window(), _germ(), KLTail(1 + 0j, 3)),
    BabyInput: lambda: (INERT, BruhatFn.indicator_ball(CTX, "E", (0, 0), 0),
                        BruhatFn.indicator_ball(CTX, "Ealpha", (0, 0), 0, 3)),
    ChartImage: lambda: (3, {0: {1: {1: 1 + 0j}}}, {(0, 1, 0): 1 + 0j}, 1.0),
    FLPoint: lambda: (1, 0, 1 + 0j, 1 + 1e-12j),
    FLReport: lambda: (3, "split", {0: 1 + 0j}, (-4, 4), [FLPoint(1, 0, 1 + 0j, 1 + 0j)],
                       1 + 0j, 1e-8, 0.25),
    MatchingCase: lambda: (0, 1e-14, 0.5 + 0j, 0.5 + 0j),
    MatchingReport: lambda: (3, "inert", 1, 9, [MatchingCase(0, 0.0, 0j, 0j)], 1e-8, 0.25),
}

# a dict or list field: hashing raises TypeError, as it did before
UNHASHABLE = {ChartImage, FLReport, MatchingReport}


@pytest.mark.parametrize("cls", list(ARGS), ids=lambda cls: cls.__name__)
def test_value_type_keeps_fields_equality_and_read_only(cls):
    args = ARGS[cls]()
    a, b = cls(*args), cls(*ARGS[cls]())
    assert tuple(inspect.signature(cls).parameters) == cls._fields
    for name, arg in zip(cls._fields, args):
        assert getattr(a, name) is arg
    # a memo read on one of two equal values leaves them equal
    for name, attr in vars(cls).items():
        if isinstance(attr, cached_property):
            getattr(a, name)
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for name in (cls._fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, cls._fields[0])
    assert a == cls(*args)


def test_plain_value_types_compare_within_their_class():
    """Equal fields in another class (or a plain tuple) are not equal."""
    assert KLTail(1 + 0j, 2) != (1 + 0j, 2)
    assert BruhatFn(CTX, "F", ()) != BruhatFn(CTX, "F2", ())
    assert MellinCharacter(INERT) != MellinCharacter(INERT, "eta")


@pytest.mark.parametrize("build, error", [
    (lambda: BruhatFn(CTX, "Q", ()), DomainError),
    (lambda: BruhatFn(CTX, "F", (), Fraction(3)), DomainError),
    (lambda: BruhatFn(CTX, "Ealpha", ()), DomainError),
    (lambda: SXElem(CTX, "ramified", _window(), _germ()), KindError),
    (lambda: SZElem(CTX, "ramified", _window(), _germ(), _germ()), KindError),
    (lambda: SWElem(CTX, "ramified", 0j, _window(), _germ(), KLTail(1 + 0j, 1)), KindError),
    (lambda: BabyInput(SPLIT, _window(), _window()), KindError),
    (lambda: KLTail(1 + 0j, 0), DomainError),
    (lambda: MellinCharacter(INERT, "sign"), UnsupportedAtomError),
], ids=["bruhat-domain", "torsor-on-F", "Ealpha-no-torsor", "sx-kind", "sz-kind",
        "sw-kind", "baby-split", "kl-tail-M0", "mellin-tag"])
def test_value_type_validation_errors(build, error):
    with pytest.raises(error):
        build()


def test_mellin_character_normalizes_eta_on_split_data():
    chi = MellinCharacter(SPLIT, "eta")
    assert chi.quadratic == "trivial"
    assert chi == MellinCharacter(SPLIT) and hash(chi) == hash(MellinCharacter(SPLIT))
    assert MellinCharacter(INERT, "eta").quadratic == "eta"
