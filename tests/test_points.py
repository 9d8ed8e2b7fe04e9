"""Points of F as the engines take them.

A `Fraction` or an int is taken as it is; anything else goes through
`Fraction(x)` once (`localfield.as_rational`), and what `Fraction` refuses is a
`DomainError` at every public entry.  Valuations and unit keys are memoized
on the integers (numerator, denominator, p), so the hot paths hash no
`Fraction` at all.  The points the library forms itself come from integers
(`localfield.shell_point`), and the engines read a point only through its
numerator and denominator, so the verification paths apply no Fraction
operator, and an int point gives the bits of the equal Fraction.
"""

import random
from fractions import Fraction

import pytest

from padicorb import cli
from padicorb.bruhat import BruhatFn
from padicorb.errors import DomainError
from padicorb.groups import HeckeElt
from padicorb.localfield import (
    INF,
    LocalFieldCtx,
    as_rational,
    is_rational_square,
    padic_sqrt,
    rational_valuation,
    shell_point,
)
from padicorb.orbital import (
    baby_orbital,
    fourier_baby,
    hecke_apply_W,
    o_baby_nonsplit,
    o_baby_split,
    o_kuz_closed,
    o_torus_group,
    random_baby_data,
    sx_from_baby,
    sz_from_charts,
    verify_fl,
)
from padicorb.spaces import _val_and_unit_key, g_transform_Z_to_W, g_value_SX, g_value_Z_to_W

BAD_POINTS = (float("nan"), float("inf"), float("-inf"), None, "abc")
GOOD_POINTS = ((0.75, Fraction(3, 4)), ("5/9", Fraction(5, 9)))


@pytest.fixture(scope="module")
def entries():
    """Every public entry that takes xi or a point, as a one-argument function;
    the square roots at p = 11, where 3, 5 and -2 are squares, so that every
    good point has one."""
    ctx, ctx11 = LocalFieldCtx(3), LocalFieldCtx(11)
    rng = random.Random(17)
    split, inert = random_baby_data(ctx, "split", rng), random_baby_data(ctx, "inert", rng)
    sx = sx_from_baby(split, "split")
    sz = sz_from_charts(random_baby_data(ctx, "split", rng),
                        random_baby_data(ctx, "split", rng), "split")
    sw = g_transform_Z_to_W(sz)
    h = HeckeElt.of({0: 2, 1: 3})
    return {
        "o_baby_split": lambda x: o_baby_split(split, x),
        "o_baby_nonsplit": lambda x: o_baby_nonsplit(inert, x),
        "baby_orbital split": lambda x: baby_orbital("split", split, x),
        "baby_orbital inert": lambda x: baby_orbital("inert", inert, x),
        "o_torus_group split": lambda x: o_torus_group(ctx, "split", h, x),
        "o_torus_group inert": lambda x: o_torus_group(ctx, "inert", h, x),
        "o_kuz_closed": lambda x: o_kuz_closed(ctx, 0, x),
        "hecke_apply_W": hecke_apply_W(ctx, "split", h),
        "g_value_Z_to_W": lambda x: g_value_Z_to_W(sz, x),
        "g_value_SX": lambda x: g_value_SX(sx, x),
        "SXElem.eval": sx.eval,
        "SZElem.eval": sz.eval,
        "SWElem.eval": sw.eval,
        "BruhatFn.eval F": sx.window.eval,
        "BruhatFn.eval F2": lambda x: split.eval((x, 1)),
        "BruhatFn.from_atoms F": lambda x: BruhatFn.from_atoms(ctx, "F", [(x, 2, 1.0)]),
        "BruhatFn.from_atoms F2": lambda x: BruhatFn.from_atoms(ctx, "F2", [((1, x), 2, 1.0)]),
        "padic_sqrt": lambda x: padic_sqrt(ctx11, x, 5),
        "is_rational_square": lambda x: is_rational_square(ctx11, x),
    }


VALUE_NAMES = ("o_baby_split", "o_baby_nonsplit", "baby_orbital split", "baby_orbital inert",
               "o_torus_group split", "o_torus_group inert", "o_kuz_closed", "hecke_apply_W",
               "g_value_Z_to_W", "g_value_SX", "SXElem.eval", "SZElem.eval", "SWElem.eval")
ENTRY_NAMES = VALUE_NAMES + ("BruhatFn.eval F", "BruhatFn.eval F2", "BruhatFn.from_atoms F",
                             "BruhatFn.from_atoms F2", "padic_sqrt", "is_rational_square")


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_a_bad_point_raises_domain_error(entries, name):
    """NaN, +-inf, None and a non-number string are refused with DomainError,
    not with the ValueError, OverflowError or TypeError of `Fraction(x)`."""
    for x in BAD_POINTS:
        with pytest.raises(DomainError):
            entries[name](x)


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_a_float_or_string_point_is_its_fraction(entries, name):
    """0.75 and "5/9" give exactly the values of Fraction(3, 4) and Fraction(5, 9),
    and an int point those of its Fraction."""
    for x, exact in GOOD_POINTS + ((-2, Fraction(-2)),):
        assert entries[name](x) == entries[name](exact), (name, x)


def _grid(p: int) -> list:
    """0, bools, small and 30-digit ints of both signs, and fractions with
    30-digit numerators and denominators times powers of p."""
    rng = random.Random(1000 + p)
    big = [rng.randrange(10 ** 29, 10 ** 30) for _ in range(6)]
    out = [0, False, True, -1, p, -p ** 3, 2 * p ** 40, Fraction(0), Fraction(-1, p ** 5)]
    out += [b * s * p ** e for b in big[:3] for s in (1, -1) for e in (0, 7)]
    for _ in range(40):
        num, den = rng.choice(big) * rng.choice((1, -1)), rng.choice(big)
        out.append(Fraction(num, den) * Fraction(p) ** rng.randrange(-12, 13))
        out.append(Fraction(rng.randrange(-50, 51), rng.randrange(1, 50)))
    return out


def _reference(x, p: int) -> tuple[int, int, int]:
    """(val x, unit numerator, unit denominator) from the Fraction, by division."""
    x = Fraction(x)
    if x == 0:
        return INF, 0, 1
    v = 0
    while x.numerator % p == 0:
        x, v = x / p, v + 1
    while x.denominator % p == 0:
        x, v = x * p, v - 1
    return v, x.numerator, x.denominator


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_valuations_and_unit_keys_equal_the_fraction_reference(p):
    """The integer-keyed memos give the Fraction's valuation and unit exactly,
    on a first (missed) and a second (hit) lookup, for ints, bools and
    Fractions alike; `as_rational` hands a Fraction or an int back as it is."""
    ctx = LocalFieldCtx(p)
    for x in _grid(p):
        want = _reference(x, p)
        for _ in range(2):
            assert rational_valuation(x, p) == want[0], (p, x)
            assert _val_and_unit_key(ctx, x) == want, (p, x)
        if type(x) in (int, Fraction):
            assert as_rational(x) is x


def test_the_hot_paths_hash_no_fraction(monkeypatch, tmp_path, capsys):
    """Two verify-fl runs, one G transform of seeded split charts and one round
    of the dual path per kind make no call of Fraction.__hash__: every memo on
    a point is keyed on integers."""
    hashes = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda x: hashes.append(x) or fraction_hash(x))
    for argv in (["--p", "3", "--ext", "split", "--hecke", "0:3,1:7"],
                 ["--p", "5", "--ext", "inert", "--hecke", "0:2,1:5,2:8"]):
        out = tmp_path / "fl.json"
        assert cli.main(["verify-fl", *argv, "--format", "json", "--out", str(out)]) == 0
        assert hashes == [], argv
    capsys.readouterr()
    ctx = LocalFieldCtx(3)
    rng = random.Random(9)
    g_transform_Z_to_W(sz_from_charts(random_baby_data(ctx, "split", rng),
                                      random_baby_data(ctx, "split", rng), "split"))
    assert hashes == []
    for kind in ("split", "inert"):
        phi = random_baby_data(ctx, kind, random.Random(3))
        sx_from_baby(phi, kind)
        phihat = fourier_baby(phi, kind)
        for v in range(-4, 5):
            baby_orbital(kind, phihat, Fraction(2) * Fraction(3) ** v)
        assert hashes == [], kind


@pytest.mark.parametrize("name", VALUE_NAMES)
def test_an_int_point_gives_the_bits_of_its_fraction(entries, name):
    """Every engine and `eval` gives an int point and the equal Fraction
    repr-equal values, at u 3^v and -1 + u 3^v for u = 1, 2, -2, 5, 10 and
    v = 0 .. 6: points of both signs next to 0, next to -1 and away from both."""
    points = [shell_point(3, u, v, c) for c in (0, -1) for u in (1, 2, -2, 5, 10)
              for v in range(0, 7)]
    points = [x for x in points if x not in (0, -1)]
    assert all(type(x) is int for x in points)
    for x in points:
        assert repr(entries[name](x)) == repr(entries[name](Fraction(x))), (name, x)


@pytest.mark.parametrize("p", [3, 5])
def test_shell_point_is_the_fraction_arithmetic(p):
    """shell_point(p, u, v, c) equals c + Fraction(u) * Fraction(p) ** v for
    c = 0, -1, the units u up to p^3 and v = -6 .. 6: an int on v >= 0, else a
    Fraction in lowest terms with the same numerator and denominator."""
    for c in (0, -1):
        for u in range(1, p ** 3 + 1):
            if u % p == 0:
                continue
            for v in range(-6, 7):
                got, want = shell_point(p, u, v, c), c + Fraction(u) * Fraction(p) ** v
                assert type(got) is (int if v >= 0 else Fraction), (c, u, v)
                assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
                assert got == want


class _FractionOperator(Exception):
    """A Fraction arithmetic operator ran where none should."""


_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__pow__", "__neg__")


def test_the_verification_paths_apply_no_fraction_operator(monkeypatch):
    """With every Fraction arithmetic operator refused, verify_fl runs at both
    benchmark shapes (p = 3 split a h0 + b h1, p = 5 inert h0 .. h2), and at
    p = 3 of both kinds the chart builder with the transform to S(W), and the
    baby builder, the Fourier transform and the G value: every point they
    form comes from integers and every engine reads its integers."""
    ctx3, ctx5 = LocalFieldCtx(3), LocalFieldCtx(5)
    rng = random.Random(35)
    charts = {kind: [random_baby_data(ctx3, kind, rng) for _ in range(2)]
              for kind in ("split", "inert")}
    points = [shell_point(3, u, v, c) for c in (0, -1) for u in (1, 2) for v in range(-4, 5)]

    def refuse(*args):
        raise _FractionOperator(args)

    for name in _OPERATORS:
        monkeypatch.setattr(Fraction, name, refuse)
    with pytest.raises(_FractionOperator):
        Fraction(1, 3) + 1
    assert verify_fl(ctx3, "split", HeckeElt.of({0: 3, 1: 7})).passed
    assert verify_fl(ctx5, "inert", HeckeElt.of({0: 2, 1: 5, 2: 8})).passed
    for kind, (phi1, phi2) in charts.items():
        g_transform_Z_to_W(sz_from_charts(phi1, phi2, kind))
        sx = sx_from_baby(phi1, kind)
        fourier_baby(phi1, kind)
        for x in points:
            if x not in (0, -1):
                g_value_SX(sx, x)
