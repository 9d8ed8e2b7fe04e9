"""Points of F as the engines take them.

A `Fraction` or an int is taken as it is; anything else goes through
`Fraction(x)` once (`localfield.as_rational`), and what `Fraction` refuses is a
`DomainError` at every public entry.  Valuations and unit keys are memoized
on the integers (numerator, denominator, p), so the hot paths hash no
`Fraction` at all.
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
)
from padicorb.orbital import (
    baby_orbital,
    fourier_baby,
    o_baby_nonsplit,
    o_baby_split,
    o_kuz_closed,
    o_torus_group,
    random_baby_data,
    sx_from_baby,
    sz_from_charts,
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
        "o_torus_group split": lambda x: o_torus_group(ctx, "split", h, x),
        "o_torus_group inert": lambda x: o_torus_group(ctx, "inert", h, x),
        "o_kuz_closed": lambda x: o_kuz_closed(ctx, 0, x),
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


ENTRY_NAMES = ("o_baby_split", "o_baby_nonsplit", "o_torus_group split",
               "o_torus_group inert", "o_kuz_closed", "g_value_Z_to_W", "g_value_SX",
               "SXElem.eval", "SZElem.eval", "SWElem.eval", "BruhatFn.eval F",
               "BruhatFn.eval F2", "BruhatFn.from_atoms F", "BruhatFn.from_atoms F2",
               "padic_sqrt", "is_rational_square")


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
