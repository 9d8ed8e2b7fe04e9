import cmath
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import padicorb
from padicorb.errors import DomainError, PadicOrbError
from padicorb.localfield import (
    LocalFieldCtx,
    QuadExt,
    padic_sqrt,
    psi_eval_frac,
    rational_valuation,
    smallest_nonresidue,
    sqrt_unit_mod,
    unit_mod,
)


def test_context_rejects_bad_primes():
    with pytest.raises(DomainError):
        LocalFieldCtx(4)
    with pytest.raises(DomainError):
        LocalFieldCtx(2)


def test_measure_constants_by_point_count(ctx3, ctx5):
    for ctx in (ctx3, ctx5):
        q = ctx.q
        pgl2 = q * (q - 1) * (q + 1)  # |PGL2(F_q)|
        assert ctx.vol_K == Fraction(pgl2, q ** 3)
        assert ctx.vol_X2 == Fraction(pgl2 // q, q ** 2)
        assert ctx.vol_X1("split") == Fraction(pgl2 // (q - 1), q ** 2)
        assert ctx.vol_X1("inert") == Fraction(pgl2 // (q + 1), q ** 2)
        assert ctx.vol_Ox == Fraction(q - 1, q)


def test_psi_trivial_on_integers(ctx5):
    assert psi_eval_frac(ctx5, 3) == 1
    assert psi_eval_frac(ctx5, Fraction(2, 7)) == 1  # prime-to-p denominator


def test_psi_defining_convention(ctx5):
    got = psi_eval_frac(ctx5, Fraction(1, 5))
    assert abs(got - cmath.exp(2j * math.pi / 5)) < 1e-15


def test_psi_fractional_part_value(ctx5):
    got = psi_eval_frac(ctx5, Fraction(7, 25))
    assert abs(got - cmath.exp(2j * math.pi * 7 / 25)) < 1e-15


def test_psi_additivity_brute(ctx3, ctx5):
    rng = random.Random(0)
    for ctx in (ctx3, ctx5):
        for _ in range(120):
            x = Fraction(rng.randrange(-200, 200), ctx.p ** rng.randrange(0, 4))
            y = Fraction(rng.randrange(-200, 200), ctx.p ** rng.randrange(0, 4))
            lhs = psi_eval_frac(ctx, x + y)
            rhs = psi_eval_frac(ctx, x) * psi_eval_frac(ctx, y)
            assert abs(lhs - rhs) < 1e-12


def test_psi_conductor_is_o(ctx3):
    # identically 1 on o, nonconstant on p^-1 o
    for k in range(0, 4):
        assert psi_eval_frac(ctx3, Fraction(k)) == 1
    vals = {psi_eval_frac(ctx3, Fraction(k, 3)) for k in range(3)}
    assert len(vals) > 1


def test_eta_split_always_one(ctx3):
    ext = QuadExt(ctx3, "split")
    for v in range(-6, 7):
        assert ext.eta_of_val(v) == 1


def test_eta_inert_by_norm_enumeration(ctx3):
    """Brute force over the norms a^2 - u b^2 with a, b in p^-1 Z: every nonzero
    norm has even valuation and eta = 1, so p is not a norm, and every unit
    class mod p is a norm."""
    ext = QuadExt(ctx3, "inert")
    u, p = ext.u, 3
    unit_norms = set()
    for a in range(p ** 4):
        for b in range(p ** 4):
            n = Fraction(a * a - u * b * b, p ** 2)
            if n == 0:
                continue
            v = rational_valuation(n, p)
            assert v % 2 == 0 and ext.eta_of_val(v) == 1
            if v == 0:
                unit_norms.add(unit_mod(n, 0, p, 1))
    assert unit_norms == {1, 2}
    assert ext.eta_of_val(rational_valuation(3, p)) == -1
    assert ext.eta_of_val(rational_valuation(7, p)) == 1


def test_eta_multiplicative_and_matches_norms(ctx3):
    ext = QuadExt(ctx3, "inert")
    rng = random.Random(1)
    for _ in range(200):
        vx, vy = rng.randrange(-6, 7), rng.randrange(-6, 7)
        assert ext.eta_of_val(vx + vy) == ext.eta_of_val(vx) * ext.eta_of_val(vy)
        assert ext.eta_of_val(vx) in (1, -1)
        # every nonzero norm a^2 - u b^2 has eta = 1
        a, b = rng.randrange(1, 50), rng.randrange(0, 50)
        n = Fraction(a * a - ext.u * b * b) * Fraction(3) ** (2 * vx)
        assert ext.eta_of_val(rational_valuation(n, 3)) == 1


def test_smallest_nonresidue():
    assert smallest_nonresidue(3) == 2
    assert smallest_nonresidue(5) == 2
    assert smallest_nonresidue(7) == 3


def test_unit_mod():
    assert unit_mod(Fraction(18, 7), 2, 3, 3) == 2 * pow(7, -1, 27) % 27
    assert unit_mod(Fraction(-5, 9), -2, 3, 2) == -5 % 9
    assert unit_mod(Fraction(4, 5), 0, 3, 4) == 4 * pow(5, -1, 81) % 81
    assert unit_mod(Fraction(2, 3), -2, 3, 3) == 6  # any v <= val x
    for x, v in ((Fraction(2, 3), 0), (Fraction(1, 27), -2), (Fraction(5), 1)):
        with pytest.raises(DomainError) as err:
            unit_mod(x, v, 3, 4)
        assert isinstance(err.value, PadicOrbError)


def _prime_to(p: int, rng: random.Random) -> int:
    n = rng.randrange(1, p ** 3)
    return n if n % p else n + 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_padic_sqrt_relative_precision(p):
    ctx = LocalFieldCtx(p)
    rng = random.Random(p)
    for v in range(-6, 7, 2):
        for _ in range(10):
            r, den = _prime_to(p, rng), _prime_to(p, rng)
            # a square in F, and a rational square only when k = 0
            x = Fraction(r * r, den * den) * Fraction(p) ** v * (1 + p * rng.randrange(0, p ** 4))
            prec = rng.randrange(1, 12)
            root = padic_sqrt(ctx, x, prec)
            assert isinstance(root, Fraction)
            assert rational_valuation(root, p) == v // 2
            assert rational_valuation(root * root - x, p) >= v + prec
            # more digits never change the ones already determined
            assert rational_valuation(padic_sqrt(ctx, x, prec + 5) - root, p) >= v // 2 + prec


@pytest.mark.parametrize("p", [3, 5, 7])
def test_padic_sqrt_rejects_nonsquares(p):
    ctx = LocalFieldCtx(p)
    u = smallest_nonresidue(p)
    for v in (-5, -1, 1, 3):
        with pytest.raises(DomainError):
            padic_sqrt(ctx, Fraction(p) ** v, 10)
    for v in (-4, 0, 2):
        with pytest.raises(DomainError):
            padic_sqrt(ctx, u * Fraction(p) ** v, 10)
    for a in range(1, p):
        if pow(a, (p - 1) // 2, p) != 1:
            with pytest.raises(DomainError):
                sqrt_unit_mod(ctx, a + p * 7, 6)
    with pytest.raises(DomainError):
        sqrt_unit_mod(ctx, p, 6)


def test_padic_sqrt_of_zero_is_immediate():
    """val 0 is the even sentinel INF, so a rewrite that misses the zero case
    computes p^INF; run it in a child process to fail instead of hanging."""
    src = str(Path(padicorb.__file__).resolve().parent.parent)
    code = ("from fractions import Fraction; from padicorb.localfield import LocalFieldCtx, padic_sqrt; "
            "ctx = LocalFieldCtx(3); "
            "assert padic_sqrt(ctx, Fraction(0), 28) == 0 and padic_sqrt(ctx, 0, 10 ** 6) == 0")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=10)
