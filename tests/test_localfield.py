import cmath
import math
import random
from fractions import Fraction

import pytest

from padicorb.errors import DomainError, PadicOrbError, PrecisionError
from padicorb.localfield import (
    EElem,
    LocalFieldCtx,
    PadicScalar,
    QuadExt,
    norm_E,
    psi_eval,
    psi_eval_frac,
    rational_valuation,
    smallest_nonresidue,
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
    x = ctx5.scalar(Fraction(10))
    assert psi_eval(x) == 1


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


def test_psi_precision_error(ctx3):
    x = PadicScalar(ctx3, -3, 7, 2)  # 3 digits needed, 2 known
    with pytest.raises(PrecisionError):
        psi_eval(x)


def test_eta_split_always_one(ctx3):
    ext = QuadExt(ctx3, "split")
    for x in (Fraction(5), Fraction(3), Fraction(1, 9)):
        assert ext.eta(x) == 1
        assert ext.is_norm(x)


def test_eta_inert_by_norm_enumeration(ctx3):
    """Brute-force: the set of norms a^2 - u b^2 has only even valuations,
    and every unit residue is a norm."""
    ext = QuadExt(ctx3, "inert")
    u = ext.u
    p = 3
    vals = set()
    unit_norms = set()
    for a in range(p ** 3):
        for b in range(p ** 3):
            n = (a * a - u * b * b) % p ** 3
            if n == 0:
                continue
            v = rational_valuation(n, p)
            if v < 3:
                vals.add(v)
            if v == 0:
                unit_norms.add(n % p)
    assert vals == {0, 1, 2} or vals == {0, 2}  # valuations seen in residues
    # norms of actual field elements have even valuation: p is not a norm
    assert ext.eta(Fraction(3)) == -1
    assert not ext.is_norm(Fraction(3))
    # every unit class mod p is hit by a unit norm
    assert unit_norms == {1, 2}
    assert ext.eta(Fraction(7)) == 1


def test_is_norm_examples(ctx3):
    ext = QuadExt(ctx3, "inert")
    assert ext.is_norm(Fraction(9))
    assert not ext.is_norm(Fraction(27 * 2))
    with pytest.raises(DomainError):
        ext.eta(Fraction(0))


def test_eta_multiplicative_and_matches_norms(ctx3):
    ext = QuadExt(ctx3, "inert")
    rng = random.Random(1)
    for _ in range(200):
        vx, vy = rng.randrange(-6, 7), rng.randrange(-6, 7)
        ux = rng.choice([1, 2, 4, 5, 7, 8])
        uy = rng.choice([1, 2, 4, 5, 7, 8])
        x = Fraction(ux) * Fraction(3) ** vx
        y = Fraction(uy) * Fraction(3) ** vy
        assert ext.eta(x * y) == ext.eta(x) * ext.eta(y)
        assert ext.eta(x) in (1, -1)
        assert (ext.eta(x) == 1) == ext.is_norm(x)


def test_norm_E(ctx3):
    ext = QuadExt(ctx3, "inert")
    one = EElem(ext, Fraction(1), Fraction(0))
    root = EElem(ext, Fraction(0), Fraction(1))
    assert one.norm() == 1
    assert root.norm() == -ext.u
    split = QuadExt(ctx3, "split")
    assert norm_E(split, (Fraction(4), Fraction(5))) == 20
    # |z| = |N(z)|
    z = EElem(ext, Fraction(3), Fraction(6))
    assert rational_valuation(z.norm(), 3) == 2 * z.valuation_E()


def test_smallest_nonresidue():
    assert smallest_nonresidue(3) == 2
    assert smallest_nonresidue(5) == 2
    assert smallest_nonresidue(7) == 3


def test_scalar_arithmetic_matches_rationals(ctx5):
    rng = random.Random(2)
    p = 5
    for _ in range(200):
        x = Fraction(rng.randrange(-400, 400), p ** rng.randrange(0, 3))
        y = Fraction(rng.randrange(-400, 400) or 1, p ** rng.randrange(0, 3))
        a, b = ctx5.scalar(x), ctx5.scalar(y)
        for op, ref in ((a + b, x + y), (a * b, x * y), (a - b, x - y)):
            if ref == 0:
                assert op.is_exact_zero() or op.unit == 0 or op.valuation() > 20
                continue
            v = rational_valuation(ref, p)
            assert op.valuation() == v
            k = min(op.prec, 6)
            unit_ref = ref / Fraction(p) ** v
            want = unit_ref.numerator * pow(unit_ref.denominator, -1, p ** k) % p ** k
            assert op.unit_residue(k) == want
        if y != 0:
            d = a / b
            ref = x / y
            if ref != 0:
                assert d.valuation() == rational_valuation(ref, p)


def test_precision_tracking_min_rule(ctx5):
    a = PadicScalar(ctx5, 0, 2, 3)
    b = PadicScalar(ctx5, 0, 3, 10)
    assert (a * b).prec == 3
    # additive cancellation drops precision
    c = PadicScalar(ctx5, 0, 1, 4)
    d = PadicScalar(ctx5, 0, 5 ** 4 - 1, 4)  # = -1 mod 5^4
    s = c + d
    assert s.unit == 0  # all known digits cancelled


def test_precision_soundness_rerun_higher(ctx5):
    """Re-running at higher precision never changes determined digits."""
    rng = random.Random(3)
    for _ in range(100):
        x = Fraction(rng.randrange(-300, 300) or 1, 5 ** rng.randrange(0, 3))
        y = Fraction(rng.randrange(-300, 300) or 1, 5 ** rng.randrange(0, 3))
        lo = ctx5.scalar(x, 8) * ctx5.scalar(y, 8)
        hi = ctx5.scalar(x, 20) * ctx5.scalar(y, 20)
        assert lo.valuation() == hi.valuation()
        assert hi.unit_residue(lo.prec) == lo.unit_residue(lo.prec)


def test_inverse_and_zero(ctx5):
    z = ctx5.zero()
    assert z.is_exact_zero()
    with pytest.raises(DomainError):
        z.inverse()
    a = ctx5.scalar(Fraction(7, 5))
    assert (a * a.inverse()).unit_residue(5) == 1


def test_unit_mod():
    assert unit_mod(Fraction(18, 7), 2, 3, 3) == 2 * pow(7, -1, 27) % 27
    assert unit_mod(Fraction(-5, 9), -2, 3, 2) == -5 % 9
    assert unit_mod(Fraction(4, 5), 0, 3, 4) == 4 * pow(5, -1, 81) % 81
    assert unit_mod(Fraction(2, 3), -2, 3, 3) == 6  # any v <= val x
    for x, v in ((Fraction(2, 3), 0), (Fraction(1, 27), -2), (Fraction(5), 1)):
        with pytest.raises(DomainError) as err:
            unit_mod(x, v, 3, 4)
        assert isinstance(err.value, PadicOrbError)
