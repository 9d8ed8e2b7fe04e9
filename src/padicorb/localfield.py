"""Arithmetic in F = Q_p (p odd) and its unramified quadratic extension.

Points of F are exact rationals: a `Fraction` or an int, taken as it is
(`as_rational`).  The engines work on them through integer residue helpers:
valuations memoized on (numerator, denominator, p), units mod p^m
(`unit_mod`) and Hensel square roots (`sqrt_unit_mod`, `padic_sqrt`).  A point
the library forms itself, c + u p^v, comes from integers (`shell_point`), and
a power of q as a float from one int quotient (`q_power`), so the
verification paths apply no Fraction operator.  The additive character psi,
the quadratic character eta and the Weil-measure constants also live here.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, KindError

INF = 10 ** 9  # sentinel valuation for exact zero


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _val_int(n: int, p: int) -> int:
    if n == 0:
        return INF
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def as_rational(x) -> Fraction | int:
    """The exact rational point x: a Fraction or an int as it is, anything else
    through Fraction(x) (0.75, "5/9", a Decimal); DomainError where that fails."""
    if type(x) is Fraction or type(x) is int:
        return x
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise DomainError(f"{x!r} is not a rational point") from None


def shell_point(p: int, u: int, v: int, c: int = 0) -> Fraction | int:
    """The exact point c + u p^v from integers: an int when v >= 0, else one
    Fraction(c p^-v + u, p^-v), with no Fraction operator.  With c = 0 and u
    prime to p it is the point of unit u on the shell val = v; with c = -1,
    that of val(xi + 1) = v."""
    if v >= 0:
        return c + u * p ** v
    den = p ** -v
    return Fraction(c * den + u, den)


def q_power(q: int, e: int) -> float:
    """q^e as a float, by one int conversion or quotient: both round
    correctly, so this is float(Fraction(q) ** e) bit for bit, where
    float(q) ** e may differ in the last bit."""
    return float(q ** e) if e >= 0 else 1 / q ** -e


@lru_cache(maxsize=1 << 18)
def _rational_valuation_cached(num: int, den: int, p: int) -> int:
    """val(num/den), keyed on integers so that a hit hashes no Fraction."""
    if num == 0:
        return INF
    return _val_int(num, p) - _val_int(den, p)


def rational_valuation(x: Fraction | int, p: int) -> int:
    x = as_rational(x)
    return _rational_valuation_cached(x.numerator, x.denominator, p)


def unit_mod(x: Fraction, v: int, p: int, m: int) -> int:
    """x * p^-v mod p^m for any v <= val x: with v = val x the unit of x
    mod p^m, with v = 0 the residue of an x whose denominator is prime to p."""
    num, den, rest = x.numerator, x.denominator, 0
    if v > 0:
        num, rest = divmod(num, p ** v)
    elif v < 0:
        g = math.gcd(den, p ** -v)
        num, den = num * (p ** -v // g), den // g
    if rest or den % p == 0:
        raise DomainError(f"{x} * p^{-v} is not a p-adic integer")
    mod = p ** m
    return num * pow(den, -1, mod) % mod


@lru_cache(maxsize=200000)
def _root_of_unity(num: int, den: int) -> complex:
    # exp(2*pi*i*num/den) from the reduced rational angle, never by iterated powers
    if num % den == 0:
        return 1.0 + 0.0j
    return cmath.exp(2j * math.pi * num / den)


class LocalFieldCtx:
    """F = Q_p with p an odd prime; fixes psi and the measures.

    psi(x) = exp(2*pi*i*{x}) with {x} the standard p-adic fractional part, so the
    conductor of psi is exactly the ring of integers and dx is self-dual.
    """

    def __init__(self, p: int):
        if not is_prime(p) or p == 2:
            raise DomainError(f"p must be an odd prime, got {p}")
        self.p = p
        self.q = p

    # --- measure constants (Weil/Tamagawa normalization from o-integral forms) ---

    @property
    def vol_K(self) -> Fraction:
        """Haar volume of K = PGL2(o): |PGL2(F_q)|/q^3 = 1 - q^-2."""
        q = self.q
        return Fraction(q * q - 1, q * q)

    @property
    def vol_X2(self) -> Fraction:
        """Volume of (N\\G)(o): (q^2-1)/q^2."""
        return self.vol_K

    @property
    def vol_Ox(self) -> Fraction:
        """Multiplicative volume of o^x: 1 - q^-1."""
        return Fraction(self.q - 1, self.q)

    def vol_T_inert(self) -> Fraction:
        return Fraction(self.q + 1, self.q)

    def vol_X1(self, kind: str) -> Fraction:
        """Volume of (T\\PGL2)(o) by point count over F_q."""
        q = self.q
        if kind == "split":
            return Fraction(q + 1, q)
        if kind == "inert":
            return Fraction(q - 1, q)
        raise KindError(f"unknown kind {kind!r}")

    def psi_frac(self, frac: Fraction) -> complex:
        """exp(2*pi*i*frac) for an exact rational angle."""
        frac = Fraction(frac)
        num = frac.numerator % frac.denominator
        return _root_of_unity(num, frac.denominator)

    def check_float_power(self, e: int, what: str) -> None:
        """DomainError unless float(q) ** e cannot overflow: q^e <= the largest
        float, checked on logarithms before a huge e builds a big integer."""
        top = sys.float_info.max
        if e > 0 and (e * math.log(self.q) > math.log(top) + 1 or self.q ** e > top):
            raise DomainError(f"{what}: {self.q}^{e} exceeds the largest float")

    def __repr__(self) -> str:
        return f"LocalFieldCtx(p={self.p})"


# --- the fixed additive character -------------------------------------------------


def psi_frac_of_rational(ctx: LocalFieldCtx, x: Fraction | int) -> Fraction:
    """The p-adic fractional part of an exact rational."""
    x = as_rational(x)
    if x == 0:
        return Fraction(0)
    dp = _val_int(x.denominator, ctx.p)
    if dp == 0:
        return Fraction(0)
    return Fraction(unit_mod(x, -dp, ctx.p, dp), ctx.p ** dp)


def psi_eval_frac(ctx: LocalFieldCtx, x: Fraction | int) -> complex:
    return ctx.psi_frac(psi_frac_of_rational(ctx, x))


# --- quadratic extension ----------------------------------------------------------


def unit_reps(p: int, m: int) -> list[int]:
    """Representatives of the units of o/p^m, in increasing order."""
    return [u for u in range(1, p ** m) if u % p != 0]


def smallest_nonresidue(p: int) -> int:
    for u in range(2, p):
        if pow(u, (p - 1) // 2, p) == p - 1:
            return u
    raise DomainError("no quadratic nonresidue found (p=2?)")


class QuadExt:
    """Quadratic etale extension data: split F+F or inert F(sqrt(u))."""

    def __init__(self, ctx: LocalFieldCtx, kind: str):
        if kind not in ("split", "inert"):
            raise KindError(f"kind must be split or inert, got {kind!r}")
        self.ctx = ctx
        self.kind = kind
        self.u = smallest_nonresidue(ctx.p) if kind == "inert" else None

    def eta_of_val(self, v: int) -> int:
        """Quadratic character attached to E of any x in F^x with val x = v."""
        if self.kind == "split":
            return 1
        return -1 if v % 2 else 1

    def __repr__(self) -> str:
        return f"QuadExt({self.kind}, u={self.u})"


def sqrt_unit_mod(ctx: LocalFieldCtx, a: int, prec: int) -> int:
    """Square root of a unit square mod p^prec (p odd; Hensel from mod p)."""
    p = ctx.p
    a0 = a % p
    if pow(a0, (p - 1) // 2, p) != 1:
        raise DomainError("not a unit square")
    # Tonelli-Shanks is overkill for small p: brute the residue root
    r = next(x for x in range(1, p) if x * x % p == a0)
    m = p
    while m < p ** prec:
        m_next = min(m * m, p ** prec)
        r = (r - (r * r - a) * pow(2 * r, -1, m_next)) % m_next
        m = m_next
    return r % p ** prec


def padic_sqrt(ctx: LocalFieldCtx, x: Fraction, prec: int) -> Fraction:
    """A rational r with val(r^2 - x) >= val x + prec, for x a square in F."""
    x = as_rational(x)
    if x == 0:
        return Fraction(0)
    v = rational_valuation(x, ctx.p)
    if v % 2:
        raise DomainError("odd valuation: not a square")
    r = sqrt_unit_mod(ctx, unit_mod(x, v, ctx.p, prec), prec)
    return r * Fraction(ctx.p) ** (v // 2)


def is_rational_square(ctx: LocalFieldCtx, x: Fraction) -> bool:
    x = as_rational(x)
    v = rational_valuation(x, ctx.p)
    if v >= INF:
        return True
    if v % 2:
        return False
    return pow(unit_mod(x, v, ctx.p, 1), (ctx.p - 1) // 2, ctx.p) == 1
