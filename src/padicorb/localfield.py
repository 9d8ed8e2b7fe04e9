"""Exact arithmetic in F = Q_p (p odd) and its unramified quadratic extension.

Scalars are stored as valuation + unit residue at a tracked relative precision,
so every downstream engine can certify how many digits of an answer it actually
knows.  The additive character psi, the quadratic character eta, norms of the
quadratic extension and the Weil-measure constants all live here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, KindError, PrecisionError

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


@lru_cache(maxsize=1 << 18)
def _rational_valuation_cached(x: Fraction, p: int) -> int:
    if x == 0:
        return INF
    return _val_int(x.numerator, p) - _val_int(x.denominator, p)


def rational_valuation(x: Fraction | int, p: int) -> int:
    return _rational_valuation_cached(Fraction(x), p)


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


def exact_fraction(x) -> Fraction:
    """Exact rational representative of an argument point.

    PadicScalar inputs must carry enough digits to be meaningful as exact
    points (their stored representative is used); rationals pass through.
    """
    if isinstance(x, PadicScalar):
        if x.is_exact_zero():
            return Fraction(0)
        if x.unit == 0:
            raise PrecisionError("point is an inexact zero")
        if x.prec < 8:
            raise PrecisionError("point carries too few digits to use as exact input")
        return x.to_fraction_approx()
    return Fraction(x)


@lru_cache(maxsize=200000)
def _root_of_unity(num: int, den: int) -> complex:
    # exp(2*pi*i*num/den) from the reduced rational angle, never by iterated powers
    if num % den == 0:
        return 1.0 + 0.0j
    return cmath.exp(2j * math.pi * num / den)


class LocalFieldCtx:
    """F = Q_p with p an odd prime; fixes psi, the precision cap and measures.

    psi(x) = exp(2*pi*i*{x}) with {x} the standard p-adic fractional part, so the
    conductor of psi is exactly the ring of integers and dx is self-dual.
    """

    def __init__(self, p: int, precision_cap: int = 40):
        if not is_prime(p) or p == 2:
            raise DomainError(f"p must be an odd prime, got {p}")
        if precision_cap < 1:
            raise DomainError("precision cap must be >= 1")
        self.p = p
        self.q = p
        self.precision_cap = precision_cap

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

    # --- scalar constructors ---

    def scalar(self, x: Fraction | int, prec: int | None = None) -> "PadicScalar":
        return PadicScalar.from_rational(self, Fraction(x), prec)

    def zero(self) -> "PadicScalar":
        return PadicScalar(self, INF, 0, INF, exact_zero=True)

    def psi_frac(self, frac: Fraction) -> complex:
        """exp(2*pi*i*frac) for an exact rational angle."""
        frac = Fraction(frac)
        num = frac.numerator % frac.denominator
        return _root_of_unity(num, frac.denominator)

    def __repr__(self) -> str:
        return f"LocalFieldCtx(p={self.p}, cap={self.precision_cap})"


@dataclass(frozen=True)
class PadicScalar:
    """Element of Q_p: unit * p^val known to `prec` relative digits.

    Exact zero carries valuation INF.  An inexact zero (all known digits
    cancelled) keeps a lower bound on the valuation and no unit; asking such a
    value for its valuation or unit raises PrecisionError.
    """

    ctx: LocalFieldCtx
    val: int
    unit: int  # unit residue mod p^prec, coprime to p; 0 only for zeros
    prec: int
    exact_zero: bool = False

    # --- constructors ---

    @staticmethod
    def from_rational(ctx: LocalFieldCtx, x: Fraction | int, prec: int | None = None) -> "PadicScalar":
        x = Fraction(x)
        if prec is None:
            prec = ctx.precision_cap
        if x == 0:
            return ctx.zero()
        v = rational_valuation(x, ctx.p)
        return PadicScalar(ctx, v, unit_mod(x, v, ctx.p, prec), prec)

    # --- predicates / accessors ---

    def is_exact_zero(self) -> bool:
        return self.exact_zero

    def is_zero_like(self) -> bool:
        return self.unit == 0

    def valuation(self) -> int:
        if self.exact_zero:
            return INF
        if self.unit == 0:
            raise PrecisionError("valuation of an inexact zero is undetermined")
        return self.val

    def abs_exp(self) -> int:
        """|x| = q^abs_exp (None never returned; errors on undetermined)."""
        return -self.valuation()

    def unit_residue(self, digits: int | None = None) -> int:
        if self.unit == 0:
            raise PrecisionError("no unit residue available")
        if digits is None:
            return self.unit
        if digits > self.prec:
            raise PrecisionError(f"need {digits} digits, have {self.prec}")
        return self.unit % self.ctx.p ** digits

    def residue_mod(self, k: int) -> int:
        """The class of x in o/p^k; requires x integral and enough digits."""
        if self.exact_zero:
            return 0
        if self.unit == 0:
            if self.val >= k:  # known-small inexact zero
                return 0
            raise PrecisionError("residue of an inexact zero is undetermined")
        v = self.val
        if v < 0:
            raise DomainError("residue_mod needs an integral element")
        if v >= k:
            return 0
        if self.prec < k - v:
            raise PrecisionError(f"need {k - v} digits, have {self.prec}")
        return self.unit * self.ctx.p ** v % self.ctx.p ** k

    def fractional_part(self) -> Fraction:
        """The p-adic fractional part {x} in [0,1) with p-power denominator."""
        if self.exact_zero:
            return Fraction(0)
        if self.unit == 0:
            if self.val >= 0:
                return Fraction(0)
            raise PrecisionError("fractional part of an inexact zero near p^- is undetermined")
        if self.val >= 0:
            return Fraction(0)
        k = -self.val
        if self.prec < k:
            raise PrecisionError(f"fractional part needs {k} digits, have {self.prec}")
        m = self.ctx.p ** k
        return Fraction(self.unit % m, m)

    def to_fraction_approx(self) -> Fraction:
        """A rational representative agreeing with x to its full precision."""
        if self.exact_zero or self.unit == 0:
            return Fraction(0)
        return Fraction(self.unit) * Fraction(self.ctx.p) ** self.val

    # --- arithmetic (minimal correct precision propagation) ---

    def _coerce(self, other) -> "PadicScalar":
        if isinstance(other, PadicScalar):
            return other
        return PadicScalar.from_rational(self.ctx, Fraction(other))

    def __add__(self, other) -> "PadicScalar":
        b = self._coerce(other)
        a = self
        if a.exact_zero:
            return b
        if b.exact_zero:
            return a
        p = a.ctx.p
        # absolute precisions
        abs_a = a.val + a.prec
        abs_b = b.val + b.prec
        abs_out = min(abs_a, abs_b)
        v = min(a.val if a.unit else a.val, b.val if b.unit else b.val)
        if abs_out - v <= 0:
            return PadicScalar(a.ctx, abs_out, 0, 0)
        m = p ** (abs_out - v)
        lift = (a.unit * p ** (a.val - v) + b.unit * p ** (b.val - v)) % m
        if lift == 0:
            return PadicScalar(a.ctx, abs_out, 0, 0)  # inexact zero, val >= abs_out
        dv = _val_int(lift, p)
        u = lift // p ** dv
        prec_out = abs_out - (v + dv)
        return PadicScalar(a.ctx, v + dv, u % p ** prec_out, prec_out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "PadicScalar":
        if self.exact_zero or self.unit == 0:
            return self
        m = self.ctx.p ** self.prec
        return PadicScalar(self.ctx, self.val, (-self.unit) % m, self.prec)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "PadicScalar":
        b = self._coerce(other)
        a = self
        if a.exact_zero or b.exact_zero:
            return a.ctx.zero()
        if a.unit == 0 or b.unit == 0:
            # product of an inexact zero: valuation lower bounds add
            return PadicScalar(a.ctx, a.val + b.val, 0, 0)
        prec = min(a.prec, b.prec)
        m = a.ctx.p ** prec
        return PadicScalar(a.ctx, a.val + b.val, a.unit * b.unit % m, prec)

    def __rmul__(self, other):
        return self.__mul__(other)

    def inverse(self) -> "PadicScalar":
        if self.exact_zero:
            raise DomainError("inverse of zero")
        if self.unit == 0:
            raise PrecisionError("inverse of an inexact zero")
        m = self.ctx.p ** self.prec
        return PadicScalar(self.ctx, -self.val, pow(self.unit, -1, m), self.prec)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def shift(self, k: int) -> "PadicScalar":
        """Multiply by p^k."""
        if self.exact_zero:
            return self
        return PadicScalar(self.ctx, self.val + k, self.unit, self.prec, self.exact_zero)

    def __repr__(self) -> str:
        if self.exact_zero:
            return "0(exact)"
        if self.unit == 0:
            return f"O(p^{self.val})"
        return f"{self.unit}*p^{self.val} (+O(p^{self.val + self.prec}))"


# --- the fixed additive character -------------------------------------------------


def psi_eval(x: PadicScalar) -> complex:
    """psi(x) = exp(2*pi*i*{x}); conductor exactly o."""
    return x.ctx.psi_frac(x.fractional_part())


def psi_frac_of_rational(ctx: LocalFieldCtx, x: Fraction | int) -> Fraction:
    """The p-adic fractional part of an exact rational."""
    x = Fraction(x)
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

    def eta(self, x: PadicScalar | Fraction | int) -> int:
        """Quadratic character of F^x attached to E; +1/-1."""
        v = x.valuation() if isinstance(x, PadicScalar) else rational_valuation(Fraction(x), self.ctx.p)
        if v >= INF:
            raise DomainError("eta(0) undefined")
        if self.kind == "split":
            return 1
        return -1 if v % 2 else 1

    def eta_of_val(self, v: int) -> int:
        if self.kind == "split":
            return 1
        return -1 if v % 2 else 1

    def is_norm(self, x: PadicScalar | Fraction | int) -> bool:
        return self.eta(x) == 1

    def __repr__(self) -> str:
        return f"QuadExt({self.kind}, u={self.u})"


@dataclass(frozen=True)
class EElem:
    """Element a + b*sqrt(u) of the inert quadratic extension (exact rationals)."""

    ext: QuadExt
    a: Fraction
    b: Fraction

    def __post_init__(self):
        if self.ext.kind != "inert":
            raise KindError("EElem is the inert-extension element type")

    @property
    def u(self) -> int:
        return self.ext.u

    def conj(self) -> "EElem":
        return EElem(self.ext, self.a, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a - self.u * self.b * self.b

    def add(self, other: "EElem") -> "EElem":
        return EElem(self.ext, self.a + other.a, self.b + other.b)

    def mul(self, other: "EElem") -> "EElem":
        return EElem(
            self.ext,
            self.a * other.a + self.u * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def scale(self, c: Fraction | int) -> "EElem":
        return EElem(self.ext, self.a * c, self.b * c)

    def valuation_E(self) -> int:
        """val_E = val_F of the norm, halved (unramified: val_E(pi)=1)."""
        n = self.norm()
        if n == 0:
            va = rational_valuation(self.a, self.ext.ctx.p)
            vb = rational_valuation(self.b, self.ext.ctx.p)
            return min(va, vb)
        v = rational_valuation(n, self.ext.ctx.p)
        return v // 2 if v < INF else INF


def norm_E(ext: QuadExt, z) -> Fraction:
    """Norm map E -> F; split pairs multiply coordinatewise."""
    if ext.kind == "split":
        a, b = z
        return Fraction(a) * Fraction(b)
    if isinstance(z, EElem):
        return z.norm()
    a, b = z
    return Fraction(a) ** 2 - ext.u * Fraction(b) ** 2


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


def padic_sqrt(ctx: LocalFieldCtx, x: Fraction, prec: int) -> PadicScalar:
    """p-adic square root of an exact rational square class, if it exists."""
    v = rational_valuation(x, ctx.p)
    if v >= INF:
        return ctx.zero()
    if v % 2:
        raise DomainError("odd valuation: not a square")
    r = sqrt_unit_mod(ctx, unit_mod(x, v, ctx.p, prec), prec)
    return PadicScalar(ctx, v // 2, r, prec)


def is_rational_square(ctx: LocalFieldCtx, x: Fraction) -> bool:
    v = rational_valuation(x, ctx.p)
    if v >= INF:
        return True
    if v % 2:
        return False
    return pow(unit_mod(x, v, ctx.p, 1), (ctx.p - 1) // 2, ctx.p) == 1
