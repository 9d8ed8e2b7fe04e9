"""Window-plus-germ models of S(X), S(Z), S(W^s) and the transform G = F.iota.F.

The engine never truncates.  F f is a tuple of shell terms, one flat term per
window atom and one germ term per germ, each a closed form c(k) psi(b/y) on
the shells |y| = q^k, so G f evaluates at any regular point as one finite sum
of shell integrals

    K(a, b, k) = int_{|y|=q^k} psi(a y + b/y) dy

with explicit vanishing bounds (the truncation bound of the matching proof);
b = 0 gives the plain shell integral of psi(a y).  The sum is planned once per
shell val xi = v (`_shell_plan`): every shell integral that reads no digit of
the unit of xi folds into one constant, and what is left are Kloosterman and
Salie sums p^-m S(1, n; p^m), memoized once per (p, m, n).  An S(X) or S(Z)
element keeps its plans next to its shell terms (`_plans`), so the germ fit,
the window, the probes and the point values plan each shell once per element.
A window evaluates each shell's plan at every unit of its level; a point value
is the same plan at one unit.  Output windows, their levels and germ depths
are closed forms of the same terms, re-checked by residual fits and probes; a
germ read below its level raises WindowError.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import (
    DomainError,
    KindError,
    RepresentationError,
    UnsupportedAtomError,
    WindowError,
)
from .bruhat import (BruhatFn, MellinCharacter, _Frozen, _key_center, _laurent_to_rational,
                     _residue_key, mellin_component)
from .localfield import (
    INF,
    LocalFieldCtx,
    QuadExt,
    _val_int,
    as_rational,
    rational_valuation,
    sqrt_unit_mod,
    unit_reps,
)
from .rational import RationalFnT, geometric_tail, weighted_geometric_tail

# --- exact shell integrals ---------------------------------------------------------


@lru_cache(maxsize=1 << 18)
def _frac_unit_key(num: int, den: int, p: int) -> tuple[int, int, int]:
    """(val x, numerator, denominator) of the unit x p^-val(x) of x = num/den in
    lowest terms; (INF, 0, 1) for 0.  Keyed on integers: a hit hashes no Fraction."""
    if num == 0:
        return INF, 0, 1
    vn, vd = _val_int(num, p), _val_int(den, p)
    return vn - vd, num // p ** vn, den // p ** vd


def _val_and_unit_key(ctx: LocalFieldCtx, x) -> tuple[int, int, int]:
    """(valuation, unit numerator, unit denominator) of a rational: the integer
    form in which the shell integrals take their arguments."""
    x = as_rational(x)
    return _frac_unit_key(x.numerator, x.denominator, ctx.p)


_osc_cache: dict[tuple[int, int, int], complex] = {}


def _unit_shell_integral(ctx: LocalFieldCtx, m: int, n: int) -> complex:
    """p^-m S(1, n; p^m) = (1/p^m) sum over units u mod p^m of e((u + n/u) / p^m).

    It is the unit-shell sum p^-m S(A, B; p^m) of every pair A, B mod p^m with
    A or B a unit and A B = n mod p^m, since u -> u/A (or u -> B/u) turns
    S(A, B) into S(1, AB) (Iwaniec-Kowalski, Analytic Number Theory, 1.6);
    n = 0 is the Ramanujan sum, -1/p at m = 1 and 0 above.  For m >= 2 it is
    Salie's closed form (ibid., Lemma 12.3): 0 unless n is a square mod p, else
    p^(m/2) eps sum_{y^2 = n} (y/p)^m e(2y/p^m), eps = 1 or i as p^m = 1 or
    3 mod 4.  For m = 1 it is the direct sum over the p - 1 units.
    """
    p = ctx.p
    mod = p ** m
    if m >= 2:
        if pow(n, (p - 1) // 2, p) != 1:
            return 0j
        y = sqrt_unit_mod(ctx, n, m)
        eps = 1 if mod % 4 == 1 else 1j
        s = sum((1 if pow(r, (p - 1) // 2, p) == 1 else -1) ** m
                * cmath.exp(4j * math.pi * r / mod) for r in (y, mod - y))
        return eps * s / math.sqrt(mod)
    return sum(cmath.exp(2j * math.pi * ((u + n * pow(u, -1, p)) % p) / p)
               for u in range(1, p)) / p


def _unit_integral(ctx: LocalFieldCtx, m: int, n: int) -> complex:
    """p^-m S(1, n; p^m), memoized in `_osc_cache` under (p, m, n), 0 <= n < p^m."""
    key = (ctx.p, m, n)
    value = _osc_cache.get(key)
    if value is None:
        value = _osc_cache[key] = _unit_shell_integral(ctx, m, n)
    return value


def _shell_integral(ctx: LocalFieldCtx, a: tuple[int, int, int],
                    b: tuple[int, int, int], k: int) -> complex:
    """K(a, b, k) for a, b in the integer form of `_val_and_unit_key`.

    On the unit shell the parameters are A = a pi^-k and B = b pi^k, and the
    integrand is constant on cosets of 1 + p^m o^x, m = max(0, -val A, -val B).
    Vanishing bound: K = 0 when max(|A|, |B|) >= q^2 with |A| != |B|.
    Otherwise K is q^k times the shell volume (p - 1)/p at m = 0, and q^k times
    p^-m S(1, n; p^m) from `_unit_integral` at m >= 1, where n = A B mod p^m:
    the product of the units of a and b when val A = val B = -m, else 0 (the
    Ramanujan sum).
    """
    p = ctx.p
    va, an, ad = a
    vb, bn, bd = b
    vA = va - k if va < INF else INF
    vB = vb + k if vb < INF else INF
    m = max(0, -vA, -vB)
    if m == 0:
        return float(p) ** k * ((p - 1) / p)
    if vA != vB and m >= 2:
        return 0j
    mod = p ** m
    n = an * bn * pow(ad * bd, -1, mod) % mod if vA == vB else 0
    return float(p) ** k * _unit_integral(ctx, m, n)


def oscillatory_shell_integral(ctx: LocalFieldCtx, a, b, k: int) -> complex:
    """K(a,b,k) = int_{|y|=q^k} psi(a y + b/y) dy, exactly, for rational a, b."""
    return _shell_integral(ctx, _val_and_unit_key(ctx, a), _val_and_unit_key(ctx, b), k)


# --- germ data and their Fourier transforms ---------------------------------------


class Germ(NamedTuple):
    """f(x) = a + b*val(x) (split) or a + b*eta(x) (inert) on val(x) >= level.

    A tuple, so g[2] is the level."""

    a: complex
    b: complex
    level: int

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def eval(self, kind: str, v: int) -> complex:
        if v < self.level:
            raise WindowError("point outside the germ region")
        if kind == "split":
            return self.a + self.b * v
        return self.a + self.b * (-1) ** v


class _GermTransform(NamedTuple):
    """F(germ) is shellwise constant: `const` for val z >= -L, and the pure
    tail c_tail * sigma^k q^k for val z <= -(L+1), sigma = +1/-1 split/inert."""

    const: complex
    c_tail: complex
    L: int

    def signed_sum(self, lo: int, hi: int, sigma: int, q: int) -> complex:
        """Sum of sigma^k F(germ)(k) over the shells k = lo..hi: `const` times
        the sum of sigma^k on k >= -L, and c_tail times the sum of q^k below,
        where sigma^k cancels the tail's sign."""
        total = 0j
        a = max(lo, -self.L)
        if hi >= a:
            n = hi - a + 1
            total += self.const * (n if sigma > 0 else n % 2 * (-1) ** a)
        b = min(hi, -self.L - 1)
        if b >= lo:
            total += self.c_tail * (float(q) ** (b + 1) - float(q) ** lo) / (q - 1)
        return total


def _germ_transform(ctx: LocalFieldCtx, kind: str, g: Germ) -> _GermTransform:
    q = ctx.q
    L = g.level
    if kind == "split":
        const = g.a * float(q) ** (-L) + g.b * (
            L * float(q) ** (-L) + float(q) ** (-(L + 1)) / float(ctx.vol_Ox)
        )
        c_tail = g.b / float(ctx.vol_Ox)
    else:
        const = g.a * float(q) ** (-L) + g.b * (
            (-1) ** L * float(q) ** (-L)
            + 2 * (-1) ** (L + 1) * float(q) ** (-(L + 1)) / (1 + 1 / q)
        )
        c_tail = 2 * g.b / (1 + 1 / q)
    return _GermTransform(const, c_tail, L)


# --- elements ----------------------------------------------------------------------


def _check_kind(kind: str):
    if kind not in ("split", "inert"):
        raise KindError(f"kind must be split or inert, got {kind!r}")


# The one tolerance policy: every threshold of a builder is a tolerance times
# the `norm` of its input, the largest |coefficient| (`_norm`), so a builder
# is linear, rep(c f) = c rep(f), and a zero input makes every comparison exact.
_DROP = 1e-12  # a window value, or a value below the support, at most _DROP * norm is 0


def _norm(coefs) -> float:
    return max(map(abs, coefs), default=0.0)


def _certify(got: complex, want: complex, tol: float, what: str, norm: float):
    """The probe certificate |got - want| <= tol * max(norm, |want|)."""
    if abs(got - want) > tol * max(norm, abs(want)):
        raise RepresentationError(f"{what}: {got} vs {want}")


class SXElem(_Frozen):
    """Element of S(X): window on F^x plus the germ at 0."""

    _fields = ("ctx", "kind", "window", "germ0")

    def __init__(self, ctx: LocalFieldCtx, kind: str, window: BruhatFn, germ0: Germ):
        _check_kind(kind)
        self.__dict__.update(ctx=ctx, kind=kind, window=window, germ0=germ0)

    def eval(self, xi) -> complex:
        xi = as_rational(xi)
        v = rational_valuation(xi, self.ctx.p)
        if v >= INF:
            raise DomainError("S(X) elements live on F^x")
        if v >= self.germ0.level:
            return self.germ0.eval(self.kind, v) + self.window.eval(xi)
        return self.window.eval(xi)

    @cached_property
    def _terms(self) -> _Terms:
        """F f as the G engine reads it (`_shell_terms`), built once per element."""
        return _shell_terms(self.ctx, self.kind, self.window.entries, self.germ0, None)

    @cached_property
    def _plans(self) -> dict[int, _ShellPlan]:
        """G f's shell plans by shell val xi, each built on its first read (`_plan`)."""
        return {}


class SZElem(_Frozen):
    """Element of S(Z): window on F minus {0,-1}, germs at 0 and at -1.

    The germ at -1 is stored in the local coordinate zeta = xi + 1."""

    _fields = ("ctx", "kind", "window", "germ0", "germ_m1")

    def __init__(self, ctx: LocalFieldCtx, kind: str, window: BruhatFn, germ0: Germ,
                 germ_m1: Germ):
        _check_kind(kind)
        self.__dict__.update(ctx=ctx, kind=kind, window=window, germ0=germ0, germ_m1=germ_m1)

    def eval(self, xi) -> complex:
        xi = as_rational(xi)
        v = rational_valuation(xi, self.ctx.p)
        vz = rational_valuation(xi + 1, self.ctx.p)
        if v >= INF or vz >= INF:
            raise DomainError("irregular point")
        out = self.window.eval(xi)
        if v >= self.germ0.level:
            out += self.germ0.eval(self.kind, v)
        if vz >= self.germ_m1.level:
            out += self.germ_m1.eval(self.kind, vz)
        return out

    @cached_property
    def _terms(self) -> _Terms:
        """F f as the G engine reads it (`_shell_terms`), built once per element."""
        return _shell_terms(self.ctx, self.kind, self.window.entries, self.germ0, self.germ_m1)

    @cached_property
    def _plans(self) -> dict[int, _ShellPlan]:
        """G f's shell plans by shell val xi, each built on its first read (`_plan`)."""
        return {}


class KLTail(_Frozen):
    """C * KL(xi) for |xi| >= q^M, KL the Kloosterman germ at infinity."""

    _fields = ("C", "M")

    def __init__(self, C: complex, M: int):
        if M < 1:
            raise DomainError(f"the Kloosterman tail starts on |xi| > 1, got M = {M}")
        self.__dict__.update(C=C, M=M)


class SWElem(_Frozen):
    """Element of S(W^s): window, the |xi|^{s+1}-weighted germ at 0, KL tail.

    `zero_germ` is the germ of |xi|^{-(s+1)} f: on val(xi) >= its level, f adds
    |xi|^{s+1} zero_germ.eval(kind, val xi).
    """

    _fields = ("ctx", "kind", "s", "window", "zero_germ", "inf_tail")

    def __init__(self, ctx: LocalFieldCtx, kind: str, s: complex, window: BruhatFn,
                 zero_germ: Germ, inf_tail: KLTail):
        _check_kind(kind)
        self.__dict__.update(ctx=ctx, kind=kind, s=s, window=window, zero_germ=zero_germ,
                             inf_tail=inf_tail)

    def eval(self, xi) -> complex:
        xi = as_rational(xi)
        v = rational_valuation(xi, self.ctx.p)
        if v >= INF:
            raise DomainError("S(W) elements live on F^x")
        out = self.window.eval(xi)
        if v >= self.zero_germ.level:
            w = complex(self.ctx.q) ** (-v * (self.s + 1))
            out += w * self.zero_germ.eval(self.kind, v)
        if v <= -self.inf_tail.M:
            out += self.inf_tail.C * kloosterman_germ(self.ctx, xi)
        return out


def _certify_kl_tail(ctx: LocalFieldCtx, value, C: complex, shells, units,
                     tol: float, norm: float):
    """value(xi) == C * KL(xi) on the given tail shells and units."""
    for v in shells:
        for u in units:
            xi = Fraction(u) * Fraction(ctx.p) ** v
            _certify(value(xi), C * kloosterman_germ(ctx, xi), tol,
                     f"Kloosterman tail mismatch at {xi}", norm)


def kloosterman_germ(ctx: LocalFieldCtx, xi) -> complex:
    """KL(xi) = int_{|x|^2=|xi|} psi(xi/x - x) dx; zero on odd shells."""
    xi = as_rational(xi)
    v = rational_valuation(xi, ctx.p)
    if v >= 0:
        raise DomainError("the Kloosterman germ lives on |xi| > 1")
    if v % 2:
        return 0j
    ctx.check_float_power(-v // 2, f"the Kloosterman shell of val xi = {v}")
    return oscillatory_shell_integral(ctx, -1, xi, -v // 2)


# --- iota --------------------------------------------------------------------------


def iota_window(ext: QuadExt, f: BruhatFn) -> BruhatFn:
    """iota(f)(x) = eta(x)|x|^{-1} f(1/x) for a window away from 0 (exact):
    iota maps each entry's coset to one coset, so the entries map one by one."""
    if f.domain != "F":
        raise DomainError("iota acts on functions on F^x")
    entries = []
    for ((vc, res),), n, w in f.entries:
        if vc >= n:
            raise UnsupportedAtomError("window atom touches 0; iota needs F^x support")
        # the inverse of c + p^n o (n > val c) is 1/c + p^{n - 2 val c} o, keyed
        # (-val c, 1/res); |x|^{-1} = q^{-val c} and eta is constant on the shell
        w = w * ext.eta_of_val(vc) * float(Fraction(f.ctx.q) ** (-vc))
        entries.append((((-vc, pow(res, -1, f.ctx.p ** (n - vc))),), n - 2 * vc, w))
    return BruhatFn(f.ctx, "F", tuple(entries))


def iota_eval(ext: QuadExt, f_eval, xi) -> complex:
    xi = as_rational(xi)
    v = rational_valuation(xi, ext.ctx.p)
    if v >= INF:
        raise DomainError("iota at 0")
    ext.ctx.check_float_power(v, f"|xi|^-1 at val xi = {v}")
    return ext.eta_of_val(v) * float(Fraction(ext.ctx.q) ** v) * f_eval(Fraction(1) / xi)


# --- the transform engine ----------------------------------------------------------

# F = fourier(f) as the G engine reads it: on the shell |y| = q^k of the G
# integral, each term adds c(k) psi(b/y) to (F f)(1/y), b in the integer form
# of _val_and_unit_key.  A window term (vb, nb, first, c) is one entry
# w 1_{c0 + p^n o}: c(k) = c = w q^-n on k >= first = -n and 0 below, and
# b = -c0 of valuation vb = val c0 and unit nb, the unit of -c0 as an integer
# (minus the entry's key res mod p^(n - val c0)): the plan reads it mod p^m,
# with m = 1 on the top shell and m <= n - val c0 on the resonant shell
# k0 >= -n.  A germ term (b, first, ft) is the germ at 0 (b = 0,
# first = -level) or at -1 (b = 1, first = -INF, read on every shell):
# c(k) = ft(k) on k >= first and ft's pure tail below.
_WindowTerm = tuple[int, int, int, complex]
_GermTerm = tuple[tuple[int, int, int], int, _GermTransform]
_Terms = tuple[tuple[_WindowTerm, ...], tuple[_GermTerm, ...]]


def _shell_terms(ctx: LocalFieldCtx, kind: str, entries, germ0: Germ | None,
                 germ_m1: Germ | None) -> _Terms:
    """F = fourier(f) as the G engine reads it, as (window terms, germ terms):
    the window entry w 1_{c + p^n o}, keyed (val c, res), is the window term
    (val c, -res, -n, w q^-n), the germ at 0 the germ term (0, -L, F germ0)
    and the germ at -1 the germ term (1, -INF, F germ_m1)."""
    window = []
    for ((vc, res),), n, w in entries:
        if vc >= n:
            raise UnsupportedAtomError("window atom touches 0; G needs F^x support")
        window.append((vc, -res, -n, complex(w) * float(ctx.q) ** (-n)))
    germs = []
    if germ0 and not germ0.is_zero():
        germs.append((_val_and_unit_key(ctx, 0), -germ0.level,
                      _germ_transform(ctx, kind, germ0)))
    if germ_m1 and not germ_m1.is_zero():
        germs.append((_val_and_unit_key(ctx, 1), -INF, _germ_transform(ctx, kind, germ_m1)))
    return tuple(window), tuple(germs)


class _ShellPlan(NamedTuple):
    """G f on the shell val xi = v, as a function of the unit u of xi: const
    plus c q^k p^-m S(1, u nb; p^m) over the entries (m, nb, c, q^k), one per
    Kloosterman or Salie shell k = v + m of a term; `level` = max(1, largest m)
    is how many digits of u it reads."""

    const: complex
    entries: tuple[tuple[int, int, complex, float], ...]
    level: int

    def value(self, ctx: LocalFieldCtx, u: int) -> complex:
        p = ctx.p
        total = self.const
        for (m, nb, c, qk) in self.entries:
            total += c * (qk * _unit_integral(ctx, m, u * nb % p ** m))
        return total


def _shell_plan(ctx: LocalFieldCtx, kind: str, terms: _Terms, v: int) -> _ShellPlan:
    """The plan of G f = (F . iota . F f) on the shell val xi = v.

    A term adds sigma^k q^-k c(k) K(-xi, b, k) on the shells k >= first of
    the G integral, where q^-k (the measure of iota) cancels the volume q^k of
    the shell.  With A = -xi pi^-k and B = b pi^k, the bound of
    `_shell_integral` leaves the shells max(first, -val b - 1)..v + 1 and the
    resonant shell k0 = (v - val b)/2.  On k <= v, val A >= 0, so K reads no
    digit of the unit of xi: the volume (p - 1)/p where val B >= 0 and the
    Ramanujan sum where val B = -1.  At k = v + 1 (val A = -1) K is the
    Ramanujan sum when val B >= 0.  These, and the pure tail of the germ at 0,
    sum into `const` in closed form.  The Kloosterman and Salie shells,
    val A = val B = -m with m = k - v, stay as entries, in term order, with
    nb the unit of -b mod p^m.  val b = INF (the germ at 0) takes the volume
    and Ramanujan branches alone.

    Every range a window term reads starts at or above its `first`, where
    c(k) = c, so each piece is c times the integer sum of sigma^k over the
    range, taken inline; a germ term sums through `_GermTransform.signed_sum`.
    Each piece is (0j + c count) times its shell integral, as the germ terms
    give it, and an empty range adds nothing: `const` starts at +0j and so is
    never -0.0, so adding a zero would not change it.
    """
    p, q = ctx.p, ctx.q
    qf, pf = float(q), float(p)
    window, germs = terms
    inert = kind == "inert"
    sigma = -1 if inert else 1
    volume, ramanujan = (p - 1) / p, _unit_integral(ctx, 1, 0)
    const = 0j
    entries = []

    def read(m: int, nb: int, c: complex):
        # q^-k and the q^k of K stay apart, and the entries in term order: deep
        # windows then carry the rounding of the term-by-term sum, which decides
        # the atoms near the `_DROP` of `_window`
        k, mod = v + m, p ** m
        entries.append((m, nb % mod, c * qf ** (-k), pf ** k))

    for (vb, nb, first, c) in window:
        lo = first if first > -vb else -vb
        if v >= lo:
            n = v - lo + 1
            const += (0j + c * (n % 2 * (-1) ** lo if inert else n)) * volume
        k = -vb - 1
        if first <= k <= v:
            const += (0j + c * ((-1) ** k if inert else 1)) * ramanujan
        k = v + 1
        if k >= first and vb + k >= -1:
            top = 0j + c * ((-1) ** k if inert else 1)
            if vb + k >= 0:
                const += top * ramanujan
            else:
                read(1, -nb, top)
        if v + vb <= -4 and not (v - vb) % 2:  # the resonant shell k0 >= v + 2
            k = (v - vb) // 2
            if k >= first:
                read(k - v, -nb, 0j + c * ((-1) ** k if inert else 1))
    for (b, first, ft) in germs:
        vb, bn, bd = b
        if vb >= INF and v >= first - 1:
            # psi(b/y) = 1: the shells below `first` carry the pure tail, which
            # integrates to c_tail times their volume q^(first - 1)
            const += ft.c_tail * qf ** (first - 1)
        const += ft.signed_sum(max(first, -vb), v, sigma, q) * volume
        if first <= -vb - 1 <= v:
            const += ft.signed_sum(-vb - 1, -vb - 1, sigma, q) * ramanujan
        if v + 1 >= first and vb + v + 1 >= -1:
            top = ft.signed_sum(v + 1, v + 1, sigma, q)
            if vb + v + 1 >= 0:
                const += top * ramanujan
            else:
                read(1, -bn * pow(bd, -1, p), top)
        if vb < INF:
            k0, odd = divmod(v - vb, 2)
            if not odd and k0 >= max(first, v + 2):
                read(k0 - v, -bn * pow(bd, -1, p ** (k0 - v)), ft.signed_sum(k0, k0, sigma, q))
    # G carries the eta(xi) twist in the inert case: with the plain composition
    # F.iota.F the Mellin conjugation would land on eta*chi^-1 instead of
    # chi^-1, contradicting the E-side transform (checked against the torsor
    # functional equation).
    twist = -1.0 if inert and v % 2 else 1.0
    return _ShellPlan(twist * const, tuple((m, nb, twist * c, qk) for (m, nb, c, qk) in entries),
                      max([1] + [m for (m, _, _, _) in entries]))


def _plan(f: SXElem | SZElem, v: int) -> _ShellPlan:
    """The plan of G f on the shell val xi = v, built once per element and
    shell and kept in `f._plans`: the germ fit, the window, the probes and the
    pointwise values all read it from there."""
    plan = f._plans.get(v)
    if plan is None:
        plan = f._plans[v] = _shell_plan(f.ctx, f.kind, f._terms, v)
    return plan


def _g_value(f: SXElem | SZElem, xi: Fraction) -> complex:
    """G f(xi): the plan of the shell val xi at the unit of xi."""
    v, num, den = _val_and_unit_key(f.ctx, xi)
    if v >= INF:
        raise DomainError("G is evaluated on F^x")
    plan = _plan(f, v)
    mod = f.ctx.p ** plan.level
    return plan.value(f.ctx, num * pow(den, -1, mod) % mod)


def _support_bound(terms: _Terms) -> int:
    """G f less its Kloosterman tail vanishes on val(xi) < this bound: there each
    term's shell range is empty and its resonant shell lies below `first`."""
    window, germs = terms
    bounds = [min(max(first, -vb - 1) - 1, vb + 2 * first) for (vb, _, first, _) in window]
    bounds += [first - 1 for (_, first, _) in germs if first > -INF]  # the germ at 0
    return min(bounds, default=0)


def _germ_depth(terms: _Terms) -> int:
    """val(xi) >= this depth puts G f exactly in germ form (a' + b' val/eta)."""
    window, germs = terms
    depth = 2
    for (vb, _, first, _) in window:
        depth = max(depth, vb - 2 * first + 2, -vb + 2, -first + 2)
    for (_, first, ft) in germs:
        if first == -INF:  # the germ at -1
            depth = max(depth, ft.L + 2)
        else:  # the germ at 0
            depth = max(depth, first + 1)
    return depth


def _fit_germ(kind: str, values: dict[int, complex], norm: float) -> Germ:
    """Fit a + b*val (split) or a + b*eta (inert) to exact deep-shell values."""
    vs = sorted(values)
    if len(vs) < 4:
        raise RepresentationError("need at least four shells to certify a germ fit")
    v0, v1 = vs[0], vs[1]
    if kind == "split":
        b = (values[v1] - values[v0]) / (v1 - v0)
        a = values[v0] - b * v0
    else:
        if (v1 - v0) % 2 == 0:
            raise RepresentationError("inert germ fit needs both parities")
        e0, e1 = (-1) ** v0, (-1) ** v1
        b = (values[v0] - values[v1]) / (e0 - e1)
        a = values[v0] - b * e0
    g = Germ(a, b, vs[0])
    scale = max(norm, _norm(values.values()))
    for v in vs[2:]:
        pred = g.eval(kind, v)
        if abs(pred - values[v]) > 1e-9 * scale:
            raise RepresentationError(
                f"germ fit residual {abs(pred - values[v]):.2e} at val={v}"
            )
    return g


def _deep_germ(kind: str, value, depth: int, norm: float) -> Germ:
    """Germ on val >= depth fitted to value(1, v) on the shells depth..depth+3.

    value(u, v) is the function at the unit u on the shell v of the germ's
    coordinate; a germ region is unit-independent, so units 1 and 2 must agree
    on each fitted shell."""
    values = {}
    for v in range(depth, depth + 4):
        values[v] = value(1, v)
        _certify(value(2, v), values[v], 1e-9,
                 f"germ region not unit-independent at val={v}", norm)
    return _fit_germ(kind, values, norm)


def _value_atoms(ctx: LocalFieldCtx, center: int, v: int,
                 vals: dict[int, complex], level: int, norm: float) -> list:
    """Window entries of the values `vals` at the units u mod p^level on the
    shell center + (units)*p^v (center 0, or an integer with v >= 0), one per
    coset whose value exceeds _DROP * norm."""
    return [(((v, u) if center == 0 else
              _residue_key(0, center + u * ctx.p ** v, v + level, ctx.p),), v + level, w)
            for u, w in vals.items() if abs(w) > _DROP * norm]


def _elem_norm(f: SXElem | SZElem) -> float:
    """The norm of an S(X) or S(Z) element: its largest |window weight| or germ
    coefficient."""
    germs = (f.germ0, f.germ_m1) if isinstance(f, SZElem) else (f.germ0,)
    return _norm([w for _, _, w in f.window.entries] + [c for g in germs for c in g[:2]])


def _window(f: SXElem | SZElem, shells: range, norm: float, weighted: bool) -> BruhatFn:
    """Window of G f, or of |.|G f when `weighted`, on the given shells: each
    shell's plan evaluated at every unit coset of its level."""
    ctx = f.ctx
    entries = []
    for v in shells:
        plan = _plan(f, v)
        weight = float(ctx.q) ** (-v)
        vals = {u: weight * plan.value(ctx, u) if weighted else plan.value(ctx, u)
                for u in unit_reps(ctx.p, plan.level)}
        entries += _value_atoms(ctx, 0, v, vals, plan.level, norm)
    return BruhatFn(ctx, "F", tuple(entries))


def g_transform_SX(f: SXElem) -> SXElem:
    """G f for f in S(X); output is again an S(X) element (shape closure)."""
    ctx, kind = f.ctx, f.kind
    terms, norm = f._terms, _elem_norm(f)
    vmin = _support_bound(terms)
    depth = _germ_depth(terms)
    germ = _deep_germ(kind, lambda u, v: _g_value(f, u * Fraction(ctx.p) ** v), depth, norm)
    window = _window(f, range(vmin, depth), norm, weighted=False)
    out = SXElem(ctx, kind, window, germ)
    # representation guard: window+germ reproduces the engine at sample points
    for v in (vmin, depth - 1, depth + 1):
        x = Fraction(ctx.p) ** v
        _certify(out.eval(x), _g_value(f, x), 1e-8,
                 f"assembled S(X) element disagrees with the engine at {x}", norm)
    return out


def g_value_SX(f: SXElem, xi) -> complex:
    """Pointwise G f(xi) without assembling the output element."""
    return _g_value(f, xi)


def g_transform_Z_to_W(f: SZElem) -> SWElem:
    """|.|G f in S(W) with s = 0: the matching transform S(Z) -> S(W)."""
    ctx, kind = f.ctx, f.kind
    terms, norm = f._terms, _elem_norm(f)
    q = ctx.q

    depth = _germ_depth(terms)
    # germ of G f (before the |xi| factor)
    germ = _deep_germ(kind, lambda u, v: _g_value(f, u * Fraction(ctx.p) ** v), depth, norm)

    def abs_g_value(xi: Fraction) -> complex:  # (|.|G f)(xi)
        return float(q) ** (-rational_valuation(xi, ctx.p)) * _g_value(f, xi)

    # Kloosterman tail: the pure-tail constant of the -1 germ's transform,
    # certified on deep shells below the other terms' support, where the -1
    # germ's resonant shell lies in its pure tail
    g1 = [ft for (_, first, ft) in terms[1] if first == -INF]
    tail_val = min(-4, _support_bound(terms) - 1, *(-2 * (ft.L + 1) for ft in g1))
    C = g1[0].c_tail if g1 else 0j
    _certify_kl_tail(ctx, abs_g_value, C, (tail_val, tail_val - 2), (1,), 1e-8, norm)
    tail = KLTail(C, -tail_val)

    window = _window(f, range(tail_val + 1, depth), norm, weighted=True)
    return SWElem(ctx, kind, 0.0, window, germ, tail)


def g_value_Z_to_W(f: SZElem, xi) -> complex:
    """Pointwise (|.|G f)(xi)."""
    xi = as_rational(xi)
    v = rational_valuation(xi, f.ctx.p)
    f.ctx.check_float_power(-v, f"|xi| at val xi = {v}")
    return float(f.ctx.q) ** (-v) * _g_value(f, xi)


# --- singular-coefficient extractors ----------------------------------------------


def extract_O0(f: SXElem) -> complex:
    """O~_0 = (val-coefficient)/ln q, so that it multiplies -ln|xi|."""
    if f.kind != "split":
        raise KindError("O~_0/O~_u are the split extractors")
    return f.germ0.b / math.log(f.ctx.q)


def extract_Ou(f: SXElem) -> complex:
    if f.kind != "split":
        raise KindError("O~_0/O~_u are the split extractors")
    return f.germ0.a


def extract_O01(f: SXElem) -> complex:
    if f.kind != "inert":
        raise KindError("O~_{0,1}/O~_{0,kappa0} are the inert extractors")
    return f.germ0.a


def extract_O0kappa(f: SXElem) -> complex:
    if f.kind != "inert":
        raise KindError("O~_{0,1}/O~_{0,kappa0} are the inert extractors")
    return f.germ0.b


def ip_torus(f: SZElem) -> complex:
    """<f>: the log coefficient (split) / kappa_0 coefficient (inert) at xi=-1."""
    if f.kind == "split":
        return f.germ_m1.b / math.log(f.ctx.q)
    return f.germ_m1.b


def ip_kuz(f: SWElem) -> complex:
    """<f> = the Kloosterman tail constant."""
    return f.inf_tail.C


def sw_extract_O0_delta(f: SWElem) -> complex:
    """O~_{0,delta^{1/2}}(f) = O~_0(|.|^{-1} f): the val-part (split) / 1-part
    (inert) of the zero germ."""
    if f.kind == "split":
        return f.zero_germ.b / math.log(f.ctx.q)
    return f.zero_germ.a


def sw_extract_second(f: SWElem) -> complex:
    """O~_{u,delta^{1/2}} (split) / O~_{0,eta delta^{1/2}} (inert)."""
    if f.kind == "split":
        return f.zero_germ.a
    return f.zero_germ.b


# --- Mellin components of S(X) elements -------------------------------------------


def sx_mellin(f: SXElem, chi: MellinCharacter) -> RationalFnT:
    """f-check(chi)(t): the window's Laurent polynomial (`mellin_component`)
    plus the germ at 0, term by term on the shells above |x| = 1 and as
    geometric tails in q^-1/2 t from there on."""
    window = mellin_component(f.window, chi)
    g = f.germ0
    if g.is_zero():
        return window
    ctx = f.ctx
    qh = ctx.q ** 0.5
    vol = float(ctx.vol_Ox)
    head = {k: vol * chi.sign_of_val(k) * g.eval(f.kind, k) * qh ** (-k)
            for k in range(g.level, 0)}
    L0 = max(g.level, 0)
    x_plus = 1.0 / qh
    if f.kind == "split":
        # int over shell k: (a + b k) * vol; chi trivial only (eta=1 split)
        tails = geometric_tail(x_plus, L0), weighted_geometric_tail(x_plus, L0)
    else:
        s_par = 1.0 if chi.quadratic == "trivial" else -1.0
        # shell integral of (a + b*eta)*chi: (a + b(-1)^k) * s_par^k
        tails = geometric_tail(x_plus * s_par, L0), geometric_tail(-x_plus * s_par, L0)
    return window + (_laurent_to_rational(head) + tails[0].scale(g.a * vol)
                     + tails[1].scale(g.b * vol))


# --- serialization -----------------------------------------------------------------


def _atom_json(key: tuple[tuple[int, int]], level: int, coef: complex) -> list:
    """[unit residue, valuation, level, re, im] of a canonical window coset;
    the ball around 0 is [0, 0, level, re, im]."""
    v, res = key[0]
    if v == level:
        v = 0
    return [res, v, level, coef.real, coef.imag]


def _germ_json(g: Germ) -> dict:
    return {"tag": "germ", "a": [g.a.real, g.a.imag], "b": [g.b.real, g.b.imag],
            "level": g.level}


def element_to_json(elem) -> str:
    """JSON document for SX/SZ/SW elements (atoms as arrays, germs tagged)."""
    ctx = elem.ctx
    base = {"p": ctx.p, "kind": elem.kind,
            "atoms": [_atom_json(key, elem.window.level, w)
                      for key, w in elem.window.coset_table.items()]}
    if isinstance(elem, SXElem):
        base["type"] = "SX"
        base["germ0"] = _germ_json(elem.germ0)
    elif isinstance(elem, SZElem):
        base["type"] = "SZ"
        base["germ0"] = _germ_json(elem.germ0)
        base["germAtMinus1"] = _germ_json(elem.germ_m1)
    elif isinstance(elem, SWElem):
        base["type"] = "SW"
        base["s"] = [complex(elem.s).real, complex(elem.s).imag]
        base["zeroGerm"] = _germ_json(elem.zero_germ)
        base["infTail"] = {"tag": "kloosterman", "C": [elem.inf_tail.C.real,
                                                       elem.inf_tail.C.imag],
                           "M": elem.inf_tail.M}
    else:
        raise DomainError("unknown element type")
    return json.dumps(base, sort_keys=True)


def _json_int(x) -> int:
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an integer")
    return x


def _json_complex(x) -> complex:
    re, im = x
    if type(re) not in (int, float) or type(im) not in (int, float):
        raise ValueError(f"{x!r} is not a [re, im] pair of numbers")
    return complex(re, im)


def element_from_json(ctx: LocalFieldCtx, doc: str):
    """Inverse of element_to_json; a malformed document raises DomainError."""
    try:
        d = json.loads(doc)
        if _json_int(d["p"]) != ctx.p:
            raise DomainError("context prime mismatch")
        kind = d["kind"]
        if kind not in ("split", "inert"):
            raise ValueError(f"unknown kind {kind!r}")
        atoms = [(_key_center((_json_int(cv), _json_int(num)), ctx.p), _json_int(lev),
                  _json_complex((re, im))) for (num, cv, lev, re, im) in d["atoms"]]
        window = BruhatFn.from_atoms(ctx, "F", atoms)

        def germ_of(g):
            return Germ(_json_complex(g["a"]), _json_complex(g["b"]), _json_int(g["level"]))

        if d["type"] == "SX":
            return SXElem(ctx, kind, window, germ_of(d["germ0"]))
        if d["type"] == "SZ":
            return SZElem(ctx, kind, window, germ_of(d["germ0"]), germ_of(d["germAtMinus1"]))
        if d["type"] == "SW":
            tail = d["infTail"]
            return SWElem(ctx, kind, _json_complex(d["s"]), window, germ_of(d["zeroGerm"]),
                          KLTail(_json_complex(tail["C"]), _json_int(tail["M"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed element document: {exc!r}") from None
    raise DomainError("unknown element type tag")
