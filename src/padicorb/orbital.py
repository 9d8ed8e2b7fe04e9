"""Orbital integrals: baby case, torus quotient at group level, Kuznetsov.

All engines are exact finite sums.  Dual computational paths are kept strictly
independent: the closed Kuznetsov forms never call the direct Iwasawa engine,
the torus group engine never calls the baby chart engine, and the verification
harnesses (matching, fundamental lemma) compare the two sides pointwise.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple

from .errors import (
    DomainError,
    IrregularPointError,
    KindError,
    PoleError,
    RepresentationError,
    UnsupportedSectionError,
)
from .bruhat import BruhatFn, _Frozen, _residue_key, fourier_E, fourier_F2
from .groups import (
    HeckeElt,
    KSection,
    h_s_coeffs,
    hecke_to_coset_basis,
    l_factor_eval,
    whittaker_eval,
)
from .localfield import (
    INF,
    LocalFieldCtx,
    QuadExt,
    _val_int,
    as_rational,
    rational_valuation,
    shell_point,
    smallest_nonresidue,
    sqrt_unit_mod,
    unit_mod,
    unit_reps,
)
from .spaces import (
    Germ,
    KLTail,
    SWElem,
    SXElem,
    SZElem,
    _DROP,
    _certify,
    _certify_kl_tail,
    _deep_germ,
    _norm,
    _value_atoms,
    g_value_Z_to_W,
    g_transform_Z_to_W,
    ip_kuz as ip_kuz_elem,  # re-exported: perfbench/worker.py calls both
    ip_torus as ip_torus_elem,
    kloosterman_germ,
    kloosterman_germ as kloosterman,  # re-exported in padicorb.__all__
    oscillatory_shell_integral,
)

# --- baby-case orbital integrals ---------------------------------------------------


def o_baby_split(phi: BruhatFn, xi) -> complex:
    """O_xi(Phi) = int_{F^x} Phi(a*xi, 1/a) d^x a for Phi on F^2, exact.

    a = u p^n runs shell by shell; a shell whose valuation pair is not among
    `BruhatFn.coset_valuations` holds no coset of Phi and is skipped.  A
    coordinate at val v < level L reads its unit mod p^k, k = L - v, and the
    units mod p^m in increasing order run through the units mod p^k in order,
    p^(m - k) times: so each coordinate's residues are one row of
    `_unit_row(p, k)` repeated, and the sum adds hit * mass over the units in
    increasing order."""
    if phi.domain != "F2":
        raise DomainError("o_baby_split expects data on F^2 = V x V*")
    xi = as_rational(xi)
    ctx = phi.ctx
    vxi = rational_valuation(xi, ctx.p)
    if vxi >= INF:
        raise IrregularPointError("xi = 0 is the irregular point")
    if phi.is_zero():
        return 0j
    p, table, vals = ctx.p, phi.coset_table, phi.coset_valuations
    lvl, rad = phi.level, max(phi.axis_radii)
    # a = u p^n: a*xi has valuation n + vxi and unit u*xu, 1/a has -n and 1/u
    xu = unit_mod(xi, vxi, p, max(1, lvl + rad))
    ball = (lvl, 0)
    total = 0j
    # contributing valuations: |a xi| <= q^rad and |1/a| <= q^rad
    for n in range(-rad - vxi, rad + 1):
        # both coordinates are units at val n + vxi and -n: a coordinate at
        # val >= lvl keys the ball, any other its unit mod p^(lvl - val)
        v1, v2 = n + vxi, -n
        if (min(v1, lvl), min(v2, lvl)) not in vals:
            continue
        m = max(1, lvl - v1, lvl + n)
        mass = float(ctx.q) ** (-m)
        if v1 < lvl:
            k = lvl - v1
            mod1 = p ** k
            first = [(v1, u * xu % mod1) for u in _unit_row(p, k)[0]] * p ** (m - k)
        else:
            first = itertools.repeat(ball, (p - 1) * p ** (m - 1))
        if v2 < lvl:
            k = lvl - v2
            second = list(zip(itertools.repeat(v2), _unit_row(p, k)[1])) * p ** (m - k)
        else:
            second = itertools.repeat(ball)
        for hit in map(table.get, zip(first, second)):
            if hit is not None:
                total += hit * mass
    return total


def split_germ_data(phi: BruhatFn) -> Germ:
    """Exact germ O~_u + b*val(xi) of the split baby orbital, b = Vol(T(F)_0)
    Phi(0) (O~_0 = b / ln q), read off the deep terms of `split_image`."""
    return split_image(phi).germ("split")


class BabyInput(_Frozen):
    """Inert baby data: a pair of functions on E and on the torsor E^alpha.

    Both components are stored in pullback coordinates on E = F + F*sqrt(u);
    the torsor carries the scale a0 = N(e) (an odd-valuation element).
    """

    _fields = ("ext", "phi0", "phi_alpha")

    def __init__(self, ext: QuadExt, phi0: BruhatFn, phi_alpha: BruhatFn):
        # phi0 on E, phi_alpha on E^alpha (pullback data)
        if ext.kind != "inert":
            raise KindError("BabyInput is the inert-case container")
        self.__dict__.update(ext=ext, phi0=phi0, phi_alpha=phi_alpha)


def torsor_scale(ctx: LocalFieldCtx) -> Fraction:
    """The fixed norm N(e) of the torsor base point: the uniformizer."""
    return Fraction(ctx.p)


def norm_one_reps(ext: QuadExt, m: int) -> list[tuple[int, int]]:
    """Representatives of T(F) mod the level-m congruence subgroup.

    Hilbert-90 parametrization: t = z/conj(z) over primitive (x:y) in
    P^1(o/p^m), giving exactly q^(m-1)(q+1) pairs (a, b) mod p^m with
    a^2 - u b^2 = 1; each carries Haar mass q^-m out of Vol(T(F)) = 1 + 1/q.
    """
    p, u = ext.ctx.p, ext.u
    mod = p ** m
    out = []
    seen = set()
    pts = [(1, y) for y in range(mod)] + [(p * x, 1) for x in range(mod // p)]
    for (x, y) in pts:
        n = (x * x - u * y * y) % mod
        inv = pow(n, -1, mod)
        a = (x * x + u * y * y) * inv % mod
        b = 2 * x * y * inv % mod
        if (a, b) not in seen:
            seen.add((a, b))
            out.append((a, b))
    if len(out) != p ** (m - 1) * (p + 1):
        raise RepresentationError("norm-one enumeration miscounted")
    return out


@lru_cache(maxsize=None)
def _norm_one(p: int, m: int) -> list[tuple[int, int]]:
    """`norm_one_reps` of the inert extension of Q_p, which p alone fixes."""
    return norm_one_reps(QuadExt(LocalFieldCtx(p), "inert"), m)


@lru_cache(maxsize=None)
def _unit_row(p: int, k: int) -> tuple[list[int], list[int]]:
    """The units mod p^k in increasing order, and their inverses mod p^k in
    the same order."""
    units = unit_reps(p, k)
    mod = p ** k
    return units, [pow(u, -1, mod) for u in units]


def norm_lift(ext: QuadExt, target: Fraction, prec: int) -> tuple[int, int]:
    """Integer residues (a, b) mod p^prec of some z in E with N(z) = target,
    target of even valuation, scaled to a unit by p^(-val(target)/2):
    a^2 - u b^2 = unit of target mod p^prec.

    b is the least residue with unit + u b^2 a unit square (the test reads b
    mod p only), and a is the Hensel square root of that unit.
    """
    p, u = ext.ctx.p, ext.u
    v = rational_valuation(target, p)
    if v % 2:
        raise DomainError("target is not a norm (odd valuation)")
    t = unit_mod(target, v, p, prec)
    for b in range(p):
        cand = (t + u * b * b) % p ** prec
        if cand % p and pow(cand, (p - 1) // 2, p) == 1:
            return sqrt_unit_mod(ext.ctx, cand, prec), b
    raise RepresentationError("norm lift search failed")


def o_baby_nonsplit(inp: BabyInput, xi) -> complex:
    """O_xi over T(F) on the copy whose norm class contains xi; 0 on the other."""
    ext = inp.ext
    ctx = ext.ctx
    xi = as_rational(xi)
    vxi = rational_valuation(xi, ctx.p)
    if vxi >= INF:
        raise IrregularPointError("xi = 0 is the irregular point")
    if vxi % 2 == 0:
        data, target = inp.phi0, xi
    else:  # xi over the torsor scale p, read off xi's integers
        data, target = inp.phi_alpha, Fraction(xi.numerator, xi.denominator * ctx.p)
    if data.is_zero():
        return 0j
    p, table, level = ctx.p, data.coset_table, data.level
    w = rational_valuation(target, p) // 2
    if w < -max(data.axis_radii):
        return 0j  # every z t has val w, outside the support
    # z = p^w (ia + ib sqrt(u)); the keys of z*t need ia, ib and t mod
    # p^(level - w), so T(o) is enumerated at that level, each class with mass q^-m
    m = max(level - w, 1)
    mod = p ** m
    ia, ib = norm_lift(ext, target, m)
    total = 0j
    mass = float(ctx.q) ** (-m)
    ub = ext.u * ib % mod
    # both coordinates of z*t are res p^w for a residue res mod p^(level - w)
    key = [_residue_key(w, res, level, p) for res in range(mod)]
    pairs = [(key[(ia * ta + ub * tb) % mod], key[(ia * tb + ib * ta) % mod])
             for (ta, tb) in _norm_one(p, m)]
    for hit in map(table.get, pairs):
        if hit is not None:
            total += hit * mass
    return total


def nonsplit_germ_data(inp: BabyInput) -> Germ:
    """Exact germ C1 + C2*eta(xi) of the inert baby orbital, C1 and C2 the half
    sum and half difference of Vol(T(F)) Phi(0) on the two copies, read off
    the deep terms of `nonsplit_image`."""
    return nonsplit_image(inp).germ("inert")


def _baby_ctx(kind: str, data) -> LocalFieldCtx:
    """The field of baby data of `kind`: a BruhatFn when split, a BabyInput
    when inert, else KindError."""
    if kind == "split" and isinstance(data, BruhatFn):
        return data.ctx
    if kind == "inert" and isinstance(data, BabyInput):
        return data.ext.ctx
    raise KindError(f"{type(data).__name__} is not baby data of kind {kind!r}")


def baby_orbital(kind: str, data, xi) -> complex:
    _baby_ctx(kind, data)
    if kind == "split":
        return o_baby_split(data, xi)
    return o_baby_nonsplit(data, xi)


def baby_support_floor(kind: str, data) -> int:
    """Sharp lower bound on val(xi) over the support of the baby orbital."""
    if kind == "split":
        return -sum(data.axis_radii)
    floors = [0]
    if not data.phi0.is_zero():
        floors.append(-2 * max(data.phi0.axis_radii))
    if not data.phi_alpha.is_zero():
        floors.append(1 - 2 * max(data.phi_alpha.axis_radii))
    return min(floors)


def sx_from_baby(data, kind: str) -> SXElem:
    """S(X) element (window + exact germ at 0) of the baby orbital of `data`.

    Each shell's values and level, and the germ, come from the closed-form
    `chart_image`; the germ starts at its certified onset
    (`_certified_onset`), and the probes and the floor certificate check the
    element against the pointwise `baby_orbital`.
    """
    ctx = _baby_ctx(kind, data)

    def raw(xi):
        return baby_orbital(kind, data, xi)

    p = ctx.p
    level = _FIRST_LEVEL
    lo = baby_support_floor(kind, data)
    image = chart_image(kind, data)
    germ = image.germ(kind)
    charts = ((image, 1, 0),)
    shells = {v: _image_shell(ctx, charts, 0, v) for v in range(lo, germ.level)}
    germ = _certified_onset(kind, germ, shells)
    entries = [e for v in range(lo, germ.level)
               for e in _value_atoms(ctx, 0, v, *shells[v], image.norm)]
    out = SXElem(ctx, kind, BruhatFn(ctx, "F", tuple(entries)), germ)
    for x in (shell_point(p, 1 + p ** level, 0), shell_point(p, 1, germ.level + 1),
              shell_point(p, 2, germ.level), shell_point(p, 1 + p ** level, -1)):
        _certify(out.eval(x), raw(x), 1e-9, f"S(X) representation mismatch at {x}", image.norm)
    _certify_floor(ctx, raw, lo, image.norm)
    return out


def fourier_baby(data, kind: str):
    """Fourier transform of baby data: 2D transform on F^2, or componentwise
    (E, E^alpha) with the hermitian kernels and the torsor scale."""
    _baby_ctx(kind, data)
    if kind == "split":
        return fourier_F2(data)
    ext = data.ext
    ctx = ext.ctx
    hat0 = fourier_E(data.phi0, ext)
    hat = fourier_E(BruhatFn(ctx, "Ealpha", data.phi_alpha.entries, torsor_scale(ctx)), ext)
    return BabyInput(ext, hat0, BruhatFn.from_table(ctx, "E", hat.level, hat.coset_table))


# --- chart orbitals in closed form ---------------------------------------------------


class ChartImage(NamedTuple):
    """A baby orbital in closed form, the pushforward of its chart's coset table.

    On the shell val x = v its value at a unit u of x is the sum of
    c (v - first)^n over the `deep` terms (first, step, n) -> c with
    v = first, first + step, ..., plus, for each k in `units[v]`, the weight
    of u mod p^k there: u needs to be known mod p^`level(v)`.  `norm` is the
    largest |weight| of the chart's coset table(s).
    """

    p: int
    units: dict[int, dict[int, dict[int, complex]]]  # v -> k -> unit mod p^k -> weight
    deep: dict[tuple[int, int, int], complex]
    norm: float

    def level(self, v: int) -> int:
        return max(self.units.get(v, ()), default=0)

    def germ(self, kind: str) -> Germ:
        """The image as a + b val (split) or a + b eta (inert), exact from the
        first shell past every unit shell and every deep term's first shell.
        Split, the deep terms c (v - first)^n give a = sum c_0 - sum c_1 first
        and b = sum c_1; inert, a and b are the half sum and half difference
        of the constants on the even and on the odd shells."""
        level = 1 + max([*self.units, *(first for first, _, _ in self.deep)], default=0)
        deep = self.deep.items()
        if kind == "split":
            a = sum((c if n == 0 else -c * first for (first, _, n), c in deep), 0j)
            return Germ(a, sum((c for (_, _, n), c in deep if n == 1), 0j), level)
        even = sum((c for (first, _, _), c in deep if first % 2 == 0), 0j)
        odd = sum((c for (first, _, _), c in deep if first % 2), 0j)
        return Germ((even + odd) / 2, (even - odd) / 2, level)

    def value(self, v: int, u: int) -> complex:
        total = 0j
        for (first, step, n), c in self.deep.items():
            if v >= first and (v - first) % step == 0:
                total += c * (v - first) ** n
        for k, weights in self.units.get(v, {}).items():
            total += weights.get(u % self.p ** k, 0j)
        return total

    def coset_value(self, v: int, u: int, digits: int) -> complex | None:
        """The value on the units = u mod p^digits of the shell v, or None
        where it takes more than one value there (`_same_value`)."""
        k = self.level(v)
        if k <= digits:
            return self.value(v, u)
        step = self.p ** digits
        first = self.value(v, u)
        for t in range(1, self.p ** (k - digits)):
            if not _same_value(self.value(v, u + t * step), first):
                return None
        return first


def _add(table: dict, key, w: complex):
    table[key] = table.get(key, 0j) + w


def split_image(phi: BruhatFn) -> ChartImage:
    """`o_baby_split` of phi in closed form, from phi's coset table at level L.

    The coset with keys (v1, r1), (v2, r2) meets {(a xi, 1/a)} in a set of
    d^x a-volume read off the keys:
      - v1, v2 < L, k_i = L - v_i: q^-max(k) when xi has val v1 + v2 and unit
        r1 r2 mod p^min(k), else empty;
      - one key (L, 0) (the ball around 0), the other v < L: q^-(L - v) on
        every shell val xi >= L + v;
      - both (L, 0): (1 - 1/q) max(0, val xi - 2L + 1), one unit shell of a
        for each val a in L - val xi .. -L.
    """
    ctx, L = phi.ctx, phi.level
    p, q = ctx.p, float(ctx.q)
    units: dict = {}
    deep: dict = {}
    for ((v1, r1), (v2, r2)), w in phi.coset_table.items():
        if v1 < L and v2 < L:
            k1, k2 = L - v1, L - v2
            k = min(k1, k2)
            _add(units.setdefault(v1 + v2, {}).setdefault(k, {}), r1 * r2 % p ** k,
                 w * q ** -max(k1, k2))
        elif v1 < L or v2 < L:
            v = min(v1, v2)
            _add(deep, (L + v, 1, 0), w * q ** (v - L))
        else:
            _add(deep, (2 * L - 1, 1, 1), w * ((p - 1) / p))  # float(ctx.vol_Ox)
    return ChartImage(p, units, deep, _norm(phi.coset_table.values()))


def nonsplit_image(inp: BabyInput) -> ChartImage:
    """`o_baby_nonsplit` of inp in closed form, from the coset tables of phi0
    (even shells, target xi) and phi_alpha (odd shells, target xi/p: the
    torsor scale is p, so the target keeps the unit of xi).

    A coset with keys (v1, r1), (v2, r2) at level L is z0 + p^L O_E with
    z0 = p^w (a + b sqrt(u)), w = min(v1, v2).  When w < L, k = L - w, the
    orbit z T(F) of N(z) = target meets z0 (1 + p^k O_E) in volume q^-k when
    target lies in N(z0)(1 + p^k o), else not at all; the ball p^L O_E holds
    all of z T(F), of volume 1 + 1/q, once val target >= 2L.
    """
    ext = inp.ext
    ctx, u = ext.ctx, ext.u
    p, q = ctx.p, float(ctx.q)
    units: dict = {}
    deep: dict = {}
    for parity, data in ((0, inp.phi0), (1, inp.phi_alpha)):
        L = data.level
        for ((v1, r1), (v2, r2)), w in data.coset_table.items():
            wv = min(v1, v2)
            if wv >= L:
                _add(deep, (2 * L + parity, 2, 0), w * ((p + 1) / p))  # vol T(F)
                continue
            k = L - wv
            a, b = r1 * p ** (v1 - wv), r2 * p ** (v2 - wv)  # a key (L, 0) has r = 0
            _add(units.setdefault(2 * wv + parity, {}).setdefault(k, {}),
                 (a * a - u * b * b) % p ** k, w * q ** -k)
    tables = (inp.phi0.coset_table, inp.phi_alpha.coset_table)
    return ChartImage(p, units, deep, _norm(w for t in tables for w in t.values()))


def chart_image(kind: str, data) -> ChartImage:
    if kind == "split":
        return split_image(data)
    return nonsplit_image(data)


def _image_shell(ctx: LocalFieldCtx, charts, center: int, v: int, cut: int | None = None):
    """The values of the sum of image(s x + t) over the charts (image, s, t)
    at the units u of the shell x = center + u p^v (center an integer, 0 when
    v < 0), and their level.

    The level is the first from `_FIRST_LEVEL` on which every chart image is
    constant on every coset (`ChartImage.coset_value`).  With `cut`, the units
    with val(x + 1) >= min(level, cut) are left out.
    """
    p = ctx.p
    m = min(v, 0)  # x p^-m is an integer

    def key(c: int, s: int, u: int, n: int) -> tuple[int, int]:
        # the `_coset_key` at level n of c + s u p^v
        return _residue_key(m, (c * p ** -m + s * u * p ** (v - m)) % p ** (n - m), n, p)

    def value(u: int, n: int) -> complex | None:
        # the sum over the charts on the coset of x = center + u p^v at level n
        total = 0j
        for image, s, t in charts:
            va, res = key(s * center + t, s, u, n)
            if va >= n:
                raise RepresentationError(f"window coset at val {v} holds an irregular point")
            w = image.coset_value(va, res, n - va)
            if w is None:
                return None
            total += w
        return total

    for level in itertools.count(_FIRST_LEVEL):
        n = v + level
        vals = {}
        for u in unit_reps(p, level):
            if cut is None or key(center + 1, 1, u, n)[0] < min(level, cut):
                vals[u] = value(u, n)
                if vals[u] is None:
                    break
        else:
            return vals, level


# --- S(Z) from the two charts ------------------------------------------------------


# The unit level of every torus window shell, where each kept coset lies in one
# valuation class (`_class_shell`), and the first level tried on a chart shell
_FIRST_LEVEL = 2


_ONSET_RTOL = 1e-13  # two values are the same: exact, or within rounding


def _same_value(a: complex, b: complex) -> bool:
    return a == b or abs(a - b) <= _ONSET_RTOL * max(abs(a), abs(b))


def _certified_onset(kind: str, germ: Germ, shells: dict[int, tuple[dict, int]]) -> Germ:
    """`germ` lowered to its certified onset: the lowest level down to which
    the function is the germ's formula.

    `shells` maps the valuations of the germ coordinate that may join the germ
    to their (values, level) table, from `_image_shell` or `_class_shell`:
    the value of every certified coset, not only the kept atoms, so a germ
    value of 0 joins too.  Walking outward from the germ, a shell whose every
    value is the formula there (`_same_value`: exactly, or up to
    `_ONSET_RTOL` relative with no absolute floor) joins the germ and
    lowers its level by one; the first shell that differs, or is missing, ends
    the walk.  The coefficients do not change, and the consumers' probes
    certify the lowered germ again.
    """
    level = germ.level
    while level - 1 in shells:
        want = Germ(germ.a, germ.b, level - 1).eval(kind, level - 1)
        if not all(_same_value(w, want) for w in shells[level - 1][0].values()):
            break
        level -= 1
    return Germ(germ.a, germ.b, level)


def _certify_floor(ctx: LocalFieldCtx, raw, lo: int, norm: float):
    """Support certificate: raw vanishes (up to _DROP * norm) on the two shells
    below the window floor, one of each parity (a support may skip a parity)."""
    for v in (lo - 1, lo - 2):
        for u in (1, ctx.p - 1):
            if abs(raw(shell_point(ctx.p, u, v))) > _DROP * norm:
                raise RepresentationError("window floor too high; support leaked")


def _assemble_sz(ctx: LocalFieldCtx, kind: str, raw, germ0: Germ, germ_m1: Germ,
                 lo: int, shell, norm: float) -> SZElem:
    """Window atoms on regions disjoint from both germ neighborhoods.

    `shell(center, v, cut)` gives the (values, level) table of the shell
    center + (units)*p^v, leaving out the units with val(xi + 1) >=
    min(level, cut) when cut is not None.  The coset of -1 inside the unit
    shell is so left out and covered instead by zeta-shell atoms (zeta = xi+1)
    down to the germ level at -1.  Each germ then starts at its certified onset
    (`_certified_onset`): the germ at 0 takes shells down to val 1, the germ at
    -1 zeta-shells down to the cut of the unit shell.  The probes and the
    floor certificate check the element against `raw`.
    """
    xi_shells = {v: shell(0, v, germ_m1.level if v == 0 else None)
                 for v in range(lo, germ0.level)}
    zeta_cut = min(xi_shells[0][1], germ_m1.level) if 0 in xi_shells else germ_m1.level
    zeta_shells = {vz: shell(-1, vz, None) for vz in range(zeta_cut, germ_m1.level)}
    germ0 = _certified_onset(kind, germ0, {v: s for v, s in xi_shells.items() if v > 0})
    germ_m1 = _certified_onset(kind, germ_m1, zeta_shells)
    entries = [e for v in range(lo, germ0.level)
               for e in _value_atoms(ctx, 0, v, *xi_shells[v], norm)]
    entries += [e for vz in range(zeta_cut, germ_m1.level)
                for e in _value_atoms(ctx, -1, vz, *zeta_shells[vz], norm)]
    out = SZElem(ctx, kind, BruhatFn(ctx, "F", tuple(entries)), germ0, germ_m1)
    _certify_sz(out, raw, lo, norm)
    return out


def _sz_germ(kind: str, image: ChartImage, other: ChartImage) -> Germ:
    """The germ of f at the irregular point of `image`'s chart: that chart's
    germ plus the other chart's value there.  The other chart reads a unit
    = -1 mod p^val, constant once val >= k = other.level(0), so the germ
    starts no lower than max(its own level, k, 1)."""
    own = image.germ(kind)
    return Germ(own.a + other.value(0, -1), own.b, max(own.level, other.level(0), 1))


def sz_from_charts(phi1, phi2, kind: str) -> SZElem:
    """f(xi) = O^baby(phi2)(xi) + O^baby(phi1)(-1-xi), window plus exact germs.

    phi1 carries the germ at -1 (the diagonal chart), phi2 the germ at 0.  The
    window's shells and both germs come from the closed-form `chart_image` of
    both charts; only `_certify_sz` reads the pointwise `baby_orbital`.
    """
    ctx = _baby_ctx(kind, phi1)
    _baby_ctx(kind, phi2)
    image2, image1 = chart_image(kind, phi2), chart_image(kind, phi1)
    lo = min(baby_support_floor(kind, phi2), baby_support_floor(kind, phi1)) - 1

    def raw(xi) -> complex:
        # -1 - xi off xi's integers: an int xi stays an int
        num, den = xi.numerator, xi.denominator
        x1 = -num - 1 if den == 1 else Fraction(-num - den, den)
        return baby_orbital(kind, phi2, xi) + baby_orbital(kind, phi1, x1)

    # chart 2 reads xi, chart 1 reads -1 - xi
    charts = ((image2, 1, 0), (image1, -1, -1))
    return _assemble_sz(ctx, kind, raw, _sz_germ(kind, image2, image1),
                        _sz_germ(kind, image1, image2), lo,
                        partial(_image_shell, ctx, charts), max(image1.norm, image2.norm))


def _certify_sz(f: SZElem, raw, lo: int, norm: float):
    p = f.ctx.p
    level = _FIRST_LEVEL
    z0, g0 = f.germ_m1.level, f.germ0.level
    probes = [shell_point(p, 1 + p ** level, v) for v in (-1, 0, 1)]
    probes += [shell_point(p, 1, g0 + 1), shell_point(p, 2, g0),
               shell_point(p, 1, z0 + 1, -1),
               shell_point(p, 2, z0, -1),
               shell_point(p, 1 + p, z0, -1),
               shell_point(p, 1 + p ** level, max(1, level - 1), -1),
               shell_point(p, 1, level, -1),
               shell_point(p, 2, level, -1)]
    for x in probes:
        if x != 0 and x != -1:
            _certify(f.eval(x), raw(x), 1e-9, f"S(Z) representation mismatch at {x}", norm)
    _certify_floor(f.ctx, raw, lo, norm)


# --- group-level torus orbitals -------------------------------------------------


def inert_rep_for(ctx: LocalFieldCtx, xi) -> tuple[int, int, int, int] | None:
    """An integer matrix in g_xi K, g_xi = [[1, 0], [gam, del]] of inert invariant
    xi, as (s, 0, s gam, s del'), or None on a nontrivial-torsor fiber
    (val xi + val(1 + xi) odd), which has no F-rational point.

    del is a root of F(x) = x^2 + 2(1 + 2 xi) x + 1 - u gam^2, i.e.
    del = A +- sqrt(D + u gam^2) with A = -(1 + 2 xi) and D = 4 xi (1 + xi).
    Only gam = b p^w0, b = 0..p-1, w0 = val(D)/2, are tried: for gam = c p^w,
    w < w0, D + u gam^2 has unit u c^2 mod p, a nonresidue; at w0 some b makes
    the residue of D/p^(2 w0) + u b^2 a nonzero square mod p, since over F_p
    x^2 - u b^2 = d has p + 1 solutions and at most 2 have x = 0, and the
    first such b is taken.  Then, p odd, sqrt(D + u gam^2) lies in F with
    valuation w0 and leading digit r, a root of that residue mod p.

    With m0 = min(val A, w0), del' = t p^m0 keeps only the leading digit t of
    A + r p^w0, or of A - r p^w0 when the first cancels mod p^(m0 + 1) (they
    cannot both, p odd).  Then val(del' - del) > val del, so
    g_xi^-1 [[1, 0], [gam, del']] = diag(1, del'/del) lies in K, and every
    right-K-invariant count (`_x1_count`) is that of g_xi.  Certificate, in
    integers: val F(del') >= 2 m0 + 1 + [w0 > m0].  The roots differ by
    2 sqrt(D + u gam^2), of valuation w0.  If val(del' - del_i) <= m0 for both
    roots, val F(del') = val(del' - del1) + val(del' - del2) is at most 2 m0
    (w0 = m0), or twice val(del' - del1) (w0 > m0, where the two agree); so
    one root has val(del' - del) >= m0 + 1.  A failed certificate raises
    RepresentationError.
    """
    xi = as_rational(xi)
    num, den = xi.numerator, xi.denominator
    if num == 0 or num == -den:
        raise IrregularPointError(f"xi = {xi} is irregular")
    p = ctx.p
    # none of den, num, num + den is 0, so no valuation is the sentinel INF
    ed, vx, vz = _val_int(den, p), _val_int(num, p), _val_int(num + den, p)
    if (vx + vz) % 2:
        return None
    w0 = (vx + vz - 2 * ed) // 2
    inv = pow(den // p ** ed, -1, p)
    d0 = 4 * (num // p ** vx) * ((num + den) // p ** vz) * inv * inv  # D p^(-2 w0) mod p
    u = smallest_nonresidue(p)
    for b in range(p):
        c = (d0 + u * b * b) % p
        if c and pow(c, (p - 1) // 2, p) == 1:
            break
    r = sqrt_unit_mod(ctx, c, 1)
    a = -(den + 2 * num)  # A = a / den
    m0, a0 = w0, 0
    if a:
        va = _val_int(a, p)
        if va - ed <= w0:
            m0, a0 = va - ed, a // p ** va * inv
    r0 = r if m0 == w0 else 0
    t = (a0 + r0) % p or (a0 - r0) % p
    # s = p^k clears the denominators of gam = b p^w0 and del' = t p^m0, m0 <= w0
    k = max(0, -m0)
    s, sg, sd = p ** k, b * p ** (w0 + k), t * p ** (m0 + k)
    # den s^2 F(del') in integers; val(den s^2) = ed + 2k
    f = sd * sd * den + 2 * (den + 2 * num) * sd * s + (s * s - u * sg * sg) * den
    if f % p ** (2 * m0 + 1 + (w0 > m0) + ed + 2 * k):
        raise RepresentationError(f"leading digit {t} misses a root at xi={xi}")
    return s, 0, sg, sd


def _split_count(p: int, a: int, t: int, n: int, g: int) -> int:
    """#{c mod p^a : k1 + k2 >= t}, the split rule in closed form, for the
    distances k_i = min(a, val(c - r_i)) to the n = 0, 1 or 2 residues of the
    row minima (k_i = 0 for a row without one), with val(r1 - r2) = g when
    n = 2.  The balls about r1 of radius p^-k, k <= e = min(a, g), hold r2
    (Serre, *Trees*, ch. II), so k1 = k2 = k < e on (p - 1) p^(a - k - 1)
    residues, k1 = k2 = e on (p - 2) p^(a - e - 1) when e < a, and past e one
    distance k > e on (p - 1) p^(a - k - 1) residues each (1 at k = a).  With
    k0 = max(0, ceil(t/2)):
      n = 0:          p^a [t <= 0];
      n = 1:          p^(a - max(t, 0)) [t <= a];
      n = 2, e = a:   p^(a - k0) [k0 <= a]  (k1 = k2);
      n = 2, e < a:   (p^(a - k0) - p^(a - e)) [k0 < e]       (k1 = k2 < e)
                      + (p - 2) p^(a - e - 1) [2e >= t]        (k1 = k2 = e)
                      + 2 p^(a - j) [j <= a], j = max(e + 1, t - e)
                                                 (one distance k >= j past e),
    as each run (p - 1) p^(a - k - 1), k = k0 .. top - 1, telescopes to
    p^(a - k0) - p^(a - top), and 1 counts at k = a."""
    if n == 0:
        return p ** a if t <= 0 else 0
    if n == 1:
        return p ** (a - max(t, 0)) if t <= a else 0
    k0 = max(0, -(-t // 2))
    if g >= a:
        return p ** (a - k0) if k0 <= a else 0
    cnt = p ** (a - k0) - p ** (a - g) if k0 < g else 0
    if 2 * g >= t:
        cnt += (p - 2) * p ** (a - g - 1)
    j = max(g + 1, t - g)
    if j <= a:
        cnt += 2 * p ** (a - j)
    return cnt


def _inert_count(p: int, a: int, need: int, w1: int, rho1: int, w2: int, rho2: int,
                 g: int) -> int:
    """#{c mod p^a : need == 2 min(x1, x2)}, the inert rule in closed form, for
    the row minima x_i = w_i when rho_i < 0 and x_i = w_i + min(a, val(c - r_i))
    about a residue r_i when rho_i >= 0, with val(r1 - r2) = g when both rows
    have one.  Odd need counts 0, and otherwise the count is B(T) - B(T + 1),
    T = need/2, B(s) = #{c : x1 >= s and x2 >= s}.  A row without a residue
    holds on every c or on none; one with a residue holds on the ball
    val(c - r_i) >= j_i = max(0, s - w_i) of p^(a - j_i) residues, empty when
    j_i > a.  Two balls meet iff min(j1, j2) <= g, and then the smaller lies in
    the larger (Serre, *Trees*, ch. II), so B(s) = p^(a - max(j1, j2)) or 0."""
    if need % 2:
        return 0
    cnt = 0
    for s, sign in ((need // 2, 1), (need // 2 + 1, -1)):
        j1, j2 = max(0, s - w1), max(0, s - w2)
        if (rho1 < 0 and j1) or (rho2 < 0 and j2) or max(j1, j2) > a:
            continue
        if rho1 >= 0 and rho2 >= 0 and min(j1, j2) > g:
            continue
        cnt += sign * p ** (a - max(j1, j2))
    return cnt


def _matrix_vals(p: int, b11: int, b12: int, b21: int, b22: int) -> tuple[int, ...]:
    """The valuations `_x1_count` reads of the integer matrix [[b11, b12], [b21, b22]]:
    those of its four entries and of its determinant."""
    return (_val_int(b11, p), _val_int(b12, p), _val_int(b21, p), _val_int(b22, p),
            _val_int(b11 * b22 - b12 * b21, p))


def _x1_count(p: int, split: bool, dc: dict[int, complex], vals: tuple[int, ...]) -> complex:
    """sum_m c_m #{cosets of K diag(pi^m,1) K / K that B carries into T(F)K}
    for an integer matrix B = [[b11, b12], [b21, b22]] of which only the
    valuations vals = (v11, v12, v21, v22, vdet) of its entries and of det B
    are read (`_matrix_vals`), and dc = {m: c_m}.

    The cosets are [[p^a, c], [0, p^d]]K with a + d = m, c mod p^a, and c a
    unit when a, d > 0 (q^m + q^(m-1) of them for m >= 1).  Membership is read
    off the valuations of det(B rep) = det B p^m and of the row minima w1, w2
    of B rep = [[b11 p^a, b11 c + b12 p^d], [b21 p^a, b21 c + b22 p^d]]:
      split, T(F)K = A(F)K:  val det <= w1 + w2
                             (a diag(pi^s, 1) shift carries B rep into K);
      inert, T(F) in K:      val det == 2 min(w1, w2).
    Each wi reads c only through its distance to one residue: row i's minimum
    is v_i2 + d, free of c, when rho_i = v_i2 + d - v_i1 < 0, and otherwise
    v_i1 + min(a, val(c - ri)) for ri = -b_i2 p^d / b_i1, of valuation rho_i.
    r1 - r2 = p^d (b22/b21 - b12/b11) = p^d det B / (b11 b21) has valuation
    g = d + vdet - v11 - v21.  So the cosets of one a are counted by their
    distances to r1 and r2 (Serre, *Trees*, ch. II), each rule in closed form
    (`_split_count`, `_inert_count`), and the units as all residues less the
    multiples of p: on c = p c' a residue with rho_i > 0 adds 1 to w_i and
    becomes one of valuation rho_i - 1, one with rho_i = 0 drops, and g falls
    by 1.  Every input is a valuation, so no residue is formed, and each
    (m, a) costs O(1).  Both rules are invariant under scaling B, so B needs
    no normalization.
    """
    v11, v12, v21, v22, vdet = vals
    # at d = 0: rho_i = v_i2 - v_i1, g = val(r1 - r2) = vdet - v11 - v21
    s1, s2, g0 = v12 - v11, v22 - v21, vdet - v11 - v21
    tot = 0j
    for m, cm in dc.items():
        need = vdet + m
        # a = 0: the one coset diag(1, p^m)
        w1, w2 = min(v11, v12 + m), min(v21, v22 + m)
        cnt = need <= w1 + w2 if split else need == 2 * min(w1, w2)
        for a in range(1, m + 1):
            d = m - a
            g = g0 + d
            rho1, rho2 = s1 + d, s2 + d
            if split:
                # w_i = v_i1 + min(rho_i, 0), so t = need - w1 - w2 =
                # g + a - min(rho1, 0) - min(rho2, 0); on c = p c' a residue
                # with rho_i > 0 adds 1 to w_i and one with rho_i = 0 drops
                t = g + a
                if rho1 < 0:
                    t -= rho1
                if rho2 < 0:
                    t -= rho2
                cnt += _split_count(p, a, t, (rho1 >= 0) + (rho2 >= 0), g)
                if a < m:
                    n = (rho1 > 0) + (rho2 > 0)
                    cnt -= _split_count(p, a - 1, t - n, n, g - 1)
            else:
                w1, w2 = v11 + min(rho1, 0), v21 + min(rho2, 0)
                cnt += _inert_count(p, a, need, w1, rho1, w2, rho2, g)
                if a < m:
                    cnt -= _inert_count(p, a - 1, need, w1 + (rho1 > 0), rho1 - 1,
                                        w2 + (rho2 > 0), rho2 - 1, g - 1)
        tot += cm * cnt
    return tot


def _split_interval(vals: tuple[int, int, int], depth: int) -> tuple[int, int]:
    """The split translates n that can count for deg h = depth: lo <= n <= hi
    (proof in `o_torus_group`), from vals = (val den, val num, val(num + den))
    of x = -1 - xi = num/den, where val(1 + xi) = val num - val den and
    val xi = val(num + den) - val den."""
    ed, vx, vz = vals
    return -depth, max(vx, vz) - ed + depth


def _integral_translate(vals: tuple[int, int, int], n: int) -> tuple[int, ...]:
    """The `_matrix_vals` of the split translate g_xi diag(p^n, 1) =
    [[p^n, x], [p^n, 1 + x]], x = -1 - xi = num/den, made integral as
    B = [[t den, s num], [t den, s (num + den)]] with s = p^max(-n, 0),
    t = p^max(n, 0), read off vals = (val den, val num, val(num + den)).
    det B = s t den^2, so val det B = |n| + 2 val den."""
    ed, vx, vz = vals
    if n >= 0:
        return n + ed, vx, n + ed, vz, n + 2 * ed
    return ed, vx - n, ed, vz - n, 2 * ed - n


def o_torus_group(ctx: LocalFieldCtx, kind: str, h: HeckeElt, xi,
                  dc: dict[int, complex] | None = None) -> complex:
    """O_xi((h*Phi1) x Phi2) by lattice counts at group level, Phi1 = Phi2 =
    1_{X1(o)}, with Weil measures (vol K = 1-q^-2).

    Split: vol(K) * sum over T(F)/T(o) of (h*Phi1)(T g_xi diag(pi^n,1)) with
    g_xi = iota(-1-xi, 1); inert: vol(K) * (h*Phi1)(T g_xi), zero on
    nontrivial-torsor fibers.  (h*Phi1)(T g) counts the cosets of
    K diag(pi^m,1) K / K that g carries into T(F)K (`_x1_count`), which reads
    only the valuations of g's entries and determinant: the inert
    representative's, and each split translate's off the three of xi
    (`_integral_translate`), so no split translate is formed.  `dc` is h in
    the double-coset basis, `hecke_to_coset_basis(ctx, h)`; a caller that
    reads many xi builds it once.  Its keys decrease and its top one cannot
    cancel (h_n alone reaches 1_{K pi^n K}), so deg h is its first key.  xi
    is read only through its numerator and denominator.

    The split sum runs over lo <= n <= hi, lo = -deg h and hi =
    max(val xi, val(1+xi)) + deg h, and no coset of any degree may count at
    lo - 1 and hi + 1 (with every c_m = 1 the counts are summed exactly):
    one loop over lo - 1 .. hi + 1 counts each translate once.
    No coset counts outside [lo, hi].  With x = -1 - xi = num/den, the
    translate made integral is B = [[t den, s num], [t den, s (num + den)]],
    s = p^max(-n,0), t = p^max(n,0), so val det B + m = |n| + 2 val den + m;
    the coset [[p^a, c], [0, p^d]], m = a + d, counts when that is at most
    the sum of the row minima w1 + w2 of B rep:
      - n < 0: each row's minimum is at most val den + a (first column), so
        the coset counts only when n >= m - 2a >= -m;
      - any n: the two second-column entries differ by s den p^d, so
        min(w1, w2) <= val den + val s + d, and the other row needs a minimum
        of at least val den + val t + a (as |n| - val s = val t).  Its second
        entry is den (t c - s (1+xi) p^d) in row 1 and den (t c - s xi p^d) in
        row 2 (num = -(1+xi) den), which forces val(1+xi) + d >= n or
        val xi + d >= n, and d <= m <= deg h.
    """
    xi = as_rational(xi)
    num, den = xi.numerator, xi.denominator
    if num == 0 or num == -den:
        raise IrregularPointError(f"xi = {xi} is irregular")
    if kind not in ("split", "inert"):
        raise KindError(f"kind must be split or inert, got {kind!r}")
    if h.is_zero():
        return 0j
    if kind == "inert":
        rep = inert_rep_for(ctx, xi)  # None on a nontrivial-torsor fiber
        if rep is None:
            return 0j
    p = ctx.p
    if dc is None:
        dc = hecke_to_coset_basis(ctx, h)
    q = ctx.q
    volK = (q * q - 1) / (q * q)  # float(ctx.vol_K): int true division rounds correctly

    if kind == "inert":
        return volK * _x1_count(p, False, dc, _matrix_vals(p, *rep))

    # every translate's valuations come from these three of x = -1 - xi =
    # (-num - den)/den, read once per xi; none is INF, as xi != 0, -1
    vals = (_val_int(den, p), _val_int(num + den, p), _val_int(num, p))
    lo, hi = _split_interval(vals, next(iter(dc)))
    total, edge = 0j, dict.fromkeys(dc, 1)
    for n in range(lo - 1, hi + 2):
        if lo <= n <= hi:
            total += _x1_count(p, True, dc, _integral_translate(vals, n))
        elif _x1_count(p, True, edge, _integral_translate(vals, n)) != 0:
            raise RepresentationError("T(F)/T(o) sum not stabilized")
    return volK * total


# --- Kuznetsov side ----------------------------------------------------------------


def o_kuz_closed(ctx: LocalFieldCtx, m: int, xi) -> complex:
    """Closed form of O_xi(1_{x_mK} x 1_{y_0K}^-) per the case table.

    Vol X(o) times: 1 at |xi| = q^-m; -1 at |xi| = q^{2-m} (m >= 1);
    KL(xi) for |xi| > 1 at m = 0; zero otherwise.
    """
    if m < 0:
        raise DomainError("m >= 0")
    xi = as_rational(xi)
    v = rational_valuation(xi, ctx.p)
    if v >= INF:
        raise DomainError("xi = 0")
    q = ctx.q
    volX = (q * q - 1) / (q * q)  # float(ctx.vol_X2)
    if v == m:
        return volX + 0j
    if m >= 1 and v == m - 2:
        return -volX + 0j
    if m == 0 and v < 0:
        return volX * kloosterman_germ(ctx, xi)
    return 0j


def o_kuz_direct(ctx: LocalFieldCtx, sec1: KSection, sec2: KSection, xi) -> complex:
    """Direct engine via the Iwasawa decomposition: identity-coset term plus
    stabilizing shell integrals, bilinear in the sections.

    The second section must be a multiple of 1_{y_0K}^- (the only case the
    closed reduction of the paper-level computation covers).
    """
    xi = as_rational(xi)
    v = rational_valuation(xi, ctx.p)
    if v >= INF:
        raise DomainError("xi = 0")
    d2 = sec2.as_dict()
    if any(n != 0 for n in d2):
        raise UnsupportedSectionError(
            "o_kuz_direct supports second sections proportional to 1_{y0K}^-")
    c2 = d2.get(0, 0j)
    if c2 == 0 or sec1.is_zero():
        return 0j
    q = ctx.q
    volX = (q * q - 1) / (q * q)  # float(ctx.vol_X2)
    total = 0j
    for m, c1 in sec1.coeffs:
        piece = 0j
        if v == m:
            piece += 1.0
        # shells |x| = q^i, i >= 1: nonzero only when val xi + 2i = m
        if (m - v) % 2 == 0 and (m - v) // 2 >= 1:
            i = (m - v) // 2
            piece += oscillatory_shell_integral(ctx, -1, xi, i)
        total += c1 * piece
    return volX * c2 * total


def basic_fW0(ctx: LocalFieldCtx, kind: str, s: complex = 0.0):
    """Closed-form evaluator of the Kuznetsov basic vector f_s^0.

    Vol X(o) L(eta, 2s+1) ( |xi|^{s+1}(f(xi) - q^{-2s-2} f(p^2 xi))
                            + 1_{|xi|=q^2} + KL(xi) ),
    with f = 1 - log_q|xi| on |xi| <= 1 (split), (1+eta)/2 (inert).
    """
    eps = 1 if kind == "split" else -1
    q = ctx.q
    denom = 1 - eps * q ** (-2 * s - 1)
    if abs(denom) < 1e-12:
        raise PoleError("L(eta, 2s+1) pole")
    L_eta = 1.0 / denom
    volX = (q * q - 1) / (q * q)  # float(ctx.vol_X2)

    def f_interior(v: int) -> complex:
        if v < 0:
            return 0j
        if kind == "split":
            return 1.0 + v
        return 1.0 if v % 2 == 0 else 0j

    def value(xi) -> complex:
        xi = as_rational(xi)
        v = rational_valuation(xi, ctx.p)
        if v >= INF:
            raise DomainError("xi = 0")
        core = q ** (-v * (s + 1)) * (f_interior(v) - q ** (-2 * s - 2) * f_interior(v + 2))
        if v == -2:
            core += 1.0
        if v < 0:
            core += kloosterman_germ(ctx, xi)
        return volX * L_eta * core

    return value


def _hs_expansion_coeff(ctx: LocalFieldCtx, kind: str, h: HeckeElt, s: complex,
                        k: int) -> complex:
    """Coefficient of 1_{x_kK} in h * H_s * 1_{x_0K} (a finite CG sum).

    h_j * 1_{x_nK} contributes q^{(n-k)/2} 1_{x_kK} exactly when
    |j - n| <= k <= j + n with k = j + n (mod 2).
    """
    q = ctx.q
    cs = h_s_coeffs(ctx, s, 1 if kind == "split" else -1, k + h.max_degree())
    total = 0j
    for j, ej in h.as_dict().items():
        n = abs(k - j)
        while n <= k + j:
            total += ej * cs[n] * q ** ((n - k) / 2)
            n += 2
    return total


def hecke_apply_W(ctx: LocalFieldCtx, kind: str, h: HeckeElt, s: complex = 0.0):
    """Evaluator xi -> (h * f_W^s)(xi) through the characteristic-section basis;
    a degree whose q^(deg h / 2) leaves the float range raises DomainError."""
    if h.is_zero():
        return lambda xi: 0j
    top = h.max_degree()
    ctx.check_float_power((top + 1) // 2, f"Hecke degree {top}")

    @lru_cache(maxsize=None)
    def d_of(k: int) -> complex:
        return _hs_expansion_coeff(ctx, kind, h, s, k)

    def value(xi) -> complex:
        xi = as_rational(xi)
        v = rational_valuation(xi, ctx.p)
        if v >= INF:
            raise DomainError("xi = 0")
        total = 0j
        for m in sorted({m for m in (v, v + 2, 0) if m >= 0}):
            total += d_of(m) * o_kuz_closed(ctx, m, xi)
        return total

    return value


def hecke_apply_W_tail(ctx: LocalFieldCtx, kind: str, h: HeckeElt,
                       s: complex = 0.0) -> complex:
    """Kloosterman-tail constant of h * f_W^s: Vol X(o) times the x_0-coefficient."""
    q = ctx.q
    return _hs_expansion_coeff(ctx, kind, h, s, 0) * ((q * q - 1) / (q * q))  # vol_X2


def hecke_apply_W_elem(ctx: LocalFieldCtx, kind: str, h: HeckeElt,
                       s: complex = 0.0) -> SWElem:
    """h * f_W^s packaged as an SWElem by the case table: below val -1 only the
    m = 0 term of sum_m d(m) O_closed(m, xi) survives, so the value is exactly
    C KL(xi) there; on val -1 .. depth - 1 it depends on val(xi) only, one
    window shell each at level 1; deeper lies the |xi|^{s+1}-weighted zero
    germ, fitted with residuals.  The norm is h's largest coefficient in the
    double-coset basis, which carries h_n's q^(-n/2) as the values do."""
    value = hecke_apply_W(ctx, kind, h, s)
    p, q, norm = ctx.p, ctx.q, _norm(hecke_to_coset_basis(ctx, h).values())
    depth = h.max_degree() + 3
    germ = _deep_germ(kind, lambda u, v: value(shell_point(p, u, v)) * q ** (v * (s + 1)),
                      depth, norm)
    C = hecke_apply_W_tail(ctx, kind, h, s)
    _certify_kl_tail(ctx, value, C, (-2, -4), (1, 2), 1e-9, norm)
    entries = []
    for v in range(-1, depth):
        w = value(shell_point(p, 1, v))
        entries += _value_atoms(ctx, 0, v, dict.fromkeys(unit_reps(p, 1), w), 1, norm)
    out = SWElem(ctx, kind, s, BruhatFn(ctx, "F", tuple(entries)), germ, KLTail(C, 2))
    for xi in (1 + p, shell_point(p, 1, depth + 1), shell_point(p, 2, -6)):
        _certify(out.eval(xi), value(xi), 1e-9,
                 f"assembled SWElem disagrees with the evaluator at {xi}", norm)
    return out


def basic_fW0_elem(ctx: LocalFieldCtx, kind: str, s: complex = 0.0) -> SWElem:
    """The basic vector f_s^0 packaged as an SWElem."""
    return hecke_apply_W_elem(ctx, kind, HeckeElt.basis(0), s)


# --- basic vectors and Hecke application on the torus side -------------------------


def basic_fZ0(ctx: LocalFieldCtx, kind: str) -> SZElem:
    """The basic vector of S(Z) assembled from group-level orbital integrals."""
    return hecke_apply_Z(ctx, kind, HeckeElt.basis(0))


def hecke_apply_Z(ctx: LocalFieldCtx, kind: str, h: HeckeElt) -> SZElem:
    """SZ element of orbital integrals of (h * 1_{X1(o)}) x 1_{X1(o)}.

    Window values on val(xi) >= -(2 deg h + 1) come from o_torus_group, one
    per valuation class of each shell (`_class_shell`), with h in the
    double-coset basis built once; the germs at 0 and -1
    are fitted on deep shells with residual certificates and start at their
    certified onset.  The norm is h's largest coefficient in that basis,
    which carries h_n's q^(-n/2) as the values do.
    """
    depth = 2 * h.max_degree() + 3
    lo = -(2 * h.max_degree() + 1)
    dc = hecke_to_coset_basis(ctx, h)
    norm = _norm(dc.values())

    def raw(xi) -> complex:
        return o_torus_group(ctx, kind, h, xi, dc)

    p = ctx.p
    germ0 = _deep_germ(kind, lambda u, j: raw(shell_point(p, u, j)), depth, norm)
    germ_m1 = _deep_germ(kind, lambda u, j: raw(shell_point(p, u, j, -1)), depth, norm)
    return _assemble_sz(ctx, kind, raw, germ0, germ_m1, lo, partial(_class_shell, ctx, raw),
                        norm)


def _class_shell(ctx: LocalFieldCtx, raw, center: int, v: int, cut: int | None):
    """The (values, level) table at `_FIRST_LEVEL` of the shell
    center + (units)*p^v for an orbital that sees xi only through
    (val xi, val(xi + 1)).  `o_torus_group` is one: split through the tree
    distance to the apartment, inert through the distance to the vertex that
    T(F) fixes (the oracles `test_o_torus_group_split_tree_distance` and
    `test_o_torus_group_inert_vertex_distance`), so a class is enough.

    With `cut`, the units with val(xi + 1) >= min(level, cut) are left out, so
    each kept coset lies in one class.  `raw` is read at the first and the
    last unit of each class; the two must agree (`_same_value`), and every
    unit of the class takes the first value.
    """
    p, level = ctx.p, _FIRST_LEVEL
    # xi = (center p^e + u p^(v + e)) / p^e, e = max(0, -v); xi = 0 occurs only
    # at v = 0 about -1, where e = 0 keeps its key val INF
    e = max(0, -v)
    den, base, step = p ** e, center * p ** e, p ** (v + e)
    classes: dict[tuple[int, int], list[int]] = {}
    for u in unit_reps(p, level):
        num = base + u * step
        vz = _val_int(num + den, p) - e
        if cut is None or vz < min(level, cut):
            classes.setdefault((_val_int(num, p) - e, vz), []).append(u)
    vals = {}
    for (vx, vz), units in classes.items():
        first, last = (raw(shell_point(p, u, v, center)) for u in (units[0], units[-1]))
        if not _same_value(first, last):
            raise RepresentationError(
                f"orbital not constant on the class val xi = {vx}, val(xi + 1) = {vz}")
        vals.update(dict.fromkeys(units, first))
    return dict(sorted(vals.items())), level


# --- inner products and gamma-star ------------------------------------------------


def gamma_star(ctx: LocalFieldCtx, kind: str) -> complex:
    """Leading Laurent coefficient of gamma(eta, s, psi) at s = 0, psi unramified
    (Tate's thesis): gamma(chi, s) = L(chi^-1, 1 - s) / L(chi, s) with
    L(chi, s) = 1 / (1 - chi(p) q^-s).  Split, eta = 1 and gamma has a simple
    zero, (1 - q^-s) / (1 - q^(s-1)) = s ln q / (1 - 1/q) + O(s^2); inert,
    eta(p) = -1 and gamma(eta, 0) = 2 / (1 + 1/q)."""
    q = ctx.q
    if kind == "split":
        return complex(math.log(q) / (1 - 1 / q))
    return complex(2 / (1 + 1 / q))


# --- verification harnesses --------------------------------------------------------


class FLPoint(NamedTuple):
    xi_num: int
    xi_val: int
    lhs: complex
    rhs: complex

    @property
    def abs_error(self) -> float:
        return abs(self.lhs - self.rhs)


class FLReport(NamedTuple):
    p: int
    kind: str
    hecke: dict[int, complex]
    window: tuple[int, int]
    points: list[FLPoint]
    fitted_constant: complex
    tolerance: float
    elapsed: float

    @property
    def max_error(self) -> float:
        return max((pt.abs_error for pt in self.points), default=0.0)

    @property
    def passed(self) -> bool:
        """Every point within `tolerance` times the largest |rhs| on the
        window (so exactly equal where that is 0), and the fitted constant
        within `tolerance` of 1: the verdict does not depend on the scale of h."""
        scale = max((abs(pt.rhs) for pt in self.points), default=0.0)
        ok = self.max_error <= self.tolerance * scale
        return ok and abs(self.fitted_constant - 1) <= self.tolerance

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "kind": self.kind,
            "hecke": {str(n): [c.real, c.imag] for n, c in self.hecke.items()},
            "window": list(self.window),
            "points": [
                {"xiNum": pt.xi_num, "xiVal": pt.xi_val,
                 "lhs": [pt.lhs.real, pt.lhs.imag],
                 "rhs": [pt.rhs.real, pt.rhs.imag],
                 "absError": pt.abs_error}
                for pt in self.points
            ],
            "fittedConstant": [self.fitted_constant.real, self.fitted_constant.imag],
            "maxError": self.max_error,
            "pass": self.passed,
        }


def verify_fl(ctx: LocalFieldCtx, kind: str, h: HeckeElt,
              window: tuple[int, int] = (-4, 4), tolerance: float = 1e-8) -> FLReport:
    """|.|G(h * f_Z0) vs h * f_W0 pointwise on the window, with the fitted
    global constant required to be 1; a window past float range (q^-lo) raises."""
    lo, hi = window
    if lo > hi:
        raise DomainError(f"empty valuation window {window}")
    ctx.check_float_power(-lo, f"valuation window {window}")
    start = time.perf_counter()
    fz = hecke_apply_Z(ctx, kind, h)
    rhs_eval = hecke_apply_W(ctx, kind, h, 0.0)
    pts: list[FLPoint] = []
    for v in range(lo, hi + 1):
        for u in unit_reps(ctx.p, 1)[:2]:
            xi = shell_point(ctx.p, u, v)
            pts.append(FLPoint(u, v, g_value_Z_to_W(fz, xi), rhs_eval(xi)))
    # the constant is read at the first point that is not small next to the window
    scale = max(abs(pt.rhs) for pt in pts)
    fitted = next((pt.lhs / pt.rhs for pt in pts if abs(pt.rhs) > 1e-6 * scale), 1.0 + 0j)
    return FLReport(ctx.p, kind, h.as_dict(), window, pts, fitted, tolerance,
                    time.perf_counter() - start)


class MatchingCase(NamedTuple):
    index: int
    shape_residual: float
    ip_lhs: complex
    ip_rhs: complex

    @property
    def ip_error(self) -> float:
        return abs(self.ip_lhs - self.ip_rhs)


class MatchingReport(NamedTuple):
    p: int
    kind: str
    samples: int
    seed: int
    cases: list[MatchingCase]
    tolerance: float
    elapsed: float

    @property
    def max_shape_residual(self) -> float:
        return max((c.shape_residual for c in self.cases), default=0.0)

    @property
    def max_ip_error(self) -> float:
        return max((c.ip_error for c in self.cases), default=0.0)

    @property
    def passed(self) -> bool:
        return (self.max_shape_residual <= self.tolerance
                and self.max_ip_error <= self.tolerance)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p, "kind": self.kind, "samples": self.samples,
            "seed": self.seed,
            "cases": [{"index": c.index, "shapeResidual": c.shape_residual,
                       "ipLhs": [c.ip_lhs.real, c.ip_lhs.imag],
                       "ipRhs": [c.ip_rhs.real, c.ip_rhs.imag],
                       "ipError": c.ip_error} for c in self.cases],
            "maxShapeResidual": self.max_shape_residual,
            "maxIpError": self.max_ip_error,
            "pass": self.passed,
        }


def random_baby_data(ctx: LocalFieldCtx, kind: str, rng):
    """Seeded random compactly supported data (three atoms per function,
    levels <= 2, Gaussian weights)."""
    n_atoms = 3

    def rnd_coef():
        return complex(rng.gauss(0, 1), rng.gauss(0, 1))

    def rnd_center():
        num = rng.randrange(-2 * ctx.p ** 2, 2 * ctx.p ** 2 + 1)
        den = ctx.p ** rng.randrange(0, 2)
        return Fraction(num, den)

    def rnd_fn(domain):
        return BruhatFn.from_atoms(ctx, domain, [
            ((rnd_center(), rnd_center()), rng.randrange(0, 3), rnd_coef())
            for _ in range(n_atoms)])

    if kind == "split":
        return rnd_fn("F2")
    return BabyInput(QuadExt(ctx, kind), rnd_fn("E"), rnd_fn("E"))


def verify_matching(ctx: LocalFieldCtx, kind: str, samples: int = 10,
                    seed: int = 7, tolerance: float = 1e-8) -> MatchingReport:
    """Random S(Z) elements through the charts: output shape and the
    inner-product identity <|.|G f> = gamma*(eta,0,psi) <f>."""
    if samples < 1:
        raise DomainError(f"verify_matching needs at least one sample, got {samples}")
    start = time.perf_counter()
    rng = random.Random(seed)
    gstar = gamma_star(ctx, kind)
    cases = []
    for i in range(samples):
        phi1 = random_baby_data(ctx, kind, rng)
        phi2 = random_baby_data(ctx, kind, rng)
        f = sz_from_charts(phi1, phi2, kind)
        w = g_transform_Z_to_W(f)
        # shape residual: window+germ+tail representation against the engine
        resid = 0.0
        for v in (-4, 0, 1, w.zero_germ.level + 1, -w.inf_tail.M - 2):
            for u in (1, max(2, ctx.p - 1)):
                xi = shell_point(ctx.p, u, v)
                got = w.eval(xi)
                want = g_value_Z_to_W(f, xi)
                resid = max(resid, abs(got - want) / max(1.0, abs(want)))
        lhs = ip_kuz_elem(w)
        rhs = gstar * ip_torus_elem(f)
        cases.append(MatchingCase(i, resid, lhs, rhs))
    return MatchingReport(ctx.p, kind, samples, seed, cases, tolerance,
                          time.perf_counter() - start)


def whittaker_unfolding_check(ctx: LocalFieldCtx, alpha: complex, s: complex,
                              n_terms: int | None = None) -> tuple[complex, complex]:
    """Truncated torus integral of W_pi against Vol(A(o)) L(pi, 1/2+s)."""
    if s.real <= -0.5 + 1e-6:
        raise DomainError("outside the convergence half-plane")
    if n_terms is None:
        # geometric tail bound: |alpha|^n q^{-n(1/2+Re s)} * (n+1)
        n_terms = 40 + int(60 / max(0.25, s.real + 0.5))
    vol = (ctx.q - 1) / ctx.q  # float(ctx.vol_Ox)
    lhs = 0j
    for n in range(n_terms):
        lhs += vol * whittaker_eval(ctx, alpha, n) * ctx.q ** (-n * s)
    rhs = vol * l_factor_eval(ctx, alpha, 0.5 + s)
    return lhs, rhs

