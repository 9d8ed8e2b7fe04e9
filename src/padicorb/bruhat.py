"""Locally constant compactly supported functions on F, F^2, E and E^alpha.

Atoms are cosets c + p^n*o^d with complex weights; all transforms are closed
form (finite character sums), so a BruhatFn is closed under Fourier transform
and the double transform is exactly f(-x).  Each atom coordinate enters the
transform as an integer phase against one table of roots of unity, so the
transform is a plain-Python discrete Fourier transform of the summed weights.
Tate zeta integrals, Mellin components and gamma factors are produced as
rational functions in t = q^(-s), the gamma factor always by solving the local
functional equation with a test function rather than from a hard-coded formula.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    DomainError,
    KindError,
    RepresentationError,
    UnsupportedAtomError,
)
from .localfield import (
    LocalFieldCtx,
    QuadExt,
    rational_valuation,
    unit_mod,
)
from .rational import Poly, RationalFnT, geometric_tail

Point = tuple[Fraction, ...]

_DOMAIN_DIM = {"F": 1, "F2": 2, "E": 2, "Ealpha": 2}

# Most cosets a canonical form may be refined into, counted before any is built:
# about 10 times the 98,414 that the test suite reaches, or some 0.7 GB at the
# measured 680 bytes per coset.
_MAX_REFINEMENT = 10 ** 6


def _as_point(x, dim: int) -> Point:
    if isinstance(x, (tuple, list)):
        if len(x) != dim:
            raise DomainError(f"point has {len(x)} coordinates, expected {dim}")
        return tuple(Fraction(c) for c in x)
    if dim != 1:
        raise DomainError("scalar point given for a 2-dimensional domain")
    return (Fraction(x),)


def _as_level(n) -> int:
    try:
        return operator.index(n)
    except TypeError:
        raise DomainError(f"atom level {n!r} is not an integer") from None


@dataclass(frozen=True)
class Atom:
    center: Point
    level: int
    coef: complex

    def contains(self, x: Point, p: int) -> bool:
        return all(rational_valuation(xc - cc, p) >= self.level for xc, cc in zip(x, self.center))


@dataclass(frozen=True)
class BruhatFn:
    """Finite atom sum on the tagged domain; `canonical` means one common level
    with pairwise disjoint cosets."""

    ctx: LocalFieldCtx
    domain: str
    atoms: tuple[Atom, ...]
    canonical: bool = False
    torsor_scale: Fraction | None = None  # E^alpha: a = N(e) of the base point

    def __post_init__(self):
        if self.domain not in _DOMAIN_DIM:
            raise DomainError(f"unknown domain tag {self.domain!r}")
        if self.domain == "Ealpha" and self.torsor_scale is None:
            raise DomainError("E^alpha data needs its torsor scale")

    # --- constructors ---

    @staticmethod
    def from_atoms(ctx, domain, triples, torsor_scale=None) -> "BruhatFn":
        dim = _DOMAIN_DIM[domain]
        atoms = tuple(
            Atom(_as_point(c, dim), _as_level(n), complex(w))
            for (c, n, w) in triples if complex(w) != 0
        )
        return BruhatFn(ctx, domain, atoms,
                        torsor_scale=Fraction(torsor_scale) if torsor_scale is not None else None)

    @staticmethod
    def indicator_ball(ctx, domain, center, level, torsor_scale=None) -> "BruhatFn":
        return BruhatFn.from_atoms(ctx, domain, [(center, level, 1.0)], torsor_scale)

    @staticmethod
    def zero(ctx, domain="F", torsor_scale=None) -> "BruhatFn":
        ts = Fraction(torsor_scale) if torsor_scale is not None else (
            Fraction(ctx.p) if domain == "Ealpha" else None)
        return BruhatFn(ctx, domain, (), canonical=True, torsor_scale=ts)

    @property
    def dim(self) -> int:
        return _DOMAIN_DIM[self.domain]

    def is_zero(self) -> bool:
        return not self.atoms

    # --- algebra ---

    def scale(self, w) -> "BruhatFn":
        return BruhatFn(self.ctx, self.domain,
                        tuple(Atom(a.center, a.level, a.coef * complex(w)) for a in self.atoms),
                        self.canonical, self.torsor_scale)

    def __add__(self, other: "BruhatFn") -> "BruhatFn":
        if self.ctx.p != other.ctx.p:
            raise DomainError("cannot add functions over different primes")
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.domain != other.domain or self.torsor_scale != other.torsor_scale:
            raise DomainError("cannot add functions on different domains")
        return BruhatFn(self.ctx, self.domain, self.atoms + other.atoms,
                        canonical=False, torsor_scale=self.torsor_scale)

    def __sub__(self, other: "BruhatFn") -> "BruhatFn":
        return self + other.scale(-1.0)

    # --- evaluation and canonical form ---

    def eval(self, x) -> complex:
        """Sum of the coefficients of the atoms containing x (atom overlap sums)."""
        pt = _as_point(x, self.dim)
        return sum((a.coef for a in self.atoms if a.contains(pt, self.ctx.p)), 0j)

    def canonicalize(self) -> "BruhatFn":
        return self._canonical_form

    @cached_property
    def _canonical_form(self) -> "BruhatFn":
        if self.canonical:
            return self
        p = self.ctx.p
        level = max((a.level for a in self.atoms), default=0)
        cosets = sum(p ** (self.dim * (level - a.level)) for a in self.atoms)
        if cosets > _MAX_REFINEMENT:
            raise RepresentationError(
                f"canonical form needs {cosets} cosets at level {level}, "
                f"past the limit {_MAX_REFINEMENT}")
        acc: dict[tuple, complex] = {}
        for a in self.atoms:
            step = Fraction(p) ** a.level
            for combo in itertools.product(range(p ** (level - a.level)), repeat=self.dim):
                key = tuple(_coset_key(c + s * step, level, p)
                            for c, s in zip(a.center, combo))
                acc[key] = acc.get(key, 0j) + a.coef
        kept = sorted(((tuple(_key_center(k, p) for k in key), key, w)
                       for key, w in acc.items() if abs(w) > 1e-14),
                      key=lambda t: str(tuple((c.numerator, c.denominator) for c in t[0])))
        out = BruhatFn(self.ctx, self.domain,
                       tuple(Atom(center, level, w) for center, _, w in kept),
                       True, self.torsor_scale)
        out.__dict__["coset_table"] = {key: w for _, key, w in kept}  # seeds the memo
        return out

    @cached_property
    def level(self) -> int:
        """Common level of the canonical form (0 for the zero function)."""
        return max((a.level for a in self.canonicalize().atoms), default=0)

    @cached_property
    def coset_table(self) -> dict[tuple[tuple[int, int], ...], complex]:
        """Canonical coefficients keyed by the `_coset_key` of each coset at
        `level`, in the order of the canonical atoms."""
        fc = self.canonicalize()
        if fc is not self:
            return fc.coset_table
        p, level = self.ctx.p, self.level
        return {tuple(_coset_key(c, level, p) for c in a.center): a.coef for a in self.atoms}

    @cached_property
    def axis_radii(self) -> tuple[int, ...]:
        """Per coordinate, the smallest R_i >= 0 with supp f inside the product
        of the p^-R_i * o, read off the coset keys; the largest is the support
        radius."""
        return tuple(max([0] + [-key[i][0] for key in self.coset_table])
                     for i in range(self.dim))

    def make_evaluator(self):
        """O(1)-per-point evaluator: lookup in the coset table."""
        table = self.coset_table
        if not table:
            return lambda x: 0j
        level, p, dim = self.level, self.ctx.p, self.dim

        def ev(x) -> complex:
            pt = x if isinstance(x, tuple) else (x,)
            if len(pt) != dim:
                raise DomainError("point dimension mismatch")
            return table.get(tuple(_coset_key(Fraction(c), level, p) for c in pt), 0j)

        return ev


def _coset_key(c: Fraction, level: int, p: int) -> tuple[int, int]:
    """Key of the coset c + p^level*o: (val c, unit of c mod p^(level - val c))
    when val c < level, else (level, 0)."""
    v = rational_valuation(c, p)
    if v >= level:
        return (level, 0)
    return (v, unit_mod(c, v, p, level - v))


def _residue_key(v: int, res: int, level: int, p: int) -> tuple[int, int]:
    """`_coset_key` of the point res * p^v, for an integer res known mod
    p^(level - v) or finer (res = 0 when those digits all vanish)."""
    while res and v < level and res % p == 0:
        res //= p
        v += 1
    if v >= level or not res:
        return (level, 0)
    return (v, res % p ** (level - v))


def _key_center(key: tuple[int, int], p: int) -> Fraction:
    """The center res * p^v of the coset with `_coset_key` (v, res)."""
    v, res = key
    return Fraction(res * p ** v) if v >= 0 else Fraction(res, p ** -v)


# --- Fourier transforms -----------------------------------------------------------


def fourier(f: BruhatFn) -> BruhatFn:
    """Schoolbook transform on F: f^(y) = int f(x) psi^{-1}(xy) dx, self-dual dx."""
    if f.domain != "F":
        raise DomainError("fourier() is the one-variable transform on F")
    return _fourier_nd(f, scales=(Fraction(1),))


def fourier_F2(f: BruhatFn) -> BruhatFn:
    """Transform on F^2 with kernel psi^{-1}(x1 y1 + x2 y2)."""
    if f.domain != "F2":
        raise DomainError("fourier_F2 expects F^2 data")
    return _fourier_nd(f, scales=(Fraction(1), Fraction(1)))


def fourier_E(f: BruhatFn, ext: QuadExt) -> BruhatFn:
    """Transform on E (or E^alpha) with kernel psi^{-1}(tr(x*conj(y))).

    In coordinates x = x1 + x2*sqrt(u): tr(x*conj(y)) = 2(x1 y1 - u x2 y2).
    On the torsor the pairing acquires the scale a = N(e) and the measure a
    factor |a|, giving hat(Phi^alpha)(y) = |a| * hat(Phi^0)(a y).
    """
    if ext.kind != "inert":
        raise KindError("fourier_E needs an inert extension (split is coordinatewise)")
    if f.domain == "E":
        return _fourier_nd(f, scales=(Fraction(2), Fraction(-2 * ext.u)))
    if f.domain != "Ealpha":
        raise DomainError("fourier_E expects E or E^alpha data")
    a = f.torsor_scale
    base = BruhatFn(f.ctx, "E", f.atoms, f.canonical)
    hat0 = _fourier_nd(base, scales=(Fraction(2), Fraction(-2 * ext.u)))
    va = rational_valuation(a, f.ctx.p)
    abs_a = Fraction(f.ctx.q) ** (-va)
    # substitute y -> a*y atomwise and multiply by |a|
    atoms = tuple(
        Atom(tuple(c / a for c in at.center), at.level - va, at.coef * float(abs_a))
        for at in hat0.atoms
    )
    return BruhatFn(f.ctx, "Ealpha", atoms, hat0.canonical, torsor_scale=a)


def _fourier_nd(f: BruhatFn, scales: tuple[Fraction, ...]) -> BruhatFn:
    """Product-kernel transform psi^{-1}(sum_i s_i x_i y_i), coordinatewise.

    Output cosets at the common conductor level are indexed by integers
    r = 0..p^M - 1 (centers r p^-n).  Each atom coordinate c contributes
    psi^{-1}(s c r p^-n) = z^(k r) with z = e(-1/p^M) and an integer phase k,
    so the weights are summed per phase and the sum is one discrete Fourier
    transform from the table of the p^M roots z^j: over the last coordinate,
    then over the first.  Entries at most 1e-12 times the largest are dropped.
    """
    f = f.canonicalize()
    ctx = f.ctx
    p = ctx.p
    if f.is_zero():
        return BruhatFn.zero(ctx, f.domain, f.torsor_scale)
    n = f.level
    out_level = max([-n] + [-rational_valuation(s * c, p) for a in f.atoms
                            for c, s in zip(a.center, scales) if c != 0])
    span = p ** (out_level + n)
    vol = float(Fraction(ctx.q) ** (-n * f.dim))

    def phase(c: Fraction, s: Fraction) -> int:
        # k with psi^{-1}(s c r p^-n) = z^(k r); m is the conductor exponent in r
        sc = s * c
        v = rational_valuation(sc, p)
        m = n - v
        return unit_mod(sc, v, p, m) * (span // p ** m) if sc and m > 0 else 0

    rows: dict[int, dict[int, complex]] = {}  # first phase -> last phase -> weight
    for a in f.atoms:
        ks = [phase(c, s) for c, s in zip(a.center, scales)]
        row = rows.setdefault(ks[0] if f.dim > 1 else 0, {})
        row[ks[-1]] = row.get(ks[-1], 0j) + a.coef * vol
    roots = [complex(math.cos(t), math.sin(t))
             for t in (-2 * math.pi * j / span for j in range(span))]
    last = {k: _dft(row, roots) for k, row in rows.items()}
    if f.dim == 1:
        total = {(r,): w for r, w in enumerate(last[0])}
    else:
        cols = [_dft({k: t[r2] for k, t in last.items()}, roots) for r2 in range(span)]
        total = {(r1, r2): cols[r2][r1] for r1 in range(span) for r2 in range(span)}
    thresh = 1e-12 * max(map(abs, total.values()))
    centers = [Fraction(r) / Fraction(p) ** n for r in range(span)]
    atoms = tuple(Atom(tuple(centers[r] for r in idx), out_level, w)
                  for idx, w in total.items() if abs(w) > thresh)
    return BruhatFn(ctx, f.domain, atoms, True, f.torsor_scale)


def _dft(weights: dict[int, complex], roots: list[complex]) -> list[complex]:
    """sum_k w_k z^(k r) for r = 0..len(roots) - 1, given roots[j] = z^j."""
    span = len(roots)
    return [sum(w * roots[k * r % span] for k, w in weights.items()) for r in range(span)]


def negate_argument(f: BruhatFn) -> BruhatFn:
    atoms = tuple(Atom(tuple(-c for c in a.center), a.level, a.coef) for a in f.atoms)
    return BruhatFn(f.ctx, f.domain, atoms, f.canonical, f.torsor_scale)


def inner_product(f: BruhatFn, g: BruhatFn) -> complex:
    """Bilinear int f*g dx (no conjugation), both refined to a common level."""
    if f.ctx.p != g.ctx.p:
        raise DomainError("inner product needs a common prime")
    if f.domain != g.domain:
        raise DomainError("inner product needs a common domain")
    if not f.coset_table or not g.coset_table:
        return 0j
    level = max(f.level, g.level)
    gmap = _table_at(g, level)
    vol = float(Fraction(f.ctx.q) ** (-level * f.dim))
    total = 0j
    for key, coef in _table_at(f, level).items():
        if key in gmap:
            total += coef * gmap[key] * vol
    return total


def integral(f: BruhatFn) -> complex:
    fc = f.canonicalize()
    vol = float(Fraction(f.ctx.q) ** (-f.level * fc.dim)) if fc.atoms else 0.0
    return sum((a.coef for a in fc.atoms), 0j) * vol


def _table_at(f: BruhatFn, level: int) -> dict:
    """Coset table of f refined to `level` >= f.level."""
    if f.level == level:
        return f.coset_table
    forced = BruhatFn(f.ctx, f.domain, f.canonicalize().atoms +
                      (Atom(tuple([Fraction(0)] * f.dim), level, 0j),),
                      torsor_scale=f.torsor_scale)
    return forced.coset_table


# --- Mellin characters and Tate integrals ----------------------------------------


@dataclass(frozen=True)
class MellinCharacter:
    """Unramified-or-eta character component: conductor <= 1."""

    ext: QuadExt
    quadratic: str = "trivial"  # "trivial" | "eta"

    def __post_init__(self):
        if self.quadratic not in ("trivial", "eta"):
            raise UnsupportedAtomError("only trivial and eta components are in scope")
        if self.quadratic == "eta" and self.ext.kind == "split":
            # eta = 1 in the split case; normalize to the trivial tag
            object.__setattr__(self, "quadratic", "trivial")

    def sign_of_val(self, v: int) -> int:
        if self.quadratic == "trivial":
            return 1
        return -1 if v % 2 else 1

    def twist_eta(self) -> "MellinCharacter":
        if self.ext.kind == "split":
            return self
        return MellinCharacter(self.ext, "eta" if self.quadratic == "trivial" else "trivial")

    def inverse(self) -> "MellinCharacter":
        return self  # both components are real quadratic


def _laurent_to_rational(terms: dict[int, complex]) -> RationalFnT:
    """sum_k terms[k] t^k with possibly negative k, as one rational function."""
    if not terms:
        return RationalFnT.zero()
    kmin = min(min(terms), 0)
    coeffs = [0j] * (max(terms) - kmin + 1)
    for k, c in terms.items():
        coeffs[k - kmin] += c
    return RationalFnT(Poly(tuple(coeffs)) if any(coeffs) else Poly.of(0),
                       Poly.monomial(-kmin))


def tate_zeta(f: BruhatFn, chi: MellinCharacter) -> RationalFnT:
    """zeta(f, chi, s) = int f(x) chi(x) |x|^s d^x x as a rational function of t."""
    if f.domain != "F":
        raise DomainError("tate_zeta works on F")
    fc = f.canonicalize()
    ctx = f.ctx
    laurent: dict[int, complex] = {}
    tails = RationalFnT.zero()
    vol_shell = float(ctx.vol_Ox)
    for a in fc.atoms:
        c = a.center[0]
        vc = rational_valuation(c, ctx.p)
        if vc < a.level:
            # the atom sits inside the shell |x| = q^-vc
            sign = chi.sign_of_val(vc)
            mass = float(Fraction(ctx.q) ** (vc - a.level))  # d^x-volume of the atom
            laurent[vc] = laurent.get(vc, 0j) + a.coef * sign * mass
        else:
            # full ball p^level * o around zero: geometric sum over deep shells
            if a.level < 0:
                for k in range(a.level, 0):
                    sign = chi.sign_of_val(k)
                    laurent[k] = laurent.get(k, 0j) + a.coef * sign * vol_shell
                start = 0
            else:
                start = a.level
            ratio = -1.0 if chi.quadratic == "eta" else 1.0
            tails = tails + geometric_tail(ratio, start).scale(a.coef * vol_shell)
    return _laurent_to_rational(laurent) + tails


def mellin_component(f_window: BruhatFn, chi: MellinCharacter) -> RationalFnT:
    """f-check(chi)(t) = sum_k q^{-k/2} t^k * int_{val=k} f chi d^x, a Laurent
    polynomial for a window away from 0 (`spaces.sx_mellin` adds a germ)."""
    ctx = f_window.ctx
    qh = ctx.q ** 0.5
    laurent: dict[int, complex] = {}
    for at in f_window.atoms:  # linear in atoms: no canonical refinement
        c = at.center[0]
        vc = rational_valuation(c, ctx.p)
        if vc >= at.level:
            raise UnsupportedAtomError("window atom touches 0; put it in the germ")
        sign = chi.sign_of_val(vc)
        mass = float(Fraction(ctx.q) ** (vc - at.level)) * qh ** (-vc)
        laurent[vc] = laurent.get(vc, 0j) + at.coef * sign * mass
    return _laurent_to_rational(laurent)


def gamma_factor(chi: MellinCharacter) -> RationalFnT:
    """gamma(chi, s, psi) solving gamma * zeta(f, chi, s) = zeta(f^, chi^{-1}, 1-s)."""
    ctx = chi.ext.ctx
    test = BruhatFn.indicator_ball(ctx, "F", Fraction(0), 0)  # 1_o
    z = tate_zeta(test, chi)
    if z.is_zero():
        raise DomainError("test function has vanishing zeta; choose another")
    zhat = tate_zeta(fourier(test), chi.inverse())
    # substitute t -> q^{-(1-s)} = q^{-1}/t in zhat
    rhs = zhat.subs_recip_scaled(1.0 / ctx.q)
    return rhs / z


def gamma_star_eta(ext: QuadExt) -> tuple[complex, int]:
    """Leading Laurent term of gamma(eta, s, psi) at s = 0: (coefficient, order)."""
    chi = MellinCharacter(ext, "eta" if ext.kind == "inert" else "trivial")
    g = gamma_factor(chi)
    return g.leading_at(1.0, lnq=math.log(ext.ctx.q))
