"""Locally constant compactly supported functions on F, F^2, E and E^alpha.

A function is a sum of weighted cosets c + p^n*o^d stored by integer coset
keys; all transforms are closed form (finite character sums), so a BruhatFn is
closed under Fourier transform and the double transform is exactly f(-x).  The
transform is taken level by level on a function's own entries, with no
canonical refinement: each key enters as an integer phase against one table
of roots of unity per level, so each level's sum is a plain-Python discrete
Fourier transform on its dual ball, summed from each phase's cached power row
of roots in the order of a direct sum, and added into the output grid.
Tate zeta integrals, Mellin components and gamma factors are produced as
rational functions in t = q^(-s), the gamma factor always by solving the local
functional equation with a test function rather than from a hard-coded formula.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, repeat
from typing import NamedTuple

from .errors import (
    DomainError,
    KindError,
    RepresentationError,
    UnsupportedAtomError,
)
from .localfield import (
    LocalFieldCtx,
    QuadExt,
    as_rational,
    rational_valuation,
    unit_mod,
)
from .rational import Poly, RationalFnT, geometric_tail

Point = tuple[Fraction | int, ...]

_DOMAIN_DIM = {"F": 1, "F2": 2, "E": 2, "Ealpha": 2}

# Copies of the roots of unity a Fourier power row is sliced from (`_fourier_nd`)
_POWER_REPS = 16

# Most cosets a canonical form may be refined into, or a Fourier transform's
# grid may hold, counted before any is built: about 10 times the 98,414 that
# the test suite refines, or some 0.7 GB at the measured 680 bytes per coset.
_MAX_REFINEMENT = 10 ** 6


def _as_point(x, dim: int) -> Point:
    if isinstance(x, (tuple, list)):
        if len(x) != dim:
            raise DomainError(f"point has {len(x)} coordinates, expected {dim}")
        return tuple(map(as_rational, x))
    if dim != 1:
        raise DomainError("scalar point given for a 2-dimensional domain")
    return (as_rational(x),)


def _as_level(n) -> int:
    try:
        return operator.index(n)
    except TypeError:
        raise DomainError(f"atom level {n!r} is not an integer") from None


class Atom(NamedTuple):
    center: Point
    level: int
    coef: complex


class _Frozen:
    """A read-only value: `__init__` stores the `_fields` in `__dict__` once;
    equality (within one class) and the hash read their values in order.  A
    `cached_property` memo writes `__dict__` directly and stays out of both."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class BruhatFn(_Frozen):
    """Finite sum of weighted cosets on the tagged domain: `entries` holds one
    (keys, level, coef) per coset, keys its `_coset_key` per coordinate; cosets
    may overlap and keep their order.  `atoms` views them as `Atom`s, with the
    caller's centres (`Fraction`s or ints) for `from_atoms`, else each key's
    `_key_center`.  The canonical form is the coset table, one coefficient per
    disjoint coset at one common level: `from_table` builds its own canonical
    form, and `canonicalize` refines any other's entries to their deepest
    level."""

    _fields = ("ctx", "domain", "entries", "torsor_scale")

    def __init__(self, ctx: LocalFieldCtx, domain: str,
                 entries: tuple[tuple[tuple[tuple[int, int], ...], int, complex], ...],
                 torsor_scale: Fraction | None = None):  # E^alpha: a = N(e) of the base point
        if domain not in _DOMAIN_DIM:
            raise DomainError(f"unknown domain tag {domain!r}")
        if (domain == "Ealpha") != (torsor_scale is not None):
            raise DomainError("E^alpha data, and only E^alpha data, has a torsor scale")
        self.__dict__.update(ctx=ctx, domain=domain, entries=entries, torsor_scale=torsor_scale)

    # --- constructors ---

    @staticmethod
    def from_atoms(ctx, domain, triples, torsor_scale=None) -> "BruhatFn":
        dim, p = _DOMAIN_DIM[domain], ctx.p
        atoms = tuple(Atom(_as_point(c, dim), _as_level(n), complex(w))
                      for (c, n, w) in triples if complex(w) != 0)
        out = BruhatFn(ctx, domain, tuple((tuple(_coset_key(c, a.level, p) for c in a.center),
                                           a.level, a.coef) for a in atoms),
                       torsor_scale=Fraction(torsor_scale) if torsor_scale is not None else None)
        out.__dict__["atoms"] = atoms  # seeds the view with the caller's centres
        return out

    @staticmethod
    def from_table(ctx, domain, level, table, torsor_scale=None) -> "BruhatFn":
        """Its own canonical form: coefficient w on the coset at `level` with
        the `_coset_key`s key, for (key, w) in the table, in the table's order;
        a nonempty table's `level` is the given one."""
        out = BruhatFn(ctx, domain, tuple(zip(table, repeat(level), table.values())),
                       torsor_scale)
        out.__dict__.update(_canonical_form=out, coset_table=table)  # seeds the memos
        if table:
            out.__dict__["level"] = level
        return out

    @staticmethod
    def indicator_ball(ctx, domain, center, level, torsor_scale=None) -> "BruhatFn":
        return BruhatFn.from_atoms(ctx, domain, [(center, level, 1.0)], torsor_scale)

    @staticmethod
    def zero(ctx, domain="F", torsor_scale=None) -> "BruhatFn":
        ts = Fraction(torsor_scale) if torsor_scale is not None else (
            Fraction(ctx.p) if domain == "Ealpha" else None)
        return BruhatFn.from_table(ctx, domain, 0, {}, ts)

    @property
    def dim(self) -> int:
        return _DOMAIN_DIM[self.domain]

    def is_zero(self) -> bool:
        return not self.entries

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        p = self.ctx.p
        return tuple(Atom(tuple(_key_center(k, p) for k in keys), n, w)
                     for keys, n, w in self.entries)

    # --- algebra ---

    def _check_compatible(self, other: "BruhatFn") -> None:
        if self.ctx.p != other.ctx.p:
            raise DomainError("cannot combine functions over different primes")
        if self.domain != other.domain or self.torsor_scale != other.torsor_scale:
            raise DomainError("cannot combine functions on different domains or torsors")

    def scale(self, w) -> "BruhatFn":
        return BruhatFn(self.ctx, self.domain,
                        tuple((keys, n, c * complex(w)) for keys, n, c in self.entries),
                        self.torsor_scale)

    def __add__(self, other: "BruhatFn") -> "BruhatFn":
        self._check_compatible(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        return BruhatFn(self.ctx, self.domain, self.entries + other.entries, self.torsor_scale)

    def __sub__(self, other: "BruhatFn") -> "BruhatFn":
        return self + other.scale(-1.0)

    # --- evaluation and canonical form ---

    def eval(self, x) -> complex:
        """Sum of the coefficients of the entries whose coset holds x (overlaps
        sum), x keyed once per distinct entry level."""
        pt, p = _as_point(x, self.dim), self.ctx.p
        keyed = {n: tuple(_coset_key(c, n, p) for c in pt)
                 for n in {n for _, n, _ in self.entries}}
        return sum((w for keys, n, w in self.entries if keyed[n] == keys), 0j)

    def canonicalize(self) -> "BruhatFn":
        return self._canonical_form

    @cached_property
    def _canonical_form(self) -> "BruhatFn":
        level = max((n for _, n, _ in self.entries), default=0)
        table = _refine(self.entries, level, self.ctx.p, self.dim)
        return BruhatFn.from_table(self.ctx, self.domain, level, table, self.torsor_scale)

    @cached_property
    def level(self) -> int:
        """Common level of the canonical form (0 for the zero function)."""
        return max((n for _, n, _ in self.canonicalize().entries), default=0)

    @cached_property
    def coset_table(self) -> dict[tuple[tuple[int, int], ...], complex]:
        """Canonical coefficients keyed by the `_coset_key` of each coset at
        `level`, in the order of the canonical entries."""
        return self.canonicalize().coset_table

    @cached_property
    def axis_radii(self) -> tuple[int, ...]:
        """Per coordinate, the smallest R_i >= 0 with supp f inside the product
        of the p^-R_i * o, read off the coset keys; the largest is the support
        radius."""
        return tuple(max([0] + [-key[i][0] for key in self.coset_table])
                     for i in range(self.dim))

    def make_evaluator(self):
        """Point evaluator: `eval`, which keys the point once per entry level."""
        return self.eval


def _coset_key(c: Fraction | int, level: int, p: int) -> tuple[int, int]:
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


def _key_ratio(key: tuple[int, int], p: int) -> tuple[int, int]:
    """The center res * p^v (res a unit or 0) of the coset with `_coset_key`
    (v, res) as a reduced (numerator, denominator)."""
    v, res = key
    if not res:
        return (0, 1)
    return (res * p ** v, 1) if v >= 0 else (res, p ** -v)


def _key_center(key: tuple[int, int], p: int) -> Fraction:
    """The center res * p^v of the coset with `_coset_key` (v, res)."""
    return Fraction(*_key_ratio(key, p))


def _refine(entries, level: int, p: int, dim: int) -> dict:
    """Coset table at `level` of the sum of the weights w on the cosets with
    `_coset_key`s keys at level n <= `level`, (keys, n, w) in `entries`: the
    cosets counted before any is built, then refined on integer residues;
    sums at most 1e-14 times the largest |w| dropped (so cancellation, not
    scale, empties a coset), the rest ordered by center."""
    cosets = sum(p ** (dim * (level - n)) for _, n, _ in entries)
    if cosets > _MAX_REFINEMENT:
        raise RepresentationError(
            f"canonical form needs {cosets} cosets at level {level}, "
            f"past the limit {_MAX_REFINEMENT}")
    acc: dict[tuple, complex] = {}
    for keys, n, w in entries:
        # the coset (v, res) at level n holds the points (res + s p^(n - v)) p^v
        children = [[_residue_key(v, res + s * p ** (n - v), level, p)
                     for s in range(p ** (level - n))] for v, res in keys]
        for key in itertools.product(*children):
            acc[key] = acc.get(key, 0j) + w
    floor = 1e-14 * max((abs(w) for _, _, w in entries), default=0.0)
    kept = sorted(((key, w) for key, w in acc.items() if abs(w) > floor),
                  key=lambda kw: str(tuple(_key_ratio(k, p) for k in kw[0])))
    return dict(kept)


# --- Fourier transforms -----------------------------------------------------------


def fourier(f: BruhatFn) -> BruhatFn:
    """Schoolbook transform on F: f^(y) = int f(x) psi^{-1}(xy) dx, self-dual dx."""
    if f.domain != "F":
        raise DomainError("fourier() is the one-variable transform on F")
    return _fourier_nd(f, scales=(1,))


def fourier_F2(f: BruhatFn) -> BruhatFn:
    """Transform on F^2 with kernel psi^{-1}(x1 y1 + x2 y2)."""
    if f.domain != "F2":
        raise DomainError("fourier_F2 expects F^2 data")
    return _fourier_nd(f, scales=(1, 1))


def fourier_E(f: BruhatFn, ext: QuadExt) -> BruhatFn:
    """Transform on E (or E^alpha) with kernel psi^{-1}(tr(x*conj(y))).

    In coordinates x = x1 + x2*sqrt(u): tr(x*conj(y)) = 2(x1 y1 - u x2 y2).
    On the torsor the pairing acquires the scale a = N(e) and the measure a
    factor |a|, giving hat(Phi^alpha)(y) = |a| * hat(Phi^0)(a y); `_fourier_nd`
    makes that substitution on its one-coordinate output keys.
    """
    if ext.kind != "inert":
        raise KindError("fourier_E needs an inert extension (split is coordinatewise)")
    if f.domain not in ("E", "Ealpha"):
        raise DomainError("fourier_E expects E or E^alpha data")
    return _fourier_nd(f, scales=(2, -2 * ext.u))


def _fourier_nd(f: BruhatFn, scales: tuple[int, ...]) -> BruhatFn:
    """Product-kernel transform psi^{-1}(sum_i s_i x_i y_i) for units s_i in Z,
    taken on the entries of f level by level, with no canonical refinement.

    With n the deepest entry level, output cosets at the common conductor
    level M are indexed and keyed by integers r = 0..p^(M+n) - 1 per
    coordinate (centers r p^-n).  The transform is linear, and an entry at
    level m transforms to a function on its dual ball p^-m o, whose cosets
    are the r = 0 mod p^(n - m): so each level's grid is its own sum at
    p^(M+m) points per coordinate (`_level_grid`), added into the full grid
    at those indices, deepest level first.  A single-level input is that one
    sum.  The 2-D output is one flat row-major grid.  Entries at most 1e-12
    times the largest are dropped, and all of them when the largest is at
    most 1e-12 times the input's mass, the sum of |w| vol over its entries:
    that is the rounding an input which cancels leaves.  On E^alpha data
    with torsor scale a = p^va ua the output is |a| hat(a y): the output
    coset (v, res) at level M becomes (v - va, res / ua) at level M - va.
    """
    ctx, entries = f.ctx, f.entries
    p, dim = ctx.p, f.dim
    if not entries:
        return BruhatFn.zero(ctx, f.domain, f.torsor_scale)
    by_level: dict[int, list] = {}
    for entry in entries:
        by_level.setdefault(entry[1], []).append(entry)
    n = max(by_level)
    out_level = max([-n] + [-v for keys, _, _ in entries for v, _ in keys if v < n])
    span = p ** (out_level + n)
    if span ** dim > _MAX_REFINEMENT:
        raise RepresentationError(
            f"Fourier transform needs {span ** dim} cosets at level {out_level}, "
            f"past the limit {_MAX_REFINEMENT}")
    grid, mass = [], 0.0
    for m in sorted(by_level, reverse=True):
        group, vol = by_level[m], float(Fraction(ctx.q) ** (-m * dim))
        mass += vol * sum(abs(w) for _, _, w in group)
        sub = p ** (out_level + m)
        part = _level_grid(group, m, sub, scales, p, vol, dim)
        if not grid:  # the deepest level fills the whole grid
            grid = part
            continue
        # row j of the level's grid lands on every (span / sub)-th entry of
        # the full grid's row j span / sub
        step = span // sub
        for j in range(sub ** (dim - 1)):
            at = slice(j * step * span, j * step * span + span, step)
            grid[at] = map(operator.add, grid[at], part[j * sub:(j + 1) * sub])
    peak = max(map(abs, grid))
    if peak <= 1e-12 * mass:
        return BruhatFn.zero(ctx, f.domain, f.torsor_scale)
    keys = [_residue_key(-n, r, out_level, p) for r in range(span)]  # of r p^-n
    a = f.torsor_scale
    if a is not None:
        va = rational_valuation(a, p)
        depth = max(1, out_level + n)
        inv = pow(unit_mod(a, va, p, depth), -1, p ** depth)
        keys = [(v - va, res * inv % p ** (out_level - v)) for v, res in keys]
        out_level -= va
    index = zip(keys) if dim == 1 else itertools.product(keys, keys)
    thresh = 1e-12 * peak
    kept = compress(zip(index, grid), map(thresh.__lt__, map(abs, grid)))
    if a is None:
        table = dict(kept)
    else:
        abs_a = float(Fraction(ctx.q) ** (-va))
        table = {key: w * abs_a for key, w in kept}
    return BruhatFn.from_table(ctx, f.domain, out_level, table, f.torsor_scale)


def _level_grid(entries, level: int, span: int, scales: tuple[int, ...], p: int,
                vol: float, dim: int) -> list[complex]:
    """Values at the points r p^-level, r = 0..span - 1 per coordinate (one
    flat row-major grid in 2-D), of the transform of the weights w on the
    cosets (keys, `level`, w) in `entries`, each coset of volume `vol`.

    Each coset coordinate c contributes psi^{-1}(s c r p^-level) = z^(k r),
    z = e(-1/span), with an integer phase k read off its key, so the weights
    are summed per phase and the sum is one discrete Fourier transform: over
    the last coordinate, then over the first.  Each phase's power row z^(k r),
    r = 0..span - 1, is read once per call from the table of the span roots,
    and each output is its sum over the phases in entry order, row by row
    (`_power_sum`).
    """

    def phase(key: tuple[int, int], s: int) -> int:
        # k with psi^{-1}(s c r p^-level) = z^(k r) for c = res p^v: s c has
        # the unit s res, and p^(level - v) is the conductor exponent in r
        v, res = key
        return s * res % p ** (level - v) * (span // p ** (level - v)) if v < level else 0

    rows: dict[int, dict[int, complex]] = {}  # first phase -> last phase -> weight
    for keys, _, w in entries:
        ks = [phase(k, s) for k, s in zip(keys, scales)]
        row = rows.setdefault(ks[0] if dim > 1 else 0, {})
        row[ks[-1]] = row.get(ks[-1], 0j) + w * vol
    roots = [complex(math.cos(t), math.sin(t))
             for t in (-2 * math.pi * j / span for j in range(span))]
    # a strided slice of the roots repeated _POWER_REPS times reads z^(k r)
    # for consecutive r until it runs off the end, so the row of a phase k is
    # at most k / _POWER_REPS + 1 slices
    cycle = roots * _POWER_REPS
    powers: dict[int, list[complex]] = {0: roots[:1] * span}

    def power_row(k: int) -> list[complex]:
        row = powers.get(k)
        if row is None:
            row = powers[k] = []
            while len(row) < span:
                start = k * len(row) % span
                row += cycle[start:start + k * (span - len(row)):k]
        return row

    last = {k: _power_sum(((repeat(w), power_row(k2)) for k2, w in row.items()), span)
            for k, row in rows.items()}
    if dim == 1:
        return last[0]
    # grid[r1 span + r2] = sum_k1 last[k1][r2] z^(k1 r1): the row last[k1]
    # tiled span times against each z^(k1 r1) repeated span times
    return _power_sum(((t * span, chain.from_iterable(map(repeat, power_row(k), repeat(span))))
                       for k, t in last.items()), span * span)


def _power_sum(products, size: int) -> list[complex]:
    """Elementwise sum of the products a * b over the pairs (a, b) of
    iterables of `size` entries in `products`: each output starts at 0j and
    adds its product from one pair after the other, as the direct sum would."""
    total = [0j] * size
    for a, b in products:
        total = list(map(operator.add, total, map(operator.mul, a, b)))
    return total


def negate_argument(f: BruhatFn) -> BruhatFn:
    # -c has the key (v, -res) of c's key (v, res)
    p = f.ctx.p
    entries = tuple((tuple((v, -res % p ** (n - v)) for v, res in keys), n, w)
                    for keys, n, w in f.entries)
    return BruhatFn(f.ctx, f.domain, entries, f.torsor_scale)


def inner_product(f: BruhatFn, g: BruhatFn) -> complex:
    """Bilinear int f*g dx (no conjugation), both refined to a common level."""
    f._check_compatible(g)
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
    return sum(f.coset_table.values(), 0j) * float(Fraction(f.ctx.q) ** (-f.level * f.dim))


def _table_at(f: BruhatFn, level: int) -> dict:
    """Coset table of f refined to `level` >= f.level."""
    if f.level == level:
        return f.coset_table
    return _refine(f.canonicalize().entries, level, f.ctx.p, f.dim)


# --- Mellin characters and Tate integrals ----------------------------------------


class MellinCharacter(_Frozen):
    """Unramified-or-eta character component: conductor <= 1."""

    _fields = ("ext", "quadratic")

    def __init__(self, ext: QuadExt, quadratic: str = "trivial"):  # "trivial" | "eta"
        if quadratic not in ("trivial", "eta"):
            raise UnsupportedAtomError("only trivial and eta components are in scope")
        if ext.kind == "split":
            quadratic = "trivial"  # eta = 1 in the split case; normalize to the trivial tag
        self.__dict__.update(ext=ext, quadratic=quadratic)

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
    ctx, level = f.ctx, f.level
    laurent: dict[int, complex] = {}
    tails = RationalFnT.zero()
    vol_shell = float(ctx.vol_Ox)
    for ((vc, _),), coef in f.coset_table.items():
        if vc < level:
            # the coset sits inside the shell |x| = q^-vc
            sign = chi.sign_of_val(vc)
            mass = float(Fraction(ctx.q) ** (vc - level))  # d^x-volume of the coset
            laurent[vc] = laurent.get(vc, 0j) + coef * sign * mass
        else:
            # full ball p^level * o around zero: geometric sum over deep shells
            if level < 0:
                for k in range(level, 0):
                    sign = chi.sign_of_val(k)
                    laurent[k] = laurent.get(k, 0j) + coef * sign * vol_shell
                start = 0
            else:
                start = level
            ratio = -1.0 if chi.quadratic == "eta" else 1.0
            tails = tails + geometric_tail(ratio, start).scale(coef * vol_shell)
    return _laurent_to_rational(laurent) + tails


def mellin_component(f_window: BruhatFn, chi: MellinCharacter) -> RationalFnT:
    """f-check(chi)(t) = sum_k q^{-k/2} t^k * int_{val=k} f chi d^x, a Laurent
    polynomial for a window away from 0 (`spaces.sx_mellin` adds a germ)."""
    ctx = f_window.ctx
    qh = ctx.q ** 0.5
    laurent: dict[int, complex] = {}
    for ((vc, _),), n, w in f_window.entries:  # linear in entries: no canonical refinement
        if vc >= n:
            raise UnsupportedAtomError("window atom touches 0; put it in the germ")
        sign = chi.sign_of_val(vc)
        mass = float(Fraction(ctx.q) ** (vc - n)) * qh ** (-vc)
        laurent[vc] = laurent.get(vc, 0j) + w * sign * mass
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

