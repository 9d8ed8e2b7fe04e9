"""PGL2 over o/p^N: cosets, Hecke algebra, Satake, Casselman-Shalika, Whittaker.

`double_coset_reps` lists the left cosets of K diag(pi^m,1) K as integer
lattice forms; the torus engine in `orbital` counts them on valuations alone,
without listing them, and the tests hold it to this list.  `GroupElt`, a
content-normalized matrix over exact rationals, is the oracles' type only: the
Satake transform, the Iwasawa decomposition and the brute-force convolutions,
against which the tests hold the closed forms here (change of basis h_n ->
double cosets, Casselman-Shalika action, L-function series coefficients).
"""

from __future__ import annotations

import cmath
import operator
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, PoleError
from .localfield import LocalFieldCtx, psi_eval_frac, rational_valuation, unit_mod

Mat = tuple[Fraction, Fraction, Fraction, Fraction]  # row major a,b,c,d


def _vals(ctx: LocalFieldCtx, m: Mat) -> list[int]:
    return [rational_valuation(x, ctx.p) for x in m]


class GroupElt(NamedTuple):
    """Element of PGL2(F) as a content-normalized 2x2 rational matrix."""

    ctx: LocalFieldCtx
    m: Mat

    @staticmethod
    def of(ctx: LocalFieldCtx, a, b, c, d) -> "GroupElt":
        m = (Fraction(a), Fraction(b), Fraction(c), Fraction(d))
        if all(x == 0 for x in m):
            raise DomainError("zero matrix")
        content = min(rational_valuation(x, ctx.p) for x in m if x != 0)
        scale = Fraction(ctx.p) ** content
        m = tuple(x / scale for x in m)
        if m[0] * m[3] - m[1] * m[2] == 0:
            raise DomainError("singular matrix")
        return GroupElt(ctx, m)

    @staticmethod
    def identity(ctx: LocalFieldCtx) -> "GroupElt":
        return GroupElt.of(ctx, 1, 0, 0, 1)

    @staticmethod
    def diag(ctx: LocalFieldCtx, a, d=1) -> "GroupElt":
        return GroupElt.of(ctx, a, 0, 0, d)

    @staticmethod
    def upper(ctx: LocalFieldCtx, x) -> "GroupElt":
        return GroupElt.of(ctx, 1, x, 0, 1)

    @staticmethod
    def lower(ctx: LocalFieldCtx, x) -> "GroupElt":
        return GroupElt.of(ctx, 1, 0, x, 1)

    def mul(self, other: "GroupElt") -> "GroupElt":
        a, b, c, d = self.m
        e, f, g, h = other.m
        return GroupElt.of(self.ctx, a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def inv(self) -> "GroupElt":
        a, b, c, d = self.m
        return GroupElt.of(self.ctx, d, -b, -c, a)

    def det_val(self) -> int:
        a, b, c, d = self.m
        return rational_valuation(a * d - b * c, self.ctx.p)

    def in_K(self) -> bool:
        """Membership in PGL2(o) for the content-normalized representative."""
        vals = _vals(self.ctx, self.m)
        return min(vals) >= 0 and self.det_val() == 0

    def snf_type(self) -> int:
        """m >= 0 with g in K diag(pi^m, 1) K (elementary-divisor gap)."""
        # content is 0 by normalization; the gap is the det valuation
        t = self.det_val()
        if min(_vals(self.ctx, self.m)) < 0:
            raise DomainError("snf_type on a non-normalized matrix")
        return t

    def key_mod(self, N: int) -> tuple:
        """Canonical residue key mod p^N for equality mod scalars."""
        p = self.ctx.p
        # divide by the unit of the first minimal-valuation entry
        lead = next(x for x in self.m if x != 0 and rational_valuation(x, p) == 0)
        return tuple(unit_mod(x / lead, 0, p, N) for x in self.m)

    def __repr__(self) -> str:
        return f"[[{self.m[0]}, {self.m[1]}], [{self.m[2]}, {self.m[3]}]]"


def iwasawa_decompose(g: GroupElt) -> tuple[Fraction, int, GroupElt]:
    """g = n(x) diag(pi^a, 1) k with k in K: returns (x, a, k).

    The recomposition n(x)*diag(pi^a,1)*k reproduces g modulo scalars exactly.
    """
    ctx = g.ctx
    a, b, c, d = g.m
    vc = rational_valuation(c, ctx.p)
    vd = rational_valuation(d, ctx.p)
    if vc >= vd:
        # kill c with a lower-triangular K element
        k1 = GroupElt.of(ctx, 1, 0, -c / d, 1)
        m = g.mul(k1)
        aa, bb, _, dd = m.m
        x = bb / dd
        aval = rational_valuation(aa / dd, ctx.p)
        k = k1.inv()
    else:
        # swap columns by the Weyl element in K first
        w = GroupElt.of(ctx, 0, 1, -1, 0)
        gw = g.mul(w)
        a2, b2, c2, d2 = gw.m
        k1 = GroupElt.of(ctx, 1, 0, -c2 / d2, 1)
        m = gw.mul(k1)
        aa, bb, _, dd = m.m
        x = bb / dd
        aval = rational_valuation(aa / dd, ctx.p)
        k = k1.inv().mul(w.inv())
    # unit parts of the torus entry stay inside k: rescale k by diag(unit,1)
    unit = (aa / dd) / Fraction(ctx.p) ** aval
    k = GroupElt.of(ctx, unit, 0, 0, 1).mul(k)
    return x, aval, k


def recompose(ctx: LocalFieldCtx, x: Fraction, aval: int, k: GroupElt) -> GroupElt:
    n = GroupElt.upper(ctx, x)
    t = GroupElt.diag(ctx, Fraction(ctx.p) ** aval)
    return n.mul(t).mul(k)


def double_coset_reps(ctx: LocalFieldCtx, m: int) -> list[tuple[int, int, int]]:
    """Left cosets of K diag(pi^m,1) K / K as integer lattice forms (a, c, d).

    (a, c, d) stands for [[p^a, c], [0, p^d]] K with a + d = m, c mod p^a, and
    c a unit when a, d > 0 (unit content); q^m + q^(m-1) of them for m >= 1,
    confirmed by enumeration in the tests.
    """
    if m < 0:
        raise DomainError("m must be >= 0")
    p = ctx.p
    return [(a, c, m - a) for a in range(m + 1) for c in range(p ** a)
            if a in (0, m) or c % p]


# --- Hecke algebra on the Satake basis --------------------------------------------


def _basis_items(data: dict[int, complex], negative: str) -> tuple[tuple[int, complex], ...]:
    """The nonzero (n, c) of `data` sorted by n.  DomainError for an index that
    is not an integer (`operator.index`: 1.5 is not read as 1), a coefficient
    that is not finite, or a negative index of a nonzero coefficient (`negative`)."""
    items = []
    for n, c in data.items():
        try:
            n = operator.index(n)
        except TypeError:
            raise DomainError(f"basis index {n!r} is not an integer") from None
        c = complex(c)
        if not cmath.isfinite(c):
            raise DomainError(f"coefficient {c} of index {n} is not finite")
        if c != 0:
            if n < 0:
                raise DomainError(negative)
            items.append((n, c))
    return tuple(sorted(items))


class HeckeElt(NamedTuple):
    """Finitely supported coefficient vector on the Satake basis {h_n}."""

    coeffs: tuple[tuple[int, complex], ...]  # sorted by n

    @staticmethod
    def of(data: dict[int, complex]) -> "HeckeElt":
        return HeckeElt(_basis_items(data, "h_n needs n >= 0"))

    @staticmethod
    def basis(n: int, c=1.0) -> "HeckeElt":
        return HeckeElt.of({n: c})

    @staticmethod
    def zero() -> "HeckeElt":
        return HeckeElt.of({})

    def as_dict(self) -> dict[int, complex]:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        d = self.as_dict()
        for n, c in other.coeffs:
            d[n] = d.get(n, 0j) + c
        return HeckeElt.of(d)

    def scale(self, c) -> "HeckeElt":
        return HeckeElt.of({n: w * complex(c) for n, w in self.coeffs})

    def mul(self, other: "HeckeElt") -> "HeckeElt":
        """Clebsch-Gordan: h_m h_n = sum_{l=0..min(m,n)} h_{m+n-2l}."""
        out: dict[int, complex] = {}
        for m, cm in self.coeffs:
            for n, cn in other.coeffs:
                for l in range(min(m, n) + 1):
                    k = m + n - 2 * l
                    out[k] = out.get(k, 0j) + cm * cn
        return HeckeElt.of(out)

    def max_degree(self) -> int:
        return max((n for n, _ in self.coeffs), default=0)


# --- Satake transform --------------------------------------------------------------


class SymLaurent(NamedTuple):
    """Symmetric Laurent polynomial in alpha: c_0 + sum_{k>=1} c_k (alpha^k + alpha^-k)."""

    coeffs: tuple[complex, ...]

    @staticmethod
    def of(d: dict[int, complex]) -> "SymLaurent":
        top = max(d, default=0)
        out = [0j] * (top + 1)
        for k, c in d.items():
            if k < 0:
                raise DomainError("symmetric basis is indexed by k >= 0")
            out[k] = complex(c)
        while len(out) > 1 and abs(out[-1]) < 1e-12:
            out.pop()
        return SymLaurent(tuple(out))

    def eval(self, alpha: complex) -> complex:
        if alpha == 0:
            raise DomainError("a Satake parameter is nonzero")
        total = self.coeffs[0]
        for k in range(1, len(self.coeffs)):
            total += self.coeffs[k] * (alpha ** k + alpha ** (-k))
        return total

    def __add__(self, other: "SymLaurent") -> "SymLaurent":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0j] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0j] * (n - len(other.coeffs))
        return SymLaurent.of({k: a[k] + b[k] for k in range(n)})

    def scale(self, c) -> "SymLaurent":
        return SymLaurent.of({k: complex(c) * w for k, w in enumerate(self.coeffs)})

    def _signed(self) -> dict[int, complex]:
        d = {0: self.coeffs[0]}
        for k in range(1, len(self.coeffs)):
            d[k] = self.coeffs[k]
            d[-k] = self.coeffs[k]
        return d

    def mul(self, other: "SymLaurent") -> "SymLaurent":
        a, b = self._signed(), other._signed()
        prod: dict[int, complex] = {}
        for i, ca in a.items():
            if ca == 0:
                continue
            for j, cb in b.items():
                if cb == 0:
                    continue
                prod[i + j] = prod.get(i + j, 0j) + ca * cb
        return _fold_signed(prod)


def _fold_signed(signed: dict[int, complex]) -> SymLaurent:
    top = max((abs(k) for k in signed), default=0)
    out = {0: signed.get(0, 0j)}
    for k in range(1, top + 1):
        cp, cm = signed.get(k, 0j), signed.get(-k, 0j)
        if abs(cp - cm) > 1e-8 * max(1.0, abs(cp), abs(cm)):
            raise DomainError("asymmetric Laurent data; convention bug")
        out[k] = (cp + cm) / 2
    return SymLaurent.of(out)


def tr_Vn(n: int) -> SymLaurent:
    """Character of the n-th SL2 representation: alpha^n + alpha^(n-2) + ... ."""
    return SymLaurent.of({k: 1.0 for k in range(n % 2, n + 1, 2)})


def satake_transform(ctx: LocalFieldCtx, coset_coeffs: dict[int, complex]) -> SymLaurent:
    """S(f) for f = sum_m coeffs[m] 1_{K diag(pi^m,1) K}.

    S(f)(alpha) = sum over left-coset representatives of delta^{1/2}(a(g)) *
    alpha^{a-val(g)} with the Iwasawa a-part; delta(diag(a,1)) = |a| pins the
    normalization (the multiplicativity test would fail for the other sign).
    """
    p, qh = ctx.p, ctx.q ** 0.5
    signed: dict[int, complex] = {}
    for m, cm in coset_coeffs.items():
        if cm == 0:
            continue
        for a, c, d in double_coset_reps(ctx, m):
            _, aval, _ = iwasawa_decompose(GroupElt.of(ctx, p ** a, c, 0, p ** d))
            signed[aval] = signed.get(aval, 0j) + cm * qh ** (-aval)
    return _fold_signed(signed)


def coset_basis_to_hecke(ctx: LocalFieldCtx, coset_coeffs: dict[int, complex]) -> HeckeElt:
    """Change of basis 1_{K pi^m K} -> {h_n} by peeling Satake top terms."""
    s = satake_transform(ctx, coset_coeffs)
    out: dict[int, complex] = {}
    work = list(s.coeffs)
    for n in range(len(work) - 1, -1, -1):
        c = work[n]
        if abs(c) < 1e-12:
            continue
        out[n] = c
        trn = tr_Vn(n)
        for k in range(len(trn.coeffs)):
            work[k] -= c * trn.coeffs[k]
    return HeckeElt.of(out)


def hecke_to_coset_basis(ctx: LocalFieldCtx, h: HeckeElt) -> dict[int, complex]:
    """{h_n} -> double cosets: h_n = q^(-n/2) sum_{k = n, n-2, ..., n mod 2} 1_{K pi^k K},
    checked against the Satake transform in the tests.  Keys decrease: the order
    the torus count sums in, which keeps fixed-seed reports byte-stable.  A
    degree n with q^ceil(n/2) past the largest float, or a c q^(-n/2) that
    underflows to 0, raises DomainError: h_n would drop out without a word."""
    top = h.max_degree()
    ctx.check_float_power((top + 1) // 2, f"Hecke degree {top}")
    out: dict[int, complex] = {}
    for n, c in h.coeffs:
        w = c * ctx.q ** (-n / 2)
        if w == 0:
            raise DomainError(f"coefficient {c} of h_{n} underflows at {ctx.q}^(-{n}/2)")
        for k in range(n % 2, n + 1, 2):
            out[k] = out.get(k, 0j) + w
    return {k: out[k] for k in sorted(out, reverse=True) if out[k] != 0}


# --- sections, Casselman-Shalika, Whittaker ---------------------------------------


class KSection(NamedTuple):
    """K-invariant compactly supported section on the {1_{x_nK}} basis."""

    coeffs: tuple[tuple[int, complex], ...]

    @staticmethod
    def of(data: dict[int, complex]) -> "KSection":
        return KSection(_basis_items(data, "sections are supported on n >= 0"))

    @staticmethod
    def basic() -> "KSection":
        return KSection.of({0: 1.0})

    def as_dict(self) -> dict[int, complex]:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs


def cs_action(ctx: LocalFieldCtx, h: HeckeElt, sec: KSection) -> KSection:
    """h * sec through the h-basis: 1_{x_mK} = q^{m/2} h_m * 1_{x_0K}."""
    qh = ctx.q ** 0.5
    total: dict[int, complex] = {}
    for m, cm in sec.coeffs:
        prod = h.mul(HeckeElt.basis(m)).scale(cm * qh ** m)
        for n, cn in prod.coeffs:
            total[n] = total.get(n, 0j) + cn * qh ** (-n)
    return KSection.of(total)


def section_eval(ctx: LocalFieldCtx, sec: KSection, g: GroupElt) -> complex:
    """Pointwise value of sum_n c_n 1_{x_nK} at g (for upstairs cross-checks)."""
    x, aval, _ = iwasawa_decompose(g)
    d = sec.as_dict()
    if aval not in d:
        return 0j
    return d[aval] * psi_eval_frac(ctx, x)


def hecke_translate_section(ctx: LocalFieldCtx, h: HeckeElt, sec: KSection,
                            probe_max: int) -> KSection:
    """Upstairs convolution (counting normalization) sampled at diag(pi^n, 1)."""
    p = ctx.p
    dc = hecke_to_coset_basis(ctx, h)
    out: dict[int, complex] = {}
    for n in range(probe_max + 1):
        g = GroupElt.diag(ctx, Fraction(p) ** n)
        val = 0j
        for m, cm in dc.items():
            for a, c, d in double_coset_reps(ctx, m):
                rep = GroupElt.of(ctx, p ** a, c, 0, p ** d)
                val += cm * section_eval(ctx, sec, g.mul(rep))
        if abs(val) > 1e-12:
            out[n] = val
    return KSection.of(out)


def brute_convolution(ctx: LocalFieldCtx, m1: int, m2: int) -> dict[int, complex]:
    """1_{K pi^m1 K} * 1_{K pi^m2 K} in the double-coset basis, by counting.

    (f * f')(g) = #{gamma K in K pi^m1 K : gamma^-1 g in K pi^m2 K}; the
    matrix products run over o/p^N with N > m1 + m2 (exact rationals here).
    """
    p = ctx.p
    reps = [GroupElt.of(ctx, p ** a, c, 0, p ** d) for a, c, d in double_coset_reps(ctx, m1)]
    out: dict[int, complex] = {}
    for k in range(m1 + m2 + 1):
        g = GroupElt.diag(ctx, Fraction(p) ** k)
        cnt = sum(1 for gam in reps if gam.inv().mul(g).snf_type() == m2)
        if cnt:
            out[k] = complex(cnt)
    return out


def whittaker_eval(ctx: LocalFieldCtx, alpha: complex, n: int) -> complex:
    """Spherical Whittaker value W(diag(pi^n,1)) = q^{-n/2} tr V_n(alpha); W(1)=1."""
    if alpha == 0:
        raise DomainError("a Satake parameter is nonzero")
    if n < 0:
        return 0j
    if abs(alpha - 1) < 1e-12:
        tr = complex(n + 1)
    elif abs(alpha + 1) < 1e-12:
        tr = complex((n + 1) * (-1) ** n)
    else:
        tr = (alpha ** (n + 1) - alpha ** (-(n + 1))) / (alpha - 1 / alpha)
    return ctx.q ** (-n / 2) * tr


def h_s_coeffs(ctx: LocalFieldCtx, s: complex, epsilon: int, n_max: int) -> list[complex]:
    """Coefficient of 1_{x_nK} in H_s * 1_{x_0K} for n = 0..n_max."""
    if epsilon not in (1, -1):
        raise DomainError("epsilon is +1 or -1")
    q = ctx.q
    denom = 1 - epsilon * q ** (-2 * s - 1)
    if abs(denom) < 1e-12:
        raise PoleError("1 - eps q^{-2s-1} = 0")
    out = []
    for n in range(n_max + 1):
        base = q ** (-n * (s + 1)) / denom
        if epsilon == 1:
            out.append(base * (n + 1))
        else:
            out.append(base if n % 2 == 0 else 0j)
    return out


def l_factor_eval(ctx: LocalFieldCtx, alpha: complex, s: complex) -> complex:
    """L(pi, s) = 1/((1 - alpha q^-s)(1 - alpha^{-1} q^-s)) for Satake parameter alpha."""
    if alpha == 0:
        raise DomainError("a Satake parameter is nonzero")
    q = ctx.q
    t = q ** (-s)
    d = (1 - alpha * t) * (1 - t / alpha)
    if abs(d) < 1e-300:
        raise PoleError("L-factor pole")
    return 1.0 / d
