import functools
import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import padicorb.groups as groups
import padicorb.orbital as orbital
from padicorb.errors import (
    DomainError,
    IrregularPointError,
    KindError,
    PrecisionError,
    RepresentationError,
    UnsupportedSectionError,
)
from padicorb.bruhat import BruhatFn
from padicorb.groups import (
    GroupElt,
    HeckeElt,
    KSection,
    coset_basis_to_hecke,
    double_coset_reps,
    hecke_to_coset_basis,
)
from padicorb.localfield import (
    INF,
    LocalFieldCtx,
    QuadExt,
    _val_int,
    psi_eval_frac,
    rational_valuation,
    smallest_nonresidue,
    unit_mod,
    unit_reps,
)
from padicorb.orbital import (
    BabyInput,
    _ONSET_RTOL,
    _integral_translate,
    _inert_count,
    _matrix_vals,
    _split_count,
    _split_interval,
    _x1_count,
    baby_orbital,
    basic_fW0,
    basic_fZ0,
    fourier_baby,
    gamma_star,
    hecke_apply_W,
    hecke_apply_W_tail,
    hecke_apply_Z,
    inert_rep_for,
    kloosterman,
    nonsplit_germ_data,
    norm_lift,
    norm_one_reps,
    o_baby_nonsplit,
    o_baby_split,
    o_kuz_closed,
    o_kuz_direct,
    o_torus_group,
    random_baby_data,
    split_germ_data,
    sx_from_baby,
    sz_from_charts,
    verify_fl,
    verify_matching,
    whittaker_unfolding_check,
)
from padicorb.spaces import (
    _DROP,
    Germ,
    SXElem,
    SZElem,
    _value_atoms,
    g_transform_SX,
    g_transform_Z_to_W,
    g_value_SX,
    g_value_Z_to_W,
    ip_kuz,
    ip_torus,
)

import oracles
from oracles import (
    _pair_profile,
    _shell_values,
    baby_xi_level,
    coset_terms,
    enumerated_x1_count,
    fitted_chart_germ,
    hensel_inert_rep,
    inert_fiber_is_trivial,
    keyed_o_baby_nonsplit,
    keyed_o_baby_split,
    reference_integral_translate,
    reference_x1_count,
    sampled_hecke_apply_W_elem,
    sampled_hecke_apply_Z,
    sampled_sx_from_baby,
    sampled_sz_from_charts,
    torus_pair_invariant,
)


# --- baby case ---------------------------------------------------------------------


def test_o_baby_split_ball(ctx3):
    phi = BruhatFn.indicator_ball(ctx3, "F2", (0, 0), 0)
    q = 3
    for k in range(5):
        assert abs(o_baby_split(phi, Fraction(3) ** k) - (k + 1) * (1 - 1 / q)) < 1e-12
    assert o_baby_split(phi, Fraction(1, 3)) == 0
    with pytest.raises(IrregularPointError):
        o_baby_split(phi, 0)


def test_split_germ_formulas(ctx3):
    """O~_0 = Vol(T(F)_0) Phi(0) and O~_u from the axis Tate integrals."""
    q = 3
    phi = BruhatFn.indicator_ball(ctx3, "F2", (0, 0), 0)
    g = split_germ_data(phi)
    assert abs(g.b / math.log(q) - (1 - 1 / q) / math.log(q)) < 1e-12
    assert abs(g.a - (1 - 1 / q)) < 1e-12
    # random data: germ formula against deep orbital values
    rng = random.Random(2)
    for _ in range(8):
        phi = random_baby_data(ctx3, "split", rng)
        g = split_germ_data(phi)
        for j in (g.level + 1, g.level + 2):
            got = o_baby_split(phi, Fraction(3) ** j)
            want = g.a + g.b * j
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_o_baby_nonsplit(ctx3, ext3i):
    q = 3
    one = BruhatFn.indicator_ball(ctx3, "E", (0, 0), 0)
    zero = BruhatFn.zero(ctx3, "E")
    inp = BabyInput(ext3i, one, zero)
    for k in (0, 2, 4):
        assert abs(o_baby_nonsplit(inp, Fraction(3) ** k) - (1 + 1 / q)) < 1e-10
    assert o_baby_nonsplit(inp, Fraction(3)) == 0  # odd valuation: not a norm
    with pytest.raises(IrregularPointError):
        o_baby_nonsplit(inp, 0)
    # torsor copy covers the odd valuations
    inp_a = BabyInput(ext3i, zero, one)
    assert abs(o_baby_nonsplit(inp_a, Fraction(3)) - (1 + 1 / q)) < 1e-10
    assert o_baby_nonsplit(inp_a, Fraction(1)) == 0


def test_nonsplit_germ_signs(ctx3, ext3i):
    q = 3
    one = BruhatFn.indicator_ball(ctx3, "E", (0, 0), 0)
    zero = BruhatFn.zero(ctx3, "E")
    g_triv = nonsplit_germ_data(BabyInput(ext3i, one, zero))
    volT = 1 + 1 / q
    assert abs(g_triv.a - volT / 2) < 1e-12
    assert abs(g_triv.b - volT / 2) < 1e-12
    g_alpha = nonsplit_germ_data(BabyInput(ext3i, zero, one))
    assert abs(g_alpha.a - volT / 2) < 1e-12
    assert abs(g_alpha.b + volT / 2) < 1e-12  # kappa_0 component flips sign


def test_norm_one_count(ctx3, ext3i):
    for m in (1, 2, 3):
        assert len(norm_one_reps(ext3i, m)) == 3 ** (m - 1) * 4


@pytest.mark.parametrize("p", [3, 5])
def test_o_baby_split_matches_atom_scan(p):
    """The integer-keyed split orbital against the same finite sum taken with
    `BruhatFn.eval`, which keys each rational point by `_coset_key` instead of
    building its residues."""
    ctx = LocalFieldCtx(p)
    for seed in range(12):  # 576 points per prime
        phi = random_baby_data(ctx, "split", random.Random(40 + seed))
        level = max(a.level for a in phi.atoms)
        rad = max(max(0, -min(rational_valuation(c, p), a.level))
                  for a in phi.atoms for c in a.center)
        for vxi in range(-6, 6):
            for u in (1, 2, p - 1, p + 1):
                xi = Fraction(u) * Fraction(p) ** vxi
                want = 0j
                for n in range(-rad - vxi, rad + 1):
                    m = max(1, level - (vxi + n), level + n)
                    for w in range(1, p ** m):
                        if w % p:
                            a = w * Fraction(p) ** n
                            want += phi.eval((a * xi, 1 / a)) * float(p) ** (-m)
                got = o_baby_split(phi, xi)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (seed, xi)


def _mixed_level_baby_data(ctx, kind):
    """Baby data with one atom at each of the levels 1, 0 and -1, at centers
    of valuations -1..1 (the transform's grid stays p^2 per axis)."""
    p = ctx.p
    atoms = [((Fraction(p - 1, p), Fraction(1 + p)), 1, 1.5 - 0.5j),
             ((Fraction(2, p), Fraction(p)), 0, -0.75 + 1j),
             ((Fraction(1 + p), Fraction(p - 1, p)), -1, 0.25 + 0.5j)]
    if kind == "split":
        return BruhatFn.from_atoms(ctx, "F2", atoms)
    phi0 = BruhatFn.from_atoms(ctx, "E", atoms)
    return BabyInput(QuadExt(ctx, kind), phi0, phi0.scale(0.5 - 1j))


def _assert_baby_orbitals_equal_keyed_reference(p, rng, samples):
    ctx = LocalFieldCtx(p)
    for kind, orbit, keyed in (("split", o_baby_split, keyed_o_baby_split),
                               ("inert", o_baby_nonsplit, keyed_o_baby_nonsplit)):
        nonzero = 0
        phis = [random_baby_data(ctx, kind, rng) for _ in range(samples)]
        for phi in phis + [_mixed_level_baby_data(ctx, kind)]:
            for data in (phi, fourier_baby(phi, kind)):
                for v in range(-6, 7):
                    for u in (1, 2, p - 1, p + 1):
                        xi = Fraction(u) * Fraction(p) ** v
                        got = orbit(data, xi)
                        assert got == keyed(data, xi), (kind, v, u)
                        nonzero += got != 0
        assert nonzero > 0, kind


@pytest.mark.parametrize("p", [3, 5, 7])
def test_baby_orbitals_equal_keyed_reference(p):
    """Both baby orbitals, reading their units off shared rows (split) or by
    one lookup per residue (inert), equal the references that key every
    coordinate with `_residue_key`, bit for bit, on val -6..6 at the units 1,
    2, p - 1 and 1 + p, on Phi and on Phi-hat, for seeded Phi and a Phi with
    atoms at three levels."""
    _assert_baby_orbitals_equal_keyed_reference(p, random.Random(70 + p), 3 if p < 7 else 1)


def test_baby_orbitals_equal_keyed_reference_across_primes():
    """The split orbital's unit rows are memoized by (p, k): with the primes
    interleaved 3, 5, 7, 3 in one run, rows kept by k alone would hand one
    prime another's units, and the orbitals would leave the reference."""
    for i, p in enumerate((3, 5, 7, 3)):
        _assert_baby_orbitals_equal_keyed_reference(p, random.Random(170 + i), 1)


class _CountingTable(dict):
    lookups = 0

    def get(self, key, default=None):
        _CountingTable.lookups += 1
        return super().get(key, default)


def test_split_baby_orbital_skips_shells_without_a_coset(ctx3):
    """Phi = 1 on one coset at level 3 whose coordinates have valuations -2
    and 1: its cosets have the one valuation pair (-2, 1), so of the shells
    a = u p^n that the support allows only n = -1 looks up residues, once
    per unit mod p^5 (162 lookups), and only at val xi = -1; every other
    shell is skipped, and the orbital equals the keyed reference."""
    p, level = 3, 3
    c1, c2 = Fraction(2, 9), Fraction(3)
    phi = BruhatFn.from_atoms(ctx3, "F2", [((c1, c2), level, 2.0 - 1j)])
    assert phi.coset_valuations == {(-2, 1)}
    rad = max(phi.axis_radii)
    phi.__dict__["coset_table"] = _CountingTable(phi.coset_table)
    hits = 0
    for vxi in range(-4, 5):
        for xi in (Fraction(p) ** vxi, c1 * c2 * Fraction(p) ** (vxi + 1)):
            _CountingTable.lookups = 0
            got = o_baby_split(phi, xi)
            lookups = _CountingTable.lookups
            assert got == keyed_o_baby_split(phi, xi)
            if vxi == -1:
                assert len(range(-rad - vxi, rad + 1)) == 4
                assert lookups == (p - 1) * p ** 4
            else:
                assert lookups == 0
            hits += got != 0
    assert hits == 1  # xi = c1 c2: a = 1/c2 puts both coordinates on the coset


@pytest.mark.parametrize("p", [3, 5, 7])
def test_inert_baby_orbital_reads_t_at_its_key_level(p):
    """The inert baby orbital enumerates T(o) at the level its keys read,
    m = max(L - w, 1) with mass q^-m.  The enumeration one level deeper, which
    reads each key pair p times, gives the same orbital up to rounding: within
    1e-13 of the data's norm on Phi and Phi-hat of seeds 0-3, val -5..5, units
    1 and 2."""
    ctx = LocalFieldCtx(p)
    nonzero = 0
    for seed in range(4):
        phi = random_baby_data(ctx, "inert", random.Random(seed))
        for data in (phi, fourier_baby(phi, "inert")):
            norm = max(abs(w) for fn in (data.phi0, data.phi_alpha) for _, _, w in fn.entries)
            for v in range(-5, 6):
                for u in (1, 2):
                    xi = Fraction(u) * Fraction(p) ** v
                    got = o_baby_nonsplit(data, xi)
                    assert abs(got - keyed_o_baby_nonsplit(data, xi, deep=True)) <= 1e-13 * norm
                    nonzero += got != 0
    assert nonzero > 0


@pytest.mark.parametrize("p", [3, 5])
def test_norm_lift_residues(p):
    """norm_lift gives integer residues with a^2 - u b^2 = unit(target) mod p^prec."""
    ext = QuadExt(LocalFieldCtx(p), "inert")
    rng = random.Random(60 + p)
    for _ in range(200):
        num = rng.choice((1, -1)) * rng.randrange(1, 10 ** 6)
        target = Fraction(num, rng.randrange(1, 10 ** 4)) * Fraction(p) ** (2 * rng.randrange(-4, 5))
        v = rational_valuation(target, p)
        if v % 2:
            continue
        prec = rng.randrange(1, 12)
        a, b = norm_lift(ext, target, prec)
        assert 0 <= a < p ** prec and 0 <= b < p
        assert (a * a - ext.u * b * b - unit_mod(target, v, p, prec)) % p ** prec == 0
    with pytest.raises(DomainError):
        norm_lift(ext, Fraction(p), 4)


def test_baby_kind_mismatch_raises_kind_error(ctx3):
    split = random_baby_data(ctx3, "split", random.Random(1))
    inert = random_baby_data(ctx3, "inert", random.Random(1))
    for kind, data in (("Split", split), ("nonsplit", inert), ("split", inert),
                       ("inert", split)):
        with pytest.raises(KindError):
            baby_orbital(kind, data, Fraction(2))
        with pytest.raises(KindError):
            sx_from_baby(data, kind)
        with pytest.raises(KindError):
            sz_from_charts(data, data, kind)
        with pytest.raises(KindError):
            fourier_baby(data, kind)


# --- charts ------------------------------------------------------------------------


def test_sz_from_charts_zero_chart(ctx3):
    rng = random.Random(3)
    phi2 = random_baby_data(ctx3, "split", rng)
    zero = BruhatFn.zero(ctx3, "F2")
    f = sz_from_charts(zero, phi2, "split")
    # the singular content at -1 vanishes (the stored constant part is the
    # smooth value of the other chart there)
    assert abs(f.germ_m1.b) < 1e-12
    assert abs(ip_torus(f)) < 1e-12
    # values equal the single-chart orbital
    for x in (Fraction(2), Fraction(9), Fraction(1, 3)):
        assert abs(f.eval(x) - o_baby_split(phi2, x)) < 1e-10


def test_sz_from_charts_symmetry(ctx3):
    rng = random.Random(5)
    phi1 = random_baby_data(ctx3, "split", rng)
    phi2 = random_baby_data(ctx3, "split", rng)
    f = sz_from_charts(phi1, phi2, "split")
    g = sz_from_charts(phi2, phi1, "split")
    for x in (Fraction(2), Fraction(5), Fraction(1, 3), Fraction(-1) + Fraction(9)):
        assert abs(f.eval(x) - g.eval(-1 - x)) < 1e-10


def test_sz_eval_irregular(ctx3):
    rng = random.Random(6)
    f = sz_from_charts(random_baby_data(ctx3, "split", rng),
                       random_baby_data(ctx3, "split", rng), "split")
    with pytest.raises(DomainError):
        f.eval(Fraction(0))
    with pytest.raises(DomainError):
        f.eval(Fraction(-1))


# --- torus invariant and group engine ----------------------------------------------


def test_torus_pair_invariant_chart(ctx3, ext3s, ext3i):
    # iota(x, y) has invariant -1 - xy in the 2nd chart == xi0 in the Y-chart
    for (x, y) in ((Fraction(2), Fraction(1)), (Fraction(1, 3), Fraction(5))):
        g = (1, x, y, 1 + x * y)
        assert torus_pair_invariant(g, ext3s) == -1 - x * y
        # scale-free: the normalized GroupElt and 3^5 g give the same invariant
        assert torus_pair_invariant(GroupElt.of(ctx3, *g).m, ext3s) == -1 - x * y
        assert torus_pair_invariant([243 * e for e in g], ext3s) == -1 - x * y
    assert torus_pair_invariant((1, 0, 0, 1), ext3s) == -1
    assert torus_pair_invariant((1, 0, 0, 1), ext3i) == -1
    # w-twist: (x, y) -> (y(1+xy), x/(1+xy)) preserves the invariant
    x, y = Fraction(2), Fraction(3)
    g1 = (1, x, y, 1 + x * y)
    xw, yw = y * (1 + x * y), x / (1 + x * y)
    g2 = (1, xw, yw, 1 + xw * yw)
    assert torus_pair_invariant(g1, ext3s) == torus_pair_invariant(g2, ext3s)


def test_inert_parity_criterion():
    """Inert invariants of F-rational g carry val xi + val(1+xi) even.  On each
    such fiber the 28-digit reference meets xi to 16 digits, and it and
    inert_rep_for both take gam = 0 or gam at valuation w0; inert_rep_for
    returns None on every other fiber."""
    for p in (3, 5, 7):
        ext = QuadExt(LocalFieldCtx(p), "inert")
        rng = random.Random(7)
        for _ in range(800):
            m = [Fraction(rng.randrange(-30, 31), rng.choice([1, p, p * p])) for _ in range(4)]
            try:
                g = GroupElt.of(ext.ctx, *m)
            except DomainError:
                continue
            xi = torus_pair_invariant(g.m, ext)
            if xi in (0, -1):
                continue
            s = rational_valuation(xi, p) + rational_valuation(1 + xi, p)
            assert s % 2 == 0
        for _ in range(60):
            xi = Fraction(rng.randrange(-50, 51), rng.choice([1, p, p * p, p ** 3]))
            if xi in (0, -1):
                continue
            if not inert_fiber_is_trivial(ext, xi):
                assert inert_rep_for(ext.ctx, xi) is None
                continue
            ref = hensel_inert_rep(ext, xi)
            got = torus_pair_invariant(ref, ext)
            assert rational_valuation(got - xi, p) >= 16
            w0 = (rational_valuation(xi, p) + rational_valuation(1 + xi, p)) // 2
            for g in (ref, inert_rep_for(ext.ctx, xi)):
                assert all(type(e) is int for e in g) and math.gcd(*g) == 1
                assert g[1] == 0 and g[0] > 0
                gam = Fraction(g[2], g[0])  # g = g[0] [[1, 0], [gam, del]]
                assert gam == 0 or rational_valuation(gam, p) == w0, (p, xi)


def test_inert_search_finds_a_square_at_one_valuation():
    """The residue fact behind inert_rep_for: every unit d mod p has some b in
    0..p-1 with d + u b^2 a nonzero square mod p (u the nonresidue)."""
    for p in (3, 5, 7, 11, 13):
        u = smallest_nonresidue(p)
        squares = {x * x % p for x in range(1, p)}
        for d in range(1, p):
            assert any((d + u * b * b) % p in squares for b in range(p)), (p, d)


def test_o_torus_group_split_closed_form(ctx3):
    """Basic vector: (1 - q^-2)(val xi + val(1+xi) + 1) on the regular integers."""
    q = 3
    h0 = HeckeElt.basis(0)
    for xi in (Fraction(1), Fraction(2), Fraction(3), Fraction(9), Fraction(8),
               Fraction(-1) + Fraction(27), Fraction(5, 3), Fraction(1, 9)):
        vv, vz = rational_valuation(xi, q), rational_valuation(1 + xi, q)
        want = (1 - q ** -2) * (vv + vz + 1) if (vv >= 0 and vz >= 0) else 0.0
        assert abs(o_torus_group(ctx3, "split", h0, xi) - want) < 1e-10
    with pytest.raises(IrregularPointError):
        o_torus_group(ctx3, "split", h0, Fraction(-1))


def test_o_torus_group_zero_hecke(ctx3):
    assert o_torus_group(ctx3, "split", HeckeElt.zero(), Fraction(2)) == 0


@pytest.mark.parametrize("kind,xi", [("split", Fraction(1, 3)), ("inert", Fraction(9))])
def test_o_torus_group_keeps_tiny_and_huge_hecke_coefficients(ctx3, kind, xi):
    """o(c h)/c = o(h): no nonzero coefficient of h drops out of the count."""

    def ratio(c):
        return o_torus_group(ctx3, kind, HeckeElt.of({0: c, 1: 2 * c}), xi) / c

    want = ratio(1.0)
    assert want != 0
    for c in (1e-15, 1e15):
        assert abs(ratio(c) - want) <= 1e-15 * abs(want), c


def test_o_torus_group_inert_closed_form(ctx3):
    q = 3
    h0 = HeckeElt.basis(0)
    for xi in (Fraction(1), Fraction(9), Fraction(4), Fraction(-1) + Fraction(9),
               Fraction(3), Fraction(-1) + Fraction(3), Fraction(2)):
        vv, vz = rational_valuation(xi, q), rational_valuation(1 + xi, q)
        trivial = (vv + vz) % 2 == 0
        want = (1 - q ** -2) if (vv >= 0 and vz >= 0 and trivial) else 0.0
        assert abs(o_torus_group(ctx3, "inert", h0, xi) - want) < 1e-10


# GroupElt oracle for the integer lattice count in o_torus_group: each product
# base.rep is formed as a content-normalized Fraction matrix and tested for
# membership in T(F)K directly.


def _in_AK(g: GroupElt) -> bool:
    """Membership in A(F)K for the split torus A of diagonal matrices.

    Closed form: a diag(pi^s,1)-shift can normalize the matrix to K exactly
    when val(det) <= min val(row 1) + min val(row 2).
    """
    a, b, c, d = g.m
    p = g.ctx.p
    m1 = min(rational_valuation(a, p), rational_valuation(b, p))
    m2 = min(rational_valuation(c, p), rational_valuation(d, p))
    return g.det_val() <= m1 + m2


def _x1_membership(ext: QuadExt, g: GroupElt) -> bool:
    """g in T(F)K, i.e. the point T g lies in X_1(o)."""
    if ext.kind == "split":
        return _in_AK(g)
    return g.in_K()  # inert T(F) is contained in K


def _oracle_count(ext: QuadExt, base: GroupElt, m: int) -> int:
    ctx, p = ext.ctx, ext.ctx.p
    return sum(1 for a, c, d in double_coset_reps(ctx, m)
               if _x1_membership(ext, base.mul(GroupElt.of(ctx, p ** a, c, 0, p ** d))))


def _integer_matrix(g: GroupElt) -> list[int]:
    scale = math.lcm(*(x.denominator for x in g.m))
    return [int(x * scale) for x in g.m]


def _split_translate(ctx: LocalFieldCtx, xi: Fraction, n: int) -> GroupElt:
    """g_xi diag(pi^n, 1) with g_xi = iota(-1-xi, 1) of invariant xi."""
    x = -1 - xi
    return GroupElt.of(ctx, 1, x, 1, 1 + x).mul(GroupElt.diag(ctx, Fraction(ctx.p) ** n))


def _split_integer_translate(p: int, xi: Fraction, n: int) -> list[int]:
    """g_xi diag(pi^n, 1) made integral, as o_torus_group builds it."""
    x = -1 - xi
    num, den = x.numerator, x.denominator
    s, t = (1, p ** n) if n >= 0 else (p ** -n, 1)
    return [t * den, s * num, t * den, s * (num + den)]


def _xi_vals(p: int, xi: Fraction) -> tuple[int, int, int]:
    """(val den, val num, val(num + den)) of x = -1 - xi = num/den, the
    valuations o_torus_group reads once per xi."""
    x = -1 - xi
    return (_val_int(x.denominator, p), _val_int(x.numerator, p),
            _val_int(x.numerator + x.denominator, p))


def _wide_span(ctx: LocalFieldCtx, xi: Fraction, depth: int) -> int:
    """A support estimate wider than the derived interval: the split sum once
    ran over n in [-span, span] with this span (a hand-set margin of 3)."""
    vxi, vz = rational_valuation(xi, ctx.p), rational_valuation(1 + xi, ctx.p)
    return abs(vxi) + abs(vz) + 2 * depth + 3


def _seeded_xis(rng, p: int, count: int) -> list[Fraction]:
    out = []
    while len(out) < count:
        xi = (Fraction(rng.randrange(-40, 41), rng.choice([1, p, p * p]))
              * Fraction(p) ** rng.randrange(-3, 4))
        if xi not in (0, -1):
            out.append(xi)
    return out


@pytest.mark.parametrize("p,m_max", [(3, 3), (5, 3), (7, 2)])
def test_x1_count_matches_groupelt_oracle(p, m_max):
    """The valuation count, which reads only `_matrix_vals` of the integer
    matrix, equals the GroupElt count and the enumerating count, coset by
    coset summed, on seeded rational bases, on the 28-digit reference
    inert representatives, on inert_rep_for's leading-digit ones and on the
    split boundary translates lo - 1 and hi + 1."""
    ctx = LocalFieldCtx(p)
    rng = random.Random(100 + p)
    bases = []
    while len(bases) < 12:
        m = [Fraction(rng.randrange(-30, 31), rng.choice([1, p, p * p]))
             * Fraction(p) ** rng.randrange(-2, 3) for _ in range(4)]
        try:
            bases.append(GroupElt.of(ctx, *m))
        except DomainError:
            continue
    inert = QuadExt(ctx, "inert")
    xis = [xi for xi in _seeded_xis(rng, p, 30) if inert_fiber_is_trivial(inert, xi)][:4]
    inert_bases = [GroupElt.of(ctx, *hensel_inert_rep(inert, xi)) for xi in xis]
    assert inert_bases
    # Hensel-lifted entries carry 28 p-adic digits: past int64 from p = 5 on
    assert max(abs(x.numerator) for g in inert_bases for x in g.m) > p ** 20
    inert_bases += [GroupElt.of(ctx, *inert_rep_for(ctx, xi)) for xi in xis]
    split_bases = []
    for xi in _seeded_xis(rng, p, 3):
        lo, hi = _split_interval(_xi_vals(p, xi), m_max)
        split_bases += [_split_translate(ctx, xi, n) for n in (lo - 1, hi + 1)]
    cases = [(kind, g) for g in bases for kind in ("split", "inert")]
    cases += [("inert", g) for g in inert_bases] + [("split", g) for g in split_bases]
    hits = 0
    for kind, g in cases:
        ext = QuadExt(ctx, kind)
        split, b = kind == "split", _integer_matrix(g)
        for m in range(m_max + 1):
            want = _oracle_count(ext, g, m)
            assert _x1_count(p, split, {m: 1}, _matrix_vals(p, *b)) == want, (kind, g, m)
            assert enumerated_x1_count(p, split, coset_terms(ctx, {m: 1}), *b) == want, (kind, g, m)
            hits += want
    assert hits > 0


@pytest.mark.parametrize("p", [3, 5])
def test_o_torus_group_equals_groupelt_sum(p):
    """o_torus_group is vol K times the GroupElt count summed over a wider
    span of translates, bit for bit: the counts are integers summed in one
    order, and the translates outside the derived interval add exact zeros."""
    ctx = LocalFieldCtx(p)
    rng = random.Random(200 + p)
    volK = float(ctx.vol_K)
    for kind in ("split", "inert"):
        ext = QuadExt(ctx, kind)
        for n_h in (0, 1, 2):
            h = HeckeElt.basis(n_h)
            dc = hecke_to_coset_basis(ctx, h)
            for xi in _seeded_xis(rng, p, 4):
                if kind == "split":
                    span = _wide_span(ctx, xi, n_h)
                    bases = [_split_translate(ctx, xi, n) for n in range(-span, span + 1)]
                elif inert_fiber_is_trivial(ext, xi):
                    bases = [GroupElt.of(ctx, *inert_rep_for(ctx, xi))]
                else:
                    assert o_torus_group(ctx, kind, h, xi) == 0
                    continue
                total = 0j
                for g in bases:
                    tot = 0j
                    for m, cm in dc.items():
                        tot += cm * _oracle_count(ext, g, m)
                    total += tot
                assert o_torus_group(ctx, kind, h, xi) == volK * total, (kind, n_h, xi)


def test_pair_profile_matches_residue_scan():
    """The distance profile of c mod p^a against two residues that the
    residue count sums over (`oracles._pair_profile`) equals the scan over
    every c, at every e = min(a, val(r1 - r2))."""
    rng = random.Random(700)
    for p in (3, 5, 7):
        for a in range(5):
            for _ in range(6):
                r1 = rng.randrange(p ** a)
                r2 = (r1 + rng.randrange(p ** a) * p ** rng.randrange(a + 1)) % p ** a
                e = min(a, _val_int(r1 - r2, p))
                want = {}
                for c in range(p ** a):
                    key = (min(a, _val_int(c - r1, p)), min(a, _val_int(c - r2, p)))
                    want[key] = want.get(key, 0) + 1
                got = {}
                for k1, k2, n in _pair_profile(p, a, e):
                    got[k1, k2] = got.get((k1, k2), 0) + n
                assert {k: n for k, n in got.items() if n} == want, (p, a, r1, r2)


@pytest.mark.parametrize("p,count", [(3, 130), (5, 50), (7, 24)])
def test_split_interval_holds_every_counting_translate(p, count):
    """No coset of degree m <= D counts outside the derived interval of deg h = D,
    by the enumerating count, over a range 6 wider on each side than the old
    span; each end of the interval counts for some xi.  Every xi is read at
    D = 0..4, so the three primes give 1,020 cases."""
    ctx = LocalFieldCtx(p)
    rng = random.Random(500 + p)
    terms = [coset_terms(ctx, {m: 1}) for m in range(5)]
    ends = {}
    for xi in _seeded_xis(rng, p, count):
        span = _wide_span(ctx, xi, 4) + 6
        counts = {n: [enumerated_x1_count(p, True, t, *_split_integer_translate(p, xi, n))
                      for t in terms] for n in range(-span, span + 1)}
        for depth in range(5):
            lo, hi = _split_interval(_xi_vals(p, xi), depth)
            assert lo == -depth
            for n, by_m in counts.items():
                hit = any(by_m[: depth + 1])
                if n < lo or n > hi:
                    assert not hit, (xi, depth, n)
                elif n in (lo, hi) and hit:
                    ends[depth, n == lo] = ends.get((depth, n == lo), 0) + 1
    assert sorted(ends) == [(d, end) for d in range(5) for end in (False, True)]


@pytest.mark.parametrize("p,n_xi", [(3, 8), (5, 2)])
def test_x1_count_matches_enumeration_on_translates(p, n_xi):
    """Degree by degree up to 6, the valuation count equals the enumerating
    count on every translate o_torus_group reads for h0 ... h6: the split
    translates lo - 1 .. hi + 1 of deg h = 6 (which hold those of lower
    degree), with the valuations `_integral_translate` reads off the three of
    xi, and the inert representative.  Each translate's valuations are the
    `_matrix_vals` of the integer translate."""
    ctx = LocalFieldCtx(p)
    ext = QuadExt(ctx, "inert")
    rng = random.Random(600 + p)
    terms = [coset_terms(ctx, {m: 1}) for m in range(7)]
    xis = _seeded_xis(rng, p, n_xi) + [Fraction(1, p), -1 + Fraction(p ** 2)]
    cases = []
    for xi in xis:
        vals = _xi_vals(p, xi)
        lo, hi = _split_interval(vals, 6)
        for n in range(lo - 1, hi + 2):
            b = _split_integer_translate(p, xi, n)
            bvals = _integral_translate(vals, n)
            assert bvals == _matrix_vals(p, *b), (xi, n)
            cases.append((True, b, bvals))
    for xi in _seeded_xis(rng, p, 6 * n_xi):
        if inert_fiber_is_trivial(ext, xi):
            b = inert_rep_for(ctx, xi)
            cases.append((False, b, _matrix_vals(p, *b)))
    assert any(not split for split, _, _ in cases)
    hits = 0
    for split, b, vals in cases:
        for m, t in enumerate(terms):
            want = enumerated_x1_count(p, split, t, *b)
            assert _x1_count(p, split, {m: 1}, vals) == want, (split, b, m)
            hits += want != 0
    assert hits > 0


def _same_bits(got: complex, want: complex) -> bool:
    return got == want and repr(got) == repr(want)


_INERT_TOP = {3: 30, 5: 20}  # the inert leg's top degree at each prime of the grid


@pytest.mark.parametrize("p,top,n_xi", [(3, 20, 10), (5, 12, 16)])
def test_x1_count_equals_residue_reference_on_hecke_grid(p, top, n_xi):
    """On a seeded xi grid, the valuation count equals the residue count it
    replaced (`reference_x1_count`) bit for bit, with == and repr, for every
    h0 ... h_top on every split translate lo - 1 .. hi + 1 of that degree,
    whose valuations equal the reference's (`reference_integral_translate`),
    and for every h0 ... h30 (p = 3) or h0 ... h20 (p = 5) on the inert
    representatives of those xi on trivial fibers, topped up to 40 seeded
    ones."""
    ctx = LocalFieldCtx(p)
    ext = QuadExt(ctx, "inert")
    xis = _seeded_xis(random.Random(1100 + p), p, n_xi) + [Fraction(1), -1 + Fraction(p ** 3)]
    dcs = [hecke_to_coset_basis(ctx, HeckeElt.basis(n)) for n in range(top + 1)]
    translates = 0
    for xi in xis:
        x, vals = -1 - xi, _xi_vals(p, xi)
        for n_h, dc in enumerate(dcs):
            lo, hi = _split_interval(vals, n_h)
            for n in range(lo - 1, hi + 2):
                b, bvals = reference_integral_translate(p, x.numerator, x.denominator, vals, n)
                assert _integral_translate(vals, n) == bvals, (xi, n)
                got, want = _x1_count(p, True, dc, bvals), reference_x1_count(p, True, dc, b, bvals)
                assert _same_bits(got, want), (xi, n_h, n, got, want)
                translates += 1
    assert translates > 40 * len(xis)
    rng, inert_xis = random.Random(1150 + p), {xi for xi in xis if inert_fiber_is_trivial(ext, xi)}
    while len(inert_xis) < 40:
        inert_xis |= {xi for xi in _seeded_xis(rng, p, 1) if inert_fiber_is_trivial(ext, xi)}
    dcs = [hecke_to_coset_basis(ctx, HeckeElt.basis(n)) for n in range(_INERT_TOP[p] + 1)]
    hits = 0
    for xi in sorted(inert_xis):
        b = inert_rep_for(ctx, xi)
        bvals = _matrix_vals(p, *b)
        for n_h, dc in enumerate(dcs):
            got, want = _x1_count(p, False, dc, bvals), reference_x1_count(p, False, dc, b, bvals)
            assert _same_bits(got, want), (xi, n_h, got, want)
            hits += got != 0
    assert hits > 5 * len(inert_xis)


@pytest.mark.parametrize("p,top,n_xi", [(3, 20, 10), (5, 12, 16)])
def test_o_torus_group_split_equals_the_per_translate_reference(p, top, n_xi):
    """The one-loop split sum, with deg h read off the double-coset basis and
    xi read off its integers, equals the sum it replaced
    (`reference_o_torus_group_split`) bit for bit, with == and repr, for
    h0 ... h_top and for seeded elements of degree top - 1 and top with every
    lower coefficient, on seeded xi with val(1 + xi) of both signs."""
    ctx = LocalFieldCtx(p)
    rng = random.Random(3500 + p)
    xis = _seeded_xis(rng, p, n_xi)
    xis += [-1 + rng.randrange(1, 40) * Fraction(p) ** rng.randrange(1, 4) for _ in range(4)]
    vz = [rational_valuation(xi + 1, p) for xi in xis]
    assert min(vz) < 0 < max(vz)
    hs = [HeckeElt.basis(n) for n in range(top + 1)]
    hs += [HeckeElt.of({k: rng.randint(1, 9) for k in range(n + 1)}) for n in (top - 1, top)]
    for h in hs:
        dc = hecke_to_coset_basis(ctx, h)
        for xi in xis:
            got = o_torus_group(ctx, "split", h, xi, dc)
            want = oracles.reference_o_torus_group_split(ctx, h, xi, dc)
            assert _same_bits(got, want), (h, xi, got, want)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_x1_count_equals_both_references_on_random_matrices(p):
    """On seeded integer matrices with entries of every valuation, zero
    entries included, under both rules and at every degree m <= 3, the
    valuation count equals the residue count bit for bit and the enumerating
    count."""
    ctx = LocalFieldCtx(p)
    rng = random.Random(1200 + p)
    terms = [coset_terms(ctx, {m: 1}) for m in range(4)]
    zeros = hits = 0
    for _ in range(800):
        b = tuple(rng.choice([0, rng.randrange(-60, 61) * p ** rng.randrange(4)])
                  for _ in range(4))
        if b[0] * b[3] == b[1] * b[2]:
            continue
        zeros += 0 in b
        vals = _matrix_vals(p, *b)
        for split in (True, False):
            for m, t in enumerate(terms):
                got = _x1_count(p, split, {m: 1}, vals)
                assert _same_bits(got, reference_x1_count(p, split, {m: 1}, b, vals)), (split, b, m)
                assert got == enumerated_x1_count(p, split, t, *b), (split, b, m)
                hits += got != 0
    assert zeros > 20 and hits > 100


def test_split_count_matches_residue_scan():
    """The split rule's closed form equals the scan over every c mod p^a of
    #{c : k1 + k2 >= t}, k_i = min(a, val(c - r_i)), for 0, 1 or 2 residues,
    at every e = min(a, val(r1 - r2)) and every t that can decide a count."""
    rng = random.Random(1300)
    for p in (3, 5, 7):
        for a in range(5):
            for _ in range(4):
                r1 = rng.randrange(p ** a)
                r2 = (r1 + rng.randrange(p ** a) * p ** rng.randrange(a + 1)) % p ** a
                g = _val_int(r1 - r2, p)  # INF when r1 == r2: e = a
                ks = [(min(a, _val_int(c - r1, p)), min(a, _val_int(c - r2, p)))
                      for c in range(p ** a)]
                for t in range(-2, 2 * a + 3):
                    assert _split_count(p, a, t, 0, g) == p ** a * (t <= 0)
                    assert _split_count(p, a, t, 1, g) == sum(k1 >= t for k1, _ in ks), (p, a, t)
                    assert _split_count(p, a, t, 2, g) == sum(k1 + k2 >= t for k1, k2 in ks), \
                        (p, a, r1, r2, t)


def test_inert_count_matches_residue_scan():
    """The inert rule's closed form equals the scan over every c mod p^a of
    #{c : need == 2 min(x1, x2)}, x_i = w_i for a row without a residue and
    w_i + min(a, val(c - r_i)) for one with a residue r_i, for 0, 1 or 2
    residues, at every g = val(r1 - r2) (r1 = r2 mod p^a at g >= a, INF
    included) and every need that can decide a count."""
    rng = random.Random(1400)
    hits = 0
    for p in (3, 5, 7):
        for a in range(5):
            r1 = rng.randrange(p ** a)
            pairs = [(g, (r1 + rng.choice(unit_reps(p, 1)) * p ** g) % p ** a) for g in range(a)]
            pairs += [(g, r1) for g in (a, a + 1, INF)]
            for g, r2 in pairs:
                assert min(a, g) == min(a, _val_int(r1 - r2, p)), (p, a, g)
                for w1, w2 in ((0, 0), (1, 0), (0, 2), (3, -1)):
                    for has1, has2 in itertools.product((False, True), repeat=2):
                        rho1 = _val_int(r1, p) if has1 else -1
                        rho2 = _val_int(r2, p) if has2 else -1
                        mins = Counter(
                            min(w1 + min(a, _val_int(c - r1, p)) if has1 else w1,
                                w2 + min(a, _val_int(c - r2, p)) if has2 else w2)
                            for c in range(p ** a))
                        for need in range(2 * min(w1, w2) - 2, 2 * (max(w1, w2) + a) + 3):
                            want = mins[need // 2] if need % 2 == 0 else 0
                            got = _inert_count(p, a, need, w1, rho1, w2, rho2, g)
                            assert got == want, (p, a, g, r1, r2, w1, w2, has1, has2, need)
                            hits += want != 0
    assert hits > 1000


def test_torus_count_makes_one_rule_call_per_coset_shape(monkeypatch):
    """One o_torus_group call of either kind, p = 3 and h20, reads each
    (m, a) of every translate it counts through one closed-form rule call
    (`_split_count` or `_inert_count`) and each unit correction through one
    more, the split kind on lo - 1 .. hi + 1 and the inert kind on its one
    representative; the inert rule once summed a profile of O(a) entries."""
    calls = {"split": [], "inert": []}
    for kind, name in (("split", "_split_count"), ("inert", "_inert_count")):
        def spy(p, a, *rest, real=getattr(orbital, name), seen=calls[kind]):
            seen.append(a)
            return real(p, a, *rest)
        monkeypatch.setattr(orbital, name, spy)
    ctx, h = LocalFieldCtx(3), HeckeElt.basis(20)
    dc = hecke_to_coset_basis(ctx, h)
    shapes = ([a for m in dc for a in range(1, m + 1)]
              + [a - 1 for m in dc for a in range(1, m)])
    xi = Fraction(2, 9)
    lo, hi = _split_interval(_xi_vals(3, xi), 20)
    assert o_torus_group(ctx, "split", h, xi) != 0
    assert calls["inert"] == []
    assert sorted(calls["split"]) == sorted(shapes * (hi - lo + 3))
    calls["split"].clear()
    assert o_torus_group(ctx, "inert", h, Fraction(9)) != 0
    assert calls["split"] == []
    assert sorted(calls["inert"]) == sorted(shapes)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_o_torus_group_reads_vol_K_exactly(p):
    """o_torus_group's vol K is float(ctx.vol_K) bit for bit: the inert count
    at xi = 1 is one coset of degree 0, so h0 gives vol K times 1."""
    ctx = LocalFieldCtx(p)
    got = o_torus_group(ctx, "inert", HeckeElt.basis(0), Fraction(1))
    assert _same_bits(got, complex(float(ctx.vol_K))), (p, got)


def _tree_count(delta: int, m: int) -> int:
    """#{gamma K in K diag(pi^m,1) K : g gamma K on the apartment of A} for a
    vertex gK at tree distance delta from the apartment: the m-sphere about gK
    meets the apartment in 0, 1 or 2 vertices (Serre, Trees, ch. II)."""
    if m == 0:
        return 1 if delta == 0 else 0
    if m < delta:
        return 0
    return 1 if m == delta else 2


@pytest.mark.parametrize("p", [3, 5])
def test_o_torus_group_split_tree_distance(p):
    """Third oracle for the split side: the count at a translate g depends only
    on delta = val det g - min val(row 1) - min val(row 2), the distance of gK
    to the apartment of A."""
    ctx = LocalFieldCtx(p)
    rng = random.Random(300 + p)
    hs = [HeckeElt.basis(0), HeckeElt.basis(1), HeckeElt.basis(2),
          coset_basis_to_hecke(ctx, {1: 1.0})]
    for xi in _seeded_xis(rng, p, 8):
        x = -1 - xi
        vx, vz = rational_valuation(x, p), rational_valuation(1 + x, p)
        # [[p^n, x], [p^n, 1 + x]] has det p^n; delta grows like |n| both ways
        deltas = [n - min(n, vx) - min(n, vz) for n in range(-40, 41)]
        assert min(deltas[0], deltas[-1]) > 4
        for h in hs:
            dc = hecke_to_coset_basis(ctx, h)
            want = float(ctx.vol_K) * sum(cm * _tree_count(d, m)
                                          for d in deltas for m, cm in dc.items())
            got = o_torus_group(ctx, "split", h, xi)
            assert abs(got - want) < 1e-10, (xi, h)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_o_torus_group_inert_vertex_distance(p):
    """Oracle for the inert side: T(F) fixes one vertex of the tree and, E/F
    unramified, acts transitively on each sphere about it, so the count at the
    representative g of xi is 1 in the degree d = val det g - 2 min val(entries
    of g), the distance of gK to that vertex, and 0 in every other degree."""
    ctx = LocalFieldCtx(p)
    ext = QuadExt(ctx, "inert")
    rng = random.Random(400 + p)
    hs = [HeckeElt.basis(n) for n in range(4)] + [HeckeElt.of({0: 2, 1: 5, 2: 8})]
    xis = [Fraction(u) * Fraction(p) ** v for v in range(-5, 6)
           for u in rng.sample(unit_reps(p, 3), 3)]
    xis += [-1 + Fraction(u) * Fraction(p) ** vz for vz in range(1, 6)
            for u in rng.sample(unit_reps(p, 3), 3)]
    trivial = 0
    for xi in xis:
        for h in hs:
            got = o_torus_group(ctx, "inert", h, xi)
            if not inert_fiber_is_trivial(ext, xi):
                assert got == 0
                continue
            g = inert_rep_for(ctx, xi)
            d = (rational_valuation(Fraction(g[0] * g[3] - g[1] * g[2]), p)
                 - 2 * min(rational_valuation(Fraction(x), p) for x in g))
            assert got == float(ctx.vol_K) * hecke_to_coset_basis(ctx, h).get(d, 0), (xi, h)
            trivial += 1
    assert trivial > len(hs) * len(xis) // 3


@pytest.mark.parametrize("p,kind,degrees", [(3, "split", 4), (3, "inert", 4), (5, "split", 4),
                                            (5, "inert", 4), (7, "split", 2), (7, "inert", 2)])
def test_o_torus_group_is_constant_on_valuation_classes(p, kind, degrees):
    """Every unit mod p^3 of the xi-shells -5..5 and the zeta-shells 1..5 gives
    the same value within its (val xi, val(xi + 1)) class, bit for bit: the
    window builder of `hecke_apply_Z` reads one class at two units."""
    ctx = LocalFieldCtx(p)
    shells = [(0, v) for v in range(-5, 6)] + [(-1, vz) for vz in range(1, 6)]
    for n in range(degrees):
        h = HeckeElt.basis(n)
        for center, v in shells:
            seen = {}
            for u in unit_reps(p, 3):
                xi = center + u * Fraction(p) ** v
                cls = (rational_valuation(xi, p), rational_valuation(xi + 1, p))
                got = o_torus_group(ctx, kind, h, xi)
                assert seen.setdefault(cls, got) == got, (n, xi)


def test_basic_fZ0_dual_path_split(ctx3):
    """Group engine vs the chart presentation phi1 = kappa 1_{oxo},
    phi2 = kappa 1_{p o x o} with kappa = Vol(K)/Vol(A(o)) = 1 + 1/q."""
    q = 3
    kappa = 1 + Fraction(1, q)
    phi1 = BruhatFn.indicator_ball(ctx3, "F2", (0, 0), 0).scale(float(kappa))
    # (p o) x o encoded at common level 1: second coordinate split into cosets
    phi2 = BruhatFn.from_atoms(
        ctx3, "F2", [((Fraction(0), Fraction(j)), 1, float(kappa)) for j in range(3)])
    f_charts = sz_from_charts(phi1, phi2, "split")
    fz = basic_fZ0(ctx3, "split")
    for xi in (Fraction(1), Fraction(2), Fraction(3), Fraction(9), Fraction(8),
               Fraction(-1) + Fraction(9), Fraction(-1) + Fraction(27)):
        assert abs(f_charts.eval(xi) - fz.eval(xi)) < 1e-9
    assert abs(ip_torus(f_charts) - ip_torus(fz)) < 1e-10


def test_basic_fZ0_inert_germ_structure(ctx3):
    """Germ at -1 carries the balanced kappa_0 structure 1/2 Vol(T) <Phi>."""
    q = 3
    fz = basic_fZ0(ctx3, "inert")
    half = 0.5 * (1 - q ** -2)
    assert abs(fz.germ_m1.a - half) < 1e-9
    assert abs(fz.germ_m1.b - half) < 1e-9
    assert abs(fz.germ0.a - half) < 1e-9
    assert abs(fz.germ0.b - half) < 1e-9
    assert abs(ip_torus(fz) - half) < 1e-9


def test_hecke_apply_Z_linearity(ctx3):
    h = HeckeElt.of({0: 0.5, 1: -1.25})
    fa = hecke_apply_Z(ctx3, "split", HeckeElt.basis(0))
    fb = hecke_apply_Z(ctx3, "split", HeckeElt.basis(1))
    fc = hecke_apply_Z(ctx3, "split", h)
    for xi in (Fraction(1), Fraction(3), Fraction(1, 3), Fraction(-1) + Fraction(9)):
        want = 0.5 * fa.eval(xi) - 1.25 * fb.eval(xi)
        assert abs(fc.eval(xi) - want) < 1e-9


# --- Kuznetsov side ----------------------------------------------------------------


def test_kloosterman_values(ctx3):
    assert kloosterman(ctx3, Fraction(1, 3)) == 0
    with pytest.raises(DomainError):
        kloosterman(ctx3, Fraction(2))
    # p=3, val = -2: brute Salie sum over the shell |x| = 3
    xi = Fraction(4, 9)
    mod = 3 ** 4
    units = [u for u in range(1, mod) if u % 3]
    brute = sum(psi_eval_frac(ctx3, xi * Fraction(u, 3) ** -1 - Fraction(u, 3))
                for u in units) / len(units) * (1 - 1 / 3) * 3
    assert abs(kloosterman(ctx3, xi) - brute) < 1e-10


def test_o_kuz_closed_cases(ctx3):
    q = 3
    volX = 1 - q ** -2
    assert abs(o_kuz_closed(ctx3, 2, Fraction(9)) - volX) < 1e-14
    assert abs(o_kuz_closed(ctx3, 1, Fraction(1, 3)) + volX) < 1e-14
    assert o_kuz_closed(ctx3, 3, Fraction(1)) == 0
    with pytest.raises(DomainError):
        o_kuz_closed(ctx3, 0, Fraction(0))


def test_o_kuz_direct_equals_closed(ctx3, ctx5):
    for ctx in (ctx3, ctx5):
        y0 = KSection.basic()
        for m in range(5):
            sec = KSection.of({m: 1.0})
            for v in range(-4, 5):
                for u in (1, 2):
                    xi = Fraction(u) * Fraction(ctx.p) ** v
                    a = o_kuz_closed(ctx, m, xi)
                    b = o_kuz_direct(ctx, sec, y0, xi)
                    assert abs(a - b) < 1e-10


def test_o_kuz_direct_contract(ctx3):
    assert o_kuz_direct(ctx3, KSection.of({}), KSection.basic(), Fraction(2)) == 0
    assert o_kuz_direct(ctx3, KSection.of({1: 1.0}), KSection.of({}), Fraction(2)) == 0
    with pytest.raises(UnsupportedSectionError):
        o_kuz_direct(ctx3, KSection.of({1: 1.0}), KSection.of({1: 1.0}), Fraction(2))
    # bilinearity in the first section
    xi = Fraction(1, 3)
    a = o_kuz_direct(ctx3, KSection.of({1: 2.0, 3: -1j}), KSection.basic(), xi)
    b = 2.0 * o_kuz_direct(ctx3, KSection.of({1: 1.0}), KSection.basic(), xi) \
        - 1j * o_kuz_direct(ctx3, KSection.of({3: 1.0}), KSection.basic(), xi)
    assert abs(a - b) < 1e-12


def test_basic_fW0_blue_instances(ctx3):
    q = 3
    volX = 1 - q ** -2
    fw = basic_fW0(ctx3, "split", 0.0)
    # |xi| = 1, s = 0: VolX L(eta,1) (f(xi) - q^-2 f(p^2 xi)) with f = 1 + val
    L1 = 1 / (1 - 1 / q)
    want = volX * L1 * (1.0 - q ** -2 * 3.0)
    assert abs(fw(Fraction(1)) - want) < 1e-12
    assert abs(fw(Fraction(2)) - want) < 1e-12
    # odd deep shell: pure Kloosterman region vanishes on odd valuations
    assert abs(fw(Fraction(1, 27))) < 1e-14
    # |xi| = q^2 case: the 1_{|xi|=q^2} correction makes it VolX L KL(xi)
    xi = Fraction(2, 9)
    assert abs(fw(xi) - volX * L1 * kloosterman(ctx3, xi)) < 1e-12


def test_basic_fW0_series_oracle(ctx3):
    for kind, s in (("split", 1.0), ("inert", 1.5), ("split", 1.5), ("inert", 1.0)):
        fw = basic_fW0(ctx3, kind, s)
        series = hecke_apply_W(ctx3, kind, HeckeElt.basis(0), s)
        for v in range(-4, 5):
            for u in (1, 2):
                xi = Fraction(u) * Fraction(3) ** v
                assert abs(fw(xi) - series(xi)) < 1e-8


def test_hecke_apply_W_h0_and_commutativity(ctx3):
    fw0 = basic_fW0(ctx3, "split", 0.0)
    hw = hecke_apply_W(ctx3, "split", HeckeElt.basis(0), 0.0)
    for v in range(-3, 4):
        xi = Fraction(3) ** v
        assert abs(hw(xi) - fw0(xi)) < 1e-12
    h1, h2 = HeckeElt.basis(1), HeckeElt.basis(2)
    a = hecke_apply_W(ctx3, "inert", h1.mul(h2), 0.0)
    b = hecke_apply_W(ctx3, "inert", h2.mul(h1), 0.0)
    for v in range(-3, 4):
        xi = Fraction(3) ** v
        assert abs(a(xi) - b(xi)) < 1e-12


def test_hecke_apply_W_h1_shift(ctx3):
    """h1 expansion: d_k = c(k-1) q^{1/2} + c(k+1) q^{-1/2} via Clebsch-Gordan."""
    from padicorb.orbital import _hs_expansion_coeff
    from padicorb.groups import h_s_coeffs

    q = 3
    cs = h_s_coeffs(ctx3, 0.0, 1, 10)
    for k in (1, 2, 3):
        want = cs[k - 1] * q ** -0.5 + cs[k + 1] * q ** 0.5
        got = _hs_expansion_coeff(ctx3, "split", HeckeElt.basis(1), 0.0, k)
        assert abs(got - want) < 1e-12
    got0 = _hs_expansion_coeff(ctx3, "split", HeckeElt.basis(1), 0.0, 0)
    assert abs(got0 - cs[1] * q ** 0.5) < 1e-12


# --- matching / FL harnesses --------------------------------------------------------


def test_fourier_baby_dual_path(ctx3):
    rng = random.Random(99)
    for kind in ("split", "inert"):
        for _ in range(2):
            phi = random_baby_data(ctx3, kind, rng)
            sx = sx_from_baby(phi, kind)
            phihat = fourier_baby(phi, kind)
            for v in range(-3, 4):
                for u in (1, 2):
                    xi = Fraction(u) * Fraction(3) ** v
                    lhs = baby_orbital(kind, phihat, xi)
                    rhs = g_value_SX(sx, xi)
                    assert abs(lhs - rhs) < 1e-9


def test_matching_inner_product_basic(ctx3):
    q = 3
    for kind in ("split", "inert"):
        fz = basic_fZ0(ctx3, kind)
        w = g_transform_Z_to_W(fz)
        want = gamma_star(ctx3, kind) * ip_torus(fz)
        assert abs(ip_kuz(w) - want) < 1e-10
        # both equal Vol X(o) L(eta, 1)
        L = 1 / (1 - 1 / q) if kind == "split" else 1 / (1 + 1 / q)
        assert abs(ip_kuz(w) - (1 - q ** -2) * L) < 1e-10


def test_matching_kappa_sign_propagation(ctx3, ext3i):
    """Nontrivial-torsor baby data at -1 flips the tail constant sign."""
    one = BruhatFn.indicator_ball(ctx3, "E", (0, 0), 0)
    zero = BruhatFn.zero(ctx3, "E")
    plus = sz_from_charts(BabyInput(ext3i, one, zero), BabyInput(ext3i, one, zero), "inert")
    minus = sz_from_charts(BabyInput(ext3i, zero, one), BabyInput(ext3i, zero, one), "inert")
    w_plus, w_minus = g_transform_Z_to_W(plus), g_transform_Z_to_W(minus)
    volT = 1 + Fraction(1, 3)
    assert abs(ip_torus(plus) - 0.5 * volT) < 1e-10
    assert abs(ip_torus(minus) + 0.5 * volT) < 1e-10
    gs = gamma_star(ctx3, "inert")
    assert abs(ip_kuz(w_plus) - gs * 0.5 * volT) < 1e-9
    assert abs(ip_kuz(w_minus) + gs * 0.5 * volT) < 1e-9


def test_verify_matching_smoke(ctx3):
    for kind in ("split", "inert"):
        rep = verify_matching(ctx3, kind, samples=3, seed=123)
        assert rep.passed
        assert rep.max_shape_residual < 1e-10
        assert rep.max_ip_error < 1e-10


def test_verify_fl_smoke_and_zero(ctx3):
    rep = verify_fl(ctx3, "inert", HeckeElt.basis(1), window=(-3, 3))
    assert rep.passed and abs(rep.fitted_constant - 1) < 1e-10
    rep0 = verify_fl(ctx3, "inert", HeckeElt.zero(), window=(-2, 2))
    assert rep0.max_error < 1e-14  # both sides identically zero
    d = rep.to_json_dict()
    assert d["pass"] and "points" in d and d["points"]


def test_verify_fl_reads_its_constant_at_the_same_point_at_every_scale(ctx3):
    """The fitted constant is lhs/rhs at the first point whose |rhs| is not
    small next to the window's largest, so h0 scaled by 1e-15 is fitted at the
    same point as h0; an absolute threshold read no point there and kept the
    default 1, passing although lhs != rhs."""
    first = []
    for c in (1.0, 1e-15):
        rep = verify_fl(ctx3, "split", HeckeElt.of({0: c}))
        scale = max(abs(pt.rhs) for pt in rep.points)
        i = next(i for i, pt in enumerate(rep.points) if abs(pt.rhs) > 1e-6 * scale)
        assert rep.fitted_constant == rep.points[i].lhs / rep.points[i].rhs
        first.append(i)
    assert first[0] == first[1]


@pytest.mark.parametrize("kind,h", [("split", HeckeElt.of({0: 1e-13, 1: 2e-13})),
                                    ("inert", HeckeElt.of({0: 1e-15})),
                                    ("split", HeckeElt.of({0: 1e15}))],
                         ids=["split", "inert", "split-1e15"])
def test_verify_fl_at_a_scaled_hecke_element(ctx3, kind, h):
    """The fundamental lemma is linear in h: at 1e-13 (h0 + 2 h1), 1e-15 h0
    and 1e15 h0 both sides agree to 1e-12 of the largest |rhs|, with the
    constant 1, where absolute drops and probes lost the window (the split
    constant read 2.80) and an absolute gate failed 1e15 h0 on an error of
    7e-16 relative."""
    rep = verify_fl(ctx3, kind, h)
    assert rep.passed and abs(rep.fitted_constant - 1) <= 1e-12
    assert rep.max_error <= 1e-12 * max(abs(pt.rhs) for pt in rep.points)


def test_fl_report_gate_is_relative_to_the_window():
    """`FLReport.passed` bounds the largest error by the tolerance times the
    largest |rhs| on the window, and asks for exact agreement where every rhs
    is 0; the fitted constant keeps its own gate."""
    from padicorb.orbital import FLPoint, FLReport

    def passed(pairs, constant=1 + 0j):
        points = [FLPoint(1, v, lhs, rhs) for v, (lhs, rhs) in enumerate(pairs)]
        return FLReport(3, "split", {0: 1 + 0j}, (0, len(pairs) - 1), points, constant,
                        1e-8, 0.0).passed

    assert passed([(1e15 + 4.0, 1e15), (2.0, 2.0)])
    assert not passed([(1e15 + 4e8, 1e15)])
    assert passed([(1e-13 + 1e-22, 1e-13)]) and not passed([(1e-13 + 1e-20, 1e-13)])
    assert passed([(0j, 0j), (0j, 0j)]) and not passed([(1e-300, 0j)])
    assert not passed([(1.0, 1.0)], constant=1 + 1e-7)


@pytest.mark.parametrize("p,n", [(3, 5), (3, 6), (5, 5)])
def test_verify_fl_inert_deep_hecke(p, n):
    """From h_5 on, the torus side meets xi with val disc < 0, where the
    representative's leading digit sits at a negative valuation m0 and the
    matrix is scaled by p^-m0."""
    rep = verify_fl(LocalFieldCtx(p), "inert", HeckeElt.basis(n))
    assert rep.passed and abs(rep.fitted_constant - 1) < 1e-10


def test_inert_rep_short_root_raises_precision_error(ext3i, monkeypatch):
    real = oracles.padic_sqrt
    monkeypatch.setattr(oracles, "padic_sqrt", lambda ctx, x, prec: real(ctx, x, 3))
    xi = Fraction(1, 9)  # no candidate discriminant is a rational square
    assert inert_fiber_is_trivial(ext3i, xi)
    with pytest.raises(PrecisionError):
        hensel_inert_rep(ext3i, xi)


def _in_K(m, p: int) -> bool:
    """The rational 2x2 matrix m = (a, b, c, d) lies in F^x GL2(o): val det =
    2 min val(entries)."""
    a, b, c, d = m
    return rational_valuation(a * d - b * c, p) == 2 * min(rational_valuation(x, p) for x in m)


def _adj_mul(g, h):
    """adj(g) h = det(g) g^-1 h, a scalar multiple of g^-1 h."""
    a, b, c, d = (Fraction(x) for x in g)
    e, f, k, m = h
    return d * e - b * k, d * f - b * m, a * k - c * e, a * m - c * f


def _inert_grid(rng, p: int, count: int) -> list[Fraction]:
    """Seeded regular xi with denominators 1, 2, 7, p, p^2 and valuations -6..6,
    and xi = -1/2 (A = 0) and -1/2 + p^j (val A = j > w0 = 0)."""
    xis = [Fraction(-1, 2)] + [Fraction(-1, 2) + Fraction(p) ** j for j in (1, 2, 3)]
    while len(xis) < count:
        xi = (Fraction(rng.randrange(-400, 401), rng.choice([1, 2, 7, p, p * p]))
              * Fraction(p) ** rng.randrange(-6, 7))
        if xi not in (0, -1):
            xis.append(xi)
    return xis


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_inert_rep_lies_in_the_reference_coset(p):
    """reference^-1 inert_rep_for(xi) lies in K, exactly, on seeded xi with
    denominators prime to p and in every leading-digit case (A = -(1 + 2 xi),
    m0 = min(val A, w0)): val A < w0, val A = w0 with and without the + root
    cancelling mod p^(m0 + 1), and val A > w0.

    The reference takes the first b whose D + u gam^2 is a square of any
    valuation and the + root when it meets xi to 20 digits; inert_rep_for
    takes the first b whose residue is a nonzero square and the + root unless
    it cancels.  Where the reference's b is another (xi = -47 at p = 5, 218 at
    p = 13: a D + u gam^2 of residue 0 is a square deeper), it is read at
    inert_rep_for's b; where its + root cancelled, inert_rep_for lies in the
    coset of the other root 2A - del, known to the same 28 digits."""
    ctx = LocalFieldCtx(p)
    ext = QuadExt(ctx, "inert")
    deeper = {5: Fraction(-47), 13: Fraction(218)}
    seen = set()
    xis = _inert_grid(random.Random(800 + p), p, 240) + ([deeper[p]] if p in deeper else [])
    for xi in xis:
        if not inert_fiber_is_trivial(ext, xi):
            continue
        new = inert_rep_for(ctx, xi)
        gam = Fraction(new[2], new[0])
        w0 = (rational_valuation(xi, p) + rational_valuation(1 + xi, p)) // 2
        a = -(1 + 2 * xi)
        va = rational_valuation(a, p)
        ref = hensel_inert_rep(ext, xi)
        if Fraction(ref[2], ref[0]) != gam:
            seen.add("deeper square")
            ref = hensel_inert_rep(ext, xi, bs=[int(gam / Fraction(p) ** w0)])
        assert Fraction(ref[2], ref[0]) == gam
        dl = Fraction(ref[3], ref[0])
        if rational_valuation(dl, p) != min(va, w0):
            assert va == w0 and gam == 0, (p, xi)
            seen.add("val A = w0, + root cancelled")
            ref = (1, 0, gam, 2 * a - dl)
        else:
            seen.add("val A < w0" if va < w0 else "val A = w0" if va == w0 else "val A > w0")
        if xi.denominator > 1 and xi.denominator % p:
            seen.add("denominator prime to p")
        assert _in_K(_adj_mul(ref, new), p), (p, xi)
    assert seen >= {"val A < w0", "val A = w0", "val A = w0, + root cancelled", "val A > w0",
                    "denominator prime to p"}, seen
    assert ("deeper square" in seen) == (p in deeper)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_o_torus_group_inert_equals_reference_count(p):
    """o_torus_group's inert value is vol K times the valuation count at the
    28-digit reference representative, bit for bit, for h0 ... h4 and a mixed
    element on a seeded grid, and 0 on every nontrivial-torsor fiber."""
    ctx = LocalFieldCtx(p)
    ext = QuadExt(ctx, "inert")
    volK = float(ctx.vol_K)
    hs = [HeckeElt.basis(n) for n in range(5)] + [HeckeElt.of({0: 2, 1: 5, 2: 8})]
    dcs = [hecke_to_coset_basis(ctx, h) for h in hs]
    trivial = 0
    for xi in _inert_grid(random.Random(900 + p), p, 80):
        ref = hensel_inert_rep(ext, xi) if inert_fiber_is_trivial(ext, xi) else None
        trivial += ref is not None
        for h, dc in zip(hs, dcs):
            want = 0j if ref is None else volK * _x1_count(p, False, dc, _matrix_vals(p, *ref))
            assert o_torus_group(ctx, "inert", h, xi) == want, (xi, h)
    assert 0 < trivial < 80


def test_inert_rep_wrong_leading_digit_raises(monkeypatch):
    """A residue square root that is no root (2r for the root r, p = 7) gives
    a wrong leading digit wherever it reaches p^m0 (val A >= w0), and the
    integer certificate raises RepresentationError there; where val A < w0
    the digit is A's alone and the representative still stands."""
    p = 7
    ctx = LocalFieldCtx(p)
    real = orbital.sqrt_unit_mod
    monkeypatch.setattr(orbital, "sqrt_unit_mod", lambda c, a, prec: 2 * real(c, a, prec) % p)
    ext = QuadExt(ctx, "inert")
    raised = kept = 0
    for xi in _inert_grid(random.Random(1000), p, 60):
        if not inert_fiber_is_trivial(ext, xi):
            continue
        w0 = (rational_valuation(xi, p) + rational_valuation(1 + xi, p)) // 2
        if rational_valuation(1 + 2 * xi, p) < w0:
            assert inert_rep_for(ctx, xi) is not None
            kept += 1
        else:
            with pytest.raises(RepresentationError, match="leading digit"):
                inert_rep_for(ctx, xi)
            raised += 1
    assert raised and kept


def test_inert_rep_at_irregular_points_is_immediate():
    """xi = 0 and -1 have val INF, an even sentinel, so a fiber test on
    valuations calls them trivial and a square root there computes p^INF;
    inert_rep_for and the reference raise IrregularPointError at once, run in
    a child process to fail instead of hanging."""
    code = (
        "from padicorb.errors import IrregularPointError\n"
        "from padicorb.localfield import LocalFieldCtx, QuadExt\n"
        "from padicorb.orbital import inert_rep_for\n"
        "from oracles import hensel_inert_rep, inert_fiber_is_trivial\n"
        "ext = QuadExt(LocalFieldCtx(5), 'inert')\n"
        "for f in (lambda x: inert_rep_for(ext.ctx, x), lambda x: hensel_inert_rep(ext, x),\n"
        "          lambda x: inert_fiber_is_trivial(ext, x)):\n"
        "    for xi in (0, -1):\n"
        "        try:\n"
        "            f(xi)\n"
        "        except IrregularPointError:\n"
        "            continue\n"
        "        raise SystemExit(f'no IrregularPointError at xi = {xi}')\n")
    paths = [str(Path(orbital.__file__).resolve().parent.parent),
             str(Path(__file__).resolve().parent)]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [*paths, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=10)


def test_empty_verifications_raise(ctx3):
    """An empty window or zero samples would pass having checked nothing."""
    with pytest.raises(DomainError):
        verify_fl(ctx3, "split", HeckeElt.basis(0), window=(4, -4))
    with pytest.raises(DomainError):
        verify_matching(ctx3, "split", samples=0)


@pytest.mark.parametrize("p,first_bad", [(3, -647), (5, -442)])
def test_verify_fl_refuses_a_window_past_float_range(p, first_bad, monkeypatch):
    """|.|G f carries q^-v: from the first valuation where q^-v overflows a
    float, verify_fl raises DomainError before any work; one shell above runs."""
    ctx = LocalFieldCtx(p)
    calls = []
    monkeypatch.setattr(orbital, "hecke_apply_Z", lambda *a: calls.append(a))
    for window in ((first_bad, first_bad), (-10 ** 9, 0)):
        with pytest.raises(DomainError, match="exceeds the largest float"):
            verify_fl(ctx, "split", HeckeElt.basis(0), window=window)
    assert not calls
    monkeypatch.undo()
    rep = verify_fl(ctx, "split", HeckeElt.basis(0), window=(first_bad + 1, first_bad + 1))
    assert len(rep.points) == 2


def test_verify_fl_split_h1(ctx3):
    rep = verify_fl(ctx3, "split", HeckeElt.basis(1), window=(-3, 3))
    assert rep.passed
    assert rep.max_error < 1e-10


def test_fl_tail_constants_match(ctx3):
    for kind in ("split", "inert"):
        for h in (HeckeElt.basis(0), HeckeElt.basis(1)):
            fz = hecke_apply_Z(ctx3, kind, h)
            w = g_transform_Z_to_W(fz)
            assert abs(ip_kuz(w) - hecke_apply_W_tail(ctx3, kind, h, 0.0)) < 1e-9


def test_whittaker_unfolding(ctx3):
    import cmath

    rng = random.Random(11)
    for _ in range(6):
        alpha = cmath.exp(2j * math.pi * rng.random())
        lhs, rhs = whittaker_unfolding_check(ctx3, alpha, 1.0)
        assert abs(lhs - rhs) < 1e-8
    # the degenerate alpha = q^{-1/2} converges slowly; a longer truncation passes
    lhs, rhs = whittaker_unfolding_check(ctx3, 3 ** -0.5, 0.2, n_terms=400)
    assert abs(lhs - rhs) < 1e-8
    with pytest.raises(DomainError):
        whittaker_unfolding_check(ctx3, 1.0, -0.5)
    with pytest.raises(DomainError):  # a Satake parameter is nonzero
        whittaker_unfolding_check(ctx3, 0, 1.0)


def test_hecke_apply_W_vs_upstairs_convolution(ctx3):
    """W-side expansion coefficients against direct upstairs convolution of a
    truncated H_s section (truncation tail bounded by the geometric decay)."""
    from padicorb.groups import h_s_coeffs, hecke_translate_section
    from padicorb.orbital import _hs_expansion_coeff

    N = 24
    cs = h_s_coeffs(ctx3, 0.0, 1, N)
    truncated = KSection.of({n: cs[n] for n in range(N + 1)})
    h = HeckeElt.basis(1)
    direct = hecke_translate_section(ctx3, h, truncated, probe_max=5).as_dict()
    for k in range(5):
        want = _hs_expansion_coeff(ctx3, "split", h, 0.0, k)
        assert abs(direct.get(k, 0j) - want) < 1e-9


def test_hecke_apply_W_elem_packaging(ctx3):
    """SWElem packaging of h * f_W^s agrees with the evaluator everywhere and
    carries the right tail constant.  For h = h_n + h_0/2 up to n = 8 the zero
    germ starts at val n + 3 and the Kloosterman tail at val -2, so every shell
    -(n + 12)..n + 8 crosses the window's edges on both sides."""
    from padicorb.orbital import basic_fW0_elem, hecke_apply_W_elem

    for p in (3, 5):
        ctx = LocalFieldCtx(p)
        for n in range(9):
            h = HeckeElt.of({0: 0.5}) + HeckeElt.basis(n)
            for kind in ("split", "inert"):
                for s in (0.0, 1.0):
                    elem = hecke_apply_W_elem(ctx, kind, h, s)
                    val = hecke_apply_W(ctx, kind, h, s)
                    assert elem.inf_tail.M == 2
                    for v in range(-(n + 12), n + 9):
                        for u in {1, 2, p - 1}:
                            xi = Fraction(u) * Fraction(p) ** v
                            assert abs(elem.eval(xi) - val(xi)) < 1e-10, (p, n, kind, s, xi)
                    assert abs(ip_kuz(elem) - hecke_apply_W_tail(ctx, kind, h, s)) < 1e-12
    b = basic_fW0_elem(ctx3, "split", 0.0)
    fw = basic_fW0(ctx3, "split", 0.0)
    for v in range(-4, 4):
        assert abs(b.eval(Fraction(3) ** v) - fw(Fraction(3) ** v)) < 1e-10


def _kept_past_drop(elem, raw, points) -> int:
    """The points of `points` whose |raw| exceeds _DROP times the largest |raw|
    there, after checking that `elem` holds each of them to 1e-9 relative."""
    values = {xi: raw(xi) for xi in points}
    top = max(map(abs, values.values()))
    kept = 0
    for xi, want in values.items():
        if abs(want) > _DROP * top:
            assert abs(elem.eval(xi) - want) <= 1e-9 * abs(want), (xi, elem.eval(xi), want)
            kept += 1
    return kept


@pytest.mark.parametrize("p,n", [(5, 36), (7, 12)])
def test_hecke_builders_keep_every_window_coset_past_drop(p, n):
    """Both Hecke builders scale their drop with h in the coset basis, whose
    h_n carries q^(-n/2): at p = 5 inert h36 and p = 7 inert h12 they keep
    every window coset whose raw value exceeds _DROP times the element's
    largest value (a norm of max |c_n| dropped every S(Z) window value of
    p = 5 h36 and whole S(W) shells), and the fundamental lemma holds."""
    from padicorb.orbital import hecke_apply_W_elem

    ctx, h = LocalFieldCtx(p), HeckeElt.basis(n)
    units = [Fraction(u) for u in unit_reps(p, 1)]
    fz = hecke_apply_Z(ctx, "inert", h)
    points = [u * Fraction(p) ** v for v in range(-(2 * n + 1), fz.germ0.level) for u in units]
    points += [-1 + u * Fraction(p) ** v for v in range(1, fz.germ_m1.level) for u in units]
    kept = _kept_past_drop(fz, lambda xi: o_torus_group(ctx, "inert", h, xi), points)
    assert kept > 2 * n
    fw = hecke_apply_W_elem(ctx, "inert", h)
    points = [u * Fraction(p) ** v for v in range(-1, n + 3) for u in units]
    assert _kept_past_drop(fw, hecke_apply_W(ctx, "inert", h), points) > n
    assert verify_fl(ctx, "inert", h).passed


def test_baby_windows_reach_the_support_floor(ctx3):
    """The S(X) and S(Z) windows start at the support floor, however deep: this
    phi has floor -8, support on val -8 and none on val -7."""
    phi = BruhatFn.from_atoms(ctx3, "F2", [((Fraction(1, 81), Fraction(1, 81)), -2, 1.0),
                                           ((0, 0), 0, 0.5)])
    sx = sx_from_baby(phi, "split")
    sz = sz_from_charts(phi, phi, "split")
    assert abs(o_baby_split(phi, Fraction(1, 3 ** 8)) - 1 / 9) < 1e-12
    for v in range(-10, -4):
        for u in (1, 2, 4):
            xi = Fraction(u) * Fraction(3) ** v
            assert abs(sx.eval(xi) - o_baby_split(phi, xi)) < 1e-12, xi
            want = o_baby_split(phi, xi) + o_baby_split(phi, -1 - xi)
            assert abs(sz.eval(xi) - want) < 1e-12, xi


# --- germs at their certified onset ------------------------------------------------


def _chart_germ(kind, data):
    """The germ of a chart before its onset walk, as `sx_from_baby` reads it."""
    return orbital.chart_image(kind, data).germ(kind)


def _sz_germs(kind, phi1, phi2):
    """The germs at 0 and at -1 of (phi1, phi2) before their onset walk, as
    `sz_from_charts` reads them, with the other chart's value added."""
    image1, image2 = (orbital.chart_image(kind, phi) for phi in (phi1, phi2))
    return orbital._sz_germ(kind, image2, image1), orbital._sz_germ(kind, image1, image2)


def _recorded_shells(monkeypatch, build):
    """build() and every window shell it emits (`_value_atoms`), as
    {(center, v): (kept units, level)}."""
    shells = {}
    inner = orbital._value_atoms

    def record(ctx, center, v, vals, level, norm):
        shells[center, v] = (sorted(vals), level)
        return inner(ctx, center, v, vals, level, norm)

    monkeypatch.setattr(orbital, "_value_atoms", record)
    out = build()
    monkeypatch.setattr(orbital, "_value_atoms", inner)
    return out, shells


def _seeded_charts(ctx, kind, seed):
    """Two seeded baby charts: `random_baby_data` at p = 3; at p = 5 three atoms
    of level 0 or 1 each, since level-2 inert charts take seconds there."""
    rng = random.Random(seed)
    if ctx.p == 3:
        return random_baby_data(ctx, kind, rng), random_baby_data(ctx, kind, rng)
    p = ctx.p

    def fn(domain):
        return BruhatFn.from_atoms(ctx, domain, [
            ((Fraction(rng.randrange(-2 * p, 2 * p + 1), p ** rng.randrange(2)),
              Fraction(rng.randrange(-2 * p, 2 * p + 1), p ** rng.randrange(2))),
             rng.randrange(2), complex(rng.gauss(0, 1), rng.gauss(0, 1)))
            for _ in range(3)])

    if kind == "split":
        return fn("F2"), fn("F2")
    ext = QuadExt(ctx, "inert")
    return BabyInput(ext, fn("E"), fn("E")), BabyInput(ext, fn("E"), fn("E"))


def _formula_at(kind, germ, v):
    """The germ's formula a + b val (split) or a + b eta (inert) on the shell v."""
    return germ.a + germ.b * (v if kind == "split" else (-1) ** v)


def _same(got, want):
    return got == want or abs(got - want) <= _ONSET_RTOL * max(abs(got), abs(want))


def _check_onset(elem, raw, kind, germ, chart_level, center, floor, start):
    """Each shell `germ` absorbed below its chart level gives the same value from
    `elem` as from `raw` at every unit of its certified level, and the window
    shell next to the germ (if it is one, val >= floor) is not the formula."""
    ctx = elem.ctx
    for v in range(germ.level, chart_level):
        _, level = _shell_values(ctx, raw, center, v, start(v))
        for u in unit_reps(ctx.p, level):
            x = center + u * Fraction(ctx.p) ** v
            assert _same(elem.eval(x), raw(x)), x
    v = germ.level - 1
    if v >= floor:
        vals, _ = _shell_values(ctx, raw, center, v, start(v))
        assert not all(_same(w, _formula_at(kind, germ, v)) for w in vals.values()), v


@pytest.mark.parametrize("p,kind,seed", [(3, "split", 1), (3, "inert", 2),
                                         (5, "split", 6), (5, "inert", 1)])
def test_germs_start_at_their_certified_onset(p, kind, seed, monkeypatch):
    """Each germ lies below the depth a four-shell fit starts at, the shells
    from its level to that depth (or the level it is read at, if deeper) are
    its formula at every unit of a level the sampler certifies from
    `baby_xi_level`, and the window shell below it is not."""
    ctx = LocalFieldCtx(p)
    phi1, phi2 = _seeded_charts(ctx, kind, seed)
    L0 = max(_chart_germ(kind, phi2).level, fitted_chart_germ(kind, phi2).level)

    def sx_raw(xi):
        return baby_orbital(kind, phi2, xi)

    sx = sx_from_baby(phi2, kind)
    assert sx.germ0.level < L0
    _check_onset(sx, sx_raw, kind, sx.germ0, L0, Fraction(0),
                 orbital.baby_support_floor(kind, phi2),
                 lambda v: max(2, baby_xi_level(kind, phi2, v)))

    def raw(xi):
        return baby_orbital(kind, phi2, xi) + baby_orbital(kind, phi1, -1 - xi)

    def start(v):  # a safe sampler level on the shell val xi = v
        return max(2, baby_xi_level(kind, phi2, v), baby_xi_level(kind, phi1, min(v, 0)))

    read0, read1 = (g.level for g in _sz_germs(kind, phi1, phi2))
    L0 = max(read0, fitted_chart_germ(kind, phi2).level)
    L1 = max(read1, fitted_chart_germ(kind, phi1).level)
    f, shells = _recorded_shells(monkeypatch, lambda: sz_from_charts(phi1, phi2, kind))
    assert f.germ0.level < L0 and f.germ_m1.level < L1
    _check_onset(f, raw, kind, f.germ0, L0, Fraction(0), 1, start)
    # the zeta-shells start at the level of the unit shell, cut at the level
    # the germ at -1 is read at
    unit_level = shells[0, 0][1]
    _check_onset(f, raw, kind, f.germ_m1, L1, Fraction(-1), min(unit_level, read1),
                 lambda vz: start(0))


def _unabsorbed(f, raw, L0, L1, start, norm):
    """`f` with its germs back at the chart levels L0 and L1 and the shells they
    absorbed sampled into the window again: the element before absorption,
    with the builder's `norm`."""
    ctx = f.ctx
    entries = list(f.window.entries)
    for center, lo, hi in ((0, f.germ0.level, L0), (-1, f.germ_m1.level, L1)):
        for v in range(lo, hi):
            entries += _value_atoms(ctx, center, v,
                                    *_shell_values(ctx, raw, Fraction(center), v, start), norm)
    return SZElem(ctx, f.kind, BruhatFn(ctx, "F", tuple(entries)),
                  Germ(f.germ0.a, f.germ0.b, L0), Germ(f.germ_m1.a, f.germ_m1.b, L1))


@pytest.mark.parametrize("source", ["charts-split", "charts-inert", "torus-split"])
def test_absorption_keeps_inner_product_and_tail(ctx3, source):
    """ip_torus and the Kloosterman tail constant C of |.|G f are bit-identical
    before and after absorption, and |.|G f agrees pointwise."""
    kind = source.split("-")[1]
    if source == "torus-split":
        h = HeckeElt.of({0: 3, 1: 7})
        f = hecke_apply_Z(ctx3, kind, h)

        def raw(xi):
            return o_torus_group(ctx3, kind, h, xi)

        L0 = L1 = 2 * h.max_degree() + 3
        start, norm = 2, max(map(abs, h.as_dict().values()))
    else:
        phi1, phi2 = _seeded_charts(ctx3, kind, 1 if kind == "split" else 2)
        f = sz_from_charts(phi1, phi2, kind)

        def raw(xi):
            return baby_orbital(kind, phi2, xi) + baby_orbital(kind, phi1, -1 - xi)

        L0, L1 = (g.level for g in _sz_germs(kind, phi1, phi2))
        start = max(2, *(baby_xi_level(kind, phi, 0) for phi in (phi1, phi2)))
        norm = max(orbital.chart_image(kind, phi).norm for phi in (phi1, phi2))
    before = _unabsorbed(f, raw, L0, L1, start, norm)
    assert len(before.window.atoms) > len(f.window.atoms) and f.germ_m1.b != 0
    assert ip_torus(before) == ip_torus(f)
    w_before, w_after = g_transform_Z_to_W(before), g_transform_Z_to_W(f)
    assert w_before.inf_tail.C == w_after.inf_tail.C != 0
    assert w_after.inf_tail.M <= w_before.inf_tail.M
    for v in range(-8, 9):
        for u in (1, 2, 4):
            xi = u * Fraction(3) ** v
            want = g_value_Z_to_W(before, xi)
            assert abs(g_value_Z_to_W(f, xi) - want) <= 1e-12 * max(1.0, abs(want)), xi


# --- chart orbitals in closed form -------------------------------------------------


def _ball_charts(ctx, kind):
    """Charts whose coset tables hold every kind of ball: split, a ball around 0
    on either axis and on both; inert, the ball around 0 of phi0 and of
    phi_alpha, with unit cosets on the odd (phi_alpha) shells."""
    p = ctx.p
    if kind == "split":
        return BruhatFn.from_atoms(ctx, "F2", [
            ((0, Fraction(1, p)), 1, 0.7 + 0.2j), ((Fraction(2, p * p), 0), 1, -0.4j),
            ((0, 0), 1, 1.3), ((1, 2), 1, 0.5), ((Fraction(1, p), p), 1, 0.25)])
    ext = QuadExt(ctx, "inert")
    return BabyInput(ext,
                     BruhatFn.from_atoms(ctx, "E", [((0, 0), 1, 0.9), ((1, 0), 1, 0.3j),
                                                    ((Fraction(1, p), 1), 1, -0.6)]),
                     BruhatFn.from_atoms(ctx, "E", [((0, 0), 0, 0.4 - 0.1j), ((0, 1), 1, 1.1),
                                                    ((p, Fraction(2, p)), 1, 0.2)]))


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("kind", ["split", "inert"])
def test_chart_image_matches_pointwise_orbitals(p, kind):
    """The closed-form image against the pointwise orbital at every unit of the
    safe level `baby_xi_level`, on every shell from the support floor - 2 to
    the fitted germ's depth + 1, on seeded charts and on the ball charts."""
    ctx = LocalFieldCtx(p)
    balls = _ball_charts(ctx, kind)
    deep = orbital.chart_image(kind, balls).deep
    if kind == "split":  # a ball on one axis (constant) and on both (linear in val)
        assert {n for _, _, n in deep} == {0, 1}
    else:  # the ball of phi0 (even shells) and of phi_alpha (odd shells)
        assert sorted(first % 2 for first, step, _ in deep if step == 2) == [0, 1]
    charts = [balls] + [phi for seed in (1, 2) for phi in _seeded_charts(ctx, kind, seed)]
    for data in charts:
        image = orbital.chart_image(kind, data)
        floor = orbital.baby_support_floor(kind, data)
        for v in range(floor - 2, fitted_chart_germ(kind, data).level + 2):
            level = max(2, baby_xi_level(kind, data, v))
            assert image.level(v) <= level
            for u in unit_reps(p, level):
                want = baby_orbital(kind, data, Fraction(u) * Fraction(p) ** v)
                got = image.value(v, u)
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (v, u)


def _scaled(kind, data, c):
    if kind == "split":
        return data.scale(c)
    return BabyInput(data.ext, data.phi0.scale(c), data.phi_alpha.scale(c))


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("kind", ["split", "inert"])
def test_chart_germs_are_scale_equivariant(p, kind):
    """germ(c Phi) = c germ(Phi) from c = 1e-15 to 1e15, to 1e-14 of the germ's
    largest term on its first shell: the germ is read off the chart image,
    which keeps every coset of c Phi."""
    ctx = LocalFieldCtx(p)
    germ_data = split_germ_data if kind == "split" else nonsplit_germ_data
    rng = random.Random(p)
    for _ in range(6):
        data = random_baby_data(ctx, kind, rng)
        g = germ_data(data)
        size = max(abs(g.a), abs(g.b) * g.level)
        for c in (1e-15, 1e-9, 1.0, 1e15):
            gc = germ_data(_scaled(kind, data, c))
            assert gc.level == g.level
            assert abs(gc.a - c * g.a) <= 1e-14 * c * size, c
            assert abs(gc.b - c * g.b) <= 1e-14 * c * size, c


def _scaled_elem(f, c):
    """c f for an S(X) or S(Z) element f."""

    def times_c(g):
        return Germ(c * g.a, c * g.b, g.level)

    if isinstance(f, SZElem):
        return SZElem(f.ctx, f.kind, f.window.scale(c), times_c(f.germ0), times_c(f.germ_m1))
    return SXElem(f.ctx, f.kind, f.window.scale(c), times_c(f.germ0))


_SCALED_H = HeckeElt.of({0: 1, 1: 2})

# builder(kind, c): the builder's representation of c times its seeded input,
# the seed-4 charts (phi1, phi2) at p = 3 or h0 + 2 h1
_SCALE_BUILDERS = {
    "sx_from_baby": lambda kind, c, phi1, phi2: sx_from_baby(_scaled(kind, phi2, c), kind),
    "sz_from_charts": lambda kind, c, phi1, phi2: sz_from_charts(
        _scaled(kind, phi1, c), _scaled(kind, phi2, c), kind),
    "hecke_apply_Z": lambda kind, c, phi1, phi2: hecke_apply_Z(
        LocalFieldCtx(3), kind, _SCALED_H.scale(c)),
    "hecke_apply_W_elem": lambda kind, c, phi1, phi2: orbital.hecke_apply_W_elem(
        LocalFieldCtx(3), kind, _SCALED_H.scale(c)),
    "g_transform_SX": lambda kind, c, phi1, phi2: g_transform_SX(
        _scaled_elem(sx_from_baby(phi2, kind), c)),
    "g_transform_Z_to_W": lambda kind, c, phi1, phi2: g_transform_Z_to_W(
        _scaled_elem(sz_from_charts(phi1, phi2, kind), c)),
}


@pytest.mark.parametrize("c", [1e-15, 1e-12, 1e15], ids=["1e-15", "1e-12", "1e15"])
@pytest.mark.parametrize("kind", ["split", "inert"])
@pytest.mark.parametrize("builder", list(_SCALE_BUILDERS))
def test_builders_are_scale_equivariant(ctx3, builder, kind, c):
    """rep(c f) = c rep(f) for every builder, since every drop, probe and germ
    fit scales with the input's norm: the same number of window entries, and
    values c times the unscaled ones on shells -6..8 around 0 and -1, to 1e-14
    relative, or for G to 1e-14 of the largest there (a G value that cancels
    keeps its terms' rounding)."""
    rng = random.Random(4)
    phi1, phi2 = random_baby_data(ctx3, kind, rng), random_baby_data(ctx3, kind, rng)
    build = _SCALE_BUILDERS[builder]
    base, f = build(kind, 1.0, phi1, phi2), build(kind, c, phi1, phi2)
    assert len(f.window.entries) == len(base.window.entries)
    points = [u * Fraction(3) ** v for v in range(-6, 9) for u in unit_reps(3, 3)]
    points += [-1 + x for x in points if rational_valuation(x, 3) > 0]
    want = {xi: c * base.eval(xi) for xi in points}
    top = max(map(abs, want.values()))
    for xi in points:
        scale = top if builder.startswith("g_transform") else abs(want[xi])
        assert abs(f.eval(xi) - want[xi]) <= 1e-14 * scale, xi


@pytest.mark.parametrize("kind,seed", [("split", 4), ("inert", 6)])
def test_cross_term_probe_is_scale_relative(ctx3, monkeypatch, kind, seed):
    """With the other chart's value next to -1 off by 1e-6 of itself in both
    germs (both values are nonzero on these charts), the S(Z) probes catch
    it: they compare against the input's norm, so a scale of 1e-12 does not
    pass it."""
    rng = random.Random(seed)
    phi1, phi2 = random_baby_data(ctx3, kind, rng), random_baby_data(ctx3, kind, rng)
    read = orbital._sz_germ

    def off(kind, image, other):
        g = read(kind, image, other)
        return g._replace(a=g.a + 1e-6 * other.value(0, -1))

    monkeypatch.setattr(orbital, "_sz_germ", off)
    for c in (1.0, 1e-12):
        with pytest.raises(RepresentationError, match="S\\(Z\\) representation mismatch"):
            sz_from_charts(_scaled(kind, phi1, c), _scaled(kind, phi2, c), kind)


@pytest.mark.parametrize("point", [0, -1])
@pytest.mark.parametrize("kind", ["split", "inert"])
def test_a_too_low_germ_fails_the_probes_at_every_scale(ctx3, monkeypatch, kind, point):
    """With the germ at 0 or at -1 one shell below its certified onset, the
    S(Z) probes catch it: they compare against the input's norm, not 1, so a
    scale of 1e-12 does not pass it.  The probes read units 1, 2 and 1 + p
    next to each germ; on these charts the function leaves the formula there
    on the shell below each onset."""
    phi1, phi2 = _seeded_charts(ctx3, kind, 1 if kind == "split" else 4)
    onset = orbital._certified_onset
    for c in (1.0, 1e-12):
        charts = _scaled(kind, phi1, c), _scaled(kind, phi2, c)
        target = _sz_germs(kind, *charts)[0 if point == 0 else 1]

        def too_low(kind, germ, shells):
            g = onset(kind, germ, shells)
            return g._replace(level=g.level - 1) if germ == target else g

        monkeypatch.setattr(orbital, "_certified_onset", too_low)
        with pytest.raises(RepresentationError, match="S\\(Z\\) representation mismatch"):
            sz_from_charts(*charts, kind)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_o_baby_nonsplit_is_zero_below_the_support(p):
    """The inert orbital equals the closed-form image at seeded units on shells
    -8..5; below the support (val(xi)/2 < -R, R the support radius) every z t
    has that valuation, so a probe there is 0 and reads no norm-one table."""
    ctx = LocalFieldCtx(p)
    rng = random.Random(p)
    for _ in range(3):
        inp = random_baby_data(ctx, "inert", rng)
        image = orbital.nonsplit_image(inp)
        for v in range(-8, 6):
            for _ in range(4):
                u = rng.randrange(1, p ** 3)
                if u % p:
                    want = image.value(v, u)
                    got = o_baby_nonsplit(inp, Fraction(u) * Fraction(p) ** v)
                    assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (v, u)
    radius = max(inp.phi0.axis_radii)
    before = orbital._norm_one.cache_info()
    assert o_baby_nonsplit(inp, Fraction(p) ** (-2 * radius - 2)) == 0
    after = orbital._norm_one.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses,
                                                          before.currsize)


def _finer_points(p, elems, center, v):
    """The points center + u p^v, u the units mod p^n for the finest level n
    any of the elements' windows keys the shell with (2 when none keys it)."""
    level = 2
    for elem in elems:
        for keys, n, _ in elem.window.entries:
            (va, r), = keys
            if center == 0 and va == v or center == -1 and rational_valuation(r + 1, p) == v:
                level = max(level, n - va)
    return [center + Fraction(u) * Fraction(p) ** v for u in unit_reps(p, level)]


def _assert_same_function(f, g, shells):
    """f and g agree to 1e-13 relative at every unit coset of the finer of
    their levels on each (center, v) of `shells`."""
    p = f.ctx.p
    for center, v in shells:
        for x in _finer_points(p, (f, g), center, v):
            want = g.eval(x)
            assert abs(f.eval(x) - want) <= 1e-13 * max(abs(want), 1e-300), x


def _same_germ(got, want):
    """The same coefficients to 1e-12, and got no deeper than want."""
    scale = max(abs(want.a), abs(want.b))
    return (got.level <= want.level and abs(got.a - want.a) <= 1e-12 * scale
            and abs(got.b - want.b) <= 1e-12 * scale)


@pytest.mark.parametrize("p,kind,seed", [(3, "split", 1), (3, "split", 2), (3, "inert", 1),
                                         (3, "inert", 2), (5, "split", 6), (5, "inert", 1)])
def test_chart_elements_match_the_sampled_elements(p, kind, seed):
    """`sx_from_baby` and `sz_from_charts` from the closed-form image against
    the elements the sampler builds from the pointwise orbital (`oracles`):
    the same values at every unit coset of the finer of the two levels on
    every shell from the support floor to the deeper germ, around 0 and -1,
    and the same germ coefficients (to 1e-12).  A germ of the image starts
    no deeper than the sampler's: the image certifies the unit shell at a
    level no finer, so its zeta-shells, which the germ at -1 may absorb,
    start no deeper."""
    ctx = LocalFieldCtx(p)
    phi1, phi2 = _seeded_charts(ctx, kind, seed)
    sx, sampled = sx_from_baby(phi2, kind), sampled_sx_from_baby(phi2, kind)
    assert _same_germ(sx.germ0, sampled.germ0)
    lo = orbital.baby_support_floor(kind, phi2)
    _assert_same_function(sx, sampled, [(0, v) for v in range(lo, sx.germ0.level + 1)])
    sz, sampled = sz_from_charts(phi1, phi2, kind), sampled_sz_from_charts(phi1, phi2, kind)
    assert _same_germ(sz.germ0, sampled.germ0) and _same_germ(sz.germ_m1, sampled.germ_m1)
    lo = min(orbital.baby_support_floor(kind, phi) for phi in (phi1, phi2)) - 1
    shells = [(0, v) for v in range(lo, sz.germ0.level + 1)]
    shells += [(-1, vz) for vz in range(1, sz.germ_m1.level + 1)]
    _assert_same_function(sz, sampled, shells)


def test_inert_unit_shell_is_constant_on_every_window_coset(ctx3):
    """Next to -1, an inert chart reads more digits of xi + 1 than the unit
    shell's sampled level fixes.  The sampler checked one child per coset and
    kept level 2 here, where the function is not constant (its element is off
    by more than 0.1); the image raises the level until it is, so the element
    equals the orbital at every unit mod 3^6 of the unit shell and the
    zeta-shells."""
    phi1, phi2 = _seeded_charts(ctx3, "inert", 7)

    def raw(xi):
        return baby_orbital("inert", phi2, xi) + baby_orbital("inert", phi1, -1 - xi)

    f = sz_from_charts(phi1, phi2, "inert")
    sampled = sampled_sz_from_charts(phi1, phi2, "inert")
    points = [Fraction(u) for u in unit_reps(3, 6) if (u + 1) % 3 ** 6]
    points += [-1 + Fraction(u) * Fraction(3) ** vz for vz in range(1, 5) for u in unit_reps(3, 2)]
    assert max(abs(sampled.eval(x) - raw(x)) for x in points) > 0.1
    for x in points:
        want = raw(x)
        assert abs(f.eval(x) - want) <= 1e-12 * max(1.0, abs(want)), x


def _image_sum(p, charts):
    """x -> the sum of image(s x + t) over the charts (image, s, t), each read
    off its closed form (`ChartImage.value`) at the unit of s x + t."""

    def value(x):
        total = 0j
        for image, s, t in charts:
            y = s * x + t
            va = rational_valuation(y, p)
            total += image.value(va, unit_mod(y, va, p, image.level(va)))
        return total

    return value


def _is_constant_on_cosets(values, p, level, kept) -> bool:
    """Whether `values` ({unit: value}) is one value (`_same`) on each coset
    mod p^level of the units `kept` mod p^level."""
    first = {}
    for u, w in values.items():
        c = u % p ** level
        if c in kept and not _same(first.setdefault(c, w), w):
            return False
    return True


def _assert_one_level_rule(p, charts, shells, cut):
    """Each recorded window shell (center, v) -> (kept units, level) of the
    chart sum sits at the lowest level >= 2 on which the sum is constant on
    every kept coset: values at every unit mod p^(level + K), K the finest
    level of any image, fix it on every coset at the levels compared.  The
    unit shell about 0 keeps the units with val(xi + 1) < min(level, cut)."""
    value = _image_sum(p, charts)
    top = max((k for image, _, _ in charts for ks in image.units.values() for k in ks),
              default=0)

    def kept(center, v, level):
        units = unit_reps(p, level)
        if cut is None or (center, v) != (0, 0):
            return set(units)
        return {u for u in units if rational_valuation(u + 1, p) < min(level, cut)}

    for (center, v), (units, level) in shells.items():
        assert level >= 2 and set(units) == kept(center, v, level), (center, v)
        values = {u: value(center + Fraction(u) * Fraction(p) ** v)
                  for u in unit_reps(p, level + top) if u % p ** level in set(units)}
        assert _is_constant_on_cosets(values, p, level, set(units)), (center, v)
        if level > 2:
            coarse = kept(center, v, level - 1)
            assert not _is_constant_on_cosets(values, p, level - 1, coarse), (center, v)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("kind", ["split", "inert"])
def test_chart_elements_keep_one_level_rule_and_equal_the_orbitals(p, kind, monkeypatch):
    """Every window shell of `sx_from_baby` and `sz_from_charts` sits at the
    lowest level >= 2 on which its chart image is constant; both elements
    equal the pointwise orbitals at every unit mod p^4 (p = 3) or p^3 on the
    xi-shells -4..4 and the zeta-shells 1..5; and the germ each image reads
    off its deep terms (`ChartImage.germ`) is the four-shell fit of the image
    (`oracles.fitted_chart_germ`) to 1e-12."""
    ctx = LocalFieldCtx(p)
    digits = 4 if p == 3 else 3
    points = [Fraction(u) * Fraction(p) ** v for v in range(-4, 5) for u in unit_reps(p, digits)]
    points += [-1 + Fraction(u) * Fraction(p) ** vz for vz in range(1, 6)
               for u in unit_reps(p, digits)]
    for seed in (3, 7) if p == 3 else (3,):
        phi1, phi2 = _seeded_charts(ctx, kind, seed)
        image1, image2 = (orbital.chart_image(kind, phi) for phi in (phi1, phi2))
        for data in (phi1, phi2):
            got, want = _chart_germ(kind, data), fitted_chart_germ(kind, data)
            assert _same_germ(got, want), (got, want)
        sx, shells = _recorded_shells(monkeypatch, lambda: sx_from_baby(phi2, kind))
        _assert_one_level_rule(p, ((image2, 1, 0),), shells, None)
        sz, shells = _recorded_shells(monkeypatch, lambda: sz_from_charts(phi1, phi2, kind))
        cut = _sz_germs(kind, phi1, phi2)[1].level
        _assert_one_level_rule(p, ((image2, 1, 0), (image1, -1, -1)), shells, cut)
        for x in points:
            o2 = baby_orbital(kind, phi2, x)
            want = o2 + baby_orbital(kind, phi1, -1 - x)
            assert abs(sx.eval(x) - o2) <= 1e-14 * max(1.0, abs(o2)), (seed, x)
            assert abs(sz.eval(x) - want) <= 1e-14 * max(1.0, abs(want)), (seed, x)


@pytest.mark.parametrize("kind", ["split", "inert"])
def test_sz_germ_starts_where_the_other_chart_is_constant(ctx3, kind):
    """The chart of the germ at 0 is a unit coset, so its own germ (zero)
    holds from shell 1; the other chart is an atom of level 3 whose product
    (split) or norm (inert, 1 + sqrt(2) at u = 2) is -1, so it reads q^-3 on
    the units = -1 mod 3^3 of its unit shell and 0 elsewhere.  The germ at 0
    adds that value and starts at shell k = 3, not 1, and the element equals
    the orbitals at every unit mod 3^4 of the shells 1..5."""
    if kind == "split":
        phi1 = BruhatFn.from_atoms(ctx3, "F2", [((-1, 1), 3, 1.0)])
        phi2 = BruhatFn.from_atoms(ctx3, "F2", [((1, 1), 1, 0.5)])
    else:
        ext, zero = QuadExt(ctx3, "inert"), BruhatFn.zero(ctx3, "E")
        assert ext.u == 2
        phi1 = BabyInput(ext, BruhatFn.from_atoms(ctx3, "E", [((1, 1), 3, 1.0)]), zero)
        phi2 = BabyInput(ext, BruhatFn.from_atoms(ctx3, "E", [((1, 0), 1, 0.5)]), zero)
    germ0, _ = _sz_germs(kind, phi1, phi2)
    assert _chart_germ(kind, phi2).level == 1 and germ0.level == 3 and germ0.a != 0
    f = sz_from_charts(phi1, phi2, kind)
    assert f.germ0.level == 3
    for v in range(1, 6):
        for u in unit_reps(3, 4):
            x = u * Fraction(3) ** v
            want = baby_orbital(kind, phi2, x) + baby_orbital(kind, phi1, -1 - x)
            assert abs(f.eval(x) - want) <= 1e-14, x


def _counting(monkeypatch, name):
    calls = []
    inner = getattr(orbital, name)

    def counted(*args):
        calls.append(args[1])
        return inner(*args)

    monkeypatch.setattr(orbital, name, counted)
    return calls


def test_chart_builders_evaluate_orbitals_only_at_their_probes(monkeypatch):
    """The closed-form image leaves the pointwise orbital to the certificates:
    11 S(Z) probes and 4 floor points per S(Z) element, each read on both
    charts (30 calls), and 4 probes and 4 floor points per S(X) element.  This
    p = 5 inert element took 3,626 `o_baby_nonsplit` calls from the sampler,
    and 34 while the cross-terms were read pointwise."""
    ctx = LocalFieldCtx(5)
    rng = random.Random(42)
    random_baby_data(ctx, "inert", rng)
    phi1, phi2 = random_baby_data(ctx, "inert", rng), random_baby_data(ctx, "inert", rng)
    calls = _counting(monkeypatch, "o_baby_nonsplit")
    f = sz_from_charts(phi1, phi2, "inert")
    assert len(calls) == 30 and f.window.entries
    del calls[:]
    sx_from_baby(phi2, "inert")
    assert len(calls) == 8
    calls = _counting(monkeypatch, "o_baby_split")
    rng = random.Random(1)
    sz_from_charts(random_baby_data(ctx, "split", rng), random_baby_data(ctx, "split", rng),
                   "split")
    assert len(calls) == 30


def _parts(elem):
    """Window entries, germs and tail of an S(Z) or S(W) element."""
    if isinstance(elem, SZElem):
        return elem.window.entries, elem.germ0, elem.germ_m1
    return elem.window.entries, elem.zero_germ, elem.inf_tail


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("kind", ["split", "inert"])
def test_hecke_elements_match_the_sampled_elements(p, kind):
    """`hecke_apply_Z` reads each window shell one value per valuation class,
    `hecke_apply_W_elem` one value per shell; both equal the elements the shell
    sampler builds (`tests/oracles.py`), window entries, germs and tails bit
    for bit."""
    ctx = LocalFieldCtx(p)
    for coeffs in ({0: 1}, {1: 1}, {2: 1}, {0: 3, 1: 7}, {0: 2, 1: 5, 2: 8}):
        h = HeckeElt.of(coeffs)
        for got, want in ((hecke_apply_Z(ctx, kind, h), sampled_hecke_apply_Z(ctx, kind, h)),
                          (orbital.hecke_apply_W_elem(ctx, kind, h),
                           sampled_hecke_apply_W_elem(ctx, kind, h))):
            assert _parts(got) == _parts(want), coeffs


def test_class_shell_rejects_a_function_of_the_unit(ctx3):
    """Two units of one valuation class that disagree raise; a function of the
    class gives every kept unit its class value, at level 2."""
    vals, level = orbital._class_shell(
        ctx3, lambda x: float(rational_valuation(x + 1, 3)), 0, 0, 2)
    assert level == 2 and vals == {1: 0.0, 2: 1.0, 4: 0.0, 5: 1.0, 7: 0.0}
    with pytest.raises(RepresentationError, match="not constant on the class"):
        orbital._class_shell(ctx3, lambda x: float(x.numerator % 9), 0, 0, 2)


@pytest.mark.parametrize("p,kind,coeffs", [(5, "inert", {2: 1}), (3, "split", {0: 3, 1: 7})])
def test_torus_window_reads_two_units_per_valuation_class(monkeypatch, p, kind, coeffs):
    """Every `o_torus_group` call of `hecke_apply_Z` comes from a germ fit, a
    certificate or the window, and the window reads at most two units per
    valuation class of each shell.  With the shell sampler, which read every
    unit coset and one child of each, a p = 5 inert `verify_fl` of h2 made 709
    calls; it makes 67."""
    ctx = LocalFieldCtx(p)
    calls = _counting(monkeypatch, "o_torus_group")
    spent = {}
    classes = []

    def attribute(name, part, note=None):
        inner = getattr(orbital, name)

        def wrapped(*args):
            before = len(calls)
            out = inner(*args)
            spent[part] = spent.get(part, 0) + len(calls) - before
            if note is not None:
                note(*args[2:4], out[0])
            return out

        monkeypatch.setattr(orbital, name, wrapped)

    def note_classes(center, v, vals):
        xis = [center + u * Fraction(p) ** v for u in vals]
        classes.append(len({(rational_valuation(x, p), rational_valuation(x + 1, p))
                            for x in xis}))

    attribute("_class_shell", "window", note_classes)
    attribute("_deep_germ", "germ")
    attribute("_certify_sz", "certificate")
    hecke_apply_Z(ctx, kind, HeckeElt.of(coeffs))
    assert len(calls) == sum(spent.values())
    assert 0 < spent["window"] <= 2 * sum(classes)


def _shifted_interval(monkeypatch, dlo: int, dhi: int):
    """Make o_torus_group sum over [lo + dlo, hi + dhi] for its derived [lo, hi]."""

    def shifted(vals, depth):
        lo, hi = _split_interval(vals, depth)
        return lo + dlo, hi + dhi

    monkeypatch.setattr(orbital, "_split_interval", shifted)


def test_hecke_apply_W_refuses_a_degree_past_float_range(ctx3):
    """The Kuznetsov side's q^((n - k)/2) reaches q^(deg h / 2): a degree past
    the float range raises DomainError, not OverflowError."""
    with pytest.raises(DomainError):
        hecke_apply_W(ctx3, "split", HeckeElt.of({0: 1, 1400: 1}))
    assert math.isfinite(abs(hecke_apply_W(ctx3, "split", HeckeElt.basis(1292))(Fraction(3))))


def test_stabilization_idempotence(ctx3, monkeypatch):
    """Widening the derived interval of the split sum adds exact zeros: the
    value stays bit-identical."""
    h = HeckeElt.of({0: 1, 1: 2, 2: 3})
    for xi in (Fraction(2), Fraction(1, 9), Fraction(-10, 9)):
        monkeypatch.undo()
        want = o_torus_group(ctx3, "split", h, xi)
        assert want != 0
        for dlo, dhi in ((-3, 0), (0, 3), (-6, 6)):
            _shifted_interval(monkeypatch, dlo, dhi)
            assert o_torus_group(ctx3, "split", h, xi) == want, (xi, dlo, dhi)


@pytest.mark.parametrize("scale", [1.0, 1e-15])
def test_torus_margin_certificate_counts_cosets(ctx3, monkeypatch, scale):
    """For h = h0 + 2 h1 at xi = 2 a coset of degree 1 counts at each end of
    the derived interval [-1, 2]; an interval one translate shorter at either
    end leaves it at a boundary translate, and the certificate counts it
    exactly, so the Hecke element's scale cannot hide it."""
    h = HeckeElt.of({0: scale, 1: 2 * scale})
    want = o_torus_group(ctx3, "split", h, Fraction(2))
    assert abs(want - 7.94 * scale) < 0.01 * scale
    for dlo, dhi in ((1, 0), (0, -1)):
        _shifted_interval(monkeypatch, dlo, dhi)
        with pytest.raises(RepresentationError, match="not stabilized"):
            o_torus_group(ctx3, "split", h, Fraction(2))


# The two paths share no code: the torus side counts lattices in o_torus_group
# without the baby charts, and the closed Kuznetsov forms stand apart from the
# direct Iwasawa engine.  Each check records the code object of every Python
# function called while one path runs and looks for the other path's.

CHART_FUNCTIONS = (
    "o_baby_split", "split_germ_data", "o_baby_nonsplit", "nonsplit_germ_data",
    "baby_orbital", "sx_from_baby", "fourier_baby", "sz_from_charts",
    "chart_image", "split_image", "nonsplit_image", "ChartImage.value",
    "ChartImage.coset_value", "ChartImage.germ", "_image_shell", "_sz_germ",
)
# the Satake machinery is the test oracle for the closed-form change of basis
SATAKE_FUNCTIONS = ("satake_transform", "coset_basis_to_hecke", "iwasawa_decompose")


def _called_code(run) -> set:
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return seen


@pytest.mark.parametrize("kind", ["split", "inert"])
def test_torus_group_reaches_no_chart_function(ctx3, kind):
    xis = _seeded_xis(random.Random(17), 3, 4) + [Fraction(1), Fraction(1, 9)]

    def run():
        for n in range(3):
            for xi in xis:
                o_torus_group(ctx3, kind, HeckeElt.basis(n), xi)

    seen = _called_code(run)
    assert o_torus_group.__code__ in seen
    assert [name for name in CHART_FUNCTIONS
            if functools.reduce(getattr, name.split("."), orbital).__code__ in seen] == []
    assert [name for name in SATAKE_FUNCTIONS if getattr(groups, name).__code__ in seen] == []
    # the engine counts on integers: GroupElt is the oracles' type only, and
    # the cosets are counted by valuation profile, never listed one by one
    oracles = (GroupElt.of, GroupElt.mul, double_coset_reps, coset_terms, enumerated_x1_count)
    assert [f for f in oracles if f.__code__ in seen] == []


def test_pointwise_baby_orbitals_reach_no_chart_function():
    """Criterion 4 compares the pointwise baby orbital of Phi-hat with the
    chart path's G(O(Phi)): the pointwise orbitals, split and inert, on Phi
    and on Phi-hat at p = 3, 5 and 7, build no chart image and read no image
    shell."""
    images = [name for name in CHART_FUNCTIONS if name.startswith("ChartImage.")
              or name in ("chart_image", "split_image", "nonsplit_image", "_image_shell")]
    cases = []
    for kind, orbit in (("split", o_baby_split), ("inert", o_baby_nonsplit)):
        for p in (3, 5, 7):
            phi = random_baby_data(LocalFieldCtx(p), kind, random.Random(90 + p))
            cases += [(orbit, p, phi), (orbit, p, fourier_baby(phi, kind))]

    def run():
        for orbit, p, data in cases:
            for v in range(-4, 5):
                orbit(data, Fraction(2) * Fraction(p) ** v)

    seen = _called_code(run)
    assert o_baby_split.__code__ in seen and o_baby_nonsplit.__code__ in seen
    assert [name for name in images
            if functools.reduce(getattr, name.split("."), orbital).__code__ in seen] == []


def test_closed_kuznetsov_forms_never_reach_direct_engine(ctx3):
    xis = _seeded_xis(random.Random(23), 3, 6)

    def run():
        for m in range(4):
            for xi in xis:
                o_kuz_closed(ctx3, m, xi)
        for kind in ("split", "inert"):
            for n in range(3):
                evaluate = hecke_apply_W(ctx3, kind, HeckeElt.basis(n), 0.0)
                for xi in xis:
                    evaluate(xi)

    seen = _called_code(run)
    assert o_kuz_closed.__code__ in seen and hecke_apply_W.__code__ in seen
    assert o_kuz_direct.__code__ not in seen
