import cmath
import random
from fractions import Fraction

import pytest

from padicorb.errors import DomainError, PoleError
from padicorb.groups import (
    GroupElt,
    HeckeElt,
    KSection,
    SymLaurent,
    brute_convolution,
    coset_basis_to_hecke,
    cs_action,
    double_coset_reps,
    h_s_coeffs,
    hecke_to_coset_basis,
    hecke_translate_section,
    iwasawa_decompose,
    l_factor_eval,
    recompose,
    satake_transform,
    section_eval,
    tr_Vn,
    whittaker_eval,
)
from padicorb.localfield import LocalFieldCtx


def test_iwasawa_identity(ctx3):
    x, a, k = iwasawa_decompose(GroupElt.identity(ctx3))
    assert x == 0 and a == 0 and k.in_K()


def test_iwasawa_paper_case(ctx3):
    """diag(xi,1) n^-(x) with |x|>1: a-valuation val(xi) + 2 val_shell, phase xi/x."""
    xi = Fraction(9)
    for i in (1, 2, 3):
        x = Fraction(1, 3 ** i)
        g = GroupElt.diag(ctx3, xi).mul(GroupElt.lower(ctx3, x))
        n_param, aval, k = iwasawa_decompose(g)
        assert aval == 2 + 2 * i
        assert n_param == xi / x
        assert k.in_K()


def test_iwasawa_recompose_random(ctx3):
    rng = random.Random(4)
    for _ in range(60):
        m = [Fraction(rng.randrange(-40, 41), rng.choice([1, 3, 9])) for _ in range(4)]
        try:
            g = GroupElt.of(ctx3, *m)
        except DomainError:
            continue
        x, a, k = iwasawa_decompose(g)
        assert k.in_K()
        assert recompose(ctx3, x, a, k).key_mod(8) == g.key_mod(8)


def test_double_coset_reps_counts_and_distinctness():
    """Integer lattice forms (a, c, d): q^m + q^(m-1) of them, a + d = m,
    c mod p^a, unit content, and pairwise distinct cosets by the GroupElt oracle."""
    for p, m_max in ((3, 3), (5, 3), (7, 2)):
        ctx = LocalFieldCtx(p)
        for m in range(m_max + 1):
            reps = double_coset_reps(ctx, m)
            assert len(reps) == (p ** m + p ** (m - 1) if m else 1), (p, m)
            elts = []
            for a, c, d in reps:
                assert all(type(e) is int for e in (a, c, d))
                assert a >= 0 and d >= 0 and a + d == m and 0 <= c < p ** a
                assert a == 0 or d == 0 or c % p != 0  # content is a unit
                g = GroupElt.of(ctx, p ** a, c, 0, p ** d)
                assert g.m == (p ** a, c, 0, p ** d) and g.snf_type() == m
                elts.append(g)
            for i in range(len(elts)):
                for j in range(i + 1, len(elts)):
                    assert not elts[i].inv().mul(elts[j]).in_K(), (p, m, reps[i], reps[j])


def test_hecke_mul_examples():
    h0, h1, h2 = HeckeElt.basis(0), HeckeElt.basis(1), HeckeElt.basis(2)
    assert h1.mul(h1).as_dict() == {0: 1, 2: 1}
    assert h0.mul(h2).as_dict() == {2: 1}
    assert h1.mul(h2).as_dict() == {1: 1, 3: 1}
    rng = random.Random(0)
    a = HeckeElt.of({n: complex(rng.gauss(0, 1)) for n in (0, 1, 3)})
    b = HeckeElt.of({n: complex(rng.gauss(0, 1)) for n in (1, 2)})
    ab, ba = a.mul(b).as_dict(), b.mul(a).as_dict()
    assert set(ab) == set(ba)
    for k in ab:
        assert abs(ab[k] - ba[k]) < 1e-12


def test_satake_examples(ctx3):
    assert satake_transform(ctx3, {0: 1.0}).coeffs == (1 + 0j,)
    s = satake_transform(ctx3, {1: 1.0})
    assert abs(s.coeffs[1] - 3 ** 0.5) < 1e-12 and abs(s.coeffs[0]) < 1e-12
    h = coset_basis_to_hecke(ctx3, {1: 1.0}).as_dict()
    assert set(h) == {1} and abs(h[1] - 3 ** 0.5) < 1e-12


def test_satake_multiplicativity_vs_brute(ctx3):
    for m1 in range(3):
        for m2 in range(3):
            conv = brute_convolution(ctx3, m1, m2)
            lhs = satake_transform(ctx3, conv)
            rhs = satake_transform(ctx3, {m1: 1.0}).mul(satake_transform(ctx3, {m2: 1.0}))
            for alpha in (1.3, 0.7 + 0.4j, -1.1):
                a, b = lhs.eval(alpha), rhs.eval(alpha)
                assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_basis_change_roundtrip():
    """The closed-form h_n -> coset change of basis, inverted by the Satake
    peel of coset_basis_to_hecke, gives back h, at p = 3, 5 and 7."""
    rng = random.Random(2)
    mixed = HeckeElt.of({n: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for n in (0, 1, 2, 3)})
    for p in (3, 5, 7):
        ctx = LocalFieldCtx(p)
        to_hecke = {m: coset_basis_to_hecke(ctx, {m: 1.0}) for m in range(5)}
        for h in [HeckeElt.basis(n) for n in range(5)] + [mixed]:
            back = HeckeElt.zero()
            for m, c in hecke_to_coset_basis(ctx, h).items():
                back = back + to_hecke[m].scale(c)
            for n in set(h.as_dict()) | set(back.as_dict()):
                assert abs(back.as_dict().get(n, 0) - h.as_dict().get(n, 0)) < 1e-10, (p, h, n)


def test_hecke_to_coset_basis_closed_form():
    """h_n = q^(-n/2) (1_{K pi^n K} + 1_{K pi^(n-2) K} + ...), keys from n down."""
    for p in (3, 5):
        ctx = LocalFieldCtx(p)
        for n in range(9):
            dc = hecke_to_coset_basis(ctx, HeckeElt.basis(n))
            assert list(dc) == list(range(n, -1, -2)), (p, n)
            want = p ** (-n / 2)
            assert all(abs(c - want) <= 1e-15 * want for c in dc.values()), (p, n)


def test_hecke_to_coset_basis_refuses_what_underflows():
    """h_n needs q^(-n/2) in floats: a degree whose q^ceil(n/2) overflows, or a
    coefficient whose product underflows, raises DomainError instead of
    dropping out (h0 + h1400 once became h0 at p = 3)."""
    ctx = LocalFieldCtx(3)
    assert hecke_to_coset_basis(ctx, HeckeElt.basis(1292))[1292] != 0
    for h in (HeckeElt.basis(1293), HeckeElt.of({1400: 1}), HeckeElt.of({0: 1, 1400: 1}),
              HeckeElt.of({600: 1e-300})):
        with pytest.raises(DomainError):
            hecke_to_coset_basis(ctx, h)
    assert hecke_to_coset_basis(LocalFieldCtx(5), HeckeElt.basis(882))[882] != 0
    with pytest.raises(DomainError):
        hecke_to_coset_basis(LocalFieldCtx(5), HeckeElt.basis(883))


def test_tr_Vn_values():
    for n in range(5):
        for alpha in (1.7, cmath.exp(0.3j)):
            want = sum(alpha ** k for k in range(-n, n + 1, 2))
            assert abs(tr_Vn(n).eval(alpha) - want) < 1e-12


def test_cs_action_examples(ctx3):
    q = 3
    sec0 = KSection.basic()
    assert cs_action(ctx3, HeckeElt.basis(0), sec0).as_dict() == {0: 1}
    out = cs_action(ctx3, HeckeElt.basis(1), sec0).as_dict()
    assert set(out) == {1} and abs(out[1] - q ** -0.5) < 1e-12
    out2 = cs_action(ctx3, HeckeElt.basis(1), KSection.of({1: 1.0})).as_dict()
    assert abs(out2[0] - q ** 0.5) < 1e-12 and abs(out2[2] - q ** -0.5) < 1e-12


def test_cs_action_vs_upstairs_convolution(ctx3):
    for m in range(3):
        h = coset_basis_to_hecke(ctx3, {m: 1.0})
        for n0 in range(3):
            sec = KSection.of({n0: 1.0})
            alg = cs_action(ctx3, h, sec).as_dict()
            direct = hecke_translate_section(ctx3, h, sec, probe_max=n0 + m + 2).as_dict()
            for k in set(alg) | set(direct):
                assert abs(alg.get(k, 0) - direct.get(k, 0)) < 1e-9


def test_section_eval(ctx3):
    sec = KSection.of({1: 2.0})
    g = GroupElt.upper(ctx3, Fraction(1, 3)).mul(GroupElt.diag(ctx3, 3))
    val = section_eval(ctx3, sec, g)
    from padicorb.localfield import psi_eval_frac

    assert abs(val - 2.0 * psi_eval_frac(ctx3, Fraction(1, 3))) < 1e-12
    assert section_eval(ctx3, sec, GroupElt.identity(ctx3)) == 0


def test_whittaker_values(ctx3):
    q = 3
    assert whittaker_eval(ctx3, 0.7 + 0.2j, 0) == 1
    assert whittaker_eval(ctx3, 1.3, -1) == 0
    assert abs(whittaker_eval(ctx3, 1.0, 1) - 2 * q ** -0.5) < 1e-12


def test_zero_satake_parameter_raises_domain_error(ctx3):
    for n in (-1, 0, 3):
        with pytest.raises(DomainError):
            whittaker_eval(ctx3, 0, n)
    for alpha in (0, 0.0, 0j):
        with pytest.raises(DomainError):
            l_factor_eval(ctx3, alpha, 0.5)


def test_sym_laurent_at_zero_raises_domain_error(ctx3):
    """alpha^-k has no value at a zero Satake parameter: a typed error, not
    ZeroDivisionError, also for a constant Laurent polynomial."""
    for poly in (satake_transform(ctx3, {1: 1.0}), tr_Vn(2), tr_Vn(0)):
        for alpha in (0, 0.0, 0j):
            with pytest.raises(DomainError):
                poly.eval(alpha)


def test_whittaker_hecke_recursion(ctx3):
    """q W(n+1) + W(n-1) = q^{1/2}(alpha + 1/alpha) W(n) for n >= 1."""
    q = 3
    for alpha in (cmath.exp(0.9j), 0.8 * cmath.exp(0.2j), 1.2):
        lam = q ** 0.5 * (alpha + 1 / alpha)
        for n in range(1, 6):
            lhs = q * whittaker_eval(ctx3, alpha, n + 1) + whittaker_eval(ctx3, alpha, n - 1)
            rhs = lam * whittaker_eval(ctx3, alpha, n)
            assert abs(lhs - rhs) < 1e-10


def test_h_s_coeffs_examples(ctx3):
    q = 3
    cs = h_s_coeffs(ctx3, 0.0, 1, 5)
    for n in range(6):
        assert abs(cs[n] - (n + 1) * q ** (-n) / (1 - 1 / q)) < 1e-12
    cs_m = h_s_coeffs(ctx3, 0.0, -1, 5)
    assert cs_m[1] == 0 and cs_m[3] == 0
    assert abs(cs_m[2] - q ** -2 / (1 + 1 / q)) < 1e-12
    with pytest.raises(PoleError):
        # 1 - q^{-2s-1} = 0 at s = -1/2
        h_s_coeffs(ctx3, -0.5, 1, 3)


def test_h_s_double_series_term_counting(ctx3):
    """The CG double series for H_s * 1_{x0K} collapses to the closed
    coefficients, exactly in rational arithmetic at s = 1/2."""
    q = 3
    s_plus_half = 1  # s = 1/2: q^{-(m+n)(s+1/2)} = q^{-(m+n)}
    for eps in (1, -1):
        # brute: sum over m, n <= N of q^{-(m+n)} eps^n [h_k in h_m h_n]
        N = 40
        brute = {}
        for m in range(N):
            for n in range(N):
                w = Fraction(1, q ** (m + n)) * (eps ** n)
                for l in range(min(m, n) + 1):
                    k = m + n - 2 * l
                    brute[k] = brute.get(k, Fraction(0)) + w
        for k in range(9):
            denom = 1 - Fraction(eps, q ** 2)
            base = Fraction(1, q ** k) / denom
            if eps == 1:
                want = base * (k + 1)
            else:
                want = base if k % 2 == 0 else Fraction(0)
            assert abs(float(brute[k] - want)) < float(Fraction(2 * N, q ** N)) + 1e-18


def test_l_factor_pole(ctx3):
    with pytest.raises(PoleError):
        l_factor_eval(ctx3, 1.0, 0.0)
    val = l_factor_eval(ctx3, 0.9, 1.0)
    assert abs(val - 1 / ((1 - 0.9 / 3) * (1 - 1 / (0.9 * 3)))) < 1e-12


def test_sym_laurent_asymmetry_guard():
    with pytest.raises(DomainError):
        SymLaurent.of({-1: 1.0})
