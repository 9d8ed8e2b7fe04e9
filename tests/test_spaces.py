import cmath
import random
from fractions import Fraction

import numpy as np
import pytest

from padicorb.errors import DomainError, KindError, WindowError
from padicorb.bruhat import BruhatFn, MellinCharacter, gamma_factor
from padicorb.localfield import (LocalFieldCtx, QuadExt, psi_eval_frac, rational_valuation,
                                 unit_reps)
from padicorb.spaces import (
    Germ,
    KLTail,
    SWElem,
    SXElem,
    SZElem,
    element_from_json,
    element_to_json,
    extract_O0,
    extract_O01,
    extract_O0kappa,
    extract_Ou,
    g_transform_SX,
    g_value_SX,
    iota_eval,
    iota_window,
    ip_kuz,
    ip_torus,
    kloosterman_germ,
    oscillatory_shell_integral,
    sw_extract_O0_delta,
    sw_extract_second,
    sx_mellin,
)

import math


def test_shell_psi_integral_closed_form(ctx3):
    # S(a, k) = K(a, 0, k) against direct unit sums
    for k in (-2, -1, 0, 1, 2):
        for a in (Fraction(1), Fraction(1, 3), Fraction(1, 27), Fraction(9), Fraction(2, 9)):
            mod = 3 ** 6
            units = [u for u in range(1, mod) if u % 3]
            brute = sum(psi_eval_frac(ctx3, a * Fraction(u) * Fraction(3) ** (-k))
                        for u in units) / len(units) * (1 - 1 / 3) * 3.0 ** k
            assert abs(oscillatory_shell_integral(ctx3, a, 0, k) - brute) < 1e-10


def test_oscillatory_examples(ctx3):
    q = 3
    # a = b = 0: shell volume
    for k in (-1, 0, 2):
        got = oscillatory_shell_integral(ctx3, 0, 0, k)
        assert abs(got - q ** k * (1 - 1 / q)) < 1e-12
    # b = 0, |a| q^k >= q^2: cancellation
    assert oscillatory_shell_integral(ctx3, Fraction(1, 9), 0, 0) == 0
    assert oscillatory_shell_integral(ctx3, Fraction(1, 3), 0, 1) == 0
    # Kloosterman shell: matches the KL germ normal form
    xi = Fraction(7, 81)
    got = oscillatory_shell_integral(ctx3, -1, xi, 2)
    assert abs(got - kloosterman_germ(ctx3, xi)) < 1e-14


def test_oscillatory_vs_brute(ctx3):
    rng = random.Random(5)
    for _ in range(40):
        va, vb = rng.randrange(-3, 2), rng.randrange(-3, 2)
        au = rng.choice([1, 2, 4, 5, 7, 8])
        bu = rng.choice([1, 2, 4, 5])
        a = Fraction(au) * Fraction(3) ** va
        b = Fraction(bu) * Fraction(3) ** vb
        m = max(1, -va, -vb) + 1
        mod = 3 ** m
        units = [u for u in range(1, mod) if u % 3]
        brute = sum(psi_eval_frac(ctx3, a * u + b / Fraction(u)) for u in units)
        brute = brute / len(units) * (1 - 1 / 3)
        got = oscillatory_shell_integral(ctx3, a, b, 0)
        assert abs(got - brute) < 1e-10


def _shell_sum_oracle(p, m, A, B):
    """(1/p^m) sum over the units u mod p^m of e((A u + B/u) / p^m), summed
    directly: the reference for the engine's unit-shell integrals."""
    mod = p ** m
    u = np.array(unit_reps(p, m), dtype=np.int64)
    uinv = np.array([pow(int(x), -1, mod) for x in u], dtype=np.int64)
    t = (A * u + B * uinv) % mod
    return complex(np.exp(2j * np.pi * t / mod).sum()) / mod


def _check_unit_shell(p, m, au, bu, k=0):
    """K(au p^(k-m), bu p^(-k-m), k) / q^k is the unit-shell sum at level m."""
    ctx = LocalFieldCtx(p)
    a = Fraction(au) * Fraction(p) ** (k - m)
    b = Fraction(bu) * Fraction(p) ** (-k - m)
    got = oscillatory_shell_integral(ctx, a, b, k) / float(p) ** k
    want = _shell_sum_oracle(p, m, au % p ** m, bu % p ** m)
    assert abs(got - want) < 1e-12, (p, m, au, bu, k, got, want)


@pytest.mark.parametrize("p, m", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3)])
def test_shell_integral_every_unit_pair(p, m):
    """Every unit pair: Salie's closed form for m >= 2 (zero off the squares),
    the direct sum for m = 1."""
    for au in unit_reps(p, m):
        for bu in unit_reps(p, m):
            _check_unit_shell(p, m, au, bu)


@pytest.mark.parametrize("p, m, pairs", [(7, 1, 36), (7, 2, 150), (7, 3, 150),
                                         (3, 6, 60), (3, 7, 60)])
def test_shell_integral_seeded_unit_pairs(p, m, pairs):
    rng = random.Random(p * 100 + m)
    units = unit_reps(p, m)
    for _ in range(pairs):
        _check_unit_shell(p, m, rng.choice(units), rng.choice(units), rng.randrange(-2, 3))


@pytest.mark.parametrize("p, m", [(3, 1), (3, 2), (3, 4), (5, 1), (5, 3), (7, 2)])
def test_shell_integral_ramanujan(p, m):
    """b = 0: the Ramanujan sum, nonzero only at m = 1."""
    ctx = LocalFieldCtx(p)
    for au in unit_reps(p, m):
        for k in (-1, 0, 2):
            got = oscillatory_shell_integral(ctx, Fraction(au) * Fraction(p) ** (k - m), 0, k)
            want = _shell_sum_oracle(p, m, au, 0)
            assert abs(got / float(p) ** k - want) < 1e-12, (p, m, au, k)


def test_kloosterman_germ_domain(ctx3):
    with pytest.raises(DomainError):
        kloosterman_germ(ctx3, Fraction(1))
    assert kloosterman_germ(ctx3, Fraction(1, 3)) == 0  # odd shell


def test_iota_involution_and_examples(ctx3, ext3i, ext3s):
    rng = random.Random(1)
    units = [n for n in range(1, 40) if n % 3]
    atoms = [(Fraction(rng.choice(units)), 2, complex(rng.gauss(0, 1))) for _ in range(4)]
    atoms += [(Fraction(1, 3), 2, 1.5), (Fraction(7, 9), 3, -0.5j)]
    f = BruhatFn.from_atoms(ctx3, "F", atoms)
    for ext in (ext3i, ext3s):
        ff = iota_window(ext, iota_window(ext, f))
        diff = (ff - f).canonicalize()
        assert max((abs(a.coef) for a in diff.atoms), default=0.0) < 1e-12
        # pointwise meaning
        for _ in range(20):
            x = Fraction(rng.randrange(1, 50), 3 ** rng.randrange(0, 3))
            got = iota_window(ext, f).eval(x)
            want = iota_eval(ext, f.eval, x)
            assert abs(got - want) < 1e-12
    # unit shell fixed for the indicator of o^x
    units = BruhatFn.from_atoms(ctx3, "F", [(1, 1, 1.0), (2, 1, 1.0)])
    im = iota_window(ext3s, units)
    for x in (Fraction(1), Fraction(2), Fraction(5)):
        assert abs(im.eval(x) - units.eval(x)) < 1e-12
    # p o^x maps to eta * q^{-1} on the |xi| = q shell
    pshell = BruhatFn.from_atoms(ctx3, "F", [(3, 2, 1.0), (6, 2, 1.0)])
    im2 = iota_window(ext3i, pshell)
    assert abs(im2.eval(Fraction(1, 3)) - (-1.0 / 3)) < 1e-12
    assert im2.eval(Fraction(3)) == 0


def test_iota_window_maps_a_deep_window_entry_by_entry(ctx3, ext3s, ext3i):
    """The |.|G window of p = 3 split charts spans levels -3..10 in 39 entries;
    iota maps coset to coset, so it maps them one by one (refining them to
    one level first would take 17,006,111 cosets)."""
    from padicorb.orbital import random_baby_data, sz_from_charts
    from padicorb.spaces import g_transform_Z_to_W

    rng = random.Random(13)
    random_baby_data(ctx3, "split", rng)  # the draws of one S(X) input
    phi1, phi2 = random_baby_data(ctx3, "split", rng), random_baby_data(ctx3, "split", rng)
    window = g_transform_Z_to_W(sz_from_charts(phi1, phi2, "split")).window
    assert len(window.entries) == 39 and {n for _, n, _ in window.entries} == set(range(-3, 11))
    for ext in (ext3s, ext3i):
        image = iota_window(ext, window)
        assert len(image.entries) == 39
        back = iota_window(ext, image)
        assert [(k, n) for k, n, _ in back.entries] == [(k, n) for k, n, _ in window.entries]
        for (_, _, w), (_, _, want) in zip(back.entries, window.entries):
            assert abs(w - want) <= 1e-15 * abs(want)
        for v in range(-10, 10):
            for u in (1, 2, 4, 5, 7):
                x = Fraction(u) * Fraction(3) ** v
                want = iota_eval(ext, window.eval, x)
                assert abs(image.eval(x) - want) <= 1e-15 * max(1.0, abs(want)), x


def test_g_transform_zero(ctx3):
    z = SXElem(ctx3, "split", BruhatFn.zero(ctx3, "F"), Germ(0, 0, 1))
    out = g_transform_SX(z)
    assert out.window.is_zero()
    assert abs(out.germ0.a) < 1e-14 and abs(out.germ0.b) < 1e-14


def test_g_transform_selfdual_orbital(ctx3):
    beta = 1 - Fraction(1, 3)
    f = SXElem(ctx3, "split", BruhatFn.zero(ctx3, "F"), Germ(float(beta), float(beta), 0))
    for v in range(-3, 6):
        for u in (1, 2):
            xi = Fraction(u) * Fraction(3) ** v
            want = (v + 1) * float(beta) if v >= 0 else 0.0
            assert abs(g_value_SX(f, xi) - want) < 1e-12


def test_g_transform_shape_closure_and_bijectivity(ctx3):
    """G is a bijection on S(X); applying it twice composes with the parity
    action on lifts, which is trivial on orbital integrals (N(-z) = N(z),
    eta(-1) = +1 for the unramified eta), so G^2 = id."""
    for kind in ("split", "inert"):
        f = SXElem(
            ctx3, kind,
            BruhatFn.from_atoms(ctx3, "F", [(Fraction(1, 3), 2, 0.4 + 0.1j), (2, 1, -0.8)]),
            Germ(0.3, -0.2 if kind == "split" else 0.2j, 1),
        )
        gf = g_transform_SX(f)
        g2 = g_transform_SX(gf)
        for v in range(-2, 5):
            for u in (1, 2):
                xi = Fraction(u) * Fraction(3) ** v
                assert abs(g2.eval(xi) - f.eval(xi)) < 1e-9


def test_mellin_conjugation_property(ctx3):
    """Sampled identity: (G f)-check(chi) = gamma(chi,1/2)gamma(chi eta,1/2) f-check(chi^-1)."""
    q = 3
    rng = random.Random(8)
    for kind in ("split", "inert"):
        ext = QuadExt(ctx3, kind)
        units = [n for n in range(1, 30) if n % 3]
        for trial in range(3):
            atoms = [(Fraction(rng.choice(units), 3 ** rng.randrange(0, 2)),
                      rng.randrange(1, 3), complex(rng.gauss(0, 1), rng.gauss(0, 1)))
                     for _ in range(3)]
            germ = Germ(complex(rng.gauss(0, 1)), complex(rng.gauss(0, 1)), 1)
            f = SXElem(ctx3, kind, BruhatFn.from_atoms(ctx3, "F", atoms), germ)
            gf = g_transform_SX(f)
            for tag in ("trivial", "eta"):
                chi = MellinCharacter(ext, tag)
                m_f = sx_mellin(f, chi)
                m_gf = sx_mellin(gf, chi)
                g1 = gamma_factor(chi)
                g2 = gamma_factor(chi.twist_eta())
                for t in (0.31, 0.62, 0.45 + 0.3j, 1.6):
                    lhs = m_gf.eval(t)
                    rhs = g1.eval(q ** -0.5 / t) * g2.eval(q ** -0.5 / t) * m_f.eval(1 / t)
                    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))


def test_pointwise_values_build_the_shell_terms_once(ctx3, monkeypatch):
    """g_value_SX and g_value_Z_to_W read F f from the element, built once."""
    import padicorb.spaces as spaces

    calls = []
    build = spaces._shell_terms

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(spaces, "_shell_terms", counted)
    window = BruhatFn.from_atoms(ctx3, "F", [(Fraction(2, 3), 2, 0.5), (Fraction(4), 2, -1.0)])
    fx = SXElem(ctx3, "split", window, Germ(0.25, 0.5, 2))
    fz = SZElem(ctx3, "inert", window, Germ(0.25, 0.5, 2), Germ(0.75, -0.25, 3))
    for v in range(-3, 4):
        xi = Fraction(2) * Fraction(3) ** v
        assert spaces.g_value_SX(fx, xi) == _fresh_g_value(ctx3, "split", fx._terms, xi)
        spaces.g_value_Z_to_W(fz, xi)
    assert len(calls) == 2


@pytest.mark.parametrize("kind", ["split", "inert"])
def test_one_shell_plan_per_shell(kind, monkeypatch):
    """One `g_transform_Z_to_W` and the ten probe points of `verify_matching`
    (units 1 and p - 1 on five shells) build one plan per distinct shell: the
    germ fit, the Kloosterman tail, the window and the pointwise values read
    each other's plans off the element.  Every probe value equals the value
    of a plan built afresh, exactly."""
    import padicorb.spaces as spaces

    ctx = LocalFieldCtx(3)
    f = _seeded_sz(ctx, kind, 4)
    shells = []
    build = spaces._shell_plan

    def counted(ctx_, kind_, terms, v):
        shells.append(v)
        return build(ctx_, kind_, terms, v)

    monkeypatch.setattr(spaces, "_shell_plan", counted)
    w = spaces.g_transform_Z_to_W(f)
    values = {}
    for v in (-4, 0, 1, w.zero_germ.level + 1, -w.inf_tail.M - 2):
        for u in (1, 2):
            xi = Fraction(u) * Fraction(3) ** v
            values[xi] = spaces.g_value_Z_to_W(f, xi)
    assert len(shells) == len(set(shells)) > 0
    assert set(shells) == set(f._plans)
    monkeypatch.undo()
    for xi, got in values.items():
        v = rational_valuation(xi, 3)
        assert got == float(ctx.q) ** (-v) * _fresh_g_value(ctx, kind, f._terms, xi), xi


def test_extractors(ctx3):
    beta = 2 / 3
    f = SXElem(ctx3, "split", BruhatFn.zero(ctx3, "F"), Germ(beta, beta, 0))
    assert abs(extract_O0(f) - beta / math.log(3)) < 1e-12
    assert abs(extract_Ou(f) - beta) < 1e-12
    with pytest.raises(KindError):
        extract_O01(f)
    fi = SXElem(ctx3, "inert", BruhatFn.zero(ctx3, "F"), Germ(0.25, -0.5, 0))
    assert extract_O01(fi) == 0.25
    assert extract_O0kappa(fi) == -0.5
    with pytest.raises(KindError):
        extract_O0(fi)
    # pure window: zero germ coefficients
    w = SXElem(ctx3, "split", BruhatFn.from_atoms(ctx3, "F", [(1, 1, 1.0)]), Germ(0, 0, 2))
    assert extract_O0(w) == 0 and extract_Ou(w) == 0


def test_extractors_linear(ctx3):
    g1 = Germ(0.5, 1.5, 1)
    g2 = Germ(-0.25j, 0.75, 1)
    f1 = SXElem(ctx3, "split", BruhatFn.zero(ctx3, "F"), g1)
    f2 = SXElem(ctx3, "split", BruhatFn.zero(ctx3, "F"), g2)
    s = SXElem(ctx3, "split", BruhatFn.zero(ctx3, "F"),
               Germ(g1.a + g2.a, g1.b + g2.b, 1))
    assert abs(extract_O0(s) - (extract_O0(f1) + extract_O0(f2))) < 1e-12
    assert abs(extract_Ou(s) - (extract_Ou(f1) + extract_Ou(f2))) < 1e-12


def test_ip_torus_and_kuz(ctx3):
    f = SZElem(ctx3, "split", BruhatFn.zero(ctx3, "F"), Germ(0, 0, 2), Germ(1.0, 2.0, 2))
    assert abs(ip_torus(f) - 2.0 / math.log(3)) < 1e-12
    fi = SZElem(ctx3, "inert", BruhatFn.zero(ctx3, "F"), Germ(0, 0, 2), Germ(1.0, 2.0, 2))
    assert ip_torus(fi) == 2.0
    w = SWElem(ctx3, "split", 0.0, BruhatFn.zero(ctx3, "F"), Germ(0, 0, 2), KLTail(3.5j, 4))
    assert ip_kuz(w) == 3.5j
    w0 = SWElem(ctx3, "split", 0.0, BruhatFn.zero(ctx3, "F"), Germ(0, 0, 2), KLTail(0, 4))
    assert ip_kuz(w0) == 0


def test_sw_zero_germ_relation(ctx3):
    """O~_{0,delta^{1/2}}-type extractors equal the baby extractors of |.|^{-1} f."""
    c1, c2 = 0.7, -0.3
    w = SWElem(ctx3, "split", 0.0, BruhatFn.zero(ctx3, "F"), Germ(c2, c1, 2), KLTail(0, 5))
    assert abs(sw_extract_O0_delta(w) - c1 / math.log(3)) < 1e-12
    assert sw_extract_second(w) == c2
    # representation faithfulness on the germ region
    for v in (3, 4):
        got = w.eval(Fraction(3) ** v)
        want = 3.0 ** (-v) * (c1 * v + c2)
        assert abs(got - want) < 1e-12
    wi = SWElem(ctx3, "inert", 0.0, BruhatFn.zero(ctx3, "F"), Germ(c1, c2, 2), KLTail(0, 5))
    for v in (3, 4):
        got = wi.eval(Fraction(3) ** v)
        want = 3.0 ** (-v) * (c1 + c2 * (-1) ** v)
        assert abs(got - want) < 1e-12


def test_serialization_roundtrip(ctx3):
    f = SXElem(ctx3, "split",
               BruhatFn.from_atoms(ctx3, "F", [(Fraction(2, 3), 2, 1 + 2j)]),
               Germ(0.5, -0.25, 2))
    doc = element_to_json(f)
    back = element_from_json(ctx3, doc)
    for x in (Fraction(2, 3), Fraction(1), Fraction(27)):
        assert abs(back.eval(x) - f.eval(x)) < 1e-12
    z = SZElem(ctx3, "inert", BruhatFn.from_atoms(ctx3, "F", [(1, 1, 0.5)]),
               Germ(0.1, 0.2, 2), Germ(-0.3, 0.4j, 3))
    z2 = element_from_json(ctx3, element_to_json(z))
    for x in (Fraction(1), Fraction(9), Fraction(-1) + Fraction(27)):
        assert abs(z2.eval(x) - z.eval(x)) < 1e-12
    w = SWElem(ctx3, "split", 0.0, BruhatFn.from_atoms(ctx3, "F", [(1, 1, 2.0)]),
               Germ(0.6, 0.5, 3), KLTail(1.25, 4))
    w2 = element_from_json(ctx3, element_to_json(w))
    for x in (Fraction(1), Fraction(81), Fraction(7, 81)):
        assert abs(w2.eval(x) - w.eval(x)) < 1e-12
    import json
    d = json.loads(element_to_json(w))
    assert d["type"] == "SW" and d["infTail"]["tag"] == "kloosterman"
    assert all(len(a) == 5 for a in d["atoms"])


def test_serialization_golden(ctx3):
    """Frozen wire format: atoms as [centerNumerator, centerValuation, level,
    re, im], germs as tagged objects (schema drift guard)."""
    z = SZElem(ctx3, "inert",
               BruhatFn.from_atoms(ctx3, "F", [(Fraction(2, 3), 1, 0.5),
                                               (2, 2, 1 - 0.25j)]),
               Germ(0.125, -0.5, 2), Germ(0.75, 0.25, 3))
    golden = (
        '{"atoms": [[11, -1, 2, 0.5, 0.0], [2, 0, 2, 1.0, -0.25], '
        '[2, -1, 2, 0.5, 0.0], [20, -1, 2, 0.5, 0.0]], '
        '"germ0": {"a": [0.125, 0.0], "b": [-0.5, 0.0], "level": 2, "tag": "germ"}, '
        '"germAtMinus1": {"a": [0.75, 0.0], "b": [0.25, 0.0], "level": 3, "tag": "germ"}, '
        '"kind": "inert", "p": 3, "type": "SZ"}'
    )
    assert element_to_json(z) == golden


_DELETE = object()


def _malformed(doc: dict, path, value):
    """`doc` with the entry at `path` replaced by `value` (deleted if value is
    _DELETE), as a JSON string."""
    import copy
    import json

    d = copy.deepcopy(doc)
    obj = d
    for key in path[:-1]:
        obj = obj[key]
    if value is _DELETE:
        del obj[path[-1]]
    else:
        obj[path[-1]] = value
    return json.dumps(d)


def test_element_from_json_rejects_malformed_documents(ctx3):
    import json

    sx = SXElem(ctx3, "split",
                BruhatFn.from_atoms(ctx3, "F", [(Fraction(2, 3), 2, 1 + 2j)]),
                Germ(0.5, -0.25, 2))
    sw = SWElem(ctx3, "inert", 0.0, BruhatFn.from_atoms(ctx3, "F", [(1, 1, 2.0)]),
                Germ(0.5, 0.6, 3), KLTail(1.25, 4))
    sx_doc, sw_doc = json.loads(element_to_json(sx)), json.loads(element_to_json(sw))
    bad = ["", "{", "not json", "[]", "3", b"\xff", None]
    bad += [_malformed(sx_doc, (key,), _DELETE) for key in sx_doc]
    bad += [_malformed(sx_doc, ("germ0", key), _DELETE) for key in ("a", "b", "level")]
    bad += [_malformed(sw_doc, path, _DELETE) for path in
            (("s",), ("zeroGerm",), ("zeroGerm", "level"), ("infTail", "M"), ("infTail", "C"))]
    bad += [
        _malformed(sx_doc, ("atoms",), [[2, -1, 2, 1.0]]),           # atom arity 4
        _malformed(sx_doc, ("atoms",), [[2, -1, 2, 1.0, 2.0, 0]]),   # atom arity 6
        _malformed(sx_doc, ("atoms",), [{"num": 2}]),
        _malformed(sx_doc, ("atoms",), "atoms"),
        _malformed(sx_doc, ("atoms", 0, 2), 2.5),                    # atom level
        _malformed(sx_doc, ("atoms", 0, 2), "x"),
        _malformed(sx_doc, ("atoms", 0, 1), 1.5),                    # valuation
        _malformed(sx_doc, ("atoms", 0, 1), "-1"),
        _malformed(sx_doc, ("atoms", 0, 0), 2.0),                    # residue
        _malformed(sx_doc, ("atoms", 0, 3), "1"),                    # coefficient
        _malformed(sx_doc, ("germ0", "level"), "x"),
        _malformed(sx_doc, ("germ0", "level"), 2.5),
        _malformed(sx_doc, ("germ0", "a"), [1.0]),
        _malformed(sx_doc, ("germ0",), [0.5, -0.25, 2]),
        _malformed(sx_doc, ("p",), "3"),
        _malformed(sx_doc, ("p",), 5),
        _malformed(sx_doc, ("kind",), "ramified"),
        _malformed(sx_doc, ("type",), "SY"),
        _malformed(sw_doc, ("s",), [0.0, 0.0, 0.0]),
        _malformed(sw_doc, ("zeroGerm", "level"), "3"),
        _malformed(sw_doc, ("infTail", "M"), 4.5),
        _malformed(sw_doc, ("infTail", "M"), 0),                     # tail on |xi| <= 1
        _malformed(sw_doc, ("infTail", "M"), -3),
        _malformed(sw_doc, ("infTail",), 1.25),
    ]
    for doc in bad:
        with pytest.raises(DomainError):
            element_from_json(ctx3, doc)
    assert element_to_json(element_from_json(ctx3, element_to_json(sw))) == element_to_json(sw)


def test_element_json_of_deep_window_raises_fast(ctx3):
    """A g_transform_SX window with levels -9..20 would need 3^29 cosets per
    shallow atom in its canonical form: serializing it raises at once.  The
    level-9 input atom puts the output germ at depth 20 (baby charts, whose
    germs start at their certified onset, no longer reach that deep)."""
    import time

    from padicorb.errors import RepresentationError

    f = SXElem(ctx3, "split",
               BruhatFn.from_atoms(ctx3, "F", [(Fraction(1, 3), 2, 0.5),
                                               (Fraction(1 + 3 ** 8), 9, 1.0)]),
               Germ(0.25, 0.5, 1))
    g = g_transform_SX(f)
    assert g.germ0.level == 20 and min(a.level for a in g.window.atoms) == -9
    start = time.perf_counter()
    with pytest.raises(RepresentationError):
        element_to_json(g)
    assert time.perf_counter() - start < 1.0


def test_window_atom_at_zero_raises_fast(ctx3):
    """A window atom whose ball holds 0 belongs in the germ: the transform
    raises at once instead of reading a depth from the zero sentinel."""
    import json
    import time

    from padicorb.errors import UnsupportedAtomError
    from padicorb.spaces import g_transform_Z_to_W

    built = SXElem(ctx3, "split", BruhatFn.from_atoms(ctx3, "F", [(0, 1, 1.0)]), Germ(0, 0, 1))
    germ = {"tag": "germ", "a": [0.0, 0.0], "b": [0.0, 0.0], "level": 1}
    read = element_from_json(ctx3, json.dumps({"p": 3, "kind": "split", "type": "SX",
                                               "atoms": [[0, 0, 1, 1.0, 0.0]],
                                               "germ0": germ}))
    for f in (built, read):
        z = SZElem(ctx3, f.kind, f.window, f.germ0, Germ(0, 0, 1))
        for call in (lambda: g_transform_SX(f), lambda: g_value_SX(f, Fraction(1, 3)),
                     lambda: g_transform_Z_to_W(z)):
            start = time.perf_counter()
            with pytest.raises(UnsupportedAtomError):
                call()
            assert time.perf_counter() - start < 1.0


def _seeded_windows(p, kind, seed):
    """Seeded `sx_from_baby` and `sz_from_charts` elements, each with the
    shells of its G window."""
    from padicorb.orbital import random_baby_data, sx_from_baby, sz_from_charts
    from padicorb.spaces import _germ_depth, _support_bound, g_transform_Z_to_W

    ctx = LocalFieldCtx(p)
    rng = random.Random(seed)
    sx = sx_from_baby(random_baby_data(ctx, kind, rng), kind)
    sz = sz_from_charts(random_baby_data(ctx, kind, rng), random_baby_data(ctx, kind, rng),
                        kind)
    tail_m = g_transform_Z_to_W(sz).inf_tail.M
    return ((sx, range(_support_bound(sx._terms), _germ_depth(sx._terms))),
            (sz, range(1 - tail_m, _germ_depth(sz._terms))))


def _fresh_g_value(ctx, kind, terms, xi):
    """G f(xi) from the shell terms alone: a plan of the shell val xi built
    afresh (`_shell_plan`), read at the unit of xi."""
    from padicorb.spaces import _shell_plan, _val_and_unit_key

    v, num, den = _val_and_unit_key(ctx, xi)
    plan = _shell_plan(ctx, kind, terms, v)
    mod = ctx.p ** plan.level
    return plan.value(ctx, num * pow(den, -1, mod) % mod)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("kind", ["split", "inert"])
def test_window_level_is_enough(p, kind):
    """On every shell of a certified window, G f reads the unit of xi only mod
    p^L for the level L of the shell's plan: moving the unit by p^L changes
    nothing.  The plan itself reads only u mod p^L, so G f is summed term by
    term here, from the whole unit.  Seed 42 keeps the p = 5 windows at a few
    thousand units (levels up to 5)."""
    from padicorb.spaces import _shell_plan

    ctx = LocalFieldCtx(p)
    for f, shells in _seeded_windows(p, kind, 42):
        terms = f._terms
        for v in shells:
            level = _shell_plan(ctx, kind, terms, v).level
            for u in unit_reps(p, level):
                got = _term_loop_oracle(ctx, kind, terms, Fraction(u) * Fraction(p) ** v)
                moved = _term_loop_oracle(ctx, kind, terms,
                                          Fraction(u + p ** level) * Fraction(p) ** v)
                assert abs(moved - got) <= 1e-12 * max(1.0, abs(got)), (v, u, level)


def test_window_error_on_uncertified_range():
    """A germ holds only from its level on: reading it below raises."""
    assert Germ(1, 2, 5).eval("split", 5) == 11
    with pytest.raises(WindowError):
        Germ(1, 2, 5).eval("split", 4)


def _term_loop_oracle(ctx, kind, terms, xi):
    """G f(xi) summed term by term and shell by shell: each term of F f adds
    sign(k) q^-k c(k) K(-xi, b, k) on the shells k from max(first, -val b - 1)
    to val xi + 1 and on its resonant shell (val xi - val b)/2 >= first, and
    the germ at 0 adds its pure tail; the inert case carries the eta(xi)
    twist.  c(k) is c for a window term (vb, nb, first, c), whose b is
    (vb, nb, 1), and ft(k) for a germ term (b, first, ft).  The reference for
    the shell plans."""
    from padicorb.localfield import INF
    from padicorb.spaces import _shell_integral, _val_and_unit_key

    q = ctx.q
    vxi, num, den = _val_and_unit_key(ctx, xi)
    minus_xi = (vxi, -num, den)
    sigma = -1 if kind == "inert" else 1
    window, germs = terms

    def shells(vb, first):
        ks = range(max(first, -vb - 1), vxi + 2)
        k0, odd = divmod(vxi - vb, 2)
        if vb < INF and not odd and k0 >= first and k0 not in ks:
            ks = (*ks, k0)
        return ks

    def add(b, k, fk):
        kk = _shell_integral(ctx, minus_xi, b, k)
        return (-1.0 if sigma < 0 and k % 2 else 1.0) * float(q) ** (-k) * fk * kk if kk else 0j

    total = 0j
    for (vb, nb, first, c) in window:
        for k in shells(vb, first):
            total += add((vb, nb, 1), k, c)
    for (b, first, ft) in germs:
        if b[0] >= INF and vxi >= first - 1:
            total += ft.c_tail * float(q) ** (first - 1)
        for k in shells(b[0], first):
            total += add(b, k, ft.const if k >= -ft.L
                         else ft.c_tail * sigma ** (k % 2) * float(q) ** k)
    if kind == "inert" and vxi % 2:
        total = -total
    return total


@pytest.mark.parametrize("p, kind, seed", [(3, "split", 42), (3, "inert", 42),
                                           (5, "split", 42), (5, "inert", 51)])
def test_shell_plan_matches_term_loop(p, kind, seed):
    """At every unit of every window shell of seeded S(X) and S(Z) inputs, the
    shell plan gives the term-by-term sum; the inputs carry a germ at -1 (seed
    42 gives none at p = 5 inert) and read resonant (Salie) shells."""
    from padicorb.localfield import INF
    from padicorb.spaces import _g_value, _shell_plan

    ctx = LocalFieldCtx(p)
    windows = _seeded_windows(p, kind, seed)
    assert any(first == -INF for (_, first, _) in windows[1][0]._terms[1])
    resonant = 0
    for f, shells in windows:
        terms = f._terms
        for v in shells:
            plan = _shell_plan(ctx, kind, terms, v)
            resonant += sum(1 for (m, _, _, _) in plan.entries if m >= 2)
            units = unit_reps(p, plan.level)
            for u in units:
                xi = Fraction(u) * Fraction(p) ** v
                want = _term_loop_oracle(ctx, kind, terms, xi)
                got = plan.value(ctx, u)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (v, u, got, want)
                if u in (units[0], units[-1]):
                    assert _g_value(f, xi) == got
    assert resonant > 0


def _read_every_plan(f):
    """Build the G output of f and read G f at the probe points of
    `verify_matching` and `verify_fl`, so that `f._plans` holds every window,
    germ-fit, tail and probe shell."""
    from padicorb.spaces import g_transform_Z_to_W, g_value_Z_to_W

    p = f.ctx.p
    if isinstance(f, SXElem):
        g_transform_SX(f)
        probes = [(v, u) for v in range(-4, 5) for u in (1, 2)]
    else:
        w = g_transform_Z_to_W(f)
        probes = [(v, u) for v in (-4, 0, 1, w.zero_germ.level + 1, -w.inf_tail.M - 2)
                  for u in (1, max(2, p - 1))]
        probes += [(v, u) for v in range(-4, 5) for u in (1, 2)]
    for v, u in probes:
        (g_value_SX if isinstance(f, SXElem) else g_value_Z_to_W)(f, u * Fraction(p) ** v)
    return f._plans


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("kind", ["split", "inert"])
def test_shell_plans_equal_the_reference_plan(p, kind):
    """Every shell plan that G reads off seeded S(X) and S(Z) chart elements
    and off h_0 .. h_2 applied on the torus side equals the plan that sums
    every term, window entries included, through a germ transform
    (`oracles.reference_shell_plan`): const, entries and level, bit for bit."""
    from oracles import reference_shell_plan, reference_shell_terms

    from padicorb.groups import HeckeElt
    from padicorb.orbital import hecke_apply_Z, random_baby_data, sx_from_baby, sz_from_charts

    ctx = LocalFieldCtx(p)
    rng = random.Random(80 + p)
    elems = []
    for _ in range(3 if p < 7 else 1):
        elems.append(sx_from_baby(random_baby_data(ctx, kind, rng), kind))
        elems.append(sz_from_charts(random_baby_data(ctx, kind, rng),
                                    random_baby_data(ctx, kind, rng), kind))
    elems += [hecke_apply_Z(ctx, kind, HeckeElt.of({j: 1.0})) for j in range(3)]
    plans = 0
    for f in elems:
        terms = reference_shell_terms(ctx, kind, f.window.entries, f.germ0,
                                      getattr(f, "germ_m1", None))
        for v, plan in _read_every_plan(f).items():
            want = reference_shell_plan(ctx, kind, terms, v)
            assert plan == want and repr(plan) == repr(want), (v, plan, want)
            plans += 1
    assert plans >= 10 * len(elems)


def test_shell_plan_sums_window_terms_without_germ_transforms(ctx3, monkeypatch):
    """A plan calls `_GermTransform.signed_sum` at most four times per germ
    term (its volume, Ramanujan, top and resonant shells), however many
    window terms it sums."""
    import padicorb.spaces as spaces

    calls = []
    signed_sum = spaces._GermTransform.signed_sum

    def counted(self, *args):
        calls.append(args)
        return signed_sum(self, *args)

    monkeypatch.setattr(spaces._GermTransform, "signed_sum", counted)
    atoms = [(Fraction(u) * Fraction(3) ** vc, vc + n, complex(u, -vc))
             for vc in range(-4, 3) for n in (1, 2, 3) for u in (1, 2, 4, 5)
             if (vc, n) != (0, 1)]
    for kind in ("split", "inert"):
        f = SZElem(ctx3, kind, BruhatFn.from_atoms(ctx3, "F", atoms),
                   Germ(0.5, -0.25, 3), Germ(-1.5, 0.75, 2))
        window, germs = f._terms
        assert len(window) > 50 and len(germs) == 2
        for v in range(-12, 12):
            before = len(calls)
            spaces._shell_plan(ctx3, kind, f._terms, v)
            assert len(calls) - before <= 4 * len(germs), (kind, v)


@pytest.mark.parametrize("v", [-5000, -700, 700, 5000])
def test_extreme_valuations_are_finite_or_typed(ctx3, v):
    """Each pointwise entry point that takes a power of q at val xi returns a
    finite value or raises a PadicOrbError at |val xi| = 700 and 5000, where
    q^|val| leaves the float range."""
    from padicorb.errors import PadicOrbError
    from padicorb.groups import HeckeElt
    from padicorb.orbital import hecke_apply_W, o_kuz_closed, random_baby_data, sz_from_charts
    from padicorb.spaces import g_value_Z_to_W

    xi = Fraction(3) ** v
    rng = random.Random(1)
    calls = []
    for kind in ("split", "inert"):
        fz = sz_from_charts(random_baby_data(ctx3, kind, rng), random_baby_data(ctx3, kind, rng),
                            kind)
        fx = SXElem(ctx3, kind, fz.window, fz.germ0)
        sw = SWElem(ctx3, kind, 0.0, fz.window, Germ(1, 1, 0), KLTail(1.0, 2))
        ext = QuadExt(ctx3, kind)
        calls += [lambda: g_value_Z_to_W(fz, xi), lambda: g_value_SX(fx, xi), lambda: sw.eval(xi),
                  lambda: hecke_apply_W(ctx3, kind, HeckeElt.of({0: 1.0, 1: 0.5}))(xi),
                  lambda: iota_eval(ext, lambda y: 1.0, xi)]
    calls += [lambda: kloosterman_germ(ctx3, xi), lambda: o_kuz_closed(ctx3, 0, xi)]
    for call in calls:
        try:
            value = call()
        except PadicOrbError:
            continue
        assert cmath.isfinite(value), value


@pytest.mark.parametrize("p, m", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_unit_shell_integral_keyed_by_product(p, m):
    """For every unit pair (a, b) mod p^m the integral keyed by (m, ab mod p^m)
    is the double sum p^-m S(a, b; p^m), and S(a, b) = S(ab, 1); the key n = 0
    is the Ramanujan sum S(a, 0)."""
    import cmath

    from padicorb.spaces import _unit_integral

    ctx = LocalFieldCtx(p)
    mod = p ** m
    units = unit_reps(p, m)

    def kloosterman(a, b):
        return sum(cmath.exp(2j * math.pi * ((a * u + b * pow(u, -1, mod)) % mod) / mod)
                   for u in units)

    for a in units:
        for b in units:
            brute = kloosterman(a, b)
            assert abs(brute - kloosterman(a * b % mod, 1)) < 1e-10, (a, b)
            assert abs(_unit_integral(ctx, m, a * b % mod) - brute / mod) < 1e-12, (a, b)
        assert abs(_unit_integral(ctx, m, 0) - kloosterman(a, 0) / mod) < 1e-12, a


def test_osc_cache_keys_are_p_m_n():
    """After a seeded G transform every cached unit-shell integral sits under
    one distinct key (p, m, n) with 0 <= n < p^m."""
    from padicorb.orbital import random_baby_data, sz_from_charts
    from padicorb.spaces import _osc_cache, g_transform_Z_to_W

    ctx = LocalFieldCtx(3)
    rng = random.Random(9)
    g_transform_Z_to_W(sz_from_charts(random_baby_data(ctx, "split", rng),
                                      random_baby_data(ctx, "split", rng), "split"))
    keys = list(_osc_cache)
    assert any(key[0] == 3 for key in keys)
    assert len(set(keys)) == len(keys)
    for key in keys:
        assert len(key) == 3 and all(type(x) is int for x in key), key
        p, m, n = key
        assert m >= 1 and 0 <= n < p ** m, key


def _seeded_sz(ctx, kind, seed):
    from padicorb.orbital import random_baby_data, sz_from_charts

    rng = random.Random(seed)
    return sz_from_charts(random_baby_data(ctx, kind, rng), random_baby_data(ctx, kind, rng),
                          kind)


def test_window_eval_keys_once_per_level(ctx3, monkeypatch):
    """`eval` on a G window values the point once per distinct entry level,
    not once per entry."""
    from padicorb import bruhat
    from padicorb.spaces import g_transform_Z_to_W

    window = g_transform_Z_to_W(_seeded_sz(ctx3, "split", 3)).window
    levels = {a.level for a in window.atoms}
    assert len(window.atoms) > 2 * len(levels)
    calls = []
    valuation = bruhat.rational_valuation
    monkeypatch.setattr(bruhat, "rational_valuation",
                        lambda x, p: calls.append(x) or valuation(x, p))
    for v in (-3, 0, 2):
        for u in (1, 2, 4):
            before = len(calls)
            window.eval(u * Fraction(3) ** v)
            assert len(calls) - before <= len(levels), (u, v)


def _terms_from_centres(ctx, kind, f):
    """The shell terms of an S(Z) element read off its window's `Atom`
    centres with `_val_and_unit_key`: each window term's unit of -c is the
    centre's unit read to 40 digits, far more than its key keeps."""
    from padicorb.spaces import _shell_terms, _val_and_unit_key

    digits = ctx.p ** 40
    window = []
    for a in f.window.atoms:
        vc, num, den = _val_and_unit_key(ctx, a.center[0])
        window.append((vc, -num * pow(den, -1, digits) % digits, -a.level,
                       a.coef * float(ctx.q) ** (-a.level)))
    return tuple(window), _shell_terms(ctx, kind, (), f.germ0, f.germ_m1)[1]


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("kind", ["split", "inert"])
def test_shell_terms_from_keys_match_full_centres(p, kind):
    """G read off a window's coset keys equals G read off the full rational
    centres, bit for bit: the plans read the unit of a centre only to the
    digits its key keeps.  Checked on windows with many-digit caller centres
    and on a seeded chart element, shells -8..8, units 1, 2 and 4."""
    from padicorb.spaces import _shell_terms

    ctx = LocalFieldCtx(p)
    rng = random.Random(50 + p)
    elems = [_seeded_sz(ctx, kind, 5)]
    for _ in range(3):
        atoms = []
        for _ in range(6):
            n = rng.randrange(-2, 4)
            vc = rng.randrange(n - 4, n)
            unit = Fraction(rng.choice([x for x in range(1, p ** 6) if x % p]),
                            rng.choice([1, 2, 7, 11]))
            atoms.append((unit * Fraction(p) ** vc, n, complex(rng.gauss(0, 1), rng.gauss(0, 1))))
        elems.append(SZElem(ctx, kind, BruhatFn.from_atoms(ctx, "F", atoms),
                            Germ(0.5, -0.25, 3), Germ(-1.5, 0.75, 2)))
    for f in elems:
        keyed = _shell_terms(ctx, kind, f.window.entries, f.germ0, f.germ_m1)
        full = _terms_from_centres(ctx, kind, f)
        for v in range(-8, 9):
            for u in (1, 2, 4):
                xi = u * Fraction(p) ** v
                assert _fresh_g_value(ctx, kind, keyed, xi) == \
                    _fresh_g_value(ctx, kind, full, xi), (v, u)
