import inspect
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from padicorb import bruhat
from padicorb.errors import KindError, UnsupportedAtomError
from padicorb.bruhat import (
    Atom,
    BruhatFn,
    MellinCharacter,
    _coset_key,
    fourier,
    fourier_E,
    fourier_F2,
    gamma_factor,
    inner_product,
    integral,
    mellin_component,
    negate_argument,
    tate_zeta,
)
from padicorb.localfield import LocalFieldCtx, QuadExt, psi_eval_frac, rational_valuation, unit_mod
from padicorb.orbital import gamma_star


def random_fn(ctx, rng, domain="F", n_atoms=4, max_level=2, center_den=2):
    atoms = []
    dim = 1 if domain == "F" else 2
    for _ in range(n_atoms):
        center = tuple(
            Fraction(rng.randrange(-2 * ctx.p ** 2, 2 * ctx.p ** 2),
                     ctx.p ** rng.randrange(0, center_den))
            for _ in range(dim)
        )
        atoms.append((center if dim > 1 else center[0],
                      rng.randrange(0, max_level + 1),
                      complex(rng.gauss(0, 1), rng.gauss(0, 1))))
    return BruhatFn.from_atoms(ctx, domain, atoms)


def test_bruhat_eval_examples(ctx5):
    one_o = BruhatFn.indicator_ball(ctx5, "F", 0, 0)
    assert one_o.eval(Fraction(0)) == 1
    assert one_o.eval(Fraction(1, 5)) == 0
    overlap = one_o + BruhatFn.from_atoms(ctx5, "F", [(1, 1, 2.0)])
    assert overlap.eval(Fraction(1)) == 3  # atom overlap sums


def test_canonicalize_refinement_preserves_values(ctx3):
    rng = random.Random(0)
    f = random_fn(ctx3, rng)
    fc = f.canonicalize()
    for _ in range(60):
        x = Fraction(rng.randrange(-40, 40), 3 ** rng.randrange(0, 3))
        assert abs(f.eval(x) - fc.eval(x)) < 1e-12


@pytest.mark.parametrize("p", [3, 5])
def test_coset_key_properties(p):
    """Keys agree iff the points share the coset; a key's center lies in it."""
    from padicorb.bruhat import _coset_key, _key_center
    from padicorb.localfield import rational_valuation

    rng = random.Random(100 + p)

    def point():
        if rng.random() < 0.1:
            return Fraction(0)
        den = p ** rng.randrange(0, 4) * rng.choice((1, 2, 7))
        return Fraction(rng.randrange(-3 * p ** 4, 3 * p ** 4), den)

    for _ in range(1500):
        level = rng.randrange(-3, 6)
        x = point()
        # a near neighbour half the time, so equal keys are well represented
        y = (x + Fraction(p) ** rng.randrange(-4, 7) * rng.randrange(p * p)
             if rng.random() < 0.5 else point())
        kx, ky = _coset_key(x, level, p), _coset_key(y, level, p)
        assert (kx == ky) == (rational_valuation(x - y, p) >= level), (x, y, level)
        center = _key_center(kx, p)
        assert rational_valuation(center - x, p) >= level
        assert _coset_key(center, level, p) == kx


def test_refine_drops_relative_to_the_largest_weight(ctx3):
    """The canonical form drops a coset sum only when it is at most 1e-14 of
    the largest input weight: 1e-15 * (1_o + 1_{po}) keeps its three cosets,
    and f - f has an empty table."""
    f = BruhatFn.from_atoms(ctx3, "F", [(0, 0, 1.0), (0, 1, 1.0)])
    small = f.scale(1e-15)
    assert {k: w * 1e-15 for k, w in f.coset_table.items()} == small.coset_table
    assert len(small.coset_table) == 3
    assert (f - f).coset_table == {}
    g = random_fn(ctx3, random.Random(3), domain="F2")
    assert (g - g).coset_table == {} and (g - g).level == 0


@pytest.mark.parametrize("p", [3, 5, 7])
def test_refine_keeps_the_text_order(p):
    """The canonical table, ordered by the rank of each coordinate's center
    text, lists the same cosets and weights in the same order as the sort by
    the text of the whole tuple of centers (`reference_refine`), on seeded
    mixed-level data on F, F^2 and E.  The inputs reach centers whose text
    order is not their numeric order: numerators of two digits or more sort
    before single digits ("10" < "9"), and denominators reach two digits (p^3
    at p = 3, p^2 above).  Negative input centers enter as their nonnegative
    residues, so no key text holds a '-'."""
    from oracles import reference_refine

    ctx = LocalFieldCtx(p)
    rng = random.Random(3200 + p)
    den_digits = 3 if p == 3 else 2
    reversed_pairs = two_digit_dens = negative_centers = 0
    for domain in ("F", "F2", "E"):
        dim = 1 if domain == "F" else 2
        for _ in range(6):
            atoms = []
            for j in range(rng.randint(3, 5)):  # levels 0, 1, 2, then any
                center = tuple(Fraction(rng.randrange(-3 * p ** 2, 3 * p ** 2),
                                        p ** rng.randrange(0, den_digits + 1))
                               for _ in range(dim))
                negative_centers += any(c < 0 for c in center)
                atoms.append((center if dim > 1 else center[0], j % 3,
                              complex(rng.gauss(0, 1), rng.gauss(0, 1))))
            f = BruhatFn.from_atoms(ctx, domain, atoms)
            level = 2
            got = bruhat._refine(f.entries, level, p, dim)
            want = reference_refine(f.entries, level, p, dim)
            assert list(got.items()) == list(want.items())
            assert list(f.coset_table.items()) == list(want.items())
            firsts = [bruhat._key_ratio(key[0], p) for key in got]
            two_digit_dens += any(den >= 10 for _, den in firsts)
            reversed_pairs += any(Fraction(*a) > Fraction(*b) and a[1] == b[1]
                                  for a, b in zip(firsts, firsts[1:]))
    assert reversed_pairs > 0 and two_digit_dens > 0 and negative_centers > 0


def test_canonical_form_memoized(ctx3):
    f = random_fn(ctx3, random.Random(5), domain="F2")
    fc = f.canonicalize()
    assert fc is f.canonicalize() and fc.canonicalize() is fc
    assert f.coset_table is fc.coset_table and f.level == fc.level
    assert list(f.coset_table.values()) == [a.coef for a in fc.atoms]


def test_from_table_seeds_its_level(ctx3):
    """A nonempty table's `level` is the level it was given, seeded rather than
    derived by a max over its entries; the empty table's is 0.  Fourier outputs
    read the same level as the max over their entries."""
    f = BruhatFn.from_table(ctx3, "F", 3, {((0, 1),): 1.0, ((2, 1),): 2.0})
    assert f.__dict__["level"] == 3 == max(n for _, n, _ in f.entries)
    assert BruhatFn.from_table(ctx3, "F", 3, {}).level == 0
    for g in (fourier(random_fn(ctx3, random.Random(7))),
              fourier_F2(random_fn(ctx3, random.Random(7), domain="F2"))):
        assert "level" in g.__dict__ and g.level == max(n for _, n, _ in g.entries)


def test_table_sums_overlapping_atoms(ctx3):
    """1_o + 1_{po} given as two atoms: BruhatFn takes no `canonical` field
    (and only E^alpha data a torsor scale), so the table refines and sums
    them, agrees with eval, and integrates to 4/3."""
    from padicorb.errors import DomainError

    assert "canonical" not in inspect.signature(BruhatFn).parameters
    entries = ((((0, 0),), 0, 1.0), (((1, 0),), 1, 1.0))  # the keys of 0 at levels 0, 1
    with pytest.raises(DomainError):  # an old positional flag lands on torsor_scale
        BruhatFn(ctx3, "F", entries, True)
    f = BruhatFn(ctx3, "F", entries)
    assert f.coset_table == {((1, 0),): 2, ((0, 1),): 1, ((0, 2),): 1}
    assert integral(f) == pytest.approx(4 / 3)
    ev = f.make_evaluator()
    for x in (0, 3, -6, 1, 2, 4, 5, Fraction(1, 3), Fraction(7, 2)):
        assert ev(Fraction(x)) == f.eval(x)


def test_from_atoms_keeps_the_caller_centres(ctx3):
    """`atoms` of a function built from atoms are the caller's own: a level-0
    coordinate at 5 is read back as 5, not as the key's centre 0."""
    f = BruhatFn.from_atoms(ctx3, "F2", [((5, Fraction(7, 3)), 0, 1.0)])
    assert f.atoms == (Atom((Fraction(5), Fraction(7, 3)), 0, 1.0 + 0j),)
    assert f.atoms[0].center == (5, Fraction(7, 3))


def test_entries_are_the_stored_form(ctx3):
    """A BruhatFn stores (keys, level, coef) entries, one `_coset_key` per
    coordinate; `atoms` is a view, not a field, and is read-only."""
    f = BruhatFn.from_atoms(ctx3, "F2", [((5, Fraction(7, 3)), 0, 1.0)])
    assert f.entries == ((((0, 0), (-1, 1)), 0, 1.0 + 0j),)
    assert "atoms" not in inspect.signature(BruhatFn).parameters
    assert BruhatFn(ctx3, "F2", f.entries).atoms == (Atom((Fraction(0), Fraction(1, 3)), 0, 1.0),)
    with pytest.raises(AttributeError):
        f.atoms = ()


def test_fourier_baby_reads_no_key_centres(ctx3, monkeypatch):
    """The Fourier transform of inert baby data, its tables, levels and value
    at 0 are computed on integer keys alone: no key is turned into a centre."""
    from padicorb.orbital import fourier_baby, random_baby_data

    calls = []
    centre = bruhat._key_center
    monkeypatch.setattr(bruhat, "_key_center", lambda *a: calls.append(a) or centre(*a))
    for seed in range(3):
        data = random_baby_data(ctx3, "inert", random.Random(seed))
        hat = fourier_baby(data, "inert")
        for f in (hat.phi0, hat.phi_alpha):
            assert f.coset_table and f.level >= 0
            f.eval((0, 0))
    assert calls == []


def _count_coset_keys(monkeypatch):
    """Patch `bruhat._coset_key` to record its calls; returns the record."""
    calls, key = [], bruhat._coset_key

    def counted(c, level, p):
        calls.append(c)
        return key(c, level, p)

    monkeypatch.setattr(bruhat, "_coset_key", counted)
    return calls


def _mixed_level_fns(ctx3):
    rng = random.Random(17)
    return [random_fn(ctx3, rng, domain="F2", n_atoms=5),
            random_fn(ctx3, rng, domain="E", n_atoms=5),
            _random_on(ctx3, rng, "Ealpha", Fraction(2 * 9, 7), n_atoms=5)]


def test_refinement_keys_each_atom_coordinate_once(ctx3, monkeypatch):
    """A canonical form keys each atom coordinate once and refines on integer
    keys; refining a table further keys nothing."""
    funcs = _mixed_level_fns(ctx3)
    calls = _count_coset_keys(monkeypatch)
    for f in funcs:
        assert len({a.level for a in f.atoms}) > 1
        before = len(calls)
        f.canonicalize()
        assert len(calls) - before <= f.dim * len(f.atoms)
        before = len(calls)
        assert len(bruhat._table_at(f, f.level + 1)) > len(f.coset_table)
        assert len(calls) == before


def test_fourier_tables_need_no_coset_keys(ctx3, monkeypatch):
    """fourier_F2 and fourier_E key their output cosets from the integer
    indices of the transform (and the torsor substitution on the keys)."""
    ext = QuadExt(ctx3, "inert")
    funcs = [f.canonicalize() for f in _mixed_level_fns(ctx3)]
    calls = _count_coset_keys(monkeypatch)
    for f in funcs:
        hat = fourier_F2(f) if f.domain == "F2" else fourier_E(f, ext)
        assert hat.coset_table and hat.canonicalize() is hat
    assert calls == []


def test_refinement_limit(ctx3):
    from padicorb.errors import DomainError, RepresentationError

    deep = BruhatFn.from_atoms(ctx3, "F2", [((0, 0), -6, 1.0), ((1, 1), 9, 1.0)])
    with pytest.raises(RepresentationError):
        deep.canonicalize()
    # one variable, 3^13 + 1 (about 1.6M) cosets: refused before any is built
    wide = BruhatFn.from_atoms(ctx3, "F", [(0, -6, 1.0), (1, 7, 1.0)])
    start = time.perf_counter()
    with pytest.raises(RepresentationError):
        wide.canonicalize()
    assert time.perf_counter() - start < 1.0
    with pytest.raises(DomainError):
        BruhatFn.from_atoms(ctx3, "F", [(0, 2.5, 1.0)])


def test_cross_prime_arithmetic_raises():
    """1_{1+3o} at p = 3 and 1_{1+5o} at p = 5 share no field: their sum,
    difference and inner product are refused, as are those of functions on
    different domains or torsors, also when one side is zero."""
    from padicorb.errors import DomainError

    ctx3 = LocalFieldCtx(3)
    f = BruhatFn.indicator_ball(ctx3, "F", 1, 1)
    g = BruhatFn.indicator_ball(LocalFieldCtx(5), "F", 1, 1)
    zero5 = BruhatFn.zero(LocalFieldCtx(5))
    on_f = BruhatFn.from_atoms(ctx3, "F", [(1, 1, 2.0)])
    zero_f2 = BruhatFn.zero(ctx3, "F2")
    ea = BruhatFn.indicator_ball(ctx3, "Ealpha", (1, 0), 1, torsor_scale=3)
    eb = BruhatFn.indicator_ball(ctx3, "Ealpha", (1, 0), 1, torsor_scale=12)
    zero_eb = BruhatFn.zero(ctx3, "Ealpha", torsor_scale=12)
    for run in (lambda: f + g, lambda: f - g, lambda: g + f, lambda: f + zero5,
                lambda: inner_product(f, g), lambda: inner_product(f, zero5),
                lambda: on_f + zero_f2, lambda: zero_f2 + on_f, lambda: on_f - zero_f2,
                lambda: inner_product(on_f, zero_f2), lambda: ea + eb, lambda: ea + zero_eb,
                lambda: zero_eb + ea, lambda: inner_product(ea, eb),
                lambda: inner_product(zero_eb, ea)):
        with pytest.raises(DomainError):
            run()
    assert (f + f).eval(1) == 2 and inner_product(f, f) == pytest.approx(1 / 3)


def test_fourier_self_dual_ball(ctx3):
    one_o = BruhatFn.indicator_ball(ctx3, "F", 0, 0)
    hat = fourier(one_o)
    assert len(hat.atoms) == 1
    a = hat.atoms[0]
    assert a.center[0] == 0 and a.level == 0 and abs(a.coef - 1) < 1e-14


def test_fourier_small_ball_scaling(ctx3):
    """1_{p^n o} -> q^-n 1_{p^-n o}, checked pointwise against the
    finite character-sum oracle."""
    p = 3
    for n in (1, 2):
        f = BruhatFn.indicator_ball(ctx3, "F", 0, n)
        hat = fourier(f)

        def oracle(y):
            # sample points of p^n o at depth p^(n+2), each of volume q^-(n+2)
            tot = 0j
            for k in range(p ** 2):
                x = Fraction(k * p ** n)
                tot += psi_eval_frac(ctx3, -x * y)
            return tot * float(Fraction(1, p ** (n + 2)))

        for y in (Fraction(0), Fraction(1), Fraction(1, p ** n), Fraction(1, p ** (n + 1))):
            assert abs(hat.eval(y) - oracle(y)) < 1e-12


def test_fourier_modulated_coset(ctx3):
    """1_{c + p^n o} -> q^-n psi^-1(c y) on p^-n o."""
    c, n = Fraction(2, 3), 1
    f = BruhatFn.from_atoms(ctx3, "F", [(c, n, 1.0)])
    hat = fourier(f)
    for y in (Fraction(1), Fraction(3), Fraction(1, 3), Fraction(2)):
        want = Fraction(1, 3) ** n * psi_eval_frac(ctx3, -c * y) if True else 0
        want = float(Fraction(1, 3 ** n)) * psi_eval_frac(ctx3, -c * y)
        if 3 ** n * y.denominator > 3 ** n * 1 and False:
            want = 0
        # support: |y| <= q^n
        from padicorb.localfield import rational_valuation
        if rational_valuation(y, 3) < -n:
            want = 0
        assert abs(hat.eval(y) - want) < 1e-12


def test_fourier_involution_seeded(ctx3, ctx5):
    rng = random.Random(42)
    for ctx in (ctx3, ctx5):
        for _ in range(25):
            f = random_fn(ctx, rng)
            ff = fourier(fourier(f))
            diff = (ff - negate_argument(f)).canonicalize()
            resid = max((abs(a.coef) for a in diff.atoms), default=0.0)
            assert resid < 1e-10


def test_plancherel(ctx3):
    # bilinear Parseval for the psi^-1 kernel: <f^, g^> = <f, g(-.)>
    rng = random.Random(7)
    for _ in range(10):
        f, g = random_fn(ctx3, rng), random_fn(ctx3, rng)
        lhs = inner_product(fourier(f), fourier(g))
        rhs = inner_product(f, negate_argument(g))
        assert abs(lhs - rhs) < 1e-10


def test_fourier_E_self_dual_and_involution(ctx3, ext3i):
    one = BruhatFn.indicator_ball(ctx3, "E", (0, 0), 0)
    hat = fourier_E(one, ext3i)
    assert abs(hat.eval((Fraction(0), Fraction(0))) - 1) < 1e-12
    assert abs(hat.eval((Fraction(1, 3), Fraction(0)))) < 1e-12
    rng = random.Random(9)
    for _ in range(6):
        f = random_fn(ctx3, rng, domain="E", n_atoms=3)
        ff = fourier_E(fourier_E(f, ext3i), ext3i)
        diff = (ff - negate_argument(f)).canonicalize()
        resid = max((abs(a.coef) for a in diff.atoms), default=0.0)
        assert resid < 1e-10


def test_fourier_E_torsor_scaling(ctx3, ext3i):
    """Unit torsor scale: same as untwisted up to the stated substitution."""
    rng = random.Random(11)
    base = random_fn(ctx3, rng, domain="E", n_atoms=3)
    twisted = BruhatFn(ctx3, "Ealpha", base.entries, torsor_scale=Fraction(2))
    hat_t = fourier_E(twisted, ext3i)
    hat_0 = fourier_E(base, ext3i)
    # |a|=1: hat(Phi^a)(y) = hat(Phi0)(a y)
    for _ in range(20):
        y = (Fraction(rng.randrange(-20, 20), 3), Fraction(rng.randrange(-20, 20), 3))
        assert abs(hat_t.eval(y) - hat_0.eval((2 * y[0], 2 * y[1]))) < 1e-10
    # double transform on the torsor is still f(-x)
    ff = fourier_E(fourier_E(twisted, ext3i), ext3i)
    diff = (ff - negate_argument(twisted)).canonicalize()
    assert max((abs(a.coef) for a in diff.atoms), default=0.0) < 1e-10


def _numpy_fourier_nd(f, scales):
    """The library's earlier numpy transform, outer products of vectorized
    one-dimensional character sums, with the relative drop rule, its cosets
    keyed by `_coset_key` of the centers r p^-n, then on E^alpha the torsor
    substitution coset by coset: the oracle for `bruhat._fourier_nd`."""
    from oracles import torsor_substitution

    f = f.canonicalize()
    ctx = f.ctx
    p = ctx.p
    if f.is_zero():
        return BruhatFn.zero(ctx, f.domain, f.torsor_scale)
    n = f.level
    out_level = -n
    for a in f.atoms:
        for c, s in zip(a.center, scales):
            if c != 0:
                out_level = max(out_level, -rational_valuation(s * c, p))
    span = p ** (out_level + n)
    vol1 = float(Fraction(ctx.q) ** (-n))
    r_idx = np.arange(span, dtype=np.int64)

    def factor_vector(c, s):
        sc = s * c
        if sc == 0:
            return np.full(span, vol1, dtype=np.complex128)
        v = rational_valuation(sc, p)
        m = n - v
        if m <= 0:
            return np.full(span, vol1, dtype=np.complex128)
        mod = p ** m
        t = (unit_mod(sc, v, p, m) * (r_idx % mod)) % mod
        return vol1 * np.exp(-2j * np.pi * t / mod)

    total = np.zeros((span,) * f.dim, dtype=np.complex128)
    for a in f.atoms:
        vecs = [factor_vector(c, s) for c, s in zip(a.center, scales)]
        total += a.coef * (vecs[0] if f.dim == 1 else np.outer(*vecs))
    thresh = 1e-12 * float(np.abs(total).max())
    pn = Fraction(p) ** n
    table = {tuple(_coset_key(Fraction(int(r)) / pn, out_level, p) for r in idx):
             complex(total[idx]) for idx in zip(*np.nonzero(np.abs(total) > thresh))}
    hat0 = BruhatFn.from_table(ctx, f.domain, out_level, table, f.torsor_scale)
    return hat0 if f.domain != "Ealpha" else torsor_substitution(hat0)


def _transforms(ctx):
    """(domain, transform, torsor scale) for F, F^2, E and E^alpha."""
    ext = QuadExt(ctx, "inert")
    return [("F", fourier, None), ("F2", fourier_F2, None),
            ("E", lambda f: fourier_E(f, ext), None),
            ("Ealpha", lambda f: fourier_E(f, ext), Fraction(ctx.p))]


def _random_on(ctx, rng, domain, torsor_scale, **kw):
    f = random_fn(ctx, rng, "F" if domain == "F" else "E", **kw)
    return BruhatFn(ctx, domain, f.entries, torsor_scale=torsor_scale)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_fourier_matches_numpy_oracle(p, monkeypatch):
    """Same centers, levels and atom order as the numpy transform, and the
    same coefficients up to rounding, on F, F^2, E and E^alpha."""
    ctx = LocalFieldCtx(p)
    rng = random.Random(1000 + p)
    for domain, transform, ts in _transforms(ctx):
        flat = p > 3 and domain != "F"  # keeps the 2-D span at most p^2 per axis
        for _ in range(8):
            f = _random_on(ctx, rng, domain, ts, n_atoms=rng.randint(1, 5),
                           max_level=1 if flat else 2, center_den=1 if flat and p == 7 else 2)
            got = transform(f)
            with monkeypatch.context() as m:
                m.setattr(bruhat, "_fourier_nd", _numpy_fourier_nd)
                want = transform(f)
            assert got.domain == want.domain and got.torsor_scale == want.torsor_scale
            assert [(a.center, a.level) for a in got.atoms] == \
                [(a.center, a.level) for a in want.atoms]
            for a, b in zip(got.atoms, want.atoms):
                assert abs(a.coef - b.coef) <= 1e-12 * max(1.0, abs(b.coef))


def _direct_transforms(ctx, nd):
    """{domain: the transform on `nd`} for `nd` one of the direct sums of
    `tests/oracles.py`, the torsor substitution taken coset by coset."""
    from oracles import direct_fourier_E

    ext = QuadExt(ctx, "inert")
    return {"F": lambda f: nd(f, (1,)),
            "F2": lambda f: nd(f, (1, 1)),
            "E": lambda f: direct_fourier_E(f, ext, nd),
            "Ealpha": lambda f: direct_fourier_E(f, ext, nd)}


def _kernel_cases(p):
    """(domain, transform, input) over F, F^2, E and E^alpha: random data at
    mixed levels, whose few phases reuse their power rows across the rows of
    a 2-D table, its canonical form, and its transform, whose phases fill the
    span; the last two are single-level tables."""
    ctx = LocalFieldCtx(p)
    rng = random.Random(2400 + p)
    for domain, transform, ts in _transforms(ctx):
        flat = p > 3 and domain != "F"  # keeps the 2-D span at most p^2 per axis
        for _ in range(6):
            f = _random_on(ctx, rng, domain, ts, n_atoms=rng.randint(1, 5),
                           max_level=1 if flat else 2, center_den=1 if flat and p == 7 else 2)
            for g in (f, f.canonicalize(), transform(f)):
                yield domain, transform, g


@pytest.mark.parametrize("p", [3, 5, 7])
def test_fourier_kernel_equals_direct_sum(p):
    """The level-by-level power-row kernel gives the level-by-level direct
    sum's tables bit for bit, in the same entry order, on F, F^2, E and
    E^alpha, inputs at one level and at several."""
    from oracles import direct_fourier_nd

    direct = _direct_transforms(LocalFieldCtx(p), direct_fourier_nd)
    for domain, transform, g in _kernel_cases(p):
        got, want = transform(g), direct[domain](g)
        assert (got.domain, got.level, got.torsor_scale) == \
            (want.domain, want.level, want.torsor_scale)
        assert got.entries == want.entries
        assert list(got.coset_table.items()) == list(want.coset_table.items())


@pytest.mark.parametrize("p", [3, 5])
def test_dense_fourier_table_seeds_its_axis_radii(p):
    """A transform that drops no cell takes its whole grid as its table and
    seeds `axis_radii` and `coset_valuations` from its key row; one that
    drops cells keeps them out and leaves both memos to the table.  Either way
    the table equals the direct sum's, items in order, and both memos equal
    those `from_table` reads off the same table: on F, F^2, E and E^alpha,
    for random data (dense outputs) and for the difference of two cosets at
    level 1 whose first centers differ by 1 (its transform vanishes where y_1
    is in o)."""
    from oracles import direct_fourier_nd

    ctx = LocalFieldCtx(p)
    direct = _direct_transforms(ctx, direct_fourier_nd)
    rng = random.Random(3300 + p)
    for domain, transform, ts in _transforms(ctx):
        dim = 1 if domain == "F" else 2
        origin, shifted = ((0,), (1,)) if dim == 1 else ((0, 0), (1, 0))
        cancel = BruhatFn.from_atoms(ctx, domain, [(origin if dim > 1 else 0, 1, 1.0),
                                                   (shifted if dim > 1 else 1, 1, -1.0)], ts)
        seeded = []
        for f in [_random_on(ctx, rng, domain, ts, n_atoms=3, max_level=1) for _ in range(3)] \
                + [cancel]:
            got, want = transform(f), direct[domain](f)
            memos = {"axis_radii", "coset_valuations"} & set(got.__dict__)
            assert len(memos) in (0, 2)
            seeded.append(bool(memos))
            assert list(got.coset_table.items()) == list(want.coset_table.items())
            assert got.level == want.level and got.entries == want.entries
            read = BruhatFn.from_table(ctx, domain, got.level, got.coset_table, ts)
            assert got.axis_radii == read.axis_radii
            assert got.coset_valuations == read.coset_valuations
            full = (p ** (got.level + max(read.axis_radii))) ** dim
            assert (len(got.coset_table) == full) == seeded[-1]
        assert seeded == [True, True, True, False], domain


@pytest.mark.parametrize("p", [3, 5, 7])
def test_fourier_kernel_keeps_the_refined_sum(p):
    """Against the one direct sum over the refined canonical table, which the
    kernel took before it worked level by level: the same level, keys and
    entry order, and values within 1e-13 of the largest output weight; bit for
    bit when the input is a single-level table."""
    from oracles import refined_fourier_nd

    refined = _direct_transforms(LocalFieldCtx(p), refined_fourier_nd)
    single = 0
    for domain, transform, g in _kernel_cases(p):
        got, want = transform(g), refined[domain](g)
        assert (got.domain, got.level, got.torsor_scale) == \
            (want.domain, want.level, want.torsor_scale)
        assert list(got.coset_table) == list(want.coset_table)
        wmax = max(map(abs, want.coset_table.values()))
        for a, b in zip(got.coset_table.values(), want.coset_table.values()):
            assert abs(a - b) <= 1e-13 * wmax
        if len({n for _, n, _ in g.entries}) == 1 and g.canonicalize() is g:
            single += 1
            assert got.entries == want.entries
    assert single == 48


def test_fourier_of_a_cancelled_input_is_zero(ctx3):
    """An input whose canonical table is empty transforms to the zero
    function: f - f at mixed levels, and 1_o minus its p cosets at level 1,
    whose level-by-level sum leaves rounding (about 1e-17) where 1_o's grid
    does not reach."""
    ext = QuadExt(ctx3, "inert")
    rng = random.Random(29)
    for domain, transform, ts in _transforms(ctx3):
        f = _random_on(ctx3, rng, domain, ts, n_atoms=5)
        assert len({n for _, n, _ in f.entries}) > 1
        assert transform(f - f) == BruhatFn.zero(ctx3, domain, ts)
    one = BruhatFn.indicator_ball(ctx3, "F", 0, 0)
    cosets = BruhatFn.from_atoms(ctx3, "F", [(c, 1, 1.0) for c in range(3)])
    assert (one - cosets).coset_table == {}
    assert fourier(one - cosets) == BruhatFn.zero(ctx3, "F")
    for domain in ("F2", "E", "Ealpha"):
        ts = Fraction(3) if domain == "Ealpha" else None
        ball = BruhatFn.indicator_ball(ctx3, domain, (0, 0), 0, ts)
        cells = BruhatFn.from_atoms(ctx3, domain, [((c1, c2), 1, 1.0) for c1 in range(3)
                                                   for c2 in range(3)], ts)
        hat = fourier_F2(ball - cells) if domain == "F2" else fourier_E(ball - cells, ext)
        assert hat == BruhatFn.zero(ctx3, domain, ts)


def test_fourier_of_a_partly_cancelled_input(ctx3):
    """Inputs that cancel in part across levels transform to the same function
    as the refined direct sum: 1_o minus one or two of its cosets at level 1,
    and random data plus the negatives of some of its own atoms, compared
    coset by coset at a common level to 1e-13 of the largest value."""
    from oracles import refined_fourier_nd

    one = BruhatFn.indicator_ball(ctx3, "F", 0, 0)
    cases = [(one - BruhatFn.from_atoms(ctx3, "F", [(c, 1, 1.0) for c in cs]), (1,))
             for cs in ((1,), (0, 2))]
    rng = random.Random(41)
    for domain in ("F", "F2"):
        f = random_fn(ctx3, rng, domain, n_atoms=5)
        part = BruhatFn(ctx3, domain, f.entries[1:3]).scale(-1.0)
        cases.append((f + part, (1,) if domain == "F" else (1, 1)))
    for f, scales in cases:
        got = bruhat._fourier_nd(f, scales)
        want = refined_fourier_nd(f, scales)
        level = max(got.level, want.level)
        a, b = bruhat._table_at(got, level), bruhat._table_at(want, level)
        assert a.keys() == b.keys() and a
        wmax = max(map(abs, b.values()))
        assert all(abs(a[k] - b[k]) <= 1e-13 * wmax for k in b)


def test_fourier_work_is_per_level(ctx3, monkeypatch):
    """The `_power_sum` passes of a mixed-level input add up to the rows of
    each level times its own grid, p^(dim (M + a)) at level a, not to the
    rows of the refined table times the full grid.  1_{o^2} + 1_{(1/3, 0) +
    p^2 o^2} at levels 0 and 2 has M = 1: level 0 one row of 3 and one pass of
    9; level 2 one row of 27 and one pass of 729."""
    calls = []
    power_sum = bruhat._power_sum

    def counted(products, size):
        products = list(products)
        calls.append(len(products) * size)
        return power_sum(products, size)

    monkeypatch.setattr(bruhat, "_power_sum", counted)
    f = BruhatFn.from_atoms(ctx3, "F2", [((0, 0), 0, 1.0), ((Fraction(1, 3), 0), 2, 1.0)])
    fourier_F2(f)
    assert sum(calls) == 3 + 9 + 27 + 729
    for seed in range(6):
        f = random_fn(ctx3, random.Random(seed), "F2", n_atoms=4)
        entries = f.entries
        n = max(a for _, a, _ in entries)
        m = max([-n] + [-v for keys, _, _ in entries for v, _ in keys if v < n])
        want = 0
        for a in {a for _, a, _ in entries}:
            span = 3 ** (m + a)
            rows = {}
            for keys, b, _ in entries:
                if b == a:
                    k1, k2 = ((res * 3 ** (m + v) % span if v < a else 0) for v, res in keys)
                    rows.setdefault(k1, set()).add(k2)
            want += sum(len(r) for r in rows.values()) * span + len(rows) * span ** 2
        calls.clear()
        fourier_F2(f)
        assert sum(calls) == want


def test_fourier_grid_limit(ctx3):
    """A transform whose grid would pass `_MAX_REFINEMENT` cosets is refused
    before any is built: levels -6 and 9 on F^2 ask for 3^30."""
    from padicorb.errors import RepresentationError

    deep = BruhatFn.from_atoms(ctx3, "F2", [((0, 0), -6, 1.0), ((1, 1), 9, 1.0)])
    start = time.perf_counter()
    with pytest.raises(RepresentationError):
        fourier_F2(deep)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("domain", ["F", "F2", "E", "Ealpha"])
def test_fourier_commutes_with_scaling(ctx3, domain):
    """fourier(c f) = c fourier(f) atom for atom, however small or large c:
    the drop rule is relative to the largest output."""
    rng = random.Random(31)
    _, transform, ts = next(t for t in _transforms(ctx3) if t[0] == domain)
    for _ in range(6):
        f = _random_on(ctx3, rng, domain, ts, n_atoms=rng.randint(1, 5))
        base = transform(f)
        wmax = max(abs(a.coef) for a in base.atoms)
        for c in (1e-12, 1.0, 1e12):
            got = transform(f.scale(c))
            assert [(a.center, a.level) for a in got.atoms] == \
                [(a.center, a.level) for a in base.atoms]
            for a, b in zip(got.atoms, base.atoms):
                assert abs(a.coef - c * b.coef) <= 1e-12 * c * wmax


def test_tate_zeta_examples(ctx5, ctx3):
    chi0 = MellinCharacter(QuadExt(ctx5, "split"), "trivial")
    one_o = BruhatFn.indicator_ball(ctx5, "F", 0, 0)
    z = tate_zeta(one_o, chi0)
    for t in (0.3, 0.9j, -0.5):
        assert abs(z.eval(t) - (1 - 1 / 5) / (1 - t)) < 1e-12
    units = BruhatFn.from_atoms(ctx5, "F", [(u, 1, 1.0) for u in range(1, 5)])
    z_units = tate_zeta(units, chi0)
    for t in (0.3, 2.0):
        assert abs(z_units.eval(t) - (1 - 1 / 5)) < 1e-12
    eta = MellinCharacter(QuadExt(ctx3, "inert"), "eta")
    z_eta = tate_zeta(BruhatFn.indicator_ball(ctx3, "F", 0, 0), eta)
    for t in (0.3, -0.8):
        assert abs(z_eta.eval(t) - (1 - 1 / 3) / (1 + t)) < 1e-12


def test_tate_zeta_linear(ctx3):
    rng = random.Random(13)
    chi = MellinCharacter(QuadExt(ctx3, "inert"), "eta")
    f, g = random_fn(ctx3, rng), random_fn(ctx3, rng)
    a, b = 1.3 - 0.2j, -0.7j
    lhs = tate_zeta(f.scale(a) + g.scale(b), chi)
    rhs = tate_zeta(f, chi).scale(a) + tate_zeta(g, chi).scale(b)
    assert lhs.agrees_with(rhs, [0.3, 0.7, 1.9, -0.4], tol=1e-10)


def test_functional_equation_sampled(ctx3):
    rng = random.Random(17)
    ext = QuadExt(ctx3, "inert")
    ts = [0.1 + 0.2j, 0.5, -0.3, 1.4, 0.9j] + [
        complex(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1)) for _ in range(15)
    ]
    for tag in ("trivial", "eta"):
        chi = MellinCharacter(ext, tag)
        gam = gamma_factor(chi)
        for _ in range(12):
            f = random_fn(ctx3, rng)
            z = tate_zeta(f, chi)
            zhat = tate_zeta(fourier(f), chi.inverse()).subs_recip_scaled(1.0 / 3)
            lhs = gam * z
            assert lhs.agrees_with(zhat, ts, tol=1e-8)


def test_gamma_examples(ctx3, ctx5):
    chi0 = MellinCharacter(QuadExt(ctx3, "split"), "trivial")
    g = gamma_factor(chi0)
    for t in (0.4, 1.7, -0.8):
        want = (1 - t) / (1 - 1 / (3 * t))
        assert abs(g.eval(t) - want) < 1e-10
    # gamma(eta, 1/2) = 1 at t = q^{-1/2}
    eta = MellinCharacter(QuadExt(ctx3, "inert"), "eta")
    geta = gamma_factor(eta)
    assert abs(geta.eval(3 ** -0.5) - 1.0) < 1e-10
    # double application: gamma(chi, s) * gamma(chi^-1, 1-s) = chi(-1) = 1
    for t in (0.37, 1.21):
        prod = g.eval(t) * g.eval(1 / (3 * t))
        assert abs(prod - 1.0) < 1e-10
        prod_eta = geta.eval(t) * geta.eval(1 / (3 * t))
        assert abs(prod_eta - 1.0) < 1e-10


def test_gamma_star_values(ctx3, ctx5):
    assert abs(gamma_star(ctx3, "inert") - 1.5) < 1e-10
    assert abs(gamma_star(ctx5, "inert") - Fraction(5, 3)) < 1e-10
    assert abs(gamma_star(ctx3, "split") - math.log(3) / (1 - Fraction(1, 3))) < 1e-10


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("kind,order", [("split", 1), ("inert", 0)])
def test_gamma_star_leads_the_solved_gamma_factor(p, kind, order):
    """The closed-form gamma* against gamma(eta, s, psi) / s^order near s = 0,
    gamma solved from the local functional equation (`gamma_factor`): split,
    a simple zero; inert, a finite nonzero value.  The gap is O(s)."""
    ctx = LocalFieldCtx(p)
    chi = MellinCharacter(QuadExt(ctx, kind), "eta" if kind == "inert" else "trivial")
    s = 1e-7
    got = gamma_factor(chi).eval(p ** -s) / s ** order
    want = gamma_star(ctx, kind)
    assert abs(got - want) <= 1e-6 * abs(want)


def test_mellin_component_examples(ctx3, ext3i):
    chi0 = MellinCharacter(QuadExt(ctx3, "split"), "trivial")
    units = BruhatFn.from_atoms(ctx3, "F", [(1, 1, 1.0), (2, 1, 1.0)])
    m = mellin_component(units, chi0)
    assert abs(m.eval(0.5) - (1 - 1 / 3)) < 1e-12
    shifted = BruhatFn.from_atoms(ctx3, "F", [(3, 2, 1.0), (6, 2, 1.0)])
    m2 = mellin_component(shifted, chi0)
    for t in (0.4, 1.3):
        assert abs(m2.eval(t) - (1 - 1 / 3) * 3 ** -0.5 * t) < 1e-12
    # character orthogonality: eta-odd shells die against the trivial component
    eta = MellinCharacter(ext3i, "eta")
    odd = BruhatFn.from_atoms(ctx3, "F", [(u, 1, float((-1) ** 0)) for u in (1, 2)])
    # build an eta-weighted two-shell function: f(x) = eta(x) on val 0 and 1
    f = BruhatFn.from_atoms(
        ctx3, "F",
        [(u, 1, 1.0) for u in (1, 2)] + [(3 * u, 2, -1.0) for u in (1, 2)],
    )
    m_triv = mellin_component(f, MellinCharacter(ext3i, "trivial"))
    m_eta = mellin_component(f, eta)
    # against eta both shells add; against trivial they cancel shell-wise signs
    brute_triv = (1 - 1 / 3) * 1.0 + (1 - 1 / 3) * (-1.0) * 3 ** -0.5 * 0.5
    assert abs(m_triv.eval(0.5) - brute_triv) < 1e-12
    brute_eta = (1 - 1 / 3) * 1.0 + (1 - 1 / 3) * 1.0 * 3 ** -0.5 * 0.5
    assert abs(m_eta.eval(0.5) - brute_eta) < 1e-12


def test_mellin_rejects_atoms_at_zero(ctx3):
    ball = BruhatFn.indicator_ball(ctx3, "F", 0, 1)
    chi0 = MellinCharacter(QuadExt(ctx3, "split"), "trivial")
    with pytest.raises(UnsupportedAtomError):
        mellin_component(ball, chi0)


def test_mellin_character_conductor_guard(ctx3, ext3i):
    with pytest.raises(UnsupportedAtomError):
        MellinCharacter(ext3i, "ramified")


def test_split_fourier_E_unsupported(ctx3, ext3s):
    f = BruhatFn.indicator_ball(ctx3, "E", (0, 0), 0)
    with pytest.raises(KindError):
        fourier_E(f, ext3s)


def test_integral_and_fourier_at_zero(ctx3):
    rng = random.Random(23)
    f = random_fn(ctx3, rng)
    assert abs(fourier(f).eval(Fraction(0)) - integral(f)) < 1e-12
