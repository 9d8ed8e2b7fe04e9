"""Reference builders the tests compare the library's engines with.

The shell sampler reads a raw orbital at every unit coset of a level and
checks each coset against one child coset, raising the level until they
agree.  The library reads its windows in closed form instead (chart images,
valuation classes, one value per Kuznetsov shell); the sampler is kept here
as the independent reference those readings are tested against.  The chart
builders read their shell levels, germs and cross-terms off the chart image
(`orbital.ChartImage`); the sampled chart elements here start each shell at
a hand-derived safe level (`baby_xi_level`), fit each germ on four deep
shells of the image (`fitted_chart_germ`) and read each cross-term off the
pointwise orbital next to -1.  The torus
engine counts cosets on the five valuations of a translate alone
(`orbital._x1_count`), each rule in closed form; the count that formed the
two residues r1, r2 mod p^a of every (m, a) and summed either rule over
their distance profile (`_pair_profile`; `reference_x1_count`, with the
integer translate `reference_integral_translate`) is kept here as its
bit-for-bit reference, the count that visits the cosets of
`double_coset_reps` one by one (`enumerated_x1_count`) as a second, and the inert representative built from
28-digit Hensel square roots (`hensel_inert_rep`, with the GIT invariant
`torus_pair_invariant` and the fiber test it uses) as the reference for the
integer leading-digit one (`orbital.inert_rep_for`).  The split torus sum
reads deg h off the double-coset basis and counts the translates lo - 1 ..
hi + 1 in one loop; the sum that took deg h from `HeckeElt.max_degree`,
summed lo .. hi and then checked lo - 1 and hi + 1
(`reference_o_torus_group_split`) is kept as its bit-for-bit reference.  The Fourier kernel
sums rows of cached powers of its root of unity, level by level on a
function's own entries, and the baby orbitals key their units inline; the
direct sums they replace, one generator per output value and one
`_residue_key` per coordinate, are kept here as their bit-for-bit
references.  The direct sum over the canonical table refined to its deepest
level, which the kernel took before it worked level by level, is kept as a
second Fourier reference, equal up to rounding.  The G engine sums a window
term's shells as integer counts inline (`spaces._shell_plan`); the plan that
read every term, window entries included, through a germ transform
(`reference_shell_terms`, `reference_shell_plan`) is kept here as its
bit-for-bit reference.  The inert baby orbital enumerates the norm-one
residues at the level its keys read; the enumeration one level deeper, every
key pair read p times, is kept as `keyed_o_baby_nonsplit(deep=True)`, equal
up to rounding.  The canonical refinement orders its cosets by the rank of
each coordinate's center text (`bruhat._refine`); the sort by the text of
the whole key tuple that it replaces is kept as `reference_refine`, equal
bit for bit and in order.
Nothing under `src/` imports this module (`tests/test_stdlib_only.py`).
"""

import itertools
import math
from fractions import Fraction

from padicorb.bruhat import _MAX_REFINEMENT, BruhatFn, _key_ratio, _residue_key
from padicorb.errors import (
    DomainError,
    IrregularPointError,
    PrecisionError,
    RepresentationError,
    UnsupportedAtomError,
)
from padicorb.groups import double_coset_reps
from padicorb.localfield import (
    INF,
    _val_int,
    is_rational_square,
    padic_sqrt,
    rational_valuation,
    unit_mod,
    unit_reps,
)
from padicorb.orbital import (
    _FIRST_LEVEL,
    _assemble_sz,
    _baby_ctx,
    _certified_onset,
    _integral_translate,
    _norm_one,
    _same_value,
    _split_interval,
    _x1_count,
    baby_orbital,
    baby_support_floor,
    chart_image,
    hecke_apply_W,
    hecke_apply_W_tail,
    norm_lift,
    o_torus_group,
    torsor_scale,
)
from padicorb.spaces import (
    Germ,
    KLTail,
    SWElem,
    SXElem,
    SZElem,
    _deep_germ,
    _germ_transform,
    _GermTransform,
    _norm,
    _ShellPlan,
    _unit_integral,
    _val_and_unit_key,
    _value_atoms,
)


def _shell_values(ctx, raw, center: Fraction, v: int, start_level: int, skip=None):
    """Values of raw on the shell center + (units)*p^v at a stabilized level.

    Every kept coset is verified against a proper child; the level escalates
    on any disagreement (RepresentationError past level 9).  Cosets for which
    `skip(point, level)` is true are left out (singular neighborhoods).
    """
    p = ctx.p
    for level in range(start_level, 10):
        vals = {}
        for u in unit_reps(p, level):
            x = center + Fraction(u) * Fraction(p) ** v
            if skip is not None and skip(x, level):
                continue
            vals[u] = raw(x)
        ok = True
        for u in sorted(vals):
            child = center + Fraction(u + p ** level) * Fraction(p) ** v
            if abs(raw(child) - vals[u]) > 1e-10 * max(1.0, abs(vals[u])):
                ok = False
                break
        if ok:
            return vals, level
    raise RepresentationError(f"shell at val {v} did not stabilize below level 9")


def sampled_shell(ctx, raw, start=lambda center, v: _FIRST_LEVEL):
    """The `shell(center, v, cut)` argument of `orbital._assemble_sz` that
    samples raw from the level `start(center, v)`, leaving out the units with
    val(xi + 1) >= min(level, cut)."""

    def shell(center: int, v: int, cut: int | None):
        skip = None if cut is None else (
            lambda x, lvl: rational_valuation(x + 1, ctx.p) >= min(lvl, cut))
        return _shell_values(ctx, raw, Fraction(center), v, start(center, v), skip)

    return shell


def baby_xi_level(kind, data, v: int) -> int:
    """A safe local-constancy level in xi of the baby orbital at shell val = v.

    Split: atoms at level l meet a xi(unit)-condition through cosets
    c1/a + p^(l - val a) with val a >= -R1 - val xi, so the unit of xi enters
    mod p^(l + R1) independently of the shell.  Nonsplit: the norm lift uses
    the unit of the target mod p^(l - vt//2).
    """
    if kind == "split":
        return max(1, data.level + data.axis_radii[0])
    lvl = max(data.phi0.level, data.phi_alpha.level)
    vt = v if v % 2 == 0 else v - 1
    return max(1, lvl - vt // 2)


def fitted_chart_germ(kind, data) -> Germ:
    """The germ of the baby orbital of `data`, fitted (`_deep_germ`) on four
    shells of its chart image from a depth past every unit-shell term and the
    first shell of every deep term (L the level of the coset tables): split,
    unit terms up to 2L - 2 and deep terms from 2L - 1 at the latest; inert,
    2L - 1 and 2L + 1."""
    image = chart_image(kind, data)
    if kind == "split":
        depth = max(2 * data.level + 1, 1)
    else:
        depth = 2 * max(data.phi0.level, data.phi_alpha.level, 0) + 2
    return _deep_germ(kind, lambda u, v: image.value(v, u), depth, image.norm)


def sampled_sx_from_baby(data, kind) -> SXElem:
    """`orbital.sx_from_baby` with the sampler's window: each shell sampled
    from `baby_xi_level`, the fitted germ lowered to its certified onset."""
    ctx = _baby_ctx(kind, data)

    def raw(xi):
        return baby_orbital(kind, data, xi)

    lo, germ = baby_support_floor(kind, data), fitted_chart_germ(kind, data)
    shells = {v: _shell_values(ctx, raw, Fraction(0), v,
                               max(_FIRST_LEVEL, baby_xi_level(kind, data, v)))
              for v in range(lo, germ.level)}
    germ = _certified_onset(kind, germ, shells)
    norm = chart_image(kind, data).norm
    entries = [e for v in range(lo, germ.level) for e in _value_atoms(ctx, 0, v, *shells[v], norm)]
    return SXElem(ctx, kind, BruhatFn(ctx, "F", tuple(entries)), germ)


def sampled_sz_from_charts(phi1, phi2, kind) -> SZElem:
    """`orbital.sz_from_charts` with the sampler's window and no certificate:
    each shell sampled from `baby_xi_level` of both charts, the fitted germs
    plus the other chart read pointwise at -1 -/+ p^(level + 2) (the same at
    p^(level + 3), else RepresentationError), each lowered to its certified
    onset as `orbital._assemble_sz` does."""
    ctx = _baby_ctx(kind, phi2)
    p = ctx.p

    def raw(xi):
        return baby_orbital(kind, phi2, xi) + baby_orbital(kind, phi1, -1 - xi)

    def start(center, v):
        vx = v if center == 0 else 0
        return max(_FIRST_LEVEL, baby_xi_level(kind, phi2, vx),
                   baby_xi_level(kind, phi1, min(vx, 0)))

    germs = []
    for own, other, sign in ((phi2, phi1, -1), (phi1, phi2, 1)):
        g = fitted_chart_germ(kind, own)
        near, check = (baby_orbital(kind, other, -1 + sign * Fraction(p) ** (g.level + k))
                       for k in (2, 3))
        if not _same_value(near, check):
            raise RepresentationError("chart cross-terms not stabilized")
        germs.append(Germ(g.a + near, g.b, g.level))
    germ0, germ_m1 = germs
    shell = sampled_shell(ctx, raw, start)
    lo = min(baby_support_floor(kind, phi) for phi in (phi1, phi2)) - 1
    xi_shells = {v: shell(0, v, germ_m1.level if v == 0 else None) for v in range(lo, germ0.level)}
    cut = min(xi_shells[0][1], germ_m1.level)
    zeta_shells = {vz: shell(-1, vz, None) for vz in range(cut, germ_m1.level)}
    germ0 = _certified_onset(kind, germ0, {v: s for v, s in xi_shells.items() if v > 0})
    germ_m1 = _certified_onset(kind, germ_m1, zeta_shells)
    norm = max(chart_image(kind, phi).norm for phi in (phi1, phi2))
    entries = [e for v in range(lo, germ0.level)
               for e in _value_atoms(ctx, 0, v, *xi_shells[v], norm)]
    entries += [e for vz in range(cut, germ_m1.level)
                for e in _value_atoms(ctx, -1, vz, *zeta_shells[vz], norm)]
    return SZElem(ctx, kind, BruhatFn(ctx, "F", tuple(entries)), germ0, germ_m1)


def sampled_hecke_apply_Z(ctx, kind, h):
    """`orbital.hecke_apply_Z` with the sampler's window: the same germ fits
    and certificates on `o_torus_group`."""

    def raw(xi):
        return o_torus_group(ctx, kind, h, xi)

    depth, norm = 2 * h.max_degree() + 3, _norm(h.as_dict().values())
    germ0 = _deep_germ(kind, lambda u, j: raw(u * Fraction(ctx.p) ** j), depth, norm)
    germ_m1 = _deep_germ(kind, lambda u, j: raw(-1 + u * Fraction(ctx.p) ** j), depth, norm)
    return _assemble_sz(ctx, kind, raw, germ0, germ_m1, -(2 * h.max_degree() + 1),
                        sampled_shell(ctx, raw), norm)


def sampled_hecke_apply_W_elem(ctx, kind, h, s=0.0):
    """`orbital.hecke_apply_W_elem` with the sampler's window, sampled from
    level 1 on the shells val -1 .. depth - 1, and the same germ fit and tail."""
    value = hecke_apply_W(ctx, kind, h, s)
    depth, norm = h.max_degree() + 3, _norm(h.as_dict().values())
    germ = _deep_germ(kind, lambda u, v: value(u * Fraction(ctx.p) ** v) * ctx.q ** (v * (s + 1)),
                      depth, norm)
    entries = []
    for v in range(-1, depth):
        entries += _value_atoms(ctx, 0, v, *_shell_values(ctx, value, Fraction(0), v, 1), norm)
    return SWElem(ctx, kind, s, BruhatFn(ctx, "F", tuple(entries)), germ,
                  KLTail(hecke_apply_W_tail(ctx, kind, h, s), 2))


def coset_terms(ctx, dc):
    """(m, c_m, [(a, c, p^d)]) for f = sum_m c_m 1_{K diag(pi^m,1) K}, one
    (a, c, p^d) per left coset [[p^a, c], [0, p^d]] K of double_coset_reps."""
    p = ctx.p
    return [(m, cm, [(a, c, p ** d) for a, c, d in double_coset_reps(ctx, m)])
            for m, cm in dc.items()]


def enumerated_x1_count(p, split, terms, b11, b12, b21, b22):
    """`orbital._x1_count` coset by coset: sum_m c_m #{rep : B rep in T(F)K}
    for the integer matrix B = [[b11, b12], [b21, b22]] and `coset_terms`.

    Membership is read off the valuations of the entries of
    B rep = [[b11 p^a, b11 c + b12 p^d], [b21 p^a, b21 c + b22 p^d]] and of
    det(B rep) = det B p^m:
      split, T(F)K = A(F)K:  val det <= min val(row 1) + min val(row 2);
      inert, T(F) in K:      val det == 2 min val(entries).
    """
    v11, v21 = _val_int(b11, p), _val_int(b21, p)
    vdet = _val_int(b11 * b22 - b12 * b21, p)
    tot = 0j
    for m, cm, reps in terms:
        cnt = 0
        for a, c, pd in reps:
            w1 = min(v11 + a, _val_int(b11 * c + b12 * pd, p))
            w2 = min(v21 + a, _val_int(b21 * c + b22 * pd, p))
            if split:
                cnt += vdet + m <= w1 + w2
            else:
                cnt += vdet + m == 2 * min(w1, w2)
        tot += cm * cnt
    return tot


def reference_x1_count(p: int, split: bool, dc: dict[int, complex],
                       b: tuple[int, int, int, int], vals: tuple[int, ...]) -> complex:
    """sum_m c_m #{cosets of K diag(pi^m,1) K / K that B carries into T(F)K}
    for the integer matrix B = [[b11, b12], [b21, b22]], b = (b11, b12, b21, b22),
    with the valuations vals of its entries and of det B (`_matrix_vals`), and
    dc = {m: c_m}.

    The cosets are [[p^a, c], [0, p^d]]K with a + d = m, c mod p^a, and c a
    unit when a, d > 0 (q^m + q^(m-1) of them for m >= 1).  Membership is read
    off the valuations of det(B rep) = det B p^m and of the row minima w1, w2
    of B rep = [[b11 p^a, b11 c + b12 p^d], [b21 p^a, b21 c + b22 p^d]]:
      split, T(F)K = A(F)K:  val det <= w1 + w2
                             (a diag(pi^s, 1) shift carries B rep into K);
      inert, T(F) in K:      val det == 2 min(w1, w2).
    Each wi reads c only through its distance to one residue ri (`_row_min`),
    so the cosets of one a are counted by their distances to r1 and r2
    (`_pair_profile`), and the units as all residues less the multiples of p
    (`_in_p`): O(m^2) profile entries, not q^m cosets.  Both rules are
    invariant under scaling B, so B needs no normalization.
    """
    b11, b12, b21, b22 = b
    v11, v12, v21, v22, vdet = vals
    tot = 0j
    for m, cm in dc.items():
        # a = 0: the one coset diag(1, p^m)
        w1, w2 = min(v11, v12 + m), min(v21, v22 + m)
        cnt = vdet + m <= w1 + w2 if split else vdet + m == 2 * min(w1, w2)
        for a in range(1, m + 1):
            d = m - a
            rows = (_row_min(p, a, d, b11, v11, b12, v12), _row_min(p, a, d, b21, v21, b22, v22))
            cnt += _profile_count(p, a, rows, split, vdet + m)
            if a < m:
                cnt -= _profile_count(p, a - 1, [_in_p(p, *row) for row in rows], split, vdet + m)
        tot += cm * cnt
    return tot


def _pair_profile(p: int, a: int, e: int) -> list[tuple[int, int, int]]:
    """[(k1, k2, count)]: the residues c mod p^a by their distances
    k_i = min(a, val(c - r_i)) to two residues r1, r2 with
    min(a, val(r1 - r2)) = e.  The balls about r1 of radius p^-k, k <= e, hold
    r2 (Serre, *Trees*, ch. II), so below e both distances agree, and past e
    at most one of them exceeds e."""
    out = [(k, k, (p - 1) * p ** (a - k - 1)) for k in range(e)]
    if e == a:
        out.append((a, a, 1))
        return out
    out.append((e, e, (p - 2) * p ** (a - e - 1)))
    for k in range(e + 1, a + 1):
        n = (p - 1) * p ** (a - k - 1) if k < a else 1
        out += [(k, e, n), (e, k, n)]
    return out


def _row_min(p: int, a: int, d: int, x: int, vx: int, y: int, vy: int) -> tuple[int, int | None]:
    """min(val(x p^a), val(x c + y p^d)) for the row (x, y) of B against the
    coset [[p^a, c], [0, p^d]], as (w, None) when it does not depend on c and
    as (vx, r) when it is vx + min(a, val(c - r)) for an integer r mod p^a."""
    if vy + d < vx:  # also x = 0, vx = INF
        return vy + d, None
    pa = p ** a
    return vx, -(y * p ** d // p ** vx) * pow(x // p ** vx, -1, pa) % pa


def _profile_count(p: int, a: int, rows, split: bool, need: int) -> int:
    """#{c mod p^a : the rule holds for the row minima `rows` of `_row_min`}:
    split, need <= w1 + w2; inert, need == 2 min(w1, w2)."""
    (w1, r1), (w2, r2) = rows
    if r1 is None and r2 is None:
        return p ** a * (need <= w1 + w2 if split else need == 2 * min(w1, w2))
    e = a if r1 is None or r2 is None else min(a, _val_int(r1 - r2, p))
    cnt = 0
    for k1, k2, n in _pair_profile(p, a, e):
        x1 = w1 if r1 is None else w1 + k1
        x2 = w2 if r2 is None else w2 + k2
        if split:
            cnt += n * (need <= x1 + x2)
        else:
            cnt += n * (need == 2 * min(x1, x2))
    return cnt


def _in_p(p: int, w: int, r: int | None) -> tuple[int, int | None]:
    """A row minimum of `_row_min` read on c = p c' as a function of c' mod p^(a-1):
    the distance to a unit r is 0, to r = p r' it is 1 + that of c' to r'."""
    if r is None or r % p:
        return w, None
    return w + 1, r // p


def reference_integral_translate(p: int, num: int, den: int, vals: tuple[int, int, int],
                                 n: int) -> tuple[tuple[int, int, int, int], tuple[int, ...]]:
    """The split translate g_xi diag(p^n, 1) = [[p^n, x], [p^n, 1 + x]], x = -1 - xi
    = num/den, made integral: B = [[t den, s num], [t den, s (num + den)]] with
    s = p^max(-n, 0), t = p^max(n, 0), and its `_matrix_vals`, read off
    vals = (val den, val num, val(num + den)).  det B = s t den^2, so
    val det B = |n| + 2 val den."""
    ed, vx, vz = vals
    if n >= 0:
        t = p ** n
        return (t * den, num, t * den, num + den), (n + ed, vx, n + ed, vz, n + 2 * ed)
    s = p ** -n
    return (den, s * num, den, s * (num + den)), (ed, vx - n, ed, vz - n, 2 * ed - n)


def reference_o_torus_group_split(ctx, h, xi, dc) -> complex:
    """The split `o_torus_group` summed translate by translate: x = -1 - xi by
    Fraction arithmetic, the translates lo .. hi of `_split_interval` at
    deg h = `h.max_degree()`, then the stabilization translates lo - 1 and
    hi + 1 with every c_m = 1, and vol K as float(ctx.vol_K)."""
    p = ctx.p
    x = -1 - Fraction(xi)
    num, den = x.numerator, x.denominator
    vals = (_val_int(den, p), _val_int(num, p), _val_int(num + den, p))
    lo, hi = _split_interval(vals, h.max_degree())
    total = 0j
    for n in range(lo, hi + 1):
        total += _x1_count(p, True, dc, _integral_translate(vals, n))
    counts = dict.fromkeys(dc, 1)
    for n in (lo - 1, hi + 1):
        if _x1_count(p, True, counts, _integral_translate(vals, n)) != 0:
            raise RepresentationError("T(F)/T(o) sum not stabilized")
    return float(ctx.vol_K) * total


def torus_pair_invariant(m, ext):
    """GIT invariant of (T g, T e) for g = [[a, b], [c, d]], m = (a, b, c, d)
    rational: split chart value -1 - bc/det; diagonal -> -1.  Scale-free."""
    a, b, c, d = m
    det = Fraction(a * d - b * c)
    if ext.kind == "split":
        val = -1 - b * c / det
    else:
        u = ext.u
        # conjugate into the split frame over E: bc/det of h^-1 g h
        num = u * (d - a) ** 2 - (b - u * c) ** 2
        val = -1 - num / (4 * u * det)
    return val


def inert_fiber_is_trivial(ext, xi):
    """Regular xi carries F-rational (trivial-torsor) orbits iff
    val(xi) + val(1+xi) is even; xi = 0, -1 raise IrregularPointError."""
    xi = Fraction(xi)
    if xi == 0 or xi == -1:
        raise IrregularPointError(f"xi = {xi} is irregular")
    p = ext.ctx.p
    return (rational_valuation(xi, p) + rational_valuation(1 + xi, p)) % 2 == 0


HENSEL_DIGITS = 28  # absolute p-adic digits of the square roots in hensel_inert_rep


def hensel_inert_rep(ext, xi, bs=None):
    """F-rational g = [[1,0],[gam,del]] with inert invariant xi to 28 digits
    (trivial fiber), as the integers (1, 0, gam, del) times the lcm of their
    denominators.

    del = -(1+2xi) +- sqrt(D + u gam^2), D = 4 xi (1+xi), tried at gam =
    b p^w0, w0 = val(D)/2, for b = 0..p-1 (or the b in `bs`), + root first:
    the first b whose D + u gam^2 is a rational square of any valuation, and
    the first root whose representative meets xi to 20 digits.  Roots are
    Hensel lifts; a square whose root misses the invariant test raises
    PrecisionError.
    """
    ctx, u = ext.ctx, ext.u
    if not inert_fiber_is_trivial(ext, xi):
        raise DomainError("no F-rational representative on a nontrivial-torsor fiber")
    d = 4 * xi * (1 + xi)
    step = Fraction(ctx.p) ** (rational_valuation(d, ctx.p) // 2)
    short = False
    for b in range(ctx.p) if bs is None else bs:
        gam = b * step
        disc = d + u * gam * gam
        if disc == 0:
            continue
        if is_rational_square(ctx, disc):
            # relative digits, so that the root is known to HENSEL_DIGITS absolute ones
            prec = HENSEL_DIGITS + max(0, -rational_valuation(disc, ctx.p) // 2)
            root = padic_sqrt(ctx, disc, prec)
            for sgn in (1, -1):
                dl = -(1 + 2 * xi) + sgn * root
                if dl == 0:
                    continue
                scale = math.lcm(gam.denominator, dl.denominator)
                g = (scale, 0, int(gam * scale), int(dl * scale))
                got = torus_pair_invariant(g, ext)
                if rational_valuation(got - xi, ctx.p) >= HENSEL_DIGITS - 8:
                    return g
            short = True
    if short:
        raise PrecisionError(f"square roots too short for a representative at xi={xi}")
    raise RepresentationError(f"no representative found for xi={xi}")


def reference_refine(entries, level, p, dim):
    """`bruhat._refine` sorting its cosets by the text of the tuple of their
    centers, str(tuple(_key_ratio(k, p) for k in key)), one string per coset."""
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


def direct_fourier_nd(f, scales):
    """`bruhat._fourier_nd` before any torsor substitution, as a direct sum
    taken level by level: each level's values one generator over its phases
    (`direct_dft`), the last coordinate first, added into the full grid
    deepest level first; all of it dropped when its largest value is at most
    1e-12 of the input's mass."""
    ctx, entries = f.ctx, f.entries
    p = ctx.p
    if not entries:
        return BruhatFn.zero(ctx, f.domain, f.torsor_scale)
    n = max(a for _, a, _ in entries)
    out_level = max([-n] + [-v for keys, _, _ in entries for v, _ in keys if v < n])
    span = p ** (out_level + n)
    total, mass = {}, 0.0
    for a in sorted({a for _, a, _ in entries}, reverse=True):
        level = [(keys, w) for keys, b, w in entries if b == a]
        vol = float(Fraction(ctx.q) ** (-a * f.dim))
        mass += vol * sum(abs(w) for _, w in level)
        step = p ** (n - a)
        for idx, w in direct_level_sum(level, a, out_level, scales, p, vol).items():
            at = tuple(i * step for i in idx)
            total[at] = total[at] + w if at in total else w
    return _direct_table(f, n, out_level, span, total, mass)


def refined_fourier_nd(f, scales):
    """The transform as one direct sum over the canonical table, refined to
    its deepest level: the sum `bruhat._fourier_nd` took before it worked
    level by level, before any torsor substitution."""
    ctx, table = f.ctx, f.coset_table
    p = ctx.p
    if not table:
        return BruhatFn.zero(ctx, f.domain, f.torsor_scale)
    n = f.level
    out_level = max([-n] + [-v for key in table for v, _ in key if v < n])
    vol = float(Fraction(ctx.q) ** (-n * f.dim))
    total = direct_level_sum(list(table.items()), n, out_level, scales, p, vol)
    return _direct_table(f, n, out_level, p ** (out_level + n), total, 0.0)


def direct_level_sum(level, n, out_level, scales, p, vol):
    """{index: value} of the transform at the points r p^-n, r = 0..p^(M+n) - 1
    per coordinate (M = `out_level`), of the weights w on the cosets at level
    n with `_coset_key`s keys, (keys, w) in `level`, each of volume `vol`."""
    span = p ** (out_level + n)

    def phase(key, s):
        v, res = key
        return s * res % p ** (n - v) * (span // p ** (n - v)) if v < n else 0

    rows = {}  # first phase -> last phase -> weight
    for key, w in level:
        ks = [phase(k, s) for k, s in zip(key, scales)]
        row = rows.setdefault(ks[0] if len(key) > 1 else 0, {})
        row[ks[-1]] = row.get(ks[-1], 0j) + w * vol
    roots = [complex(math.cos(t), math.sin(t))
             for t in (-2 * math.pi * j / span for j in range(span))]
    last = {k: direct_dft(row, roots) for k, row in rows.items()}
    if len(scales) == 1:
        return {(r,): w for r, w in enumerate(last[0])}
    cols = [direct_dft({k: t[r2] for k, t in last.items()}, roots) for r2 in range(span)]
    return {(r1, r2): cols[r2][r1] for r1 in range(span) for r2 in range(span)}


def _direct_table(f, n, out_level, span, total, mass):
    """The function with the values `total` on the cosets r p^-n + p^M o,
    r in its indices, row-major; values at most 1e-12 of the largest dropped,
    and all of them when the largest is at most 1e-12 of `mass`."""
    ctx, p = f.ctx, f.ctx.p
    peak = max(map(abs, total.values()))
    if peak <= 1e-12 * mass:
        return BruhatFn.zero(ctx, f.domain, f.torsor_scale)
    keys = [_residue_key(-n, r, out_level, p) for r in range(span)]
    table = {tuple(keys[r] for r in idx): w for idx, w in total.items()
             if abs(w) > 1e-12 * peak}
    return BruhatFn.from_table(ctx, f.domain, out_level, table, f.torsor_scale)


def direct_dft(weights, roots):
    """sum_k w_k z^(k r) for r = 0..len(roots) - 1, given roots[j] = z^j."""
    span = len(roots)
    return [sum(w * roots[k * r % span] for k, w in weights.items()) for r in range(span)]


def direct_fourier_E(f, ext, transform=direct_fourier_nd):
    """`bruhat.fourier_E` on `transform` (`direct_fourier_nd` or
    `refined_fourier_nd`), then on E^alpha the torsor substitution."""
    hat0 = transform(f, (2, -2 * ext.u))
    return hat0 if f.domain == "E" else torsor_substitution(hat0)


def torsor_substitution(hat0):
    """hat(y) = |a| hat0(a y) for E^alpha data hat0 with torsor scale a, taking
    its moduli coset by coset."""
    a, p = hat0.torsor_scale, hat0.ctx.p
    if hat0.is_zero():
        return hat0
    va = rational_valuation(a, p)
    abs_a = float(Fraction(hat0.ctx.q) ** (-va))
    level = hat0.level
    depth = max([1] + [level - v for key in hat0.coset_table for v, _ in key])
    inv = pow(unit_mod(a, va, p, depth), -1, p ** depth)
    table = {tuple((v - va, res * inv % p ** (level - v)) for v, res in key): w * abs_a
             for key, w in hat0.coset_table.items()}
    return BruhatFn.from_table(hat0.ctx, "Ealpha", level - va, table, a)


def keyed_o_baby_split(phi, xi):
    """`orbital.o_baby_split` with both coordinates of every unit keyed by
    `_residue_key`."""
    if phi.domain != "F2":
        raise DomainError("o_baby_split expects data on F^2 = V x V*")
    xi = Fraction(xi)
    ctx = phi.ctx
    vxi = rational_valuation(xi, ctx.p)
    if vxi >= INF:
        raise IrregularPointError("xi = 0 is the irregular point")
    if phi.is_zero():
        return 0j
    p, table = ctx.p, phi.coset_table
    lvl, rad = phi.level, max(phi.axis_radii)
    xu = unit_mod(xi, vxi, p, max(1, lvl + rad))
    total = 0j
    for n in range(-rad - vxi, rad + 1):
        m = max(1, lvl - (vxi + n), lvl + n)
        mod = p ** m
        mass = float(ctx.q) ** (-m)
        for u in unit_reps(p, m):
            hit = table.get((_residue_key(n + vxi, u * xu % mod, lvl, p),
                             _residue_key(-n, pow(u, -1, mod), lvl, p)))
            if hit is not None:
                total += hit * mass
    return total


def keyed_o_baby_nonsplit(inp, xi, deep=False):
    """`orbital.o_baby_nonsplit` with both coordinates of every norm-one
    residue keyed by `_residue_key`.  With `deep`, T(o) is enumerated as the
    orbital did before it read the keys' own level: at m = L - w + 1 with mass
    q^-m, so each key pair is read p times."""
    ext = inp.ext
    ctx = ext.ctx
    xi = Fraction(xi)
    vxi = rational_valuation(xi, ctx.p)
    if vxi >= INF:
        raise IrregularPointError("xi = 0 is the irregular point")
    if vxi % 2 == 0:
        data, target = inp.phi0, xi
    else:
        data, target = inp.phi_alpha, xi / torsor_scale(ctx)
    if data.is_zero():
        return 0j
    p, table, level = ctx.p, data.coset_table, data.level
    w = rational_valuation(target, p) // 2
    if w < -max(data.axis_radii):
        return 0j
    mod_pow = max(level - w, 1)
    m = max(1, level - w + 1) if deep else mod_pow
    mod = p ** mod_pow
    ia, ib = norm_lift(ext, target, mod_pow)
    total = 0j
    mass = float(ctx.q) ** (-m)
    ub = ext.u * ib % mod
    for (ta, tb) in _norm_one(p, m):
        hit = table.get((_residue_key(w, (ia * ta + ub * tb) % mod, level, p),
                         _residue_key(w, (ia * tb + ib * ta) % mod, level, p)))
        if hit is not None:
            total += hit * mass
    return total


def reference_shell_terms(ctx, kind, entries, germ0, germ_m1):
    """F f as one kind of term (b, first, ft): the window entry w 1_{c + p^n o},
    keyed (val c, res), is ((val c, -res, 1), -n, (w q^-n, 0, n)), the germ at
    0 is (0, -L, F germ0) and the germ at -1 is (1, -INF, F germ_m1)."""
    terms = []
    for ((vc, res),), n, w in entries:
        if vc >= n:
            raise UnsupportedAtomError("window atom touches 0; G needs F^x support")
        ft = _GermTransform(complex(w) * float(ctx.q) ** (-n), 0j, n)
        terms.append(((vc, -res, 1), -n, ft))
    if germ0 and not germ0.is_zero():
        terms.append((_val_and_unit_key(ctx, 0), -germ0.level,
                      _germ_transform(ctx, kind, germ0)))
    if germ_m1 and not germ_m1.is_zero():
        terms.append((_val_and_unit_key(ctx, 1), -INF, _germ_transform(ctx, kind, germ_m1)))
    return tuple(terms)


def reference_shell_plan(ctx, kind, terms, v):
    """`spaces._shell_plan` on the terms of `reference_shell_terms`, every
    term summed through `_GermTransform.signed_sum`."""
    p, q = ctx.p, ctx.q
    sigma = -1 if kind == "inert" else 1
    volume, ramanujan = (p - 1) / p, _unit_integral(ctx, 1, 0)
    const = 0j
    entries = []

    def read(m, bn, bd, c):
        k, mod = v + m, p ** m
        entries.append((m, -bn * pow(bd, -1, mod) % mod, c * float(q) ** (-k), float(p) ** k))

    for (b, first, ft) in terms:
        vb, bn, bd = b
        if vb >= INF and v >= first - 1:
            const += ft.c_tail * float(q) ** (first - 1)
        const += ft.signed_sum(max(first, -vb), v, sigma, q) * volume
        if first <= -vb - 1 <= v:
            const += ft.signed_sum(-vb - 1, -vb - 1, sigma, q) * ramanujan
        if v + 1 >= first and vb + v + 1 >= -1:
            top = ft.signed_sum(v + 1, v + 1, sigma, q)
            if vb + v + 1 >= 0:
                const += top * ramanujan
            else:
                read(1, bn, bd, top)
        if vb < INF:
            k0, odd = divmod(v - vb, 2)
            if not odd and k0 >= max(first, v + 2):
                read(k0 - v, bn, bd, ft.signed_sum(k0, k0, sigma, q))
    twist = -1.0 if kind == "inert" and v % 2 else 1.0
    return _ShellPlan(twist * const, tuple((m, nb, twist * c, qk) for (m, nb, c, qk) in entries),
                      max([1] + [m for (m, _, _, _) in entries]))
