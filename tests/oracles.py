"""Reference builders the tests compare the library's engines with.

The shell sampler reads a raw orbital at every unit coset of a level and
checks each coset against one child coset, raising the level until they
agree.  The library reads its windows in closed form instead (chart images,
valuation classes, one value per Kuznetsov shell); the sampler is kept here
as the independent reference those readings are tested against.  The torus
engine counts cosets by their valuation profile (`orbital._x1_count`); the
count that visits the cosets of `double_coset_reps` one by one is kept here
as its bit-for-bit reference.  Nothing under `src/` imports this module
(`tests/test_stdlib_only.py`).
"""

from fractions import Fraction

from padicorb.bruhat import BruhatFn
from padicorb.errors import RepresentationError
from padicorb.groups import double_coset_reps
from padicorb.localfield import _val_int, rational_valuation, unit_reps
from padicorb.orbital import (
    _FIRST_LEVEL,
    _assemble_sz,
    hecke_apply_W,
    hecke_apply_W_tail,
    o_torus_group,
)
from padicorb.spaces import KLTail, SWElem, _deep_germ, _norm, _value_atoms


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


def sampled_shell(ctx, raw):
    """The `shell(center, v, cut)` argument of `orbital._assemble_sz` that
    samples raw from `_FIRST_LEVEL`, leaving out the units with
    val(xi + 1) >= min(level, cut)."""

    def shell(center: int, v: int, cut: int | None):
        skip = None if cut is None else (
            lambda x, lvl: rational_valuation(x + 1, ctx.p) >= min(lvl, cut))
        return _shell_values(ctx, raw, Fraction(center), v, _FIRST_LEVEL, skip)

    return shell


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
