"""Reference builders the tests compare the library's windows with.

The shell sampler reads a raw orbital at every unit coset of a level and
checks each coset against one child coset, raising the level until they
agree.  The library reads its windows in closed form instead (chart images,
valuation classes, one value per Kuznetsov shell); the sampler is kept here
as the independent reference those readings are tested against.  Nothing
under `src/` imports this module (`tests/test_stdlib_only.py`).
"""

from fractions import Fraction

from padicorb.bruhat import BruhatFn
from padicorb.errors import RepresentationError
from padicorb.localfield import rational_valuation, unit_reps
from padicorb.orbital import (
    _FIRST_LEVEL,
    _assemble_sz,
    hecke_apply_W,
    hecke_apply_W_tail,
    o_torus_group,
)
from padicorb.spaces import KLTail, SWElem, _deep_germ, _value_atoms


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

    depth = 2 * h.max_degree() + 3
    germ0 = _deep_germ(kind, lambda u, j: raw(u * Fraction(ctx.p) ** j), depth)
    germ_m1 = _deep_germ(kind, lambda u, j: raw(-1 + u * Fraction(ctx.p) ** j), depth)
    return _assemble_sz(ctx, kind, raw, germ0, germ_m1, -(2 * h.max_degree() + 1),
                        sampled_shell(ctx, raw))


def sampled_hecke_apply_W_elem(ctx, kind, h, s=0.0):
    """`orbital.hecke_apply_W_elem` with the sampler's window, sampled from
    level 1 on the shells val -1 .. depth - 1, and the same germ fit and tail."""
    value = hecke_apply_W(ctx, kind, h, s)
    depth = h.max_degree() + 3
    germ = _deep_germ(kind, lambda u, v: value(u * Fraction(ctx.p) ** v) * ctx.q ** (v * (s + 1)),
                      depth)
    entries = []
    for v in range(-1, depth):
        entries += _value_atoms(ctx, 0, v, *_shell_values(ctx, value, Fraction(0), v, 1))
    return SWElem(ctx, kind, s, BruhatFn(ctx, "F", tuple(entries)), germ,
                  KLTail(hecke_apply_W_tail(ctx, kind, h, s), 2))
