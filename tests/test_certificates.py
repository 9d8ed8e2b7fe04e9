"""Each certificate shared by the S(X), S(Z) and S(W) builders fails on a wrong input.

The builders in padicorb.orbital and padicorb.spaces assemble every window+germ
representation from the same shell tables, germ fit and checks; a certificate
that cannot fail certifies nothing, so each one is fed a deliberately wrong
input here, next to one it accepts.
"""

from fractions import Fraction

import pytest

from padicorb.errors import RepresentationError
from padicorb.localfield import rational_valuation
from padicorb.orbital import (
    _assemble_sz,
    _certified_onset,
    _certify_floor,
)
from padicorb.spaces import (
    Germ,
    _certify,
    _certify_kl_tail,
    _deep_germ,
    _value_atoms,
    kloosterman_germ,
)

from oracles import _shell_values, sampled_shell


def test_germ_fit_rejects_an_off_line_shell():
    assert _deep_germ("split", lambda u, v: 1.0 + 2.0 * v, 5, 1.0) == Germ(1.0, 2.0, 5)
    assert _deep_germ("inert", lambda u, v: 3.0 + (-1.0) ** v, 5, 1.0) == Germ(3.0, 1.0, 5)
    # the first two shells fix the line; the third (val 7) lies off it by
    # 1e-3 of the norm, at every scale
    for c in (1.0, 1e-12):
        with pytest.raises(RepresentationError, match="germ fit residual"):
            _deep_germ("split", lambda u, v: c * (1.0 + 2.0 * v + (1e-3 if v == 7 else 0.0)),
                       5, c)
        with pytest.raises(RepresentationError, match="germ fit residual"):
            _deep_germ("inert", lambda u, v: c * (3.0 + (-1.0) ** v + (1e-3 if v == 7 else 0.0)),
                       5, c)
    # on the line at unit 1, but unit 2 on val 6 is off it: no germ region
    with pytest.raises(RepresentationError, match="not unit-independent at val=6"):
        _deep_germ("split", lambda u, v: 1.0 + 2.0 * v + (1e-3 if (u, v) == (2, 6) else 0.0),
                   5, 1.0)


def test_sampler_rejects_a_function_constant_at_no_level(ctx3):
    # constant on the cosets u + 27Z: certified at level 3, one atom per unit
    vals, level = _shell_values(ctx3, lambda x: float(x.numerator % 27), Fraction(0), 0, 1)
    atoms = _value_atoms(ctx3, Fraction(0), 0, vals, level, 1.0)
    assert level == 3 and len(atoms) == 18
    # depends on the unit mod 3^10: no level up to 9 passes the child check
    with pytest.raises(RepresentationError, match="did not stabilize"):
        _shell_values(ctx3, lambda x: float(x.numerator % 3 ** 10), Fraction(0), 0, 1)


def test_kloosterman_tail_rejects_a_wrong_constant(ctx3):
    C = 0.75 + 0.25j

    def value(xi):
        return C * kloosterman_germ(ctx3, xi)

    assert abs(kloosterman_germ(ctx3, Fraction(2, 81))) > 1  # the unit-2 probe
    _certify_kl_tail(ctx3, value, C, (-4, -6), (1, 2), 1e-9, 1.0)
    with pytest.raises(RepresentationError, match="Kloosterman tail mismatch"):
        _certify_kl_tail(ctx3, value, 1.01 * C, (-4, -6), (1, 2), 1e-9, 1.0)


def test_probe_certificate_is_relative():
    _certify(1e6 + 1e-4, 1e6, 1e-9, "probe", 1.0)  # 1e-4 <= 1e-9 * 1e6
    _certify(1e-10, 0.0, 1e-9, "probe", 1.0)  # below tol * norm where |want| < norm
    with pytest.raises(RepresentationError, match="probe"):
        _certify(1e6 + 1e-2, 1e6, 1e-9, "probe", 1.0)
    with pytest.raises(RepresentationError, match="probe"):
        _certify(1.0 + 1e-8, 1.0, 1e-9, "probe", 1.0)
    # the norm of the input, not 1, is the floor: at norm 1e-12 the bound is
    # 1e-21 next to a zero want, and a zero norm makes the comparison exact
    _certify(1e-22, 0.0, 1e-9, "probe", 1e-12)
    _certify(0.0, 0.0, 1e-9, "probe", 0.0)
    with pytest.raises(RepresentationError, match="probe"):
        _certify(1e-20, 0.0, 1e-9, "probe", 1e-12)
    with pytest.raises(RepresentationError, match="probe"):
        _certify(1e-300, 0.0, 1e-9, "probe", 0.0)


def test_support_floor_rejects_leaked_support(ctx3):
    for c in (1.0, 1e-13):  # the floor is relative to the norm c of the values

        def raw(xi):
            return c if rational_valuation(xi, 3) >= -3 else 0.0

        _certify_floor(ctx3, raw, -3, c)  # the shells below, val -4 and -5, are empty
        with pytest.raises(RepresentationError, match="support leaked"):
            _certify_floor(ctx3, raw, -2, c)  # val -3 still carries support

    def skips_a_parity(xi):
        return 1.0 if rational_valuation(xi, 3) == -4 else 0.0

    # val -3 is empty but val -4 is not: both parities below the floor are checked
    with pytest.raises(RepresentationError, match="support leaked"):
        _certify_floor(ctx3, skips_a_parity, -2, 1.0)


def test_perturbed_germ_absorbs_no_shell_and_fails_the_probes(ctx3):
    """The germ at 0 is -4.5 + val on val >= 2, above a shell of zeros, and the
    germ at -1 is 0.25 on val(xi + 1) >= 2; both are handed over at level 4,
    so the shells between join them, and the zeros (no window atoms) do not.
    With b off by 1e-9 no shell joins, and the S(Z) probes fail."""

    def raw(xi):
        v, vz = rational_valuation(xi, 3), rational_valuation(xi + 1, 3)
        if v >= 1:
            return -4.5 + v if v >= 2 else 0.0
        if vz >= 2:
            return 0.25
        return float(xi.numerator % 9) + 0.5 * v if v >= -2 else 0.0

    shell = sampled_shell(ctx3, raw)
    f = _assemble_sz(ctx3, "split", raw, Germ(-4.5, 1.0, 4), Germ(0.25, 0.0, 4), -2, shell, 1.0)
    assert (f.germ0, f.germ_m1) == (Germ(-4.5, 1.0, 2), Germ(0.25, 0.0, 2))
    shells = {v: _shell_values(ctx3, raw, Fraction(0), v, 2) for v in (2, 3)}
    off = Germ(-4.5, 1.0 + 1e-9, 4)
    assert _certified_onset("split", off, shells) == off
    with pytest.raises(RepresentationError, match="S\\(Z\\) representation mismatch"):
        _assemble_sz(ctx3, "split", raw, off, Germ(0.25, 0.0, 4), -2, shell, 1.0)
