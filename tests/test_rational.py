import pytest

from padicorb.errors import DomainError, PoleError
from padicorb.rational import Poly, RationalFnT, geometric_tail, weighted_geometric_tail


def test_poly_basics():
    p = Poly.of(1, 2, 3)  # 1 + 2t + 3t^2
    q = Poly.of(0, 1)
    assert (p * q).eval(2.0) == p.eval(2.0) * 2.0
    assert (p + q).eval(0.5) == p.eval(0.5) + 0.5
    assert Poly.monomial(3, 2.0).eval(2.0) == 16.0


def test_trim_is_relative_to_the_largest_coefficient():
    """A top coefficient is dropped at 1e-13 of the largest, with no floor, so
    c * p keeps the degree of p at every scale and only 0 trims to 0."""
    for c in (1e-15, 1.0, 1e15):
        assert Poly.of(c, 2 * c, 3 * c).coeffs == (c, 2 * c, 3 * c)
        assert Poly.of(c, 1e-14 * c).coeffs == (c,)
    assert Poly.of(0, 0).coeffs == (0j,)


def test_rational_arithmetic_and_eval():
    r = RationalFnT(Poly.of(1, 1), Poly.of(1, 0, -1))  # (1+t)/(1-t^2) = 1/(1-t)
    for t in (0.3, -0.4, 2.0):
        assert abs(r.eval(t) - 1 / (1 - t)) < 1e-12
    s = r * r
    assert abs(s.eval(0.5) - 4.0) < 1e-12
    d = r / r
    assert abs(d.eval(0.25) - 1.0) < 1e-12
    with pytest.raises(PoleError):
        RationalFnT(Poly.of(1), Poly.of(0, 1)).eval(0.0)


def test_subs_recip_scaled():
    r = RationalFnT(Poly.of(0, 1), Poly.of(1, -0.5))  # t/(1-t/2)
    s = r.subs_recip_scaled(0.25)  # r(0.25/t)
    for t in (0.3, 1.7, -0.9):
        assert abs(s.eval(t) - r.eval(0.25 / t)) < 1e-12


def test_geometric_tails_vs_brute():
    for ratio in (0.5, -0.7):
        for first in (0, 2, 5):
            g = geometric_tail(ratio, first)
            w = weighted_geometric_tail(ratio, first)
            for t in (0.3, 0.9, -0.2):
                brute_g = sum((ratio * t) ** k for k in range(first, 400))
                brute_w = sum(k * (ratio * t) ** k for k in range(first, 400))
                assert abs(g.eval(t) - brute_g) < 1e-10
                assert abs(w.eval(t) - brute_w) < 1e-10


def test_geometric_tails_reject_a_negative_start():
    """A negative first power is a DomainError even where ratio ** first_power
    would divide by zero."""
    for tail in (geometric_tail, weighted_geometric_tail):
        for ratio in (0.0, 0.5):
            with pytest.raises(DomainError, match="nonnegative"):
                tail(ratio, -1)


def test_agreement_sampler():
    a = RationalFnT(Poly.of(1, 2, 1), Poly.of(1))
    b = RationalFnT(Poly.of(1, 1) * Poly.of(1, 1), Poly.of(1))
    assert a.agrees_with(b, [0.1, 0.5, -0.3, 2.0])
