"""Rational functions in t = q^(-s) with complex coefficients.

These carry Tate zeta values, L-factors and gamma factors, evaluated at points
of t.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError, PoleError

_TRIM = 1e-13


def _trim(coeffs: list[complex]) -> tuple[complex, ...]:
    c = list(coeffs)
    tol = _TRIM * max((abs(x) for x in c), default=0.0)
    while c and abs(c[-1]) <= tol:
        c.pop()
    return tuple(c) if c else (0j,)


class Poly(NamedTuple):
    """Dense polynomial in t, low degree first."""

    coeffs: tuple[complex, ...]

    @staticmethod
    def of(*coeffs) -> "Poly":
        return Poly(_trim([complex(c) for c in coeffs]))

    @staticmethod
    def monomial(k: int, c=1.0) -> "Poly":
        return Poly(_trim([0j] * k + [complex(c)]))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0j] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0j] * (n - len(other.coeffs))
        return Poly(_trim([x + y for x, y in zip(a, b)]))

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        out = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(_trim(out))

    def scale(self, c) -> "Poly":
        return Poly(_trim([complex(c) * x for x in self.coeffs]))

    def eval(self, t: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


class RationalFnT(NamedTuple):
    """num/den in t = q^(-s); not necessarily reduced."""

    num: Poly
    den: Poly

    @staticmethod
    def zero() -> "RationalFnT":
        return RationalFnT(Poly.of(0), Poly.of(1))

    def __add__(self, other: "RationalFnT") -> "RationalFnT":
        return RationalFnT(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RationalFnT") -> "RationalFnT":
        return RationalFnT(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other: "RationalFnT") -> "RationalFnT":
        return RationalFnT(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFnT") -> "RationalFnT":
        if other.num.is_zero():
            raise DomainError("division by the zero rational function")
        return RationalFnT(self.num * other.den, self.den * other.num)

    def scale(self, c) -> "RationalFnT":
        return RationalFnT(self.num.scale(c), self.den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def eval(self, t: complex) -> complex:
        d = self.den.eval(t)
        if abs(d) < 1e-300:
            raise PoleError(f"evaluation at a pole t={t}")
        return self.num.eval(t) / d

    def subs_recip_scaled(self, c: complex) -> "RationalFnT":
        """R(c/t) as a rational function of t."""
        n = max(self.num.degree(), self.den.degree())
        # p(c/t) = t^-n * sum p_i c^i t^(n-i)
        def lift(p: Poly) -> Poly:
            out = [0j] * (n + 1)
            for i, a in enumerate(p.coeffs):
                out[n - i] = a * (c ** i)
            return Poly(_trim(out))

        return RationalFnT(lift(self.num), lift(self.den))

    def agrees_with(self, other: "RationalFnT", points: list[complex], tol: float = 1e-9) -> bool:
        for t in points:
            try:
                a = self.eval(t)
                b = other.eval(t)
            except PoleError:
                continue
            scale = max(1.0, abs(a), abs(b))
            if abs(a - b) > tol * scale:
                return False
        return True


def geometric_tail(ratio: complex, first_power: int) -> RationalFnT:
    """sum_{k >= first_power} (ratio*t)^k as a rational function of t."""
    if first_power < 0:
        raise DomainError("geometric_tail needs a nonnegative starting power")
    num = Poly.monomial(first_power, ratio ** first_power)
    den = Poly.of(1, -ratio)
    return RationalFnT(num, den)


def weighted_geometric_tail(ratio: complex, first_power: int) -> RationalFnT:
    """sum_{k >= L} k * (ratio t)^k, L >= 0, as a rational function of t."""
    if first_power < 0:
        raise DomainError("weighted tail needs a nonnegative starting power")
    L = first_power
    one_minus = Poly.of(1, -ratio)
    # sum k x^k from L: x^L (L + (1-L) x... ) / (1-x)^2 with x = ratio*t:
    # closed form: [L x^L - (L-1) x^(L+1)] / (1-x)^2
    num = Poly.monomial(L, L * ratio ** L) - Poly.monomial(L + 1, (L - 1) * ratio ** (L + 1))
    return RationalFnT(num, one_minus * one_minus)
