"""Exact univariate polynomial arithmetic and rational generating functions.

Coefficients are Python ints or fractions.Fraction values; every operation
is exact.  Polynomials are immutable, stored dense lowest degree first,
with trailing zeros trimmed so equal polynomials compare equal.  Each also
keeps its coefficients as integer numerators over their least common
denominator, so evaluation and differences run in integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import comb, lcm
from operator import mul
from typing import Iterable, NamedTuple, Union

Scalar = Union[int, Fraction]


def binom(a: int, b: int) -> int:
    """Combinatorial binomial coefficient: 0 whenever b < 0 or b > a or a < 0."""
    if b < 0 or a < 0 or b > a:
        return 0
    return comb(a, b)


def _norm(c: Scalar) -> Scalar:
    # Plain ints dominate; test them before the slower ABC-backed isinstance.
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return c
    if isinstance(c, int):
        return c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _taylor_shift(a: Iterable[Scalar]) -> list[Scalar]:
    """Coefficients of p(x - 1) from those of p(x), lowest degree first: O(d^2) steps a_j -= a_(j+1)."""
    a = list(a)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] -= a[j + 1]
    return a


class Polynomial:
    """Immutable dense polynomial with exact int/Fraction coefficients."""

    __slots__ = ("coeffs", "_numerators", "_den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_norm(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        cs = tuple(cs)
        den = lcm(*{c.denominator for c in cs if type(c) is not int})
        # p = numerators / den; an integer polynomial's numerators are its coeffs tuple itself
        nums = cs if den == 1 else tuple(c.numerator * (den // c.denominator) for c in cs)
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "_numerators", nums)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c: Scalar) -> "Polynomial":
        return Polynomial([c])

    # -- basic protocol ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, d: int) -> Scalar:
        if 0 <= d < len(self.coeffs):
            return self.coeffs[d]
        return 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        """Power by square-and-multiply: O(log e) products."""
        if e < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __call__(self, v: Scalar) -> Scalar:
        """Exact Horner evaluation on the integer numerators; returns an int when the value is integral."""
        acc: Scalar = 0
        for c in reversed(self._numerators):
            acc = acc * v + c
        den = self._den
        if type(acc) is int and not acc % den:
            return acc // den
        return _norm(Fraction(acc, den))

    # -- rendering ---------------------------------------------------------

    def coeff_list(self) -> list[Scalar]:
        """Coefficients lowest degree first (trailing zeros trimmed)."""
        return list(self.coeffs)

    def text(self, var: str = "x") -> str:
        """Human form like '1 + 7x + 18x^2 - 15x^3', ascending degree."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if d == 0:
                body = str(mag)
            else:
                xpart = var if d == 1 else f"{var}^{d}"
                if mag == 1:
                    body = xpart
                elif isinstance(mag, Fraction):
                    body = f"({mag}){xpart}"
                else:
                    body = f"{mag}{xpart}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def backward_difference(p: Polynomial, s: int = 1) -> Polynomial:
    """s-fold backward difference: one step maps p(x) to p(x) - p(x-1), in integer numerators."""
    if s < 0:
        raise ValueError("order must be nonnegative")
    a = p._numerators
    for _ in range(min(s, len(a))):  # each step cancels the top coefficient
        a = [x - y for x, y in zip(a[:-1], _taylor_shift(a))]
    return Polynomial(Fraction(x, p._den) for x in a)


class _RationalGenFunFields(NamedTuple):
    numerator: Polynomial
    pole_order: int


class RationalGenFun(_RationalGenFunFields):
    """Generating function numerator(x) / (1-x)^pole_order with exact coefficients."""

    __slots__ = ()

    def __new__(cls, numerator: Polynomial, pole_order: int) -> RationalGenFun:
        if pole_order < 0:
            raise ValueError("pole order must be nonnegative")
        return super().__new__(cls, numerator, pole_order)

    @classmethod
    def _make(cls, iterable) -> RationalGenFun:
        # _replace builds its copy through _make, which would otherwise skip __new__'s check.
        return cls(*iterable)

    @property
    def is_canonical(self) -> bool:
        """Canonical when the numerator does not vanish at 1 (pole order exact)."""
        return self.numerator.is_zero or self.numerator(1) != 0

    def series(self, count: int) -> list[Scalar]:
        """First `count` Taylor coefficients at 0, exactly."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        num, r = self.numerator.coeffs, self.pole_order
        if r == 0:
            return [self.numerator.coefficient(d) for d in range(count)]
        # 1/(1-x)^r = sum_m C(m+r-1, r-1) x^m, so term d sums c_i C(d-i+r-1, r-1) over i <= d
        return [_norm(sum(map(mul, num[:d + 1], map(comb, range(d + r - 1, r - 2, -1), repeat(r - 1)))))
                for d in range(count)]

    def text(self, var: str = "x") -> str:
        return f"numerator={self.numerator.text(var)}\npole_order={self.pole_order}"
