"""Exactness and canonical-form behavior of the polynomial layer.

Core claims: coefficients stay exact through arithmetic, trailing zeros
are trimmed so equality is structural, the combinatorial binomial is zero
outside its range, generating-function series match closed evaluations
term by term, and evaluation and differences of polynomials with
rational coefficients agree with their defining sums.
"""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutcx.polynomials import (
    Polynomial,
    RationalGenFun,
    backward_difference,
    binom,
)


# Rational scalars, integers among them; coefficient lists run from the zero
# polynomial ([]) and the constants up to degree 6.
rationals = st.integers(-30, 30) | st.fractions(min_value=-30, max_value=30, max_denominator=12)
rational_coeffs = st.lists(rationals, max_size=7)
points = st.integers(-12, 12) | st.fractions(min_value=-12, max_value=12, max_denominator=7)


def direct(coeffs, x):
    """sum c_i x^i, term by term, with no Polynomial method involved."""
    return sum((c * x**i for i, c in enumerate(coeffs)), Fraction(0))


def falling_binomial(a: int, m: int) -> Polynomial:
    """C(x+a, m) = (x+a)(x+a-1)...(x+a-m+1)/m! as a degree-m polynomial in x."""
    p = Polynomial.constant(1)
    for i in range(m):
        p = p * Polynomial([a - i, 1])
    return p * Fraction(1, factorial(m))


class TestCanonicalForm:
    def test_trailing_zeros_trimmed(self):
        assert Polynomial([1, 2, 0, 0]) == Polynomial([1, 2])
        assert Polynomial([0, 0]).is_zero
        assert Polynomial([]).degree == -1

    def test_integral_fractions_normalize_to_int(self):
        p = Polynomial([Fraction(4, 2), Fraction(1, 3)])
        assert p.coeff_list() == [2, Fraction(1, 3)]
        assert isinstance(p.coefficient(0), int)

    def test_immutable(self):
        p = Polynomial([1, 2])
        with pytest.raises(AttributeError):
            p.coeffs = (3,)

    def test_rejects_non_scalars(self):
        with pytest.raises(TypeError):
            Polynomial([1.5])


class TestArithmetic:
    def test_product_and_power(self):
        one_plus_x = Polynomial([1, 1])
        assert one_plus_x * one_plus_x == Polynomial([1, 2, 1])
        assert one_plus_x ** 3 == Polynomial([1, 3, 3, 1])
        assert (one_plus_x - one_plus_x).is_zero

    @pytest.mark.parametrize(
        "coeffs", [[], [3], [1, -1], [Fraction(1, 2), 0, -2], [0, 0, 1], [2, Fraction(-1, 3), 1]]
    )
    def test_power_matches_repeated_products(self, coeffs):
        p = Polynomial(coeffs)
        product = Polynomial.constant(1)
        for e in range(13):
            assert p ** e == product, e
            product = product * p

    def test_scalar_multiplication(self):
        assert 3 * Polynomial([1, 2]) == Polynomial([3, 6])
        assert Polynomial([2, 4]) * Fraction(1, 2) == Polynomial([1, 2])

    def test_exact_evaluation(self):
        p = Polynomial([Fraction(1, 3), 1])
        assert p(Fraction(2, 3)) == 1
        assert isinstance(p(Fraction(2, 3)), int)
        assert Polynomial([1, -3, 1])(10) == 71


class TestRationalCoefficients:
    @given(rational_coeffs, points)
    @example([], -3)
    @example([Fraction(-7, 3)], -2)
    @example([Fraction(1, 2), Fraction(1, 2)], -3)
    @settings(max_examples=50)
    def test_evaluation_is_the_defining_sum(self, coeffs, x):
        value = Polynomial(coeffs)(x)
        assert value == direct(coeffs, x)
        assert type(value) is int or value.denominator != 1  # an integral value comes back as an int

    @given(rational_coeffs, st.data())
    @settings(max_examples=50)
    def test_backward_difference_is_the_alternating_sum(self, coeffs, data):
        p = Polynomial(coeffs)
        s = data.draw(st.integers(0, p.degree + 1), label="s")  # up to the order that kills p
        x = data.draw(points, label="x")
        want = sum((-1) ** i * comb(s, i) * direct(coeffs, x - i) for i in range(s + 1))
        assert backward_difference(p, s)(x) == want


class TestBinomialRegimes:
    def test_combinatorial_zero_outside_range(self):
        assert binom(5, 2) == comb(5, 2)
        assert binom(2, 5) == 0
        assert binom(5, -1) == 0
        assert binom(-3, 1) == 0


class TestBackwardDifference:
    def test_kills_constants_and_drops_degree(self):
        assert backward_difference(Polynomial([7])).is_zero
        assert backward_difference(Polynomial([Fraction(-7, 3)]), 3).is_zero
        assert backward_difference(Polynomial(), 2).is_zero
        assert backward_difference(Polynomial([Fraction(1, 2), 3]), 0) == Polynomial([Fraction(1, 2), 3])
        assert backward_difference(Polynomial([0, 1])) == Polynomial([1])
        p = Polynomial([3, -1, 4, 1])
        assert backward_difference(p, 1).degree == p.degree - 1

    @pytest.mark.parametrize("m", range(0, 6))
    def test_difference_of_binomial_shifts_both_indices(self, m):
        # The s-fold backward difference of C(x+a, m) is C(x+a-s, m-s).
        a = 2
        p = falling_binomial(a, m)
        for s in range(0, m + 1):
            assert backward_difference(p, s) == falling_binomial(a - s, m - s)
        assert backward_difference(p, m + 1).is_zero


class TestRationalGenFun:
    def test_series_of_basic_pole(self):
        g = RationalGenFun(Polynomial([1]), 2)
        assert g.series(5) == [1, 2, 3, 4, 5]
        g3 = RationalGenFun(Polynomial([0, 0, 0, 1]), 3)
        assert g3.series(7) == [0, 0, 0, 1, 3, 6, 10]

    def test_canonical_strips_shared_factor(self):
        # x - x^2 = x(1-x) over (1-x)^3 reduces to x over (1-x)^2.
        g = RationalGenFun(Polynomial([0, 1, -1]), 3)
        assert not g.is_canonical
        reduced = RationalGenFun(Polynomial([0, 1]), 2)
        assert reduced.is_canonical
        assert g.series(9) == reduced.series(9)

    def test_pole_order_validation(self):
        with pytest.raises(ValueError, match="^pole order must be nonnegative$"):
            RationalGenFun(Polynomial([1]), pole_order=-1)

    @given(st.lists(rationals, max_size=5), st.integers(0, 4))
    @settings(max_examples=60)
    def test_series_matches_defining_product(self, coeffs, r):
        # (1-x)^r * series must reproduce the numerator's coefficients.
        g = RationalGenFun(Polynomial(coeffs), r)
        count = len(coeffs) + r + 3
        series = g.series(count)
        product = Polynomial(series) * Polynomial([1, -1]) ** r
        got = [product.coefficient(d) for d in range(len(coeffs))]
        want = [g.numerator.coefficient(d) for d in range(len(coeffs))]
        assert got == want
