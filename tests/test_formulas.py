"""Closed-form layer: Betti formulas, diagonals, recurrence, genfuns, Hilbert data.

Core claims: the closed top Betti number reproduces the frozen reference
grid, the binomial-basis forms at k = 4 and k = 5 agree with it, the
diagonal polynomials have degree r-1 with leading coefficient
(r-2)/(r-1)! and are killed by the r-th backward difference but not the
(r-1)-st, the diagonal generating functions expand to the polynomial
values, and the h-polynomial carries the Betti number as its top
coefficient with unit constant term.
"""

import math
import time
from fractions import Fraction

import pytest

import cutcx.formulas
from cutcx import (
    BettiTable,
    Polynomial,
    backward_difference,
    beta_closed,
    beta_k4,
    beta_k5,
    binom,
    diagonal_genfun,
    diagonal_poly,
    f_vector_bruteforce,
    face_enumerator_closed,
    h_polynomial,
    hilbert_series,
    leading_coefficient,
    sharp_difference,
    squared_path,
    verify_recurrence,
    z_count,
)
from cutcx.verification import REFERENCE_TABLE

# Independent freeze of the diagonal grid, r = 3..6 down the rows, k = 3..10.
EXPECTED_GRID = {
    3: (1, 3, 6, 10, 15, 21, 28, 36),
    4: (3, 11, 26, 50, 85, 133, 196, 276),
    5: (6, 25, 67, 145, 275, 476, 770, 1182),
    6: (10, 46, 136, 324, 674, 1274, 2240, 3720),
}

# x^4/1000, a fault planted on a diagonal polynomial: its 4th difference is 24/1000 = 3/125.
QUARTIC_ERROR = Polynomial([0, 0, 0, 0, Fraction(1, 1000)])


class TestBetaClosed:
    def test_frozen_values(self):
        assert beta_closed(3, 6) == 1
        assert beta_closed(4, 7) == 3
        assert beta_closed(4, 8) == 11
        assert beta_closed(5, 10) == 67
        assert beta_closed(10, 16) == 3720

    def test_reference_grid(self):
        for r, row in EXPECTED_GRID.items():
            for k, want in zip(range(3, 11), row):
                assert beta_closed(k, k + r) == want, (k, r)

    def test_package_reference_table_matches_freeze(self):
        assert REFERENCE_TABLE == {
            (k, r): want
            for r, row in EXPECTED_GRID.items()
            for k, want in zip(range(3, 11), row)
        }

    def test_nonnegative_on_wide_range(self):
        for n in range(4, 61):
            for k in range(2, n - 1):
                assert beta_closed(k, n) >= 0

    def test_range_errors(self):
        with pytest.raises(ValueError):
            beta_closed(4, 5)
        with pytest.raises(ValueError):
            beta_closed(1, 5)


class TestBinomialBasisForms:
    def test_frozen_values(self):
        assert beta_k4(7) == 3
        assert beta_k4(8) == 11
        assert beta_k4(10) == 46
        assert beta_k5(8) == 6
        assert beta_k5(9) == 26
        assert beta_k5(12) == 241

    def test_agree_with_closed_form(self):
        assert all(beta_k4(n) == beta_closed(4, n) for n in range(7, 61))
        assert all(beta_k5(n) == beta_closed(5, n) for n in range(8, 61))

    def test_range_errors(self):
        with pytest.raises(ValueError):
            beta_k4(6)
        with pytest.raises(ValueError):
            beta_k5(7)


class TestDiagonalPolynomials:
    def test_frozen_coefficients(self):
        assert diagonal_poly(3).coeff_list() == [1, Fraction(-3, 2), Fraction(1, 2)]
        assert diagonal_poly(4).coeff_list() == [
            1, Fraction(-5, 6), Fraction(-1, 2), Fraction(1, 3),
        ]
        assert diagonal_poly(5).coeff_list() == [
            2, Fraction(-29, 12), Fraction(3, 8), Fraction(-1, 12), Fraction(1, 8),
        ]
        assert diagonal_poly(6).coeff_list() == [
            2, Fraction(-23, 15), -1, Fraction(1, 2), 0, Fraction(1, 30),
        ]

    def test_degree_and_leading_coefficient(self):
        for r in range(3, 13):
            p = diagonal_poly(r)
            assert p.degree == r - 1
            assert p.coefficient(p.degree) == leading_coefficient(r)
            assert leading_coefficient(r) == Fraction(r - 2, math.factorial(r - 1))

    def test_integer_valued_everywhere_sampled(self):
        for r in range(3, 9):
            p = diagonal_poly(r)
            for k in range(-10, 11):
                assert isinstance(p(k), int), (r, k)

    def test_matches_closed_form_along_diagonals(self):
        for r in range(3, 9):
            p = diagonal_poly(r)
            for k in range(2, 41):
                assert p(k) == beta_closed(k, k + r), (r, k)

    def test_range_error(self):
        with pytest.raises(ValueError):
            diagonal_poly(2)
        with pytest.raises(ValueError, match="need r >= 3, got r=2"):
            leading_coefficient(2)


class TestRecurrence:
    def test_hand_checked_instances(self):
        # Order 3 at k=6 and order 4 at k=7, straight from the grid rows.
        assert 10 - 3 * 6 + 3 * 3 - 1 == 0
        assert 85 - 4 * 50 + 6 * 26 - 4 * 11 + 3 == 0
        cert3 = verify_recurrence(3, 10)
        assert next(e for e in cert3.entries if e.k == 6).value == 0

    def test_certificates_hold(self):
        for r in range(3, 9):
            cert = verify_recurrence(r, 40)
            assert cert.ok
            assert cert.symbolic_zero
        for r in range(3, 41):
            assert backward_difference(diagonal_poly(r), r).is_zero

    def test_windows_are_labelled(self):
        cert = verify_recurrence(4, 12)
        windows = {e.k: e.window for e in cert.entries}
        assert windows[3] == "extension" and windows[6] == "extension"
        assert windows[7] == "closed" and windows[12] == "closed"
        assert all(e.ok for e in cert.entries)

    def test_extension_window_reports_exact_values(self, monkeypatch):
        # The extension entries must show the 3/125 residue exactly, not floor it to 0.
        original = cutcx.formulas.diagonal_poly
        monkeypatch.setattr(cutcx.formulas, "diagonal_poly", lambda r: original(r) + QUARTIC_ERROR)
        cert = verify_recurrence(4, 10)
        extension = [e for e in cert.entries if e.window == "extension"]
        assert [e.k for e in extension] == [3, 4, 5, 6]
        assert all(e.value == Fraction(3, 125) and not e.ok for e in extension)
        assert not cert.symbolic_zero and not cert.ok

    def test_preconditions(self):
        with pytest.raises(ValueError):
            verify_recurrence(3, 5)
        with pytest.raises(ValueError):
            verify_recurrence(2, 10)

    def test_k_max_refused_before_the_diagonal_is_built(self):
        # diagonal_poly(1000) alone takes about 5 s of CPU (2-vCPU VM, Python 3.11).
        start = time.process_time()
        with pytest.raises(ValueError, match="^need k_max >= r\\+3, got k_max=5, r=1000$"):
            verify_recurrence(1000, 5)
        assert time.process_time() - start < 0.5


class TestSharpness:
    def test_constant_is_r_minus_two(self):
        for r in range(3, 41):
            assert sharp_difference(r) == r - 2

    def test_hand_checked_third_difference(self):
        # Order-3 difference of the r=4 row at k=6: 50 - 3*26 + 3*11 - 3 = 2.
        assert 50 - 3 * 26 + 3 * 11 - 3 == 2
        assert sharp_difference(4) == 2

    def test_range_error(self):
        with pytest.raises(ValueError, match="need r >= 3, got r=2"):
            sharp_difference(2)

    def test_one_fewer_difference_never_kills(self):
        for r in range(3, 10):
            assert not backward_difference(diagonal_poly(r), r - 1).is_zero


class TestGeneratingFunctions:
    def test_frozen_numerators(self):
        assert diagonal_genfun(3).numerator == Polynomial([0, 0, 0, 1])
        assert diagonal_genfun(3).pole_order == 3
        assert diagonal_genfun(4).numerator == Polynomial([0, 0, 0, 3, -1])
        assert diagonal_genfun(5).numerator == Polynomial([0, 0, 0, 6, -5, 2])

    def test_canonical_and_integral(self):
        for r in range(3, 9):
            gf = diagonal_genfun(r)
            assert gf.is_canonical
            assert all(type(c) is int for c in gf.numerator.coeffs)
            assert gf.pole_order == r

    def test_series_matches_diagonal_polynomial(self):
        for r in range(3, 9):
            series = diagonal_genfun(r).series(51)
            poly = diagonal_poly(r)
            assert series[0] == 0
            assert series[1:] == [poly(k) for k in range(1, 51)], r

    def test_range_error(self):
        with pytest.raises(ValueError):
            diagonal_genfun(2)

    @pytest.mark.parametrize(
        "error",
        [Polynomial.constant(1), Polynomial([0, Fraction(1, 1000)])],
        ids=["plus-one", "plus-x-over-1000"],
    )
    def test_post_check_catches_a_wrong_diagonal(self, error, monkeypatch):
        original = cutcx.formulas.diagonal_poly
        monkeypatch.setattr(cutcx.formulas, "diagonal_poly", lambda r: original(r) + error)
        with pytest.raises(RuntimeError, match="disagrees"):
            diagonal_genfun(6)


class TestPlantedFaults:
    """Each post-check of a closed form fires on a fault planted in what it checks."""

    def test_diagonal_not_integer_valued(self, monkeypatch):
        monkeypatch.setattr(cutcx.formulas, "factorial", lambda r: math.factorial(r) + 1)
        with pytest.raises(RuntimeError, match="diagonal polynomial not integer at k=0"):
            diagonal_poly(5)

    def test_diagonal_degree(self, monkeypatch):
        original = cutcx.formulas._times_linear
        monkeypatch.setattr(cutcx.formulas, "_times_linear",
                            lambda c, a: original(c, a)[:-1] if len(c) == 4 else original(c, a))
        with pytest.raises(RuntimeError, match="diagonal polynomial degree 3 != 4"):
            diagonal_poly(5)

    def test_sharp_difference_not_constant(self, monkeypatch):
        original = cutcx.formulas.backward_difference
        monkeypatch.setattr(cutcx.formulas, "backward_difference", lambda p, s: original(p, s - 1 if s == 4 else s))
        with pytest.raises(RuntimeError, match="order 4 difference is not constant"):
            sharp_difference(5)

    def test_sharp_difference_not_integer(self, monkeypatch):
        original = cutcx.formulas.diagonal_poly
        monkeypatch.setattr(cutcx.formulas, "diagonal_poly", lambda r: original(r) + QUARTIC_ERROR)
        with pytest.raises(RuntimeError, match=r"difference constant Fraction\(378, 125\) is not an integer"):
            sharp_difference(5)

    def test_genfun_not_canonical(self, monkeypatch):
        # At x = 1 the numerator is r minus 2 C(0, 0); C(0, 0) = 2 makes it vanish at r = 4.
        original = cutcx.formulas.binom
        monkeypatch.setattr(cutcx.formulas, "binom", lambda a, b: 2 if (a, b) == (0, 0) else original(a, b))
        with pytest.raises(RuntimeError, match=r"shares a \(1-x\) factor"):
            diagonal_genfun(4)


def monomial(c, d: int) -> Polynomial:
    """c x^d."""
    return Polynomial([0] * d + [c])


def falling_binomial(a: int, m: int) -> Polynomial:
    """C(x+a, m) = (x+a)(x+a-1)...(x+a-m+1)/m! as a degree-m polynomial in x."""
    p = Polynomial.constant(1)
    for i in range(m):
        p = p * Polynomial([a - i, 1])
    return p * Fraction(1, math.factorial(m))


def h_coefficients_reference(k: int, n: int) -> list[int]:
    """Independent coefficient-sum route to the h-polynomial."""
    r = n - k
    out = []
    for i in range(r + 1):
        h_i = sum(
            (-1) ** (i - p) * binom(n, p) * binom(r - p, i - p) for p in range(i + 1)
        )
        if i == r - 1:
            h_i -= r
        if i == r:
            h_i += r - z_count(k, n)
        out.append(h_i)
    return out


def h_polynomial_by_products(k: int, n: int) -> Polynomial:
    """Independent product route: sum_p C(n,p) t^p (1-t)^(r-p), then the corrections."""
    r = n - k
    one_minus_t = Polynomial([1, -1])
    h = Polynomial()
    for p in range(r + 1):
        h = h + binom(n, p) * monomial(1, p) * one_minus_t ** (r - p)
    h = h - monomial(r, r - 1)
    return h + monomial(r - z_count(k, n), r)


def diagonal_poly_by_products(r: int) -> Polynomial:
    """Independent product route: each C(x-1, j) rebuilt from its falling factorial."""
    p = falling_binomial(r - 1, r) + Polynomial.constant(r)
    for j in range(r + 1):
        p = p - (r - j + 1) * falling_binomial(-1, j)
    return p


def genfun_numerator_by_products(r: int) -> Polynomial:
    """Independent product route: the resummed numerator with (1-x) powers by **."""
    x = Polynomial([0, 1])
    one_minus_x = Polynomial([1, -1])
    num = x * Polynomial([1] * r) + r * x * one_minus_x ** (r - 1)
    for j in range(r):
        num = num - (r - j + 1) * monomial(1, j + 1) * one_minus_x ** (r - j - 1)
    return num


class TestProductRoutes:
    def test_h_polynomial_small_range(self):
        for n in range(4, 25):
            for k in range(2, n - 1):
                assert h_polynomial(k, n) == h_polynomial_by_products(k, n), (k, n)

    @pytest.mark.parametrize("k,n", [(3, 150), (4, 100), (10, 110)])
    def test_h_polynomial_large(self, k, n):
        assert h_polynomial(k, n) == h_polynomial_by_products(k, n)

    def test_diagonal_poly_and_genfun_numerator(self):
        for r in range(3, 21):
            assert diagonal_poly(r) == diagonal_poly_by_products(r), r
            assert diagonal_genfun(r).numerator == genfun_numerator_by_products(r), r


class TestHPolynomial:
    def test_frozen_case(self):
        assert h_polynomial(4, 7).coeff_list() == [1, 4, 7, 3]

    def test_coefficient_sum_route_agrees(self):
        for n in range(4, 21):
            for k in range(2, n - 1):
                r = n - k
                h = h_polynomial(k, n)
                want = h_coefficients_reference(k, n)
                assert [h.coefficient(i) for i in range(r + 1)] == want, (k, n)

    def test_unit_constant_and_top_betti(self):
        for n in range(4, 41):
            for k in range(2, n - 1):
                h = h_polynomial(k, n)
                assert h.coefficient(0) == 1
                assert h.coefficient(n - k) == beta_closed(k, n), (k, n)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            h_polynomial(4, 5)


class TestHilbertSeries:
    def test_frozen_series_head(self):
        assert hilbert_series(4, 7).series(4) == [1, 7, 25, 58]

    def test_degree_one_counts_vertex_faces(self):
        for n in range(5, 31):
            for k in range(2, n - 1):
                first = hilbert_series(k, n).series(2)[1]
                assert first == (n if n - k >= 3 else n - 2), (k, n)

    def test_matches_face_vector_transform(self):
        # Coefficient at degree d >= 1 is sum_p f_{p-1} C(d-1, p-1).
        for n in range(4, 11):
            for k in range(2, n - 1):
                fv = f_vector_bruteforce(squared_path(n), k)
                series = hilbert_series(k, n).series(8)
                assert series[0] == 1
                for d in range(1, 8):
                    want = sum(
                        fv.f(p) * binom(d - 1, p - 1)
                        for p in range(1, fv.max_cardinality + 1)
                    )
                    assert series[d] == want, (k, n, d)

    def test_numerator_is_h_polynomial_and_canonical(self):
        hs = hilbert_series(5, 9)
        assert hs.numerator == h_polynomial(5, 9)
        assert hs.pole_order == 4
        assert hs.is_canonical

    def test_equals_enumerator_substitution(self):
        # F(t/(1-t)) expanded as a power series must reproduce the series.
        for (k, n) in ((4, 7), (3, 8), (2, 6), (6, 8)):
            poly = face_enumerator_closed(k, n)
            terms = 8
            # t^p/(1-t)^p expanded to `terms` coefficients.
            acc = [0] * terms
            for p, c in enumerate(poly.coeff_list()):
                for d in range(terms):
                    acc[d] += c * binom(d - 1, p - 1) if p else c * (d == 0)
            assert hilbert_series(k, n).series(terms) == acc


class TestBettiTable:
    def test_from_closed_matches_reference(self):
        table = BettiTable.from_closed(range(3, 11), range(3, 7))
        assert table.provenance == "closed-form"
        assert table.entries == REFERENCE_TABLE
        assert table.k_values == list(range(3, 11))
        assert table.r_values == list(range(3, 7))

    def test_grid_rendering_stable(self):
        grid = BettiTable.from_closed(range(3, 5), range(3, 5)).to_text_grid()
        assert grid == "r\\k  3   4\n3    1   3\n4    3  11"

    def test_validation(self):
        with pytest.raises(RuntimeError, match="^internal error: negative entry at k=3, r=3$"):
            BettiTable(entries={(3, 3): -1})
