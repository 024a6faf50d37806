"""Differential tests: each closed form against brute force at every (k, n).

Every 2 <= k <= n-2 with n <= 14 (n <= 10 for homology) compares a closed
form with the route that scans the squared path itself: the h-vector folded
from the brute-force f-vector, and the reduced Betti numbers of the
face-scan chain complex over GF(2) and GF(3).  The bad-set profile and the
f-vector are compared over the same range by acceptance criteria 2 and 3.
"""

from cutcx.complexes import f_vector_bruteforce, faces_by_dimension
from cutcx.formulas import beta_closed, h_polynomial
from cutcx.graphs import squared_path
from cutcx.homology import betti_numbers, build_chain_complex


def k_and_n(n_max: int) -> list[tuple[int, int]]:
    """(k, n) with 4 <= n <= n_max and 2 <= k <= n-2."""
    return [(k, n) for n in range(4, n_max + 1) for k in range(2, n - 1)]


def h_vector_by_fold(k: int, n: int) -> list[int]:
    """h_0..h_r from the brute-force f-vector: sum_p f_p t^p (1-t)^(r-p), folded by Horner in (1-t)."""
    fv = f_vector_bruteforce(squared_path(n), k)
    acc: list[int] = []
    for p in range(n - k + 1):
        prev = 0
        for i, c in enumerate(acc):
            acc[i] = c - prev
            prev = c
        acc.append(fv.f(p) - prev)
    return acc


def test_h_vector():
    for k, n in k_and_n(14):
        h = h_polynomial(k, n)
        assert [h.coefficient(i) for i in range(n - k + 1)] == h_vector_by_fold(k, n), (k, n)


def test_top_betti():
    for k, n in k_and_n(10):
        matrices = build_chain_complex(faces_by_dimension(squared_path(n), k))
        expected = [0] * (n - k - 1) + [beta_closed(k, n)]
        for prime in (2, 3):
            assert betti_numbers(matrices, prime) == expected, (k, n, prime)
