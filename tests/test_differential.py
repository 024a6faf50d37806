"""Differential tests: each closed form against brute force at random (k, n).

Hypothesis draws 2 <= k <= n-2 with n <= 14 (n <= 10 for homology) and
compares a closed form with the route that scans the squared path itself:
the bad-set profile, the f-vector, the h-vector folded from the brute-force
f-vector, and the reduced Betti numbers of the face-scan chain complex over
GF(2) and GF(3).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from cutcx.complements import q_profile_bruteforce, q_profile_closed
from cutcx.complexes import f_vector_bruteforce, face_enumerator_closed, faces_by_dimension
from cutcx.formulas import beta_closed, h_polynomial
from cutcx.graphs import squared_path
from cutcx.homology import betti_numbers, build_chain_complex


def k_and_n(n_max: int):
    """(k, n) with 4 <= n <= n_max and 2 <= k <= n-2."""
    return st.integers(4, n_max).flatmap(lambda n: st.tuples(st.integers(2, n - 2), st.just(n)))


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


@given(k_and_n(14))
@settings(max_examples=60, deadline=None)
def test_profile(kn):
    k, n = kn
    assert q_profile_bruteforce(squared_path(n), k) == q_profile_closed(k, n)


@given(k_and_n(14))
@settings(max_examples=60, deadline=None)
def test_f_vector(kn):
    k, n = kn
    fv = f_vector_bruteforce(squared_path(n), k)
    closed = face_enumerator_closed(k, n)
    assert [fv.f(p) for p in range(n - k + 1)] == [closed.coefficient(p) for p in range(n - k + 1)]


@given(k_and_n(14))
@settings(max_examples=60, deadline=None)
def test_h_vector(kn):
    k, n = kn
    h = h_polynomial(k, n)
    assert [h.coefficient(i) for i in range(n - k + 1)] == h_vector_by_fold(k, n)


@given(k_and_n(10))
@settings(max_examples=30, deadline=None)
def test_top_betti(kn):
    k, n = kn
    matrices = build_chain_complex(faces_by_dimension(squared_path(n), k))
    expected = [0] * (n - k - 1) + [beta_closed(k, n)]
    for prime in (2, 3):
        assert betti_numbers(matrices, prime) == expected, prime
