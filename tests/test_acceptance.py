"""Acceptance gate: one criterion per test, one PASS/FAIL line per criterion.

Each criterion is checked exactly, never approximately, and the stated
runtime budgets are asserted alongside the values.  A failure prints a
FAIL line and re-raises, so the gate can never pass silently.
"""

import time

from cutcx import (
    backward_difference,
    beta_closed,
    beta_k4,
    beta_k5,
    betti_numbers,
    binom,
    build_chain_complex,
    diagonal_genfun,
    diagonal_poly,
    f_vector_bruteforce,
    face_enumerator_closed,
    faces_by_dimension,
    h_polynomial,
    hilbert_series,
    q_profile_bruteforce,
    q_profile_closed,
    sharp_difference,
    squared_path,
    verify_concentration,
    verify_recurrence,
)
from cutcx.cli import main as cli_main

# Independent freeze of the diagonal reference grid, r rows 3..6, k columns 3..10.
REFERENCE_GRID = {
    3: (1, 3, 6, 10, 15, 21, 28, 36),
    4: (3, 11, 26, 50, 85, 133, 196, 276),
    5: (6, 25, 67, 145, 275, 476, 770, 1182),
    6: (10, 46, 136, 324, 674, 1274, 2240, 3720),
}


def report(capsys, label, body):
    """Run one criterion body, then print its single PASS/FAIL line."""
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"PASS {label} [{elapsed:.2f}s]")


def test_criterion_01_reference_table(capsys):
    def body():
        start = time.perf_counter()
        code = cli_main(["table", "--no-timing"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        ks = [int(v) for v in lines[0].split()[1:]]
        assert ks == list(range(3, 11))
        seen = {}
        for line in lines[1:]:
            cells = [int(v) for v in line.split()]
            seen[cells[0]] = tuple(cells[1:])
        assert seen == REFERENCE_GRID
        assert sum(len(row) for row in seen.values()) == 32
        assert time.perf_counter() - start < 1.0

    report(capsys, "criterion 1: CLI table reproduces all 32 reference entries in under 1s", body)


def test_criterion_02_profile_equivalence(capsys):
    def body():
        start = time.perf_counter()
        for n in range(4, 15):
            graph = squared_path(n)
            for k in range(2, n - 1):
                brute = q_profile_bruteforce(graph, k)
                closed = q_profile_closed(k, n)
                assert brute.counts == closed.counts, (k, n)
        assert time.perf_counter() - start < 60.0

    report(capsys, "criterion 2: brute-force bad-set profiles equal closed profiles, n <= 14, under 60s", body)


def test_criterion_03_face_enumerator_equivalence(capsys):
    def body():
        for n in range(4, 15):
            graph = squared_path(n)
            for k in range(2, n - 1):
                fv = f_vector_bruteforce(graph, k)
                assert not fv.is_void
                assert list(fv.counts) == face_enumerator_closed(k, n).coeff_list(), (k, n)
                assert all(fv.f(p) == binom(n, p) for p in range(n - k - 1)), (k, n)

    report(capsys, "criterion 3: brute-force face counts equal closed enumerator and the low skeleton is complete, n <= 14", body)


def test_criterion_04_homology_concentration(capsys):
    def body():
        start = time.perf_counter()
        failures = []
        for n in range(5, 13):
            for k in range(2, n - 2):
                rep = verify_concentration(k, n, primes=(2, 3))
                if not rep.ok:
                    failures.extend(rep.mismatches)
        assert not failures, failures
        assert time.perf_counter() - start < 300.0

    report(capsys, "criterion 4: GF(2)/GF(3) homology concentrated on top with the closed Betti value, n <= 12, under 5min", body)


def test_criterion_05_recurrence(capsys):
    def body():
        for r in range(3, 9):
            assert backward_difference(diagonal_poly(r), r).is_zero, r
            cert = verify_recurrence(r, 40)
            assert cert.symbolic_zero and cert.ok, r
            assert max(e.k for e in cert.entries) == 40

    report(capsys, "criterion 5: order-r backward difference kills each diagonal, symbolically and numerically to k=40, r=3..8", body)


def test_criterion_06_sharpness(capsys):
    def body():
        for r in range(3, 13):
            assert sharp_difference(r) == r - 2, r

    report(capsys, "criterion 6: order r-1 backward difference is the constant r-2, r=3..12", body)


def test_criterion_07_closed_forms_k4_k5(capsys):
    def body():
        assert beta_k4(7) == 3
        assert beta_k5(8) == 6
        for n in range(7, 61):
            assert beta_k4(n) == beta_closed(4, n), n
        for n in range(8, 61):
            assert beta_k5(n) == beta_closed(5, n), n

    report(capsys, "criterion 7: binomial-basis forms at k=4 and k=5 match the closed form up to n=60", body)


def test_criterion_08_generating_functions(capsys):
    def body():
        assert diagonal_genfun(3).numerator.coeff_list() == [0, 0, 0, 1]
        assert diagonal_genfun(4).numerator.coeff_list() == [0, 0, 0, 3, -1]
        assert diagonal_genfun(5).numerator.coeff_list() == [0, 0, 0, 6, -5, 2]
        for r in range(3, 9):
            gf = diagonal_genfun(r)
            assert gf.is_canonical
            series = gf.series(51)
            poly = diagonal_poly(r)
            assert series[1:] == [poly(k) for k in range(1, 51)], r

    report(capsys, "criterion 8: canonical diagonal genfun numerators frozen for r=3,4,5 and series match to k=50", body)


def test_criterion_09_h_polynomial_and_hilbert(capsys):
    def body():
        for n in range(4, 41):
            for k in range(2, n - 1):
                h = h_polynomial(k, n)
                assert h.coefficient(n - k) == beta_closed(k, n), (k, n)
        for n in range(5, 41):
            for k in range(2, n - 2):
                assert hilbert_series(k, n).series(2)[1] == n, (k, n)
        # At the r=2 boundary two vertices drop out of the complex.
        for k in range(2, 20):
            assert hilbert_series(k, k + 2).series(2)[1] == k

    report(capsys, "criterion 9: h-polynomial tops out at the closed Betti number (n <= 40) and the Hilbert t^1 term counts the n vertices for r >= 3", body)


def test_criterion_10_boundary_case(capsys):
    def body():
        for k in range(2, 41):
            assert beta_closed(k, k + 2) == 0, k
        for k in range(2, 10):
            matrices = build_chain_complex(faces_by_dimension(squared_path(k + 2), k))
            for p in (2, 3):
                vec = betti_numbers(matrices, p)
                assert vec and all(b == 0 for b in vec), (k, p, vec)

    report(capsys, "criterion 10: the r=2 diagonal vanishes, closed form to k=40 and homology for k <= 9", body)
