"""Homology oracle: prime fields, ranks, boundary matrices, Betti vectors.

The values frozen here were produced by an unrelated implementation
(rational-arithmetic row reduction over the full chain complex) before
this module existed, so agreement is evidence, not circularity.
"""

import random
import re
from itertools import combinations

import pytest

import cutcx.homology
from cutcx import (
    FIELD_SAMPLING_NOTE,
    HOMOLOGY_LIMIT,
    BoundaryMatrix,
    CapacityError,
    Graph,
    PrimeField,
    beta_closed,
    betti_numbers,
    build_chain_complex,
    composition_vanishes,
    f_vector_bruteforce,
    faces_by_dimension,
    is_prime,
    rank_mod_p,
    reduced_euler,
    squared_path,
    verify_concentration,
)


def complex_for(k: int, n: int) -> list[BoundaryMatrix]:
    return build_chain_complex(faces_by_dimension(squared_path(n), k))


class TestPrimality:
    def test_small_values(self):
        assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_carmichael_number_is_composite(self):
        assert not is_prime(561)

    def test_large_prime(self):
        assert is_prime(65521)
        assert not is_prime(65520)


class TestPrimeField:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrimeField(4)
        with pytest.raises(ValueError):
            PrimeField(1)
        with pytest.raises(ValueError):
            PrimeField(0)
        # 65537 is prime but past the modulus cap.
        with pytest.raises(ValueError):
            PrimeField(65537)
        assert PrimeField(65521).p == 65521

    def test_field_axioms_exhaustive_small(self):
        for p in (2, 3, 5, 7):
            field = PrimeField(p)
            for a in range(1, p):
                assert a * field.inv(a) % p == 1
                assert field.inv(a + p) == field.inv(a) == field.inv(a - p)

    def test_zero_has_no_inverse(self):
        field = PrimeField(7)
        with pytest.raises(ZeroDivisionError):
            field.inv(0)
        with pytest.raises(ZeroDivisionError):
            field.inv(14)

    def test_repr(self):
        assert repr(PrimeField(13)) == "PrimeField(13)"


def columns_of(rows: list[list[int]]) -> list[list[tuple[int, int]]]:
    """Column lists of (row, value) pairs for a dense row-major matrix."""
    ncols = len(rows[0]) if rows else 0
    return [[(i, row[j]) for i, row in enumerate(rows) if row[j]] for j in range(ncols)]


def dense_rank(rows: list[list[int]], p: int) -> int:
    """Reference rank over GF(p): Gauss-Jordan elimination on dense rows."""
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        scale = pow(a[rank][col], -1, p)
        a[rank] = [x * scale % p for x in a[rank]]
        for i, row in enumerate(a):
            if i != rank and row[col]:
                a[i] = [(x - row[col] * y) % p for x, y in zip(row, a[rank])]
        rank += 1
    return rank


def random_matrix(rng: random.Random, p: int) -> list[list[int]]:
    """Sparse-ish matrix mixing 0, +-1, multiples of p and large signed entries."""
    nrows, ncols = rng.randint(1, 11), rng.randint(1, 11)
    choices = (0, 0, 0, 1, -1, p, -2 * p, 3)
    return [
        [rng.choice(choices) if rng.random() < 0.7 else rng.randint(-(10**12), 10**12) for _ in range(ncols)]
        for _ in range(nrows)
    ]


PRIMES = (2, 3, 5, 7, 65521)


class TestRanks:
    def test_gf2_known(self):
        assert rank_mod_p([], 2) == 0
        assert rank_mod_p([[], []], 2) == 0
        assert rank_mod_p([[(0, 1)], [(1, 1)], [(2, 1)]], 2) == 3
        # Third column is the sum of the first two.
        assert rank_mod_p(columns_of([[1, 1, 0], [1, 0, 1], [0, 1, 1]]), 2) == 2

    def test_mod_p_known(self):
        eye = [[int(i == j) for j in range(4)] for i in range(4)]
        assert rank_mod_p(columns_of(eye), 3) == 4
        assert rank_mod_p(columns_of([[0] * 5] * 3), 5) == 0
        # det = -2, so the rank drops exactly over GF(2).
        m = columns_of([[1, 1], [1, -1]])
        assert rank_mod_p(m, 2) == 1
        assert rank_mod_p(m, 3) == 2
        assert rank_mod_p(m, 5) == 2

    def test_rank_drop_at_chosen_prime(self):
        m = columns_of([[1, 4], [2, 1]])  # det = -7
        assert rank_mod_p(m, 7) == 1
        assert rank_mod_p(m, 11) == 2

    def test_random_matrices_match_dense_reference(self):
        rng = random.Random(20240813)
        for p in PRIMES:
            for _ in range(60):
                rows = random_matrix(rng, p)
                assert rank_mod_p(columns_of(rows), p) == dense_rank(rows, p), (p, rows)

    def test_rank_bounded_by_shape(self):
        rng = random.Random(7)
        for p in PRIMES:
            rows = [[rng.randint(-p, p) for _ in range(9)] for _ in range(6)]
            assert rank_mod_p(columns_of(rows), p) <= 6

    def test_boundary_matrices_match_dense_reference(self):
        for n in range(4, 10):
            for k in range(2, n - 1):
                for m in complex_for(k, n):
                    rows = [[0] * m.ncols for _ in range(m.nrows)]
                    for j, col in enumerate(m.columns):
                        for i, sign in col:
                            rows[i][j] = sign
                    for p in PRIMES:
                        assert m.rank(p) == dense_rank(rows, p), (k, n, m.dim, p)


class TestChainComplexBuild:
    def test_single_point(self):
        matrices = build_chain_complex([[(1,)]])
        assert len(matrices) == 1
        assert matrices[0].nrows == 1 and matrices[0].ncols == 1
        assert matrices[0].columns == (((0, 1),),)
        assert betti_numbers(matrices, 2) == [0]

    def test_hollow_triangle(self):
        faces = [[(1,), (2,), (3,)], [(1, 2), (1, 3), (2, 3)]]
        matrices = build_chain_complex(faces)
        for p in (2, 3, 5):
            assert betti_numbers(matrices, p) == [0, 1]

    def test_solid_triangle(self):
        faces = [[(1,), (2,), (3,)], [(1, 2), (1, 3), (2, 3)], [(1, 2, 3)]]
        matrices = build_chain_complex(faces)
        assert betti_numbers(matrices, 2) == [0, 0, 0]

    def test_two_points(self):
        matrices = build_chain_complex([[(1,), (2,)]])
        assert betti_numbers(matrices, 2) == [1]

    def test_missing_subface_is_reported(self):
        with pytest.raises(ValueError, match=re.escape("(2,)")):
            build_chain_complex([[(1,)], [(1, 2)]])

    def test_wrong_cardinality_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            build_chain_complex([[(1, 2)]])

    def test_unsorted_tuple_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            build_chain_complex([[(1,), (2,)], [(2, 1)]])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_chain_complex([[(1,), (1,)]])

    def test_interior_empty_layer_rejected(self):
        with pytest.raises(ValueError, match="empty below"):
            build_chain_complex([[], [(1, 2)]])

    def test_trailing_empty_layers_trimmed(self):
        matrices = build_chain_complex([[(1,)], [], []])
        assert len(matrices) == 1

    def test_empty_input(self):
        assert build_chain_complex([]) == []
        assert betti_numbers([], 2) == []

    def test_column_entry_counts(self):
        for m in complex_for(4, 7):
            for col in m.columns:
                assert len(col) == m.dim + 1


class TestComposition:
    def test_vanishes_on_real_complexes(self):
        for k, n in ((4, 7), (3, 6), (2, 5), (3, 8)):
            assert composition_vanishes(complex_for(k, n))

    def test_broken_pair_is_caught(self):
        low = BoundaryMatrix(dim=0, nrows=1, ncols=2, columns=(((0, 1),), ((0, 1),)))
        # A 1-chain whose boundary is a single vertex cannot compose to zero.
        high = BoundaryMatrix(dim=1, nrows=2, ncols=1, columns=(((0, 1),),))
        assert not composition_vanishes([low, high])
        with pytest.raises(RuntimeError, match="composition"):
            betti_numbers([low, high], 2)


class TestFrozenBettiVectors:
    # Reduced Betti vectors confirmed by the throwaway rational-rank oracle.
    CASES = {
        (4, 7): [0, 0, 3],
        (3, 6): [0, 0, 1],
        (2, 5): [0, 0, 0],
        (5, 8): [0, 0, 6],
        (3, 8): [0, 0, 0, 0, 6],
        (4, 6): [0, 0],
        (2, 4): [0, 0],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_both_primes(self, case):
        k, n = case
        matrices = complex_for(k, n)
        for p in (2, 3):
            assert betti_numbers(matrices, p) == self.CASES[case], (k, n, p)

    def test_top_value_matches_closed_form(self):
        for (k, n), vec in self.CASES.items():
            assert vec[-1] == beta_closed(k, n)


class TestEulerConsistency:
    def test_alternating_betti_sum_equals_reduced_euler(self):
        for n in range(4, 10):
            for k in range(2, n - 1):
                betti = betti_numbers(complex_for(k, n), 2)
                total = sum((-1) ** i * b for i, b in enumerate(betti))
                fv = f_vector_bruteforce(squared_path(n), k)
                assert total == reduced_euler(fv), (k, n)


class TestConcentrationReport:
    def test_clean_case(self):
        report = verify_concentration(4, 7)
        assert report.ok
        assert report.r == 3
        assert report.expected_top == 3
        assert report.mismatches == ()
        assert report.betti_by_prime == {2: (0, 0, 3), 3: (0, 0, 3)}
        assert report.note == FIELD_SAMPLING_NOTE

    def test_gf3_reaches_n14(self):
        # A cost guard as well as a value check: a dense GF(3) elimination
        # at this size takes seconds and hundreds of MB.
        report = verify_concentration(6, 14, (2, 3))
        assert report.ok
        assert report.expected_top == 1087
        assert report.betti_by_prime[3] == (0,) * 7 + (1087,)

    def test_boundary_check_runs_once_for_all_primes(self, monkeypatch):
        calls = []
        original = cutcx.homology.composition_vanishes

        def counting(matrices):
            calls.append(len(matrices))
            return original(matrices)

        monkeypatch.setattr(cutcx.homology, "composition_vanishes", counting)
        report = verify_concentration(4, 8, (2, 3))
        assert report.ok
        assert report.betti_by_prime == {2: (0, 0, 0, 11), 3: (0, 0, 0, 11)}
        assert len(calls) == 1

    def test_vanishing_case(self):
        report = verify_concentration(2, 5)
        assert report.ok
        assert report.expected_top == 0
        assert report.betti_by_prime[2] == (0, 0, 0)

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            verify_concentration(4, 7, primes=(4,))
        with pytest.raises(ValueError):
            verify_concentration(4, 7, primes=())

    def test_range_validation(self):
        with pytest.raises(ValueError):
            verify_concentration(1, 5)
        with pytest.raises(ValueError):
            verify_concentration(4, 5)

    def test_capacity_refused_before_any_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("faces enumerated past the homology limit")

        monkeypatch.setattr(cutcx.homology, "faces_by_dimension", refuse)
        with pytest.raises(CapacityError, match=f"n <= {HOMOLOGY_LIMIT}"):
            verify_concentration(4, HOMOLOGY_LIMIT + 1)


def uncleared_betti(matrices: list[BoundaryMatrix], p: int) -> list[int]:
    """Reduced Betti numbers from per-matrix ranks with no column skipped."""
    ranks = [rank_mod_p(m.columns, p) for m in matrices] + [0]
    return [m.ncols - ranks[i] - ranks[i + 1] for i, m in enumerate(matrices)]


class TestClearing:
    """Top-down ranks skip the columns cleared by the boundary one dimension up."""

    def test_squared_paths_match_uncleared_ranks(self):
        for n in range(4, 11):
            for k in range(2, n + 1):
                matrices = complex_for(k, n)
                for p in PRIMES:
                    assert betti_numbers(matrices, p) == uncleared_betti(matrices, p), (k, n, p)

    def test_random_graphs_match_uncleared_ranks(self):
        rng = random.Random(20261018)
        spread = 0
        for n in range(4, 10):
            for density in (0.2, 0.4, 0.6, 0.8):
                g = Graph(n, [(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < density])
                for k in range(2, n + 1):
                    matrices = build_chain_complex(faces_by_dimension(g, k))
                    for p in PRIMES:
                        betti = betti_numbers(matrices, p)
                        assert betti == uncleared_betti(matrices, p), (g, k, p)
                    spread += sum(1 for b in betti if b) >= 2
        # The draw must include complexes with homology in several dimensions.
        assert spread >= 2

    def test_concentrated_complex_feeds_only_rank_many_columns(self, monkeypatch):
        # k=6, n=14: homology only at the top, so below it each boundary's
        # cleared columns are exactly those that would reduce to zero.
        fed: list[tuple[int, int]] = []
        original = cutcx.homology._pivot_rows

        def counting(columns, p):
            columns = list(columns)
            rows = original(columns, p)
            fed.append((len(columns), len(rows)))
            return rows

        monkeypatch.setattr(cutcx.homology, "_pivot_rows", counting)
        matrices = complex_for(6, 14)
        for p in (2, 3):
            fed.clear()
            assert betti_numbers(matrices, p) == [0] * 7 + [1087]
            fed.reverse()  # ranks run from the top dimension down
            assert len(fed) == len(matrices)
            assert fed[-1][0] == matrices[-1].ncols
            assert all(columns == rank for columns, rank in fed[:-1]), (p, fed)
            skipped = [m.ncols - columns for m, (columns, _) in zip(matrices, fed)]
            assert skipped[4:6] == [1287, 1716]
