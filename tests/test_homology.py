"""Homology oracle: prime fields, ranks, boundary matrices, Betti vectors.

The values frozen here were produced by an unrelated implementation
(rational-arithmetic row reduction over the full chain complex) before
this module existed, so agreement is evidence, not circularity.
"""

import random
import re
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cutcx.homology
from cutcx import (
    HOMOLOGY_LIMIT,
    BoundaryMatrix,
    CapacityError,
    Graph,
    beta_closed,
    betti_numbers,
    build_chain_complex,
    composition_vanishes,
    f_vector_bruteforce,
    faces_by_dimension,
    integral_betti,
    is_prime,
    rank_mod_p,
    reduced_euler,
    require_prime,
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


class TestRequirePrime:
    def test_validation(self):
        for p in (4, 1, 0, 65537):  # 65537 is prime but past the modulus cap
            with pytest.raises(ValueError):
                require_prime(p)
        assert require_prime(65521) == 65521

    def test_huge_modulus_refused_before_trial_division(self, monkeypatch):
        # Trial division of 2^61 - 1 would take about 1.5e9 steps.
        def refuse(p):
            raise AssertionError(f"is_prime({p}) called before the bound check")

        monkeypatch.setattr(cutcx.homology, "is_prime", refuse)
        with pytest.raises(ValueError):
            require_prime(2**61 - 1)

    def test_every_public_entry_refuses_a_non_prime(self):
        empty = BoundaryMatrix(dim=1, nrows=0, ncols=0, columns=())
        for call in (lambda: rank_mod_p([], 4), lambda: empty.rank(4), lambda: betti_numbers([], 4),
                     lambda: verify_concentration(4, 7, primes=(2, 4))):
            with pytest.raises(ValueError, match="prime below 2"):
                call()


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


FAULT_COMPLEXES = {
    "P6^2 k=3": faces_by_dimension(squared_path(6), 3),
    "tetrahedron boundary": [list(combinations(range(1, 5), m)) for m in (1, 2, 3)],
}
# One fault planted at position i of layer d.
PLANT = {
    "drop": lambda layer, i: layer[:i] + layer[i + 1 :],
    "duplicate": lambda layer, i: layer[: i + 1] + layer[i:],
    "reverse": lambda layer, i: layer[:i] + [layer[i][::-1]] + layer[i + 1 :],
    "lengthen": lambda layer, i: layer[:i] + [layer[i] + (9,)] + layer[i + 1 :],
    "empty": lambda layer, i: [],
}
# (complex, fault, d, i, the build's error text).  The texts are frozen:
# the vertex layer is checked by the same code as every other layer, and
# must name the same witnesses.
BUILD_FAULTS = [
    ("P6^2 k=3", "drop", 0, 0, "not downward closed: face (1, 3) present but subface (1,) missing"),
    ("P6^2 k=3", "drop", 1, -1, "not downward closed: face (3, 4, 6) present but subface (4, 6) missing"),
    ("P6^2 k=3", "duplicate", 0, -1, "duplicate faces in dimension 0"),
    ("P6^2 k=3", "duplicate", 2, 0, "duplicate faces in dimension 2"),
    ("P6^2 k=3", "reverse", 1, 0, "dimension 1 face (3, 1) is not a strictly increasing 2-tuple"),
    ("P6^2 k=3", "reverse", 2, -1, "dimension 2 face (6, 4, 3) is not a strictly increasing 3-tuple"),
    ("P6^2 k=3", "lengthen", 0, 0, "dimension 0 face (1, 9) is not a strictly increasing 1-tuple"),
    ("P6^2 k=3", "lengthen", 2, -1, "dimension 2 face (3, 4, 6, 9) is not a strictly increasing 3-tuple"),
    ("P6^2 k=3", "empty", 0, 0, "dimension 0 is empty below a populated dimension"),
    ("P6^2 k=3", "empty", 1, 0, "dimension 1 is empty below a populated dimension"),
    ("tetrahedron boundary", "drop", 0, -1, "not downward closed: face (1, 4) present but subface (4,) missing"),
    ("tetrahedron boundary", "drop", 1, 0, "not downward closed: face (1, 2, 3) present but subface (1, 2) missing"),
    ("tetrahedron boundary", "duplicate", 0, 0, "duplicate faces in dimension 0"),
    ("tetrahedron boundary", "duplicate", 1, -1, "duplicate faces in dimension 1"),
    ("tetrahedron boundary", "reverse", 1, -1, "dimension 1 face (4, 3) is not a strictly increasing 2-tuple"),
    ("tetrahedron boundary", "reverse", 2, 0, "dimension 2 face (3, 2, 1) is not a strictly increasing 3-tuple"),
    ("tetrahedron boundary", "lengthen", 0, -1, "dimension 0 face (4, 9) is not a strictly increasing 1-tuple"),
    ("tetrahedron boundary", "lengthen", 1, 0, "dimension 1 face (1, 2, 9) is not a strictly increasing 2-tuple"),
    ("tetrahedron boundary", "empty", 0, 0, "dimension 0 is empty below a populated dimension"),
    ("tetrahedron boundary", "empty", 1, 0, "dimension 1 is empty below a populated dimension"),
]


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
        faces = [[(1,), (2,), (3,)], [(1, 2), (2, 3)], [(1, 2, 3)]]
        with pytest.raises(ValueError, match=re.escape("face (1, 2, 3) present but subface (1, 3) missing")):
            build_chain_complex(faces)

    def test_wrong_cardinality_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            build_chain_complex([[(1, 2)]])

    def test_unsorted_tuple_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            build_chain_complex([[(1,), (2,)], [(2, 1)]])
        with pytest.raises(ValueError, match="strictly increasing"):
            build_chain_complex([[(1,), (2,), (3,)], [(1, 2), (1, 3), (2, 3)], [(1, 3, 2)]])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_chain_complex([[(1,), (1,)]])
        with pytest.raises(ValueError, match="duplicate"):
            build_chain_complex([[(1,), (2,)], [(1, 2), (1, 2)]])
        with pytest.raises(ValueError, match="duplicate"):
            build_chain_complex([[(1,), (2,), (3,)], [(1, 2), (1, 3), (2, 3)], [(1, 2, 3), (1, 2, 3)]])

    def test_interior_empty_layer_rejected(self):
        with pytest.raises(ValueError, match="empty below"):
            build_chain_complex([[], [(1, 2)]])

    def test_trailing_empty_layers_trimmed(self):
        matrices = build_chain_complex([[(1,)], [], []])
        assert len(matrices) == 1

    def test_empty_input(self):
        assert build_chain_complex([]) == []
        assert betti_numbers([], 2) == []

    @pytest.mark.parametrize("name, fault, d, i, text", BUILD_FAULTS)
    def test_planted_fault_names_its_witness(self, name, fault, d, i, text):
        layers = [list(layer) for layer in FAULT_COMPLEXES[name]]
        layers[d] = PLANT[fault](layers[d], i % len(layers[d]))
        with pytest.raises(ValueError) as exc:
            build_chain_complex(layers)
        assert str(exc.value) == text

    @pytest.mark.parametrize("name", FAULT_COMPLEXES)
    def test_empty_face_is_the_one_row_below_the_vertices(self, name):
        vertices = build_chain_complex(FAULT_COMPLEXES[name])[0]
        assert vertices.nrows == 1
        assert vertices.columns == (((0, 1),),) * vertices.ncols

    def test_column_entry_counts(self):
        for m in complex_for(4, 7):
            for col in m.columns:
                assert len(col) == m.dim + 1

    def test_columns_match_slicing_reference_on_squared_paths(self):
        for n in range(2, 11):
            for k in range(2, n + 1):
                faces = faces_by_dimension(squared_path(n), k)
                assert sorted_columns(build_chain_complex(faces)) == reference_columns(faces), (k, n)

    def test_columns_match_slicing_reference_on_random_complexes(self):
        rng = random.Random(20261019)
        for _ in range(60):
            n = rng.randint(1, 8)
            faces = random_complex(rng, n)
            assert sorted_columns(build_chain_complex(faces)) == reference_columns(faces), faces


def random_complex(rng: random.Random, n: int) -> list[list[tuple[int, ...]]]:
    """Faces by dimension of the complex generated by a few random facets on 1..n."""
    facets = [tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))) for _ in range(rng.randint(1, 4))]
    faces = {sub for f in facets for size in range(1, len(f) + 1) for sub in combinations(f, size)}
    return [sorted(f for f in faces if len(f) == d + 1) for d in range(max(map(len, facets)))]


def reference_columns(faces_by_dim: list[list[tuple[int, ...]]]) -> list[list[list[tuple[int, int]]]]:
    """Sorted boundary columns: the face without its vertex at position pos, signed (-1)^pos."""
    out = []
    for d, layer in enumerate(faces_by_dim):
        if d == 0:
            out.append([[(0, 1)] for _ in layer])
            continue
        index = {f: i for i, f in enumerate(faces_by_dim[d - 1])}
        out.append([sorted((index[f[:pos] + f[pos + 1 :]], (-1) ** pos) for pos in range(d + 1)) for f in layer])
    return out


def sorted_columns(matrices: list[BoundaryMatrix]) -> list[list[list[tuple[int, int]]]]:
    """Each column's (row, sign) pairs, sorted, so the order within a column does not count."""
    return [[sorted(col) for col in m.columns] for m in matrices]


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

    def test_one_flipped_sign_is_caught(self):
        matrices = complex_for(3, 7)
        d2 = matrices[2]
        assert composition_vanishes(matrices)
        for j in (0, d2.ncols // 2, d2.ncols - 1):
            for e in range(len(d2.columns[j])):
                col = list(d2.columns[j])
                row, sign = col[e]
                col[e] = (row, -sign)
                columns = d2.columns[:j] + (tuple(col),) + d2.columns[j + 1 :]
                broken = [*matrices[:2], replace(d2, columns=columns), *matrices[3:]]
                assert not composition_vanishes(broken), (j, e)
                assert not reference_vanishes(broken), (j, e)

    def test_integer_entries_match_dict_accumulation(self):
        # Entries of 2, repeated rows and zero entries, on real boundaries
        # rewritten so that dd = 0 still holds, and on perturbed ones.
        matrices = complex_for(3, 6)
        low, high = matrices[1], matrices[2]
        doubled = replace(high, columns=tuple(tuple((i, 2 * s) for i, s in col) for col in high.columns))
        repeated = replace(low, columns=tuple(((i, 2 * s), (i, -s), *rest) for (i, s), *rest in low.columns))
        zeroed = replace(high, columns=tuple((*col, (col[0][0], 0)) for col in high.columns))
        tripled_low = replace(low, columns=tuple(tuple((i, 3 * s) for i, s in col) for col in low.columns))
        cases = [
            [low, doubled],
            [repeated, high],
            [low, zeroed],
            [tripled_low, doubled],
            [repeated, zeroed],
        ]
        for pair in cases:
            assert composition_vanishes(pair) and reference_vanishes(pair)
        rng = random.Random(20261020)
        for _ in range(200):
            pair = random_pair(rng)
            assert composition_vanishes(pair) == reference_vanishes(pair), pair
        for pair in cases:
            for _ in range(20):
                a, b = pair
                j = rng.randrange(b.ncols)
                col = list(b.columns[j])
                e = rng.randrange(len(col))
                col[e] = (col[e][0], col[e][1] + rng.choice((-2, -1, 1, 2)))
                bumped = [a, replace(b, columns=b.columns[:j] + (tuple(col),) + b.columns[j + 1 :])]
                assert composition_vanishes(bumped) == reference_vanishes(bumped), bumped


def reference_vanishes(matrices: list[BoundaryMatrix]) -> bool:
    """Boundary composition over the integers, by dict accumulation per column."""
    for low, high in zip(matrices, matrices[1:]):
        for col in high.columns:
            acc: dict[int, int] = {}
            for mid_row, sign in col:
                for out_row, inner_sign in low.columns[mid_row]:
                    acc[out_row] = acc.get(out_row, 0) + sign * inner_sign
            if any(acc.values()):
                return False
    return True


def random_pair(rng: random.Random) -> list[BoundaryMatrix]:
    """Two small composable matrices with entries in -2..2 and rows that may repeat."""
    nrows, nmid, ncols = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
    values = (-2, -1, -1, 0, 1, 1, 2)

    def columns(count: int, rows: int) -> tuple:
        return tuple(
            tuple((rng.randrange(rows), rng.choice(values)) for _ in range(rng.randint(0, 4))) for _ in range(count)
        )

    low = BoundaryMatrix(dim=1, nrows=nrows, ncols=nmid, columns=columns(nmid, nrows))
    high = BoundaryMatrix(dim=2, nrows=nmid, ncols=ncols, columns=columns(ncols, nmid))
    return [low, high]


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
        assert report.torsion_free

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

    def test_integer_kernel_clears_the_same_columns(self, monkeypatch):
        # The twin of the test above for the unit-pivot reduction over the integers.
        fed: list[tuple[int, int]] = []
        original = cutcx.homology._unit_pivot_rows

        def counting(columns):
            columns = list(columns)
            rows = original(columns)
            fed.append((len(columns), len(rows)))
            return rows

        monkeypatch.setattr(cutcx.homology, "_unit_pivot_rows", counting)
        matrices = complex_for(6, 14)
        assert integral_betti(matrices) == [0] * 7 + [1087]
        fed.reverse()
        assert len(fed) == len(matrices)
        assert fed[-1][0] == matrices[-1].ncols
        assert all(columns == rank for columns, rank in fed[:-1]), fed
        skipped = [m.ncols - columns for m, (columns, _) in zip(matrices, fed)]
        assert skipped[4:6] == [1287, 1716]


# The 6-vertex real projective plane: H_1 = Z/2, so its reduced Betti numbers
# are 0, 1, 1 over GF(2) and 0, 0, 0 over every odd prime.
RP2_TRIANGLES = [(1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 5, 6),
                 (2, 3, 5), (2, 3, 6), (2, 4, 5), (3, 4, 6), (4, 5, 6)]


def rp2() -> list[BoundaryMatrix]:
    edges = sorted({e for t in RP2_TRIANGLES for e in combinations(t, 2)})
    return build_chain_complex([[(v,) for v in range(1, 7)], edges, RP2_TRIANGLES])


# Dense matrices with entries in {-1, 0, 1}, given row by row.
unit_entry_matrices = st.integers(1, 7).flatmap(
    lambda ncols: st.lists(st.lists(st.sampled_from((-1, 0, 0, 1)), min_size=ncols, max_size=ncols),
                           min_size=1, max_size=7)
)


class TestIntegralBetti:
    """One reduction over the integers, admitting only unit pivots, against the per-prime ranks."""

    def test_planted_torsion_is_undecided(self):
        matrices = rp2()
        assert integral_betti(matrices) is None
        assert betti_numbers(matrices, 2) == [0, 1, 1]
        assert betti_numbers(matrices, 3) == [0, 0, 0]

    def test_squared_paths_are_decided(self):
        for n in range(4, 13):
            for k in range(2, n + 1):
                matrices = complex_for(k, n)
                betti = integral_betti(matrices)
                assert betti is not None, (k, n)
                assert betti == betti_numbers(matrices, 2) == betti_numbers(matrices, 3), (k, n)

    def test_random_graphs_match_every_prime(self):
        rng = random.Random(20261019)
        total = undecided = 0
        wrong = []
        for n in range(4, 10):
            for density in (0.2, 0.4, 0.6, 0.8):
                g = Graph(n, [(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < density])
                for k in range(2, n + 1):
                    matrices = build_chain_complex(faces_by_dimension(g, k))
                    betti = integral_betti(matrices)
                    total += 1
                    if betti is None:
                        undecided += 1
                    elif any(betti != betti_numbers(matrices, p) for p in (2, 3, 5)):
                        wrong.append((g, k))
        assert not wrong, f"{len(wrong)} of {total} disagree, {undecided} undecided: {wrong[:3]}"
        assert undecided < total, f"{undecided} of {total} undecided"

    @given(unit_entry_matrices)
    @settings(max_examples=200)
    def test_decided_rank_is_the_rank_over_every_prime(self, rows):
        columns = columns_of(rows)
        pivots = cutcx.homology._unit_pivot_rows(columns)
        if pivots is not None:
            assert [len(pivots)] * 4 == [rank_mod_p(columns, p) for p in (2, 3, 5, 7)]

    @given(unit_entry_matrices, st.data())
    @settings(max_examples=100)
    def test_an_entry_of_two_is_undecided(self, rows, data):
        i = data.draw(st.integers(0, len(rows) - 1), label="row")
        j = data.draw(st.integers(0, len(rows[0]) - 1), label="column")
        rows[i][j] = data.draw(st.sampled_from((2, -2)), label="entry")
        assert cutcx.homology._unit_pivot_rows(columns_of(rows)) is None

    def test_a_step_that_makes_a_two_is_undecided(self):
        # det = 2: subtracting the first column leaves -2 in row 0 of the second.
        assert cutcx.homology._unit_pivot_rows(columns_of([[1, -1], [1, 1]])) is None
        # det = -2: adding the first column leaves 2 in row 0 of the second.
        assert cutcx.homology._unit_pivot_rows(columns_of([[1, 1], [1, -1]])) is None
        # det = 1, with a first pivot that leads with -1 and is stored negated.
        assert cutcx.homology._unit_pivot_rows(columns_of([[1, 0], [-1, 1]])) == {0, 1}

    @staticmethod
    def one_column(*entries):
        return [BoundaryMatrix(dim=0, nrows=2, ncols=1, columns=(entries,))]

    def test_a_row_listed_twice_is_undecided(self):
        # Row 0 listed twice holds 2: GF(2) sees a zero column, GF(3) a unit.
        twice = self.one_column((0, 1), (0, 1))
        assert integral_betti(twice) is None
        assert betti_numbers(twice, 2) == [1]
        assert betti_numbers(twice, 3) == [0]
        # Listed with opposite signs, the row holds 0; the integers still refuse it.
        assert integral_betti(self.one_column((0, 1), (0, -1))) is None

    def test_a_zero_entry_is_skipped(self):
        assert integral_betti(self.one_column((0, 1), (1, 0))) == [0]
        assert integral_betti(self.one_column((0, 1))) == [0]

    def test_checks_boundary_composition(self):
        assert integral_betti([]) == []
        low = BoundaryMatrix(dim=0, nrows=1, ncols=2, columns=(((0, 1),), ((0, 1),)))
        high = BoundaryMatrix(dim=1, nrows=2, ncols=1, columns=(((0, 1),),))
        with pytest.raises(RuntimeError, match="composition"):
            integral_betti([low, high])

    def test_report_is_torsion_free_when_decided(self):
        report = verify_concentration(4, 8, (2, 3, 5, 7))
        assert report.ok and report.torsion_free
        assert report.betti_by_prime == {p: (0, 0, 0, 11) for p in (2, 3, 5, 7)}

    def test_undecided_falls_back_to_each_prime(self, monkeypatch):
        ranked = []
        original = cutcx.homology._pivot_rows

        def counting(columns, p):
            ranked.append(p)
            return original(columns, p)

        monkeypatch.setattr(cutcx.homology, "_unit_pivot_rows", lambda columns: None)
        monkeypatch.setattr(cutcx.homology, "_pivot_rows", counting)
        report = verify_concentration(4, 8, (2, 3))
        assert report.ok and not report.torsion_free
        assert report.betti_by_prime == {2: (0, 0, 0, 11), 3: (0, 0, 0, 11)}
        assert sorted(set(ranked)) == [2, 3]

    def test_undecided_below_the_top_is_undecided(self, monkeypatch):
        # The top boundary is decided and the one below it is not: the whole
        # integer pass is undecided, and the report falls back to each prime.
        original = cutcx.homology._unit_pivot_rows

        def second_call_undecided():
            calls = []

            def reduce(columns):
                calls.append(len(columns))
                return None if len(calls) == 2 else original(columns)

            monkeypatch.setattr(cutcx.homology, "_unit_pivot_rows", reduce)
            return calls

        calls = second_call_undecided()
        assert integral_betti(complex_for(4, 8)) is None
        assert len(calls) == 2
        second_call_undecided()
        report = verify_concentration(4, 8, (2, 3))
        assert report.ok and not report.torsion_free
        assert report.betti_by_prime == {2: (0, 0, 0, 11), 3: (0, 0, 0, 11)}
