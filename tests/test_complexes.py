"""Cut-complex faces, f-vectors, closed enumerators, and nonface layers.

Core claims: the complement criterion generates a simplicial complex
whose facets all have cardinality n-k, the brute-force f-vector agrees
with the closed enumerator on squared paths, the reduced Euler
characteristic matches the signed closed form, and the two constructed
nonface layers are exactly the nonfaces at cardinalities r-1 and r.
"""

import random
from itertools import combinations

import pytest

import cutcx.complements
from cutcx import (
    FVector,
    Graph,
    binom,
    complete_graph,
    disconnected_k_sets,
    f_vector_bruteforce,
    face_enumerator_closed,
    faces_by_dimension,
    is_face,
    nonface_layers,
    reduced_euler,
    squared_path,
    z_count,
)
from cutcx.graphs import CapacityError


class TestDisconnectedSets:
    def test_frozen_small_case(self):
        assert disconnected_k_sets(squared_path(5), 2) == [(1, 4), (1, 5), (2, 5)]

    def test_count_and_order(self):
        sets = disconnected_k_sets(squared_path(7), 4)
        assert len(sets) == 15
        assert sets == sorted(sets)
        assert len(sets) == binom(7, 4) - z_count(4, 7)

    def test_void_when_graph_complete(self):
        assert disconnected_k_sets(complete_graph(5), 2) == []

    def test_k_below_two_refused(self):
        with pytest.raises(ValueError, match="need 2 <= k <= n, got k=1"):
            disconnected_k_sets(squared_path(5), 1)


class TestIsFace:
    def test_examples(self):
        g = squared_path(7)
        assert is_face(g, 4, ())
        assert not is_face(g, 4, (5, 6, 7))
        assert not is_face(g, 4, (1, 2, 3))
        assert is_face(g, 4, (4, 5, 6))
        assert not is_face(g, 4, (1, 2, 4))
        assert not is_face(squared_path(6), 4, (6,))

    def test_faces_never_exceed_complement_bound(self):
        g = squared_path(8)
        assert not is_face(g, 3, (1, 2, 3, 4, 5, 6))

    def test_validation(self):
        with pytest.raises(ValueError):
            is_face(squared_path(5), 1, (1,))
        with pytest.raises(ValueError):
            is_face(squared_path(5), 2, (9,))

    def test_downward_closed_exhaustively(self):
        for n in range(4, 11):
            g = squared_path(n)
            for k in range(2, n - 1):
                faces = {
                    f
                    for p in range(0, n - k + 1)
                    for f in combinations(range(1, n + 1), p)
                    if is_face(g, k, f)
                }
                for f in faces:
                    for sub in combinations(f, max(len(f) - 1, 0)):
                        assert sub in faces, (k, n, f, sub)


class TestFVector:
    def test_frozen_vectors(self):
        assert f_vector_bruteforce(squared_path(7), 4).counts == (1, 7, 18, 15)
        assert f_vector_bruteforce(squared_path(6), 4).counts == (1, 4, 3)
        assert f_vector_bruteforce(squared_path(6), 3).counts == (1, 6, 12, 8)

    def test_void_complex(self):
        fv = f_vector_bruteforce(complete_graph(5), 2)
        assert fv.is_void
        assert fv.f(0) == 0
        assert fv.max_cardinality == -1
        assert reduced_euler(fv) == 0

    def test_empty_face_only_complex(self):
        # k = n on a disconnected graph: the only face is the empty set.
        fv = f_vector_bruteforce(Graph(4, []), 4)
        assert fv.counts == (1,)
        assert reduced_euler(fv) == -1

    def test_accessors(self):
        fv = f_vector_bruteforce(squared_path(7), 4)
        assert fv.f(0) == 1 and fv.f(3) == 15 and fv.f(9) == 0
        assert fv.max_cardinality == 3


class TestClosedEnumerator:
    def test_frozen_polynomials(self):
        assert face_enumerator_closed(4, 7).coeff_list() == [1, 7, 18, 15]
        assert face_enumerator_closed(5, 8).coeff_list() == [1, 8, 25, 24]
        assert face_enumerator_closed(2, 4).coeff_list() == [1, 2, 1]

    def test_coefficient_structure(self):
        # Binomials below r-1, then the run and connected-set corrections.
        k, n = 3, 9
        r = n - k
        poly = face_enumerator_closed(k, n)
        for p in range(r - 1):
            assert poly.coefficient(p) == binom(n, p)
        assert poly.coefficient(r - 1) == binom(n, r - 1) - r
        assert poly.coefficient(r) == binom(n, r) - z_count(k, n)

    def test_matches_bruteforce(self):
        for n in range(4, 12):
            for k in range(2, n - 1):
                fv = f_vector_bruteforce(squared_path(n), k)
                assert list(fv.counts) == face_enumerator_closed(k, n).coeff_list(), (k, n)

    def test_integer_coefficients(self):
        assert all(type(c) is int for c in face_enumerator_closed(6, 13).coeffs)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            face_enumerator_closed(4, 5)
        with pytest.raises(ValueError):
            face_enumerator_closed(1, 5)


class TestReducedEuler:
    def test_signed_closed_form(self):
        for n in range(4, 13):
            for k in range(2, n - 1):
                r = n - k
                fv = f_vector_bruteforce(squared_path(n), k)
                want = (-1) ** (r - 1) * (binom(n - 1, r) - z_count(k, n) + r)
                assert reduced_euler(fv) == want, (k, n)
                assert reduced_euler(fv) == -face_enumerator_closed(k, n)(-1)

    def test_vanishes_at_codimension_two(self):
        for k in range(2, 9):
            fv = f_vector_bruteforce(squared_path(k + 2), k)
            assert reduced_euler(fv) == 0


class TestNonfaceLayers:
    def test_frozen_case(self):
        layers = nonface_layers(4, 7)
        assert layers.level_rminus1 == ((6, 7), (1, 7), (1, 2))
        assert [len(g) for g in layers.level_r_by_j] == [4, 9, 6, 1]
        assert sum(len(g) for g in layers.level_r_by_j) == z_count(4, 7)

    def test_layer_sizes(self):
        for n in range(5, 13):
            for k in range(2, n - 1):
                r = n - k
                layers = nonface_layers(k, n)
                assert len(layers.level_rminus1) == r
                for j, group in enumerate(layers.level_r_by_j):
                    assert len(group) == binom(k - 1, j) * (r - j + 1), (k, n, j)

    def test_layers_are_exactly_the_nonfaces(self):
        # The two levels list every nonface at cardinalities r-1 and r.
        for n in range(5, 15):
            g = squared_path(n)
            for k in range(2, n - 1):
                r = n - k
                layers = nonface_layers(k, n)
                nf_rm1 = {
                    f
                    for f in combinations(range(1, n + 1), r - 1)
                    if not is_face(g, k, f)
                }
                nf_r = {
                    f for f in combinations(range(1, n + 1), r) if not is_face(g, k, f)
                }
                assert set(layers.level_rminus1) == nf_rm1, (k, n)
                assert {s for g in layers.level_r_by_j for s in g} == nf_r, (k, n)


class TestFacesByDimension:
    def test_counts_match_f_vector(self):
        faces = faces_by_dimension(squared_path(7), 4)
        assert [len(layer) for layer in faces] == [7, 18, 15]

    def test_no_vertices_cases(self):
        assert faces_by_dimension(complete_graph(4), 2) == []
        assert faces_by_dimension(Graph(4, []), 4) == []

    def test_k_below_two_refused(self):
        with pytest.raises(ValueError, match="need 2 <= k <= n, got k=1"):
            faces_by_dimension(squared_path(5), 1)

    def test_bad_set_cap(self, monkeypatch):
        # K_10 with k = 2: every set of size >= 2 is bad, C(10, 5) = 252 of them at size 5.
        monkeypatch.setattr(cutcx.complements, "BAD_SET_LIMIT", 252)
        assert faces_by_dimension(complete_graph(10), 2) == []
        monkeypatch.setattr(cutcx.complements, "BAD_SET_LIMIT", 251)
        with pytest.raises(CapacityError, match="more than 251 bad 5-sets"):
            faces_by_dimension(complete_graph(10), 2)


class TestFaceScans:
    """The scans resolve the face test once and agree with the public is_face."""

    @staticmethod
    def reference_layers(g, k):
        layers = []
        for p in range(1, g.n - k + 1):
            layer = [f for f in combinations(range(1, g.n + 1), p) if is_face(g, k, f)]
            if not layer:
                break
            layers.append(layer)
        return layers

    @staticmethod
    def reference_f_vector(g, k):
        counts = tuple(
            sum(1 for f in combinations(range(1, g.n + 1), p) if is_face(g, k, f))
            for p in range(g.n - k + 1)
        )
        return FVector(k=k, n=g.n, counts=counts if any(counts) else None)

    @staticmethod
    def random_graphs():
        rng = random.Random(20261018)
        for n in range(2, 10):
            for density in (0.2, 0.5, 0.8):
                edges = [(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < density]
                yield Graph(n, edges)

    @pytest.mark.parametrize(
        "scan",
        [
            lambda: faces_by_dimension(squared_path(10), 4),
            lambda: f_vector_bruteforce(squared_path(10), 4),
            lambda: nonface_layers(4, 10),
            lambda: faces_by_dimension(squared_path(10), 6),
            lambda: f_vector_bruteforce(squared_path(10), 6),
        ],
        ids=["faces_by_dimension", "f_vector_bruteforce", "nonface_layers",
             "faces_by_dimension-scan", "f_vector_bruteforce-scan"],
    )
    def test_engine_resolved_once_per_scan(self, scan, monkeypatch):
        # At most once: level k grows by ESU over the adjacency when 2k <= n (k = 4, n = 10)
        # and needs no engine; the C(n, k) scan (k = 6) and nonface_layers resolve it once.
        calls = []
        original = cutcx.complements.is_squared_path

        def counting(graph):
            calls.append(graph.n)
            return original(graph)

        monkeypatch.setattr(cutcx.complements, "is_squared_path", counting)
        scan()
        assert calls in ([], [10])

    def test_random_graphs_match_public_face_test(self):
        for g in self.random_graphs():
            for k in range(2, g.n + 1):
                assert faces_by_dimension(g, k) == self.reference_layers(g, k), (g, k)
                assert f_vector_bruteforce(g, k) == self.reference_f_vector(g, k), (g, k)

    def test_layers_are_strictly_lex_increasing(self):
        # The rank's fill-in depends on faces listed in lexicographic order.
        graphs = list(self.random_graphs()) + [squared_path(n) for n in range(2, 13)]
        for g in graphs:
            for k in range(2, g.n + 1):
                for layer in faces_by_dimension(g, k):
                    assert layer == sorted(set(layer)), (g, k)

    def test_squared_paths_match_public_face_test(self, monkeypatch):
        # With the gap engine a squared path selects, then forced onto search by hiding that it is one.
        cases = [(squared_path(n), k) for n in range(2, 11) for k in range(2, n + 1)]

        def scans():
            return [(faces_by_dimension(g, k), f_vector_bruteforce(g, k)) for g, k in cases]

        def reference():
            return [(self.reference_layers(g, k), self.reference_f_vector(g, k)) for g, k in cases]

        want = reference()
        assert scans() == want
        monkeypatch.setattr(cutcx.complements, "is_squared_path", lambda graph: False)
        assert scans() == reference() == want
