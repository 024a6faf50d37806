"""Oracle self-tests that need no closed form.

The brute-force and homology oracles share bad_sets_by_size and
faces_by_dimension, so a bug there could hide from every comparison
between oracles; only the closed form under test would witness it.  These
tests hold for every cut complex instead: textbook complexes whose
homology is known, and relabelings of P_n^2, whose invariants cannot
depend on the labels.
"""

from itertools import combinations
from math import comb

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cutcx import (
    Graph,
    betti_numbers,
    build_chain_complex,
    complete_graph,
    f_vector_bruteforce,
    faces_by_dimension,
    integral_betti,
    is_squared_path,
    q_profile_bruteforce,
    squared_path,
)

KN = [(k, n) for n in range(4, 11) for k in range(2, n - 1)]


def every_route(graph: Graph, k: int) -> list:
    """The reduced Betti vector over the integers, over GF(2) and over GF(3)."""
    matrices = build_chain_complex(faces_by_dimension(graph, k))
    return [integral_betti(matrices), betti_numbers(matrices, 2), betti_numbers(matrices, 3)]


class TestTextbookComplexes:
    """The d-skeleton of the simplex on m vertices is a wedge of C(m-1, d+1) d-spheres (Björner 1995)."""

    def test_edgeless_graph_gives_the_skeleton_on_n_vertices(self):
        # Every k-set is disconnected, so the faces are all sets of at most r = n-k vertices.
        for k, n in KN:
            assert every_route(Graph(n), k) == [[0] * (n - k - 1) + [comb(n - 1, k - 1)]] * 3, (k, n)

    def test_clique_and_an_isolated_vertex_give_the_skeleton_on_n_minus_1_vertices(self):
        # The disconnected k-sets are those holding vertex n, so the faces are the r-sets of 1..n-1 and below.
        for k, n in KN:
            graph = Graph(n, combinations(range(1, n), 2))
            assert every_route(graph, k) == [[0] * (n - k - 1) + [comb(n - 2, k - 2)]] * 3, (k, n)

    def test_complete_graph_gives_the_void_complex(self):
        for k, n in KN:
            assert every_route(complete_graph(n), k) == [[], [], []], (k, n)


def relabeled(graph: Graph, perm: list[int]) -> Graph:
    """The graph with each vertex v renamed perm[v - 1]."""
    return Graph(graph.n, [(perm[u - 1], perm[v - 1]) for u, v in graph.edges()])


def betti_where_decided(graph: Graph, k: int) -> list[int]:
    """The integer Betti vector; where the integers are undecided, GF(2)'s, checked equal to GF(3)'s.

    The integer certificate depends on the labeling: a relabeled P_n^2 can
    be undecided where P_n^2 itself is decided.
    """
    matrices = build_chain_complex(faces_by_dimension(graph, k))
    betti = integral_betti(matrices)
    if betti is None:
        betti = betti_numbers(matrices, 2)
        assert betti_numbers(matrices, 3) == betti
    return betti


class TestRelabeling:
    @given(st.integers(4, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
    @settings(max_examples=30, deadline=None)
    def test_relabeled_squared_path_keeps_its_invariants(self, perm):
        n = len(perm)
        path = squared_path(n)
        graph = relabeled(path, perm)
        # An automorphism of P_n^2 (the identity, the reversal, and two more at n = 4) would run the gap engine.
        assume(not is_squared_path(graph))
        for k in range(2, n + 1):
            assert q_profile_bruteforce(graph, k) == q_profile_bruteforce(path, k), k
            assert f_vector_bruteforce(graph, k) == f_vector_bruteforce(path, k), k
            if n <= 10:
                assert betti_where_decided(graph, k) == betti_where_decided(path, k), k

    def test_the_integer_certificate_depends_on_the_labeling(self):
        graph = relabeled(squared_path(9), [1, 6, 4, 8, 3, 7, 2, 9, 5])
        assert every_route(graph, 5) == [None, [0, 0, 0, 26], [0, 0, 0, 26]]
        assert every_route(squared_path(9), 5) == [[0, 0, 0, 26]] * 3
