"""Graph construction, induced connectivity, and the gap criterion.

Core claims: squared paths carry exactly the distance-1 and distance-2
edges, induced-subgraph search agrees with the sorted-gap criterion on
squared paths for every subset up to n = 16, and the line-based graph
format accepts exactly the documented lines.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutcx import (
    CapacityError,
    Graph,
    canonical_vertex_set,
    complete_graph,
    disconnected_k_sets,
    gap_connected,
    is_connected_induced,
    is_squared_path,
    parse_graph,
    squared_path,
)

from itertools import combinations


class TestConstruction:
    def test_squared_path_edges(self):
        g = squared_path(5)
        assert g.edges() == [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)]
        assert g.edge_count == 7
        assert squared_path(1).edge_count == 0
        assert squared_path(2).edges() == [(1, 2)]
        assert squared_path(3).edge_count == 3

    def test_edge_count_formula(self):
        for n in range(3, 30):
            assert squared_path(n).edge_count == (n - 1) + (n - 2)

    def test_adjacency_symmetric(self):
        for g in (squared_path(8), complete_graph(5), Graph(4, [(1, 3), (2, 4)])):
            for u in range(1, g.n + 1):
                for v in g.adj[u]:
                    assert u in g.adj[v]

    def test_validation(self):
        for build in (squared_path, complete_graph):
            with pytest.raises(ValueError, match="^vertex count must be positive$"):
                build(0)
        with pytest.raises(ValueError):
            Graph(3, [(1, 4)])
        with pytest.raises(ValueError):
            Graph(3, [(2, 2)])

    def test_is_squared_path(self):
        assert is_squared_path(squared_path(6))
        assert not is_squared_path(complete_graph(6))
        assert not is_squared_path(Graph(4, [(1, 2), (2, 3), (3, 4)]))
        assert is_squared_path(Graph(3, [(1, 2), (2, 3), (1, 3)]))

    def test_is_squared_path_matches_graph_equality(self):
        # Reference: build the squared path and compare whole graphs.
        def check(g):
            assert is_squared_path(g) == (g == squared_path(g.n)), g

        rng = random.Random(20261018)
        for n in range(1, 13):
            square = squared_path(n).edges()
            check(squared_path(n))
            others = [e for e in combinations(range(1, n + 1), 2) if e not in square]
            for edge in square:
                check(Graph(n, [e for e in square if e != edge]))
                # One edge swapped for another keeps the edge count.
                for other in others:
                    check(Graph(n, [*(e for e in square if e != edge), other]))
            for other in others:
                check(Graph(n, [*square, other]))
            for density in (0.2, 0.5, 0.8):
                check(Graph(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < density]))
        assert is_squared_path(Graph(1)) and not is_squared_path(Graph(2))

    def test_canonical_vertex_set(self):
        assert canonical_vertex_set([3, 1, 3, 2]) == (1, 2, 3)
        assert canonical_vertex_set(()) == ()


class TestConnectivity:
    def test_examples(self):
        g = squared_path(5)
        assert is_connected_induced(g, (1, 3, 5))
        assert not is_connected_induced(g, (1, 4))
        assert is_connected_induced(g, (2,))
        assert is_connected_induced(g, range(1, 6))
        assert not is_connected_induced(Graph(4, []), (1, 2))

    def test_gap_examples(self):
        assert gap_connected((2, 4, 6))
        assert not gap_connected((1, 2, 5))
        assert gap_connected((7,))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            is_connected_induced(squared_path(4), ())
        with pytest.raises(ValueError):
            is_connected_induced(squared_path(4), (5,))
        with pytest.raises(ValueError):
            gap_connected(())

    def test_gap_equals_search_exhaustively(self):
        # Every nonempty subset for every n up to 16.
        for n in range(1, 17):
            g = squared_path(n)
            for size in range(1, n + 1):
                for s in combinations(range(1, n + 1), size):
                    assert gap_connected(s) == is_connected_induced(g, s), s

    @given(st.integers(17, 40), st.data())
    @settings(max_examples=80)
    def test_gap_equals_search_beyond_exhaustive_range(self, n, data):
        s = data.draw(
            st.lists(st.integers(1, n), min_size=1, max_size=12, unique=True)
        )
        assert gap_connected(s) == is_connected_induced(squared_path(n), s)


class TestParsing:
    def test_round_trip(self):
        g = squared_path(5)
        text = "n 5\n" + "\n".join(f"e {u} {v}" for u, v in g.edges())
        assert parse_graph(text) == g

    def test_blank_lines_allowed(self):
        g = parse_graph("n 3\n\ne 1 2\n   \ne 2 3\n")
        assert g.edges() == [(1, 2), (2, 3)]

    @pytest.mark.parametrize(
        "text",
        [
            "n 3\nv 1 2",
            "n 3\ne 1",
            "n 3\ne 1 2 3",
            "e 1 2\nn 3",
            "n 3\nn 4",
            "n x",
            "e 1 2",
            "",
            "n 3\ne 1 two",
        ],
    )
    def test_rejects_unknown_or_malformed_lines(self, text):
        with pytest.raises(ValueError):
            parse_graph(text)

    def test_error_carries_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_graph("n 3\nwhat is this")

    def test_scan_checks_vertex_count_before_building(self):
        with pytest.raises(CapacityError, match="f-vector"):
            parse_graph("n 25\ne 1 2", scan="f-vector")
        assert parse_graph("n 24\ne 1 2", scan="f-vector").n == 24
        assert parse_graph("n 25\ne 1 2").edge_count == 1


class TestCapacity:
    def test_full_scans_refused_past_limit(self):
        with pytest.raises(CapacityError):
            disconnected_k_sets(squared_path(25), 2)
        # At the limit itself the call is accepted.
        assert disconnected_k_sets(squared_path(24), 23) is not None
