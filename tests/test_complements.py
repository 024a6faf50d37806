"""Bad-complement classification and its closed counts on squared paths.

Core claims: a set is bad exactly when all its k-subsets are connected;
on squared paths the bad sets of size k are the connected k-sets counted
by the jump-stratified sum, the bad (k+1)-sets are precisely the runs of
consecutive labels, and nothing of size k+2 or more is ever bad.
"""

import random
from itertools import combinations

import pytest

from cutcx import (
    Graph,
    complete_graph,
    gap_connected,
    is_bad,
    is_connected_induced,
    q_profile_bruteforce,
    q_profile_closed,
    squared_path,
    z_count,
)
from cutcx.complements import connectivity_test
from cutcx.graphs import _connected_by_search, _gaps_at_most_two


class TestIsBad:
    def test_interval_of_length_k_plus_one_is_bad(self):
        g = squared_path(7)
        assert is_bad(g, 4, (1, 2, 3, 4, 5))
        assert is_bad(g, 4, (2, 3, 4, 5, 6))

    def test_connected_k_set_is_bad(self):
        assert is_bad(squared_path(7), 4, (1, 2, 3, 4))
        assert is_bad(squared_path(7), 4, (1, 3, 5, 7))

    def test_disconnected_k_set_is_not_bad(self):
        assert not is_bad(squared_path(7), 4, (1, 2, 3, 7))

    def test_sets_of_size_k_plus_two_never_bad(self):
        # Exhaustive over every k and every large-enough subset, n <= 10.
        for n in range(4, 11):
            g = squared_path(n)
            for k in range(2, n - 1):
                for m in range(k + 2, n + 1):
                    for c in combinations(range(1, n + 1), m):
                        assert not is_bad(g, k, c), (k, c)

    def test_preconditions(self):
        g = squared_path(6)
        with pytest.raises(ValueError):
            is_bad(g, 4, (1, 2, 3))
        with pytest.raises(ValueError):
            is_bad(g, 1, (1, 2))
        with pytest.raises(ValueError):
            is_bad(g, 2, (5, 9))
        with pytest.raises(ValueError):
            is_bad(g, 2, (1, 3), connectivity="dfs")


class TestZCount:
    def test_frozen_values(self):
        assert z_count(2, 5) == 7  # the edge count of the squared path
        assert z_count(4, 7) == 20
        assert z_count(3, 6) == 12
        assert z_count(5, 8) == 32
        assert z_count(4, 6) == 12

    def test_k_equals_n(self):
        assert z_count(6, 6) == 1

    def test_matches_gap_enumeration_exhaustively(self):
        # combinations yields canonical tuples, so the gap criterion's body
        # (pinned to gap_connected by TestEngineBodies) counts them directly.
        for n in range(2, 21):
            for k in range(2, n + 1):
                brute = sum(1 for s in combinations(range(1, n + 1), k) if _gaps_at_most_two(s))
                assert z_count(k, n) == brute, (k, n)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            z_count(1, 5)
        with pytest.raises(ValueError):
            z_count(6, 5)


class TestProfiles:
    def test_frozen_profiles(self):
        assert q_profile_bruteforce(squared_path(7), 4).counts == {4: 20, 5: 3, 6: 0, 7: 0}
        assert q_profile_bruteforce(squared_path(6), 3).counts == {3: 12, 4: 3, 5: 0, 6: 0}

    def test_complete_graph_everything_bad(self):
        from math import comb

        prof = q_profile_bruteforce(complete_graph(5), 2)
        assert prof.counts == {m: comb(5, m) for m in range(2, 6)}

    def test_engines_agree_exhaustively(self):
        for n in range(4, 11):
            g = squared_path(n)
            for k in range(2, n - 1):
                bfs = q_profile_bruteforce(g, k, connectivity="bfs")
                gap = q_profile_bruteforce(g, k, connectivity="gap")
                assert bfs.counts == gap.counts, (k, n)

    def test_closed_matches_bruteforce(self):
        for n in range(4, 13):
            for k in range(2, n - 1):
                assert (
                    q_profile_bruteforce(squared_path(n), k).counts
                    == q_profile_closed(k, n).counts
                ), (k, n)

    def test_bad_k_plus_one_sets_are_exactly_runs(self):
        for n in range(4, 11):
            g = squared_path(n)
            for k in range(2, n - 1):
                for c in combinations(range(1, n + 1), k + 1):
                    is_run = c[-1] - c[0] == k
                    assert is_bad(g, k, c) == is_run, (k, c)

    def test_closed_range_errors(self):
        with pytest.raises(ValueError):
            q_profile_closed(5, 6)
        with pytest.raises(ValueError):
            q_profile_closed(1, 6)

    def test_profile_accessor_and_text(self):
        prof = q_profile_closed(4, 7)
        assert prof.q(4) == 20
        with pytest.raises(ValueError):
            prof.q(3)
        assert prof.to_text() == "k=4 n=7\nm=4 q=20\nm=5 q=3\nm=6 q=0\nm=7 q=0"


class TestEngineResolution:
    def test_auto_uses_gap_only_on_squared_paths(self):
        # The resolved predicate for a squared path ignores ambient edges,
        # so it must be the gap criterion itself.
        assert connectivity_test(squared_path(9)) is _gaps_at_most_two
        assert connectivity_test(complete_graph(4)) is not _gaps_at_most_two

    def test_explicit_override(self):
        conn = connectivity_test(complete_graph(4), "gap")
        assert conn is _gaps_at_most_two
        bfs = connectivity_test(complete_graph(4), "bfs")
        assert bfs((1, 4))


class TestEngineBodies:
    """The engine bodies skip validation; on canonical sets they must agree with the public functions."""

    @staticmethod
    def graphs():
        rng = random.Random(20261018)
        for n in range(1, 11):
            yield squared_path(n)
            for density in (0.2, 0.5, 0.8):
                yield Graph(n, [(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < density])

    def test_bodies_agree_with_public_functions_on_every_subset(self):
        for g in self.graphs():
            bfs = connectivity_test(g, "bfs")
            for size in range(1, g.n + 1):
                for s in combinations(range(1, g.n + 1), size):
                    public = is_connected_induced(g, s)
                    assert _connected_by_search(g, s) == bfs(s) == public, (g, s)
                    assert _gaps_at_most_two(s) == gap_connected(s), s
