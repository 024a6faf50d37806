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
from cutcx import complements
from cutcx.complements import _connected_k_sets, bad_sets_by_size, connectivity_test
from cutcx.graphs import CapacityError, _connected_by_search, _gaps_at_most_two


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

    def test_engines_agree_exhaustively(self, monkeypatch):
        # A squared path selects the gap engine; hiding that it is one forces the search engine.
        graphs = [squared_path(n) for n in range(4, 11)]
        gap = [[q_profile_bruteforce(g, k).counts for k in range(2, g.n + 1)] for g in graphs]
        monkeypatch.setattr(complements, "is_squared_path", lambda graph: False)
        assert connectivity_test(graphs[0]) is not _gaps_at_most_two
        assert [[q_profile_bruteforce(g, k).counts for k in range(2, g.n + 1)] for g in graphs] == gap

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


def profile_by_definition(g, k):
    """The definition itself: every set of size >= k tested on its own by the public is_bad."""
    vertices = range(1, g.n + 1)
    return {m: sum(is_bad(g, k, c) for c in combinations(vertices, m)) for m in range(k, g.n + 1)}


class TestBadSetLevels:
    """Bad sets grown level by level from the connected k-sets, against the definition."""

    @staticmethod
    def random_graphs():
        rng = random.Random(20261019)
        for density in (0.1, 0.3, 0.5, 0.7, 0.9):
            for n in (5, 8, 10, 12):
                yield Graph(n, [(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < density])

    def test_random_graphs_match_definition(self):
        for g in self.random_graphs():
            for k in range(2, g.n + 1):
                assert q_profile_bruteforce(g, k).counts == profile_by_definition(g, k), (g, k)

    @pytest.mark.parametrize("n", [2, 3, 6, 9])
    def test_edgeless_and_complete_graphs_match_definition(self, n):
        for g in (Graph(n), complete_graph(n)):
            for k in range(2, n + 1):
                assert q_profile_bruteforce(g, k).counts == profile_by_definition(g, k), (g, k)

    def test_levels_are_the_bad_sets(self):
        g = squared_path(9)
        levels = list(bad_sets_by_size(g, 4))
        assert [len(level) for level in levels] == [z_count(4, 9), 5]
        assert levels[1] == {tuple(range(s, s + 5)) for s in range(1, 6)}

    def test_cap_stops_before_an_oversized_level_is_held(self, monkeypatch):
        # Every 5-subset of K_10 is connected, and 2k <= n grows level 5 by ESU.  The generator
        # must stay lazy: the level is cut off at the first set drawn past the cap.
        drawn = []

        def counting(graph, k):
            for t in _connected_k_sets(graph, k):
                drawn.append(t)
                yield t

        monkeypatch.setattr(complements, "_connected_k_sets", counting)
        monkeypatch.setattr(complements, "BAD_SET_LIMIT", 10)
        with pytest.raises(CapacityError, match="more than 10 bad 5-sets"):
            next(bad_sets_by_size(complete_graph(10), 5))
        assert len(drawn) == 11


class TestConnectedKSets:
    """Level k two ways: ESU growth (2k <= n) against the C(n, k) scan through the engine (2k > n)."""

    @staticmethod
    def graphs():
        rng = random.Random(20261020)
        for n in range(1, 13):
            for density in (0.2, 0.4, 0.6, 0.8):
                yield Graph(n, [(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < density])
        for n in (1, 2, 5, 9, 12):
            yield squared_path(n)
            yield Graph(n, [(i, i + 1) for i in range(1, n)])
            yield complete_graph(n)
            yield Graph(n)
        # Several components: two triangles, a path on 4 and an isolated vertex; and two squared paths.
        yield Graph(11, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (7, 8), (8, 9), (9, 10)])
        yield Graph(12, [(u, v) for u, v in squared_path(6).edges()] + [(u + 6, v + 6) for u, v in squared_path(6).edges()])

    def test_esu_equals_the_scan_for_every_k(self):
        for g in self.graphs():
            for k in range(1, g.n + 1):
                scan = set(filter(connectivity_test(g), combinations(range(1, g.n + 1), k)))
                assert set(_connected_k_sets(g, k)) == scan, (g, k)

    def test_esu_never_yields_a_set_twice(self):
        for g in self.graphs():
            for k in range(1, g.n + 1):
                sets = list(_connected_k_sets(g, k))
                assert len(sets) == len(set(sets)), (g, k)

    def test_level_k_is_grown_by_esu_only_when_2k_at_most_n(self, monkeypatch):
        routes = []
        esu = complements._connected_k_sets
        monkeypatch.setattr(complements, "_connected_k_sets", lambda graph, k: routes.append(k) or esu(graph, k))
        for k in range(2, 10):
            next(bad_sets_by_size(complete_graph(9), k))
        assert routes == [2, 3, 4]


class TestEngineResolution:
    def test_auto_uses_gap_only_on_squared_paths(self):
        # The resolved predicate for a squared path ignores ambient edges,
        # so it must be the gap criterion itself.
        assert connectivity_test(squared_path(9)) is _gaps_at_most_two
        assert connectivity_test(complete_graph(4)) is not _gaps_at_most_two
        assert connectivity_test(complete_graph(4))((1, 4))

    def test_no_caller_can_put_the_gap_criterion_on_another_graph(self):
        # The gap criterion would count only {3: 12, 4: 3, 5: 0, 6: 0} on K_6.
        assert q_profile_bruteforce(complete_graph(6), 3).counts == {3: 20, 4: 15, 5: 6, 6: 1}


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
            engine = connectivity_test(g)
            for size in range(1, g.n + 1):
                for s in combinations(range(1, g.n + 1), size):
                    public = is_connected_induced(g, s)
                    assert _connected_by_search(g, s) == engine(s) == public, (g, s)
                    assert _gaps_at_most_two(s) == gap_connected(s), s
