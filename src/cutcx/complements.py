"""Bad complements: vertex sets whose k-subsets are all connected.

A set C with |C| >= k is k-bad in a graph when no k-subset of C is
disconnected; complements of faces of the k-cut complex are exactly the
non-bad sets of size >= k.  For squared paths the bad sets of each size
admit closed counts: connected k-sets stratify by the number of length-2
jumps between consecutive elements, bad (k+1)-sets are the runs of k+1
consecutive labels, and nothing larger is bad.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, islice, repeat
from math import comb
from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple

from .graphs import (
    CapacityError,
    Graph,
    _connected_by_search,
    _gaps_at_most_two,
    canonical_vertex_set,
    is_squared_path,
    require_full_scan_capacity,
)
from .graphs import gap_connected, is_connected_induced  # unused here; kept because bench/tracer.py wraps them

BAD_SET_LIMIT = 200_000  # bad sets of one size a scan may hold; C(20, 10) = 184,756 admits every n <= 20


def connectivity_test(graph: Graph) -> Callable[[tuple[int, ...]], bool]:
    """The connectivity engine the graph admits: the gap criterion on a squared path, search otherwise.

    The gap criterion holds only on squared paths, so it is read off the
    graph and never chosen by a caller; the two engines agree wherever
    both are valid.  The predicate is the engine's body: it takes
    canonical tuples inside 1..n, as every scan produces, and skips the
    public functions' checks.
    """
    return _gaps_at_most_two if is_squared_path(graph) else partial(_connected_by_search, graph)


class BadProfile(NamedTuple):
    """Counts of k-bad sets by size m, for k <= m <= n."""

    k: int
    n: int
    counts: dict[int, int]

    def q(self, m: int) -> int:
        if not self.k <= m <= self.n:
            raise ValueError(f"size {m} outside {self.k}..{self.n}")
        return self.counts[m]

    def to_text(self) -> str:
        lines = [f"k={self.k} n={self.n}"]
        lines += [f"m={m} q={self.counts[m]}" for m in range(self.k, self.n + 1)]
        return "\n".join(lines)


def is_bad(graph: Graph, k: int, subset: Iterable[int]) -> bool:
    """True when every k-subset of the given set induces a connected subgraph."""
    c = canonical_vertex_set(subset)
    if k < 2:
        raise ValueError("k must be at least 2")
    if len(c) < k:
        raise ValueError(f"set of size {len(c)} cannot be tested for k={k}")
    if c[0] < 1 or c[-1] > graph.n:
        raise ValueError(f"vertex set {c} leaves the range 1..{graph.n}")
    return _all_k_subsets_connected(c, k, connectivity_test(graph))


def bad_sets_by_size(graph: Graph, k: int) -> Iterator[set[tuple[int, ...]]]:
    """Yield the nonempty levels of k-bad sets, sizes k, k+1, ... in turn.

    Level k is the connected k-sets; for m >= k an (m+1)-set is bad iff all its m-subsets are,
    so each level grows from the one below.  A level past BAD_SET_LIMIT raises CapacityError.
    """
    n, m = graph.n, k
    # ESU's work grows with the connected sets smaller than k, the scan's with C(n, k), which falls past k = n/2.
    connected = (
        _connected_k_sets(graph, k) if 2 * k <= n
        else filter(connectivity_test(graph), combinations(range(1, n + 1), k))
    )
    level = _capped(connected, k)
    while level:
        yield level
        # _capped consumes these candidates before level and m move on.
        grown = (t + (v,) for t in level for v in range(t[-1] + 1, n + 1))
        level = _capped((c for c in grown if all(map(level.__contains__, combinations(c, m)))), m + 1)
        m += 1


def _connected_k_sets(graph: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """Yield each connected k-set once, as a canonical tuple, by ESU (Wernicke 2006).

    A set grows from its least vertex v; each step adds a vertex w from the
    extension, and w's exclusive neighbours above v (adjacent to no vertex
    already in or next to the set) join the extension, so no set is reached
    twice.  An explicit stack replaces the recursion; nothing is stored
    beyond the sets on it.
    """
    if k == 1:
        yield from ((v,) for v in range(1, graph.n + 1))
        return
    nbr = [sum(1 << u for u in s) for s in graph.adj]
    for v in range(1, graph.n + 1):
        above = -1 << (v + 1)
        stack = [((v,), nbr[v] & above, nbr[v] | 1 << v)]  # (set, extension, set and its neighbours)
        while stack:
            sub, ext, seen = stack.pop()
            if len(sub) == k - 1:  # every vertex of the extension completes a distinct k-set
                while ext:
                    low = ext & -ext
                    ext ^= low
                    yield tuple(sorted(sub + (low.bit_length() - 1,)))
                continue
            while ext:
                low = ext & -ext
                ext ^= low
                w = low.bit_length() - 1
                stack.append((sub + (w,), ext | nbr[w] & above & ~seen, seen | nbr[w]))


def _capped(sets: Iterable[tuple[int, ...]], m: int) -> set[tuple[int, ...]]:
    level = set(islice(sets, BAD_SET_LIMIT + 1))
    if len(level) > BAD_SET_LIMIT:
        raise CapacityError(f"more than {BAD_SET_LIMIT} bad {m}-sets; the supported limit is {BAD_SET_LIMIT} per size")
    return level


def q_profile_bruteforce(graph: Graph, k: int) -> BadProfile:
    """Count k-bad sets of every size, growing them level by level from the connected k-sets."""
    n = graph.n
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    require_full_scan_capacity(n, "bad-set profile")
    counts = dict.fromkeys(range(k, n + 1), 0)
    for m, level in enumerate(bad_sets_by_size(graph, k), start=k):
        counts[m] = len(level)
    return BadProfile(k=k, n=n, counts=counts)


def _all_k_subsets_connected(c: tuple[int, ...], k: int, conn: Callable[[tuple[int, ...]], bool]) -> bool:
    """The bad-set test proper, on a canonical set with a resolved engine."""
    for t in combinations(c, k):
        if not conn(t):
            return False
    return True


def z_count(k: int, n: int) -> int:
    """Number of connected k-subsets of the squared path on 1..n.

    Stratified by the number j of length-2 jumps between consecutive
    elements: such a set spans k+j labels, leaving n-k-j+1 placements.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    return sum(map(mul, map(comb, repeat(k - 1), range(k)), range(n - k + 1, 0, -1)))  # j <= min(k-1, n-k)


def q_profile_closed(k: int, n: int) -> BadProfile:
    """Closed bad-set profile of the squared path: z at size k, n-k runs at k+1, zero above."""
    if not 2 <= k <= n - 2:
        raise ValueError(f"closed profile needs 2 <= k <= n-2, got k={k}, n={n}")
    counts = {m: 0 for m in range(k, n + 1)}
    counts[k] = z_count(k, n)
    counts[k + 1] = n - k
    return BadProfile(k=k, n=n, counts=counts)
