"""Bad complements: vertex sets whose k-subsets are all connected.

A set C with |C| >= k is k-bad in a graph when no k-subset of C is
disconnected; complements of faces of the k-cut complex are exactly the
non-bad sets of size >= k.  For squared paths the bad sets of each size
admit closed counts: connected k-sets stratify by the number of length-2
jumps between consecutive elements, bad (k+1)-sets are the runs of k+1
consecutive labels, and nothing larger is bad.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable, Iterable

from .graphs import (
    Graph,
    _connected_by_search,
    _gaps_at_most_two,
    canonical_vertex_set,
    is_squared_path,
    require_full_scan_capacity,
)
from .graphs import gap_connected, is_connected_induced  # unused here; kept because bench/tracer.py wraps them
from .polynomials import binom

CONNECTIVITY_ENGINES = ("bfs", "gap")


def connectivity_test(graph: Graph, connectivity: str | None = None) -> Callable[[tuple[int, ...]], bool]:
    """Resolve the connectivity engine: 'bfs' for any graph, 'gap' for squared paths.

    None selects 'gap' when the graph structurally equals a squared path,
    else 'bfs'.  The gap engine is only valid on squared paths; it is
    exposed so the equivalence of the two engines is itself testable.
    The predicate is the engine's body: it takes canonical tuples inside
    1..n, as every scan produces, and skips the public functions' checks.
    """
    if connectivity is None:
        connectivity = "gap" if is_squared_path(graph) else "bfs"
    if connectivity == "bfs":
        return partial(_connected_by_search, graph)
    if connectivity == "gap":
        return _gaps_at_most_two
    raise ValueError(f"unknown connectivity engine {connectivity!r}; expected one of {CONNECTIVITY_ENGINES}")


@dataclass(frozen=True)
class BadProfile:
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


def is_bad(graph: Graph, k: int, subset: Iterable[int], connectivity: str | None = None) -> bool:
    """True when every k-subset of the given set induces a connected subgraph."""
    c = canonical_vertex_set(subset)
    if k < 2:
        raise ValueError("k must be at least 2")
    if len(c) < k:
        raise ValueError(f"set of size {len(c)} cannot be tested for k={k}")
    if c[0] < 1 or c[-1] > graph.n:
        raise ValueError(f"vertex set {c} leaves the range 1..{graph.n}")
    return _all_k_subsets_connected(c, k, connectivity_test(graph, connectivity))


def q_profile_bruteforce(graph: Graph, k: int, connectivity: str | None = None) -> BadProfile:
    """Count k-bad sets of every size by scanning all subsets of size >= k."""
    n = graph.n
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    require_full_scan_capacity(n, "bad-set profile")
    conn = connectivity_test(graph, connectivity)
    counts: dict[int, int] = {}
    vertices = range(1, n + 1)
    for m in range(k, n + 1):
        counts[m] = sum(1 for c in combinations(vertices, m) if _all_k_subsets_connected(c, k, conn))
    return BadProfile(k=k, n=n, counts=counts)


def _all_k_subsets_connected(c: tuple[int, ...], k: int, conn: Callable[[tuple[int, ...]], bool]) -> bool:
    """The bad-set test proper, on a canonical set with a resolved engine."""
    s = len(c) - k
    if s >= 2:
        # Try the spread witness first: its first two members sit s+1 apart,
        # so on a squared path it is disconnected and settles the test at once.
        if not conn((c[0],) + c[s + 1 : s + k]):
            return False
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
    return sum(binom(k - 1, j) * (n - k - j + 1) for j in range(min(k - 1, n - k) + 1))


def q_profile_closed(k: int, n: int) -> BadProfile:
    """Closed bad-set profile of the squared path: z at size k, n-k runs at k+1, zero above."""
    if not 2 <= k <= n - 2:
        raise ValueError(f"closed profile needs 2 <= k <= n-2, got k={k}, n={n}")
    counts = {m: 0 for m in range(k, n + 1)}
    counts[k] = z_count(k, n)
    counts[k + 1] = n - k
    return BadProfile(k=k, n=n, counts=counts)
