"""Simple undirected graphs on vertex set {1..n} and induced-subgraph connectivity.

Vertex sets are handled as sorted tuples of 1-based labels throughout the
package; any iterable of vertices is accepted on input and canonicalized.
"""

from __future__ import annotations

from typing import Iterable, Sequence

# Exhaustive powerset-style enumerations are refused above this vertex count.
FULL_SCAN_LIMIT = 24


class CapacityError(Exception):
    """An exhaustive enumeration was requested beyond the supported size."""


def canonical_vertex_set(subset: Iterable[int]) -> tuple[int, ...]:
    """Sorted duplicate-free tuple form of a vertex set."""
    return tuple(sorted(set(subset)))


class Graph:
    """Simple undirected graph on vertices 1..n."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError("vertex count must be positive")
        adj: list[set[int]] = [set() for _ in range(n + 1)]
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) leaves the vertex range 1..{n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj = tuple(frozenset(s) for s in adj)

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as sorted (u, v) pairs with u < v."""
        return [(u, v) for u in range(1, self.n + 1) for v in sorted(self.adj[u]) if u < v]

    @property
    def edge_count(self) -> int:
        return sum(len(self.adj[u]) for u in range(1, self.n + 1)) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()!r})"


def squared_path(n: int) -> Graph:
    """The squared path: vertices 1..n, edges between labels at distance 1 or 2."""
    if n < 1:
        raise ValueError("vertex count must be positive")
    edges = [(i, i + 1) for i in range(1, n)] + [(i, i + 2) for i in range(1, n - 1)]
    return Graph(n, edges)


def complete_graph(n: int) -> Graph:
    """The complete graph on 1..n."""
    if n < 1:
        raise ValueError("vertex count must be positive")
    return Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def is_squared_path(graph: Graph) -> bool:
    """Structural test: does the graph equal squared_path(n) on the same labels?"""
    return graph == squared_path(graph.n)


def _validated(graph: Graph, subset: Iterable[int]) -> tuple[int, ...]:
    s = canonical_vertex_set(subset)
    if not s:
        raise ValueError("vertex set must be nonempty")
    if s[0] < 1 or s[-1] > graph.n:
        raise ValueError(f"vertex set {s} leaves the range 1..{graph.n}")
    return s


def is_connected_induced(graph: Graph, subset: Iterable[int]) -> bool:
    """Connectivity of the induced subgraph on a nonempty vertex set, by search."""
    return _connected_by_search(graph, _validated(graph, subset))


def _connected_by_search(graph: Graph, s: tuple[int, ...]) -> bool:
    """The search proper, on a canonical nonempty set inside 1..n."""
    unseen = set(s[1:])
    stack = [s[0]]
    while stack and unseen:
        found = graph.adj[stack.pop()] & unseen
        unseen -= found
        stack.extend(found)
    return not unseen


def gap_connected(subset: Iterable[int]) -> bool:
    """Gap criterion for squared paths: connected iff consecutive sorted gaps are <= 2.

    Valid precisely for induced subgraphs of a squared path on any ambient
    1..n containing the set; equivalent to is_connected_induced there.
    """
    s = canonical_vertex_set(subset)
    if not s:
        raise ValueError("vertex set must be nonempty")
    return _gaps_at_most_two(s)


def _gaps_at_most_two(s: tuple[int, ...]) -> bool:
    """The gap criterion proper, on a canonical nonempty set."""
    prev = s[0]
    for v in s:
        if v - prev > 2:
            return False
        prev = v
    return True


def parse_graph(text: str, scan: str | None = None) -> Graph:
    """Parse the line format 'n <count>' then 'e <u> <v>' per edge.

    Blank lines are allowed; any other line is rejected.  The header must
    come first and appear exactly once.  When `scan` names the exhaustive
    scan the graph is read for, the vertex count is checked against the
    full-scan limit before the graph, whose size is linear in it, is built.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "n" and len(fields) == 2:
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate 'n' header")
            try:
                n = int(fields[1])
            except ValueError:
                raise ValueError(f"line {lineno}: vertex count is not an integer") from None
            if n < 1:
                raise ValueError(f"line {lineno}: vertex count must be positive")
        elif fields[0] == "e" and len(fields) == 3:
            if n is None:
                raise ValueError(f"line {lineno}: edge before 'n' header")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ValueError(f"line {lineno}: edge endpoints are not integers") from None
            edges.append((u, v))
        else:
            raise ValueError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise ValueError("missing 'n <count>' header")
    if scan is not None:
        require_full_scan_capacity(n, scan)
    return Graph(n, edges)


def require_full_scan_capacity(n: int, what: str) -> None:
    """Refuse exhaustive enumerations beyond the supported vertex count."""
    if n > FULL_SCAN_LIMIT:
        raise CapacityError(
            f"{what} needs an exhaustive scan over subsets of 1..{n}; "
            f"the supported limit is n <= {FULL_SCAN_LIMIT}"
        )
