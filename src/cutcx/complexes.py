"""k-cut complexes: faces, f-vectors, closed enumerators, nonface layers.

The k-cut complex of a graph has one facet per disconnected k-subset T,
namely the complement of T.  Equivalently a set F is a face exactly when
its complement contains some disconnected k-subset; all facets have
cardinality n-k, and a set of cardinality n-k or n-k-1 is a nonface
exactly when its complement is bad.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable

from .complements import _all_k_subsets_connected, connectivity_test, q_profile_bruteforce, z_count
from .complements import is_bad  # unused here; kept because bench/tracer.py wraps complexes.is_bad
from .graphs import Graph, canonical_vertex_set, require_full_scan_capacity, squared_path
from .polynomials import Polynomial, binom

# Above this vertex count the brute-force f-vector switches from powerset
# face scans to complement counting (only sizes >= k matter there).
POWERSET_DEFAULT_LIMIT = 20

F_VECTOR_METHODS = ("powerset", "complement")


@dataclass(frozen=True)
class FVector:
    """Face counts of a k-cut complex, indexed by face cardinality.

    counts[p] is the number of faces with p vertices; counts[0] = 1 covers
    the empty face.  A void complex (no faces at all, not even the empty
    one) is marked by counts = None.
    """

    k: int
    n: int
    counts: tuple[int, ...] | None

    @property
    def is_void(self) -> bool:
        return self.counts is None

    def f(self, p: int) -> int:
        """Number of faces of cardinality p (0 outside the stored range)."""
        if self.counts is None or not 0 <= p < len(self.counts):
            return 0
        return self.counts[p]

    @property
    def max_cardinality(self) -> int:
        """Largest face cardinality, -1 when void."""
        return -1 if self.counts is None else len(self.counts) - 1

    def to_text(self) -> str:
        lines = [f"k={self.k} n={self.n}", f"void={'true' if self.is_void else 'false'}"]
        if self.counts is not None:
            lines += [f"p={p} f={c}" for p, c in enumerate(self.counts)]
        return "\n".join(lines)


@dataclass(frozen=True)
class NonfaceLayers:
    """Minimal nonface families of the squared-path k-cut complex.

    level_rminus1 holds the cardinality r-1 nonfaces (complements of the
    n-k runs of k+1 consecutive labels); level_r_by_j[j] holds the
    cardinality r nonfaces whose complements are connected k-sets with
    exactly j length-2 jumps.
    """

    k: int
    n: int
    level_rminus1: tuple[tuple[int, ...], ...]
    level_r_by_j: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def r(self) -> int:
        return self.n - self.k

    def level_r_all(self) -> list[tuple[int, ...]]:
        return [s for group in self.level_r_by_j for s in group]

    def to_text(self) -> str:
        lines = [f"k={self.k} n={self.n} r={self.r}"]
        for s in self.level_rminus1:
            lines.append(f"level=r-1 set={','.join(map(str, s))}")
        for j, group in enumerate(self.level_r_by_j):
            for s in group:
                lines.append(f"level=r j={j} set={','.join(map(str, s))}")
        return "\n".join(lines)


def disconnected_k_sets(graph: Graph, k: int, connectivity: str | None = None) -> list[tuple[int, ...]]:
    """All disconnected k-subsets, ascending lexicographic order."""
    n = graph.n
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    require_full_scan_capacity(n, "disconnected k-set enumeration")
    conn = connectivity_test(graph, connectivity)
    return [t for t in combinations(range(1, n + 1), k) if not conn(t)]


def is_face(graph: Graph, k: int, face: Iterable[int], connectivity: str | None = None) -> bool:
    """Face test: the complement must contain a disconnected k-subset."""
    n = graph.n
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    f = canonical_vertex_set(face)
    if f and (f[0] < 1 or f[-1] > n):
        raise ValueError(f"vertex set {f} leaves the range 1..{n}")
    return _face_test(graph, k, connectivity)(f)


def _face_test(graph: Graph, k: int, connectivity: str | None = None) -> Callable[[tuple[int, ...]], bool]:
    """The face test with its engine resolved once, for scans over many sets.

    The predicate takes canonical tuples inside 1..n and skips is_face's
    validation; it makes the same bad-set test on the same complement.
    """
    conn = connectivity_test(graph, connectivity)
    vertices = tuple(range(1, graph.n + 1))

    def face(f: tuple[int, ...]) -> bool:
        members = set(f)
        comp = tuple(v for v in vertices if v not in members)
        return len(comp) >= k and not _all_k_subsets_connected(comp, k, conn)

    return face


def f_vector_bruteforce(
    graph: Graph,
    k: int,
    method: str | None = None,
    connectivity: str | None = None,
) -> FVector:
    """Exhaustive f-vector, by powerset face scan or by complement counting.

    method None picks the powerset scan up to n=20 and complement counting
    beyond; both routes are exposed and must agree wherever both run.
    """
    n = graph.n
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if method is None:
        method = "powerset" if n <= POWERSET_DEFAULT_LIMIT else "complement"
    if method not in F_VECTOR_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {F_VECTOR_METHODS}")
    require_full_scan_capacity(n, "brute-force f-vector")
    if method == "powerset":
        face = _face_test(graph, k, connectivity)
        counts = [sum(1 for f in combinations(range(1, n + 1), p) if face(f)) for p in range(n - k + 1)]
    else:
        profile = q_profile_bruteforce(graph, k, connectivity)
        counts = [binom(n, p) - profile.q(n - p) for p in range(n - k + 1)]
    if not any(counts):
        return FVector(k=k, n=n, counts=None)
    return FVector(k=k, n=n, counts=tuple(counts))


def face_enumerator_closed(k: int, n: int) -> Polynomial:
    """Face enumerator of the squared-path k-cut complex, coefficient p = f_{p-1}.

    Full binomial counts up to cardinality r-2, then r runs removed at
    cardinality r-1 and the connected k-set count removed at the top.
    """
    if not 2 <= k <= n - 2:
        raise ValueError(f"need 2 <= k <= n-2, got k={k}, n={n}")
    r = n - k
    coeffs = [binom(n, p) for p in range(r + 1)]
    coeffs[r - 1] -= r
    coeffs[r] -= z_count(k, n)
    return Polynomial(coeffs)


def reduced_euler(fv: FVector) -> int:
    """Reduced Euler characteristic from an f-vector; 0 for the void complex."""
    if fv.is_void:
        return 0
    return -sum((-1) ** p * c for p, c in enumerate(fv.counts))


def nonface_layers(k: int, n: int) -> NonfaceLayers:
    """Construct the two minimal nonface layers of the squared-path complex.

    Every returned set is re-verified to fail is_face; a failure here is an
    internal error, not bad input.
    """
    if not 2 <= k <= n - 2:
        raise ValueError(f"need 2 <= k <= n-2, got k={k}, n={n}")
    r = n - k
    vertices = range(1, n + 1)
    level_rminus1 = []
    for s in range(1, r + 1):
        run = set(range(s, s + k + 1))
        level_rminus1.append(tuple(v for v in vertices if v not in run))
    level_r_by_j: list[tuple[tuple[int, ...], ...]] = []
    for j in range(min(k - 1, r) + 1):
        group = []
        for jump_positions in combinations(range(k - 1), j):
            jumps = set(jump_positions)
            for start in range(1, r - j + 2):
                member = start
                members = {member}
                for pos in range(k - 1):
                    member += 2 if pos in jumps else 1
                    members.add(member)
                group.append(tuple(v for v in vertices if v not in members))
        group.sort()
        level_r_by_j.append(tuple(group))
    face = _face_test(squared_path(n), k)
    for s in level_rminus1 + [t for g in level_r_by_j for t in g]:
        if face(s):
            raise RuntimeError(f"internal error: constructed nonface {s} tested as a face for k={k}, n={n}")
    return NonfaceLayers(
        k=k,
        n=n,
        level_rminus1=tuple(level_rminus1),
        level_r_by_j=tuple(level_r_by_j),
    )


def layered_beta(k: int, n: int) -> int:
    """Top Betti number via the layered nonface count: C(n-1, r) + r - z."""
    if not 2 <= k <= n - 2:
        raise ValueError(f"need 2 <= k <= n-2, got k={k}, n={n}")
    r = n - k
    return binom(n - 1, r) + r - z_count(k, n)


def faces_by_dimension(graph: Graph, k: int, connectivity: str | None = None) -> list[list[tuple[int, ...]]]:
    """Faces grouped by dimension (index d lists the cardinality d+1 faces).

    The empty face is implicit.  Returns [] for complexes with no vertices
    (void, or the complex containing only the empty face).  Each layer is
    in lexicographic order, which keeps the rank's fill-in low.
    """
    n = graph.n
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    require_full_scan_capacity(n, "face enumeration")
    conn = connectivity_test(graph, connectivity)
    vertices = range(1, n + 1)
    out: list[list[tuple[int, ...]]] = []
    for p in range(1, n - k + 1):
        # Complementing reverses lexicographic order, so the i-th p-set pairs
        # with the i-th (n-p)-set counted from the end: its complement.
        complements = reversed(list(combinations(vertices, n - p)))
        layer = [
            f
            for f, c in zip(combinations(vertices, p), complements)
            if not _all_k_subsets_connected(c, k, conn)
        ]
        if not layer:
            break
        out.append(layer)
    return out
