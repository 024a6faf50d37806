"""k-cut complexes: faces, f-vectors, closed enumerators, nonface layers.

The k-cut complex of a graph has one facet per disconnected k-subset T,
namely the complement of T.  Equivalently a set F is a face exactly when
its complement contains some disconnected k-subset; all facets have
cardinality n-k, and a set of cardinality n-k or n-k-1 is a nonface
exactly when its complement is bad.
"""

from __future__ import annotations

from itertools import accumulate, combinations, filterfalse
from math import comb
from typing import Iterable, NamedTuple

from .complements import BadProfile, _all_k_subsets_connected, bad_sets_by_size, connectivity_test
from .complements import q_profile_bruteforce, z_count
from .complements import is_bad  # unused here; kept because bench/tracer.py wraps complexes.is_bad
from .graphs import Graph, canonical_vertex_set, require_full_scan_capacity, squared_path
from .polynomials import Polynomial


class FVector(NamedTuple):
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

    @classmethod
    def from_profile(cls, profile: BadProfile) -> FVector:
        """Face counts from bad-set counts, f_p = C(n,p) - q(n-p); void when all are 0."""
        n, k = profile.n, profile.k
        counts = tuple(comb(n, p) - profile.q(n - p) for p in range(n - k + 1))
        return cls(k=k, n=n, counts=counts if any(counts) else None)

    def to_text(self) -> str:
        lines = [f"k={self.k} n={self.n}", f"void={'true' if self.is_void else 'false'}"]
        if self.counts is not None:
            lines += [f"p={p} f={c}" for p, c in enumerate(self.counts)]
        return "\n".join(lines)


class NonfaceLayers(NamedTuple):
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

    def to_text(self) -> str:
        lines = [f"k={self.k} n={self.n} r={self.r}"]
        for s in self.level_rminus1:
            lines.append(f"level=r-1 set={','.join(map(str, s))}")
        for j, group in enumerate(self.level_r_by_j):
            for s in group:
                lines.append(f"level=r j={j} set={','.join(map(str, s))}")
        return "\n".join(lines)


def disconnected_k_sets(graph: Graph, k: int) -> list[tuple[int, ...]]:
    """All disconnected k-subsets, ascending lexicographic order."""
    n = graph.n
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    require_full_scan_capacity(n, "disconnected k-set enumeration")
    return list(filterfalse(connectivity_test(graph), combinations(range(1, n + 1), k)))


def is_face(graph: Graph, k: int, face: Iterable[int]) -> bool:
    """Face test: the complement must contain a disconnected k-subset."""
    n = graph.n
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    f = canonical_vertex_set(face)
    if f and (f[0] < 1 or f[-1] > n):
        raise ValueError(f"vertex set {f} leaves the range 1..{n}")
    comp = tuple(v for v in range(1, n + 1) if v not in f)
    return len(comp) >= k and not _all_k_subsets_connected(comp, k, connectivity_test(graph))


def f_vector_bruteforce(graph: Graph, k: int) -> FVector:
    """Exhaustive f-vector read off the bad-set profile: f_p = C(n,p) - q(n-p).

    A p-set is a face exactly when its complement, of size n-p >= k, is
    not bad, so the one bad-set scan counts the faces of every size.
    """
    return FVector.from_profile(q_profile_bruteforce(graph, k))


def face_enumerator_closed(k: int, n: int) -> Polynomial:
    """Face enumerator of the squared-path k-cut complex, coefficient p = f_{p-1}.

    Full binomial counts up to cardinality r-2, then r runs removed at
    cardinality r-1 and the connected k-set count removed at the top.
    """
    if not 2 <= k <= n - 2:
        raise ValueError(f"need 2 <= k <= n-2, got k={k}, n={n}")
    r = n - k
    coeffs = [comb(n, p) for p in range(r + 1)]
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

    Every returned set is re-verified to be a nonface, by the bad-set test
    on its complement; a failure here is an internal error, not bad input.
    """
    if not 2 <= k <= n - 2:
        raise ValueError(f"need 2 <= k <= n-2, got k={k}, n={n}")
    r = n - k
    conn = connectivity_test(squared_path(n))

    def nonface(comp: tuple[int, ...]) -> tuple[int, ...]:
        if not _all_k_subsets_connected(comp, k, conn):
            raise RuntimeError(f"internal error: constructed nonface complement {comp} is not bad for k={k}, n={n}")
        return tuple(v for v in range(1, n + 1) if v not in comp)

    level_rminus1 = tuple(nonface(tuple(range(s, s + k + 1))) for s in range(1, r + 1))
    level_r_by_j: list[tuple[tuple[int, ...], ...]] = []
    for j in range(min(k - 1, r) + 1):
        group = []
        for jump_positions in combinations(range(k - 1), j):
            steps = [2 if pos in jump_positions else 1 for pos in range(k - 1)]
            group += [nonface(tuple(accumulate(steps, initial=start))) for start in range(1, r - j + 2)]
        group.sort()
        level_r_by_j.append(tuple(group))
    return NonfaceLayers(k=k, n=n, level_rminus1=level_rminus1, level_r_by_j=tuple(level_r_by_j))


def faces_by_dimension(graph: Graph, k: int) -> list[list[tuple[int, ...]]]:
    """Faces grouped by dimension (index d lists the cardinality d+1 faces).

    The empty face is implicit.  Returns [] for complexes with no vertices
    (void, or the complex containing only the empty face).  Each layer is
    in lexicographic order, which keeps the rank's fill-in low.
    """
    n = graph.n
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    require_full_scan_capacity(n, "face enumeration")
    levels = list(bad_sets_by_size(graph, k))
    vertices = range(1, n + 1)
    out: list[list[tuple[int, ...]]] = []
    for p in range(1, n - k + 1):
        if n - p - k >= len(levels):
            layer = list(combinations(vertices, p))
        else:
            # A p-set is a face iff its complement is not bad.  Complementing reverses lex
            # order, so the i-th p-set pairs with the i-th (n-p)-set from the end.
            bad = levels[n - p - k]
            complements = reversed(list(combinations(vertices, n - p)))
            layer = [f for f, c in zip(combinations(vertices, p), complements) if c not in bad]
        if not layer:
            break
        out.append(layer)
    return out
