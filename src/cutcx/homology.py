"""Finite-field simplicial homology for small complexes, by boundary ranks.

The chain complex is augmented: the empty face is the single generator in
dimension -1, so Betti numbers are reduced.  Ranks are computed exactly,
over every prime alike, by sparse column reduction mod p on the stored
boundary columns.  Boundary composition is checked over the integers,
which forces it over every field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .complexes import faces_by_dimension
from .formulas import beta_closed
from .graphs import squared_path

MAX_PRIME = 1 << 16

# A rank computation samples finitely many coefficient fields; it can
# certify homology over those fields, never the homotopy type.
FIELD_SAMPLING_NOTE = "homology certified over the sampled prime fields only"


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """Arithmetic modulo a validated prime below 2^16."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p) or p >= MAX_PRIME:
            raise ValueError(f"modulus must be a prime below 2^16, got {p!r}")
        self.p = p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return pow(a, -1, self.p)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


def rank_mod_p(columns: Iterable[Iterable[tuple[int, int]]], p: int) -> int:
    """Rank over GF(p) of a matrix given column by column as (row, value) pairs.

    Sparse column reduction: each column, held as a dict row -> residue,
    is reduced by the pivot column that owns its largest row until it
    vanishes or its largest row is new; a new pivot is scaled to a leading
    1 and kept under that row.  Keying by the largest row keeps fill-in
    low on boundary matrices with lexicographically listed faces: keyed by
    the smallest row, GF(3) ranks at k=6, n=14 cost about ten times more.
    """
    field = PrimeField(p)
    pivots: dict[int, dict[int, int]] = {}
    for entries in columns:
        col: dict[int, int] = {}
        for i, value in entries:
            c = (col.get(i, 0) + value) % p
            if c:
                col[i] = c
            else:
                col.pop(i, None)
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                scale = field.inv(col[low])
                pivots[low] = {i: c * scale % p for i, c in col.items()}
                break
            factor = col[low]
            for i, a in pivot.items():
                c = (col.get(i, 0) - factor * a) % p
                if c:
                    col[i] = c
                else:
                    del col[i]
    return len(pivots)


@dataclass(frozen=True)
class BoundaryMatrix:
    """Signed boundary map from dimension dim to dim-1, stored by column.

    Each column lists (row index, sign) pairs; a column for a d-face has
    exactly d+1 entries.  Row indices point into the (dim-1)-face list,
    with the empty face as the single row of the dimension-0 matrix.
    """

    dim: int
    nrows: int
    ncols: int
    columns: tuple[tuple[tuple[int, int], ...], ...]

    def rank(self, p: int) -> int:
        PrimeField(p)
        if self.nrows == 0 or self.ncols == 0:
            return 0
        return rank_mod_p(self.columns, p)

    def triplet_lines(self) -> list[str]:
        """Debug dump, one 'dim row col value' line per nonzero entry."""
        return [
            f"{self.dim} {i} {j} {sign}"
            for j, col in enumerate(self.columns)
            for i, sign in col
        ]


def build_chain_complex(faces_by_dim: Sequence[Sequence[tuple[int, ...]]]) -> list[BoundaryMatrix]:
    """Boundary matrices of the augmented complex from faces grouped by dimension.

    faces_by_dim[d] lists the d-dimensional faces (cardinality d+1) as
    strictly increasing vertex tuples; the empty face is implicit.  Input
    must be downward closed; a missing subface is reported as the witness.
    """
    layers: list[list[tuple[int, ...]]] = []
    for d, layer in enumerate(faces_by_dim):
        seen: list[tuple[int, ...]] = []
        for f in layer:
            t = tuple(f)
            if len(t) != d + 1 or any(a >= b for a, b in zip(t, t[1:])):
                raise ValueError(f"dimension {d} face {t!r} is not a strictly increasing {d + 1}-tuple")
            seen.append(t)
        if len(set(seen)) != len(seen):
            raise ValueError(f"duplicate faces in dimension {d}")
        layers.append(seen)
    while layers and not layers[-1]:
        layers.pop()
    if not layers:
        return []
    matrices: list[BoundaryMatrix] = []
    index: dict[tuple[int, ...], int] = {}
    for d, layer in enumerate(layers):
        if not layer:
            raise ValueError(f"dimension {d} is empty below a populated dimension")
        columns = []
        for f in layer:
            if d == 0:
                columns.append(((0, 1),))
                continue
            entries = []
            for pos in range(d + 1):
                sub = f[:pos] + f[pos + 1 :]
                if sub not in index:
                    raise ValueError(f"not downward closed: face {f} present but subface {sub} missing")
                entries.append((index[sub], (-1) ** pos))
            columns.append(tuple(entries))
        nrows = 1 if d == 0 else len(layers[d - 1])
        matrices.append(BoundaryMatrix(dim=d, nrows=nrows, ncols=len(layer), columns=tuple(columns)))
        index = {f: i for i, f in enumerate(layer)}
    return matrices


def composition_vanishes(matrices: Sequence[BoundaryMatrix]) -> bool:
    """Check boundary-of-boundary = 0 over the integers, column by column."""
    for low, high in zip(matrices, matrices[1:]):
        for col in high.columns:
            acc: dict[int, int] = {}
            for mid_row, sign in col:
                for out_row, inner_sign in low.columns[mid_row]:
                    acc[out_row] = acc.get(out_row, 0) + sign * inner_sign
            if any(v != 0 for v in acc.values()):
                return False
    return True


def betti_numbers(matrices: Sequence[BoundaryMatrix], prime: int) -> list[int]:
    """Reduced Betti numbers in dimensions 0..d over GF(prime)."""
    PrimeField(prime)
    if not matrices:
        return []
    if not composition_vanishes(matrices):
        raise RuntimeError("internal error: boundary composition does not vanish")
    ranks = [m.rank(prime) for m in matrices]
    out = []
    for i, m in enumerate(matrices):
        higher = ranks[i + 1] if i + 1 < len(ranks) else 0
        out.append(m.ncols - ranks[i] - higher)
    return out


@dataclass(frozen=True)
class ConcentrationReport:
    """Outcome of checking that homology sits entirely in the top dimension."""

    k: int
    n: int
    r: int
    expected_top: int
    betti_by_prime: dict[int, tuple[int, ...]]
    ok: bool
    mismatches: tuple[str, ...]
    note: str = FIELD_SAMPLING_NOTE

    def to_lines(self) -> list[str]:
        lines = [f"k={self.k} n={self.n} r={self.r} expected_top={self.expected_top}"]
        for p in sorted(self.betti_by_prime):
            vec = ",".join(map(str, self.betti_by_prime[p]))
            lines.append(f"prime={p} betti={vec}")
        lines.append(f"ok={'true' if self.ok else 'false'}")
        lines.extend(self.mismatches)
        lines.append(f"note={self.note}")
        return lines


def verify_concentration(k: int, n: int, primes: Iterable[int] = (2, 3)) -> ConcentrationReport:
    """Compare squared-path cut complex homology against the closed top Betti number.

    Expected: zero in every dimension except r-1, where the closed formula
    value must appear, over each sampled prime.  A mismatch is reported,
    never silently passed.
    """
    if k < 2 or n < k + 2:
        raise ValueError(f"need k >= 2 and n >= k+2, got k={k}, n={n}")
    prime_list = sorted(set(primes))
    if not prime_list:
        raise ValueError("at least one prime is required")
    for p in prime_list:
        PrimeField(p)
    r = n - k
    expected_top = beta_closed(k, n)
    expected = tuple([0] * (r - 1) + [expected_top])
    matrices = build_chain_complex(faces_by_dimension(squared_path(n), k))
    betti_by_prime: dict[int, tuple[int, ...]] = {}
    mismatches: list[str] = []
    for p in prime_list:
        vec = tuple(betti_numbers(matrices, p))
        betti_by_prime[p] = vec
        if vec != expected:
            mismatches.append(f"prime={p} betti={vec} expected={expected}")
    return ConcentrationReport(
        k=k,
        n=n,
        r=r,
        expected_top=expected_top,
        betti_by_prime=betti_by_prime,
        ok=not mismatches,
        mismatches=tuple(mismatches),
    )
