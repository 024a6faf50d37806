"""Finite-field simplicial homology for small complexes, by boundary ranks.

The chain complex is augmented: the empty face is the single generator in
dimension -1, so Betti numbers are reduced.  Ranks are computed exactly,
over every prime alike, by sparse column reduction mod p on the stored
boundary columns.  They are computed top-down with clearing (Chen-Kerber's
twist): a column of the d-th boundary whose face is a pivot row of the
reduced (d+1)-th boundary is skipped, since boundary composition vanishing
makes it a combination of earlier columns.  Boundary composition is
checked over the integers, which forces it over every field.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, count, cycle, repeat
from operator import getitem, lt
from typing import Collection, Iterable, Sequence

from .complexes import faces_by_dimension
from .formulas import beta_closed
from .graphs import CapacityError, squared_path

MAX_PRIME = 1 << 16

# Largest n whose squared-path homology checks run within budget: over
# GF(2) and GF(3), every k at n = 18 takes about 53 s of CPU (n = 17 about
# 24 s; 2-vCPU VM, Python 3.11), and each further vertex costs about 2.2
# times more.
HOMOLOGY_LIMIT = 18

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


def require_prime(p: int) -> int:
    """p itself when it is a prime below 2^16, the moduli every rank routine accepts; else ValueError."""
    if not isinstance(p, int) or p >= MAX_PRIME or not is_prime(p):
        raise ValueError(f"modulus must be a prime below 2^16, got {p!r}")
    return p


def rank_mod_p(columns: Iterable[Iterable[tuple[int, int]]], p: int) -> int:
    """Rank over GF(p) of a matrix given column by column as (row, value) pairs."""
    return len(_pivot_rows(columns, require_prime(p)))


def _pivot_rows(columns: Iterable[Iterable[tuple[int, int]]], p: int) -> set[int]:
    """Pivot rows of the reduced matrix over GF(p); there is one per unit of rank.

    Sparse column reduction: each column, held as a dict row -> residue,
    is reduced by the pivot column that owns its largest row until it
    vanishes or its largest row is new; a new pivot is kept under that
    row, scaled to a leading 1 unless it has one already (always so over
    GF(2)).  Keying by the largest row keeps fill-in low on boundary
    matrices with lexicographically listed faces: keyed by the smallest
    row, GF(3) ranks at k=6, n=14 cost about ten times more.  The
    caller has checked that p is prime.
    """
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
                lead = col[low]
                if lead == 1:
                    pivots[low] = col
                else:
                    scale = pow(lead, -1, p)
                    pivots[low] = {i: c * scale % p for i, c in col.items()}
                break
            factor = col[low]
            for i, a in pivot.items():
                c = (col.get(i, 0) - factor * a) % p
                if c:
                    col[i] = c
                else:
                    del col[i]
    return set(pivots)


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

    def rank(self, p: int, skip: Collection[int] = (), pivot_rows: set[int] | None = None) -> int:
        """Rank over GF(p), leaving out the columns in skip.

        The pivot rows of the reduction are added to pivot_rows when given.
        Skipping is sound only for columns known to lie in the span of
        earlier ones, as clearing guarantees.
        """
        require_prime(p)
        if self.nrows == 0 or self.ncols == 0:
            return 0
        columns = [col for j, col in enumerate(self.columns) if j not in skip] if skip else self.columns
        rows = _pivot_rows(columns, p)
        if pivot_rows is not None:
            pivot_rows |= rows
        return len(rows)


def build_chain_complex(faces_by_dim: Sequence[Sequence[tuple[int, ...]]]) -> list[BoundaryMatrix]:
    """Boundary matrices of the augmented complex from faces grouped by dimension.

    faces_by_dim[d] lists the d-dimensional faces (cardinality d+1) as
    strictly increasing vertex tuples; the empty face is implicit.  Input
    must be downward closed; a missing subface is reported as the witness.

    A d-face's subfaces are looked up in the order combinations() lists
    them, which leaves out the last vertex first: the j-th one leaves out
    position d-j and gets the sign (-1)^(d-j).
    """
    layers: list[list[tuple[int, ...]]] = []
    indexes: list[dict[tuple[int, ...], int]] = []
    for d, layer in enumerate(faces_by_dim):
        faces = list(map(tuple, layer))
        for t in faces:
            if len(t) != d + 1 or not all(map(lt, t, t[1:])):
                raise ValueError(f"dimension {d} face {t!r} is not a strictly increasing {d + 1}-tuple")
        index = dict(zip(faces, count()))
        if len(index) != len(faces):
            raise ValueError(f"duplicate faces in dimension {d}")
        layers.append(faces)
        indexes.append(index)
    while layers and not layers[-1]:
        layers.pop()
    if not layers:
        return []
    matrices: list[BoundaryMatrix] = []
    indexes.reverse()  # popped bottom up, so each index goes once the layer above has used it
    below: dict[tuple[int, ...], int] = {}
    for d, layer in enumerate(layers):
        if not layer:
            raise ValueError(f"dimension {d} is empty below a populated dimension")
        if d == 0:
            columns = (((0, 1),),) * len(layer)
        else:
            rows = list(map(below.get, chain.from_iterable(map(combinations, layer, repeat(d)))))
            if None in rows:
                raise _missing_subface(layer, below)
            # One (row, sign) pair object per row and sign, shared by every
            # column holding it; zip(*[it] * m) deals them out in columns of m.
            signed = {sign: [(row, sign) for row in range(len(below))] for sign in (1, -1)}
            pairs = map(getitem, cycle([signed[(-1) ** (d - j)] for j in range(d + 1)]), rows)
            columns = tuple(zip(*[pairs] * (d + 1)))
        nrows = 1 if d == 0 else len(below)
        matrices.append(BoundaryMatrix(dim=d, nrows=nrows, ncols=len(layer), columns=columns))
        below = indexes.pop()
    return matrices


def _missing_subface(layer: Sequence[tuple[int, ...]], index: dict[tuple[int, ...], int]) -> ValueError:
    """The error naming the first face with a subface not in index, leaving out its first vertex first."""
    for f in layer:
        for pos in range(len(f)):
            sub = f[:pos] + f[pos + 1 :]
            if sub not in index:
                return ValueError(f"not downward closed: face {f} present but subface {sub} missing")
    raise AssertionError("every subface is present")


def composition_vanishes(matrices: Sequence[BoundaryMatrix]) -> bool:
    """Check boundary-of-boundary = 0 over the integers, column by column.

    Each column of the lower matrix is split once into the rows it adds
    and the rows it subtracts, a row repeated |value| times.  A column of
    the upper matrix composes to zero exactly when the rows its entries
    add, as a multiset, are the rows they subtract.  Exact for any integer
    entries; the row lists grow with the entries' absolute values, which
    are 1 on a boundary.
    """
    for low, high in zip(matrices, matrices[1:]):
        split = []
        for col in low.columns:
            adds: list[int] = []
            subs: list[int] = []
            for row, value in col:
                if value == 1:  # a boundary has only entries of 1 and -1
                    adds.append(row)
                elif value == -1:
                    subs.append(row)
                elif value > 0:
                    adds += [row] * value
                else:
                    subs += [row] * -value
            split.append((tuple(adds), tuple(subs)))
        for col in high.columns:
            plus: list[int] = []
            minus: list[int] = []
            for mid, sign in col:
                adds, subs = split[mid]
                if sign > 0:
                    plus += adds * sign
                    minus += subs * sign
                else:
                    plus += subs * -sign
                    minus += adds * -sign
            if sorted(plus) != sorted(minus):
                return False
    return True


def betti_numbers(matrices: Sequence[BoundaryMatrix], prime: int) -> list[int]:
    """Reduced Betti numbers in dimensions 0..d over GF(prime)."""
    require_prime(prime)
    if not matrices:
        return []
    if not composition_vanishes(matrices):
        raise RuntimeError("internal error: boundary composition does not vanish")
    return _betti(matrices, prime)


def _betti(matrices: Sequence[BoundaryMatrix], prime: int) -> list[int]:
    """Reduced Betti numbers from the ranks alone, on a complex already checked for dd = 0.

    Ranks run from the top dimension down.  A pivot row of the reduced
    boundary of dimension d+1 names a d-face whose column in the boundary
    of dimension d is a combination of earlier columns, so it is cleared.
    """
    ranks = [0] * len(matrices)
    cleared: set[int] = set()
    for i in reversed(range(len(matrices))):
        pivots: set[int] = set()
        ranks[i] = matrices[i].rank(prime, cleared, pivots)
        cleared = pivots
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
    note = FIELD_SAMPLING_NOTE  # a class constant: no report certifies more than its sampled fields


def verify_concentration(k: int, n: int, primes: Iterable[int] = (2, 3)) -> ConcentrationReport:
    """Compare squared-path cut complex homology against the closed top Betti number.

    Expected: zero in every dimension except r-1, where the closed formula
    value must appear, over each sampled prime.  A mismatch is reported,
    never silently passed.
    """
    if k < 2 or n < k + 2:
        raise ValueError(f"need k >= 2 and n >= k+2, got k={k}, n={n}")
    if n > HOMOLOGY_LIMIT:
        raise CapacityError(f"homology check at n={n} exceeds the supported limit n <= {HOMOLOGY_LIMIT}")
    prime_list = sorted(set(map(require_prime, primes)))
    if not prime_list:
        raise ValueError("at least one prime is required")
    r = n - k
    expected_top = beta_closed(k, n)
    expected = tuple([0] * (r - 1) + [expected_top])
    matrices = build_chain_complex(faces_by_dimension(squared_path(n), k))
    if not composition_vanishes(matrices):
        raise RuntimeError("internal error: boundary composition does not vanish")
    betti_by_prime: dict[int, tuple[int, ...]] = {}
    mismatches: list[str] = []
    for p in prime_list:
        vec = tuple(_betti(matrices, p))
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
