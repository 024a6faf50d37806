"""Simplicial homology for small complexes, by boundary ranks.

The chains are those of the complex relative to the closed star of its
least vertex: the faces outside that star.  The star is a cone, so the
relative homology is the reduced homology of the complex, over the
integers with torsion included and over every field (Hatcher, Algebraic
Topology, 2002, section 2.1: the long exact sequence of the pair).
Ranks are computed exactly in two ways.  Over the integers, a
bit-packed column reduction admits only pivots of +1 or -1; when it
finishes, every image is a saturated lattice, so the homology has no
torsion and its ranks are the Betti numbers over every field.  Over
GF(p), for any prime, sparse column reduction mod p always finishes.  One
driver runs either reduction top-down with clearing (Chen-Kerber's twist):
a column of the d-th boundary whose face is a pivot row of the reduced
(d+1)-th boundary is skipped, since boundary composition vanishing makes
it a combination of earlier columns, an integer one when that pivot is a
unit.  Boundary composition is checked over the integers, which forces it
over every field.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, combinations, count, repeat
from operator import lt
from typing import Callable, Collection, Iterable, NamedTuple, Sequence

from .complexes import faces_by_dimension
from .formulas import beta_closed
from .graphs import CapacityError, squared_path

MAX_PRIME = 1 << 16

# Largest n whose squared-path homology checks run within budget: every k
# at n = 18 takes 4.6-5.4 s of CPU (n = 17 2.0-2.4 s; two runs, 2-vCPU VM,
# Python 3.11) for any list of primes, since the integer certificate decides
# every one of these complexes, and each further vertex costs about 2.3
# times more.  Relative to the star only a few faces are chains, so the
# chain build, which still validates every face and looks up every
# subface, takes 84% of that time, and a run to n = 18 peaks near 59 MB.
HOMOLOGY_LIMIT = 18


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
    row, scaled to a leading 1.  Keying by the largest row keeps fill-in
    low on boundary matrices with lexicographically listed faces: keyed by
    the smallest row, GF(3) ranks at k=6, n=14 cost about ten times more.
    The caller has checked that p is prime.
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
                scale = pow(col[low], -1, p)
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


def _unit_pivot_rows(columns: Iterable[Collection[tuple[int, int]]]) -> set[int] | None:
    """Pivot rows of the reduced matrix over the integers, or None when undecided.

    Each column is held as two bitmasks, plus and minus, with one bit for
    each row holding +1 and -1.  Reduction is that of _pivot_rows, keyed by
    the largest row, with every pivot stored with a leading +1: a column
    leading with +1 subtracts the pivot, one leading with -1 adds it.  Each
    step is unimodular, so the pivots are units and the column span is
    unchanged.  None means a column that lists a row twice or a value
    outside {-1, 0, 1}, or a step that would make a 2 or a -2.  That leaves
    the question of torsion open; it never means the rank is wrong.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for entries in columns:
        plus = minus = 0
        listed = len(entries)
        for i, value in entries:
            if value == 1:
                plus |= 1 << i
            elif value == -1:
                minus |= 1 << i
            elif value:
                return None
            else:
                listed -= 1
        if (plus | minus).bit_count() != listed:  # a row listed twice
            return None
        while plus or minus:
            # plus and minus are disjoint, so the larger holds the largest row.
            positive = plus > minus
            low = (plus if positive else minus).bit_length() - 1
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = (plus, minus) if positive else (minus, plus)
                break
            add_plus, add_minus = pivot
            if positive:
                add_plus, add_minus = add_minus, add_plus
            if plus & add_plus or minus & add_minus:
                return None
            plus |= add_plus
            minus |= add_minus
            cancelled = plus & minus
            plus ^= cancelled
            minus ^= cancelled
    return set(pivots)


class BoundaryMatrix(NamedTuple):
    """Signed boundary map from dimension dim to dim-1, stored by column.

    Each column lists (row index, sign) pairs, one for each subface outside
    the star that build_chain_complex works relative to, so a column for a
    d-face has at most d+1 entries and may have none.  Row indices point
    into the list of (dim-1)-faces outside the star.  The dimension-0
    matrix has no rows, since the empty face lies in the star.
    """

    dim: int
    nrows: int
    ncols: int
    columns: tuple[tuple[tuple[int, int], ...], ...]

    def rank(self, p: int) -> int:
        """Rank over GF(p)."""
        return rank_mod_p(self.columns, p)


def build_chain_complex(faces_by_dim: Sequence[Sequence[tuple[int, ...]]]) -> list[BoundaryMatrix]:
    """Boundary matrices of the complex relative to the closed star of its least vertex.

    faces_by_dim[d] lists the d-dimensional faces (cardinality d+1) as
    strictly increasing vertex tuples.  Input must be downward closed; a
    missing subface is reported as the witness.  Every face is validated
    and every subface looked up, whether or not it is kept.

    The closed star st(v) of the least vertex v is a cone, so
    H_i(Delta, st v) is the reduced homology of Delta over the integers,
    torsion included (Hatcher, Algebraic Topology, 2002, section 2.1: the
    long exact sequence of the pair).  The relative chains are the faces
    outside the star: those t with v not in t and (v,) + t, their union
    with v, not a face.  The empty face lies in the star, so the
    dimension-0 matrix has no rows.  There is one matrix per dimension of
    Delta, possibly with no columns.

    A d-face's subfaces are looked up in the order combinations() lists
    them, which leaves out the last vertex first: the j-th one leaves out
    position d-j and gets the sign (-1)^(d-j).  A column lists only the
    subfaces outside the star, in that order.
    """
    layers = [list(map(tuple, layer)) for layer in faces_by_dim]
    while layers and not layers[-1]:
        layers.pop()
    matrices: list[BoundaryMatrix] = []
    below: set[tuple[int, ...]] = {()}  # every face one dimension down
    here = set(layers[0]) if layers else set()
    rows: dict[tuple[int, ...], int] = {}  # the faces one dimension down outside the star, by row
    for d, faces in enumerate(layers):
        if not faces:
            raise ValueError(f"dimension {d} is empty below a populated dimension")
        if not _increasing(faces, d + 1):
            t = next(t for t in faces if not _increasing([t], d + 1))
            raise ValueError(f"dimension {d} face {t!r} is not a strictly increasing {d + 1}-tuple")
        if not below.issuperset(chain.from_iterable(map(combinations, faces, repeat(d)))):
            f = next(f for f in faces if not below.issuperset(combinations(f, d)))
            sub = next(sub for sub in combinations(f, d) if sub not in below)
            raise ValueError(f"not downward closed: face {f} present but subface {sub} missing")
        if len(here) != len(faces):
            raise ValueError(f"duplicate faces in dimension {d}")
        if d == 0:
            cone = min(faces)
        above = set(layers[d + 1]) if d + 1 < len(layers) else set()
        # cone is (v,), v the least vertex: cone + t is the union of t and v, sorted, when t lacks v.
        kept = [t for t in faces if t[0] != cone[0] and cone + t not in above]
        signs = [(-1) ** (d - j) for j in range(d + 1)]
        columns = tuple(
            tuple((row, sign) for row, sign in zip(map(rows.get, combinations(t, d)), signs) if row is not None)
            for t in kept
        )
        matrices.append(BoundaryMatrix(dim=d, nrows=len(rows), ncols=len(kept), columns=columns))
        rows = dict(zip(kept, count()))
        below, here = here, above
    return matrices


def _increasing(faces: Sequence[tuple[int, ...]], m: int) -> bool:
    """Whether every face is a strictly increasing m-tuple, checked position by position across the layer, in C."""
    if set(map(len, faces)) != {m}:
        return False
    positions = list(zip(*faces))
    return all(all(map(lt, a, b)) for a, b in zip(positions, positions[1:]))


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
                if sign == 1:  # a boundary has only signs of 1 and -1
                    plus += adds
                    minus += subs
                elif sign == -1:
                    plus += subs
                    minus += adds
                elif sign > 0:
                    plus += adds * sign
                    minus += subs * sign
                else:
                    plus += subs * -sign
                    minus += adds * -sign
            plus.sort()
            minus.sort()
            if plus != minus:
                return False
    return True


def betti_numbers(matrices: Sequence[BoundaryMatrix], prime: int) -> list[int]:
    """Reduced Betti numbers in dimensions 0..d over GF(prime)."""
    require_prime(prime)
    if not composition_vanishes(matrices):
        raise RuntimeError("internal error: boundary composition does not vanish")
    return _betti(matrices, partial(_pivot_rows, p=prime))


def integral_betti(matrices: Sequence[BoundaryMatrix]) -> list[int] | None:
    """Reduced Betti numbers in dimensions 0..d over every field at once, or None when undecided.

    A vector certifies that the integral homology has no torsion, so by
    universal coefficients it is the Betti vector over GF(p) for every
    prime p.  None means the integer reduction met an entry it could not
    keep in {-1, 0, 1}, so torsion is not ruled out; betti_numbers then
    answers prime by prime.
    """
    if not composition_vanishes(matrices):
        raise RuntimeError("internal error: boundary composition does not vanish")
    return _betti(matrices, _unit_pivot_rows)


def _betti(matrices: Sequence[BoundaryMatrix], pivot_rows: Callable[[Sequence], set[int] | None]) -> list[int] | None:
    """Reduced Betti numbers from the ranks alone, on a complex already checked for dd = 0.

    pivot_rows reduces a list of columns to its pivot rows, one per unit of
    rank: _unit_pivot_rows over the integers, or _pivot_rows bound to a
    prime.  A None from it, undecided, makes the result None.  Ranks run
    from the top dimension down.  A pivot row of the reduced boundary of
    dimension d+1 names a d-face whose column in the boundary of dimension
    d is a combination of earlier columns, so it is cleared.
    """
    ranks = [0] * (len(matrices) + 1)
    cleared: set[int] | None = set()
    for i in reversed(range(len(matrices))):
        columns = matrices[i].columns
        if cleared:
            columns = [col for j, col in enumerate(columns) if j not in cleared]
        cleared = pivot_rows(columns)
        if cleared is None:
            return None
        ranks[i] = len(cleared)
    return [m.ncols - ranks[i] - ranks[i + 1] for i, m in enumerate(matrices)]


class ConcentrationReport(NamedTuple):
    """Outcome of checking that homology sits entirely in the top dimension."""

    k: int
    n: int
    r: int
    expected_top: int
    betti_by_prime: dict[int, tuple[int, ...]]
    ok: bool
    mismatches: tuple[str, ...]
    torsion_free: bool  # the integers decided: betti_by_prime holds over every field; if false, over its primes only


def verify_concentration(k: int, n: int, primes: Iterable[int] = (2, 3)) -> ConcentrationReport:
    """Compare squared-path cut complex homology against the closed top Betti number.

    Expected: zero in every dimension except r-1, where the closed formula
    value must appear, over each sampled prime.  One integer reduction
    answers every prime when it decides; otherwise each prime gets its own
    reduction.  A mismatch is reported, never silently passed.
    """
    # Refused before beta_closed, whose own cost grows with k: seconds of CPU at k in the thousands.
    if n > HOMOLOGY_LIMIT:
        raise CapacityError(f"homology check at n={n} exceeds the supported limit n <= {HOMOLOGY_LIMIT}")
    expected_top = beta_closed(k, n)  # refuses k < 2 or n < k+2
    prime_list = sorted(set(map(require_prime, primes)))
    if not prime_list:
        raise ValueError("at least one prime is required")
    r = n - k
    expected = tuple([0] * (r - 1) + [expected_top])
    matrices = build_chain_complex(faces_by_dimension(squared_path(n), k))
    integral = integral_betti(matrices)
    betti_by_prime: dict[int, tuple[int, ...]] = {}
    mismatches: list[str] = []
    for p in prime_list:
        vec = tuple(_betti(matrices, partial(_pivot_rows, p=p)) if integral is None else integral)
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
        torsion_free=integral is not None,
    )
