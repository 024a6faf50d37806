"""Closed formulas for squared-path k-cut complexes.

Covers the exact top Betti number, its binomial-basis specializations at
k = 4 and k = 5, the fixed-codimension diagonal polynomials with their
finite-difference recurrence and sharpness constant, ordinary generating
functions along diagonals, and the h-polynomial / Hilbert series of the
Stanley-Reisner ring.  Everything is exact; no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from .complements import z_count
from .polynomials import Polynomial, RationalGenFun, backward_difference, binom


def beta_closed(k: int, n: int) -> int:
    """Top reduced Betti number of the squared-path k-cut complex.

    C(n-1, k-1) minus the connected k-set count plus n-k; zero at n = k+2.
    """
    if k < 2 or n < k + 2:
        raise ValueError(f"need k >= 2 and n >= k+2, got k={k}, n={n}")
    return binom(n - 1, k - 1) - z_count(k, n) + (n - k)


def beta_k4(n: int) -> int:
    """k = 4 specialization in the shifted binomial basis, n >= 7."""
    if n < 7:
        raise ValueError(f"need n >= 7, got n={n}")
    m = n - 7
    return 3 + 8 * binom(m, 1) + 6 * binom(m, 2) + binom(m, 3)


def beta_k5(n: int) -> int:
    """k = 5 specialization in the shifted binomial basis, n >= 8."""
    if n < 8:
        raise ValueError(f"need n >= 8, got n={n}")
    m = n - 8
    return 6 + 20 * binom(m, 1) + 21 * binom(m, 2) + 7 * binom(m, 3) + binom(m, 4)


def _times_linear(coeffs: list[int], a: int) -> list[int]:
    """Ascending integer coefficients multiplied by (x + a)."""
    out = [0] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] += a * c
        out[i + 1] += c
    return out


def diagonal_poly(r: int) -> Polynomial:
    """The codimension-r diagonal of beta_closed as a polynomial in k.

    Built from falling-factorial binomials: C(k+r-1, r) minus the weighted
    window sum of C(k-1, j) plus the constant r.  The sum is formed times r!
    in integers: r! C(k+r-1, r) is k(k+1)...(k+r-1), and r! C(k-1, j) is
    (r!/j!) (k-1)(k-2)...(k-j), each falling factorial the previous one
    times (k-j); one division by r! ends it.  Degree is exactly r-1;
    integer-valuedness at integers is asserted before returning.
    """
    if r < 3:
        raise ValueError(f"need r >= 3, got r={r}")
    scale = factorial(r)
    num = [1]
    for m in range(r):
        num = _times_linear(num, m)
    num[0] += r * scale
    falling = [1]
    weight = scale  # r!/j!
    for j in range(r + 1):
        if j:
            falling = _times_linear(falling, -j)
            weight //= j
        for i, c in enumerate(falling):
            num[i] -= (r - j + 1) * weight * c
    p = Polynomial([Fraction(c, scale) for c in num])
    if p.degree != r - 1:
        raise RuntimeError(f"internal error: diagonal polynomial degree {p.degree} != {r - 1}")
    for k in range(0, r + 1):
        if type(p(k)) is not int:
            raise RuntimeError(f"internal error: diagonal polynomial not integer at k={k}")
    return p


def leading_coefficient(r: int) -> Fraction:
    """Leading coefficient of the codimension-r diagonal polynomial: (r-2)/(r-1)!."""
    if r < 3:
        raise ValueError(f"need r >= 3, got r={r}")
    return Fraction(r - 2, factorial(r - 1))


class RecurrenceEntry(NamedTuple):
    """One evaluated instance of the order-r alternating recurrence."""

    k: int
    window: str  # "closed" for k >= r+3, "extension" for polynomial values below
    value: int | Fraction  # a Fraction only when the polynomial is wrong
    ok: bool


class RecurrenceCheck(NamedTuple):
    """Certificate for the order-r recurrence: symbolic kill plus numeric instances."""

    r: int
    k_max: int
    symbolic_zero: bool
    entries: tuple[RecurrenceEntry, ...]

    @property
    def ok(self) -> bool:
        return self.symbolic_zero and all(e.ok for e in self.entries)


def verify_recurrence(r: int, k_max: int) -> RecurrenceCheck:
    """Check that the codimension-r diagonal is killed by the r-th difference.

    Symbolically the r-fold backward difference of diagonal_poly(r) must be
    the zero polynomial.  Numerically the alternating binomial combination
    of beta_closed values is evaluated for r+3 <= k <= k_max ("closed"
    window) and, separately labelled, on the polynomial extension at
    3 <= k <= r+2 where beta_closed's own range runs out ("extension").
    """
    # Refused before diagonal_poly, whose own cost grows with r: seconds of CPU at r = 1000.
    if k_max < r + 3:
        raise ValueError(f"need k_max >= r+3, got k_max={k_max}, r={r}")
    poly = diagonal_poly(r)  # refuses r < 3
    symbolic_zero = backward_difference(poly, r).is_zero
    entries: list[RecurrenceEntry] = []
    for k in range(3, r + 3):
        value = sum((-1) ** i * binom(r, i) * poly(k - i) for i in range(r + 1))
        entries.append(RecurrenceEntry(k=k, window="extension", value=value, ok=value == 0))
    for k in range(r + 3, k_max + 1):
        value = sum((-1) ** i * binom(r, i) * beta_closed(k - i, k - i + r) for i in range(r + 1))
        entries.append(RecurrenceEntry(k=k, window="closed", value=value, ok=value == 0))
    return RecurrenceCheck(r=r, k_max=k_max, symbolic_zero=symbolic_zero, entries=tuple(entries))


def sharp_difference(r: int) -> int:
    """The (r-1)-fold backward difference of the diagonal: a constant, returned.

    Nonzero (it equals r-2), which makes order r sharp for the recurrence.
    """
    p = backward_difference(diagonal_poly(r), r - 1)
    if p.degree > 0:
        raise RuntimeError(f"internal error: order {r - 1} difference is not constant: {p!r}")
    c = p.coefficient(0)
    if not isinstance(c, int):
        raise RuntimeError(f"internal error: difference constant {c!r} is not an integer")
    return c


def diagonal_genfun(r: int) -> RationalGenFun:
    """Ordinary generating function of the codimension-r diagonal over k >= 1.

    The numerator over (1-x)^r comes from resumming the defining binomials:
    x(1 + x + ... + x^(r-1)) + r x (1-x)^(r-1) minus the sum over j < r of
    (r-j+1) x^(j+1) (1-x)^(r-j-1), each power written out by the binomial
    theorem.  It is then re-verified against the diagonal polynomial through
    50 series terms before being returned.
    """
    poly = diagonal_poly(r)  # refuses r < 3
    coeffs = [0] + [1] * r
    # (c, s, e) stands for c x^s (1-x)^e, whose x^(s+i) coefficient is c (-1)^i C(e, i).
    terms = [(r, 1, r - 1)] + [(-(r - j + 1), j + 1, r - j - 1) for j in range(r)]
    for c, s, e in terms:
        for i in range(e + 1):
            coeffs[s + i] += (-c if i & 1 else c) * binom(e, i)
    gf = RationalGenFun(numerator=Polynomial(coeffs), pole_order=r)
    if not gf.is_canonical:
        raise RuntimeError("internal error: generating function numerator shares a (1-x) factor")
    series = gf.series(51)
    if series[0] != 0 or any(series[k] != poly(k) for k in range(1, 51)):
        raise RuntimeError(f"internal error: series of {gf!r} disagrees with the diagonal polynomial")
    return gf


def h_polynomial(k: int, n: int) -> Polynomial:
    """h-polynomial of the squared-path k-cut complex (integer coefficients).

    The complex is the full (r-1)-skeleton of the simplex on n vertices with
    the r runs removed at cardinality r-1 and the connected k-sets at r.
    The skeleton's h-vector is h_i = C(k-1+i, i); a nonface of cardinality
    r-1 takes one from h_(r-1) and gives one back to h_r, one of cardinality
    r takes one from h_r.  O(r) binomials, no transform of the face counts.
    """
    if not 2 <= k <= n - 2:
        raise ValueError(f"need 2 <= k <= n-2, got k={k}, n={n}")
    r = n - k
    coeffs = [comb(k - 1 + i, i) for i in range(r + 1)]
    coeffs[r - 1] -= r
    coeffs[r] += r - z_count(k, n)
    return Polynomial(coeffs)


def hilbert_series(k: int, n: int) -> RationalGenFun:
    """Hilbert series of the Stanley-Reisner ring: h-polynomial over (1-t)^r."""
    return RationalGenFun(numerator=h_polynomial(k, n), pole_order=n - k)


class _BettiTableFields(NamedTuple):
    entries: dict[tuple[int, int], int]


class BettiTable(_BettiTableFields):
    """Grid of top Betti numbers indexed by (k, r), tagged with how it was computed."""

    __slots__ = ()
    provenance = "closed-form"  # a class constant: every table comes from beta_closed

    def __new__(cls, entries: dict[tuple[int, int], int]) -> BettiTable:
        for (k, r), v in entries.items():
            if v < 0:
                raise RuntimeError(f"internal error: negative entry at k={k}, r={r}")
        return super().__new__(cls, entries)

    @classmethod
    def _make(cls, iterable) -> BettiTable:
        # _replace builds its copy through _make, which would otherwise skip __new__'s check.
        return cls(*iterable)

    def value(self, k: int, r: int) -> int:
        return self.entries[(k, r)]

    @property
    def k_values(self) -> list[int]:
        return sorted({k for k, _ in self.entries})

    @property
    def r_values(self) -> list[int]:
        return sorted({r for _, r in self.entries})

    @staticmethod
    def from_closed(k_values, r_values) -> "BettiTable":
        entries = {(k, r): beta_closed(k, k + r) for k in k_values for r in r_values}
        return BettiTable(entries=entries)
