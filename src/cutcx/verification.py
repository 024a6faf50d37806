"""Cross-route verification suites: brute force against closed forms.

Each check is a function of its parameters that returns its failure
witnesses; an empty list is a pass.  A suite is a flat list of (printed
name, zero-argument thunk) pairs, and run_jobs turns each into a
CheckResult.  Checks look the library functions up as module globals when
they run, so a wrapper patched into this module takes effect.  The
reference grid of top Betti numbers is frozen here independently of
beta_closed and anchors the table check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from .complements import q_profile_bruteforce, q_profile_closed
from .complexes import f_vector_bruteforce, face_enumerator_closed, reduced_euler
from .complexes import is_face  # unused here; kept because bench/tracer.py wraps verification.is_face
from .formulas import (
    BettiTable,
    beta_closed,
    beta_k4,
    beta_k5,
    diagonal_genfun,
    diagonal_poly,
    h_polynomial,
    hilbert_series,
    leading_coefficient,
    sharp_difference,
    verify_recurrence,
)
from .graphs import FULL_SCAN_LIMIT, CapacityError, squared_path
from .homology import HOMOLOGY_LIMIT, verify_concentration
from .polynomials import RationalGenFun, binom

# Frozen reference values for the top Betti number along diagonals
# r = 3..6, k = 3..10; independent anchor for the table commands.
REFERENCE_TABLE: dict[tuple[int, int], int] = {
    (3, 3): 1, (4, 3): 3, (5, 3): 6, (6, 3): 10, (7, 3): 15, (8, 3): 21, (9, 3): 28, (10, 3): 36,
    (3, 4): 3, (4, 4): 11, (5, 4): 26, (6, 4): 50, (7, 4): 85, (8, 4): 133, (9, 4): 196, (10, 4): 276,
    (3, 5): 6, (4, 5): 25, (5, 5): 67, (6, 5): 145, (7, 5): 275, (8, 5): 476, (9, 5): 770, (10, 5): 1182,
    (3, 6): 10, (4, 6): 46, (5, 6): 136, (6, 6): 324, (7, 6): 674, (8, 6): 1274, (9, 6): 2240, (10, 6): 3720,
}

SCOPES = ("profile", "fvector", "homology", "recurrence", "genfun", "hilbert", "all")
SEED_N_MAX = 9  # the largest n of the seed check's homology suite, printed as its n_max


@dataclass(frozen=True)
class CheckResult:
    """One named pass/fail verdict with a witness string on failure."""

    name: str
    ok: bool
    detail: str


Job = tuple[str, Callable[[], list[str]]]


def run_jobs(jobs: Sequence[Job], _workers: object = None) -> list[CheckResult]:
    """Run named checks in order; a check passes when it returns no witnesses.

    A RuntimeError is a closed form failing its own post-check, and a
    ValueError an oracle refusing its own input, since every argument has
    been refused before any check runs; either fails that check with its
    message as witness, and the later checks still run.  A CapacityError
    ends the run.
    """
    # _workers is ignored: bench/tracer.py's run_jobs wrapper still passes a worker count.
    results = []
    for name, thunk in jobs:
        try:
            bad = thunk()
        except (RuntimeError, ValueError) as exc:
            bad = [str(exc)]
        results.append(CheckResult(name, not bad, "; ".join(bad)))
    return results


# -- checks: each returns its failure witnesses ------------------------------


def check_table() -> list[str]:
    table = BettiTable.from_closed(range(3, 11), range(3, 7))
    return [
        f"k={k} r={r}: closed {table.value(k, r)} != reference {v}"
        for (k, r), v in sorted(REFERENCE_TABLE.items())
        if table.value(k, r) != v
    ]


def check_profile(k: int, n: int) -> list[str]:
    brute = q_profile_bruteforce(squared_path(n), k)
    closed = q_profile_closed(k, n)
    return [] if brute.counts == closed.counts else [f"brute {brute.counts} != closed {closed.counts}"]


def check_fvector(k: int, n: int) -> list[str]:
    fv = f_vector_bruteforce(squared_path(n), k)
    closed = face_enumerator_closed(k, n)
    brute_coeffs = [] if fv.is_void else list(fv.counts)
    if brute_coeffs == closed.coeff_list() and reduced_euler(fv) == -closed(-1):
        return []
    return [f"brute {brute_coeffs} vs closed {closed.coeff_list()} (euler {reduced_euler(fv)} vs {-closed(-1)})"]


def check_homology(k: int, n: int, primes: tuple[int, ...]) -> list[str]:
    return list(verify_concentration(k, n, primes).mismatches)


def check_vanishing(k: int, primes: tuple[int, ...]) -> list[str]:
    report = verify_concentration(k, k + 2, primes)
    closed = beta_closed(k, k + 2)
    return [] if report.ok and closed == 0 else [f"closed {closed}", *report.mismatches]


def check_recurrence(r: int, k_max: int = 40) -> list[str]:
    cert = verify_recurrence(r, k_max)
    bad = [f"k={e.k} ({e.window}) -> {e.value}" for e in cert.entries if not e.ok]
    return bad if cert.symbolic_zero else ["symbolic difference nonzero", *bad]


def check_sharpness(r: int) -> list[str]:
    got = sharp_difference(r)
    lead = leading_coefficient(r)
    poly = diagonal_poly(r)
    top = poly.coefficient(poly.degree)
    if got == r - 2 and top == lead:
        return []
    return [f"difference constant {got} (want {r - 2}), leading {top} (want {lead})"]


def check_diagonal(r: int) -> list[str]:
    poly = diagonal_poly(r)
    return [
        f"k={k}: poly {poly(k)} != closed {beta_closed(k, k + r)}"
        for k in range(2, 41)
        if poly(k) != beta_closed(k, k + r)
    ][:3]


def check_binomial_basis(k: int) -> list[str]:
    closed_form = beta_k4 if k == 4 else beta_k5
    return [f"n={n}" for n in range(k + 3, 61) if closed_form(n) != beta_closed(k, n)]


def check_genfun(r: int) -> list[str]:
    gf = diagonal_genfun(r)
    poly = diagonal_poly(r)
    series = gf.series(51)
    bad = [] if gf.is_canonical else ["numerator shares a (1-x) factor"]
    if series[0] != 0:
        bad.append(f"k=0 coefficient {series[0]} != 0")
    bad += [f"k={k}: {series[k]} != {poly(k)}" for k in range(1, 51) if series[k] != poly(k)]
    return bad[:3]


def check_hilbert_closed(n: int) -> list[str]:
    bad = []
    for k in range(2, n - 1):
        h = h_polynomial(k, n)
        r = n - k
        if h.coefficient(0) != 1:
            bad.append(f"k={k}: h_0 = {h.coefficient(0)}")
        if h.coefficient(r) != beta_closed(k, n):
            bad.append(f"k={k}: h_{r} = {h.coefficient(r)} != {beta_closed(k, n)}")
        first = RationalGenFun(numerator=h, pole_order=r).series(2)[1]
        want = n if r >= 3 else n - 2
        if first != want:
            bad.append(f"k={k}: degree-1 value {first} != {want}")
    return bad[:3]


def check_hilbert_series(k: int, n: int) -> list[str]:
    fv = f_vector_bruteforce(squared_path(n), k)
    series = hilbert_series(k, n).series(7)
    wants = [1] + [
        sum(fv.f(p) * binom(d - 1, p - 1) for p in range(1, fv.max_cardinality + 1)) for d in range(1, 7)
    ]
    return [f"d={d}: {got} != {want}" for d, (got, want) in enumerate(zip(series, wants)) if got != want]


# -- suites ------------------------------------------------------------------

TABLE_JOB: Job = ("table r=3..6 k=3..10", check_table)


def homology_jobs(n_max: int, primes: tuple[int, ...]) -> list[Job]:
    return [
        *((f"homology k={k} n={n}", partial(check_homology, k, n, primes))
          for n in range(5, n_max + 1) for k in range(2, n - 2)),
        *((f"vanishing k={k} n={k + 2}", partial(check_vanishing, k, primes))
          for k in range(2, n_max - 1)),
    ]


def scope_jobs(scope: str, n_max: int, primes: tuple[int, ...]) -> list[Job]:
    """Assemble the job list for one verify scope (or all of them, after the table).

    Each suite is a thunk, so a single scope builds only its own jobs.
    """
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; expected one of {SCOPES}")
    if n_max < 4:
        raise ValueError(f"n_max must be at least 4, the smallest n checked, got {n_max}")
    if n_max > FULL_SCAN_LIMIT:
        raise CapacityError(f"n_max={n_max} exceeds the supported limit {FULL_SCAN_LIMIT}")
    if scope in ("homology", "all") and n_max > HOMOLOGY_LIMIT:
        raise CapacityError(f"n_max={n_max} exceeds the homology limit {HOMOLOGY_LIMIT}")
    pairs = [(k, n) for n in range(4, n_max + 1) for k in range(2, n - 1)]
    suites: dict[str, Callable[[], list[Job]]] = {
        "profile": lambda: [(f"profile k={k} n={n}", partial(check_profile, k, n)) for k, n in pairs],
        "fvector": lambda: [(f"fvector k={k} n={n}", partial(check_fvector, k, n)) for k, n in pairs],
        "homology": lambda: homology_jobs(n_max, primes),
        "recurrence": lambda: [
            *((f"recurrence r={r} k<=40", partial(check_recurrence, r)) for r in range(3, 9)),
            *((f"sharpness r={r}", partial(check_sharpness, r)) for r in range(3, 13)),
            *((f"diagonal r={r} k<=40", partial(check_diagonal, r)) for r in range(3, 9)),
            *((f"binomial-basis k={k} n<=60", partial(check_binomial_basis, k)) for k in (4, 5)),
        ],
        "genfun": lambda: [(f"genfun r={r} terms<=50", partial(check_genfun, r)) for r in range(3, 9)],
        "hilbert": lambda: [
            *((f"hilbert closed n={n}", partial(check_hilbert_closed, n)) for n in range(4, 41)),
            *((f"hilbert series k={k} n={n}", partial(check_hilbert_series, k, n)) for k, n in pairs if n <= 10),
        ],
    }
    if scope != "all":
        return suites[scope]()
    return [TABLE_JOB, *(job for build in suites.values() for job in build())]


def seed_jobs(primes: tuple[int, ...] = (2, 3)) -> list[Job]:
    """Minimal fast suite: table reproduction, small recurrences, small homology."""
    return [
        TABLE_JOB,
        *((f"seed recurrence r={r}", partial(check_recurrence, r, r + 10)) for r in range(3, 6)),
        *homology_jobs(SEED_N_MAX, primes),
    ]
