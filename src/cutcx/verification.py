"""Cross-route verification suites: brute force against closed forms.

Each suite returns CheckResult records with stable names so repeated runs
produce identical reports.  The reference grid of top Betti numbers is
frozen here independently of beta_closed and anchors the table checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class CheckResult:
    """One named pass/fail verdict with a witness string on failure."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class RunReport:
    """Everything a verify run produced: echo, ranges and verdicts."""

    scope: str
    n_max: int
    primes: tuple[int, ...]
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.ok)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.ok)

    @property
    def ok(self) -> bool:
        return self.failed == 0


Job = tuple[str, Callable[[], CheckResult]]


def run_jobs(jobs: Sequence[Job], _workers: object = None) -> list[CheckResult]:
    """Run named check thunks in order."""
    # _workers is ignored: bench/tracer.py's run_jobs wrapper still passes a worker count.
    return [thunk() for _, thunk in jobs]


def _check(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, ok=ok, detail="" if ok else detail)


# -- individual suites -------------------------------------------------------


def table_jobs() -> list[Job]:
    def run() -> CheckResult:
        table = BettiTable.from_closed(range(3, 11), range(3, 7))
        bad = [
            f"k={k} r={r}: closed {table.value(k, r)} != reference {v}"
            for (k, r), v in sorted(REFERENCE_TABLE.items())
            if table.value(k, r) != v
        ]
        return _check("table r=3..6 k=3..10", not bad, "; ".join(bad))

    return [("table", run)]


def profile_jobs(n_max: int) -> list[Job]:
    jobs: list[Job] = []
    for n in range(4, n_max + 1):
        for k in range(2, n - 1):
            def run(k: int = k, n: int = n) -> CheckResult:
                brute = q_profile_bruteforce(squared_path(n), k)
                closed = q_profile_closed(k, n)
                return _check(
                    f"profile k={k} n={n}",
                    brute.counts == closed.counts,
                    f"brute {brute.counts} != closed {closed.counts}",
                )
            jobs.append((f"profile k={k} n={n}", run))
    return jobs


def fvector_jobs(n_max: int) -> list[Job]:
    jobs: list[Job] = []
    for n in range(4, n_max + 1):
        for k in range(2, n - 1):
            def run(k: int = k, n: int = n) -> CheckResult:
                fv = f_vector_bruteforce(squared_path(n), k)
                closed = face_enumerator_closed(k, n)
                brute_coeffs = [] if fv.is_void else list(fv.counts)
                ok = brute_coeffs == closed.coeff_list()
                euler_ok = reduced_euler(fv) == -closed(-1)
                return _check(
                    f"fvector k={k} n={n}",
                    ok and euler_ok,
                    f"brute {brute_coeffs} vs closed {closed.coeff_list()}"
                    f" (euler {reduced_euler(fv)} vs {-closed(-1)})",
                )
            jobs.append((f"fvector k={k} n={n}", run))
    return jobs


def homology_jobs(n_max: int, primes: tuple[int, ...]) -> list[Job]:
    jobs: list[Job] = []
    for n in range(5, n_max + 1):
        for k in range(2, n - 2):
            def run(k: int = k, n: int = n) -> CheckResult:
                report = verify_concentration(k, n, primes)
                return _check(f"homology k={k} n={n}", report.ok, "; ".join(report.mismatches))
            jobs.append((f"homology k={k} n={n}", run))
    for k in range(2, max(2, n_max - 2) + 1):
        def run(k: int = k) -> CheckResult:
            report = verify_concentration(k, k + 2, primes)
            closed_zero = beta_closed(k, k + 2) == 0
            return _check(
                f"vanishing k={k} n={k + 2}",
                report.ok and closed_zero,
                f"closed {beta_closed(k, k + 2)}; " + "; ".join(report.mismatches),
            )
        jobs.append((f"vanishing k={k} n={k + 2}", run))
    return jobs


def recurrence_jobs() -> list[Job]:
    jobs: list[Job] = []
    for r in range(3, 9):
        def run_rec(r: int = r) -> CheckResult:
            cert = verify_recurrence(r, 40)
            bad = [f"k={e.k} ({e.window}) -> {e.value}" for e in cert.entries if not e.ok]
            if not cert.symbolic_zero:
                bad.insert(0, "symbolic difference nonzero")
            return _check(f"recurrence r={r} k<=40", cert.ok, "; ".join(bad))
        jobs.append((f"recurrence r={r}", run_rec))
    for r in range(3, 13):
        def run_sharp(r: int = r) -> CheckResult:
            got = sharp_difference(r)
            lead = leading_coefficient(r)
            poly = diagonal_poly(r)
            lead_ok = poly.coefficient(poly.degree) == lead
            return _check(
                f"sharpness r={r}",
                got == r - 2 and lead_ok,
                f"difference constant {got} (want {r - 2}), leading {poly.coefficient(poly.degree)} (want {lead})",
            )
        jobs.append((f"sharpness r={r}", run_sharp))
    for r in range(3, 9):
        def run_diag(r: int = r) -> CheckResult:
            poly = diagonal_poly(r)
            bad = [
                f"k={k}: poly {poly(k)} != closed {beta_closed(k, k + r)}"
                for k in range(2, 41)
                if poly(k) != beta_closed(k, k + r)
            ]
            return _check(f"diagonal r={r} k<=40", not bad, "; ".join(bad[:3]))
        jobs.append((f"diagonal r={r}", run_diag))

    def run_k4() -> CheckResult:
        bad = [f"n={n}" for n in range(7, 61) if beta_k4(n) != beta_closed(4, n)]
        return _check("binomial-basis k=4 n<=60", not bad, "; ".join(bad))

    def run_k5() -> CheckResult:
        bad = [f"n={n}" for n in range(8, 61) if beta_k5(n) != beta_closed(5, n)]
        return _check("binomial-basis k=5 n<=60", not bad, "; ".join(bad))

    jobs.append(("binomial-basis k=4", run_k4))
    jobs.append(("binomial-basis k=5", run_k5))
    return jobs


def genfun_jobs() -> list[Job]:
    jobs: list[Job] = []
    for r in range(3, 9):
        def run(r: int = r) -> CheckResult:
            gf = diagonal_genfun(r)
            poly = diagonal_poly(r)
            series = gf.series(51)
            bad = [f"k={k}: {series[k]} != {poly(k)}" for k in range(1, 51) if series[k] != poly(k)]
            if series[0] != 0:
                bad.insert(0, f"k=0 coefficient {series[0]} != 0")
            if not gf.is_canonical:
                bad.insert(0, "numerator shares a (1-x) factor")
            return _check(f"genfun r={r} terms<=50", not bad, "; ".join(bad[:3]))
        jobs.append((f"genfun r={r}", run))
    return jobs


def hilbert_jobs(n_max_closed: int = 40, n_max_series: int = 10) -> list[Job]:
    jobs: list[Job] = []
    for n in range(4, n_max_closed + 1):
        def run_top(n: int = n) -> CheckResult:
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
            return _check(f"hilbert closed n={n}", not bad, "; ".join(bad[:3]))
        jobs.append((f"hilbert closed n={n}", run_top))
    for n in range(4, min(n_max_series, FULL_SCAN_LIMIT) + 1):
        for k in range(2, n - 1):
            def run_series(k: int = k, n: int = n) -> CheckResult:
                fv = f_vector_bruteforce(squared_path(n), k)
                series = hilbert_series(k, n).series(7)
                bad = []
                for d in range(7):
                    want = 1 if d == 0 else sum(
                        fv.f(p) * binom(d - 1, p - 1) for p in range(1, fv.max_cardinality + 1)
                    )
                    if series[d] != want:
                        bad.append(f"d={d}: {series[d]} != {want}")
                return _check(f"hilbert series k={k} n={n}", not bad, "; ".join(bad))
            jobs.append((f"hilbert series k={k} n={n}", run_series))
    return jobs


def scope_jobs(scope: str, n_max: int, primes: tuple[int, ...]) -> list[Job]:
    """Assemble the job list for one verify scope (or all of them)."""
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; expected one of {SCOPES}")
    if n_max < 4:
        raise ValueError(f"n_max must be at least 4, the smallest n checked, got {n_max}")
    if n_max > FULL_SCAN_LIMIT:
        raise CapacityError(f"n_max={n_max} exceeds the supported limit {FULL_SCAN_LIMIT}")
    if scope in ("homology", "all") and n_max > HOMOLOGY_LIMIT:
        raise CapacityError(f"n_max={n_max} exceeds the homology limit {HOMOLOGY_LIMIT}")
    jobs: list[Job] = []
    if scope in ("all",):
        jobs += table_jobs()
    if scope in ("profile", "all"):
        jobs += profile_jobs(n_max)
    if scope in ("fvector", "all"):
        jobs += fvector_jobs(n_max)
    if scope in ("homology", "all"):
        jobs += homology_jobs(n_max, primes)
    if scope in ("recurrence", "all"):
        jobs += recurrence_jobs()
    if scope in ("genfun", "all"):
        jobs += genfun_jobs()
    if scope in ("hilbert", "all"):
        jobs += hilbert_jobs(n_max_series=min(n_max, 10))
    return jobs


def seed_jobs(primes: tuple[int, ...] = (2, 3)) -> list[Job]:
    """Minimal fast suite: table reproduction, small recurrences, small homology."""
    jobs = table_jobs()
    for r in range(3, 6):
        def run(r: int = r) -> CheckResult:
            cert = verify_recurrence(r, r + 10)
            return _check(f"seed recurrence r={r}", cert.ok, "recurrence failed")
        jobs.append((f"seed recurrence r={r}", run))
    jobs += homology_jobs(9, primes)
    return jobs
