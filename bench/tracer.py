"""Outside-in tracing of cutcx's layers for the benchmark's traced run.

Tracer.install() replaces selected functions with wrappers, each under the
name its callers import it by (cutcx.complexes.is_bad is the binding
is_face calls), so nothing under src/ changes.  A wrapper times its call
in thread CPU seconds: `cutcx verify` fans checks out to a thread pool, and
wall time would charge one thread's span with the time the other held the
interpreter lock.  Self time is a span's time minus its same-thread child
spans, summed per layer; a layer is the module that defines the function.

Every span is folded into per-name totals as it closes.  Spans of the
coarse layer entry points are also kept in memory as records with their
parent record and written out as JSON lines at the end.  Spans a pool
thread opens hang under the run_jobs span that submitted them.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, defaultdict
from typing import Callable

import cutcx.cli as cli
import cutcx.complements as complements
import cutcx.complexes as complexes
import cutcx.formulas as formulas
import cutcx.homology as homology
import cutcx.polynomials as polynomials
import cutcx.verification as verification

CLOCK = time.thread_time

LAYERS = ("cli", "verification", "formulas", "polynomials", "graphs", "complements", "complexes", "homology")

KEEP = "keep"  # timed, and kept as a span record
TIMED = "timed"  # timed, folded into totals only
COUNT = "count"  # counted only; its time stays with the caller

Poly = polynomials.Polynomial

# (span name, mode, bindings): every (namespace, attribute) a caller uses.
WRAPPED = (
    ("cli.main", KEEP, ((cli, "main"),)),
    ("verification.scope_jobs", KEEP, ((cli, "scope_jobs"),)),
    ("verification.seed_jobs", KEEP, ((cli, "seed_jobs"),)),
    ("verification.run_jobs", KEEP, ((cli, "run_jobs"),)),
    ("formulas.BettiTable.from_closed", KEEP, ((formulas.BettiTable, "from_closed"),)),
    ("formulas.h_polynomial", KEEP, ((cli, "h_polynomial"), (verification, "h_polynomial"), (formulas, "h_polynomial"))),
    ("formulas.hilbert_series", KEEP, ((cli, "hilbert_series"), (verification, "hilbert_series"))),
    ("formulas.diagonal_genfun", KEEP, ((cli, "diagonal_genfun"), (verification, "diagonal_genfun"))),
    ("formulas.verify_recurrence", KEEP, ((verification, "verify_recurrence"),)),
    ("formulas.diagonal_poly", TIMED, ((verification, "diagonal_poly"), (formulas, "diagonal_poly"))),
    ("formulas.sharp_difference", TIMED, ((verification, "sharp_difference"),)),
    ("formulas.beta_closed", TIMED, ((verification, "beta_closed"), (formulas, "beta_closed"), (homology, "beta_closed"))),
    ("formulas.beta_k4", TIMED, ((verification, "beta_k4"),)),
    ("formulas.beta_k5", TIMED, ((verification, "beta_k5"),)),
    ("polynomials.mul", TIMED, ((Poly, "__mul__"), (Poly, "__rmul__"))),
    ("polynomials.add", TIMED, ((Poly, "__add__"),)),
    ("polynomials.sub", TIMED, ((Poly, "__sub__"),)),
    ("polynomials.pow", TIMED, ((Poly, "__pow__"),)),
    ("polynomials.call", TIMED, ((Poly, "__call__"),)),
    ("polynomials.series", TIMED, ((polynomials.RationalGenFun, "series"),)),
    ("polynomials.backward_difference", TIMED, ((formulas, "backward_difference"),)),
    ("graphs.parse_graph", KEEP, ((cli, "parse_graph"),)),
    ("graphs.squared_path", TIMED, ((verification, "squared_path"), (complexes, "squared_path"), (homology, "squared_path"))),
    ("graphs.is_squared_path", TIMED, ((complements, "is_squared_path"),)),
    ("graphs.is_connected_induced", TIMED, ((complements, "is_connected_induced"),)),
    ("graphs.gap_connected", COUNT, ((complements, "gap_connected"),)),
    ("complements.q_profile_bruteforce", KEEP, ((cli, "q_profile_bruteforce"), (verification, "q_profile_bruteforce"), (complexes, "q_profile_bruteforce"))),
    ("complements.q_profile_closed", TIMED, ((cli, "q_profile_closed"), (verification, "q_profile_closed"))),
    ("complements.is_bad", TIMED, ((complexes, "is_bad"),)),
    ("complements.z_count", TIMED, ((formulas, "z_count"), (complexes, "z_count"))),
    ("complexes.f_vector_bruteforce", KEEP, ((cli, "f_vector_bruteforce"), (verification, "f_vector_bruteforce"))),
    ("complexes.face_enumerator_closed", TIMED, ((cli, "face_enumerator_closed"), (verification, "face_enumerator_closed"))),
    ("complexes.nonface_layers", KEEP, ((cli, "nonface_layers"),)),
    ("complexes.faces_by_dimension", KEEP, ((homology, "faces_by_dimension"),)),
    ("complexes.is_face", COUNT, ((complexes, "is_face"), (verification, "is_face"))),
    ("homology.verify_concentration", KEEP, ((verification, "verify_concentration"),)),
    ("homology.build_chain_complex", KEEP, ((homology, "build_chain_complex"),)),
    ("homology.composition_vanishes", KEEP, ((homology, "composition_vanishes"),)),
    ("homology.rank", KEEP, ((homology.BoundaryMatrix, "rank"),)),
)

CONNECTIVITY = ("graphs.gap_connected", "graphs.is_connected_induced")


class _ThreadData:
    """Totals one thread collects; merged when the pass ends."""

    def __init__(self, base: int | None):
        # A frame is [name, same-thread child seconds, nearest kept record id].
        self.stack: list[list] = [["", 0.0, base]]
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.faces = 0
        self.cells_max = 0
        self.nnz = 0


class Tracer:
    """Wraps cutcx's layer entry points and folds their spans into totals."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._threads: list[_ThreadData] = []
        self._local = threading.local()
        self._records: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- per-thread state --------------------------------------------------

    def _data(self, base: int | None = None) -> _ThreadData:
        data = getattr(self._local, "data", None)
        if data is None:
            data = _ThreadData(base)
            self._local.data = data
            with self._lock:
                self._threads.append(data)
        return data

    def _open_record(self, name: str, parent: int | None, attrs: dict) -> dict:
        with self._lock:
            rec = {"id": len(self._records), "parent": parent, "name": name,
                   "thread": threading.get_ident(), "start": time.perf_counter() - self._t0}
            rec.update(attrs)
            self._records.append(rec)
        return rec

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn: Callable, keep: bool,
               namer: Callable | None = None, attrs: Callable | None = None) -> Callable:
        layer = name.split(".", 1)[0]
        tracer = self

        def wrapper(*args, **kwargs):
            data = tracer._data()
            stack = data.stack
            top = stack[-1]
            span = namer(args) if namer else name
            data.edges[(top[0], span)] += 1
            rec = tracer._open_record(span, top[2], attrs(args) if attrs else {}) if keep else None
            frame = [span, 0.0, rec["id"] if rec else top[2]]
            stack.append(frame)
            t0 = CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = CLOCK() - t0
                stack.pop()
                top[1] += dur
                own = dur - frame[1]
                data.calls[span] += 1
                data.seconds[span] += dur
                data.self_s[layer] += own
                if rec is not None:
                    rec["end"] = time.perf_counter() - tracer._t0
                    rec["cpu_s"] = dur
                    rec["self_s"] = own

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        tracer = self
        faces = name == "complexes.is_face"

        def wrapper(*args, **kwargs):
            data = tracer._data()
            data.calls[name] += 1
            data.edges[(data.stack[-1][0], name)] += 1
            result = fn(*args, **kwargs)
            if faces and result:
                data.faces += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _run_jobs(self, fn: Callable) -> Callable:
        """run_jobs whose check thunks open spans under it, on whichever thread runs them."""
        tracer = self

        def check(job: str, thunk: Callable, parent: int) -> Callable:
            timed = tracer._timed("verification.check", thunk, keep=True, attrs=lambda args: {"job": job})

            def run():
                tracer._data(parent)  # a pool thread's first span hangs under run_jobs
                return timed()

            return run

        def run_jobs(jobs, workers=None):
            parent = tracer._data().stack[-1][2]
            return fn([(job, check(job, thunk, parent)) for job, thunk in jobs], workers)

        return self._timed("verification.run_jobs", run_jobs, keep=True)

    def _rank(self, fn: Callable) -> Callable:
        tracer = self

        def sized(args) -> dict:
            matrix, p = args[0], args[1]
            nnz = sum(len(col) for col in matrix.columns)
            data = tracer._data()
            data.cells_max = max(data.cells_max, matrix.nrows * matrix.ncols)
            data.nnz += nnz
            return {"prime": p, "nrows": matrix.nrows, "ncols": matrix.ncols, "nnz": nnz}

        return self._timed("homology.rank", fn, keep=True, namer=lambda args: f"homology.rank.p{args[1]}", attrs=sized)

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, mode, bindings in WRAPPED:
            owner0, attr0 = bindings[0]
            raw = owner0.__dict__[attr0] if isinstance(owner0, type) else getattr(owner0, attr0)
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            if name == "verification.run_jobs":
                wrapper = self._run_jobs(fn)
            elif name == "homology.rank":
                wrapper = self._rank(fn)
            elif name == "cli.main":
                wrapper = self._timed(name, fn, keep=True, attrs=lambda args: {"argv": list(args[0])})
            elif mode == COUNT:
                wrapper = self._counted(name, fn)
            else:
                wrapper = self._timed(name, fn, keep=mode == KEEP)
            for owner, attr in bindings:
                current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._saved.append((owner, attr, current))
                setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict:
        """Every thread's totals, merged."""
        with self._lock:
            threads = list(self._threads)
        merged: dict = {key: Counter() for key in ("calls", "seconds", "self_s", "edges")}
        for data in threads:
            for key, total in merged.items():
                total.update(getattr(data, key))
        merged["faces"] = sum(data.faces for data in threads)
        merged["cells_max"] = max((data.cells_max for data in threads), default=0)
        merged["nnz"] = sum(data.nnz for data in threads)
        return merged

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics this tracer measures, by benchmark metric name."""
        t = self.totals()
        calls, seconds = t["calls"], t["seconds"]
        out: dict[str, float] = {f"{layer}.self_s": t["self_s"].get(layer, 0.0) for layer in LAYERS}
        for name in ("formulas.h_polynomial", "polynomials.mul", "polynomials.pow",
                     "graphs.is_squared_path", "graphs.is_connected_induced", "complements.is_bad"):
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.s"] = seconds.get(name, 0.0)
        for name in ("formulas.hilbert_series", "formulas.diagonal_genfun", "formulas.verify_recurrence",
                     "polynomials.series", "graphs.parse_graph", "complements.q_profile_bruteforce",
                     "complexes.faces_by_dimension", "complexes.f_vector_bruteforce",
                     "complexes.nonface_layers", "homology.build_chain_complex",
                     "homology.composition_vanishes", "homology.rank.p2", "homology.rank.p3"):
            out[f"{name}.s"] = seconds.get(name, 0.0)
        out["verification.checks"] = calls.get("verification.check", 0)
        out["graphs.gap_connected.calls"] = calls.get("graphs.gap_connected", 0)
        conn_in_bad = sum(t["edges"].get(("complements.is_bad", c), 0) for c in CONNECTIVITY)
        bad_calls = calls.get("complements.is_bad", 0)
        out["complements.conn_per_is_bad"] = conn_in_bad / bad_calls if bad_calls else 0.0
        face_tests = calls.get("complexes.is_face", 0)
        out["complexes.faces"] = t["faces"]
        out["complexes.face_yield"] = t["faces"] / face_tests if face_tests else 0.0
        out["homology.rank.calls"] = sum(v for k, v in calls.items() if k.startswith("homology.rank."))
        out["homology.matrix_cells_max"] = t["cells_max"]
        out["homology.nnz"] = t["nnz"]
        return out

    def write_spans(self, path: str) -> None:
        """Kept span records as JSON lines, then one line of per-name totals."""
        t = self.totals()
        with open(path, "w", encoding="utf-8") as fh:
            with self._lock:
                for rec in self._records:
                    fh.write(json.dumps(rec) + "\n")
            summary = {
                "totals": {name: {"calls": t["calls"][name], "s": t["seconds"].get(name, 0.0)}
                           for name in sorted(t["calls"])},
                "self_s": dict(t["self_s"]),
                "edges": [[a, b, n] for (a, b), n in sorted(t["edges"].items())],
            }
            fh.write(json.dumps(summary) + "\n")
