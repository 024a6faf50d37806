"""cutcx benchmark: one workload, one seed, end-to-end or traced.

    python3 bench/run.py --workload closed --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The op list comes from bench/workloads.py
and the seed; the program sees only those argv lists and the graph files.
Each pass over the ops runs in a fresh interpreter (bench/worker.py) that
calls cutcx.cli.main(argv) once per op, one op at a time, so peak RSS is
per pass.  Passes repeat until --seconds is used up.

Every op's output is checked: a verify op must exit 0 and report failed=0,
any other op must match the sha256 of its --no-timing stdout recorded in
bench/digests.json.  An op that fails either way counts in "failed".

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics from bench/tracer.py, the
tracing overhead, and fails the run unless both passes printed the same
bytes for every op.  The last stdout line is the JSON result; the line
before it records the run environment and sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

WORKER = BENCH / "worker.py"
DIGESTS = BENCH / "digests.json"
WORK = BENCH / "work"

SETUP_STARTS = 4  # dedicated interpreter starts per run, besides one per pass
MIN_OP_SAMPLES = 110  # so that at least ten op latencies lie beyond p90
MIN_PASSES = 3
PASS_TIMEOUT = 150


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CUTCX_THREADS", None)  # measure the default worker count
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(args: list[str], env: dict[str, str]) -> tuple[subprocess.Popen, dict]:
    """Start a worker and wait for its ready mark.

    Returns the worker and its set-up time: CPU seconds the worker reports
    at the mark, and wall seconds from spawn to the mark.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    fields = proc.stdout.readline().split()
    wall = time.perf_counter() - t0
    if len(fields) != 2 or fields[0] != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not start (exit {proc.returncode}); is src/cutcx importable?")
    return proc, {"cpu": float(fields[1]), "wall": wall}


def measure_setup(env: dict[str, str]) -> dict:
    proc, setup = start_worker(["--setup-only"], env)
    proc.communicate(timeout=PASS_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"set-up worker exited {proc.returncode}")
    return setup


def run_pass(ops: list[tuple[str, ...]], env: dict[str, str], spans: Path | None = None) -> dict:
    """One pass over the ops in a fresh worker; returns its JSON report plus its set-up time."""
    args = ["--trace", str(spans)] if spans else []
    proc, setup = start_worker(args, env)
    try:
        out, _ = proc.communicate(json.dumps([list(op) for op in ops]), timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"a pass took longer than {PASS_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    report = json.loads(out.splitlines()[-1])
    report["setup"] = setup
    return report


def op_failures(ops: list[tuple[str, ...]], report: dict, digests: dict[str, str]) -> list[str]:
    """Why each failed op failed; empty when every output is right."""
    bad = []
    for argv, r in zip(ops, report["ops"]):
        key = " ".join(argv)
        if r["code"] != 0:
            bad.append(f"{key}: exit {r['code']}")
        elif argv[0] == "verify":
            if r["verify_failed"] != 0:
                bad.append(f"{key}: reports failed={r['verify_failed']}")
        elif key not in digests:
            bad.append(f"{key}: no recorded digest")
        elif digests[key] != r["sha256"]:
            bad.append(f"{key}: output differs from the recorded digest")
    return bad


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def steal_seconds() -> float | None:
    """Host steal time of the whole machine so far, from /proc/stat; None where unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def p50_p90(values: list[float]) -> tuple[float, float]:
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def end_to_end(passes: list[dict], setups: list[dict]) -> dict:
    """The gated metrics, all on CPU clocks, which host steal time barely moves."""
    p50, p90 = p50_p90([r["cpu_s"] for p in passes for r in p["ops"]])
    return {
        "cpu_s": metric(statistics.median(p["cpu_s"] for p in passes), "s"),
        "op_cpu_p50_s": metric(p50, "s"),
        "op_cpu_p90_s": metric(p90, "s"),
        "peak_rss_mb": metric(statistics.median(p["maxrss_kb"] for p in passes) / 1024, "MB"),
        "setup_s": metric(statistics.median(s["cpu"] for s in setups), "s"),
    }


def wall_clock(passes: list[dict], setups: list[dict]) -> dict:
    """The same quantities on the wall clock, for the record only."""
    p50, p90 = p50_p90([r["s"] for p in passes for r in p["ops"]])
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_s": p50,
        "op_p90_s": p90,
        "setup_wall_s": statistics.median(s["wall"] for s in setups),
    }


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_per_is_bad", "_yield")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    names = list(traced[0]["layers"])
    out = {
        name: metric(statistics.median(p["layers"][name] for p in traced), layer_unit(name))
        for name in names
    }
    out["cli.output_bytes"] = metric(statistics.median(sum(r["bytes"] for r in p["ops"]) for p in traced), "bytes")
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    out["trace.wall_s"] = metric(traced_wall, "s")
    out["trace.overhead_s"] = metric(traced_wall - statistics.median(p["wall_s"] for p in untraced), "s")
    return out


def layer_table(metrics: dict) -> str:
    """Self seconds per layer, slowest first: the first row names the slowest layer."""
    rows = sorted(
        ((name[: -len(".self_s")], m["value"]) for name, m in metrics.items() if name.endswith(".self_s")),
        key=lambda row: -row[1],
    )
    total = sum(v for _, v in rows) or 1.0
    return "\n".join(f"# {layer:<13} self {v:9.4f} s  {100 * v / total:5.1f}%" for layer, v in rows)


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if not (ROOT / "src" / "cutcx" / "cli.py").is_file():
        raise BenchError(f"no cutcx sources under {ROOT / 'src'}; run from a checkout of the repository")
    if not DIGESTS.is_file():
        raise BenchError(f"missing {DIGESTS.name}; record it with bench/record_digests.py")
    digests = json.loads(DIGESTS.read_text())["digests"]
    load_before = os.getloadavg()
    steal_before = steal_seconds()
    env = child_env()
    ops = workloads.ops_for(workload, seed)
    if workload == "graph":
        workloads.write_graphs(ROOT)
    WORK.mkdir(exist_ok=True)

    setups: list[dict] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    t_start = time.perf_counter()  # set-up counts against --seconds too
    if not trace:
        measure_setup(env)  # compiles bytecode on a fresh checkout; not counted
        setups += [measure_setup(env) for _ in range(SETUP_STARTS)]
    min_passes = 1 if trace else max(MIN_PASSES, math.ceil(MIN_OP_SAMPLES / len(ops)))
    spans = WORK / f"spans-{workload}-seed{seed}.jsonl"
    rounds: list[float] = []
    while True:
        t_round = time.perf_counter()
        untraced.append(run_pass(ops, env))
        if trace:
            traced.append(run_pass(ops, env, spans))
        rounds.append(time.perf_counter() - t_round)
        elapsed = time.perf_counter() - t_start
        if len(rounds) >= min_passes and elapsed + statistics.median(rounds) > seconds:
            break
    setups += [p["setup"] for p in untraced + traced]

    failures: list[str] = []
    for p in untraced + traced:
        failures += op_failures(ops, p, digests)
    for plain, traced_pass in zip(untraced, traced):
        for argv, a, b in zip(ops, plain["ops"], traced_pass["ops"]):
            if (a["code"], a["sha256"]) != (b["code"], b["sha256"]):
                failures.append(f"{' '.join(argv)}: traced output differs from untraced")
    attempted = len(ops) * (len(untraced) + len(traced))
    failed = len(failures)

    metrics = per_layer(untraced, traced) if trace else end_to_end(untraced, setups)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "ops_per_pass": len(ops),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "pass_cpu_s": [p["cpu_s"] for p in untraced],
        "wall_clock": wall_clock(untraced, setups),
        "samples": {
            "cpu_s": len(untraced),
            "op_latency": len(ops) * len(untraced),
            "setup_s": len(setups),
        },
        "failed_ratio": failed / attempted,
        "failures": failures[:10],
        "env": {
            "commit": git_commit(),
            "source_sha256": source_digest(),
            "python": platform.python_version(),
            "numpy": untraced[0].get("numpy"),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "steal_s": None if steal_before is None else steal_seconds() - steal_before,
            "CUTCX_THREADS": "unset",
            "CUTCX_THREADS_in_caller": os.environ.get("CUTCX_THREADS"),
        },
    }
    if trace:
        record["spans_file"] = spans.relative_to(ROOT).as_posix()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        print(layer_table(result["metrics"]))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
