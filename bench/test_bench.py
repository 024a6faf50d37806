"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py

They run reduced op lists (the cheap ops of each workload), never a full
timed run, and finish in well under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from cutcx.complements import connectivity_test  # noqa: E402
from cutcx.graphs import gap_connected, is_squared_path, parse_graph  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def cheap(op: tuple[str, ...]) -> bool:
    """Ops that take milliseconds, one or more from every workload."""
    argv = list(op)
    if argv[0] == "verify":
        n_max = int(argv[argv.index("--n-max") + 1])
        scope = argv[argv.index("--scope") + 1]
        return scope in ("genfun", "homology", "profile") and n_max <= 11 and (scope != "homology" or n_max <= 7)
    if argv[0] == "graph":
        return int(argv[1].split("/s")[-1][:2]) < 10  # the n=10 strata
    if argv[:2] == ["enum", "hpoly"] or argv[:2] == ["enum", "hilbert"]:
        return int(argv[3]) < 40
    return True


def reduced(workload: str, seed: int, count: int = 8) -> list[tuple[str, ...]]:
    return [op for op in workloads.ops_for(workload, seed) if cheap(op)][:count]


@pytest.fixture(scope="module")
def env() -> dict[str, str]:
    workloads.write_graphs(ROOT)
    return run.child_env()


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    return json.loads(run.DIGESTS.read_text())["digests"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reduced_run_passes_its_output_checks(workload, env, digests):
    ops = reduced(workload, seed=3)
    assert len(ops) >= 3
    report = run.run_pass(ops, env)
    assert len(report["ops"]) == len(ops)
    assert run.op_failures(ops, report, digests) == []
    assert report["wall_s"] > 0 and report["cpu_s"] > 0 and report["maxrss_kb"] > 0


def test_wrong_output_and_bad_exit_count_as_failed(digests):
    ops = [
        next(op for op in workloads.universe("closed") if op[0] == "enum"),
        next(op for op in workloads.universe("scan") if op[0] == "verify"),
        ("enum", "hpoly", "3", "9999", "--format", "text", "--no-timing"),
    ]
    report = {"ops": [
        {"code": 0, "sha256": "0" * 64, "verify_failed": None},
        {"code": 0, "sha256": "", "verify_failed": 2},
        {"code": 3, "sha256": "", "verify_failed": None},
    ]}
    reasons = run.op_failures(ops, report, digests)
    assert len(reasons) == 3
    assert "differs" in reasons[0] and "failed=2" in reasons[1] and "exit 3" in reasons[2]


@pytest.mark.parametrize("fmt,out,want", [
    ("text", "PASS a\nFAIL b: x\nchecks=2 passed=1 failed=1 scope=s n_max=4 primes=2,3\n", 1),
    ("json", '{"failed": 0, "passed": 3}\n', 0),
    ("csv", "name,ok,detail\na,pass,\n\"b, c\",fail,\"d, e\"\n", 1),
    ("text", "", None),
])
def test_verify_failed_count_is_read_in_every_format(fmt, out, want):
    assert worker.verify_failed(["verify", "--format", fmt], out) == want


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_ops_not_metric_names(workload):
    first, second = workloads.ops_for(workload, 1), workloads.ops_for(workload, 2)
    assert first != second
    assert len(first) == len(second)
    assert workloads.ops_for(workload, 1) == first
    universe = set(workloads.universe(workload))
    assert set(first) <= universe and set(second) <= universe


def test_every_non_verify_op_has_a_recorded_digest(digests):
    for workload in workloads.WORKLOADS:
        for op in workloads.universe(workload):
            assert op[0] == "verify" or " ".join(op) in digests, op


def test_metric_names_match_benchmark_json(env):
    names = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for seed in (1, 2):
        ops = reduced("graph", seed, count=3)
        untraced = [run.run_pass(ops, env)]
        traced = [run.run_pass(ops, env, run.WORK / "spans-test.jsonl")]
        gated = run.end_to_end(untraced, [{"cpu": 0.2, "wall": 0.3}])
        layers = run.per_layer(untraced, traced)
        assert set(gated) == names and set(layers) == per_layer
        for m in SPEC["end_to_end"]:
            assert gated[m["name"]]["unit"] == m["unit"]
        for m in SPEC["per_layer"]:
            assert layers[m["name"]]["unit"] == m["unit"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_traced_pass_prints_the_same_bytes_and_counts_layers(env):
    ops = [op for op in reduced("closed", 5, count=40) if op[0] == "enum"][:6]
    ops.append(("verify", "--scope", "homology", "--n-max", "6", "--primes", "2,3", "--format", "json", "--no-timing"))
    plain = run.run_pass(ops, env)
    spans = run.WORK / "spans-test.jsonl"
    traced = run.run_pass(ops, env, spans)
    assert [r["sha256"] for r in plain["ops"]] == [r["sha256"] for r in traced["ops"]]
    layers = traced["layers"]
    assert layers["verification.checks"] > 0
    assert layers["homology.rank.calls"] > 0 and layers["homology.rank.p3.s"] > 0
    assert layers["cli.self_s"] > 0
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    mains = [r for r in records[:-1] if r["name"] == "cli.main"]
    assert len(mains) == len(ops)
    checks = [r for r in records[:-1] if r["name"] == "verification.check"]
    by_id = {r["id"]: r for r in records[:-1]}
    assert checks and all(by_id[r["parent"]]["name"] == "verification.run_jobs" for r in checks)


def test_tracer_restores_every_binding():
    before = {(id(owner), attr): owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
              for _, _, bindings in tracer.WRAPPED for owner, attr in bindings}
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    for _, _, bindings in tracer.WRAPPED:
        for owner, attr in bindings:
            now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert now is before[(id(owner), attr)], (owner, attr)


def test_graph_files_are_not_squared_paths_and_stay_in_bench():
    paths = workloads.write_graphs(ROOT)
    assert len(paths) == len(workloads.graph_specs())
    for path in paths:
        assert path.resolve().is_relative_to(BENCH / "work")
        graph = parse_graph(path.read_text())
        assert not is_squared_path(graph)
        assert connectivity_test(graph) is not gap_connected  # the bfs engine runs
    for op in workloads.universe("graph"):
        assert (ROOT / op[1]).resolve().is_relative_to(BENCH / "work")


def test_a_run_writes_only_inside_bench(env):
    def snapshot() -> dict[str, float]:
        return {
            p.relative_to(ROOT).as_posix(): p.stat().st_mtime
            for p in ROOT.rglob("*")
            if p.is_file() and not p.is_relative_to(BENCH) and ".git" not in p.parts
            and "__pycache__" not in p.parts and ".pytest_cache" not in p.parts
            and ".hypothesis" not in p.parts
        }

    before = snapshot()
    ops = reduced("graph", 7, count=2) + reduced("scan", 7, count=2)
    run.run_pass(ops, env, run.WORK / "spans-test.jsonl")
    assert snapshot() == before


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "bench" / "digests.json").write_bytes(run.DIGESTS.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "closed", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
