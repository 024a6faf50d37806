"""End-to-end CLI coverage driven through main(argv).

Byte-level goldens pin the text payloads and, for every payload shape,
the JSON and CSV bytes; JSON payloads must round-trip to themselves under
a sorted re-dump.  Exit codes: 0 ok, 1 verification failure, 2 usage,
3 capacity.
"""

import argparse
import contextlib
import functools
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import types
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import cutcx
from cutcx import complements, complexes, formulas, graphs, homology, verification
from cutcx.cli import build_parser, main
from cutcx.complements import BadProfile
from cutcx.graphs import CapacityError
from cutcx.polynomials import Polynomial, RationalGenFun

GOLDEN_TABLE = """\
r\\k   3   4    5    6    7     8     9    10
3     1   3    6   10   15    21    28    36
4     3  11   26   50   85   133   196   276
5     6  25   67  145  275   476   770  1182
6    10  46  136  324  674  1274  2240  3720
"""

P7_SQUARED = """\
n 7
e 1 2
e 2 3
e 3 4
e 4 5
e 5 6
e 6 7
e 1 3
e 2 4
e 3 5
e 4 6
e 5 7
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def pretty(payload) -> str:
    """The documented JSON layout: two-space indent, sorted keys, trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


PROFILE_CHECKS = [f"profile k={k} n={n}" for n in range(4, 7) for k in range(2, n - 1)]

# (argv, exact stdout) for every payload shape: JSON and CSV of each enum
# kind, the table, a verify run and a graph scan (non-void and void), and
# the text payloads no other test pins byte for byte.
BYTE_GOLDENS = [
    (("enum", "faceenum", "4", "7", "--format", "json"),
     '{\n  "coefficients": [\n    1,\n    7,\n    18,\n    15\n  ],\n  "command": "enum",\n'
     '  "k": 4,\n  "kind": "faceenum",\n  "n": 7,\n  "text": "1 + 7x + 18x^2 + 15x^3"\n}\n'),
    (("enum", "faceenum", "4", "7", "--format", "csv"), "degree,coefficient\n0,1\n1,7\n2,18\n3,15\n"),
    (("enum", "hpoly", "4", "7", "--format", "json"),
     pretty({"command": "enum", "kind": "hpoly", "k": 4, "n": 7,
             "coefficients": [1, 4, 7, 3], "text": "1 + 4t + 7t^2 + 3t^3"})),
    (("enum", "hpoly", "4", "7", "--format", "csv"), "degree,coefficient\n0,1\n1,4\n2,7\n3,3\n"),
    (("enum", "hilbert", "4", "7", "--format", "json"),
     pretty({"command": "enum", "kind": "hilbert", "k": 4, "n": 7,
             "numerator_coefficients": [1, 4, 7, 3], "pole_order": 3,
             "series_head": [1, 7, 25, 58, 106, 169, 247, 340]})),
    (("enum", "hilbert", "4", "7", "--format", "csv"),
     "field,index,value\nnumerator,0,1\nnumerator,1,4\nnumerator,2,7\nnumerator,3,3\n"
     "pole_order,,3\nseries_head,0,1\nseries_head,1,7\nseries_head,2,25\nseries_head,3,58\n"
     "series_head,4,106\nseries_head,5,169\nseries_head,6,247\nseries_head,7,340\n"),
    (("enum", "genfun", "4", "--format", "json"),
     pretty({"command": "enum", "kind": "genfun", "r": 4,
             "numerator_coefficients": [0, 0, 0, 3, -1], "pole_order": 4,
             "series_head": [0, 0, 0, 3, 11, 26, 50, 85]})),
    (("enum", "genfun", "4", "--format", "csv"),
     "field,index,value\nnumerator,0,0\nnumerator,1,0\nnumerator,2,0\nnumerator,3,3\n"
     "numerator,4,-1\npole_order,,4\nseries_head,0,0\nseries_head,1,0\nseries_head,2,0\n"
     "series_head,3,3\nseries_head,4,11\nseries_head,5,26\nseries_head,6,50\nseries_head,7,85\n"),
    (("enum", "layers", "2", "5", "--format", "json"),
     pretty({"command": "enum", "kind": "layers", "k": 2, "n": 5, "r": 3,
             "level_rminus1": [[4, 5], [1, 5], [1, 2]],
             "level_r_by_j": [[[1, 2, 3], [1, 2, 5], [1, 4, 5], [3, 4, 5]],
                              [[1, 2, 4], [1, 3, 5], [2, 4, 5]]]})),
    (("enum", "layers", "2", "5", "--format", "csv"),
     "level,j,set\nr-1,,4 5\nr-1,,1 5\nr-1,,1 2\nr,0,1 2 3\nr,0,1 2 5\nr,0,1 4 5\n"
     "r,0,3 4 5\nr,1,1 2 4\nr,1,1 3 5\nr,1,2 4 5\n"),
    (("enum", "layers", "2", "5"),
     "k=2 n=5 r=3\nlevel=r-1 set=4,5\nlevel=r-1 set=1,5\nlevel=r-1 set=1,2\n"
     "level=r j=0 set=1,2,3\nlevel=r j=0 set=1,2,5\nlevel=r j=0 set=1,4,5\nlevel=r j=0 set=3,4,5\n"
     "level=r j=1 set=1,2,4\nlevel=r j=1 set=1,3,5\nlevel=r j=1 set=2,4,5\n"),
    (("enum", "profile", "4", "7", "--format", "json"),
     pretty({"command": "enum", "kind": "profile", "k": 4, "n": 7,
             "counts": [{"m": 4, "q": 20}, {"m": 5, "q": 3}, {"m": 6, "q": 0}, {"m": 7, "q": 0}]})),
    (("enum", "profile", "4", "7", "--format", "csv"), "m,q\n4,20\n5,3\n6,0\n7,0\n"),
    (("table", "--format", "json"),
     pretty({"command": "table", "provenance": "closed-form",
             "k_values": [3, 4, 5, 6, 7, 8, 9, 10], "r_values": [3, 4, 5, 6],
             "rows": [{"r": 3, "values": [1, 3, 6, 10, 15, 21, 28, 36]},
                      {"r": 4, "values": [3, 11, 26, 50, 85, 133, 196, 276]},
                      {"r": 5, "values": [6, 25, 67, 145, 275, 476, 770, 1182]},
                      {"r": 6, "values": [10, 46, 136, 324, 674, 1274, 2240, 3720]}]})),
    (("table", "--format", "csv"),
     "r\\k,3,4,5,6,7,8,9,10\n3,1,3,6,10,15,21,28,36\n4,3,11,26,50,85,133,196,276\n"
     "5,6,25,67,145,275,476,770,1182\n6,10,46,136,324,674,1274,2240,3720\n"),
    (("verify", "--scope", "profile", "--n-max", "6", "--format", "json"),
     pretty({"command": "verify", "scope": "profile", "n_max": 6, "primes": [2, 3],
             "checks": [{"name": name, "ok": True, "detail": ""} for name in PROFILE_CHECKS],
             "passed": 6, "failed": 0})),
    (("verify", "--scope", "profile", "--n-max", "6", "--format", "csv"),
     "name,ok,detail\n" + "".join(f"{name},pass,\n" for name in PROFILE_CHECKS)),
    (("verify", "--scope", "profile", "--n-max", "6"),
     "".join(f"PASS {name}\n" for name in PROFILE_CHECKS)
     + "checks=6 passed=6 failed=0 scope=profile n_max=6 primes=2,3\n"),
    (("graph", "P7_SQUARED", "--k", "4", "--format", "json"),
     pretty({"command": "graph", "n": 7, "k": 4, "edge_count": 11,
             "f_vector": {"void": False, "counts": [1, 7, 18, 15]},
             "profile": [{"m": 4, "q": 20}, {"m": 5, "q": 3}, {"m": 6, "q": 0}, {"m": 7, "q": 0}]})),
    (("graph", "P7_SQUARED", "--k", "6", "--format", "json"),
     pretty({"command": "graph", "n": 7, "k": 6, "edge_count": 11,
             "f_vector": {"void": True, "counts": None},
             "profile": [{"m": 6, "q": 7}, {"m": 7, "q": 1}]})),
    (("graph", "P7_SQUARED", "--k", "6", "--format", "csv"),
     "section,key,value\nmeta,n,7\nmeta,k,6\nmeta,edge_count,11\nf_vector,void,true\n"
     "profile,6,7\nprofile,7,1\n"),
    (("graph", "P7_SQUARED", "--k", "6"),
     "[f_vector]\nk=6 n=7\nvoid=true\n[profile]\nk=6 n=7\nm=6 q=7\nm=7 q=1\n"),
]


@pytest.mark.parametrize("argv, expected", BYTE_GOLDENS, ids=[" ".join(argv) for argv, _ in BYTE_GOLDENS])
def test_byte_golden(capsys, tmp_path, argv, expected):
    if argv[0] == "graph":
        path = tmp_path / "p7.graph"
        path.write_text(P7_SQUARED, encoding="utf-8")
        argv = ("graph", str(path), *argv[2:])
    code, out, err = run(capsys, *argv, "--no-timing")
    assert (code, err) == (0, "")
    assert out == expected


class TestTable:
    def test_golden_text(self, capsys):
        code, out, err = run(capsys, "table", "--no-timing")
        assert code == 0
        assert out == GOLDEN_TABLE
        assert err == ""

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "table", "--no-timing")
        _, second, _ = run(capsys, "table", "--no-timing")
        assert first == second

    def test_timing_footer(self, capsys):
        _, out, _ = run(capsys, "table")
        body, footer = out.rsplit("\n", 2)[0], out.splitlines()[-1]
        assert body + "\n" == GOLDEN_TABLE
        assert re.fullmatch(r"# elapsed \d+\.\d{3}s", footer)
        assert "# elapsed" not in GOLDEN_TABLE

    def test_values_match_reference_table(self, capsys):
        _, out, _ = run(capsys, "table", "--no-timing")
        lines = out.rstrip("\n").split("\n")
        ks = [int(v) for v in lines[0].split()[1:]]
        for line in lines[1:]:
            cells = line.split()
            r = int(cells[0])
            for k, value in zip(ks, cells[1:]):
                assert verification.REFERENCE_TABLE[(k, r)] == int(value)

    def test_sub_window(self, capsys):
        code, out, _ = run(
            capsys, "table", "--no-timing", "--k-min", "3", "--k-max", "4",
            "--r-min", "3", "--r-max", "4",
        )
        assert code == 0
        assert out == "r\\k  3   4\n3    1   3\n4    3  11\n"

    def test_bad_window_is_usage_error(self, capsys):
        code, out, err = run(capsys, "table", "--r-min", "5", "--r-max", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestEnum:
    def test_faceenum_golden(self, capsys):
        code, out, _ = run(capsys, "enum", "faceenum", "4", "7", "--no-timing")
        assert code == 0
        assert out == "1 + 7x + 18x^2 + 15x^3\n"

    def test_faceenum_json(self, capsys):
        _, out, _ = run(capsys, "enum", "faceenum", "4", "7", "--no-timing", "--format", "json")
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert payload["coefficients"] == [1, 7, 18, 15]

    def test_hpoly_golden(self, capsys):
        code, out, _ = run(capsys, "enum", "hpoly", "4", "7", "--no-timing")
        assert code == 0
        assert out == "1 + 4t + 7t^2 + 3t^3\n"

    def test_genfun_golden(self, capsys):
        code, out, _ = run(capsys, "enum", "genfun", "4", "--no-timing")
        assert code == 0
        assert out == "numerator=3x^3 - x^4\npole_order=4\nseries_head=0 0 0 3 11 26 50 85\n"

    def test_hilbert_golden(self, capsys):
        code, out, _ = run(capsys, "enum", "hilbert", "4", "7", "--no-timing")
        assert code == 0
        assert out == (
            "numerator=1 + 4t + 7t^2 + 3t^3\n"
            "pole_order=3\n"
            "series_head=1 7 25 58 106 169 247 340\n"
        )

    def test_profile_golden(self, capsys):
        code, out, _ = run(capsys, "enum", "profile", "4", "7", "--no-timing")
        assert code == 0
        assert out == "k=4 n=7\nm=4 q=20\nm=5 q=3\nm=6 q=0\nm=7 q=0\n"

    def test_layers_text(self, capsys):
        code, out, _ = run(capsys, "enum", "layers", "4", "7", "--no-timing")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "k=4 n=7 r=3"
        assert "level=r-1 set=6,7" in lines
        assert "level=r j=1 set=1,2,4" in lines
        # 3 run complements plus 20 connected-complement sets.
        assert len(lines) == 1 + 3 + 20

    def test_layers_json(self, capsys):
        _, out, _ = run(capsys, "enum", "layers", "4", "7", "--no-timing", "--format", "json")
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert payload["level_rminus1"] == [[6, 7], [1, 7], [1, 2]]
        assert [len(g) for g in payload["level_r_by_j"]] == [4, 9, 6, 1]

    def test_polynomial_notation(self):
        # Case by case, a leading minus and the zero polynomial among them; no enum golden prints those two.
        assert cutcx.cli._poly_text(Polynomial([1, 7, 18, 15]), "x") == "1 + 7x + 18x^2 + 15x^3"
        assert cutcx.cli._poly_text(Polynomial([0, 0, 0, 3, -1]), "x") == "3x^3 - x^4"
        assert cutcx.cli._poly_text(Polynomial([0, 0, 0, 1]), "x") == "x^3"
        assert cutcx.cli._poly_text(Polynomial([-1, 1]), "t") == "-1 + t"
        assert cutcx.cli._poly_text(Polynomial([]), "x") == "0"

    def test_genfun_json(self, capsys):
        _, out, _ = run(capsys, "enum", "genfun", "5", "--no-timing", "--format", "json")
        payload = json.loads(out)
        assert payload["numerator_coefficients"] == [0, 0, 0, 6, -5, 2]
        assert payload["pole_order"] == 5

    def test_wrong_arity_is_usage_error(self, capsys):
        code, _, err = run(capsys, "enum", "faceenum", "4")
        assert code == 2
        assert "takes 2 argument(s)" in err
        code, _, err = run(capsys, "enum", "genfun", "4", "7")
        assert code == 2
        assert "takes 1 argument(s)" in err

    def test_out_of_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "enum", "faceenum", "4", "5")
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_kind_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enum", "nosuchkind", "4", "7"])
        assert exc.value.code == 2


def refuse_to_compute(*args):
    raise AssertionError("computed past a closed-form command's cap")


class TestClosedFormCaps:
    """Oversized enum and table arguments exit 3 before anything is computed."""

    @pytest.mark.parametrize(
        "argv, name, message",
        [
            (("enum", "faceenum", "2", "20000"), "face_enumerator_closed", "n <= 1000"),
            (("enum", "hpoly", "3", "1001"), "h_polynomial", "n <= 1000"),
            (("enum", "hilbert", "4", "1001"), "hilbert_series", "n <= 1000"),
            (("enum", "profile", "2", "1001"), "q_profile_closed", "n <= 1000"),
            (("enum", "genfun", "201"), "diagonal_genfun", "r <= 200"),
            (("enum", "layers", "3", "1000"), "nonface_layers", "sets * n <= 250000"),
            (("enum", "layers", "14", "30"), "nonface_layers", "sets * n <= 250000"),
            (("table", "--k-max", "100000"), "BettiTable", "k-max <= 1000"),
            (("table", "--r-max", "101"), "BettiTable", "r-max <= 100"),
            (("table", "--k-min", "2", "--k-max", "52", "--r-min", "2", "--r-max", "51"), "BettiTable", "cells <= 2500"),
        ],
    )
    def test_refused_before_computing(self, capsys, monkeypatch, argv, name, message):
        refuse = types.SimpleNamespace(from_closed=refuse_to_compute) if name == "BettiTable" else refuse_to_compute
        monkeypatch.setattr(cutcx.cli, name, refuse)
        code, out, err = run(capsys, *argv, "--no-timing")
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("enum", "faceenum", "2", "1000"),
            ("enum", "genfun", "200"),
            ("enum", "hpoly", "3", "1000"),
            ("table", "--k-min", "2", "--k-max", "51", "--r-min", "2", "--r-max", "51"),
        ],
    )
    def test_accepted_at_the_cap(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--no-timing")
        assert code == 0 and out

    def test_usage_errors_stay_usage_errors(self, capsys):
        # Arguments the builders reject keep exit 2, whatever their size.
        for argv in (("enum", "layers", "1", "500"), ("enum", "genfun", "2"), ("table", "--k-min", "9", "--k-max", "3")):
            code, _, err = run(capsys, *argv)
            assert code == 2, argv
            assert err.startswith("error:")

    def test_every_benchmark_op_is_admitted(self, capsys):
        # The caps must admit every enum and table op the benchmark draws.
        bench = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        if not bench.exists():
            pytest.skip("benchmark sources not present")
        spec = importlib.util.spec_from_file_location("bench_workloads", bench)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        ops = [
            op for w in ("closed", "scan") for op in workloads.universe(w)
            if op[0] in ("enum", "table") and "text" in op  # one format per op is enough
        ]
        assert len(ops) > 100
        for op in ops:
            code, _, err = run(capsys, *op)
            assert code == 0, (op, err)


class TestGraph:
    @pytest.fixture
    def graph_file(self, tmp_path):
        path = tmp_path / "p7.graph"
        path.write_text(P7_SQUARED, encoding="utf-8")
        return str(path)

    def test_text_golden(self, capsys, graph_file):
        code, out, _ = run(capsys, "graph", graph_file, "--k", "4", "--no-timing")
        assert code == 0
        assert out == (
            "[f_vector]\n"
            "k=4 n=7\n"
            "void=false\n"
            "p=0 f=1\np=1 f=7\np=2 f=18\np=3 f=15\n"
            "[profile]\n"
            "k=4 n=7\n"
            "m=4 q=20\nm=5 q=3\nm=6 q=0\nm=7 q=0\n"
        )

    def test_csv(self, capsys, graph_file):
        _, out, _ = run(capsys, "graph", graph_file, "--k", "4", "--no-timing", "--format", "csv")
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "section,key,value"
        assert "meta,n,7" in lines
        assert "f_vector,3,15" in lines
        assert "profile,4,20" in lines

    def test_connectivity_flags_agree(self, capsys, graph_file, tmp_path):
        # The graph picks the engine, so no option chooses one: every --connectivity value is refused alike.
        path = tmp_path / "p6.graph"
        path.write_text("n 6\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, 6)), encoding="utf-8")
        for fmt in ("text", "json", "csv"):
            for graph in (graph_file, str(path)):
                for value in ("bfs", "gap", "nope"):
                    with pytest.raises(SystemExit) as exc:
                        main(["graph", graph, "--k", "3", "--no-timing", "--format", fmt, "--connectivity", value])
                    assert exc.value.code == 2
                    out, err = capsys.readouterr()
                    assert out == "" and "--connectivity" in err, (fmt, graph, value)
                assert run(capsys, "graph", graph, "--k", "3", "--no-timing", "--format", fmt)[0] == 0

    def test_method_flags_agree(self, capsys, graph_file):
        # --method is accepted for compatibility and selects nothing.
        outputs = {
            run(capsys, "graph", graph_file, "--k", "4", "--no-timing", *method)
            for method in ((), ("--method", "powerset"), ("--method", "complement"))
        }
        assert len(outputs) == 1 and next(iter(outputs))[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["graph", graph_file, "--k", "4", "--method", "magic"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [(), ("--method", "powerset")], ids=["default", "method-powerset"])
    def test_one_engine_test_per_k_subset(self, capsys, graph_file, monkeypatch, flags):
        # The scan branch: 2k > n (n = 7, k = 4) tests every k-subset with the engine.  Bad sets above
        # size k grow from the level below, so the engine sees each k-set once and nothing larger.
        seen = self.engine_calls(monkeypatch)
        code, _, _ = run(capsys, "graph", graph_file, "--k", "4", "--no-timing", *flags)
        assert code == 0
        assert sorted(seen) == list(combinations(range(1, 8), 4))

    @pytest.mark.parametrize("flags", [(), ("--method", "powerset")], ids=["default", "method-powerset"])
    def test_no_engine_test_when_2k_at_most_n(self, capsys, graph_file, monkeypatch, flags):
        # The ESU branch: 2k <= n (n = 7, k = 3) grows the connected k-sets over the adjacency.
        seen = self.engine_calls(monkeypatch)
        code, out, _ = run(capsys, "graph", graph_file, "--k", "3", "--no-timing", *flags)
        assert code == 0 and "m=3 q=16\n" in out
        assert seen == []

    @staticmethod
    def engine_calls(monkeypatch):
        seen = []

        def counting(engine):
            def wrapped(*args):
                seen.append(args[-1])
                return engine(*args)
            return wrapped

        for name in ("_connected_by_search", "_gaps_at_most_two"):
            monkeypatch.setattr(complements, name, counting(getattr(complements, name)))
        return seen

    def test_bad_set_cap(self, capsys, tmp_path, monkeypatch):
        # K_10 with k = 2 makes every set of size >= 2 bad; its largest level holds C(10, 5) = 252 sets.
        path = tmp_path / "k10.graph"
        path.write_text("n 10\n" + "".join(f"e {u} {v}\n" for u, v in combinations(range(1, 11), 2)), encoding="utf-8")
        monkeypatch.setattr(complements, "BAD_SET_LIMIT", 252)
        code, out, _ = run(capsys, "graph", str(path), "--k", "2", "--no-timing")
        assert code == 0 and "m=5 q=252\n" in out
        monkeypatch.setattr(complements, "BAD_SET_LIMIT", 251)
        code, out, err = run(capsys, "graph", str(path), "--k", "2", "--no-timing")
        assert (code, out) == (3, "")
        assert err.startswith("error: more than 251 bad 5-sets")

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "graph", str(tmp_path / "absent.graph"), "--k", "4")
        assert code == 2
        assert "cannot read graph file" in err

    def test_malformed_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("n 5\nx 1 2\n", encoding="utf-8")
        code, _, err = run(capsys, "graph", str(path), "--k", "2")
        assert code == 2
        assert "line 2" in err

    def test_oversized_graph_is_capacity_error(self, capsys, tmp_path):
        path = tmp_path / "big.graph"
        path.write_text("n 30\ne 1 2\n", encoding="utf-8")
        code, _, err = run(capsys, "graph", str(path), "--k", "4")
        assert code == 3
        assert err.startswith("error:")

    def test_oversized_header_refused_before_graph_is_built(self, capsys, tmp_path, monkeypatch):
        def refuse(self, n, edges=()):
            raise AssertionError(f"Graph({n}) built before the capacity check")

        monkeypatch.setattr(graphs.Graph, "__init__", refuse)
        path = tmp_path / "huge.graph"
        path.write_text("n 300000", encoding="utf-8")
        code, _, err = run(capsys, "graph", str(path), "--k", "3")
        assert code == 3
        assert "n <= 24" in err

    def test_gap_on_non_squared_path_is_usage_error(self, capsys, tmp_path):
        # --connectivity is no option of graph; the path P_6 still gets its answer from the search engine.
        path = tmp_path / "p6.graph"
        path.write_text("n 6\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, 6)), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["graph", str(path), "--k", "3", "--connectivity", "gap"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--connectivity" in err
        code, out, _ = run(capsys, "graph", str(path), "--k", "3", "--no-timing")
        assert code == 0
        assert "p=2 f=15\np=3 f=16\n" in out


def kn_pairs(n_min: int, n_max: int, gap: int) -> list[tuple[int, int]]:
    """(k, n) with n_min <= n <= n_max and 2 <= k <= n - gap, in check order."""
    return [(k, n) for n in range(n_min, n_max + 1) for k in range(2, n - gap + 1)]


def homology_names(n_max: int) -> list[str]:
    return [*(f"homology k={k} n={n}" for k, n in kn_pairs(5, n_max, 3)),
            *(f"vanishing k={k} n={k + 2}" for k in range(2, n_max - 1))]


def hilbert_names(n_max: int) -> list[str]:
    return [*(f"hilbert closed n={n}" for n in range(4, 41)),
            *(f"hilbert series k={k} n={n}" for k, n in kn_pairs(4, min(n_max, 10), 2))]


TABLE_NAME = "table r=3..6 k=3..10"
RECURRENCE_NAMES = [
    *(f"recurrence r={r} k<=40" for r in range(3, 9)),
    *(f"sharpness r={r}" for r in range(3, 13)),
    *(f"diagonal r={r} k<=40" for r in range(3, 9)),
    "binomial-basis k=4 n<=60",
    "binomial-basis k=5 n<=60",
]
GENFUN_NAMES = [f"genfun r={r} terms<=50" for r in range(3, 9)]
SEED_NAMES = [TABLE_NAME, *(f"seed recurrence r={r}" for r in range(3, 6)), *homology_names(9)]
ALL_NAMES_10 = [
    TABLE_NAME,
    *(f"profile k={k} n={n}" for k, n in kn_pairs(4, 10, 2)),
    *(f"fvector k={k} n={n}" for k, n in kn_pairs(4, 10, 2)),
    *homology_names(10),
    *RECURRENCE_NAMES,
    *GENFUN_NAMES,
    *hilbert_names(10),
]


def wrong_at(fn, at, spoil):
    """fn, except that its value at the arguments `at` goes through `spoil`."""
    def patched(*args):
        value = fn(*args)
        return spoil(value) if args == at else value
    return patched


def spoil_diagonal_at_four(monkeypatch):
    """diagonal_poly(4) off by one, so diagonal_genfun(4) fails its own post-check."""
    spoiled = wrong_at(formulas.diagonal_poly, (4,), lambda p: p + Polynomial([1]))
    monkeypatch.setattr(formulas, "diagonal_poly", spoiled)


GENFUN_POST_CHECK_ERROR = (
    "internal error: series of RationalGenFun(numerator=Polynomial([0, 0, 0, 3, -1]), pole_order=4)"
    " disagrees with the diagonal polynomial"
)


def plus_one(value):
    return value + 1


def plus_x2(gf):
    return RationalGenFun(numerator=gf.numerator + Polynomial([0, 0, 1]), pole_order=gf.pole_order)


SEED_ARGV = ("--seed-check", "--primes", "2")
HOMOLOGY_ARGV = ("--scope", "homology", "--n-max", "6", "--primes", "2")
HILBERT_ARGV = ("--scope", "hilbert", "--n-max", "5")
SEED_SUMMARY = "checks=25 passed=24 failed=1 scope=seed-check n_max=9 primes=2"
HOMOLOGY_SUMMARY = "checks=6 passed=5 failed=1 scope=homology n_max=6 primes=2"
RECURRENCE_SUMMARY = "checks=24 passed=23 failed=1 scope=recurrence n_max=10 primes=2,3"
HILBERT_SUMMARY = "checks=40 passed=39 failed=1 scope=hilbert n_max=5 primes=2,3"

# One run per kind of check with one closed form made wrong at one argument:
# (module, name, arguments, spoil, verify argv, the run's check names,
# the failing check, its detail, the summary line).
FAILURE_GOLDENS = [
    (formulas, "beta_closed", (10, 16), plus_one, SEED_ARGV, SEED_NAMES,
     TABLE_NAME, "k=10 r=6: closed 3721 != reference 3720", SEED_SUMMARY),
    (verification, "q_profile_closed", (3, 5),
     lambda p: BadProfile(k=p.k, n=p.n, counts={**p.counts, 3: p.counts[3] + 1}),
     ("--scope", "profile", "--n-max", "5"), [f"profile k={k} n={n}" for k, n in kn_pairs(4, 5, 2)],
     "profile k=3 n=5", "brute {3: 8, 4: 2, 5: 0} != closed {3: 9, 4: 2, 5: 0}",
     "checks=3 passed=2 failed=1 scope=profile n_max=5 primes=2,3"),
    (verification, "face_enumerator_closed", (2, 5), lambda p: p + Polynomial([0, 1]),
     ("--scope", "fvector", "--n-max", "5"), [f"fvector k={k} n={n}" for k, n in kn_pairs(4, 5, 2)],
     "fvector k=2 n=5", "brute [1, 5, 7, 3] vs closed [1, 6, 7, 3] (euler 0 vs 1)",
     "checks=3 passed=2 failed=1 scope=fvector n_max=5 primes=2,3"),
    (homology, "beta_closed", (3, 6), plus_one, HOMOLOGY_ARGV, homology_names(6),
     "homology k=3 n=6", "prime=2 betti=(0, 0, 1) expected=(0, 0, 2)", HOMOLOGY_SUMMARY),
    (verification, "beta_closed", (3, 5), plus_one, HOMOLOGY_ARGV, homology_names(6),
     "vanishing k=3 n=5", "closed 1", HOMOLOGY_SUMMARY),
    (formulas, "beta_closed", (20, 23), plus_one, ("--scope", "recurrence"), RECURRENCE_NAMES,
     "recurrence r=3 k<=40",
     "k=20 (closed) -> 1; k=21 (closed) -> -3; k=22 (closed) -> 3; k=23 (closed) -> -1", RECURRENCE_SUMMARY),
    (verification, "sharp_difference", (5,), plus_one, ("--scope", "recurrence"), RECURRENCE_NAMES,
     "sharpness r=5", "difference constant 4 (want 3), leading 1/8 (want 1/8)", RECURRENCE_SUMMARY),
    (verification, "beta_closed", (7, 11), plus_one, ("--scope", "recurrence"), RECURRENCE_NAMES,
     "diagonal r=4 k<=40", "k=7: poly 85 != closed 86", RECURRENCE_SUMMARY),
    (verification, "beta_k5", (10,), plus_one, ("--scope", "recurrence"), RECURRENCE_NAMES,
     "binomial-basis k=5 n<=60", "n=10", RECURRENCE_SUMMARY),
    (verification, "diagonal_genfun", (4,), plus_x2, ("--scope", "genfun"), GENFUN_NAMES,
     "genfun r=4 terms<=50", "k=2: 1 != 0; k=3: 7 != 3; k=4: 21 != 11",
     "checks=6 passed=5 failed=1 scope=genfun n_max=10 primes=2,3"),
    (verification, "h_polynomial", (3, 8), lambda h: h + Polynomial([1]), HILBERT_ARGV, hilbert_names(5),
     "hilbert closed n=8", "k=3: h_0 = 2; k=3: degree-1 value 13 != 8", HILBERT_SUMMARY),
    (verification, "hilbert_series", (2, 5), plus_x2, HILBERT_ARGV, hilbert_names(5),
     "hilbert series k=2 n=5", "d=2: 13 != 12; d=3: 25 != 22; d=4: 41 != 35; d=5: 61 != 51; d=6: 85 != 70",
     HILBERT_SUMMARY),
    (formulas, "beta_closed", (13, 16), plus_one, SEED_ARGV, SEED_NAMES,
     "seed recurrence r=3", "k=13 (closed) -> 1", SEED_SUMMARY),
    (verification, "diagonal_genfun", (4,),
     lambda gf: RationalGenFun(numerator=gf.numerator + Polynomial([1]), pole_order=gf.pole_order),
     ("--scope", "genfun"), GENFUN_NAMES,
     "genfun r=4 terms<=50", "k=0 coefficient 1 != 0; k=1: 4 != 0; k=2: 10 != 0",
     "checks=6 passed=5 failed=1 scope=genfun n_max=10 primes=2,3"),
    (verification, "beta_closed", (3, 8), plus_one, HILBERT_ARGV, hilbert_names(5),
     "hilbert closed n=8", "k=3: h_5 = 6 != 7", HILBERT_SUMMARY),
    (formulas, "beta_closed", (3, 9), lambda v: -5, SEED_ARGV, SEED_NAMES,
     TABLE_NAME, "internal error: negative entry at k=3, r=6", SEED_SUMMARY),
]


def golden_ids(rows) -> list[str]:
    """Each row's failing check kind, e.g. "hilbert closed"; a kind's later rows add their first witness."""
    ids: list[str] = []
    for *_, failing, detail, _ in rows:
        kind = failing.split("=")[0].rsplit(" ", 1)[0]
        ids.append(f"{kind}: {detail.split('; ')[0]}" if kind in ids else kind)
    return ids


class TestVerify:
    def test_seed_check_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed-check", "--no-timing")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        summary = lines[-1]
        assert all(line.startswith("PASS ") for line in lines[:-1])
        assert f"checks={len(lines) - 1}" in summary
        assert f"passed={len(lines) - 1}" in summary
        assert "failed=0 scope=seed-check n_max=9 primes=2,3" in summary

    def test_profile_scope(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "profile", "--n-max", "8", "--no-timing")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        # Pairs (k, n) with 2 <= k <= n-2 and 4 <= n <= 8.
        assert len(lines) - 1 == 15
        assert lines[-1].startswith("checks=15 passed=15 failed=0 scope=profile n_max=8")

    def test_tampered_reference_fails_honestly(self, capsys, monkeypatch):
        monkeypatch.setitem(verification.REFERENCE_TABLE, (3, 3), 999)
        code, out, _ = run(capsys, "verify", "--seed-check", "--no-timing")
        assert code == 1
        assert "FAIL" in out
        assert "failed=0" not in out.rstrip("\n").split("\n")[-1]

    def test_bad_primes_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--seed-check", "--primes", "2,4")
        assert code == 2
        assert err.startswith("error:")
        code, _, err = run(capsys, "verify", "--seed-check", "--primes", "")
        assert code == 2
        code, out, err = run(capsys, "verify", "--seed-check", "--primes", "2,x")
        assert (code, out, err) == (2, "", "error: --primes expects comma-separated integers, got '2,x'\n")

    def test_oversized_n_max_is_capacity_error(self, capsys):
        code, _, err = run(capsys, "verify", "--scope", "profile", "--n-max", "30")
        assert code == 3
        assert err.startswith("error:")

    @pytest.mark.parametrize("scope", ["homology", "all"])
    def test_homology_past_its_limit_is_capacity_error(self, capsys, monkeypatch, scope):
        def refuse(k, n, primes):
            raise AssertionError(f"homology check k={k} n={n} ran past the limit")

        monkeypatch.setattr(verification, "verify_concentration", refuse)
        n_max = str(cutcx.HOMOLOGY_LIMIT + 1)
        code, out, err = run(capsys, "verify", "--scope", scope, "--n-max", n_max, "--no-timing")
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and f"homology limit {cutcx.HOMOLOGY_LIMIT}" in err
        # The other brute-force scopes keep the full-scan limit.
        assert verification.scope_jobs("profile", cutcx.HOMOLOGY_LIMIT + 1, (2,))

    def test_seed_check_runs_homology_over_the_given_primes(self, capsys, monkeypatch):
        seen = set()

        def fake(k, n, primes):
            seen.add(primes)
            return types.SimpleNamespace(ok=True, mismatches=[])

        monkeypatch.setattr(verification, "verify_concentration", fake)
        code, out, _ = run(capsys, "verify", "--seed-check", "--primes", "5", "--no-timing")
        assert code == 0
        assert out.rstrip("\n").split("\n")[-1].endswith("primes=5")
        assert seen == {(5,)}

    @pytest.mark.parametrize(
        "module, attr, at, spoil, argv, names, failing, detail, summary", FAILURE_GOLDENS,
        ids=golden_ids(FAILURE_GOLDENS),
    )
    def test_failure_golden(self, capsys, monkeypatch, module, attr, at, spoil, argv, names, failing, detail, summary):
        monkeypatch.setattr(module, attr, wrong_at(getattr(module, attr), at, spoil))
        code, out, err = run(capsys, "verify", *argv, "--no-timing")
        assert failing in names
        lines = [f"FAIL {name}: {detail}" if name == failing else f"PASS {name}" for name in names]
        assert (code, err) == (1, "")
        assert out == "\n".join([*lines, summary]) + "\n"

    def test_post_check_error_is_a_fail_line(self, capsys, monkeypatch):
        # diagonal_genfun raises RuntimeError when its series disagrees with diagonal_poly; the run
        # records that as the check's FAIL line, with the message as witness, and goes on.
        spoil_diagonal_at_four(monkeypatch)
        code, out, err = run(capsys, "verify", "--scope", "genfun", "--no-timing")
        failing = "genfun r=4 terms<=50"
        lines = [f"FAIL {name}: {GENFUN_POST_CHECK_ERROR}" if name == failing else f"PASS {name}" for name in GENFUN_NAMES]
        assert (code, err) == (1, "")
        assert out == "\n".join([*lines, "checks=6 passed=5 failed=1 scope=genfun n_max=10 primes=2,3"]) + "\n"

    def test_value_error_in_a_check_is_a_fail_line(self, capsys, monkeypatch):
        # Every argument is refused before any check runs, so a ValueError inside one is an
        # oracle or closed form refusing its own input: that check fails and the run goes on.
        genfun = verification.diagonal_genfun

        def refuse_at_four(r):
            if r == 4:
                raise ValueError("refused")
            return genfun(r)

        monkeypatch.setattr(verification, "diagonal_genfun", refuse_at_four)
        code, out, err = run(capsys, "verify", "--scope", "genfun", "--no-timing")
        lines = [f"FAIL {name}: refused" if name == "genfun r=4 terms<=50" else f"PASS {name}" for name in GENFUN_NAMES]
        assert (code, err) == (1, "")
        assert out == "\n".join([*lines, "checks=6 passed=5 failed=1 scope=genfun n_max=10 primes=2,3"]) + "\n"

    def test_oracle_input_fault_in_a_check_is_a_fail_line(self, capsys, monkeypatch):
        # faces_by_dimension drops the vertex (1,) at (k, n) = (3, 7); the chain build's
        # downward-closure check names the witness in that check's FAIL line.
        faces = homology.faces_by_dimension

        def drop_vertex_one(graph, k):
            layers = faces(graph, k)
            return [layers[0][1:], *layers[1:]] if (k, graph.n) == (3, 7) else layers

        monkeypatch.setattr(homology, "faces_by_dimension", drop_vertex_one)
        code, out, err = run(capsys, "verify", "--scope", "homology", "--n-max", "8", "--no-timing")
        detail = "not downward closed: face (1, 2) present but subface (1,) missing"
        names = homology_names(8)
        lines = [f"FAIL {name}: {detail}" if name == "homology k=3 n=7" else f"PASS {name}" for name in names]
        summary = f"checks={len(names)} passed={len(names) - 1} failed=1 scope=homology n_max=8 primes=2,3"
        assert (code, err) == (1, "")
        assert out == "\n".join([*lines, summary]) + "\n"

    def test_capacity_error_in_a_check_ends_the_run(self, capsys, monkeypatch):
        def refuse(r):
            raise CapacityError("refused")

        monkeypatch.setattr(verification, "diagonal_genfun", refuse)
        assert run(capsys, "verify", "--scope", "genfun", "--no-timing") == (3, "", "error: refused\n")

    def test_check_names_in_order(self):
        assert len(ALL_NAMES_10) == 180
        assert [c.name for c in verification.run_jobs(verification.scope_jobs("all", 10, (2, 3)))] == ALL_NAMES_10
        assert [c.name for c in verification.run_jobs(verification.seed_jobs((2, 3)))] == SEED_NAMES

    def test_job_names_are_the_printed_names(self):
        # The benchmark tracer tags each check's span with the name in its job pair.
        assert [name for name, _ in verification.scope_jobs("all", 10, (2, 3))] == ALL_NAMES_10
        assert [name for name, _ in verification.seed_jobs((2, 3))] == SEED_NAMES

    @pytest.mark.parametrize("scope", [s for s in verification.SCOPES if s != "all"])
    def test_scope_builds_only_its_own_suite(self, monkeypatch, scope):
        built = []

        def recording(check, *args):
            built.append(functools.partial(check, *args))
            return built[-1]

        monkeypatch.setattr(verification, "partial", recording)
        jobs = verification.scope_jobs(scope, 10, (2, 3))
        assert [thunk for _, thunk in jobs] == built

    def test_refusals_come_before_any_suite(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a suite was built before the refusal")

        monkeypatch.setattr(verification, "partial", refuse)
        with pytest.raises(CapacityError):
            verification.scope_jobs("homology", 25, (2,))
        with pytest.raises(ValueError):
            verification.scope_jobs("profile", 3, (2,))

    @pytest.mark.parametrize("n_max", ["3", "0", "-5"])
    def test_n_max_below_four_is_usage_error(self, capsys, n_max):
        code, out, err = run(capsys, "verify", "--scope", "homology", "--n-max", n_max)
        assert code == 2
        assert out == ""
        assert "at least 4" in err


class TestInternalErrors:
    # Outside verify, a closed form failing its own post-check ends the run with exit 1,
    # nothing on stdout and one error line on stderr, in every format.
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_genfun_post_check(self, capsys, monkeypatch, fmt):
        spoil_diagonal_at_four(monkeypatch)
        assert run(capsys, "enum", "genfun", "4", "--format", fmt) == (1, "", f"error: {GENFUN_POST_CHECK_ERROR}\n")

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_layers_nonface_check(self, capsys, monkeypatch, fmt):
        bad_set_test = complexes._all_k_subsets_connected
        monkeypatch.setattr(complexes, "_all_k_subsets_connected",
                            lambda c, k, conn: c != (2, 3, 4, 5, 6) and bad_set_test(c, k, conn))
        err = "error: internal error: constructed nonface complement (2, 3, 4, 5, 6) is not bad for k=4, n=7\n"
        assert run(capsys, "enum", "layers", "4", "7", "--format", fmt) == (1, "", err)

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_table_negative_entry(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(formulas, "beta_closed", wrong_at(formulas.beta_closed, (3, 9), lambda v: -5))
        err = "error: internal error: negative entry at k=3, r=6\n"
        assert run(capsys, "table", "--format", fmt) == (1, "", err)


class TestParser:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nosuchcommand"])
        assert exc.value.code == 2

    def test_bad_format_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--format", "xml"])
        assert exc.value.code == 2

    @staticmethod
    def outcome(capsys, argv):
        """Exit code, stdout and stderr of one main(argv) call, argparse refusals included."""
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    def test_reused_parser_leaks_no_state(self, capsys, tmp_path):
        # One parser serves every call in a process; each call must see what a freshly built one would.
        path = tmp_path / "p7.graph"
        path.write_text(P7_SQUARED, encoding="utf-8")
        commands = [
            ("table", "--r-max", "4", "--k-max", "5"),
            ("verify", "--scope", "homology", "--n-max", "6", "--primes", "3"),
            ("verify", "--scope", "genfun", "--n-max", "4"),
            ("enum", "hilbert", "4", "7"),
            ("enum", "genfun", "5"),
            ("graph", str(path), "--k", "4"),
            ("graph", str(path), "--k", "3"),
        ]
        sequence = [
            *((*argv, "--no-timing", *fmt) for argv in commands for fmt in ((), ("--format", "json"), ("--format", "csv"))),
            ("table", "--format", "xml"),
            (),
            ("graph", "/nonexistent", "--k", "3"),
            ("verify", "--scope", "homology", "--n-max", "25"),
        ]
        sequence += sequence[::-1]
        reused = [self.outcome(capsys, argv) for argv in sequence]
        fresh = []
        for argv in sequence:
            build_parser.cache_clear()
            fresh.append(self.outcome(capsys, argv))
        assert [code for code, _, _ in fresh[:25]] == [0] * 21 + [2, 2, 2, 3]
        assert reused == fresh

    def test_parser_built_once_per_process(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "p7.graph"
        path.write_text(P7_SQUARED, encoding="utf-8")
        assert build_parser() is build_parser()
        main(["table", "--no-timing"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        calls = [
            ("table", "--format", "csv"),
            ("enum", "faceenum", "4", "7"),
            ("enum", "genfun", "4", "--format", "json"),
            ("verify", "--scope", "recurrence", "--n-max", "4"),
            ("graph", str(path), "--k", "3", "--format", "csv"),
        ]
        for argv in calls * 4:
            assert main([*argv, "--no-timing"]) == 0
        capsys.readouterr()
        assert built == []
        assert build_parser() is build_parser()


# -- grammar fuzz: drawn command lines through main(argv), in process ---------

FUZZ_INTS = st.one_of(
    *[st.integers(2, 12)] * 3,  # mostly values a command admits
    st.integers(-3, 60),
    st.sampled_from([199, 200, 201, 999, 1000, 1001, 2**63, -(2**63), 10**40]),
)
# Every admitted verify run stays at n <= 7, homology included; 25 and up must be refused.
FUZZ_N_MAX = st.integers(-3, 7) | st.integers(25, 10**40)
FUZZ_PRIMES = st.sampled_from(
    ["2", "3", "2,3", "5,7", "65521", "65537", "", ",", " 2 ", "2,,3", "0", "1", "-2", "4", "x",
     "2305843009213693951", str(10**40)]
) | st.text("0123456789,-", max_size=8)
FUZZ_HUGE_HEADERS = ["n 25", "n 1000000000", f"n {10**40}"]
FUZZ_GRAPH_LINES = st.sampled_from(
    ["n", "n x", "n -1", "n 0", *FUZZ_HUGE_HEADERS, "e", "e 1", "e 0 1", "e 1 1", "e 1 99", "e 1 2 3", "e a b",
     "x 1 2", ""]
)
GRAPH_PATH = "<graph file>"  # stands for the file the test writes the drawn graph text to


@st.composite
def graph_text(draw) -> str:
    """A small graph file, its header sometimes huge, sometimes with malformed lines mixed in."""
    n = draw(st.integers(1, 9))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(1, n + 1), 2)) or [(1, 2)]), unique=True))
    lines = [draw(st.sampled_from([f"n {n}"] * 3 + FUZZ_HUGE_HEADERS)), *(f"e {u} {v}" for u, v in edges)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(FUZZ_GRAPH_LINES))
    return "\n".join(lines) + "\n"


@st.composite
def fuzz_call(draw) -> tuple[list[str], str | None, bool]:
    """(argv, graph file text or None, whether the call must be refused)."""
    def maybe(*tokens: str) -> list[str]:
        return list(tokens) if draw(st.booleans()) else []

    def rarely() -> bool:
        return draw(st.sampled_from([False] * 5 + [True]))

    command = draw(st.sampled_from(["table", "verify", "enum", "graph", "nope"]))
    argv, text, refused = [command], None, False
    if command == "table":
        for flag in ("--k-min", "--k-max", "--r-min", "--r-max"):
            argv += maybe(flag, str(draw(FUZZ_INTS)))
    elif command == "verify":
        n_max = draw(FUZZ_N_MAX)
        seed = maybe("--seed-check")
        argv += ["--n-max", str(n_max), *seed, *maybe("--scope", draw(st.sampled_from([*verification.SCOPES, "nope"])))]
        argv += maybe("--primes", draw(FUZZ_PRIMES))
        refused = n_max >= 25 and not seed
    elif command == "enum":
        kind = draw(st.sampled_from(["faceenum", "hpoly", "hilbert", "genfun", "layers", "profile", "nope"]))
        k = draw(FUZZ_INTS)
        values = [k, draw(st.integers(k + 2, k + 40) | FUZZ_INTS), draw(FUZZ_INTS)]  # k, then n mostly past k + 1
        arity = (1 if kind == "genfun" else 2) + draw(st.sampled_from([0, 0, 0, -1, 1]))
        argv += [kind, *map(str, values[:arity])]
    elif command == "graph":
        text = None if rarely() else draw(graph_text())  # None: the file does not exist
        argv += [GRAPH_PATH, *([] if rarely() else ["--k", str(draw(FUZZ_INTS))])]
        argv += maybe("--connectivity", draw(st.sampled_from(["bfs", "bfs", "gap", "bfs", "nope"])))
        argv += maybe("--method", draw(st.sampled_from(["powerset", "complement", "powerset", "complement", "nope"])))
    argv += maybe("--format", draw(st.sampled_from(["text", "json", "csv", "text", "json", "csv", "xml"])))
    argv += maybe("--no-timing")
    return argv + ([draw(st.sampled_from(["--bogus", "7", "--format"]))] if rarely() else []), text, refused


class TestGrammarFuzz:
    @given(fuzz_call())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_call_ends_with_an_exit_code(self, tmp_path, call):
        argv, text, refused = call
        path = tmp_path / "fuzz.graph"
        path.unlink(missing_ok=True)
        if text is not None:
            path.write_text(text, encoding="utf-8")
        argv = [str(path) if token == GRAPH_PATH else token for token in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusals end this way
                code = exc.code
        event(f"{argv[0]} exit {code}")  # shown by pytest --hypothesis-show-statistics
        assert code in (0, 1, 2, 3), argv
        assert code in (2, 3) or not refused, argv


class TestStartup:
    def test_cli_import_loads_only_the_standard_library(self):
        # A fresh interpreter with site-packages off (-S): the CLI must start
        # with no third-party package installed or loaded.
        env = dict(os.environ)
        src = str(Path(cutcx.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = (
            "import sys, cutcx.cli; "
            "print(sorted({m.partition('.')[0] for m in sys.modules} - set(sys.stdlib_module_names)))"
        )
        result = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "['__main__', 'cutcx']\n"
