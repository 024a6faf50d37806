"""End-to-end CLI coverage driven through main(argv).

Byte-level goldens pin the text payloads; JSON payloads must round-trip
to themselves under a sorted re-dump.  Exit codes: 0 ok, 1 verification
failure, 2 usage, 3 capacity.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cutcx
from cutcx import graphs, verification
from cutcx.cli import main

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

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "table", "--no-timing", "--format", "json")
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert payload["command"] == "table"
        assert payload["k_values"] == list(range(3, 11))
        assert payload["rows"][0] == {"r": 3, "values": [1, 3, 6, 10, 15, 21, 28, 36]}

    def test_csv(self, capsys):
        _, out, _ = run(capsys, "table", "--no-timing", "--format", "csv")
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "r\\k,3,4,5,6,7,8,9,10"
        assert lines[1] == "3,1,3,6,10,15,21,28,36"
        assert lines[4] == "6,10,46,136,324,674,1274,2240,3720"

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

    def test_faceenum_csv(self, capsys):
        _, out, _ = run(capsys, "enum", "faceenum", "4", "7", "--no-timing", "--format", "csv")
        assert out == "degree,coefficient\n0,1\n1,7\n2,18\n3,15\n"

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

    def test_json(self, capsys, graph_file):
        _, out, _ = run(capsys, "graph", graph_file, "--k", "4", "--no-timing", "--format", "json")
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert payload["n"] == 7
        assert payload["edge_count"] == 11
        assert payload["f_vector"] == {"void": False, "counts": [1, 7, 18, 15]}
        assert payload["profile"] == [
            {"m": 4, "q": 20}, {"m": 5, "q": 3}, {"m": 6, "q": 0}, {"m": 7, "q": 0},
        ]

    def test_csv(self, capsys, graph_file):
        _, out, _ = run(capsys, "graph", graph_file, "--k", "4", "--no-timing", "--format", "csv")
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "section,key,value"
        assert "meta,n,7" in lines
        assert "f_vector,3,15" in lines
        assert "profile,4,20" in lines

    def test_connectivity_flags_agree(self, capsys, graph_file):
        _, bfs_out, _ = run(
            capsys, "graph", graph_file, "--k", "4", "--no-timing", "--connectivity", "bfs"
        )
        _, gap_out, _ = run(
            capsys, "graph", graph_file, "--k", "4", "--no-timing", "--connectivity", "gap"
        )
        assert bfs_out == gap_out

    def test_method_flags_agree(self, capsys, graph_file):
        _, a, _ = run(capsys, "graph", graph_file, "--k", "4", "--no-timing", "--method", "powerset")
        _, b, _ = run(capsys, "graph", graph_file, "--k", "4", "--no-timing", "--method", "complement")
        assert a == b

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
        path = tmp_path / "p6.graph"
        path.write_text("n 6\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, 6)), encoding="utf-8")
        code, out, err = run(capsys, "graph", str(path), "--k", "3", "--connectivity", "gap")
        assert code == 2
        assert out == ""
        assert "squared paths" in err
        code, out, _ = run(capsys, "graph", str(path), "--k", "3", "--connectivity", "bfs", "--no-timing")
        assert code == 0
        assert "p=2 f=15\np=3 f=16\n" in out


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

    def test_json_form(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--scope", "profile", "--n-max", "6", "--no-timing",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert payload["failed"] == 0
        assert payload["passed"] == len(payload["checks"]) == 6
        assert all(c["ok"] for c in payload["checks"])

    def test_csv_form(self, capsys):
        _, out, _ = run(
            capsys, "verify", "--scope", "profile", "--n-max", "6", "--no-timing",
            "--format", "csv",
        )
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "name,ok,detail"
        assert len(lines) == 7
        assert all(",pass," in line for line in lines[1:])

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

    def test_oversized_n_max_is_capacity_error(self, capsys):
        code, _, err = run(capsys, "verify", "--scope", "profile", "--n-max", "30")
        assert code == 3
        assert err.startswith("error:")

    def test_thread_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CUTCX_THREADS", "1")
        code, out, _ = run(capsys, "verify", "--scope", "profile", "--n-max", "6", "--no-timing")
        assert code == 0
        assert out.rstrip("\n").split("\n")[-1].startswith("checks=6 passed=6 failed=0")

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_bad_thread_cap_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("CUTCX_THREADS", value)
        code, _, err = run(capsys, "verify", "--scope", "profile", "--n-max", "6")
        assert code == 2
        assert "CUTCX_THREADS" in err


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
