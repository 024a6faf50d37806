"""Command line interface: reference tables, verification runs, enumerations.

Payloads are deterministic: identical invocations give identical bytes.
Timing appears only in a trailing '# elapsed' footer that --no-timing
suppresses.  Exit codes: 0 success, 1 verification failure, 2 usage
error, 3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from .complements import q_profile_bruteforce, q_profile_closed
from .complexes import f_vector_bruteforce, face_enumerator_closed, nonface_layers
from .formulas import BettiTable, diagonal_genfun, h_polynomial, hilbert_series
from .graphs import CapacityError, is_squared_path, parse_graph
from .homology import PrimeField
from .verification import SCOPES, RunReport, run_jobs, scope_jobs, seed_jobs, worker_count

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

FORMATS = ("text", "json", "csv")
ENUM_KINDS = ("faceenum", "hpoly", "hilbert", "genfun", "layers", "profile")
SERIES_HEAD_TERMS = 8


def _emit_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit_csv(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _parse_primes(raw: str) -> tuple[int, ...]:
    try:
        primes = tuple(int(p) for p in raw.split(",") if p.strip() != "")
    except ValueError:
        raise ValueError(f"--primes expects comma-separated integers, got {raw!r}") from None
    if not primes:
        raise ValueError("--primes needs at least one prime")
    for p in primes:
        PrimeField(p)
    return primes


# -- subcommands -------------------------------------------------------------


def cmd_table(args: argparse.Namespace) -> tuple[int, str]:
    if not (2 <= args.r_min <= args.r_max and 2 <= args.k_min <= args.k_max):
        raise ValueError("table needs 2 <= r-min <= r-max and 2 <= k-min <= k-max")
    table = BettiTable.from_closed(
        range(args.k_min, args.k_max + 1), range(args.r_min, args.r_max + 1)
    )
    if args.format == "json":
        payload = {
            "command": "table",
            "provenance": table.provenance,
            "k_values": table.k_values,
            "r_values": table.r_values,
            "rows": [
                {"r": r, "values": [table.value(k, r) for k in table.k_values]}
                for r in table.r_values
            ],
        }
        return EXIT_OK, _emit_json(payload)
    if args.format == "csv":
        rows = [["r\\k", *table.k_values]]
        rows += [[r, *(table.value(k, r) for k in table.k_values)] for r in table.r_values]
        return EXIT_OK, _emit_csv(rows)
    return EXIT_OK, table.to_text_grid() + "\n"


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    primes = _parse_primes(args.primes)
    if args.seed_check:
        scope, n_max = "seed-check", 9
        jobs = seed_jobs()
    else:
        scope, n_max = args.scope, args.n_max
        jobs = scope_jobs(scope, n_max, primes)
    start = time.perf_counter()
    checks = run_jobs(jobs, worker_count())
    report = RunReport(
        command="verify",
        scope=scope,
        n_max=n_max,
        primes=primes,
        checks=checks,
        elapsed=time.perf_counter() - start,
    )
    code = EXIT_OK if report.ok else EXIT_VERIFY
    if args.format == "json":
        payload = {
            "command": "verify",
            "scope": report.scope,
            "n_max": report.n_max,
            "primes": list(report.primes),
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in report.checks],
            "passed": report.passed,
            "failed": report.failed,
        }
        return code, _emit_json(payload)
    if args.format == "csv":
        rows = [["name", "ok", "detail"]]
        rows += [[c.name, "pass" if c.ok else "fail", c.detail] for c in report.checks]
        return code, _emit_csv(rows)
    lines = [
        (f"PASS {c.name}" if c.ok else f"FAIL {c.name}: {c.detail}") for c in report.checks
    ]
    lines.append(
        f"checks={len(report.checks)} passed={report.passed} failed={report.failed}"
        f" scope={report.scope} n_max={report.n_max} primes={','.join(map(str, report.primes))}"
    )
    return code, "\n".join(lines) + "\n"


def _enum_args(kind: str, values: list[int]) -> tuple[int, ...]:
    want = 1 if kind == "genfun" else 2
    if len(values) != want:
        names = "r" if kind == "genfun" else "k n"
        raise ValueError(f"enum {kind} takes {want} argument(s): {names}")
    return tuple(values)


def cmd_enum(args: argparse.Namespace) -> tuple[int, str]:
    kind = args.kind
    if kind == "genfun":
        (r,) = _enum_args(kind, args.values)
        gf = diagonal_genfun(r)
        series = gf.series(SERIES_HEAD_TERMS)
        if args.format == "json":
            return EXIT_OK, _emit_json(
                {
                    "command": "enum",
                    "kind": kind,
                    "r": r,
                    "numerator_coefficients": gf.numerator.coeff_list(),
                    "pole_order": gf.pole_order,
                    "series_head": series,
                }
            )
        if args.format == "csv":
            rows = [["field", "index", "value"]]
            rows += [["numerator", d, c] for d, c in enumerate(gf.numerator.coeff_list())]
            rows.append(["pole_order", "", gf.pole_order])
            rows += [["series_head", d, v] for d, v in enumerate(series)]
            return EXIT_OK, _emit_csv(rows)
        head = " ".join(map(str, series))
        return EXIT_OK, gf.text("x") + f"\nseries_head={head}\n"

    k, n = _enum_args(kind, args.values)
    if kind == "faceenum":
        poly = face_enumerator_closed(k, n)
        if args.format == "json":
            return EXIT_OK, _emit_json(
                {
                    "command": "enum",
                    "kind": kind,
                    "k": k,
                    "n": n,
                    "coefficients": poly.coeff_list(),
                    "text": poly.text("x"),
                }
            )
        if args.format == "csv":
            rows = [["degree", "coefficient"]]
            rows += [[d, c] for d, c in enumerate(poly.coeff_list())]
            return EXIT_OK, _emit_csv(rows)
        return EXIT_OK, poly.text("x") + "\n"
    if kind == "hpoly":
        poly = h_polynomial(k, n)
        if args.format == "json":
            return EXIT_OK, _emit_json(
                {
                    "command": "enum",
                    "kind": kind,
                    "k": k,
                    "n": n,
                    "coefficients": poly.coeff_list(),
                    "text": poly.text("t"),
                }
            )
        if args.format == "csv":
            rows = [["degree", "coefficient"]]
            rows += [[d, c] for d, c in enumerate(poly.coeff_list())]
            return EXIT_OK, _emit_csv(rows)
        return EXIT_OK, poly.text("t") + "\n"
    if kind == "hilbert":
        hs = hilbert_series(k, n)
        series = hs.series(SERIES_HEAD_TERMS)
        if args.format == "json":
            return EXIT_OK, _emit_json(
                {
                    "command": "enum",
                    "kind": kind,
                    "k": k,
                    "n": n,
                    "numerator_coefficients": hs.numerator.coeff_list(),
                    "pole_order": hs.pole_order,
                    "series_head": series,
                }
            )
        if args.format == "csv":
            rows = [["field", "index", "value"]]
            rows += [["numerator", d, c] for d, c in enumerate(hs.numerator.coeff_list())]
            rows.append(["pole_order", "", hs.pole_order])
            rows += [["series_head", d, v] for d, v in enumerate(series)]
            return EXIT_OK, _emit_csv(rows)
        head = " ".join(map(str, series))
        return EXIT_OK, hs.text("t") + f"\nseries_head={head}\n"
    if kind == "layers":
        layers = nonface_layers(k, n)
        if args.format == "json":
            return EXIT_OK, _emit_json(
                {
                    "command": "enum",
                    "kind": kind,
                    "k": k,
                    "n": n,
                    "r": layers.r,
                    "level_rminus1": [list(s) for s in layers.level_rminus1],
                    "level_r_by_j": [
                        [list(s) for s in group] for group in layers.level_r_by_j
                    ],
                }
            )
        if args.format == "csv":
            rows = [["level", "j", "set"]]
            rows += [["r-1", "", " ".join(map(str, s))] for s in layers.level_rminus1]
            for j, group in enumerate(layers.level_r_by_j):
                rows += [["r", j, " ".join(map(str, s))] for s in group]
            return EXIT_OK, _emit_csv(rows)
        return EXIT_OK, layers.to_text() + "\n"
    if kind == "profile":
        profile = q_profile_closed(k, n)
        if args.format == "json":
            return EXIT_OK, _emit_json(
                {
                    "command": "enum",
                    "kind": kind,
                    "k": k,
                    "n": n,
                    "counts": [
                        {"m": m, "q": profile.counts[m]} for m in range(k, n + 1)
                    ],
                }
            )
        if args.format == "csv":
            rows = [["m", "q"]]
            rows += [[m, profile.counts[m]] for m in range(k, n + 1)]
            return EXIT_OK, _emit_csv(rows)
        return EXIT_OK, profile.to_text() + "\n"
    raise ValueError(f"unknown enum kind {kind!r}")


def cmd_graph(args: argparse.Namespace) -> tuple[int, str]:
    try:
        with open(args.path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read graph file: {exc}") from None
    graph = parse_graph(text, scan="brute-force f-vector")
    if args.connectivity == "gap" and not is_squared_path(graph):
        raise ValueError("--connectivity gap is only valid for squared paths; use bfs")
    fv = f_vector_bruteforce(graph, args.k, method=args.method, connectivity=args.connectivity)
    profile = q_profile_bruteforce(graph, args.k, connectivity=args.connectivity)
    if args.format == "json":
        payload = {
            "command": "graph",
            "n": graph.n,
            "k": args.k,
            "edge_count": graph.edge_count,
            "f_vector": {
                "void": fv.is_void,
                "counts": None if fv.is_void else list(fv.counts),
            },
            "profile": [{"m": m, "q": profile.counts[m]} for m in sorted(profile.counts)],
        }
        return EXIT_OK, _emit_json(payload)
    if args.format == "csv":
        rows = [["section", "key", "value"]]
        rows.append(["meta", "n", graph.n])
        rows.append(["meta", "k", args.k])
        rows.append(["meta", "edge_count", graph.edge_count])
        rows.append(["f_vector", "void", "true" if fv.is_void else "false"])
        if not fv.is_void:
            rows += [["f_vector", p, c] for p, c in enumerate(fv.counts)]
        rows += [["profile", m, profile.counts[m]] for m in sorted(profile.counts)]
        return EXIT_OK, _emit_csv(rows)
    return EXIT_OK, "[f_vector]\n" + fv.to_text() + "\n[profile]\n" + profile.to_text() + "\n"


# -- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="text", help="output format")
    common.add_argument("--no-timing", action="store_true", help="suppress the elapsed-time footer")

    parser = argparse.ArgumentParser(
        prog="cutcx",
        description="Exact invariants of k-cut complexes of squared paths, with brute-force cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", parents=[common], help="top Betti numbers along diagonals")
    p_table.add_argument("--r-min", type=int, default=3)
    p_table.add_argument("--r-max", type=int, default=6)
    p_table.add_argument("--k-min", type=int, default=3)
    p_table.add_argument("--k-max", type=int, default=10)
    p_table.set_defaults(handler=cmd_table)

    p_verify = sub.add_parser("verify", parents=[common], help="run cross-route verification suites")
    p_verify.add_argument("--scope", choices=SCOPES, default="all")
    p_verify.add_argument("--n-max", type=int, default=10)
    p_verify.add_argument("--primes", default="2,3", help="comma-separated primes for homology")
    p_verify.add_argument("--seed-check", action="store_true", help="minimal fast suite")
    p_verify.set_defaults(handler=cmd_verify)

    p_enum = sub.add_parser("enum", parents=[common], help="enumerate a closed-form object")
    p_enum.add_argument("kind", choices=ENUM_KINDS)
    p_enum.add_argument("values", nargs="+", type=int, metavar="value",
                        help="k n for most kinds, r for genfun")
    p_enum.set_defaults(handler=cmd_enum)

    p_graph = sub.add_parser("graph", parents=[common], help="brute-force a graph from a file")
    p_graph.add_argument("path", help="file in the 'n <count>' / 'e <u> <v>' line format")
    p_graph.add_argument("--k", type=int, required=True)
    p_graph.add_argument("--connectivity", choices=("bfs", "gap"), default=None)
    p_graph.add_argument("--method", choices=("powerset", "complement"), default=None)
    p_graph.set_defaults(handler=cmd_graph)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code, output = args.handler(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(output)
    if not args.no_timing:
        sys.stdout.write(f"# elapsed {time.perf_counter() - start:.3f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
