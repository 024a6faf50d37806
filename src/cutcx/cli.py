"""Command line interface: reference tables, verification runs, enumerations.

Payloads are deterministic: identical invocations give identical bytes.
Timing appears only in a trailing '# elapsed' footer that --no-timing
suppresses.  Exit codes: 0 success, 1 verification failure (a closed
form failing its own post-check included), 2 usage error, 3 capacity
exceeded.

Each handler computes its result and returns (exit code, view).  A view
maps each format to a thunk building that format's value: a JSON-ready
object, CSV rows, or the text payload without its last newline.  This
module alone decides how a payload looks; the library returns values.

The parser is built once per process and reused by every main(argv) call:
parse_args leaves the parser unchanged and returns a fresh namespace, and
the handlers look library names up when they run.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from functools import cache
from typing import Any, Callable

from .complements import q_profile_bruteforce, q_profile_closed, z_count
from .complexes import FVector, face_enumerator_closed, nonface_layers
from .complexes import f_vector_bruteforce  # unused here; kept because bench/tracer.py wraps cli.f_vector_bruteforce
from .formulas import BettiTable, diagonal_genfun, h_polynomial, hilbert_series
from .graphs import CapacityError, parse_graph
from .homology import require_prime
from .verification import SCOPES, SEED_N_MAX, run_jobs, scope_jobs, seed_jobs

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

FORMATS = ("text", "json", "csv")
SERIES_HEAD_TERMS = 8

# Caps on the closed-form commands, checked before anything is computed.
# Past them the payload alone runs to megabytes and the time grows with
# it (`enum faceenum 2 20000` ran for over 20 s); at them each command
# takes under a second of CPU and prints at most about 3 MB.
ENUM_N_LIMIT = 1000  # n for every enum kind that takes k n
GENFUN_R_LIMIT = 200
LAYERS_SIZE_LIMIT = 250_000  # listed sets times n: each set costs O(n) to build and print
TABLE_K_LIMIT = 1000
TABLE_R_LIMIT = 100
TABLE_CELL_LIMIT = 2500

View = dict[str, Callable[[], Any]]


def _render(fmt: str, value: Any) -> str:
    if fmt == "json":
        return json.dumps(value, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(value)
        return buf.getvalue()
    return value + "\n"


def _parse_primes(raw: str) -> tuple[int, ...]:
    try:
        primes = tuple(int(p) for p in raw.split(",") if p.strip() != "")
    except ValueError:
        raise ValueError(f"--primes expects comma-separated integers, got {raw!r}") from None
    if not primes:
        raise ValueError("--primes needs at least one prime")
    return tuple(map(require_prime, primes))


# -- enum kinds: one view builder per payload shape --------------------------


def _poly_text(poly, var: str) -> str:
    """Integer polynomial in the form '1 + 7x + 18x^2 - 15x^3', ascending degree."""
    if poly.is_zero:
        return "0"
    parts: list[str] = []
    for d, c in enumerate(poly.coeffs):
        if c == 0:
            continue
        mag = -c if c < 0 else c
        if d == 0:
            body = str(mag)
        else:
            xpart = var if d == 1 else f"{var}^{d}"
            body = xpart if mag == 1 else f"{mag}{xpart}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _poly_view(poly, var: str) -> View:
    coeffs = poly.coeff_list()
    return {
        "json": lambda: {"coefficients": coeffs, "text": _poly_text(poly, var)},
        "csv": lambda: [["degree", "coefficient"], *enumerate(coeffs)],
        "text": lambda: _poly_text(poly, var),
    }


def _genfun_view(gf, var: str) -> View:
    numerator = gf.numerator.coeff_list()
    series = gf.series(SERIES_HEAD_TERMS)
    return {
        "json": lambda: {"numerator_coefficients": numerator, "pole_order": gf.pole_order, "series_head": series},
        "csv": lambda: [
            ["field", "index", "value"],
            *(["numerator", d, c] for d, c in enumerate(numerator)),
            ["pole_order", "", gf.pole_order],
            *(["series_head", d, v] for d, v in enumerate(series)),
        ],
        "text": lambda: "\n".join([
            f"numerator={_poly_text(gf.numerator, var)}",
            f"pole_order={gf.pole_order}",
            "series_head=" + " ".join(map(str, series)),
        ]),
    }


def _layers_view(layers) -> View:
    return {
        "json": lambda: {"r": layers.r, "level_rminus1": layers.level_rminus1, "level_r_by_j": layers.level_r_by_j},
        "csv": lambda: [
            ["level", "j", "set"],
            *(["r-1", "", " ".join(map(str, s))] for s in layers.level_rminus1),
            *(["r", j, " ".join(map(str, s))] for j, group in enumerate(layers.level_r_by_j) for s in group),
        ],
        "text": lambda: "\n".join([
            f"k={layers.k} n={layers.n} r={layers.r}",
            *(f"level=r-1 set={','.join(map(str, s))}" for s in layers.level_rminus1),
            *(f"level=r j={j} set={','.join(map(str, s))}"
              for j, group in enumerate(layers.level_r_by_j) for s in group),
        ]),
    }


def _profile_text(profile) -> str:
    return "\n".join([
        f"k={profile.k} n={profile.n}",
        *(f"m={m} q={profile.counts[m]}" for m in range(profile.k, profile.n + 1)),
    ])


def _profile_view(profile) -> View:
    return {
        "json": lambda: {"counts": [{"m": m, "q": q} for m, q in sorted(profile.counts.items())]},
        "csv": lambda: [["m", "q"], *sorted(profile.counts.items())],
        "text": lambda: _profile_text(profile),
    }


# kind -> (argument names, view builder).  The builders call the library
# functions through lambdas, so each call looks the name up in this module
# and a wrapper patched in here (bench/tracer.py does so) takes effect.
ENUM_KINDS: dict[str, tuple[tuple[str, ...], Callable[..., View]]] = {
    "faceenum": (("k", "n"), lambda k, n: _poly_view(face_enumerator_closed(k, n), "x")),
    "hpoly": (("k", "n"), lambda k, n: _poly_view(h_polynomial(k, n), "t")),
    "hilbert": (("k", "n"), lambda k, n: _genfun_view(hilbert_series(k, n), "t")),
    "genfun": (("r",), lambda r: _genfun_view(diagonal_genfun(r), "x")),
    "layers": (("k", "n"), lambda k, n: _layers_view(nonface_layers(k, n))),
    "profile": (("k", "n"), lambda k, n: _profile_view(q_profile_closed(k, n))),
}


def _require_enum_capacity(kind: str, values: list[int]) -> None:
    """Refuse an enum past its cap; arguments the builder rejects are left to it."""
    if kind == "genfun":
        (r,) = values
        if r > GENFUN_R_LIMIT:
            raise CapacityError(f"enum genfun r={r} exceeds the supported limit r <= {GENFUN_R_LIMIT}")
        return
    k, n = values
    if n > ENUM_N_LIMIT:
        raise CapacityError(f"enum {kind} n={n} exceeds the supported limit n <= {ENUM_N_LIMIT}")
    if kind == "layers" and 2 <= k <= n - 2:
        sets = n - k + z_count(k, n)  # r runs at level r-1, the connected k-sets' complements at level r
        if sets * n > LAYERS_SIZE_LIMIT:
            raise CapacityError(
                f"enum layers k={k} n={n} lists {sets} sets of 1..{n}; "
                f"the supported limit is sets * n <= {LAYERS_SIZE_LIMIT}"
            )


# -- subcommands -------------------------------------------------------------


def cmd_table(args: argparse.Namespace) -> tuple[int, View]:
    if not (2 <= args.r_min <= args.r_max and 2 <= args.k_min <= args.k_max):
        raise ValueError("table needs 2 <= r-min <= r-max and 2 <= k-min <= k-max")
    cells = (args.k_max - args.k_min + 1) * (args.r_max - args.r_min + 1)
    if args.k_max > TABLE_K_LIMIT or args.r_max > TABLE_R_LIMIT or cells > TABLE_CELL_LIMIT:
        raise CapacityError(
            f"table k-max={args.k_max} r-max={args.r_max} ({cells} cells) exceeds the supported limits "
            f"k-max <= {TABLE_K_LIMIT}, r-max <= {TABLE_R_LIMIT}, cells <= {TABLE_CELL_LIMIT}"
        )
    table = BettiTable.from_closed(
        range(args.k_min, args.k_max + 1), range(args.r_min, args.r_max + 1)
    )

    def rows() -> list[list[int]]:
        return [[r, *(table.value(k, r) for k in table.k_values)] for r in table.r_values]

    def csv_rows() -> list[list]:
        return [["r\\k", *table.k_values], *rows()]

    def grid() -> str:
        """The CSV's cells aligned: the r column to the left, each k column to the right."""
        text = [list(map(str, row)) for row in csv_rows()]
        widths = [max(map(len, column)) for column in zip(*text)]
        return "\n".join(
            row[0].ljust(widths[0]) + "".join("  " + c.rjust(w) for c, w in zip(row[1:], widths[1:]))
            for row in text
        )

    return EXIT_OK, {
        "json": lambda: {
            "command": "table",
            "provenance": table.provenance,
            "k_values": table.k_values,
            "r_values": table.r_values,
            "rows": [{"r": r, "values": values} for r, *values in rows()],
        },
        "csv": csv_rows,
        "text": grid,
    }


def cmd_verify(args: argparse.Namespace) -> tuple[int, View]:
    primes = _parse_primes(args.primes)
    if args.seed_check:
        scope, n_max = "seed-check", SEED_N_MAX
        jobs = seed_jobs(primes)
    else:
        scope, n_max = args.scope, args.n_max
        jobs = scope_jobs(scope, n_max, primes)
    checks = run_jobs(jobs)
    failed = sum(not c.ok for c in checks)
    passed = len(checks) - failed
    return EXIT_VERIFY if failed else EXIT_OK, {
        "json": lambda: {
            "command": "verify",
            "scope": scope,
            "n_max": n_max,
            "primes": primes,
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
            "passed": passed,
            "failed": failed,
        },
        "csv": lambda: [
            ["name", "ok", "detail"],
            *([c.name, "pass" if c.ok else "fail", c.detail] for c in checks),
        ],
        "text": lambda: "\n".join([
            *(f"PASS {c.name}" if c.ok else f"FAIL {c.name}: {c.detail}" for c in checks),
            f"checks={len(checks)} passed={passed} failed={failed}"
            f" scope={scope} n_max={n_max} primes={','.join(map(str, primes))}",
        ]),
    }


def cmd_enum(args: argparse.Namespace) -> tuple[int, View]:
    names, build = ENUM_KINDS[args.kind]
    if len(args.values) != len(names):
        raise ValueError(f"enum {args.kind} takes {len(names)} argument(s): {' '.join(names)}")
    _require_enum_capacity(args.kind, args.values)
    view = build(*args.values)
    head = {"command": "enum", "kind": args.kind, **dict(zip(names, args.values))}
    body = view["json"]
    return EXIT_OK, {**view, "json": lambda: {**head, **body()}}


def cmd_graph(args: argparse.Namespace) -> tuple[int, View]:
    try:
        with open(args.path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read graph file: {exc}") from None
    graph = parse_graph(text, scan="brute-force f-vector")
    profile = q_profile_bruteforce(graph, args.k)
    fv = FVector.from_profile(profile)
    meta = {"n": graph.n, "k": args.k, "edge_count": graph.edge_count}
    return EXIT_OK, {
        "json": lambda: {
            "command": "graph",
            **meta,
            "f_vector": {"void": fv.is_void, "counts": fv.counts},
            "profile": [{"m": m, "q": q} for m, q in sorted(profile.counts.items())],
        },
        "csv": lambda: [
            ["section", "key", "value"],
            *(["meta", key, value] for key, value in meta.items()),
            ["f_vector", "void", "true" if fv.is_void else "false"],
            *(["f_vector", p, c] for p, c in enumerate(fv.counts or ())),
            *(["profile", m, q] for m, q in sorted(profile.counts.items())),
        ],
        "text": lambda: "\n".join([
            "[f_vector]",
            f"k={fv.k} n={fv.n}",
            f"void={'true' if fv.is_void else 'false'}",
            *(f"p={p} f={c}" for p, c in enumerate(fv.counts or ())),
            "[profile]",
            _profile_text(profile),
        ]),
    }


# -- entry point -------------------------------------------------------------


@cache
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
    p_graph.add_argument("--method", choices=("powerset", "complement"), default=None,
                         help="ignored, kept for compatibility: face counts are always read off the bad-set profile")
    p_graph.set_defaults(handler=cmd_graph)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        code, view = args.handler(args)
        output = _render(args.format, view[args.format]())
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # a closed form failed its own post-check: "internal error: ..."
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    sys.stdout.write(output)
    if not args.no_timing:
        sys.stdout.write(f"# elapsed {time.perf_counter() - start:.3f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
