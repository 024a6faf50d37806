"""Seeded op lists for the four benchmark workloads.

A workload is a list of slots.  A slot is one op with a candidate for each
output format; the seed picks a format per slot and then shuffles the
order.  The ops therefore differ from seed to seed while the work in one
pass barely moves, which keeps medians comparable across seeds (drawing
sizes or graphs per seed moved single ops by up to a third).  All the
candidates together form a finite universe whose outputs are recorded once
in digests.json, so every op of every seed has a known right answer.

An op is a tuple of argv strings for ``cutcx.cli.main``.  Graph ops name a
file under ``bench/work/graphs``; the files are written by ``write_graphs``
from a fixed pool seed, so a file's content depends only on its name.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

WORKLOADS = ("closed", "scan", "homology", "graph")
FORMATS = ("text", "json", "csv")

GRAPH_DIR = "bench/work/graphs"  # relative to the checkout root, where ops run


def _op(*argv: object, fmt: str) -> tuple[str, ...]:
    return tuple(str(a) for a in argv) + ("--format", fmt, "--no-timing")


def _formats(*argv: object) -> list[tuple[str, ...]]:
    """A slot: one op, with a candidate for each output format."""
    return [_op(*argv, fmt=f) for f in FORMATS]


# -- closed: closed-form arithmetic, many small ops and a few cubic ones ------


def closed_slots() -> list[list[tuple[str, ...]]]:
    # verify scopes that touch only closed forms; --n-max only sizes the
    # hilbert series checks, and "hilbert closed n=4..40" dominates.
    slots = [_formats("verify", "--scope", "hilbert", "--n-max", 5)]
    for n_max in (4, 6):
        slots.append(_formats("verify", "--scope", "recurrence", "--n-max", n_max))
        slots.append(_formats("verify", "--scope", "genfun", "--n-max", n_max))
    # The cubic repeated-power ops that set the tail.
    slots.append(_formats("enum", "hpoly", 3, 150))
    slots.append(_formats("enum", "hilbert", 4, 100))
    slots += [_formats("enum", "hpoly", 2 + j % 6, 60 + 4 * j) for j in range(8)]
    slots += [_formats("enum", "hilbert", 3 + j % 5, 55 + 5 * j) for j in range(6)]
    slots += [_formats("enum", "genfun", 22 + 3 * j) for j in range(6)]
    # Small ops: their latency is mostly argument parsing and rendering.
    slots += [_formats("enum", "hpoly", 2 + j % 9, 8 + 2 * j) for j in range(10)]
    slots += [_formats("enum", "hilbert", 2 + j, 10 + 3 * j) for j in range(5)]
    slots += [_formats("enum", "genfun", 3 + j) for j in range(5)]
    slots += [_formats("enum", "faceenum", 2 + j % 12, 20 + 6 * j) for j in range(30)]
    slots += [_formats("enum", "profile", 2 + j % 15, 20 + 4 * j) for j in range(30)]
    slots += [
        _formats("table", "--k-min", 2 + j % 4, "--k-max", 8 + j % 7, "--r-min", 3, "--r-max", 5 + j % 5)
        for j in range(20)
    ]
    return slots


# -- scan: brute-force face and bad-set scans on squared paths ----------------


def scan_slots() -> list[list[tuple[str, ...]]]:
    slots: list[list[tuple[str, ...]]] = []
    # Four equal fvector n=11 ops sit where p90 falls, so it stays on one cost.
    for scope, n_max, count in (
        ("fvector", 13, 1),
        ("fvector", 12, 2),
        ("fvector", 11, 4),
        ("profile", 13, 1),
        ("profile", 12, 2),
        ("profile", 11, 2),
    ):
        for _ in range(count):
            slots.append(_formats("verify", "--scope", scope, "--n-max", n_max))
    # Twelve equal layers ops sit where p50 falls.
    layers = [(3 + j % 3, 7 + j % 4) for j in range(15)] + [(6, 12)] * 12 + [(7, 15), (8, 15), (8, 16)]
    slots += [_formats("enum", "layers", k, n) for k, n in layers]
    return slots


# -- homology: chain build, boundary check and rank per prime -----------------


def homology_slots() -> list[list[tuple[str, ...]]]:
    # GF(3) at n=12 sets the peak RSS; GF(2)-only ops stay so that a unified
    # eliminator that slows GF(2) shows.  Groups of equal ops sit where p50
    # (n=7 over both primes) and p90 (n=10 over GF(3)) fall, so that each
    # quantile stays on one cost instead of jumping between two.
    heavy = [(12, "3"), (11, "2")] + [(10, "2,3"), (10, "3,2")] * 3
    small = [(5, p) for p in ("2", "3", "2,3", "3,2")]
    small += [(6, p) for p in ("2", "3", "2,3", "3,2", "2", "3", "2,3", "3,2", "2")]
    small += [(7, p) for p in ("2,3", "3,2") * 5]
    small += [(8, p) for p in ("2", "3", "2,3", "3,2")]
    small += [(9, p) for p in ("2", "3", "2,3")]
    return [
        _formats("verify", "--scope", "homology", "--n-max", n_max, "--primes", primes)
        for n_max, primes in heavy + small
    ]


# -- graph: random graphs that are not squared paths (bfs engine) -------------

# (slots, n, edge density, k, method).  Each slot has its own random graph
# and draws only the output format: relabeling or redrawing the graph moved
# an op's cost by up to a third, and the per-pass cost with it.  The n=12
# stratum holds the middle third of the ops and the n=14 one the ranks
# around p90, so that each quantile falls among ops of one kind.
GRAPH_STRATA = (
    (4, 10, 0.2, 3, "powerset"),
    (4, 10, 0.35, 4, "complement"),
    (4, 10, 0.5, 5, "powerset"),
    (12, 12, 0.35, 4, "powerset"),
    (4, 13, 0.3, 3, "powerset"),
    (5, 14, 0.25, 3, "powerset"),
    (1, 16, 0.2, 3, "complement"),
)


def graph_edges(name: str, n: int, density: float) -> list[tuple[int, int]]:
    """Edges of a G(n, m) random graph, m = round(density * C(n,2)), never a squared path."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    square = {(i, i + 1) for i in range(1, n)} | {(i, i + 2) for i in range(1, n - 1)}
    rng = random.Random(f"cutcx-graph-pool/{name}")
    while True:
        edges = sorted(rng.sample(pairs, round(density * len(pairs))))
        if set(edges) != square:
            return edges


def graph_specs() -> list[tuple[str, int, float, int, str]]:
    """(file name, n, density, k, method) for every graph in the pool, one per slot."""
    specs = []
    for count, n, density, k, method in GRAPH_STRATA:
        for _ in range(count):
            specs.append((f"s{len(specs):02d}.txt", n, density, k, method))
    return specs


def graph_slots() -> list[list[tuple[str, ...]]]:
    return [
        _formats("graph", f"{GRAPH_DIR}/{name}", "--k", k, "--method", method)
        for name, _n, _density, k, method in graph_specs()
    ]


def write_graphs(root: Path) -> list[Path]:
    """Write the graph pool under root/bench/work/graphs; returns the file paths."""
    out = root / GRAPH_DIR
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, n, density, _k, _method in graph_specs():
        body = f"n {n}\n" + "".join(f"e {u} {v}\n" for u, v in graph_edges(name, n, density))
        path = out / name
        if not path.exists() or path.read_text() != body:
            path.write_text(body)
        paths.append(path)
    return paths


SLOTS = {
    "closed": closed_slots,
    "scan": scan_slots,
    "homology": homology_slots,
    "graph": graph_slots,
}


def universe(workload: str) -> list[tuple[str, ...]]:
    """Every op any seed can draw for the workload."""
    return [op for slot in SLOTS[workload]() for op in slot]


def ops_for(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The op list of one pass: one format per slot, in seeded order.

    Formats are dealt like cards, so every three consecutive slots get one
    op in each format: the format mix, and with it the op-latency
    quantiles, is the same for every seed.
    """
    rng = random.Random(f"{workload}/{seed}")
    ops: list[tuple[str, ...]] = []
    deck: list[int] = []
    for slot in SLOTS[workload]():
        if not deck:
            deck = list(range(len(slot)))
            rng.shuffle(deck)
        ops.append(slot[deck.pop()])
    rng.shuffle(ops)
    return ops
