"""Record bench/digests.json: the sha256 of every non-verify op's stdout.

    python3 bench/record_digests.py

Runs every op any seed can draw (workloads.universe) once, at the current
source tree, and stores the digest of each op's --no-timing stdout.  Run it
only at a commit whose outputs are known to be right: the benchmark counts
any later output that differs as a failed op.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    env = run.child_env()
    workloads.write_graphs(run.ROOT)
    digests: dict[str, str] = {}
    for workload in workloads.WORKLOADS:
        ops = [op for op in workloads.universe(workload) if op[0] != "verify"]
        if not ops:
            continue
        report = run.run_pass(ops, env)
        for op, r in zip(ops, report["ops"]):
            if r["code"] != 0:
                print(f"error: {' '.join(op)} exited {r['code']}", file=sys.stderr)
                return 1
            digests[" ".join(op)] = r["sha256"]
        print(f"{workload}: {len(ops)} ops in {report['wall_s']:.1f} s", file=sys.stderr)
    payload = {"source_sha256": run.source_digest(), "digests": dict(sorted(digests.items()))}
    run.DIGESTS.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {run.DIGESTS.relative_to(run.ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
