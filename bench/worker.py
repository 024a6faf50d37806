"""One pass of a workload's ops, in a fresh interpreter.

    python3 bench/worker.py [--trace SPANS_FILE]    # ops as a JSON list on stdin
    python3 bench/worker.py --setup-only

The parent puts the checkout's src/ on PYTHONPATH.  The worker imports
cutcx.cli, builds its parser and prints "ready" with the CPU seconds spent
so far, so the parent can time interpreter set-up.  It then reads the ops, calls cutcx.cli.main(argv) for
each with stdout captured, and prints one JSON line: pass wall and CPU
seconds, peak RSS, and per op the exit code, wall and CPU seconds, output
size, sha256 of the output and, for verify ops, the failed count the output
reports.  With --trace, bench/tracer.py wraps the layers for the pass and
the line also carries the per-layer metrics.
"""

import sys

if __name__ == "__main__":
    # Set-up ends here; nothing else is imported before this mark.
    import time

    import cutcx.cli

    cutcx.cli.build_parser()
    sys.stdout.write(f"ready {time.process_time()}\n")
    sys.stdout.flush()

import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

_TEXT_FAILED = re.compile(r"^checks=\d+ passed=\d+ failed=(\d+) ", re.MULTILINE)


def verify_failed(argv: list[str], out: str) -> int | None:
    """The failed-check count a verify op's output reports; None if unreadable."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    try:
        if fmt == "json":
            return int(json.loads(out)["failed"])
        if fmt == "csv":
            rows = list(csv.reader(io.StringIO(out)))[1:]
            return sum(1 for row in rows if row[1] != "pass") if rows else None
        found = _TEXT_FAILED.findall(out)
        return int(found[-1]) if found else None
    except (ValueError, KeyError, IndexError):
        return None


def run_pass(ops: list[list[str]]) -> dict:
    import cutcx.cli

    main = cutcx.cli.main
    outputs: list[tuple[int, float, float, str]] = []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for argv in ops:
        buf = io.StringIO()
        start, start_cpu = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(buf):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse refusals exit this way
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash fails this op, not the whole pass
                traceback.print_exc()
                code = -1
        outputs.append((code, time.perf_counter() - start, time.process_time() - start_cpu, buf.getvalue()))
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    results = []
    for argv, (code, seconds, cpu_seconds, out) in zip(ops, outputs):
        data = out.encode()
        results.append(
            {
                "code": code,
                "s": seconds,
                "cpu_s": cpu_seconds,
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
                "verify_failed": verify_failed(argv, out) if argv[0] == "verify" else None,
            }
        )
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "maxrss_kb": ru1.ru_maxrss,
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "ops": results,
    }


def main() -> int:
    args = sys.argv[1:]
    if args == ["--setup-only"]:
        return 0
    spans_file = None
    if args[:1] == ["--trace"] and len(args) == 2:
        spans_file = args[1]
    elif args:
        print(f"usage: {sys.argv[0]} [--trace SPANS_FILE | --setup-only]", file=sys.stderr)
        return 2
    ops = json.loads(sys.stdin.read())
    tracer = None
    if spans_file is not None:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    result = run_pass(ops)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        tracer.write_spans(spans_file)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
