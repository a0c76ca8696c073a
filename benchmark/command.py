"""One renewalsim CLI command in a fresh single-threaded process.

Usage: python3 command.py --trace 0|1 -- CLI-ARGS...

Times the import of ``renewalsim`` (the set-up every CLI call pays) and the
call ``renewalsim.cli.main(CLI-ARGS)`` separately, and prints one JSON line
with both times, the exit code, the command's standard output, the peak
RSS of this process and, with ``--trace 1``, the spans and counters of the
call.  A fresh process per command keeps the samples independent: repeated
calls in one process warm the allocator (glibc raises its mmap threshold
after the first large free), so later calls would page-fault less than the
first and less than any real CLI call.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()
import renewalsim  # noqa: E402  (timed: the per-process set-up cost)
import renewalsim.cli  # noqa: E402

SETUP_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def peak_rss_mb() -> float:
    """High-water RSS of this program image.

    ``getrusage`` would report at least the RSS of the parent at fork time,
    which Linux carries across ``exec``; ``VmHWM`` belongs to this image only.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    out = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = renewalsim.cli.main(argv)
    except SystemExit as exc:  # argparse rejects a command line this way
        code = exc.code
    except Exception as exc:  # a crashing command is a failed operation
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()

    result = {
        "setup_s": SETUP_S,
        "seconds": seconds,
        "code": code,
        "error": error,
        "stdout": out.getvalue(),
        "peak_rss_mb": peak_rss_mb(),
        "renewalsim_file": renewalsim.__file__,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = dict(tracer.counters)
        result["evolve_distinct"] = len(tracer.evolve_keys)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
