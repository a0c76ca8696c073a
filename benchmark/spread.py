"""Run the benchmark on several seeds and summarise each metric.

Usage (from the repository root):

    python3 benchmark/spread.py --workload NAME [--workload NAME ...]
        [--seeds 1-10] [--trace 0|1] [--out FILE]

Runs ``benchmark/run.py`` once per seed, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``.  For every metric it prints the
median and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound.  ``--out`` writes the values, medians and spreads as
JSON, merged into the file if it exists.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
    return {"median": med, "spread": (q[2] - q[0]) / med if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    ok = True
    for name in args.workload:
        values = {}
        for seed in args.seeds:
            res = subprocess.run(
                [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(res.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            print(f"{name} seed {seed}: correct {result['correct']} "
                  f"attempted {result['attempted']} failed {result['failed']}", flush=True)
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
        summary[name] = {key: summarise(v) for key, v in values.items()}
        for key, s in summary[name].items():
            bound = bounds.get(key)
            print(f"  {name} {key:<38} median {s['median']:<12.6g} spread "
                  f"{s['spread']:.4f}" + (f" (bound {bound})" if bound else ""))
    if args.out:
        path = Path(args.out)
        old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        old.update(summary)
        path.write_text(json.dumps(old, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
