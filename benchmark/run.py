"""Benchmark of the renewalsim CLI: ``run`` -> ``verify`` -> ``distance``.

Usage (from the repository root):

    python3 benchmark/run.py --workload NAME|all --seed N --seconds S --trace 0|1

The seed generates the workload's scenario file; sizes are fixed and the
seed moves only values.  The benchmark is a closed loop with one client:
each cycle sends ``run``, ``verify``, ``distance a b`` and ``distance b a``
(a and b are the two snapshot files ``run`` wrote), each command in a fresh
single-threaded process (``command.py``), and checks every output.  A new
cycle starts only while the previous cycle's duration still fits in
``--seconds``, after at least one cycle.

With ``--trace 0`` the end-to-end metrics are reported: the median time of
each command and the median import time of ``renewalsim`` over all command
processes (``setup_s``), both quoted at nominal host speed (``hostspeed.py``;
the measured medians are printed next to them), and the largest peak RSS
among the command processes.  With
``--trace 1`` untraced and traced cycles alternate (at least one of each),
the per-layer metrics are medians over traced cycles, and the spans are
written to ``.bench_work/<workload>-seed<N>-trace1/spans.jsonl`` (one JSON
object per line; ``parent`` is the line number of the enclosing span, -1
at a command's root, and ``command`` numbers the CLI calls of the run).

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "RENEWAL_THREADS": "0"}
COMMAND_TIMEOUT = 150.0

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def child_env():
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def environment():
    """Commit (when the checkout is a git repository), source digest, versions."""
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "renewalsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "pinned_env": PINNED_ENV}


class Client:
    """The closed loop: one command at a time, every output checked."""

    def __init__(self, wl, work: Path):
        self.ini = str(work / "scenario.ini")
        self.out = work / "out"
        a, b = wl.snapshot_times
        self.snaps = (str(self.out / f"snapshot_{a:g}.csv"),
                      str(self.out / f"snapshot_{b:g}.csv"))
        self.refs = {"K": wl.sizes["K"], "samples": wl.sizes["samples"],
                     "lambda0": wl.lambda0, "const_births": wl.const_births}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.verify_fails = None
        self.commands = []      # every command result, in order
        self.host = []          # reference-work seconds, one before each command

    def command(self, argv, trace):
        self.attempted += 1
        ref = subprocess.run([sys.executable, str(HERE / "hostspeed.py")], env=child_env(),
                             cwd=ROOT, capture_output=True, text=True, check=True,
                             timeout=COMMAND_TIMEOUT)
        self.host.append(float(ref.stdout))
        res = subprocess.run(
            [sys.executable, str(HERE / "command.py"), "--trace", str(trace), "--", *argv],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=COMMAND_TIMEOUT,
        )
        if res.returncode != 0:
            raise RuntimeError(f"command process {argv[0]} exited with status "
                               f"{res.returncode}:\n{res.stderr}")
        out = json.loads(res.stdout.strip().splitlines()[-1])
        if Path(out["renewalsim_file"]).resolve().parent != (SRC / "renewalsim").resolve():
            raise RuntimeError(f"renewalsim imported from {out['renewalsim_file']}")
        out["name"] = argv[0]
        out["traced"] = bool(trace)
        self.commands.append(out)
        return out

    def _fail(self, what, errors):
        self.failed += 1
        self.errors.extend(f"{what}: {e}" for e in errors)

    def cycle(self, trace):
        """run -> verify -> distance a b -> distance b a; returns the commands."""
        first = len(self.commands)
        res = self.command(["run", "--scenario", self.ini, "--out", str(self.out)], trace)
        errs = [res["error"]] if res["error"] else (
            [] if res["code"] == 0 else [f"exit code {res['code']}"])
        if not errs:
            errs = checks.check_run(self.out, self.refs)
        if errs:
            self._fail("run", errs)
            return self.commands[first:]

        res = self.command(["verify", "--scenario", self.ini], trace)
        fails, errs = checks.check_verify(res["stdout"], res["code"])
        if res["error"]:
            errs.append(res["error"])
        if errs:
            self._fail("verify", errs)
        else:
            self.verify_fails = fails

        values = []
        for pair in (self.snaps, self.snaps[::-1]):
            res = self.command(["distance", *pair], trace)
            try:
                values.append(float(res["stdout"].strip()))
            except ValueError:
                self._fail("distance", [res["error"] or f"exit code {res['code']}"])
                return self.commands[first:]
        errs = checks.check_distance(values[0], values[1], *self.snaps)
        if errs:
            self._fail("distance", errs)
        return self.commands[first:]


def layer_metrics(cycle) -> dict:
    """Per-layer metrics of one traced cycle (its command results)."""
    out = {}
    for cmd in cycle:
        for name, sec in spans.self_times(cmd["spans"]).items():
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + sec
        for key, val in cmd["counters"].items():
            out[key] = out.get(key, 0.0) + val
        span = f"cli.{cmd['name']}.span_s"
        out[span] = out.get(span, 0.0) + cmd["seconds"]
    distinct = sum(cmd["evolve_distinct"] for cmd in cycle)
    calls = out.get("transport.evolve.calls", 0)
    out["transport.evolve.distinct_frac"] = distinct / calls if calls else 0.0
    return out


def run_workload(name, seed, seconds, trace):
    wl = workloads.generate(name, seed)
    work = WORK / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "scenario.ini").write_text(wl.ini, encoding="ascii")

    client = Client(wl, work)
    walls = {False: [], True: []}
    layers = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    n = 0
    while n < (2 if trace else 1) or time.perf_counter() + last <= deadline:
        traced = bool(trace and n % 2 == 1)
        start = time.perf_counter()
        cycle = client.cycle(int(traced))
        last = time.perf_counter() - start
        walls[traced].append(sum(c["seconds"] for c in cycle))
        if traced:
            layers.append(layer_metrics(cycle))
        n += 1

    plain = [c for c in client.commands if not c["traced"]]
    result = {
        "samples": {f"{cmd}_s": [c["seconds"] for c in plain if c["name"] == cmd]
                    for cmd in ("run", "verify", "distance")},
        "setup_samples": [c["setup_s"] for c in plain],
        "peak_rss_mb": max(c["peak_rss_mb"] for c in plain),
        "host_samples": client.host,
        "cycles": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "attempted": client.attempted, "failed": client.failed,
        "errors": client.errors[:20], "verify_fails": client.verify_fails,
    }
    if trace:
        keys = sorted({k for m in layers for k in m})
        per_layer = {k: statistics.median(m.get(k, 0.0) for m in layers) for k in keys}
        base = statistics.median(walls[False])
        per_layer["trace.overhead_frac"] = (statistics.median(walls[True]) - base) / base
        per_layer["cli.verify.checks_failed"] = client.verify_fails or 0
        per_layer["host.reference_s"] = statistics.median(client.host)
        result["per_layer"] = per_layer
        with open(work / "spans.jsonl", "w", encoding="ascii") as fh:
            line = 0  # parents become line numbers of this file
            for cid, cmd in enumerate(client.commands):
                first = line
                for name, start, end, parent in cmd.get("spans", ()):
                    fh.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": first + parent if parent >= 0 else -1,
                                         "command": cid}) + "\n")
                    line += 1
    shutil.rmtree(work / "out", ignore_errors=True)
    return wl, result


def report(name, seed, trace, wl, out, bench, env, layer_map):
    """Print the human-readable table; return this workload's metrics dict."""
    sizes = " ".join(f"{k}={v}" for k, v in wl.sizes.items())
    print(f"workload {name} seed {seed} trace {trace}: {sizes}")
    print(f"  values {json.dumps(wl.params)} atoms {list(wl.atoms)}")
    print(f"  env {json.dumps(env)}")
    print(f"  commands attempted {out['attempted']} failed {out['failed']}; "
          f"cycles {out['cycles']}; verify FAIL lines {out['verify_fails']}")
    for err in out["errors"]:
        print(f"  error: {err}")
    metrics = {}
    if trace:
        for m in bench["per_layer"]:
            v = out["per_layer"].get(m["name"], 0.0)
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
            print(f"  {m['name']:<38} {v:>13.6g} {m['unit']:<5} "
                  f"moves: {layer_map.get(m['name'], '-')}")
    else:
        # times are quoted at nominal host speed; see hostspeed.py
        factor = hostspeed.scale(out["host_samples"])
        samples = {**out["samples"], "setup_s": out["setup_samples"]}
        for m in bench["end_to_end"]:
            name = m["name"]
            if name == "peak_rss_mb":
                v, how = out["peak_rss_mb"], f"max of {len(out['setup_samples'])}"
            else:
                # a command that never ran leaves 0.0; the run then has failed commands
                raw = statistics.median(samples[name]) if samples[name] else 0.0
                v = raw * factor
                how = f"median of {len(samples[name])}, measured {raw:.6g} s"
            metrics[name] = {"value": v, "unit": m["unit"]}
            print(f"  {name:<12} {v:>12.6g} {m['unit']:<3} {how} [{sizes}]")
        print(f"  host reference work: median {statistics.median(out['host_samples']):.6g} s "
              f"of {len(out['host_samples'])}, nominal {hostspeed.NOMINAL_S} s, "
              f"factor {factor:.4f}")
        for k, v in samples.items():
            print(f"  samples {k}: {' '.join(f'{x:.4g}' for x in v)}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "renewalsim" / "__init__.py").is_file():
        print(f"benchmark: no program source at {SRC / 'renewalsim'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(HERE / "layers.json", encoding="utf-8") as fh:
        layer_map = json.load(fh)["moves"]
    env = environment()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        wl, out = run_workload(name, args.seed, args.seconds, args.trace)
        metrics = report(name, args.seed, args.trace, wl, out, bench, env, layer_map)
        prefix = f"{name}." if args.workload == "all" else ""
        result["metrics"].update({prefix + k: v for k, v in metrics.items()})
        result["attempted"] += out["attempted"]
        result["failed"] += out["failed"]
        result["correct"] = result["correct"] and out["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
