"""Span tracer that wraps renewalsim's public functions from outside.

Nothing inside the package is instrumented.  ``Tracer.install`` replaces
each public function with a timing wrapper in every module namespace that
holds it (``cli`` and ``convergence`` import names with ``from .x import
y``, so patching the defining module alone would miss those call sites),
wraps ``BirthLaw.birth_forcing``, and counts the points evaluated by the
``SpectralData.phi`` / ``N`` closures.  ``uninstall`` restores everything.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
enclosing span, -1 at the root.  One tracer serves one CLI command in one
process; the caller tags the spans with the command's id and writes them
out.  The tracer assumes a single thread, which the benchmark pins.
"""
from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict

import numpy as np

MODULES = ("measures", "spectral", "transport", "entropy", "convergence",
           "scenarios", "quadrature")
CLI_SPANS = {"main": "cli.main", "cmd_run": "cli.run", "cmd_verify": "cli.verify",
             "cmd_distance": "cli.distance", "cmd_spectral": "cli.spectral"}


def self_times(spans) -> dict:
    """Sum per span name of its duration minus what its children cover.

    Children of one span may overlap each other, so the covered part is the
    length of the union of their intervals clipped to the parent.
    """
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out[name] += (end - start) - covered
    return dict(out)


def _snapshot_points(mu) -> np.ndarray:
    return np.concatenate([mu.nodes, [loc for loc, _ in mu.atoms]])


def _birth_series_counts(c, args, kwargs, traj):
    K = traj.births.size - 1
    c["transport.birth_series.steps"] += K
    # steps k >= 3 whose history (0, k) holds a trace jump take the split path
    jumps = [j for j, _ in traj.birth_jumps]
    if jumps:
        c["transport.birth_series.jump_steps"] += max(0, K - max(2, min(jumps)))


def _evolve_counts(tracer, c, args, kwargs, snap):
    c["transport.evolve.nodes"] += snap.node_count
    traj, t = args[0], args[1] if len(args) > 1 else kwargs["t"]
    tracer.evolve_keys.add(int(round(t / traj.dt)))


def _forcing_counts(c, args, kwargs, out):
    c["spectral.birth_forcing.evals"] += np.size(out)


def _flat_counts(c, args, kwargs, out):
    mu, nu = args[0], args[1]
    pts = np.union1d(_snapshot_points(mu), _snapshot_points(nu))
    c["measures.flat_distance.points"] += pts.size


def _file_bytes(key, pos):
    def count(c, args, kwargs, out):
        path = args[pos] if len(args) > pos else kwargs["path"]
        c[key] += os.path.getsize(path)
    return count


class Tracer:
    """Records spans and counters for the calls made between install/uninstall."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.evolve_keys = set()
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span ``name`` and the counts ``count`` derives."""
        spans, stack, counters = self.spans, self._stack, self.counters
        calls = name + ".calls"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            counters[calls] += 1
            if count is not None:
                count(counters, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count_points(self, key, fn):
        counters = self.counters

        def counted(x):
            counters[key] += np.size(x)
            return fn(x)

        return counted

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, modules, original, new):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self):
        pkg = importlib.import_module("renewalsim")
        cli = importlib.import_module("renewalsim.cli")
        mods = {m: importlib.import_module(f"renewalsim.{m}") for m in MODULES}
        namespaces = [pkg, cli, *mods.values()]
        spectral, transport, measures = (mods["spectral"], mods["transport"],
                                         mods["measures"])
        counts = {
            transport.birth_series: _birth_series_counts,
            transport.evolve: lambda c, a, k, o: _evolve_counts(self, c, a, k, o),
            measures.flat_distance: _flat_counts,
            measures.read_snapshot: _file_bytes("measures.read_snapshot.bytes", 0),
            measures.write_snapshot: _file_bytes("measures.write_snapshot.bytes", 1),
        }
        eigen_N, eigen_phi = spectral.eigen_N, spectral.eigen_phi

        for short, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    new = self.wrap(f"{short}.{attr}", fn, counts.get(fn))
                    self._replace_everywhere(namespaces, fn, new)
        for attr, name in CLI_SPANS.items():
            self._patch(cli, attr, self.wrap(name, getattr(cli, attr)))
        self._patch(spectral.BirthLaw, "birth_forcing",
                    self.wrap("spectral.birth_forcing",
                              spectral.BirthLaw.birth_forcing, _forcing_counts))

        def counted_N(lambda0):
            return self._count_points("spectral.N.points", eigen_N(lambda0))

        def counted_phi(B, lambda0):
            phi, phi0 = eigen_phi(B, lambda0)
            return self._count_points("spectral.phi.points", phi), phi0

        # solve_spectral looks the factories up in its own module globals
        self._patch(spectral, "eigen_N", counted_N)
        self._patch(spectral, "eigen_phi", counted_phi)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)
