"""Seeded scenario generator for the benchmark workloads.

Every workload has fixed sizes (step count K, node count, atom count,
sample count); the seed moves only values: atom locations and weights on
grid nodes and the parameters of the initial density.  The program under
test receives nothing but the generated ``.ini`` text.

Each generated workload also carries the reference constants its output
checks need, computed here without the code under test: the growth rate
from a scipy root of the Euler-Lotka equation and, for the constant law,
the exact trapezoid mass of the initial datum.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("trace-atoms", "sweep-dense", "table-law")


@dataclass(frozen=True)
class Workload:
    name: str
    ini: str                  # scenario file text, the program's only input
    sizes: dict               # fixed by the workload, independent of the seed
    atoms: tuple              # ((loc, weight), ...)
    snapshot_times: tuple
    lambda0: float            # scipy root of the Euler-Lotka equation
    const_births: float | None = None   # exact b for a constant law
    params: dict = field(default_factory=dict)


def _node(i: int, h: float) -> str:
    return f"{i * h:.12g}"


def _grid_atoms(rng: random.Random, count: int, h: float, lo: float, hi: float,
                wlo: float, whi: float):
    """``count`` distinct atoms on grid nodes in [lo, hi] with uniform weights."""
    idx = rng.sample(range(math.ceil(lo / h - 1e-9), math.floor(hi / h + 1e-9) + 1),
                     count)
    return tuple((float(_node(i, h)), round(rng.uniform(wlo, whi), 6))
                 for i in sorted(idx))


def _ini(law: str, initial: str, atoms, h, dt, T, x_max, snaps, sample_dt) -> str:
    atom_txt = " ".join(f"{loc:.12g}:{wt:.12g}" for loc, wt in atoms)
    return (
        f"[birth_law]\n{law}\n\n"
        f"[initial_measure]\n{initial}\natoms = {atom_txt}\n\n"
        f"[numerics]\nh = {h}\ndt = {dt}\nT = {T}\nx_max = {x_max}\n\n"
        "[diagnostics]\nintegrands = abs sqrt1p pospart\neta = phi one\n"
        f"snapshot_times = {' '.join(f'{s:g}' for s in snaps)}\n"
        f"eps_list = 0.4 0.2 0.1 0.05\nsample_dt = {sample_dt}\n\n"
        "[outputs]\ndirectory = out\n"
    )


def euler_lotka_root(law: dict) -> float:
    """Growth rate from scipy: root of integral B(x) exp(-lam x) dx = 1."""
    from scipy.integrate import quad
    from scipy.optimize import brentq

    if law["kind"] == "constant":
        return float(law["beta"])  # beta / lam = 1
    if law["kind"] == "indicator":
        beta, a, b = law["beta"], law["a"], law["b"]

        def laplace(lam):
            return quad(lambda x: beta * math.exp(-lam * x), a, b,
                        epsabs=1e-15, epsrel=1e-13)[0]
    else:
        xs, vals = law["x"], law["values"]

        def laplace(lam):
            return sum(
                quad(lambda x: np.interp(x, xs, vals) * math.exp(-lam * x), p, q,
                     epsabs=1e-15, epsrel=1e-13)[0]
                for p, q in zip(xs[:-1], xs[1:])
            )
    return float(brentq(lambda lam: laplace(lam) - 1.0, 1e-6, 50.0, xtol=1e-15,
                        rtol=4 * np.finfo(float).eps))


def _trace_atoms(rng: random.Random) -> Workload:
    h = dt = 0.00025
    T, x_max = 10.0, 12.0
    lo_i = rng.randint(0, 2000)                      # lo in [0, 0.5]
    hi_i = rng.randint(lo_i + 2000, 8000)            # hi in [lo + 0.5, 2]
    mass = round(rng.uniform(0.5, 1.5), 6)
    atoms = _grid_atoms(rng, 3, h, 0.05, 0.95, 0.1, 0.6)
    law = {"kind": "indicator", "beta": 2.0, "a": 0.0, "b": 1.0}
    ini = _ini(
        "kind = indicator\nbeta = 2.0\na = 0.0\nb = 1.0",
        f"density = uniform\nlo = {_node(lo_i, h)}\nhi = {_node(hi_i, h)}\n"
        f"mass = {mass}",
        atoms, h, dt, T, x_max, (5.0, 10.0), 0.5,
    )
    sizes = {"K": 40000, "nodes": 48001, "atoms": 3, "samples": 21, "snapshots": 2}
    return Workload("trace-atoms", ini, sizes, atoms, (5.0, 10.0),
                    euler_lotka_root(law),
                    params={"lo": float(_node(lo_i, h)), "hi": float(_node(hi_i, h)),
                            "mass": mass})


def _sweep_dense(rng: random.Random) -> Workload:
    h, dt = 0.005, 0.001
    T, x_max = 10.0, 40.0
    rate = round(rng.uniform(0.5, 2.0), 6)
    mass = round(rng.uniform(0.5, 1.5), 6)
    atoms = _grid_atoms(rng, 2, h, 0.05, 2.0, 0.1, 0.6)
    law = {"kind": "constant", "beta": 1.0}
    ini = _ini(
        "kind = constant\nbeta = 1.0",
        f"density = exponential\nrate = {rate}\nmass = {mass}",
        atoms, h, dt, T, x_max, (5.0, 10.0), 0.025,
    )
    xs = np.arange(int(round(x_max / h)) + 1) * h
    trap = float(np.trapezoid(mass * rate * np.exp(-rate * xs), dx=h))
    b_const = law["beta"] * (trap + sum(w for _, w in atoms))
    sizes = {"K": 10000, "nodes": 8001, "atoms": 2, "samples": 401, "snapshots": 2}
    return Workload("sweep-dense", ini, sizes, atoms, (5.0, 10.0),
                    euler_lotka_root(law), const_births=b_const,
                    params={"rate": rate, "mass": mass})


def _table_law(rng: random.Random) -> Workload:
    h = dt = 0.0005
    T, x_max = 4.0, 6.0
    center = round(rng.uniform(0.3, 1.2), 6)
    width = round(rng.uniform(0.1, 0.3), 6)
    mass = round(rng.uniform(0.5, 1.5), 6)
    atoms = _grid_atoms(rng, 1, h, 0.05, 1.5, 0.1, 0.6)
    law = {"kind": "table", "x": [0.0, 0.5, 1.0, 1.5], "values": [1.0, 3.0, 2.0, 0.0]}
    ini = _ini(
        "kind = table\nx = 0 0.5 1 1.5\nvalues = 1 3 2 0",
        f"density = gaussian-bump\ncenter = {center}\nwidth = {width}\nmass = {mass}",
        atoms, h, dt, T, x_max, (2.0, 4.0), 0.05,
    )
    sizes = {"K": 8000, "nodes": 12001, "atoms": 1, "samples": 81, "snapshots": 2}
    return Workload("table-law", ini, sizes, atoms, (2.0, 4.0),
                    euler_lotka_root(law),
                    params={"center": center, "width": width, "mass": mass})


_BUILDERS = {"trace-atoms": _trace_atoms, "sweep-dense": _sweep_dense,
             "table-law": _table_law}


def generate(name: str, seed: int) -> Workload:
    """The workload ``name`` with values drawn from ``seed``."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return _BUILDERS[name](random.Random(f"{name}:{seed}"))
