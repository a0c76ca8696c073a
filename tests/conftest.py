import time

import numpy as np
import pytest

import renewalsim as rs


@pytest.fixture(scope="session")
def const_spectral():
    """Constant unit birth rate and its eigendata (growth rate exactly 1)."""
    B = rs.BirthLaw.constant(1.0)
    return B, rs.solve_spectral(B)


@pytest.fixture(scope="session")
def ind_spectral():
    """Indicator birth rate 2 on [0, 1] and its eigendata."""
    B = rs.BirthLaw.indicator(2.0, 0.0, 1.0)
    return B, rs.solve_spectral(B)


@pytest.fixture(scope="session")
def dirac_benchmark(const_spectral):
    """The pinned benchmark run: unit rate, point mass at 0.5.

    Returns (trajectory, wall seconds spent building the birth trace).
    """
    B, sp = const_spectral
    n0 = rs.HybridMeasure.point_mass(0.5, 40.0, 0.005)
    start = time.perf_counter()
    traj = rs.birth_series(n0, B, sp, 0.001, 10.0)
    elapsed = time.perf_counter() - start
    return traj, elapsed


def _uniform_block(x_max, h, lo, hi, mass):
    n = int(round(x_max / h)) + 1
    xs = np.arange(n) * h
    c = mass / (hi - lo)
    dens = np.where((xs > lo) & (xs < hi), c, 0.0)
    dens[np.abs(xs - lo) <= 1e-12] = c if lo == 0.0 else c / 2.0
    dens[np.abs(xs - hi) <= 1e-12] = c / 2.0
    return rs.HybridMeasure(h, dens, nonnegative=True)


@pytest.fixture(scope="session")
def acceptance_trajectories(const_spectral, ind_spectral):
    """The four scenarios of the acceptance suite, each run to T = 10.

    Returns (name, birth law, spectral data, trajectory) tuples.
    """
    Bc, spc = const_spectral
    Bi, spi = ind_spectral
    exponential = rs.HybridMeasure.from_function(
        lambda x: 0.5 * np.exp(-x), 40.0, 0.001, nonnegative=True)
    cases = [
        ("constant/dirac", Bc, spc,
         rs.HybridMeasure.point_mass(0.5, 40.0, 0.001), 0.001),
        ("constant/mixed", Bc, spc,
         rs.HybridMeasure(0.001, exponential.density,
                          ((0.5, 0.6), (1.5, 0.4)), nonnegative=True), 0.001),
        ("indicator/dirac", Bi, spi,
         rs.HybridMeasure.point_mass(0.25, 12.0, 0.00025), 0.00025),
        ("indicator/uniform", Bi, spi,
         _uniform_block(12.0, 0.00025, 0.0, 2.0, 1.0), 0.00025),
    ]
    return [(name, B, sp, rs.birth_series(n0, B, sp, dt, 10.0))
            for name, B, sp, n0, dt in cases]
