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


@pytest.fixture(scope="session")
def sweep_cases(const_spectral, ind_spectral):
    """Trajectories and sample times the diagnostic sweep is checked on.

    Returns a dict name -> (trajectory, sample times).  Each case stresses
    one part of the snapshot layout: rate-panel kinks with atoms, birth
    trace jumps, a signed datum, two snapshot grids, the datum's own jump
    records, and an atom that leaves the domain mid-sweep.
    """
    Bc, spc = const_spectral
    Bi, spi = ind_spectral
    cases = {}

    Bt = rs.BirthLaw.table([0.0, 0.5, 1.0, 1.5], [1.0, 3.0, 2.0, 0.5])
    spt = rs.solve_spectral(Bt)
    n0 = rs.HybridMeasure.from_function(
        lambda x: np.exp(-((x - 0.7) / 0.2) ** 2), 6.0, 0.002,
        atoms=((0.9, 0.3), (1.2, 0.1)), nonnegative=True)
    cases["table_law"] = (rs.birth_series(n0, Bt, spt, 0.002, 4.0),
                          np.arange(0.0, 4.01, 0.25))

    # atoms crossing the rate jump at age 1 make the birth trace jump
    n0 = rs.HybridMeasure(0.01, np.full(1201, 0.2), ((0.25, 0.5), (0.6, 0.3)),
                          nonnegative=True)
    cases["trace_jumps"] = (rs.birth_series(n0, Bi, spi, 0.01, 3.0),
                            np.arange(0.0, 3.01, 0.1))

    n0 = rs.HybridMeasure.from_function(
        lambda x: np.sin(3.0 * x) * np.exp(-x), 12.0, 0.005,
        atoms=((0.3, -0.4), (0.55, 0.2)))
    cases["signed"] = (rs.birth_series(n0, Bi, spi, 0.005, 4.0),
                       np.arange(0.0, 4.01, 0.2))

    # an even number of steps keeps the datum's spacing, an odd one needs half of it
    n0 = rs.HybridMeasure.from_function(lambda x: np.exp(-x), 20.0, 0.05,
                                        atoms=((0.5, 1.0),), nonnegative=True)
    cases["two_grids"] = (rs.birth_series(n0, Bc, spc, 0.025, 2.0),
                          (0.0, 0.275, 0.5, 0.775, 1.0, 1.525, 1.75))

    # jump records at x = 0 and inside, seen on the datum's grid and on half of it
    # (the last reaches x_max at t = 1.5)
    xs = np.arange(601) * 0.02
    dens = np.where(xs < 1.5, 0.6, np.where(xs < 10.5, 0.25, 0.1))
    n0 = rs.HybridMeasure(0.02, dens, ((0.4, 0.2),),
                          ((0.0, 0.0, 0.9), (1.5, 0.6, 0.25), (10.5, 0.25, 0.1)),
                          nonnegative=True)
    cases["datum_jumps"] = (rs.birth_series(n0, Bi, spi, 0.01, 3.0),
                            np.arange(0.0, 3.001, 0.15))

    # the atom at 3.2 leaves [0, 4] at t = 0.8 and density leaks with it; the
    # jump record at 3.5 reaches x_max at t = 0.5, where phi does not vanish
    xs = np.arange(401) * 0.01
    dens = np.where(xs < 3.5, 0.5 * np.exp(-xs), 0.1)
    n0 = rs.HybridMeasure(0.01, dens, ((1.0, 0.3), (3.2, 0.4)),
                          ((3.5, 0.5 * np.exp(-3.5), 0.1),), nonnegative=True)
    cases["atom_leaves"] = (rs.birth_series(n0, Bc, spc, 0.01, 2.0),
                            np.arange(0.0, 2.001, 0.1))
    return cases
