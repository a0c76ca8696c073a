"""Scenario configs: a flat INI-style grammar, parsing and validation.

A scenario file has five sections; keys are ``name = value`` lines and
``#`` starts a comment.  Lists are whitespace separated; atoms are
``location:weight`` tokens.

    [birth_law]       kind (constant|indicator|table), beta, a, b,
                      x, values
                      (an indicator is rate beta on [a, b], built as a
                      table; a table x repeated once is a jump, left
                      value first)
    [initial_measure] atoms, density (exponential|gaussian-bump|uniform|none),
                      rate, center, width, lo, hi, mass, file
    [numerics]        h, dt, T, x_max
    [diagnostics]     integrands, eta, snapshot_times, eps_list, sample_dt
    [outputs]         directory

Validation reports every violated rule, not just the first.  Scenario data
must be nonnegative; the horizon T may not exceed x_max, so no newborn
ages past the grid; atom locations must lie strictly inside
(0, x_max - T) so no atom can reach the window edge within the horizon.
With a discontinuous birth law, its jump points and all atom locations must
sit on the spatial grid, which keeps every kink of the solution on grid
nodes for the lifetime of the run.  Non-finite values fail the rule they
enter, and invalid numerics stop validation before the rules that divide
by them.
"""
from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError, SpectralError
from .measures import _SNAP, HybridMeasure, _is_multiple, read_snapshot
from .spectral import BirthLaw
from .entropy import EntropyIntegrand, abs_shift, builtin_integrand

__all__ = ["Scenario", "parse_scenario", "load_scenario"]

_SECTIONS = {
    "birth_law": {"kind", "beta", "a", "b", "x", "values"},
    "initial_measure": {"atoms", "density", "rate", "center", "width",
                        "lo", "hi", "mass", "file"},
    "numerics": {"h", "dt", "T", "x_max"},
    "diagnostics": {"integrands", "eta", "snapshot_times", "eps_list", "sample_dt"},
    "outputs": {"directory"},
}


@dataclass(frozen=True)
class Scenario:
    """A validated simulation configuration."""

    birth_law: BirthLaw
    initial: HybridMeasure
    h: float
    dt: float
    horizon: float
    x_max: float
    integrand_names: tuple
    eta_choices: tuple
    snapshot_times: tuple
    eps_list: tuple
    sample_dt: float
    out_dir: str

    def integrands(self) -> tuple:
        return tuple(_integrand_by_name(n) for n in self.integrand_names)


def _integrand_by_name(name: str) -> EntropyIntegrand:
    m = re.fullmatch(r"abs_shift\(([-+0-9.eE]+)\)", name)
    if m:
        return abs_shift(float(m.group(1)))
    return builtin_integrand(name)


class _Parser:
    def __init__(self, text: str):
        self.errors: list[str] = []
        self.sections: dict[str, dict[str, str]] = {}
        section = None
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section not in _SECTIONS:
                    self.errors.append(f"line {ln}: unknown section [{section}]")
                    section = None
                elif section in self.sections:
                    self.errors.append(f"line {ln}: duplicate section [{section}]")
                else:
                    self.sections[section] = {}
                continue
            if "=" not in line:
                self.errors.append(f"line {ln}: expected 'key = value'")
                continue
            if section is None:
                self.errors.append(f"line {ln}: key outside any section")
                continue
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _SECTIONS[section]:
                self.errors.append(f"line {ln}: unknown key {key!r} in [{section}]")
            elif key in self.sections[section]:
                self.errors.append(f"line {ln}: duplicate key {key!r}")
            else:
                self.sections[section][key] = value

    def get(self, section, key, default=None):
        return self.sections.get(section, {}).get(key, default)

    def number(self, section, key, default=None):
        raw = self.get(section, key)
        if raw is None:
            if default is None:
                self.errors.append(f"[{section}] missing required key {key!r}")
            return default
        try:
            return float(raw)
        except ValueError:
            self.errors.append(f"[{section}] {key}: not a number: {raw!r}")
            return default

    def numbers(self, section, key, default=()):
        raw = self.get(section, key)
        if raw is None:
            return tuple(default)
        try:
            return tuple(float(tok) for tok in raw.split())
        except ValueError:
            self.errors.append(f"[{section}] {key}: not a number list: {raw!r}")
            return tuple(default)

    def words(self, section, key, default=()):
        raw = self.get(section, key)
        return tuple(raw.split()) if raw is not None else tuple(default)


def _build_birth_law(p: _Parser) -> BirthLaw | None:
    kind = p.get("birth_law", "kind")
    if kind is None:
        p.errors.append("[birth_law] missing required key 'kind'")
        return None
    try:
        if kind == "constant":
            beta = p.number("birth_law", "beta")
            return BirthLaw.constant(beta) if beta is not None else None
        if kind == "indicator":
            beta = p.number("birth_law", "beta")
            a = p.number("birth_law", "a", 0.0)
            b = p.number("birth_law", "b")
            if beta is None or b is None:
                return None
            return BirthLaw.indicator(beta, a, b)
        if kind == "table":
            xs = p.numbers("birth_law", "x")
            vals = p.numbers("birth_law", "values")
            if not xs or not vals:
                p.errors.append("[birth_law] table law needs 'x' and 'values'")
                return None
            return BirthLaw.table(xs, vals)
        p.errors.append(f"[birth_law] unknown kind {kind!r}")
    except SpectralError as exc:
        p.errors.append(f"[birth_law] {exc}")
    return None


def _parse_atoms(p: _Parser):
    raw = p.get("initial_measure", "atoms")
    atoms = []
    if raw:
        for tok in raw.split():
            try:
                loc, wt = tok.split(":")
                atoms.append((float(loc), float(wt)))
            except ValueError:
                p.errors.append(f"[initial_measure] bad atom token {tok!r}")
    return atoms


def _build_density(p: _Parser, x_max, h):
    kind = p.get("initial_measure", "density", "none")
    mass = p.number("initial_measure", "mass", 1.0)
    n = int(round(x_max / h)) + 1
    xs = np.arange(n) * h
    if kind == "none":
        return np.zeros(n)
    if kind == "exponential":
        rate = p.number("initial_measure", "rate", 1.0)
        return mass * rate * np.exp(-rate * xs)
    if kind == "gaussian-bump":
        center = p.number("initial_measure", "center")
        width = p.number("initial_measure", "width")
        if center is None or width is None or width <= 0.0:
            p.errors.append("[initial_measure] gaussian-bump needs center and width > 0")
            return np.zeros(n)
        return mass * np.exp(-0.5 * ((xs - center) / width) ** 2) / (
            width * math.sqrt(2.0 * math.pi)
        )
    if kind == "uniform":
        lo = p.number("initial_measure", "lo", 0.0)
        hi = p.number("initial_measure", "hi")
        if hi is None:
            return np.zeros(n)
        if not (_is_multiple(lo, h) and _is_multiple(hi, h)):
            p.errors.append("[initial_measure] uniform edges must sit on the grid")
            return np.zeros(n)
        if not (0.0 <= lo < hi <= x_max):
            p.errors.append("[initial_measure] uniform support must lie in [0, x_max]")
            return np.zeros(n)
        c = mass / (hi - lo)
        dens = np.where((xs > lo) & (xs < hi), c, 0.0)
        dens[np.abs(xs - lo) <= _SNAP] = c / 2.0 if lo > 0.0 else c
        dens[np.abs(xs - hi) <= _SNAP] = c / 2.0
        return dens
    p.errors.append(f"[initial_measure] unknown density {kind!r}")
    return np.zeros(n)


def parse_scenario(text: str, base_dir: str = ".") -> Scenario:
    """Parse and validate scenario text; raises ScenarioError with all errors."""
    p = _Parser(text)

    law = _build_birth_law(p)
    h = p.number("numerics", "h")
    dt = p.number("numerics", "dt")
    T = p.number("numerics", "T")
    x_max = p.number("numerics", "x_max")
    out_dir = p.get("outputs", "directory", "out")

    integrands = p.words("diagnostics", "integrands", ("abs", "sqrt1p", "pospart"))
    etas = p.words("diagnostics", "eta", ("phi", "one"))
    snapshot_times = p.numbers("diagnostics", "snapshot_times")
    eps_list = p.numbers("diagnostics", "eps_list")
    sample_dt = p.number("diagnostics", "sample_dt", 0.0)

    errs = p.errors  # the density and atom builders below append to it too
    bad = [name for name, val in (("h", h), ("dt", dt), ("T", T), ("x_max", x_max))
           if val is not None and not (val > 0.0 and math.isfinite(val))]
    errs.extend(f"[numerics] {name} must be positive" for name in bad)
    # every rule below divides by the numerics
    if None in (h, dt, T, x_max) or bad or errs and law is None:
        raise ScenarioError(errs or ["missing numerics"])

    if dt > h * (1.0 + _SNAP):
        errs.append("time step exceeds grid spacing")
    if not _is_multiple(h, dt):
        errs.append("grid spacing must be an integer multiple of the time step")
    if not _is_multiple(x_max, h):
        errs.append("x_max must be an integer multiple of the grid spacing")
    if not _is_multiple(T, dt):
        errs.append("horizon must be an integer multiple of the time step")
    if T > x_max * (1.0 + _SNAP):
        errs.append("horizon T exceeds x_max: newborns would age past the grid")

    if law is not None:
        window = x_max if law.support_end is None else min(law.support_end, x_max)
        if law.integral_to(window) <= 1.0 + 1e-8:
            errs.append("net reproduction below one")
        if law.support_end is not None and law.support_end + T > x_max * (1.0 + _SNAP):
            errs.append("truncation certificate violated: support_end + T exceeds x_max")
        for pt, _, _ in law.jump_points():
            if not _is_multiple(pt, h):
                errs.append(f"birth-law discontinuity at {pt} is not on the spatial grid")

    atoms = _parse_atoms(p)
    for loc, wt in atoms:
        if not (0.0 < loc < x_max - T):
            errs.append(f"atom location {loc} outside (0, x_max - T)")
        if wt < 0.0:
            errs.append(f"atom at {loc} has negative weight")
        if law is not None and law.jump_points() and not _is_multiple(loc, h):
            errs.append(
                f"atom at {loc} is not on the spatial grid "
                "(required with a discontinuous birth law)"
            )

    if sample_dt:
        if not _is_multiple(sample_dt, dt) or sample_dt <= 0.0:
            errs.append("sample_dt must be a positive multiple of the time step")
    for ts in snapshot_times:
        if not (0.0 <= ts <= T) or not _is_multiple(ts, dt):
            errs.append(f"snapshot time {ts} must be a time-grid point in [0, T]")
    if eps_list:
        if any(b >= a for a, b in zip(eps_list[:-1], eps_list[1:])):
            errs.append("eps_list must be strictly decreasing")
        if not all(e >= h for e in eps_list):  # nan included
            errs.append("eps_list entries must be at least the grid spacing")
    for name in integrands:
        try:
            _integrand_by_name(name)
        except Exception:
            errs.append(f"unknown integrand {name!r}")
    for name in etas:
        if name not in ("phi", "one"):
            errs.append(f"unknown eta choice {name!r} (use phi or one)")

    initial = None
    file_ref = p.get("initial_measure", "file")
    if file_ref is not None:
        try:
            loaded = read_snapshot(os.path.join(base_dir, file_ref))
            if abs(loaded.h - h) > _SNAP * h or abs(loaded.x_max - x_max) > _SNAP * x_max:
                errs.append("initial measure file grid does not match the numerics")
            else:
                atoms = list(loaded.atoms) + atoms
                initial = (loaded.density, atoms, loaded.jumps)
        except Exception as exc:
            errs.append(f"initial measure file: {exc}")
    else:
        initial = (_build_density(p, x_max, h), atoms, ())
    # the mollification check's widest kernel must stay inside [0, x_max]
    widest = max(eps_list, default=0.0)
    for loc, _ in atoms:
        if loc + widest > x_max * (1.0 + _SNAP):
            errs.append(f"eps_list: the kernel of width {widest:g} around the "
                        f"atom at {loc:g} leaves [0, x_max]")

    if errs:
        raise ScenarioError(errs)

    dens, atoms, jumps = initial
    try:
        measure = HybridMeasure(h, dens, tuple(atoms), jumps, nonnegative=True)
    except Exception as exc:
        raise ScenarioError([f"initial measure: {exc}"])

    if not sample_dt:
        sample_dt = dt * max(1, round((T / 200.0) / dt))
    return Scenario(
        law, measure, h, dt, T, x_max,
        tuple(integrands), tuple(etas), tuple(snapshot_times), tuple(eps_list),
        sample_dt, out_dir,
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_scenario(text, base_dir=os.path.dirname(os.path.abspath(path)))
