"""Finite signed measures on [0, x_max] as grid density plus exact atoms.

The absolutely continuous part is stored as samples of a piecewise-linear
density on a uniform grid; the singular part is an explicit list of point
masses that is never smeared onto the grid.  All operations are pure
functions returning new values, so measures are safe to share across
threads.

A measure may carry *jump records*: grid nodes where the density has two
one-sided limits (transport snapshots have one at the newborn seam).  The
stored node value is the mean of the two limits, which keeps plain
trapezoid sums of ``f * density`` exact for continuous ``f``; operations
that apply a nonlinearity pointwise (absolute value, entropy integrands)
consult the one-sided limits instead.
"""
from __future__ import annotations

import math
import os
import warnings
import zlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import MeasureError

__all__ = [
    "HybridMeasure",
    "integrate",
    "angle_bracket",
    "mollify",
    "flat_distance",
    "ac_cumulative",
    "ac_first_moment",
    "write_snapshot",
    "read_snapshot",
]

_SNAP = 1e-9  # relative slack when matching coordinates to grid nodes


def _is_multiple(value: float, unit: float) -> bool:
    """Whether ``value`` is an integer multiple of ``unit`` up to the snap; never inf or nan."""
    q = value / unit
    return math.isfinite(q) and abs(value - round(q) * unit) <= _SNAP * max(1.0, abs(value))


def _evaluate(f, x):
    """Evaluate a scalar function on an array, vectorizing if needed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            out = np.asarray(f(x), dtype=float)
        except (TypeError, ValueError, DeprecationWarning):
            out = np.asarray(np.vectorize(f)(x), dtype=float)
    if out.shape != np.shape(x):
        out = np.asarray(np.vectorize(f)(x), dtype=float)
    return out


@dataclass(frozen=True, eq=False)
class HybridMeasure:
    """A finite signed measure on [0, x_max].

    Parameters
    ----------
    h:
        Grid spacing; ``x_max`` is ``(len(density) - 1) * h`` exactly.
    density:
        Density samples at the nodes ``0, h, 2h, ...`` (the AC part).
    atoms:
        ``(location, weight)`` pairs for the singular part.  Locations are
        merged on construction and exact-zero weights dropped.
    jumps:
        ``(node_x, left_limit, right_limit)`` records; the node value is
        forced to the mean of the limits.
    nonnegative:
        When set, density, atom weights and jump limits must all be >= 0.
    """

    h: float
    density: np.ndarray
    atoms: tuple = ()
    jumps: tuple = ()
    nonnegative: bool = False

    def __post_init__(self):
        h = float(self.h)
        if not (h > 0.0 and math.isfinite(h)):
            raise MeasureError("grid spacing must be a positive finite number")
        dens = np.array(self.density, dtype=float)
        if dens.ndim != 1 or dens.size < 2:
            raise MeasureError("density must be a 1-d array with at least two nodes")
        if not np.all(np.isfinite(dens)):
            raise MeasureError("density values must be finite")
        x_max = (dens.size - 1) * h

        # canonical atoms: sorted, merged by exact location, zeros dropped
        merged = {}
        for loc, wt in self.atoms:
            loc = float(loc)
            wt = float(wt)
            if not (math.isfinite(loc) and math.isfinite(wt)):
                raise MeasureError("atom entries must be finite")
            if loc < -_SNAP * max(1.0, x_max) or loc > x_max * (1 + _SNAP) + _SNAP:
                raise MeasureError(f"atom at {loc} lies outside [0, {x_max}]")
            loc = min(max(loc, 0.0), x_max)
            merged[loc] = merged.get(loc, 0.0) + wt
        atoms = tuple(sorted((l, w) for l, w in merged.items() if w != 0.0))

        # canonical jumps: snapped to nodes, node value = mean of limits
        jumps = []
        seen = set()
        for x, lo, hi in self.jumps:
            lo = float(lo)
            hi = float(hi)
            if not math.isfinite(lo + hi):  # a limit is inf or nan, or the mean overflows
                raise MeasureError("jump limits and their mean must be finite")
            if lo == hi:
                continue
            i = int(round(float(x) / h))
            if not (0 <= i < dens.size) or abs(float(x) - i * h) > _SNAP * max(1.0, x_max):
                raise MeasureError(f"jump at {x} does not sit on a grid node")
            if i in seen:
                raise MeasureError("duplicate jump node")
            seen.add(i)
            dens[i] = 0.5 * (lo + hi)
            jumps.append((i * h, lo, hi))
        jumps = tuple(sorted(jumps))

        if self.nonnegative:
            if dens.min() < 0.0:
                raise MeasureError("nonnegative measure has a negative density node")
            if any(w < 0.0 for _, w in atoms):
                raise MeasureError("nonnegative measure has a negative atom")
            if any(lo < 0.0 or hi < 0.0 for _, lo, hi in jumps):
                raise MeasureError("nonnegative measure has a negative jump limit")

        dens.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "density", dens)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "jumps", jumps)

    # -- basic geometry -------------------------------------------------

    @property
    def node_count(self) -> int:
        return self.density.size

    @property
    def x_max(self) -> float:
        return (self.density.size - 1) * self.h

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.density.size) * self.h

    def density_at(self, x):
        """Piecewise-linear density value (zero outside the domain)."""
        return np.interp(x, self.nodes, self.density, left=0.0, right=0.0)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def _node_count(x_max: float, h: float) -> int:
        n = int(round(x_max / h)) + 1
        if n < 2 or abs((n - 1) * h - x_max) > _SNAP * max(1.0, x_max):
            raise MeasureError("x_max must be an integer multiple of the grid spacing")
        return n

    @classmethod
    def zero(cls, x_max: float, h: float) -> "HybridMeasure":
        return cls(h, np.zeros(cls._node_count(x_max, h)), nonnegative=True)

    @classmethod
    def from_function(cls, fn, x_max: float, h: float, atoms=(), nonnegative=False):
        n = cls._node_count(x_max, h)
        vals = _evaluate(fn, np.arange(n) * h)
        return cls(h, vals, tuple(atoms), nonnegative=nonnegative)

    @classmethod
    def point_mass(cls, loc: float, x_max: float, h: float, weight: float = 1.0):
        n = cls._node_count(x_max, h)
        return cls(h, np.zeros(n), ((loc, weight),), nonnegative=weight >= 0.0)


def _panel_sides(mu: HybridMeasure):
    """One-sided node values (left, right) for every grid panel."""
    d = mu.density
    left = d[:-1].copy()
    right = d[1:].copy()
    for x, lo, hi in mu.jumps:
        i = int(round(x / mu.h))
        if i < left.size:
            left[i] = hi
        if i >= 1:
            right[i - 1] = lo
    return left, right


def integrate(mu: HybridMeasure, f) -> float:
    """Integral of ``f`` against the measure.

    Trapezoid rule against the AC density plus the exact atom sum.  At jump
    nodes the mean value makes the trapezoid sum equal to the one-sided
    panel-split sum for any continuous ``f``.
    """
    fx = _evaluate(f, mu.nodes)
    total = float(np.trapezoid(fx * mu.density, dx=mu.h))
    if mu.atoms:
        locs = np.array([a[0] for a in mu.atoms])
        wts = np.array([a[1] for a in mu.atoms])
        total += float(np.dot(_evaluate(f, locs), wts))
    return total


def angle_bracket(mu: HybridMeasure) -> float:
    """Area-type functional: integral of sqrt(1 + density^2) plus atom mass."""
    L, R = _panel_sides(mu)
    ac = float(np.sum((np.sqrt(1.0 + L * L) + np.sqrt(1.0 + R * R)) * (mu.h / 2.0)))
    return ac + sum(abs(w) for _, w in mu.atoms)


def _hat_cdf(y, c, eps):
    """CDF of the unit triangular kernel centred at ``c`` with half-width ``eps``."""
    u = np.clip((np.asarray(y, dtype=float) - c) / eps, -1.0, 1.0)
    return np.where(u <= 0.0, 0.5 * (1.0 + u) ** 2, 1.0 - 0.5 * (1.0 - u) ** 2)


def mollify(mu: HybridMeasure, eps: float) -> "HybridMeasure":
    """Replace every atom by a mass-preserving triangular bump.

    Kernel mass spilling below x = 0 is reflected back into [0, eps], so
    each atom's mass lands on the grid exactly (cell-average projection:
    the trapezoid weights of the grid coincide with the cell widths).  The
    density part is left untouched and the result carries no atoms.

    Node i owns the cell between the edges ``(i - 1/2) h`` and
    ``(i + 1/2) h``, clipped to [0, x_max].  Only the cells that meet
    (c - eps, c + eps), widened by one cell on each side, are evaluated;
    when c < eps that range starts at x = 0 and so holds the reflected
    cells as well.  Outside it the kernel's CDF is exactly 0 or 1 at every
    edge and the cell masses are exactly zero, so an atom costs O(eps / h)
    and the result is the same, bit for bit, as the projection evaluated
    on every cell.
    """
    if eps < mu.h * (1.0 - 1e-12):
        raise MeasureError("mollifier width below grid spacing: kernel unresolvable")
    if not mu.atoms:
        return mu
    h, n, x_max = mu.h, mu.node_count, mu.x_max
    added = np.zeros(n)
    for c, wt in mu.atoms:
        if c + eps > x_max * (1 + _SNAP):
            raise MeasureError(f"kernel around atom at {c} leaves the domain")
        # edges lo..hi: edge j sits at (j - 1/2) h, edge 0 at 0, edge n at x_max
        lo = max(0, math.floor((c - eps) / h + 0.5) - 1)
        hi = min(n, math.ceil((c + eps) / h + 0.5) + 1)
        edges = np.arange(lo - 1, hi) * h + h / 2.0
        if lo == 0:
            edges[0] = 0.0
        if hi == n:
            edges[-1] = x_max
        mass_to = _hat_cdf(edges, c, eps) - _hat_cdf(-edges, c, eps)
        added[lo:hi] += wt * np.diff(mass_to) / np.diff(edges)
    dens = mu.density + added
    jumps = tuple((x, lo + added[int(round(x / mu.h))], hi + added[int(round(x / mu.h))])
                  for x, lo, hi in mu.jumps)
    return HybridMeasure(mu.h, dens, (), jumps, nonnegative=mu.nonnegative)


def _cell_offsets(mu: HybridMeasure, ys):
    """Grid cell index and offset into it of every y, clipped to [0, x_max]."""
    yc = np.clip(ys, 0.0, mu.x_max)
    idx = np.minimum((yc / mu.h).astype(int), mu.node_count - 2)
    return idx, yc - idx * mu.h


def ac_cumulative(mu: HybridMeasure, ys) -> np.ndarray:
    """Exact integral of the piecewise-linear density over [0, y] for each y.

    Honours jump records (panel masses use the one-sided limits).
    """
    L, R = _panel_sides(mu)
    panel_mass = (L + R) * (mu.h / 2.0)
    cum = np.concatenate([[0.0], np.cumsum(panel_mass)])
    scalar = np.ndim(ys) == 0
    idx, s = _cell_offsets(mu, np.atleast_1d(np.asarray(ys, dtype=float)))
    vline = L[idx] + (R[idx] - L[idx]) * s / mu.h
    out = cum[idx] + s * (L[idx] + vline) / 2.0
    return float(out[0]) if scalar else out


def ac_first_moment(mu: HybridMeasure, ys) -> np.ndarray:
    """Exact integral of x times the density over [0, y] for each y.

    The first-moment companion of ``ac_cumulative``: on each grid cell
    ``[a, a + h]`` with one-sided values ``l``, ``r`` and slope
    ``d = (r - l) / h`` the moment up to offset ``s`` is the cubic
    ``a (l s + d s^2 / 2) + l s^2 / 2 + d s^3 / 3``.
    """
    L, R = _panel_sides(mu)
    h = mu.h
    cell = mu.nodes[:-1] * (L + R) * (h / 2.0) + (L + 2.0 * R) * (h * h / 6.0)
    cum = np.concatenate([[0.0], np.cumsum(cell)])
    scalar = np.ndim(ys) == 0
    idx, s = _cell_offsets(mu, np.atleast_1d(np.asarray(ys, dtype=float)))
    lv = L[idx]
    d = (R[idx] - lv) / h
    out = cum[idx] + s * (idx * h * (lv + 0.5 * d * s) + s * (0.5 * lv + d * s / 3.0))
    return float(out[0]) if scalar else out


# -- flat (bounded-Lipschitz) metric -----------------------------------------


def _node_masses(mu: HybridMeasure) -> np.ndarray:
    """Trapezoid weight times density at every grid node."""
    tw = np.full(mu.node_count, mu.h)
    tw[0] = tw[-1] = mu.h / 2.0
    return tw * mu.density


def _support_points(mu: HybridMeasure):
    locs = mu.nodes
    wts = _node_masses(mu)
    if mu.atoms:
        locs = np.concatenate([locs, [a[0] for a in mu.atoms]])
        wts = np.concatenate([wts, [a[1] for a in mu.atoms]])
    return locs, wts


def _chain_max(locs: np.ndarray, w: np.ndarray) -> float:
    """Maximize sum(w_i f_i) over |f_i| <= 1, |f_{i+1} - f_i| <= gap_i.

    Forward sweep of the exact dynamic program on the concave piecewise
    linear value function V_k(y) = best total with f_k = y: slide the top
    apart by the gap (max-filter), clamp the domain back to [-1, 1], then
    tilt by the next weight.  The answer is the final peak value.

    V_k is kept by the slope trick: its peak value ``top`` and two deques of
    ``(x, slope)`` segments, ``left`` (increasing part, outer -> inner) and
    ``right`` (decreasing part, inner -> outer).  Each segment stores its
    inner end; the outer end is the next segment's inner end or the domain
    end -1 / +1, and the peak is the interval between the innermost ends.
    Shifts and tilts are lazy: with G = x_k - x_0 the total gap so far and S
    the total weight, left ends are stored as x + G, right ends as x - G and
    slopes as slope - S, so the max-filter is the growth of G and the clamp
    pops the segments whose inner end has left [-1, 1].  A tilt by w > 0 turns the
    old flat top into a left segment, then moves right segments whose slope
    has become positive to the left side, adding slope * length to ``top``;
    a slope of exactly zero becomes the new flat top.  w < 0 is the mirror
    image, written operation for operation, so the result is bit-identical
    under w -> -w.  The first point tilts the zero function on [-1, 1].

    Each point costs one push plus one move per breakpoint the peak
    crosses, which depends on the data (under one per point on snapshot
    differences, about 27 on white-noise weights), so this is not
    amortized O(1).
    """
    x0 = float(locs[0])
    left, right = deque(), deque()
    top = S = 0.0
    for x, wk in zip(locs.tolist(), w.tolist()):
        G = x - x0
        while left and left[0][0] - G <= -1.0:
            left.popleft()
        while right and right[-1][0] + G >= 1.0:
            right.pop()
        if wk > 0.0:
            p = right[0][0] + G if right else 1.0
            top += wk * p
            left.append((p + G, -S))
            S += wk
            while right:
                m = right[0][1] + S
                if m < 0.0:
                    break
                slope = right.popleft()[1]
                if m == 0.0:
                    break
                q = right[0][0] + G if right else 1.0
                top += m * (q - p)
                left.append((q + G, slope))
                p = q
        elif wk < 0.0:
            p = left[-1][0] - G if left else -1.0
            top += wk * p
            right.appendleft((p - G, -S))
            S += wk
            while left:
                m = left[-1][1] + S
                if m > 0.0:
                    break
                slope = left.pop()[1]
                if m == 0.0:
                    break
                q = left[-1][0] - G if left else -1.0
                top += m * (q - p)
                right.appendleft((q - G, slope))
                p = q
    return top


def _same_grid_difference(mu: HybridMeasure, nu: HybridMeasure):
    """Sorted support and weights of ``mu - nu`` on their one shared grid.

    A node's weight is summed as mu's node weight, plus mu's atom there,
    minus nu's node weight, minus nu's atom there: the order in which the
    sort-merge of ``flat_distance`` adds them up, so the sums are the same
    floats.  Atoms off the nodes are merged by location and inserted in
    order.
    """
    nodes = mu.nodes
    vals = _node_masses(mu)
    off = {}

    def add_atoms(atoms, sign):
        for loc, wt in atoms:
            k = round(loc / mu.h)
            if k < nodes.size and nodes[k] == loc:
                vals[k] += sign * wt
            else:
                off[loc] = off.get(loc, 0.0) + sign * wt

    add_atoms(mu.atoms, 1.0)
    vals -= _node_masses(nu)
    add_atoms(nu.atoms, -1.0)
    if off:
        locs, wts = np.array(sorted(off.items())).T
        pos = nodes.searchsorted(locs)
        nodes, vals = np.insert(nodes, pos, locs), np.insert(vals, pos, wts)
    return nodes, vals


def flat_distance(mu: HybridMeasure, nu: HybridMeasure) -> float:
    """Flat (bounded-Lipschitz) distance between two measures.

    The difference measure is discretized to atoms (trapezoid node weights
    for the AC parts, atoms verbatim) and the finite maximization over test
    functions with sup-norm and Lipschitz constant at most one is solved
    exactly by a clamping dynamic program over the sorted support.

    Two measures on the same grid (equal spacing and node count) are
    subtracted node by node in O(n), and the nodes where they agree drop
    out of the support; measures on different grids are merged by sorting
    all their support points.  Both give the same floats.  The support has
    no size limit: the dynamic program is linear in it.
    """
    if mu.h == nu.h and mu.node_count == nu.node_count:
        locs, wts = _same_grid_difference(mu, nu)
    else:
        l1, w1 = _support_points(mu)
        l2, w2 = _support_points(nu)
        locs, inv = np.unique(np.concatenate([l1, l2]), return_inverse=True)
        wts = np.bincount(inv, weights=np.concatenate([w1, -w2]))
    keep = wts != 0.0
    if not keep.any():
        return 0.0
    return _chain_max(locs[keep], wts[keep])


# -- CSV files ----------------------------------------------------------------

_BLOCK = 4096  # rows formatted per string operation
# The grid text of one spacing per process: (g, node count, per block of
# _BLOCK nodes the "\n"-joined %.17g strings of arange(n) * g).  It is a
# function of g alone and is replaced whole, never changed in place, so
# callers sharing it, threads included, write what they would without it.
_grid = (math.nan, 0, ())


def _format_grid(g: float, start: int, stop: int) -> str:
    """The ``%.17g`` strings of grid nodes ``start .. stop - 1``, joined by newlines."""
    return ("%.17g\n" * (stop - start))[:-1] % tuple((np.arange(start, stop) * g).tolist())


def _grid_blocks(g: float, n: int) -> tuple:
    """The grid text of ``arange(n) * g``, one string per block of ``_BLOCK`` nodes.

    A spacing's text grows on demand (a partial last block is formatted
    again) and holds at least n nodes; a new spacing replaces it.
    """
    global _grid
    spacing, size, blocks = _grid
    if spacing != g:
        size, blocks = 0, ()
    if size < n:
        first = size // _BLOCK
        blocks = blocks[:first] + tuple(_format_grid(g, s, min(s + _BLOCK, n))
                                        for s in range(first * _BLOCK, n, _BLOCK))
        _grid = (g, n, blocks)
    return blocks


def _block_field(v: np.ndarray):
    """The ``%`` field and arguments of one column's block of values.

    Runs of equal bits (so ``-0.0`` keeps writing ``-0``) have their first
    value formatted once and its string repeated through a ``%s`` field; a
    block without repeats passes its floats to ``%.17g``.
    """
    bits = v.view(np.int64)
    starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    if starts.size + 1 == v.size:
        return "%.17g", v.tolist()
    starts = np.concatenate(([0], starts))
    text = ("%.17g\n" * starts.size)[:-1] % tuple(v[starts].tolist())
    lengths = np.diff(starts, append=v.size)
    return "%s", np.repeat(np.array(text.split("\n"), dtype=object), lengths).tolist()


def _write_rows(fh, row: str, *columns) -> None:
    """Write ``row % values`` for every index of the equal-length ``columns``.

    ``row`` is a ``%``-template holding one ``%.17g`` field per column and
    ending in a newline (it may span several lines).  A column given as a
    number g stands for the grid ``arange(n) * g``, n being the length of
    the other columns; its text comes from ``_grid_blocks``, so files with
    the same grid spacing format it once per process.  Each block of rows
    is formatted by one ``%`` on the repeated template, with every column's
    field chosen per block by ``_block_field``.  The text is the same as
    ``%.17g`` on every value: every CSV artifact shares this one writer.
    """
    parts = row.split("%.17g")
    n = next(np.size(c) for c in columns if np.ndim(c))
    columns = [np.ascontiguousarray(c, dtype=float) if np.ndim(c) else _grid_blocks(c, n)
               for c in columns]
    width = len(columns)
    for s in range(0, n, _BLOCK):
        m = min(_BLOCK, n - s)
        fields, args = [], [None] * (m * width)
        for k, c in enumerate(columns):
            if isinstance(c, tuple):
                field, args[k::width] = "%s", c[s // _BLOCK].split("\n")[:m]
            else:
                field, args[k::width] = _block_field(c[s:s + m])
            fields.append(parts[k] + field)
        fh.write(("".join(fields) + parts[-1]) * m % tuple(args))


class _TaggedFile:
    """A binary file that takes text, keeping the byte count and CRC-32 of what it wrote."""

    def __init__(self, fh):
        self.fh, self.size, self.crc = fh, 0, 0

    def write(self, text: str) -> None:
        data = text.encode("ascii")
        self.fh.write(data)
        self.size += len(data)
        self.crc = zlib.crc32(data, self.crc)


# A snapshot's twin is the file ``<snapshot>.bin``: three little-endian
# uint64 (the CSV's byte length, the CSV's CRC-32, the payload's CRC-32),
# then the float64 payload h, atom count, jump count, density, atoms
# (location, weight) and jumps (x, left, right).
_TWIN_SUFFIX = ".bin"
_TAG_BYTES = 24
_CHUNK = 1 << 20  # CSV bytes per CRC read


def write_snapshot(mu: HybridMeasure, path) -> None:
    """Write the measure as ``kind,x,value`` CSV (17 significant digits), plus its twin.

    One ``density`` row per grid node (the stored node value), then one
    ``atom`` row per atom, then each jump record as a ``jump_lo`` row and a
    ``jump_hi`` row holding its left and right limit.  Every row has three
    fields, and :func:`read_snapshot` rebuilds the measure exactly.

    The binary twin ``<path>.bin`` is written after the CSV.  It holds the
    measure's float64 values and a tag: the CSV's byte length and CRC-32,
    taken from the bytes as they are written, and the CRC-32 of the values.
    :func:`read_snapshot` loads the twin in place of parsing the CSV while
    the tag matches the CSV.
    """
    jumps = np.array(mu.jumps, dtype=float).reshape(-1, 3)
    atoms = np.array(mu.atoms, dtype=float).reshape(-1, 2)
    with open(path, "wb") as fh:
        out = _TaggedFile(fh)
        out.write("kind,x,value\n")
        _write_rows(out, "density,%.17g,%.17g\n", mu.h, mu.density)
        _write_rows(out, "atom,%.17g,%.17g\n", atoms[:, 0], atoms[:, 1])
        _write_rows(out, "jump_lo,%.17g,%.17g\njump_hi,%.17g,%.17g\n",
                    jumps[:, 0], jumps[:, 1], jumps[:, 0], jumps[:, 2])
    payload = np.concatenate(([mu.h, len(atoms), len(jumps)], mu.density,
                              atoms.ravel(), jumps.ravel())).astype("<f8", copy=False)
    tag = np.array([out.size, out.crc, zlib.crc32(payload)], dtype="<u8").tobytes()
    with open(os.fspath(path) + _TWIN_SUFFIX, "wb") as fh:
        fh.write(tag)
        fh.write(payload)


def _twin_measure(path):
    """The measure in the twin of the snapshot ``path``, or None.

    None unless the twin exists, its payload's CRC-32 matches, its counts
    fit its size, and the CSV's byte length and CRC-32 match the tag.  The
    CSV is read in chunks of ``_CHUNK`` bytes for its CRC and not parsed.
    """
    try:
        with open(os.fspath(path) + _TWIN_SUFFIX, "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    if len(raw) < _TAG_BYTES + 3 * 8 or len(raw) % 8:
        return None
    size, crc, payload_crc = np.frombuffer(raw, "<u8", 3).tolist()
    if payload_crc != zlib.crc32(memoryview(raw)[_TAG_BYTES:]):
        return None
    payload = np.frombuffer(raw, "<f8", offset=_TAG_BYTES)
    h, n_atoms, n_jumps = payload[:3].tolist()
    if not (n_atoms.is_integer() and n_jumps.is_integer() and n_atoms >= 0 and n_jumps >= 0):
        return None
    n_atoms, n_jumps = int(n_atoms), int(n_jumps)
    nodes = payload.size - 3 - 2 * n_atoms - 3 * n_jumps
    if nodes < 2:
        return None
    got_size = got_crc = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(_CHUNK):
            got_size += len(chunk)
            got_crc = zlib.crc32(chunk, got_crc)
    if (got_size, got_crc) != (size, crc):
        return None
    a = 3 + nodes
    j = a + 2 * n_atoms
    return HybridMeasure(h, payload[3:a], payload[a:j].reshape(-1, 2).tolist(),
                         payload[j:].reshape(-1, 3).tolist())


def _check_ascii(line: str, ln: int) -> None:
    """Raise the ``MeasureError`` of a line holding a non-ASCII byte.

    Snapshots are decoded as ASCII with ``surrogateescape``, so a byte b
    above 0x7f reads as the character U+DC00 + b, which no check accepts.
    """
    if not line.isascii():
        bad = next(c for c in line if not c.isascii())
        raise MeasureError(f"line {ln}: non-ASCII byte {ord(bad) - 0xDC00:#04x}")


def _pair_jumps(rows):
    """``(x, left, right)`` records from ``(kind, x, value, line)`` jump rows.

    Taken in file order, the jump rows must alternate ``jump_lo``,
    ``jump_hi``, with both rows of a pair at the same x.
    """
    jumps = []
    pending = None
    for kind, x, v, ln in rows:
        if pending is None:
            if kind != "jump_lo":
                raise MeasureError(f"line {ln}: jump_hi row without a jump_lo row")
            pending = (x, v, ln)
        elif kind == "jump_hi" and x == pending[0]:
            jumps.append((x, pending[1], v))
            pending = None
        else:
            break
    if pending is not None:
        raise MeasureError(f"line {pending[2]}: jump_lo row without a jump_hi row "
                           "at its x")
    return tuple(jumps)


def read_snapshot(path) -> HybridMeasure:
    """Read a measure written by :func:`write_snapshot`.

    The file is a ``kind,x,value`` header and rows of the kinds ``density``
    (one per grid node, in increasing x), ``atom``, and ``jump_lo`` /
    ``jump_hi`` pairs (one pair per jump record: its left and right limit at
    the node x).  Blank lines and whitespace around a line are ignored, rows
    of different kinds may come in any order, and files without jump rows
    read as measures without jump records.  Values are parsed as Python
    ``float`` does, and a round trip through :func:`write_snapshot` is exact.
    A line holding a byte outside ASCII is a bad line.

    When the snapshot's binary twin (``<path>.bin``, written by
    :func:`write_snapshot`) is intact and its tag matches the CSV's byte
    length and CRC-32, the measure is built from the twin's values, which
    are the ones the parser would read.  Otherwise (no twin, a short or
    damaged twin, a CSV rewritten or edited since) the CSV is parsed, one
    line at a time, and the first bad line is the one reported.
    """
    mu = _twin_measure(path)
    if mu is not None:
        return mu
    xs, vs, atoms, jump_rows = [], [], [], []
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        header = fh.readline().strip()
        _check_ascii(header, 1)
        if header != "kind,x,value":
            raise MeasureError(f"bad snapshot header: {header!r}")
        for ln, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            _check_ascii(line, ln)
            parts = line.split(",")
            if len(parts) != 3:
                raise MeasureError(f"line {ln}: expected 3 fields")
            kind, x, v = parts
            try:
                x, v = float(x), float(v)
            except ValueError as exc:
                raise MeasureError(f"line {ln}: {exc}") from exc
            if not (math.isfinite(x) and math.isfinite(v)):
                raise MeasureError(f"line {ln}: non-finite value")
            if kind == "density":
                xs.append(x)
                vs.append(v)
            elif kind == "atom":
                atoms.append((x, v))
            elif kind == "jump_lo" or kind == "jump_hi":
                jump_rows.append((kind, x, v, ln))
            else:
                raise MeasureError(f"line {ln}: unknown kind {kind!r}")
    jumps = _pair_jumps(jump_rows)
    if len(xs) < 2:
        raise MeasureError("snapshot needs at least two density nodes")
    xs = np.array(xs)
    h = float(xs[1] - xs[0])
    if h <= 0.0:
        raise MeasureError("snapshot nodes must increase")
    if np.abs(xs - np.arange(xs.size) * h).max() > _SNAP * max(1.0, float(xs[-1])):
        raise MeasureError("snapshot grid is not uniform")
    return HybridMeasure(h, np.array(vs), tuple(atoms), jumps)
