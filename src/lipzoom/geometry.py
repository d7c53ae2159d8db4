"""Metric geometry on the unit cube: distances, ball regions and greedy packings.

The arm space is always [0,1]^d equipped with one of three metrics whose
diameter is at most 1.  Packings are built by a deterministic greedy sweep
over a finite lattice of candidate points; because a maximal packing is
automatically a covering, the returned points also cover every lattice
candidate inside the region to within the packing radius.

The sweep builds no lattice array: a cell is an index tuple into the
per-axis coordinates, and the sweep keeps one boolean per cell.  Under the
absolute-value and L-infinity metrics a distance is at most r, or below eps,
exactly when every axis difference is, so a ball is a box of per-axis index
ranges, and region membership and greedy exclusion set or clear such boxes
by slicing, with no distance computed.  Under rescaled L2 a point within r of
x lies within r*sqrt(d) of it on every axis, so both decisions evaluate
distances only in that axis-aligned index window, combined from per-axis
differences.  Every per-axis test compares the differences `Metric.pairwise`
computes on the same coordinates, so the packing is exactly a whole-lattice
scan's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

Point = tuple[float, ...]


class GeometryError(ValueError):
    """Invalid geometric input (dimension mismatch, bad lattice, ...)."""


class MetricKind(str, Enum):
    ABSOLUTE = "absolute"  # |a - b| on [0,1]
    LINF = "linf"          # max_i |a_i - b_i|
    L2 = "l2"              # ||a - b||_2 / sqrt(d), rescaled so diameter <= 1


@dataclass(frozen=True)
class Metric:
    kind: MetricKind
    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise GeometryError(f"dimension must be positive, got {self.dimension}")
        if self.kind == MetricKind.ABSOLUTE and self.dimension != 1:
            raise GeometryError("absolute-value metric requires dimension 1")

    def distance(self, a: Point, b: Point) -> float:
        if len(a) != self.dimension or len(b) != self.dimension:
            raise GeometryError(
                f"point dimension mismatch: expected {self.dimension}, "
                f"got {len(a)} and {len(b)}"
            )
        diff = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
        if self.kind == MetricKind.ABSOLUTE:
            return float(diff[0])
        if self.kind == MetricKind.LINF:
            return float(diff.max())
        return float(np.sqrt(np.sum(diff * diff)) / np.sqrt(self.dimension))

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Distance matrix between rows of `a` (n,d) and rows of `b` (m,d)."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        if a.shape[1:] != (self.dimension,) or b.shape[1:] != (self.dimension,):
            raise GeometryError(
                f"point dimension mismatch: expected {self.dimension} columns, "
                f"got shapes {a.shape} and {b.shape}"
            )
        if self.kind == MetricKind.L2:
            diff = np.abs(a[:, None, :] - b[None, :, :])
            return np.sqrt((diff * diff).sum(axis=2)) / np.sqrt(self.dimension)
        # fold the per-axis distances elementwise: the same exact max as
        # reducing an (n, m, d) tensor over its short last axis, far faster
        dist = np.abs(a[:, None, 0] - b[None, :, 0])
        for k in range(1, self.dimension):
            np.maximum(dist, np.abs(a[:, None, k] - b[None, :, k]), out=dist)
        return dist


@dataclass(frozen=True)
class ActiveRegion:
    """Union of closed balls with a shared radius."""

    centers: tuple[Point, ...]
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise GeometryError(f"radius must be positive, got {self.radius}")
        object.__setattr__(self, "centers", tuple(self.centers))

    @classmethod
    def whole_space(cls, dimension: int) -> "ActiveRegion":
        # one ball of radius >= diameter centered anywhere covers [0,1]^d
        return cls((tuple([0.5] * dimension),), 1.0)

    def contains_many(self, pts: np.ndarray, metric: Metric) -> np.ndarray:
        if not self.centers:
            return np.zeros(len(pts), dtype=bool)
        d = metric.pairwise(pts, np.asarray(self.centers, dtype=float))
        return (d <= self.radius).any(axis=1)


def _axis(spacing: float) -> np.ndarray:
    """Lattice coordinates along one axis: k*spacing, then 1.0 if short of it."""
    n = int(np.floor(1.0 / spacing + 1e-12))
    axis = np.arange(n + 1) * spacing
    if axis[-1] < 1.0 - 1e-12:
        axis = np.append(axis, 1.0)
    return np.minimum(axis, 1.0)


def lattice(dimension: int, spacing: float) -> np.ndarray:
    """Row-major lattice over [0,1]^d with the given spacing.

    Axis values are k*spacing for k = 0..floor(1/spacing); 1.0 is appended
    when the last multiple falls short of it.
    """
    if spacing <= 0:
        raise GeometryError(f"lattice spacing must be positive, got {spacing}")
    axis = _axis(spacing)
    grids = np.meshgrid(*([axis] * dimension), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, dimension)


def _reach(metric: Metric, r: float) -> float:
    """Per-axis half-width of a radius-r ball, with slack for rounding."""
    scale = np.sqrt(metric.dimension) if metric.kind == MetricKind.L2 else 1.0
    return r * scale + 1e-9


def _l2_window_distances(
    axis: np.ndarray, window: tuple[slice, ...], point: Point
) -> np.ndarray:
    """Rescaled L2 distances from `point` to the lattice cells of `window`.

    Each axis contributes `abs(axis[s] - x)` along its own dimension; the
    differences are broadcast into one stacked `(..., d)` array and reduced
    as `Metric.pairwise` reduces its own, so the values equal `pairwise` on
    the window's coordinates without building them.
    """
    d = len(window)
    diffs = [
        np.abs(axis[s] - x).reshape((-1,) + (1,) * (d - 1 - k))
        for k, (s, x) in enumerate(zip(window, point))
    ]
    diff = np.stack(np.broadcast_arrays(*diffs), axis=-1)
    return np.sqrt((diff * diff).sum(axis=-1)) / np.sqrt(d)


def _ranges(
    axis: np.ndarray, x: np.ndarray, r: float, strict: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Index ranges [lo, hi) of the cells k with abs(axis[k] - x) <= r, per entry of x.

    With `strict` the test is < r.  Each range is contiguous because float
    subtraction is monotone, so it is counted over a band of offsets inside
    the searchsorted reach window, not over a matrix against the whole axis.
    """
    reach = r + 1e-9
    start = np.searchsorted(axis, x - reach, "left")
    stop = np.searchsorted(axis, x + reach, "right")
    cell = start[..., None] + np.arange(max(int((stop - start).max()), 1))
    diff = np.abs(axis[np.minimum(cell, len(axis) - 1)] - x[..., None])
    within = (cell < stop[..., None]) & ((diff < r) if strict else (diff <= r))
    lo = start + within.argmax(axis=-1)
    return lo, lo + within.sum(axis=-1)


@functools.lru_cache(maxsize=64)
def _exclusion_ranges(spacing: float, eps: float) -> tuple[tuple[int, ...], ...]:
    """Per index j of `_axis(spacing)`, the range [clo[j], chi[j]) of the k with
    abs(axis[k] - axis[j]) < eps.  Packings at one (spacing, eps) share it."""
    axis = _axis(spacing)
    clo, chi = _ranges(axis, axis, eps, strict=True)
    return tuple(clo.tolist()), tuple(chi.tolist())


def maximal_packing(
    region: ActiveRegion,
    metric: Metric,
    eps: float,
    spacing: float,
) -> list[Point]:
    """Greedy maximal eps-packing of a ball-union region over a lattice.

    Candidates are scanned in row-major order (lowest coordinates first);
    a candidate is accepted iff it lies in the region and is at distance
    >= eps from every previously accepted point.  The result is therefore
    a packing, and by maximality an eps-covering of every lattice candidate
    inside the region.

    No lattice array is built (see the module docstring): a cell is an
    index tuple into `_axis(spacing)`, and the sweep keeps one boolean per
    cell.  Under the absolute-value and L-infinity metrics, membership and
    each acceptance's exclusion set or clear a box of per-axis index ranges
    by slicing; under rescaled L2 they test distances within each ball's
    per-axis reach.  An exclusion starts at the accepted cell's own axis-0
    index, and a forward cursor finds the next eligible cell, since the
    sweep never returns to an earlier one.  The points and their order are
    exactly those of a whole-lattice scan.
    """
    if eps <= 0:
        raise GeometryError(f"packing radius must be positive, got {eps}")
    if spacing > eps / 4 + 1e-12:
        raise GeometryError(
            f"lattice spacing {spacing} too coarse for eps={eps}; need <= eps/4"
        )
    if not region.centers:
        return []
    d = metric.dimension
    axis = _axis(spacing)
    n = len(axis)

    centres = np.asarray(region.centers, dtype=float)
    if centres.shape[1:] != (d,):
        raise GeometryError(
            f"centre dimension mismatch: expected {d}, got shape {centres.shape}"
        )
    l2 = metric.kind == MetricKind.L2
    eligible = np.zeros((n,) * d, dtype=bool)
    if l2:
        reach = _reach(metric, region.radius)
        starts = np.searchsorted(axis, centres - reach, "left").tolist()
        stops = np.searchsorted(axis, centres + reach, "right").tolist()
        for c, start, stop in zip(centres.tolist(), starts, stops):
            window = tuple(map(slice, start, stop))
            eligible[window] |= _l2_window_distances(axis, window, c) <= region.radius
        # eps-windows per axis index, clipped at the cube's faces by searchsorted
        reach = _reach(metric, eps)
        lo = np.searchsorted(axis, axis - reach, "left").tolist()
        hi = np.searchsorted(axis, axis + reach, "right").tolist()
    else:
        starts, stops = _ranges(axis, centres, region.radius)
        for start, stop in zip(starts.tolist(), stops.tolist()):
            eligible[tuple(map(slice, start, stop))] = True
        lo, hi = _exclusion_ranges(spacing, eps)

    coords = axis.tolist()
    strides = [n**k for k in range(d - 1, -1, -1)]
    flat = eligible.reshape(-1)
    accepted: list[Point] = []
    i = 0
    while i < flat.size:
        i += int(flat[i:].argmax())
        if not flat[i]:
            break
        idx, rest = [], i
        for stride in strides:
            k, rest = divmod(rest, stride)
            idx.append(k)
        accepted.append(tuple([coords[k] for k in idx]))
        window = (slice(idx[0], hi[idx[0]]), *[slice(lo[k], hi[k]) for k in idx[1:]])
        if l2:
            eligible[window] &= _l2_window_distances(axis, window, accepted[-1]) >= eps
        else:
            eligible[window] = False
        i += 1
    return accepted
