"""Metric geometry on the unit cube: distances, ball regions and greedy packings.

The arm space is always [0,1]^d equipped with one of three metrics whose
diameter is at most 1.  Packings are built by a deterministic greedy sweep
over a finite lattice of candidate points; because a maximal packing is
automatically a covering, the returned points also cover every lattice
candidate inside the region to within the packing radius.

The sweep is windowed: a point within distance r of x lies within r (r*sqrt(d)
for the rescaled L2 metric) of x on every axis, so region membership and
greedy exclusion only evaluate distances to the lattice cells in an
axis-aligned index window around each ball.  Cells outside the window are
too far to change either decision, and cells inside it are tested with the
same `Metric.pairwise` formula on the same coordinates as a scan over the
whole lattice, so the packing is exactly the full scan's.
"""

from __future__ import annotations

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


def _window_distances(
    grid: np.ndarray, window: tuple[slice, ...], point: np.ndarray, metric: Metric
) -> np.ndarray:
    """Distances from `point` to the lattice cells of `window`, shaped like it."""
    pts = grid[window]
    dist = metric.pairwise(pts.reshape(-1, pts.shape[-1]), point)
    return dist.reshape(pts.shape[:-1])


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

    Only distances inside index windows are evaluated.  Membership ORs,
    for each centre, the closed-ball test over the cells within the ball's
    per-axis reach; each acceptance clears the eligible cells closer than
    eps within its eps-reach, from its own axis-0 index on, and a forward
    cursor finds the next eligible cell, since the sweep never returns to
    an earlier one.  Cells outside a window are out of reach on some axis
    or already ineligible, and cells inside are tested with the same
    `Metric.pairwise` values as a whole-lattice scan, so the points and
    their order are exactly that scan's.
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
    grid = lattice(d, spacing)
    axis = _axis(spacing)
    grid = grid.reshape((len(axis),) * d + (d,))

    centres = np.asarray(region.centers, dtype=float)
    if centres.shape[1:] != (d,):
        raise GeometryError(
            f"centre dimension mismatch: expected {d}, got shape {centres.shape}"
        )
    reach = _reach(metric, region.radius)
    starts = np.searchsorted(axis, centres - reach, "left").tolist()
    stops = np.searchsorted(axis, centres + reach, "right").tolist()
    eligible = np.zeros(grid.shape[:-1], dtype=bool)
    for c, start, stop in zip(centres, starts, stops):
        window = tuple(map(slice, start, stop))
        eligible[window] |= _window_distances(grid, window, c, metric) <= region.radius

    # eps-windows per axis index, clipped at the cube's faces by searchsorted
    reach = _reach(metric, eps)
    lo = np.searchsorted(axis, axis - reach, "left").tolist()
    hi = np.searchsorted(axis, axis + reach, "right").tolist()
    flat = eligible.reshape(-1)
    accepted: list[Point] = []
    i = 0
    while i < flat.size:
        i += int(flat[i:].argmax())
        if not flat[i]:
            break
        idx = np.unravel_index(i, eligible.shape)
        p = grid[idx]
        accepted.append(tuple(p.tolist()))
        window = (slice(idx[0], hi[idx[0]]),)
        window += tuple(slice(lo[k], hi[k]) for k in idx[1:])
        eligible[window] &= _window_distances(grid, window, p, metric) >= eps
        i += 1
    return accepted
