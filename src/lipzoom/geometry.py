"""Metric geometry on the unit cube: distances, ball regions and greedy packings.

The arm space is always [0,1]^d with the L-infinity metric, |.| when
d = 1, of diameter 1.  Packings are built by a deterministic greedy sweep
over a finite lattice of candidate points; because a maximal packing is
automatically a covering, the returned points also cover every lattice
candidate inside the region to within the packing radius.

Under L-infinity a distance is at most r, or below eps, exactly when every
axis difference is, so the lattice cells of a ball form a box: one
contiguous range of per-axis indices per axis.  `_box_range` is the one rule
for that range; it compares the differences `Metric.pairwise` computes on
the same coordinates, so a box holds exactly the cells a distance scan
accepts.  The packing sweep builds no lattice array: a cell is an index
tuple into the per-axis coordinates, and region membership and greedy
exclusion set or clear boxes of one boolean per cell.  The zooming cover
(`algorithms._Cover`) keeps each of its balls as a box too, but builds it
without `box`: its lattice spacing is 1/n with n a power of two and its
centres are lattice points, so every coordinate is exactly k/n, every axis
difference is exactly |k - j|/n, and the box is the cells with
|k - j| <= int(min(r, 1) * n), found by no search.  `box` stays the rule
for centres that need not sit on the lattice searched, as in the packing.
Sizes are checked as `not x > 0`, which rejects NaN too.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np

Point = tuple[float, ...]


class GeometryError(ValueError):
    """Invalid geometric input (dimension mismatch, bad lattice, ...)."""


@dataclass(frozen=True)
class Metric:
    """max_i |a_i - b_i| on [0,1]^d, which is |a - b| when d = 1."""

    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise GeometryError(f"dimension must be positive, got {self.dimension}")

    def distance(self, a: Point, b: Point) -> float:
        if len(a) != self.dimension or len(b) != self.dimension:
            raise GeometryError(
                f"point dimension mismatch: expected {self.dimension}, "
                f"got {len(a)} and {len(b)}"
            )
        diff = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
        return float(diff.max())

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Distance matrix between rows of `a` (n,d) and rows of `b` (m,d)."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        if a.shape[1:] != (self.dimension,) or b.shape[1:] != (self.dimension,):
            raise GeometryError(
                f"point dimension mismatch: expected {self.dimension} columns, "
                f"got shapes {a.shape} and {b.shape}"
            )
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
        if not self.radius > 0:
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
    if not spacing > 0:
        raise GeometryError(f"lattice spacing must be positive, got {spacing}")
    axis = _axis(spacing)
    grids = np.meshgrid(*([axis] * dimension), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, dimension)


def _box_range(
    coords: list[float], x: float, r: float, strict: bool = False
) -> tuple[int, int]:
    """Index range [lo, hi) of the k with abs(coords[k] - x) <= r, or < r when strict.

    `coords` is sorted, and the range is contiguous because float
    subtraction is monotone: bisect the window within r of x, with slack
    for rounding, then step each end inward to the exact test.
    """
    def within(k: int) -> bool:
        diff = abs(coords[k] - x)
        return diff < r if strict else diff <= r

    reach = r + 1e-9
    lo = bisect.bisect_left(coords, x - reach)
    hi = bisect.bisect_right(coords, x + reach)
    while lo < hi and not within(lo):
        lo += 1
    while hi > lo and not within(hi - 1):
        hi -= 1
    return lo, hi


def box(coords: list[float], centre: Point, r: float) -> tuple[slice, ...]:
    """The lattice cells within r of `centre`: one slice of indices into `coords` per axis."""
    return tuple(slice(*_box_range(coords, x, r)) for x in centre)


@functools.lru_cache(maxsize=64)
def _exclusion_ranges(spacing: float, eps: float) -> tuple[tuple[int, ...], ...]:
    """The pair (lo, hi) over `axis = _axis(spacing)`, where [lo[j], hi[j])
    holds the k with abs(axis[k] - axis[j]) < eps: the strict `_box_range`
    of every axis value.  Packings at one (spacing, eps) share it."""
    axis = _axis(spacing).tolist()
    return tuple(zip(*(_box_range(axis, x, eps, strict=True) for x in axis)))


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
    cell.  Membership sets each centre's box and each acceptance clears
    its eps-exclusion box, both by slicing.  An exclusion starts at the
    accepted cell's own axis-0 index, and a forward cursor finds the next
    eligible cell, since the sweep never returns to an earlier one.  The
    points and their order are exactly those of a whole-lattice scan.
    """
    if not eps > 0:
        raise GeometryError(f"packing radius must be positive, got {eps}")
    if not spacing > 0:
        raise GeometryError(f"lattice spacing must be positive, got {spacing}")
    if spacing > eps / 4 + 1e-12:
        raise GeometryError(
            f"lattice spacing {spacing} too coarse for eps={eps}; need <= eps/4"
        )
    if not region.centers:
        return []
    d = metric.dimension
    centres = np.asarray(region.centers, dtype=float)
    if centres.shape[1:] != (d,):
        raise GeometryError(
            f"centre dimension mismatch: expected {d}, got shape {centres.shape}"
        )
    coords = _axis(spacing).tolist()
    n = len(coords)
    eligible = np.zeros((n,) * d, dtype=bool)
    for c in centres.tolist():
        eligible[box(coords, c, region.radius)] = True
    lo, hi = _exclusion_ranges(spacing, eps)

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
        eligible[(slice(idx[0], hi[idx[0]]), *[slice(lo[k], hi[k]) for k in idx[1:]])] = False
        i += 1
    return accepted
