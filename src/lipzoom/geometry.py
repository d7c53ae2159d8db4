"""Metric geometry on the unit cube: distances, ball regions and greedy packings.

The arm space is always [0,1]^d equipped with one of three metrics whose
diameter is at most 1.  Packings are built by a deterministic greedy sweep
over a finite lattice of candidate points; because a maximal packing is
automatically a covering, the returned points also cover every lattice
candidate inside the region to within the packing radius.
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
        diff = np.abs(a[:, None, :] - b[None, :, :])
        if self.kind == MetricKind.LINF or self.kind == MetricKind.ABSOLUTE:
            return diff.max(axis=2)
        return np.sqrt((diff * diff).sum(axis=2)) / np.sqrt(self.dimension)


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

    def contains(self, p: Point, metric: Metric) -> bool:
        return any(metric.distance(c, p) <= self.radius for c in self.centers)

    def contains_many(self, pts: np.ndarray, metric: Metric) -> np.ndarray:
        if not self.centers:
            return np.zeros(len(pts), dtype=bool)
        d = metric.pairwise(pts, np.asarray(self.centers, dtype=float))
        return (d <= self.radius).any(axis=1)


def lattice(dimension: int, spacing: float) -> np.ndarray:
    """Row-major lattice over [0,1]^d with the given spacing.

    Axis values are k*spacing for k = 0..floor(1/spacing); 1.0 is appended
    when the last multiple falls short of it.
    """
    if spacing <= 0:
        raise GeometryError(f"lattice spacing must be positive, got {spacing}")
    n = int(np.floor(1.0 / spacing + 1e-12))
    axis = np.arange(n + 1) * spacing
    if axis[-1] < 1.0 - 1e-12:
        axis = np.append(axis, 1.0)
    axis = np.minimum(axis, 1.0)
    grids = np.meshgrid(*([axis] * dimension), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, dimension)


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
    """
    if eps <= 0:
        raise GeometryError(f"packing radius must be positive, got {eps}")
    if spacing > eps / 4 + 1e-12:
        raise GeometryError(
            f"lattice spacing {spacing} too coarse for eps={eps}; need <= eps/4"
        )
    if not region.centers:
        return []
    cand = lattice(metric.dimension, spacing)
    mask = region.contains_many(cand, metric)
    cand = cand[mask]
    if len(cand) == 0:
        return []
    eligible = np.ones(len(cand), dtype=bool)
    accepted: list[Point] = []
    while eligible.any():
        i = int(np.argmax(eligible))
        accepted.append(tuple(float(v) for v in cand[i]))
        d = metric.pairwise(cand, cand[i : i + 1])[:, 0]
        eligible &= d >= eps
    return accepted
