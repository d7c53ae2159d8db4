"""Metric geometry on the unit cube: distances, ball regions, greedy packings
and the zooming activation cover.

The arm space is always [0,1]^d with the L-infinity metric, |.| when
d = 1, of diameter 1.  Packings are built by a deterministic greedy sweep
over a finite lattice of candidate points; because a maximal packing is
automatically a covering, the returned points also cover every lattice
candidate inside the region to within the packing radius.

Every lattice is dyadic, spacing 1/n with n = 2^p, so coordinate k is
exactly k/n and two coordinates differ by exactly |k - j|/n.  Under
L-infinity a distance is at most r, or below eps, exactly when every axis
difference is, so the lattice cells of a ball form a box: one contiguous
range of per-axis indices per axis.  About a lattice cell j the box is
`_cells_within`, the cells with |k - j| <= w, found by no search.  A
ball of radius r <= 1 about a cell is the box w = floor(r n), and the
packing's region balls, its exclusion and the cover's balls are such
boxes; the packing's region centres must therefore be lattice cells.  No
lattice array is built: a cell is an index tuple into the per-axis
coordinates, and the cover holds each of its boxes as one Python int, a bit
per row-major cell.  Sizes are checked as `not x > 0`, which rejects NaN too.
"""

from __future__ import annotations

import functools
import math
import operator
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
    """Union of closed balls with a shared radius about finite centres of one length."""

    centers: tuple[Point, ...]
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise GeometryError(f"radius must be positive, got {self.radius}")
        # tuples all the way down: a region is immutable and hashable, and
        # equal centres compare equal whether given as lists or tuples
        centers = tuple(map(tuple, self.centers))
        if any(len(c) != len(centers[0]) or not all(map(math.isfinite, c)) for c in centers):
            raise GeometryError("region centres must be finite and of one dimension")
        object.__setattr__(self, "centers", centers)

    @classmethod
    def whole_space(cls, dimension: int) -> "ActiveRegion":
        # one ball of radius >= diameter centered anywhere covers [0,1]^d; the
        # origin is a cell of every lattice, n = 1 included
        return cls((tuple([0.0] * dimension),), 1.0)

    def contains_many(self, pts: np.ndarray, metric: Metric) -> np.ndarray:
        if not self.centers:
            return np.zeros(len(pts), dtype=bool)
        d = metric.pairwise(pts, np.asarray(self.centers, dtype=float))
        return (d <= self.radius).any(axis=1)


def _axis(spacing: float) -> np.ndarray:
    """Lattice coordinates along one axis: k/n for k = 0..n, where spacing = 1/n
    and n = 2^p; any other spacing raises GeometryError."""
    if not spacing > 0:
        raise GeometryError(f"lattice spacing must be positive, got {spacing}")
    if not (spacing <= 1.0 and math.frexp(spacing)[0] == 0.5):
        raise GeometryError(
            f"lattice spacing must be 1/2^p for an integer p >= 0, got {spacing}")
    n = int(1.0 / spacing)
    return np.arange(n + 1) / n


def lattice(dimension: int, spacing: float) -> np.ndarray:
    """Row-major lattice over [0,1]^d with spacing 1/n, n = 2^p: axis values k/n, k = 0..n."""
    axis = _axis(spacing)
    grids = np.meshgrid(*([axis] * dimension), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, dimension)


def _cells_within(cells: list[int] | tuple[int, ...], w: int, n: int) -> tuple[slice, ...]:
    """The cells k with |k - j| <= w on every axis, j = `cells`, as one slice
    per axis of cells 0..n: max(0, j - w) to min(n, j + w) + 1, written
    without the max/min calls, which double its cost.  `maximal_packing`
    calls it once per region centre, and in d >= 3 once per acceptance too;
    `_Cover.set_radius` inlines the same clamps."""
    return tuple([slice(j - w if j > w else 0, j + w + 1 if j + w < n else n + 1)
                  for j in cells])


def _flat_cells(k: int, n: int, d: int) -> tuple[int, ...]:
    """The per-axis cells of row-major flat index k over (n + 1)^d lattice cells."""
    cells = []
    for _ in range(d):
        k, j = divmod(k, n + 1)
        cells.append(j)
    return tuple(cells[::-1])


def _exclusion_width(eps: float, spacing: float) -> int:
    """The w with |k - j| * spacing < eps exactly when |k - j| <= w: spacing
    is a power of two, so the test is |k - j| < eps / spacing, exactly."""
    return math.ceil(min(eps, 2.0) / spacing) - 1  # any eps past the diameter excludes all


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
    inside the region.  Every region centre must be a lattice cell, with
    the metric's dimension; any other centre raises GeometryError.

    No lattice array is built (see the module docstring): a cell is an
    index tuple into `_axis(spacing)`, and the sweep keeps one boolean per
    cell.  Membership sets each centre's box, `_cells_within` w =
    int(min(radius, 1) * n), and each acceptance clears its exclusion,
    `_cells_within` w = `_exclusion_width(eps, spacing)`.
    A forward cursor finds the next eligible cell, since the sweep never
    returns to an earlier one, so only the exclusion past the cursor is
    written.  In 1-D that is none of it: the cursor jumps the w cells
    after the accepted one.  In 2-D the cursor jumps the accepted row's
    excluded cells, up to the row's end, and one slice write clears the
    rows below.  In d >= 3 each acceptance clears its whole box.  The
    points and their order are exactly those of a whole-lattice scan.
    """
    if not eps > 0:
        raise GeometryError(f"packing radius must be positive, got {eps}")
    coords = _axis(spacing).tolist()
    if 4 * spacing > eps:
        raise GeometryError(
            f"lattice spacing {spacing} too coarse for eps={eps}; need <= eps/4"
        )
    if not region.centers:
        return []
    d = metric.dimension
    if len(region.centers[0]) != d:  # the region's centres share one length
        raise GeometryError(f"centre dimension mismatch: expected {d}, "
                            f"got {len(region.centers[0])}")
    n = len(coords) - 1
    cells = np.asarray(region.centers, dtype=float) * n  # exact: n = 2^p
    if not ((cells >= 0) & (cells <= n) & (cells == np.floor(cells))).all():
        raise GeometryError(f"region centres must be cells of the 1/{n} lattice")
    eligible = np.zeros((n + 1,) * d, dtype=bool)
    ball = int(min(region.radius, 1.0) * n)  # |k - j| / n <= radius, exactly
    for j in cells.astype(int).tolist():
        eligible[_cells_within(j, ball, n)] = True
    w = _exclusion_width(eps, spacing)

    flat = eligible.reshape(-1)
    accepted: list[Point] = []
    i = 0
    while i < flat.size:
        i += int(flat[i:].argmax())
        if not flat[i]:
            break
        if d == 1:
            accepted.append((coords[i],))
            i += w + 1
        elif d == 2:
            r, c = divmod(i, n + 1)
            accepted.append((coords[r], coords[c]))
            eligible[r:r + w + 1, c - w if c > w else 0:c + w + 1] = False
            i += w + 1 if c + w < n else n + 1 - c
        else:
            idx = _flat_cells(i, n, d)
            accepted.append(tuple([coords[k] for k in idx]))
            eligible[_cells_within(idx, w, n)] = False
            i += 1
    return accepted


@functools.cache  # one entry per (n, d) a process uses
def _row_repeats(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Per axis of the (n + 1)^d row-major cells, the prefix sums P[j] of
    2^(k s) over k < j, j = 0..n + 1, where s = (n + 1)^(d - 1 - axis) is
    the axis's stride in bits.  P[b + 1] - P[a] holds one bit per cell a..b
    of the axis, at stride s; on the last axis, s = 1, it is the bit range
    a..b, and on any other it repeats a mask narrower than s on those cells.
    """
    repeats = []
    for axis in range(d):
        stride, prefix = (n + 1) ** (d - 1 - axis), [0]
        for k in range(n + 1):
            prefix.append(prefix[-1] | 1 << k * stride)
        repeats.append(tuple(prefix))
    return tuple(repeats)


class _Cover:
    """Zooming activation lattice, each ball one bit mask of the candidates it covers.

    The lattice is `_axis(1/n)` with n = 512 in 1-D and 64 otherwise, and
    bit k of a mask is candidate k in row-major order.  Ball i is centred on
    `centres[i]`, the i-th activated candidate, at cells `_cells[i]`.  Its
    candidates within r are the box `_cells_within(_cells[i], w, n)`, w =
    int(min(r, 1) * n), and `masks[i]` is that box: the bit range of its
    cells on the last axis, multiplied by each other axis's row repeat
    (`_row_repeats`).  The product has no carries, since each partial mask
    is narrower than the next axis's stride.  Ball i also keeps its band
    `bands[i] = (lo, hi)`: the largest axis distance inside the box and the
    smallest outside it (inf when the box spans the whole lattice on every
    axis).  A new radius in [lo, hi) keeps the box, so `set_radius` returns
    at once; it returns the band, which lets the classical baseline skip the
    call while its played arm's radius stays inside.

    Only a shrinking move uncovers a candidate.  `pending` collects the
    candidates each such move drops, so every uncovered candidate is in it.
    `activate` returns None at once when nothing is pending; otherwise it
    opens the lowest pending bit that no mask holds, the first uncovered
    candidate in row-major order, and clears `pending`, since the new
    radius-1 ball covers every candidate.
    """

    def __init__(self, dimension: int):
        self.n = 512 if dimension == 1 else 64
        self.coords = _axis(1.0 / self.n).tolist()
        self._repeats = _row_repeats(self.n, dimension)
        self._all = (1 << (self.n + 1) ** dimension) - 1  # every candidate
        self.masks: list[int] = []
        self.pending = self._all  # with no ball, every candidate is uncovered
        self.centres: list[Point] = []
        self._cells: list[tuple[int, ...]] = []
        self._reach: list[int] = []  # cells from the centre to the farthest face
        self.bands: list[tuple[float, float]] = []

    def activate(self) -> Point | None:
        """Open a radius-1 ball on the first uncovered candidate and return it, or None."""
        free = self.pending
        if not free:
            return None
        self.pending = 0  # every candidate is covered after this call
        free &= ~functools.reduce(operator.or_, self.masks, 0)
        if not free:
            return None
        k = (free & -free).bit_length() - 1  # the lowest set bit
        cells = _flat_cells(k, self.n, len(self._repeats))
        centre = tuple([self.coords[j] for j in cells])
        reach = max(max(j, self.n - j) for j in cells)
        self.centres.append(centre)
        self._cells.append(cells)
        self._reach.append(reach)
        # radius 1 spans the lattice, so the box is every candidate
        self.masks.append(self._all)
        self.bands.append((reach / self.n, math.inf))
        return centre

    def set_radius(self, i: int, r: float) -> tuple[float, float]:
        """Move ball i to radius r and return its band `(lo, hi)`, which holds
        any finite r.  A NaN or negative r raises GeometryError.
        """
        band = self.bands[i]
        if band[0] <= r < band[1]:
            return band
        if not r >= 0:
            raise GeometryError(f"radius must be non-negative, got {r}")
        n, reach = self.n, self._reach[i]
        w = int(min(r, 1.0) * n)
        if w >= reach:
            w, hi = reach, math.inf
        else:
            hi = (w + 1) / n
        lo = w / n
        self.bands[i] = (lo, hi)
        if lo != band[0]:  # lo is the box's half-width in cells over n
            # per axis, the cells of `_cells_within`, with its clamps inlined
            mask = 1
            for j, repeat in zip(self._cells[i], self._repeats):
                mask *= repeat[j + w + 1 if j + w < n else n + 1] - repeat[j - w if j > w else 0]
            if lo < band[0]:  # the new box lies inside the old: ^ is what it drops
                self.pending |= self.masks[i] ^ mask
            self.masks[i] = mask
        return lo, hi
