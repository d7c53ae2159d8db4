"""Brute-force oracles and audits: near-optimal sets, zooming-number estimates,
dimension fits, clean-event and gap-bound lemma checks."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algorithms import EstimateRecord, StageAudit
from .environment import RewardModel
from .geometry import _axis


@dataclass(frozen=True)
class ZoomingProfile:
    radii: tuple[float, ...]
    counts: tuple[int, ...]
    fitted_dimension: float
    fit_residual: float


@dataclass(frozen=True)
class CleanEventReport:
    total: int
    violations: int

    @property
    def fraction(self) -> float:
        return self.violations / self.total if self.total else 0.0


@dataclass(frozen=True)
class LemmaReport:
    """Gap-bound audit: arms checked, bound violations, optimal-survival misses."""

    arms_checked: int
    gap_violations: int
    survival_stages: int
    survival_misses: int


# the d that zooming_number accepts: it covers the set with cells of side 2r/d
DIVISORS = (2, 3, 14, 16)


@lru_cache(maxsize=1)
def _lattice_gaps(model: RewardModel) -> tuple[np.ndarray, np.ndarray]:
    """The `dim` lattice's axis and the gap of each of its points, both read-only.

    Its spacing is 1/8192 on a line and 1/256 in more dimensions.  The gaps
    form a grid of the lattice's shape, one axis per dimension, so the point
    at index (i, j, ...) is (axis[i], axis[j], ...); no point array is
    built.  A dimension fit reads this one lattice at every radius, so its
    gaps are evaluated once.
    """
    dimension = model.metric.dimension
    axis = _axis(1.0 / 8192 if dimension == 1 else 1.0 / 256)
    shape = (len(axis),) * dimension
    # row-major, as np.ndindex(shape): the last coordinate varies fastest
    points = itertools.product(axis.tolist(), repeat=dimension)
    gaps = model.mu_many(points, math.prod(shape))
    np.subtract(model.mu_star, gaps, out=gaps)
    axis.flags.writeable = False
    gaps.flags.writeable = False
    return axis, gaps.reshape(shape)


def _band(model: RewardModel, r: float) -> tuple[np.ndarray, np.ndarray]:
    """The `dim` lattice's axis and a boolean grid of its points with gap in [r, 2r)."""
    if not (0 < r <= 1):
        raise ValueError(f"r must be in (0,1], got {r}")
    axis, gaps = _lattice_gaps(model)
    mask = np.greater_equal(gaps, r)
    mask &= gaps < 2 * r
    return axis, mask


def near_optimal_set(model: RewardModel, r: float) -> np.ndarray:
    """`dim` lattice points with optimality gap in [r, 2r), an (n, d) array in row-major order."""
    axis, mask = _band(model, r)
    band = np.flatnonzero(mask)
    return axis[np.stack(np.unravel_index(band, mask.shape), axis=-1)]


def zooming_number(model: RewardModel, r: float, divisor: int = 3) -> int:
    """Count of radius-(r/divisor) balls covering the near-optimal set.

    The balls are the cells of side 2*r/divisor, floor(x / side) per axis,
    that hold a point of the set: each cell is the closed L-infinity ball of
    radius r/divisor about its centre.  So the count is a valid cover, at
    most 2^d times the smallest one with free centres.  The axis is sorted,
    so each cell's points form one block per axis of the band's boolean
    grid: a `reduceat` per axis ORs each block to one flag, and the count is
    the flags that are set.  No point's coordinates are built.
    """
    if divisor not in DIVISORS:
        raise ValueError(f"divisor must be one of {', '.join(map(str, DIVISORS))}, "
                         f"got {divisor}")
    axis, occupied = _band(model, r)
    cells = axis / (2 * r / divisor)
    np.floor(cells, out=cells)
    starts = np.flatnonzero(np.r_[True, cells[1:] != cells[:-1]])  # each cell's first index
    for k in range(occupied.ndim):
        occupied = np.logical_or.reduceat(occupied, starts, axis=k)
    return int(np.count_nonzero(occupied))


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and intercept of y against x, in closed form."""
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    slope = float(np.sum(dx * (y - y_mean)) / np.sum(dx * dx))
    return slope, float(y_mean - slope * x_mean)


def fit_zooming_dimension(model: RewardModel, divisor: int = 3) -> ZoomingProfile:
    """Least-squares slope of log N_z(r) against log(1/r), clamped below at 0.

    The radii are 1/4 down to 1/128, on the `dim` lattice of `_lattice_gaps`.
    Radii with zero counts are dropped; fewer than four usable radii yield
    dimension 0 by convention.
    """
    radii = tuple(2.0 ** -k for k in range(2, 8))
    counts = tuple(zooming_number(model, r, divisor) for r in radii)
    rs = [r for r, c in zip(radii, counts) if c > 0]
    cs = [c for c in counts if c > 0]
    if len(cs) < 4:
        return ZoomingProfile(radii, counts, 0.0, 0.0)
    x = np.log(1.0 / np.asarray(rs))
    y = np.log(np.asarray(cs, dtype=float))
    slope, intercept = _line_fit(x, y)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return ZoomingProfile(radii, counts, max(0.0, slope), resid)


def audit_clean_event(records: list[EstimateRecord]) -> CleanEventReport:
    """Fraction of estimates violating |estimate - true_mean| <= eps."""
    violations = sum(1 for r in records if abs(r.estimate - r.true_mean) > r.eps)
    return CleanEventReport(len(records), violations)


def _gap_bound_count(model: RewardModel, arms, k: float) -> tuple[int, int]:
    """(checked, violations) over (x, r) pairs, a violation being gap(x) > k * r."""
    flags = [model.gap(x) > k * r + 1e-12 for x, r in arms]
    return len(flags), sum(flags)


def audit_qlae_lemmas(stage_audits: list[StageAudit], model: RewardModel) -> LemmaReport:
    """Check the elimination run's gap bound and optimal-arm survival.

    Every active arm at stage m must satisfy gap <= 7 * eps_{m-1}; after
    every completed elimination some survivor must lie within eps_m of the
    optimizer.  Stages with no recorded survivors (interrupted by the
    horizon) are skipped for the survival check.  Distances are L-infinity:
    the largest per-axis `abs` difference, the float `Metric.pairwise` gives.
    """
    checked, gap_viol = _gap_bound_count(model, (arm for a in stage_audits for arm in a.arms), 7.0)
    surv_stages = surv_miss = 0
    for a in stage_audits:
        if a.survivors:
            surv_stages += 1
            near = min(max(abs(xk - sk) for xk, sk in zip(x, model.x_star))
                       for x, _ in a.survivors)
            eps_m = a.survivors[0][1]
            if near > eps_m + 1e-12:
                surv_miss += 1
    return LemmaReport(checked, gap_viol, surv_stages, surv_miss)


def audit_qzooming_selected(
    records: list[EstimateRecord], model: RewardModel
) -> LemmaReport:
    """Gap bound restricted to the arm actually selected at each stage.

    Each estimate record belongs to the selected arm and carries its
    post-halving radius, so the previous-stage radius is twice that.  This
    is the form the selection rule directly guarantees; the all-arms check
    in audit_qzooming_lemma is strictly stronger and can fail for arms
    whose radius was halved after their last selection.
    """
    checked, gap_viol = _gap_bound_count(model, ((r.point, 2.0 * r.eps) for r in records), 3.0)
    return LemmaReport(checked, gap_viol, 0, 0)


def audit_qzooming_lemma(
    stage_audits: list[StageAudit], model: RewardModel
) -> LemmaReport:
    """Count active arms with gap > 3x their current radius, at every stage.

    This is the current-radius form, which the selection rule does not
    imply: an arm's radius halves right after it is selected, so a clean
    run can have violations.  The form the rule guarantees is checked by
    audit_qzooming_selected.
    """
    checked, gap_viol = _gap_bound_count(model, (arm for a in stage_audits for arm in a.arms), 3.0)
    return LemmaReport(checked, gap_viol, 0, 0)
