"""Near-optimal sets, zooming numbers, dimension fits and audit hooks."""

import math
import tracemalloc

import numpy as np
import pytest

from lipzoom.algorithms import EstimateRecord, StageAudit
from lipzoom.diagnostics import (
    _greedy_cover_count,
    _interval_cover_count,
    audit_clean_event,
    audit_qlae_lemmas,
    audit_qzooming_lemma,
    audit_qzooming_selected,
    fit_zooming_dimension,
    near_optimal_set,
    zooming_number,
)
from lipzoom.environment import (
    REWARD_FACTORIES,
    RewardModel,
    sine_model,
    triangle_model,
    twodim_model,
)
from lipzoom.geometry import Metric, _axis, lattice
from lipzoom.harness import ExperimentConfig, run_single


def test_near_optimal_set_triangle():
    # 0.2 <= 0.95|x - 1/3| < 0.4 gives two bands flanking the peak
    model = triangle_model()
    pts = near_optimal_set(model, 0.2)
    lo, hi = 0.2 / 0.95, 0.4 / 0.95
    for (x,) in pts:
        assert lo - 1e-9 <= abs(x - 1 / 3) < hi + 1e-9
    # both sides of the peak are populated
    assert any(x < 1 / 3 for (x,) in pts) and any(x > 1 / 3 for (x,) in pts)


def test_near_optimal_set_validation():
    with pytest.raises(ValueError):
        near_optimal_set(triangle_model(), 0.0)


def test_zooming_number_triangle_matches_interval_oracle():
    model = triangle_model()
    r = 0.2
    n = zooming_number(model, r, divisor=3)
    # independent oracle: the set is two intervals |x - 1/3| in [r, 2r)/0.95
    # clipped to [0,1]; balls of radius r/3 (diameter 2r/3) cover an interval
    # of length L in ceil(L / (2r/3)) pieces
    peak, slope = 1 / 3, 0.95
    left_len = (peak - r / slope) - max(0.0, peak - 2 * r / slope)
    right_len = min(1.0, peak + 2 * r / slope) - (peak + r / slope)
    width = 2 * r / 3
    expect = math.ceil(left_len / width - 1e-9) + math.ceil(right_len / width - 1e-9)
    assert n == expect


def test_zooming_number_zero_when_set_empty():
    # constant reward: every gap is 0, so X_r is empty for r > 0
    model = RewardModel(lambda x: 0.5, 0.0, 0.5, (0.0,))
    assert zooming_number(model, 0.25) == 0


def test_zooming_number_divisor_validation():
    with pytest.raises(ValueError, match="^divisor must be one of 2, 3, 14, 16, got 5$"):
        zooming_number(triangle_model(), 0.2, divisor=5)


def test_zooming_number_2d_greedy_upper_bound():
    n = zooming_number(twodim_model(), 0.25, divisor=3)
    assert n >= 1


# --- windowed lazy greedy cover against the dense greedy ---

def _reference_greedy_cover_count(
    pts: np.ndarray, metric: Metric, radius: float, cand_cap: int = 2048
) -> int:
    """Greedy set cover: centers restricted to the points themselves.

    Candidate centers are subsampled to at most `cand_cap` to bound the
    coverage matrix; any point the subsample cannot reach gets itself as a
    center, so the result is always a valid cover count (an upper bound on
    the optimum, as for plain greedy).
    """
    n = len(pts)
    stride = max(1, -(-n // cand_cap))
    cand = np.arange(0, n, stride)
    cover = np.zeros((len(cand), n), dtype=bool)
    for lo in range(0, len(cand), 256):
        sel = cand[lo:lo + 256]
        cover[lo:lo + len(sel)] = metric.pairwise(pts[sel], pts) <= radius
    uncovered = np.ones(n, dtype=bool)
    count = 0
    while uncovered.any():
        gains = (cover & uncovered[None, :]).sum(axis=1)
        best = int(np.argmax(gains))
        if gains[best] == 0:
            j = int(np.argmax(uncovered))
            uncovered &= ~(metric.pairwise(pts[j:j + 1], pts)[0] <= radius)
        else:
            uncovered &= ~cover[best]
        count += 1
    return count


@pytest.mark.parametrize("cand_cap", [16, 64, 2048])
@pytest.mark.parametrize("metric,spacings,divisors", [
    (Metric(2), (16, 32, 48), (2, 3, 14, 16)),
    # coarser lattices keep the dense reference cheap; smaller divisors keep
    # several points in each ball
    (Metric(3), (6, 8, 12), (1, 2, 3)),
], ids=["linf", "linf3d"])
def test_greedy_cover_matches_reference_on_lattice_subsets(metric, spacings, divisors, cand_cap):
    # the cover ANDs one test per axis; the reference thresholds pairwise
    dimension = metric.dimension
    rng = np.random.default_rng(cand_cap)
    for case in range(20):
        # row-major lattice subsets, as near_optimal_set returns them: a
        # random annulus around a random peak, thinned at random
        spacing = 1 / int(rng.choice(spacings))
        cand = lattice(dimension, spacing)
        peak = rng.random(dimension)
        dist = metric.pairwise(cand, peak)[:, 0]
        r = float(rng.uniform(0.05, 0.4))
        keep = (dist >= r) & (dist < 2 * r) & (rng.random(len(cand)) < 0.9)
        pts = cand[keep]
        if not len(pts):
            continue
        radius = r / int(rng.choice(divisors))
        want = _reference_greedy_cover_count(pts, metric, radius, cand_cap)
        assert _greedy_cover_count(pts, radius, cand_cap) == want, case
        # the same set in another row order: the candidate subsample and the
        # fallback follow row order, so the reference sees the same rows
        shuffled = pts[np.random.default_rng([cand_cap, case]).permutation(len(pts))]
        want = _reference_greedy_cover_count(shuffled, metric, radius, cand_cap)
        assert _greedy_cover_count(shuffled, radius, cand_cap) == want, ("shuffled", case)


def test_greedy_cover_zero_gain_fallback():
    # one candidate centre (the first point) reaches only itself, so the
    # second point can only be covered by the zero-gain fallback
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    metric = Metric(2)
    assert _reference_greedy_cover_count(pts, metric, 0.1, cand_cap=1) == 2
    assert _greedy_cover_count(pts, 0.1, cand_cap=1) == 2


def test_greedy_cover_memory_stays_within_ball_windows():
    # twodim at r = 1/4: 24026 points and 2003 candidates; a dense
    # (candidates x points) coverage matrix alone would take 48 MB
    model = twodim_model()
    pts = near_optimal_set(model, 0.25)
    tracemalloc.start()
    try:
        _greedy_cover_count(pts, 1 / 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    # the cover holds one grid over the 257^2 lattice cells, not a mask per candidate
    assert peak < 6e6


def _reference_interval_cover_count(xs: np.ndarray, radius: float) -> int:
    """Sweep from the left with the abs test: the leftmost uncovered point's
    rightmost centre within radius, then drop every point within radius of it."""
    pts = sorted(xs.tolist())
    uncovered = pts
    count = 0
    while uncovered:
        centre = max(x for x in pts if abs(x - uncovered[0]) <= radius)
        uncovered = [x for x in uncovered if not abs(x - centre) <= radius]
        count += 1
    return count


def test_interval_cover_uses_the_abs_test():
    # 0.4 - 0.3 is 0.10000000000000003, so the ball around 0.3 excludes 0.4
    assert _interval_cover_count(np.arange(11) / 10, 0.1) == 5
    rng = np.random.default_rng(5)
    for case in range(300):
        xs = _axis(1 / float(rng.choice([10, 16, 5.5, 30, 64])))
        xs = xs[rng.random(len(xs)) < rng.uniform(0.3, 1.0)]
        if not len(xs):
            continue
        # radii at exact point distances, where the rounding decides, and between
        radius = float(rng.choice([abs(float(rng.choice(xs)) - float(rng.choice(xs))),
                                   rng.uniform(0.0, 0.3)]))
        want = _reference_interval_cover_count(xs, radius)
        assert _interval_cover_count(rng.permutation(xs), radius) == want, (case, radius)


# every lipzoom dim profile: counts at r = 1/4 ... 1/128, then the fitted
# dimension and residual as dim prints them
DIM_PROFILES = {
    ("triangle", 2): ((3, 4, 4, 4, 4, 4), "0.0593", "0.0810"),
    ("triangle", 3): ((3, 4, 4, 4, 4, 4), "0.0593", "0.0810"),
    ("triangle", 14): ((10, 16, 16, 16, 16, 16), "0.0969", "0.1324"),
    ("triangle", 16): ((12, 18, 18, 18, 16, 16), "0.0447", "0.1334"),
    ("sine", 2): ((3, 2, 2, 4, 4, 6), "0.2571", "0.2530"),
    ("sine", 3): ((4, 4, 4, 4, 6, 8), "0.1930", "0.1475"),
    ("sine", 14): ((14, 10, 14, 18, 24, 35), "0.3075", "0.1820"),
    ("sine", 16): ((15, 12, 16, 20, 26, 35), "0.2794", "0.1368"),
    ("twodim", 2): ((17, 26, 26, 20, 15, 9), "0.0000", "0.2667"),
    ("twodim", 3): ((37, 56, 50, 53, 34, 51), "0.0068", "0.1892"),
    # at r <= 1/32 the balls of radius r/14 and r/16 are narrower than the
    # 1/256 lattice, so each covers one point and the count is |X_r|
    ("twodim", 14): ((634, 922, 528, 770, 193, 51), "0.0000", "0.5844"),
    ("twodim", 16): ((634, 922, 528, 770, 193, 51), "0.0000", "0.5844"),
}


@pytest.mark.parametrize("reward,divisor", list(DIM_PROFILES), ids=str)
def test_fit_dimension_profiles_pinned(reward, divisor):
    counts, dim, resid = DIM_PROFILES[reward, divisor]
    model = REWARD_FACTORIES[reward]()
    prof = fit_zooming_dimension(model, divisor)
    assert prof.counts == counts
    # N_z(r) asked for at one radius reads the fit's lattice: one rule
    assert tuple(zooming_number(model, r, divisor) for r in prof.radii) == counts
    assert (f"{prof.fitted_dimension:.4f}", f"{prof.fit_residual:.4f}") == (dim, resid)


def test_zooming_number_2d_calls_no_pairwise(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the cover must build its masks without pairwise")

    monkeypatch.setattr(Metric, "pairwise", refuse)
    assert zooming_number(twodim_model(), 0.125, divisor=3) >= 1


def test_fit_dimension_triangle_small():
    prof = fit_zooming_dimension(triangle_model())
    assert prof.fitted_dimension <= 0.2
    assert len(prof.radii) == len(prof.counts)


def test_fit_dimension_divisors_agree():
    dims = {}
    for div in (2, 3, 14):
        dims[div] = fit_zooming_dimension(triangle_model(), divisor=div).fitted_dimension
    vals = list(dims.values())
    assert max(vals) - min(vals) <= 0.15


def test_fit_dimension_sine():
    prof = fit_zooming_dimension(sine_model())
    assert prof.fitted_dimension <= 0.3  # single smooth peak, near zero


def test_fit_dimension_degenerate_counts():
    model = RewardModel(lambda x: 0.5, 0.0, 0.5, (0.0,))
    prof = fit_zooming_dimension(model)
    assert prof.fitted_dimension == 0.0


def test_audit_clean_event_counting():
    recs = [
        EstimateRecord(1, (0.5,), 0.1, 0.52, 0.5),   # within
        EstimateRecord(1, (0.5,), 0.1, 0.75, 0.5),   # violation
        EstimateRecord(2, (0.5,), 0.0625, 0.5625, 0.5),  # boundary: within
    ]
    rep = audit_clean_event(recs)
    assert rep.total == 3 and rep.violations == 1
    assert rep.fraction == pytest.approx(1 / 3)
    assert audit_clean_event([]).fraction == 0.0


def test_audit_qlae_detects_gap_violation():
    model = triangle_model()
    good = StageAudit(1, (((1 / 3,), 1.0),), (((1 / 3,), 0.5),))
    bad = StageAudit(5, (((1.0,), 1 / 16),), (((1 / 3,), 1 / 32),))
    rep = audit_qlae_lemmas([good, bad], model)
    assert rep.gap_violations == 1  # gap(1.0) = 0.633 > 7/16
    assert rep.survival_misses == 0


def test_audit_qlae_detects_survival_miss():
    model = triangle_model()
    audit = StageAudit(4, (((0.9,), 1 / 8),), (((0.9,), 1 / 16),))
    rep = audit_qlae_lemmas([audit], model)
    assert rep.survival_misses == 1


def test_audit_qlae_survival_is_inclusive_at_eps():
    # 0.5625 - 0.5 is exactly 1/16: a survivor eps_m from x* is no miss
    model = RewardModel(lambda x: 0.5, 0.0, 0.5, (0.5,))
    on_edge = StageAudit(4, (), (((0.5625,), 1 / 16), ((0.0,), 1 / 16)))
    assert audit_qlae_lemmas([on_edge], model).survival_misses == 0
    past_edge = StageAudit(4, (), (((0.5625,), 1 / 32),))
    assert audit_qlae_lemmas([on_edge, past_edge], model).survival_misses == 1


def _reference_survival_misses(stage_audits, x_star) -> int:
    """Stages whose survivors all lie farther than eps_m from x*, by numpy rows."""
    misses = 0
    for a in stage_audits:
        if a.survivors:
            pts = np.asarray([x for x, _ in a.survivors], dtype=float)
            near = np.abs(pts - np.asarray(x_star, dtype=float)).max(axis=1).min()
            misses += bool(near > a.survivors[0][1] + 1e-12)
    return misses


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_audit_qlae_survival_matches_numpy_reference(dimension):
    # even cases sit on a 1/64 lattice with a dyadic eps_m, so survivors often
    # lie exactly eps_m from x*; odd cases use arbitrary floats
    rng = np.random.default_rng(dimension)

    def points(n, on_lattice):
        shape = (n, dimension)
        return (rng.integers(0, 65, shape) / 64 if on_lattice else rng.random(shape)).tolist()

    stages = misses = 0
    for case in range(2000):
        on_lattice = case % 2 == 0
        x_star = tuple(points(1, on_lattice)[0])
        model = RewardModel(lambda x: 0.5, 0.0, 0.5, x_star, Metric(dimension))
        audits = []
        for stage in range(1, 4):
            eps = 2.0 ** -int(rng.integers(1, 6)) if on_lattice else float(rng.uniform(0, 0.5))
            survivors = points(int(rng.integers(0, 5)), on_lattice)
            audits.append(StageAudit(stage, (), tuple((tuple(x), eps) for x in survivors)))
        rep = audit_qlae_lemmas(audits, model)
        assert rep.survival_stages == sum(1 for a in audits if a.survivors), case
        assert rep.survival_misses == _reference_survival_misses(audits, x_star), case
        stages += rep.survival_stages
        misses += rep.survival_misses
    # both outcomes occur, so a wrong distance cannot pass by always agreeing
    assert 0 < misses < stages


def test_audit_qlae_lemmas_calls_no_pairwise(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the survival check must not call pairwise")

    cfg = ExperimentConfig(algorithm="qlae", reward="twodim", noise="bernoulli", T=20_000,
                           trials=1, master_seed=7, fault_injection=False, audits=True)
    res = run_single(cfg, 0)
    monkeypatch.setattr(Metric, "pairwise", refuse)
    rep = audit_qlae_lemmas(res.stage_audits, twodim_model())
    assert rep.survival_stages > 0 and rep.survival_misses == 0


def test_audit_qzooming_counts():
    model = triangle_model()
    audits = [StageAudit(3, (((1 / 3,), 0.25), ((1.0,), 0.125)))]
    rep = audit_qzooming_lemma(audits, model)
    assert rep.arms_checked == 2
    assert rep.gap_violations == 1  # gap(1.0) = 0.633 > 0.375


def test_audit_qzooming_selected_uses_prehalving_radius():
    model = triangle_model()
    # gap(1.0) = 0.633; eps recorded post-halving = 0.125 -> bound 0.75 holds
    recs = [EstimateRecord(3, (1.0,), 0.125, 0.2, model.mu((1.0,)))]
    assert audit_qzooming_selected(recs, model).gap_violations == 0
    recs = [EstimateRecord(6, (1.0,), 0.03, 0.2, model.mu((1.0,)))]
    assert audit_qzooming_selected(recs, model).gap_violations == 1
