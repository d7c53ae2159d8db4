"""Near-optimal sets, zooming numbers, dimension fits and audit hooks."""

import math
import tracemalloc

import numpy as np
import pytest

from lipzoom import diagnostics
from lipzoom.algorithms import EstimateRecord, StageAudit
from lipzoom.diagnostics import (
    DIVISORS,
    _lattice_gaps,
    _line_fit,
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
from lipzoom.geometry import Metric, lattice
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


@pytest.mark.parametrize("factory,spacing", [(triangle_model, 1 / 8192),
                                             (twodim_model, 1 / 256)])
def test_near_optimal_set_matches_lattice_rows(factory, spacing):
    # the gap grid's band is the lattice rows whose scalar gap is in [r, 2r),
    # the same floats in the same row-major order
    model = factory()
    pts = lattice(model.metric.dimension, spacing)
    gaps = np.array([model.gap(tuple(p)) for p in pts.tolist()])
    for r in RADII:
        got, want = near_optimal_set(model, r), pts[(gaps >= r) & (gaps < 2 * r)]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_near_optimal_set_validation():
    with pytest.raises(ValueError):
        near_optimal_set(triangle_model(), 0.0)


@pytest.mark.parametrize("r", [0.0, math.nan, 1.5])
def test_zooming_number_radius_validation(r):
    with pytest.raises(ValueError, match=r"^r must be in \(0,1\], got "):
        zooming_number(triangle_model(), r)


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


RADII = tuple(2.0 ** -k for k in range(2, 8))


def _cone(peak: list[float]) -> RewardModel:
    """1 - ||x - peak||_inf, whose gap at x is its L-infinity distance to the peak."""
    peak = tuple(peak)
    return RewardModel(lambda x: 1.0 - max(abs(a - b) for a, b in zip(x, peak)),
                       1.0, 1.0, peak, Metric(len(peak)))


# the shipped rewards and seeded cones with random peaks in 1-D and 2-D
COUNT_MODELS = {name: factory() for name, factory in REWARD_FACTORIES.items()} | {
    f"cone{d}d-{i}": _cone(np.random.default_rng([d, i]).random(d).tolist())
    for d in (1, 2) for i in range(2)}


@pytest.mark.parametrize("name", list(COUNT_MODELS))
def test_zooming_number_matches_brute_force_cells(name):
    # distinct cells of side 2r/divisor, one scalar floor per coordinate
    model = COUNT_MODELS[name]
    for r in RADII:
        pts = near_optimal_set(model, r).tolist()
        for divisor in DIVISORS:
            side = 2 * r / divisor
            cells = {tuple(math.floor(x / side) for x in p) for p in pts}
            assert zooming_number(model, r, divisor) == len(cells), (r, divisor)


def test_zooming_number_cells_are_closed_balls():
    # cell k of side 2r/divisor is the closed L-infinity ball of radius
    # r/divisor about (k + 0.5) * side, so the counted cells cover the set
    for model in COUNT_MODELS.values():
        for r in RADII:
            pts = near_optimal_set(model, r)
            for divisor in DIVISORS:
                side = 2 * r / divisor
                centres = (np.floor(pts / side) + 0.5) * side
                assert np.all(np.abs(pts - centres).max(axis=1) <= r / divisor + 1e-12)


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


def test_zooming_number_1d_within_twice_the_interval_cover():
    # on a line a ball of radius r/divisor meets at most two cells, and the
    # points of one cell are covered by balls about its two extreme points
    for model in COUNT_MODELS.values():
        if model.metric.dimension != 1:
            continue
        for r in RADII:
            xs = near_optimal_set(model, r)[:, 0]
            for divisor in DIVISORS:
                interval = _reference_interval_cover_count(xs, r / divisor)
                count = zooming_number(model, r, divisor)
                assert interval / 2 <= count <= 2 * interval, (r, divisor)


# every lipzoom dim profile: counts at r = 1/4 ... 1/128, then the fitted
# dimension and residual as dim prints them
DIM_PROFILES = {
    ("triangle", 2): ((3, 4, 4, 4, 4, 4), "0.0593", "0.0810"),
    ("triangle", 3): ((4, 6, 6, 6, 6, 6), "0.0836", "0.1142"),
    ("triangle", 14): ((11, 17, 17, 17, 17, 17), "0.0897", "0.1226"),
    ("triangle", 16): ((12, 19, 19, 19, 19, 19), "0.0947", "0.1295"),
    ("sine", 2): ((4, 3, 4, 4, 6, 6), "0.1693", "0.1443"),
    ("sine", 3): ((5, 4, 4, 6, 6, 10), "0.2097", "0.1890"),
    ("sine", 14): ((15, 11, 15, 20, 26, 36), "0.2987", "0.1683"),
    ("sine", 16): ((16, 13, 17, 22, 29, 40), "0.2987", "0.1412"),
    ("twodim", 2): ((22, 25, 25, 25, 23, 20), "0.0000", "0.0754"),
    ("twodim", 3): ((35, 45, 46, 45, 42, 34), "0.0000", "0.1219"),
    # cells no wider than the 1/256 lattice hold one point each, at r <= 1/64
    # for divisor 14 and r <= 1/32 for divisor 16, so the count there is |X_r|
    ("twodim", 14): ((381, 634, 626, 598, 193, 51), "0.0000", "0.6181"),
    ("twodim", 16): ((475, 815, 810, 770, 193, 51), "0.0000", "0.6759"),
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


def test_line_fit_matches_polyfit_on_pinned_profiles():
    # the closed-form fit against numpy's least squares, on the fit's own inputs
    for reward, divisor in DIM_PROFILES:
        counts = DIM_PROFILES[reward, divisor][0]
        x = np.log(1.0 / np.asarray(RADII))
        y = np.log(np.asarray(counts, dtype=float))
        np.testing.assert_allclose(_line_fit(x, y), np.polyfit(x, y, 1), rtol=0, atol=1e-12)


def test_line_fit_matches_polyfit_on_random_inputs():
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(4, 7))
        x = np.log(1.0 / rng.choice(RADII, n, replace=False))
        y = np.log(rng.integers(1, 2000, n).astype(float))
        np.testing.assert_allclose(_line_fit(x, y), np.polyfit(x, y, 1), rtol=0, atol=1e-12)


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_distinct_cells_matches_row_tuples(dimension, monkeypatch):
    # the per-axis block count counts what a set of floored row tuples
    # counts, on seeded sorted axes and bands: the grid's gap is r on the
    # band and 0 off it, so the band at radius r is the seeded mask
    rng = np.random.default_rng(dimension)
    model = triangle_model()  # its gaps are never read
    axis, gaps = np.linspace(0, 1, 9), np.zeros((9,) * dimension)
    monkeypatch.setattr(diagnostics, "_lattice_gaps", lambda model: (axis, gaps))
    assert zooming_number(model, 0.25) == 0
    for _ in range(200):
        axis = np.sort(rng.random(int(rng.integers(1, round(400 ** (1 / dimension)) + 1))))
        mask = rng.random((len(axis),) * dimension) < rng.random()
        r, divisor = float(rng.choice(RADII)), int(rng.choice(DIVISORS))
        gaps = np.where(mask, r, 0.0)
        cells = np.floor(axis[np.argwhere(mask)] / (2 * r / divisor))
        assert zooming_number(model, r, divisor) == len(set(map(tuple, cells.tolist())))


def test_zooming_number_peak_memory_per_point():
    # with the grid cached, a count holds the band's boolean grid, a
    # transient mask and the per-axis reductions: no point array, no codes
    model = twodim_model()
    gaps = _lattice_gaps(model)[1]
    tracemalloc.start()
    try:
        for r in RADII:
            for divisor in DIVISORS:
                zooming_number(model, r, divisor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * gaps.size


def test_lattice_gaps_peak_memory_per_point():
    # the 2-D dim lattice holds one gap per point and no point array: a float
    # per point, plus transient masks, at the traced peak
    model = twodim_model()
    tracemalloc.start()
    try:
        axis, gaps = _lattice_gaps.__wrapped__(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gaps.shape == (len(axis),) * 2 == (257, 257)
    assert peak <= 16 * gaps.size


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
