"""Algorithm-level behavior: elimination, zooming, budgets and the baseline."""

import functools
import itertools
import math
import sys

import numpy as np
import pytest

from lipzoom import algorithms, environment, geometry
from lipzoom.algorithms import (
    EstimateRecord,
    StageAudit,
    _Cover,
    run_classical_zooming,
    run_qlae,
    run_qlae_bv,
    run_qzooming,
    run_qzooming_bv,
    select_arm,
)
from lipzoom.cli import cli_main
from lipzoom.environment import (
    ORACLE_MODES,
    Estimator,
    NoiseModel,
    QuantumOracleSim,
    RewardModel,
    RoundLedger,
    classical_sample,
    qmc1_budget,
    qmc2_budget,
    sine_model,
    triangle_model,
    twodim_model,
    variates,
)
from lipzoom.geometry import ActiveRegion, GeometryError, Metric, lattice, maximal_packing
from lipzoom.harness import ExperimentConfig, run_single

SIGMA = math.sqrt(0.1)


def _oracle(seed, fault=False):
    return QuantumOracleSim("contract", fault, np.random.default_rng(seed))


def _bern():
    return NoiseModel("bernoulli")


def _gauss():
    return NoiseModel("gaussian", SIGMA)


def test_select_arm_example():
    # a: 0.6 + 2 * 0.25 = 1.1 beats b: 0.8 + 2 * 0.125 = 1.05
    assert select_arm([0.6 + 2.0 * 0.25, 0.8 + 2.0 * 0.125]) == 0


def test_select_arm_tie_goes_to_earliest():
    assert select_arm([1.0, 1.0]) == 0
    assert select_arm([0.5, 1.0, 1.0]) == 1


def test_select_arm_shift_invariance():
    rng = np.random.default_rng(1)
    for _ in range(50):
        index = list(rng.random(6) + 2.0 * rng.random(6))
        assert select_arm(index) == select_arm([v + 0.37 for v in index])


@pytest.mark.parametrize("metric", [Metric(1), Metric(2)])
def test_cover_matches_brute_force(metric):
    # reference: the first lattice candidate with no centre within its radius
    rng = np.random.default_rng(21)
    cover = _Cover(metric.dimension)
    cand = lattice(metric.dimension, 1 / (512 if metric.dimension == 1 else 64))
    centres, radii = [], []
    outcomes = {"activated": 0, "covered": 0, "moved": 0, "unmoved": 0}

    def check_counts(i):
        # the count, and ball i's box as its band implies it
        d = metric.pairwise(cand, np.asarray(centres))
        within = d <= np.asarray(radii)
        np.testing.assert_array_equal(cover.count.reshape(-1), within.sum(axis=1))
        ball = np.zeros(cover.count.shape, dtype=bool)
        ball[_band_box(cover, i)] = True
        np.testing.assert_array_equal(ball.reshape(-1), within[:, i])

    for _ in range(300):
        if centres:
            d = metric.pairwise(cand, np.asarray(centres))
            covered = (d <= np.asarray(radii)).any(axis=1)
        else:
            covered = np.zeros(len(cand), dtype=bool)
        want = None
        if not covered.all():
            want = tuple(float(v) for v in cand[np.argmin(covered)])
        got = cover.activate()
        assert got == want
        if got is None:
            outcomes["covered"] += 1
        else:
            outcomes["activated"] += 1
            centres.append(got)
            radii.append(1.0)
        check_counts(len(centres) - 1)
        for _ in range(int(rng.integers(1, 4))):
            i = int(rng.integers(len(centres)))
            dist = np.unique(metric.pairwise(cand, np.asarray(centres[i : i + 1])))
            below, above = dist[dist <= radii[i]], dist[dist > radii[i]]
            kind = rng.random()
            if kind < 0.3:
                r = radii[i] / 2.0  # the zooming halving, exact on the lattice
            elif kind < 0.6:
                r = radii[i] * rng.uniform(0.2, 1.0)
            elif kind < 0.65:
                r = rng.uniform(1.0, 5.0)  # sqrt(2 ln T) at n = 1 exceeds 1
            elif kind < 0.75:
                r = radii[i] * (1.0 - 1e-12)  # moves only a candidate at exactly r
            elif kind < 0.875:
                # strictly between the nearest candidate distances around r
                hi = above[0] if len(above) else below[-1] + 1.0
                r = float(rng.uniform(below[-1], hi))
                while not below[-1] < r < hi:
                    r = float(rng.uniform(below[-1], hi))
            else:
                # exactly on a candidate at or below r (or the nearest one),
                # which stays inside by <=
                r = float(rng.choice(dist[1:][dist[1:] <= max(radii[i], dist[1])]))
            before = cover.count.copy()
            band = cover.set_radius(i, r)
            assert band == cover.bands[i] and band[0] <= r < band[1]
            radii[i] = r
            outcomes["moved" if (cover.count != before).any() else "unmoved"] += 1
            check_counts(i)
    assert min(outcomes.values()) >= 10


def _band_box(cover, i):
    # the box ball i's band implies: its lower end is the box's half-width
    # in cells over n
    return geometry._cells_within(cover._cells[i], round(cover.bands[i][0] * cover.n), cover.n)


def _scan_box(axis, centre, r):
    # per axis, the cells k with abs(axis[k] - x) <= r, by a scan over the
    # whole axis; they must be one contiguous range
    ball = []
    for x in centre:
        (near,) = np.nonzero(np.abs(axis - x) <= r)
        assert near[-1] - near[0] + 1 == len(near), (x, r)
        ball.append(slice(int(near[0]), int(near[-1]) + 1))
    return tuple(ball)


def _reference_band(coords, ball, centre):
    # the band loop over a box of `_scan_box`: the largest axis distance
    # inside the box and the smallest outside it
    lo, hi = -math.inf, math.inf
    for s, x in zip(ball, centre):
        lo = max(lo, abs(coords[s.start] - x), abs(coords[s.stop - 1] - x))
        if s.start > 0:
            hi = min(hi, abs(coords[s.start - 1] - x))
        if s.stop < len(coords):
            hi = min(hi, abs(coords[s.stop] - x))
    return lo, hi


@pytest.mark.parametrize("dimension,sample", [(1, None), (2, 60)], ids=["abs1d", "linf2d"])
def test_cover_boxes_and_bands_match_geometry_box(dimension, sample):
    # the integer box of each ball must be `_scan_box`'s, and its band the
    # band loop's, exactly, whatever the radius; every lattice cell is opened
    # as a centre by activating it at radius 0
    rng = np.random.default_rng(31)
    cover = _Cover(dimension)
    coords = cover.coords
    axis = np.asarray(coords)
    n = len(coords) - 1
    for i in range(cover.count.size):
        assert cover.activate() is not None
        cover.set_radius(i, 0.0)
    assert cover.activate() is None
    balls = range(len(cover.centres))
    if sample is not None:
        corners = [0, n, n * (n + 1), len(cover.centres) - 1]
        balls = corners + rng.choice(len(cover.centres), sample, replace=False).tolist()
    for i in balls:
        centre = cover.centres[i]
        radii = [2.0 ** -k for k in range(13)]
        radii += rng.uniform(0.0, 1.0, 8).tolist()
        radii += [1.0, math.nextafter(1.0, 2.0), 3.5, 1e3, 1e308]
        # cell distances: the nearest ones, a seeded few, and those about
        # the farthest face, where the box stops being clipped
        reach = max(max(round(x * n), n - round(x * n)) for x in centre)
        cells = {0, 1, 2, reach - 1, reach, *rng.integers(0, n + 1, 6).tolist()}
        for k in sorted(cells):
            if 0 <= k <= n:
                radii.append(k / n)
                if k:
                    radii.append(math.nextafter(k / n, 0.0))
        for r in rng.permutation(radii).tolist():
            band = cover.set_radius(i, r)
            ball = _scan_box(axis, centre, r)
            assert _band_box(cover, i) == ball, (centre, r)
            assert band == cover.bands[i] == _reference_band(coords, ball, centre), (centre, r)
            assert band[0] <= r < band[1]
    want = np.zeros_like(cover.count)
    for i in range(len(cover.centres)):
        want[_band_box(cover, i)] += 1
    np.testing.assert_array_equal(cover.count, want)
    assert cover.activate() is None  # every cell is a centre, so covered


@pytest.mark.parametrize("r", [math.nan, -math.inf, -1.0, -5e-324])
def test_cover_rejects_nan_and_negative_radius(r):
    cover = _Cover(2)
    cover.activate()
    cover.set_radius(0, 0.25)
    count, band, ball = cover.count.copy(), cover.bands[0], _band_box(cover, 0)
    assert count[ball].min() == count.max() == 1 and count.sum() == count[ball].size
    with pytest.raises(GeometryError, match="non-negative"):
        cover.set_radius(0, r)
    np.testing.assert_array_equal(cover.count, count)
    assert (cover.bands[0], _band_box(cover, 0)) == (band, ball)


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_cover_activates_the_first_zero_in_row_major_order(dimension):
    # activate() returns None exactly when every count is positive, and
    # otherwise opens the first zero of the count in row-major order; between
    # activations the widest ball shrinks by seeded factors, up to twice
    rng = np.random.default_rng(50 + dimension)
    cover, radii = _Cover(dimension), []
    outcomes = {"opened": 0, "none": 0}
    for _ in range(150):
        count = cover.count.copy()
        got = cover.activate()
        if count.min() > 0:
            assert got is None
            np.testing.assert_array_equal(cover.count, count)
            outcomes["none"] += 1
        else:
            first = np.unravel_index(np.flatnonzero(count == 0)[0], count.shape)
            assert got == tuple(cover.coords[j] for j in first) == cover.centres[-1]
            radii.append(1.0)
            outcomes["opened"] += 1
        for _ in range(int(rng.integers(0, 3))):
            i = radii.index(max(radii))
            radii[i] *= rng.uniform(0.2, 0.8)
            cover.set_radius(i, radii[i])
    assert min(outcomes.values()) >= 25


def test_zooming_builds_no_lattice_and_calls_no_pairwise(monkeypatch):
    # the activation cover keeps each ball as a box of per-axis index ranges
    runs = [
        lambda: run_qzooming(twodim_model(), _bern(), _oracle(7), T=200_000, delta=0.05),
        lambda: run_classical_zooming(triangle_model(), _bern(), T=20_000,
                                      rng=np.random.default_rng(7)),
    ]
    wants = [run().checkpoints for run in runs]

    def refuse(*args, **kwargs):
        raise AssertionError("zooming must not build a lattice or call pairwise")

    monkeypatch.setattr(geometry, "lattice", refuse)
    monkeypatch.setattr(Metric, "pairwise", refuse)
    for run, want in zip(runs, wants):
        assert run().checkpoints == want


def test_qlae_eliminates_gap_one_arm_by_stage_three():
    # mu(x) = 1 - x: the worst arm (x=1, gap 1) must be gone once
    # 3*eps + 2*eps < 1, i.e. at stage 3 (eps = 1/8 < 1/5)
    model = RewardModel(lambda x: 1.0 - x[0], 1.0, 1.0, (0.0,))
    res = run_qlae(model, _bern(), _oracle(0), T=200_000, delta=0.05,
                   audits=True)
    assert res.stages_completed >= 3
    survivors_by_stage = {a.stage: a.survivors for a in res.stage_audits}
    assert all(x[0] < 0.99 for x, _ in survivors_by_stage[3])


def test_qlae_optimal_arm_survives():
    model = triangle_model()
    res = run_qlae(model, _bern(), _oracle(1), T=100_000, delta=0.05, audits=True)
    for a in res.stage_audits:
        if not a.survivors:
            continue
        eps_m = a.survivors[0][1]
        near = min(model.metric.distance(x, model.x_star) for x, _ in a.survivors)
        assert near <= eps_m + 1e-12


@pytest.mark.parametrize("T", [1, 2, 3, 50, 20_000])
@pytest.mark.parametrize("factory", [triangle_model, twodim_model], ids=["abs1d", "linf2d"])
@pytest.mark.parametrize("run, noise", [(run_qlae, _bern), (run_qlae_bv, _gauss)],
                         ids=["qlae", "qlae_bv"])
def test_qlae_truncates_at_horizon_exactly(run, noise, factory, T):
    # elimination has no stage cap: it runs until a stage does not fit, and
    # that last stage, cut short by the horizon, eliminates nothing
    res = run(factory(), noise(), _oracle(2), T=T, delta=0.05, audits=True)
    assert res.total_rounds == T
    assert [a.stage for a in res.stage_audits] == list(range(1, res.stages_completed + 2))
    for a in res.stage_audits:
        assert bool(a.survivors) == (a.stage <= res.stages_completed)


@pytest.mark.parametrize("T", [1, 50, 20_000])
@pytest.mark.parametrize("factory", [triangle_model, twodim_model], ids=["abs1d", "linf2d"])
@pytest.mark.parametrize("run, noise", [(run_qlae, _bern), (run_qlae_bv, _gauss)],
                         ids=["qlae", "qlae_bv"])
def test_qlae_stage_records_follow_the_packing_sequence(run, noise, factory, T, monkeypatch):
    # stage m packs what stage m-1 left at eps_m = 2^-m, so each started
    # stage makes one packing call; its record gives the packed arms the
    # radius 2^-(m-1) and the survivors 2^-m
    model = factory()
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return geometry.maximal_packing(*args, **kwargs)

    monkeypatch.setattr(algorithms, "maximal_packing", counting)
    res = run(model, noise(), _oracle(2), T=T, delta=0.05, audits=True)
    assert len(calls) == res.stages_completed + 1
    region = geometry.ActiveRegion.whole_space(model.metric.dimension)
    want = geometry.maximal_packing(region, model.metric, 0.5, 0.125)
    for a in res.stage_audits:
        eps = 2.0 ** -a.stage
        assert [x for x, _ in a.arms] == want
        assert all(r == 2.0 * eps for _, r in a.arms)
        assert all(r == eps for _, r in a.survivors)
        if a.survivors:
            region = geometry.ActiveRegion(tuple(x for x, _ in a.survivors), eps)
            want = geometry.maximal_packing(region, model.metric, eps / 2, eps / 8)


def test_qlae_deterministic_given_seed():
    model = triangle_model()
    a = run_qlae(model, _bern(), _oracle(3), T=30_000, delta=0.05)
    b = run_qlae(model, _bern(), _oracle(3), T=30_000, delta=0.05)
    assert a.checkpoints == b.checkpoints
    assert a.checkpoints[-1][1] == b.checkpoints[-1][1]


def test_qlae_bv_requires_gaussian():
    with pytest.raises(ValueError):
        run_qlae_bv(triangle_model(), _bern(), _oracle(4), T=1000, delta=0.05)
    with pytest.raises(ValueError):
        run_qzooming_bv(triangle_model(), _bern(), _oracle(4), T=1000, delta=0.05)


def test_qlae_bv_stage_budget():
    # stage 2 budget must equal the bounded-variance formula at eps=1/4
    model = triangle_model()
    res = run_qlae_bv(model, _gauss(), _oracle(5), T=10_000, delta=0.05,
                      audits=True)
    n2 = qmc2_budget(0.25, SIGMA, 0.05 / 10_000, 2.0)
    stage2 = [r for r in res.estimate_records if r.stage == 2]
    assert stage2  # reached stage 2
    # per-arm consumption is visible through the total: stage2 arms * n2 rounds
    arms1 = len([r for r in res.estimate_records if r.stage == 1])
    n1 = qmc2_budget(0.5, SIGMA, 0.05 / 10_000, 2.0)
    assert res.total_rounds >= arms1 * n1 + len(stage2) * n2


def test_qzooming_single_activation_until_radii_shrink():
    model = triangle_model()
    res = run_qzooming(model, _bern(), _oracle(6), T=500, delta=0.05,
                       audits=True)
    # stage 1: a single activation (the first grid point) whose radius-1 ball
    # covers all of [0,1], so no further arm appears within the stage
    assert len(res.stage_audits[0].arms) == 1
    first, r1 = res.stage_audits[0].arms[0]
    assert first == (0.0,) and r1 == 1.0
    # the stage-1 selection halves that radius to 1/2, so stage 2 activates
    # exactly one arm just outside B(first, 1/2)
    if len(res.stage_audits) > 1:
        arms2 = res.stage_audits[1].arms
        assert len(arms2) == 2
        assert arms2[1][0][0] == pytest.approx(0.5, abs=1 / 256)


def test_qzooming_selected_arm_gap_bound():
    model = triangle_model()
    res = run_qzooming(model, _bern(), _oracle(7), T=50_000, delta=0.05,
                       audits=True)
    for r in res.estimate_records:
        eps_prev = 2.0 * r.eps  # radius before this selection's halving
        assert model.gap(r.point) <= 3.0 * eps_prev + 1e-12


def test_qzooming_active_arms_separated():
    model = triangle_model()
    res = run_qzooming(model, _bern(), _oracle(8), T=50_000, delta=0.05,
                       audits=True)
    arms = res.stage_audits[-1].arms
    pts = np.asarray([x for x, _ in arms], dtype=float)
    if len(pts) > 1:
        d = model.metric.pairwise(pts, pts)
        np.fill_diagonal(d, np.inf)
        assert d.min() > 0.0


def test_qzooming_estimate_freshness():
    # estimates of unselected arms are bitwise unchanged between stages
    model = triangle_model()
    res = run_qzooming(model, _bern(), _oracle(9), T=50_000, delta=0.05,
                       audits=True)
    last_est = {}
    for rec in res.estimate_records:
        last_est[rec.point] = rec.estimate
    # the audit snapshots carry radii only; cross-check stage-over-stage radii
    # of unselected arms instead (they must not change outside selections)
    selected = {}
    for rec in res.estimate_records:
        selected.setdefault(rec.stage, rec.point)
    prev = {}
    for a in res.stage_audits:
        for x, eps in a.arms:
            if x in prev and selected.get(a.stage - 1) != x:
                assert eps == prev[x]
            prev[x] = eps


def test_qzooming_budget_identity():
    model = triangle_model()
    T = 20_000
    res = run_qzooming(model, _bern(), _oracle(10), T=T, delta=0.05,
                       audits=True)
    total = sum(qmc1_budget(r.eps, 0.05 / T, 2.0) for r in res.estimate_records)
    assert total == res.total_rounds
    assert total <= T


def test_qzooming_bv_first_selection_budget():
    model = triangle_model()
    T = 1000
    res = run_qzooming_bv(model, _gauss(), _oracle(11), T=T, delta=0.05,
                          audits=True)
    first = res.estimate_records[0]
    assert first.eps == 0.5
    want = qmc2_budget(0.5, SIGMA, 0.05 / T, 2.0)
    assert want == 55
    assert res.total_rounds >= want


def _reference_elimination(model, oracle, estimator, T, checkpoint_every, audits):
    # the per-stage loop that owns its ledger, horizon check and records
    ledger = RoundLedger(T, checkpoint_every)
    region = ActiveRegion.whole_space(model.metric.dimension)
    records: list[EstimateRecord] = []
    stage_audits: list[StageAudit] = []

    # every estimate plays at least one round, so the horizon ends the loop
    for m in itertools.count(1):
        eps = 2.0 ** -m
        arms = maximal_packing(region, model.metric, eps, spacing=eps / 4)
        estimates: list[float] = []
        for x in arms:
            est, _, exhausted = environment.qmc_estimate(oracle, estimator, model, x, eps, ledger)
            if exhausted:
                break
            estimates.append(est)
            if audits:
                records.append(EstimateRecord(m, x, eps, est, model.mu(x)))
        # a stage the horizon cuts short eliminates nothing: its
        # partial-budget estimates carry no contract, so it has no survivors
        survivors = []
        if not exhausted:
            floor = max(estimates) - 3.0 * eps
            survivors = [x for x, est in zip(arms, estimates) if est >= floor]
        if audits:
            stage_audits.append(StageAudit(m, tuple((x, region.radius) for x in arms),
                                           tuple((x, eps) for x in survivors)))
        if exhausted:
            break
        region = ActiveRegion(tuple(survivors), eps)

    # stage m did not fit in the horizon
    return algorithms._finish(ledger, m - 1, records, stage_audits)


def _reference_zooming(model, oracle, estimator, T, checkpoint_every, audits):
    # the per-stage loop that rebuilds every arm's index from its estimate
    # and radius at each stage
    ledger = RoundLedger(T, checkpoint_every)
    cover = _Cover(model.metric.dimension)
    radii, estimates, records, stage_audits = [], [], [], []
    for s in itertools.count(1):
        y = cover.activate()
        if y is not None:
            radii.append(1.0)
            estimates.append(0.0)
        if audits:
            stage_audits.append(StageAudit(s, tuple(zip(cover.centres, radii))))
        idx = [e + 2.0 * r for e, r in zip(estimates, radii)]
        i = idx.index(max(idx))
        radii[i] /= 2.0
        eps = radii[i]
        cover.set_radius(i, eps)
        if estimator.queries(eps) > ledger.remaining:
            break
        x = cover.centres[i]
        est, _, _ = environment.qmc_estimate(oracle, estimator, model, x, eps, ledger)
        estimates[i] = est
        if audits:
            records.append(EstimateRecord(s, x, eps, est, model.mu(x)))
    return algorithms._finish(ledger, s - 1, records, stage_audits)


def _assert_matches_reference(loop, reference, factory, noise, c2, mode):
    # the driver must reproduce the reference loop exactly, generator included
    for T in (1, 2, 300, 4097, 50_000, 200_000):
        for audits in (False, True):
            runs = []
            for run in (functools.partial(algorithms._run_quantum, loop), reference):
                oracle = QuantumOracleSim(mode, True, np.random.default_rng(T + 5))
                estimator = Estimator(noise(), 0.05 / T, 2.0, c2)
                runs.append((run(factory(), oracle, estimator, T, None, audits), oracle.rng))
            (got, g), (want, twin) = runs
            setting = (T, audits)
            assert got.checkpoints == want.checkpoints, setting
            assert got.checkpoints[-1][1] == want.checkpoints[-1][1], setting
            assert got.total_rounds == want.total_rounds, setting
            assert got.stages_completed == want.stages_completed, setting
            assert got.estimate_records == want.estimate_records, setting
            assert got.stage_audits == want.stage_audits, setting
            assert g.bit_generator.state == twin.bit_generator.state, setting


def _quantum_cases(test):
    test = pytest.mark.parametrize("factory", [triangle_model, twodim_model],
                                   ids=["triangle", "twodim"])(test)
    test = pytest.mark.parametrize(
        "noise,c2", [(_bern, None), (_gauss, None), (_gauss, 2.0)],
        ids=["qmc1-bernoulli", "qmc1-gaussian", "qmc2-gaussian"])(test)
    return pytest.mark.parametrize("mode", ORACLE_MODES)(test)


@_quantum_cases
def test_zooming_matches_reference(factory, noise, c2, mode):
    # the kept index must reproduce the rebuilt one exactly
    _assert_matches_reference(algorithms._zooming, _reference_zooming,
                              factory, noise, c2, mode)


@_quantum_cases
def test_elimination_matches_reference(factory, noise, c2, mode):
    _assert_matches_reference(algorithms._elimination, _reference_elimination,
                              factory, noise, c2, mode)


def test_zooming_audit_snapshots_share_arm_pairs():
    # an arm's (centre, radius) pair is built when it is opened or halved and
    # shared by every later snapshot: about a pointer per (stage, arm) entry,
    # counting each distinct object the snapshots reach once
    config = ExperimentConfig(algorithm="qzooming", reward="twodim", noise="bernoulli",
                              T=600_000, trials=1, master_seed=23, audits=True)
    sizes, entries = {}, 0
    for audit in run_single(config, 0).stage_audits:
        entries += len(audit.arms)
        objects = [audit.arms]
        for pair in audit.arms:
            centre, radius = pair
            objects += [pair, centre, radius, *centre]
        sizes.update((id(o), sys.getsizeof(o)) for o in objects)
    assert entries > 1000
    assert sum(sizes.values()) <= 16 * entries


@pytest.mark.parametrize("runner,noise,budget", [
    (run_qlae, _bern, "qmc1_budget"), (run_qzooming_bv, _gauss, "qmc2_budget"),
], ids=["qlae-qmc1", "qzooming_bv-qmc2"])
def test_budget_is_computed_once_per_distinct_eps(runner, noise, budget, monkeypatch):
    # a run asks its estimator for the same eps once per oracle call (and
    # zooming once more per stage); only the first ask computes it
    asked = []
    original = getattr(environment, budget)

    def counted(eps, *args):
        asked.append(eps)
        return original(eps, *args)

    monkeypatch.setattr(environment, budget, counted)
    res = runner(triangle_model(), noise(), _oracle(22), T=50_000, delta=0.05, audits=True)
    assert len(asked) == len(set(asked))
    # every estimate's eps, and the eps of the stage that did not fit
    assert set(asked) >= {r.eps for r in res.estimate_records}
    if runner is run_qlae:
        assert set(asked) == {2.0 ** -m for m in range(1, res.stages_completed + 2)}


def test_qzooming_deterministic_given_seed():
    model = triangle_model()
    a = run_qzooming(model, _bern(), _oracle(12), T=30_000, delta=0.05)
    b = run_qzooming(model, _bern(), _oracle(12), T=30_000, delta=0.05)
    assert a.checkpoints == b.checkpoints


def test_classical_zooming_zero_gap_everywhere():
    model = RewardModel(lambda x: 0.4, 0.0, 0.4, (0.0,))
    res = run_classical_zooming(model, _bern(), T=2_000,
                                rng=np.random.default_rng(13))
    assert res.checkpoints[-1][1] == pytest.approx(0.0)
    assert res.total_rounds == 2_000


def test_classical_zooming_plays_every_round():
    model = triangle_model()
    res = run_classical_zooming(model, _bern(), T=5_000,
                                rng=np.random.default_rng(14))
    assert res.total_rounds == 5_000
    assert res.checkpoints[-1][0] == 5_000
    assert res.checkpoints[-1][1] > 0.0


def _reference_classical_zooming(model, noise, T, rng, checkpoint_every=None):
    # the per-round loop: rescan every arm, activate and set the radius each round
    ledger = RoundLedger(T, checkpoint_every)
    cover = _Cover(model.metric.dimension)
    log_t = 2.0 * math.log(T) * max(1.0, 4.0 * noise.sigma * noise.sigma)
    means, gaps, counts, sums, index = [], [], [], [], []
    for v in variates(noise, rng, T):
        y = cover.activate()
        if y is not None:
            means.append(model.mu(y))
            gaps.append(model.mu_star - means[-1])
            counts.append(0)
            sums.append(0.0)
            index.append(2.0)
        i = index.index(max(index))
        counts[i] += 1
        sums[i] += classical_sample(means[i], noise, v)
        r = math.sqrt(log_t / counts[i])
        index[i] = sums[i] / counts[i] + 2.0 * r
        cover.set_radius(i, r)
        ledger.consume(1, gaps[i])
    return algorithms._finish(ledger, T, [], [])


@pytest.mark.parametrize("sigma,widen", [(None, 1), (SIGMA, 1), (0.5, 1), (1.0, 2), (3.0, 6)],
                         ids=["bernoulli", "default", "half", "one", "three"])
def test_classical_radius_widens_with_sigma_above_one_half(sigma, widen, monkeypatch):
    # the radius is sqrt(2 ln T * max(1, 4 sigma^2) / count): Hoeffding's for
    # rewards in [0,1] up to sigma = 1/2, so sigma = 1 doubles it; a radius
    # per round, each at the played arm's whole count
    noise = _bern() if sigma is None else NoiseModel("gaussian", sigma)
    args, sqrt = [], math.sqrt
    monkeypatch.setattr(math, "sqrt", lambda a: args.append(a) or sqrt(a))
    T = 2_000
    run_classical_zooming(triangle_model(), noise, T, np.random.default_rng(24))
    log_t = 2.0 * math.log(T) * widen**2
    assert len(args) == T
    # round 1 plays a new arm, at count 1
    assert sqrt(args[0]) == pytest.approx(widen * sqrt(2.0 * math.log(T)), rel=1e-15)
    counts = np.array([log_t / a for a in args])
    np.testing.assert_allclose(counts, np.round(counts), rtol=1e-12)


@pytest.mark.parametrize("sigma", [1e200, 1e300])
def test_classical_zooming_runs_where_sigma_squared_overflows(sigma, tmp_path):
    # 4 sigma^2 is past the largest float: the radius is infinite, not an
    # OverflowError, and the run still plays and charges all T rounds
    noise = NoiseModel("gaussian", sigma)
    for factory in (triangle_model, twodim_model):
        T = 300
        g, twin = np.random.default_rng(5), np.random.default_rng(5)
        got = run_classical_zooming(factory(), noise, T, g)
        want = _reference_classical_zooming(factory(), noise, T, twin)
        assert got.total_rounds == T and got.checkpoints == want.checkpoints
        regrets = [r for _, r in got.checkpoints]
        assert [n for n, _ in got.checkpoints][-1] == T
        assert all(math.isfinite(r) for r in regrets)
        assert regrets == sorted(regrets)
    argv = ["run", "--algorithm", "classical_zooming", "--noise", "gaussian",
            "--sigma", str(sigma), "--T", "100", "--trials", "1", "--out", str(tmp_path)]
    assert cli_main(argv) == 0


def _classical_coverage(model, noise, T, rng, factor):
    # the per-round loop of `_reference_classical_zooming` with its radius
    # widened by `factor`, which also counts the (arm, count) pairs, one per
    # round, whose running mean lies farther than the radius from the arm's mean
    ledger = RoundLedger(T)
    cover = _Cover(model.metric.dimension)
    log_t = 2.0 * math.log(T) * factor
    means, gaps, counts, sums, index = [], [], [], [], []
    misses = 0
    for v in variates(noise, rng, T):
        y = cover.activate()
        if y is not None:
            means.append(model.mu(y))
            gaps.append(model.mu_star - means[-1])
            counts.append(0)
            sums.append(0.0)
            index.append(2.0)
        i = index.index(max(index))
        counts[i] += 1
        sums[i] += classical_sample(means[i], noise, v)
        r = math.sqrt(log_t / counts[i])
        misses += abs(sums[i] / counts[i] - means[i]) > r
        index[i] = sums[i] / counts[i] + 2.0 * r
        cover.set_radius(i, r)
        ledger.consume(1, gaps[i])
    return algorithms._finish(ledger, T, [], []), misses


@pytest.mark.parametrize("factory", [triangle_model, twodim_model], ids=["abs1d", "linf2d"])
def test_classical_radius_covers_the_mean_at_sigma_two(factory):
    """At sigma = 2 the baseline's radius holds every running mean.

    With the factor max(1, 4 sigma^2) = 16 a pair misses with probability
    at most 2 T^-4, so none of the 10^4 pairs may miss; without it, the
    Hoeffding radius for rewards in [0,1] misses a clear share of them.
    """
    noise, T = NoiseModel("gaussian", 2.0), 2_000
    factor = max(1.0, 4.0 * noise.sigma * noise.sigma)
    widened = plain = 0
    for seed in range(5):
        want = run_classical_zooming(factory(), noise, T, np.random.default_rng(seed))
        got, misses = _classical_coverage(factory(), noise, T, np.random.default_rng(seed),
                                          factor)
        assert got.checkpoints == want.checkpoints  # the baseline's own radius
        widened += misses
        plain += _classical_coverage(factory(), noise, T, np.random.default_rng(seed), 1.0)[1]
    assert widened == 0
    assert plain > 0.01 * 5 * T


def _flat_model():
    # Bernoulli draws as under a constant mean 0.4, so arms keep reaching
    # equal indices and rescans meet first-wins ties; each arm's gap still
    # differs, so regret shows which arm a tie picked (a constant reward's
    # zero gaps would hide it)
    return RewardModel(lambda x: 0.4 + 1e-9 * x[0], 1e-9, 0.4 + 1e-9, (1.0,))


@pytest.mark.parametrize("noise", [_bern, _gauss], ids=["bernoulli", "gaussian"])
@pytest.mark.parametrize("factory", [triangle_model, sine_model, twodim_model, _flat_model],
                         ids=["triangle", "sine", "twodim", "flat"])
def test_classical_zooming_matches_reference(factory, noise):
    # the run-aware loop must reproduce the per-round loop exactly, generator included
    for T in (1, 2, 300, 4097, 50_000):
        for every in (None, 1, 7):
            g, twin = np.random.default_rng(T + 3), np.random.default_rng(T + 3)
            got = run_classical_zooming(factory(), noise(), T, g, every)
            want = _reference_classical_zooming(factory(), noise(), T, twin, every)
            setting = (T, every)
            assert got.checkpoints == want.checkpoints, setting
            assert got.checkpoints[-1][1] == want.checkpoints[-1][1], setting
            assert got.total_rounds == want.total_rounds == T, setting
            assert g.bit_generator.state == twin.bit_generator.state, setting


@pytest.mark.parametrize("factory", [triangle_model, twodim_model], ids=["abs1d", "linf2d"])
def test_classical_zooming_draws_and_charges_once_per_round(factory, monkeypatch):
    # the benchmark's completeness identity counts these calls; block
    # variates keep one classical_sample call and one charge per round,
    # and each activated arm's reward is evaluated once
    calls = {"sample": 0, "consume": 0, "mu": 0, "activated": 0}
    sample, consume = algorithms.classical_sample, RoundLedger.consume
    mu, activate = RewardModel.mu, _Cover.activate

    def counted_sample(*args):
        calls["sample"] += 1
        return sample(*args)

    def counted_consume(self, *args):
        calls["consume"] += 1
        return consume(self, *args)

    def counted_mu(self, x):
        calls["mu"] += 1
        return mu(self, x)

    def counted_activate(self):
        y = activate(self)
        calls["activated"] += y is not None
        return y

    monkeypatch.setattr(algorithms, "classical_sample", counted_sample)
    monkeypatch.setattr(RoundLedger, "consume", counted_consume)
    monkeypatch.setattr(RewardModel, "mu", counted_mu)
    monkeypatch.setattr(_Cover, "activate", counted_activate)
    res = run_classical_zooming(factory(), _gauss(), T=3_000, rng=np.random.default_rng(18))
    assert calls["activated"] > 1
    assert calls == {"sample": 3_000, "consume": 3_000,
                     "mu": calls["activated"], "activated": calls["activated"]}
    assert res.total_rounds == 3_000


@pytest.mark.parametrize("runner,noise", [(run_qlae, _bern), (run_qzooming_bv, _gauss)],
                         ids=["qlae-bernoulli", "qzooming_bv-gaussian"])
def test_empirical_oracle_draws_once_per_query_and_evaluates_mu_once_per_call(
        runner, noise, monkeypatch):
    # the benchmark's completeness identity counts the empirical oracle's
    # classical_sample calls too; the reward is evaluated once per oracle call
    calls = {"sample": 0, "mu": 0}
    mu_per_call: list[tuple[int, int]] = []
    sample, mu, estimate = environment.classical_sample, RewardModel.mu, algorithms.qmc_estimate

    def counted_sample(*args):
        calls["sample"] += 1
        return sample(*args)

    def counted_mu(self, x):
        calls["mu"] += 1
        return mu(self, x)

    def counted_estimate(*args):
        before = calls["mu"]
        out = estimate(*args)
        mu_per_call.append((out[1], calls["mu"] - before))
        return out

    monkeypatch.setattr(environment, "classical_sample", counted_sample)
    monkeypatch.setattr(RewardModel, "mu", counted_mu)
    monkeypatch.setattr(algorithms, "qmc_estimate", counted_estimate)
    oracle = QuantumOracleSim("empirical", False, np.random.default_rng(19))
    res = runner(triangle_model(), noise(), oracle, T=5_000, delta=0.1, audits=False)
    assert 0 < calls["sample"] == res.total_rounds == sum(used for used, _ in mu_per_call)
    assert mu_per_call and all(n_mu == (1 if used else 0) for used, n_mu in mu_per_call)
    assert calls["mu"] == sum(1 for used, _ in mu_per_call if used)


@pytest.mark.parametrize("noise,draw", [(_bern, "random"), (_gauss, "standard_normal")],
                         ids=["bernoulli", "gaussian"])
def test_classical_zooming_leaves_rng_after_T_scalar_draws(noise, draw):
    # T is not a multiple of the variate block, so an over-draw would show
    g, twin = np.random.default_rng(20), np.random.default_rng(20)
    run_classical_zooming(triangle_model(), noise(), T=5_000, rng=g)
    for _ in range(5_000):
        getattr(twin, draw)()
    assert g.bit_generator.state == twin.bit_generator.state


def test_empirical_oracle_leaves_rng_after_one_normal_per_query():
    oracle = QuantumOracleSim("empirical", False, np.random.default_rng(21))
    twin = np.random.default_rng(21)
    res = run_qzooming_bv(triangle_model(), _gauss(), oracle, T=5_000, delta=0.1)
    assert res.total_rounds > 0
    for _ in range(res.total_rounds):
        twin.standard_normal()
    assert oracle.rng.bit_generator.state == twin.bit_generator.state


def test_checkpoints_nondecreasing():
    model = triangle_model()
    for res in [
        run_qlae(model, _bern(), _oracle(15), T=20_000, delta=0.05),
        run_qzooming(model, _bern(), _oracle(16), T=20_000, delta=0.05),
        run_classical_zooming(model, _bern(), T=20_000,
                              rng=np.random.default_rng(17)),
    ]:
        ts = [t for t, _ in res.checkpoints]
        vs = [v for _, v in res.checkpoints]
        assert ts == sorted(ts)
        assert all(b >= a - 1e-9 for a, b in zip(vs, vs[1:]))
