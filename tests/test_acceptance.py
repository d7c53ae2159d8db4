"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and 6 encode expectations that the pinned algorithm parameters
do not meet at desk scale; those tests state the requirement faithfully and
are expected to fail.  Each prints its numbers on its `[criterion N]` line;
ROADMAP.md's Standing section gives the reasons, as far as measured.
"""

import math

import numpy as np
import pytest

from lipzoom import diagnostics
from lipzoom.cli import cli_main
from lipzoom.environment import (
    Estimator,
    NoiseModel,
    QuantumOracleSim,
    REWARD_FACTORIES,
    RoundLedger,
    qmc1_budget,
    qmc2_budget,
    qmc_estimate,
    triangle_model,
)
from lipzoom.geometry import ActiveRegion, Metric, maximal_packing
from lipzoom.harness import ExperimentConfig, run_experiment, run_single
from regret_traces import read_traces_csv


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# ---------------------------------------------------------------- sweeps

@pytest.fixture(scope="module")
def sweep_dirs(tmp_path_factory):
    """Two executions of the full default sweep (T=50k, 10 trials, seed 7)."""
    a = tmp_path_factory.mktemp("sweep_a")
    b = tmp_path_factory.mktemp("sweep_b")
    for out in (a, b):
        rc = cli_main(["sweep", "--out", str(out)])
        assert rc == 0
    return a, b


def _cell_stats(sweep_dir, algorithm, reward, noise):
    traces = read_traces_csv(
        sweep_dir / f"{algorithm}_{reward}_{noise}_traces.csv")
    finals = np.array([tr.checkpoints[-1][1] for tr in traces])
    return finals.mean(), finals.std(ddof=1), len(finals)


def test_criterion_1_quantum_beats_classical(sweep_dirs):
    sweep, _ = sweep_dirs
    lines = []
    ok = True
    for reward in ("triangle", "sine", "twodim"):
        for noise, quantum in (
            ("bernoulli", ("qlae", "qzooming")),
            ("gaussian", ("qlae_bv", "qzooming_bv")),
        ):
            c_mean, c_std, n = _cell_stats(sweep, "classical_zooming", reward, noise)
            for alg in quantum:
                q_mean, q_std, _ = _cell_stats(sweep, alg, reward, noise)
                se = math.sqrt((q_std ** 2 + c_std ** 2) / n)
                cell_ok = q_mean < c_mean - se
                ok &= cell_ok
                lines.append(
                    f"{reward}/{noise}/{alg}: q={q_mean:.0f} c={c_mean:.0f} "
                    f"se={se:.0f} {'ok' if cell_ok else 'VIOLATED'}")
    detail = "; ".join(lines)
    assert _report("1", ok, detail), (
        "quantum mean final regret must undercut classical by one pooled "
        f"standard error in every cell: {detail}")


# ---------------------------------------------------------- clean events

def test_criterion_2_clean_event_frequency():
    model = triangle_model()
    estimator = Estimator(NoiseModel("bernoulli"), 0.05)
    mu = model.mu((0.5,))

    def fresh():
        return RoundLedger(10 ** 9, 10 ** 9)

    on = QuantumOracleSim("contract", True, np.random.default_rng(2024))
    viol = 0
    n_on = 10_000
    for _ in range(n_on):
        est, _, _ = qmc_estimate(on, estimator, model, (0.5,), 0.1, fresh())
        viol += abs(est - mu) > 0.1
    frac = viol / n_on

    off = QuantumOracleSim("contract", False, np.random.default_rng(2025))
    off_viol = 0
    for _ in range(2_000):
        est, _, _ = qmc_estimate(off, estimator, model, (0.5,), 0.1, fresh())
        off_viol += abs(est - mu) > 0.1

    ok = frac <= 0.065 and off_viol == 0
    assert _report(
        "2", ok,
        f"fault-on violation fraction {frac:.4f} (<= 0.065), "
        f"fault-off violations {off_viol} (== 0)")


# ----------------------------------------------------------- lemma audits

def _audited_run(algorithm, reward):
    cfg = ExperimentConfig(
        algorithm=algorithm, reward=reward, noise="bernoulli",
        T=50_000, trials=1, master_seed=7, fault_injection=False, audits=True)
    return run_single(cfg, 0), REWARD_FACTORIES[reward]()


def test_criterion_3a_elimination_audits():
    parts = []
    ok = True
    for reward in ("triangle", "sine", "twodim"):
        res, model = _audited_run("qlae", reward)
        rep = diagnostics.audit_qlae_lemmas(res.stage_audits, model)
        ok &= rep.gap_violations == 0 and rep.survival_misses == 0
        parts.append(f"{reward}: gap {rep.gap_violations}/{rep.arms_checked}, "
                     f"survival misses {rep.survival_misses}/{rep.survival_stages}")
    assert _report("3a", ok, "; ".join(parts))


def _last_selection_radii(stage_audits, records):
    """Yield (arm, snapshot radius, rho, selected) for each active arm and stage.

    rho is the radius the arm had when it was last selected before the
    stage: twice the eps of its latest estimate record from an earlier
    stage, or 1 if it has none; `selected` says whether it has one.
    """
    records = sorted(records, key=lambda r: r.stage)
    rho = {}
    k = 0
    for audit in stage_audits:
        while k < len(records) and records[k].stage < audit.stage:
            rho[records[k].point] = 2.0 * records[k].eps
            k += 1
        for x, radius in audit.arms:
            yield x, radius, rho.get(x, 1.0), x in rho


def test_criterion_3b_zooming_audits():
    """Zooming gap bound at each arm's last selection: gap(x) <= 3 * rho(x).

    The selection rule bounds an arm's gap by 3x the radius it had when it
    was last selected; run_qzooming halves that radius right after the pick,
    so the all-arms form against the *current* radius (audit_qzooming_lemma)
    is not implied and is only printed.  The snapshot radius of every arm
    must equal rho(x) / 2, or 1 for an arm never selected.

    The covering step of the argument needs a 1-Lipschitz reward.  Sine
    (L = 1.65) and twodim (L = 1.77) exceed that in their paired metrics, so
    on those two rewards the bound is an empirical check, not a guarantee.
    """
    parts = []
    ok = True
    for reward in ("triangle", "sine", "twodim"):
        res, model = _audited_run("qzooming", reward)
        cur = diagnostics.audit_qzooming_lemma(res.stage_audits, model)
        sel = diagnostics.audit_qzooming_selected(res.estimate_records, model)
        checked = gap_viol = radius_miss = 0
        for x, radius, rho, selected in _last_selection_radii(
                res.stage_audits, res.estimate_records):
            checked += 1
            gap_viol += model.gap(x) > 3.0 * rho + 1e-12
            radius_miss += radius != (rho / 2.0 if selected else 1.0)
        ok &= gap_viol == 0 and radius_miss == 0 and sel.gap_violations == 0
        parts.append(
            f"{reward}: last-selection {gap_viol}/{checked}, "
            f"radius mismatches {radius_miss}, "
            f"selected-arm {sel.gap_violations}/{sel.arms_checked}, "
            f"current-radius (not asserted) {cur.gap_violations}/{cur.arms_checked}")
    detail = "; ".join(parts)
    assert _report("3b", ok, detail), (
        "gap bound (3x radius at last selection) must hold for every active "
        f"arm, with snapshot radii consistent: {detail}")


# ----------------------------------------------------- packing properties

def _linf(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L-infinity distances between the rows of `a` and of `b`, from the same
    float differences `Metric.pairwise` takes."""
    dist = np.abs(a[:, None, 0] - b[None, :, 0])
    for k in range(1, a.shape[1]):
        np.maximum(dist, np.abs(a[:, None, k] - b[None, :, k]), out=dist)
    return dist


def _first_axis_windows(rows: np.ndarray, packing: np.ndarray, eps: float):
    """Per run of `rows` with one first coordinate x: the run, and the span
    [lo, hi) of `packing` (sorted by first coordinate) within eps of x on
    that axis, with slack.  A packing point outside the span is more than
    eps from every point of the run on the first axis alone."""
    starts = np.flatnonzero(np.diff(rows[:, 0], prepend=-np.inf))
    xs = rows[starts, 0]
    los = np.searchsorted(packing[:, 0], xs - eps - 1e-9, "left")
    his = np.searchsorted(packing[:, 0], xs + eps + 1e-9, "right")
    ends = np.append(starts[1:], len(rows))
    return zip(starts.tolist(), ends.tolist(), los.tolist(), his.tolist())


def _packing_case_fails(region, d: int, eps: float, spacing: float, pts) -> bool:
    """Criterion 4's predicate: two packing points closer than eps, or a
    lattice point of the region farther than eps from every packing point.
    Each point is compared only with the packing points within eps of it on
    the first axis, which decides both tests exactly."""
    arr = np.asarray(pts, dtype=float).reshape(-1, d)
    arr = arr[np.argsort(arr[:, 0], kind="stable")]
    for start, end, lo, hi in _first_axis_windows(arr, arr, eps):
        dmat = _linf(arr[start:end], arr[lo:hi])
        dmat[np.arange(end - start), np.arange(start, end) - lo] = np.inf  # self
        if dmat.size and dmat.min() < eps:
            return True
    n = round(1 / spacing)
    axis = np.arange(n + 1) / n  # the packing's lattice: k/n on each axis
    cand = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    inside = cand[(_linf(cand, np.asarray(region.centers)) <= region.radius).any(axis=1)]
    for start, end, lo, hi in _first_axis_windows(inside, arr, eps):
        if hi == lo or _linf(inside[start:end], arr[lo:hi]).min(axis=1).max() > eps:
            return True
    return False


def test_criterion_4_packing_covering_cases():
    """200 seeded lattice-centred regions in 1-D and 2-D: no two packing
    points closer than eps, and every lattice point of the region within
    eps of one.  The lattice and the distances are built here, so the
    check reads nothing from `lipzoom.geometry` but the packing under test
    and the `ActiveRegion` and `Metric` it takes."""
    rng = np.random.default_rng(41)
    metrics = [Metric(1), Metric(2)]
    bad = 0
    for case in range(200):
        metric = metrics[case % len(metrics)]
        d = metric.dimension
        k = int(rng.integers(1, 9))
        centers = [rng.random(d) for _ in range(k)]
        radius = float(rng.uniform(0.05, 0.5))
        eps = 2.0 ** -int(rng.integers(1, 7))
        spacing = eps / 4
        centers = tuple(tuple(np.round(c / spacing) * spacing) for c in centers)
        region = ActiveRegion(centers, radius)
        pts = maximal_packing(region, metric, eps, spacing)
        bad += _packing_case_fails(region, d, eps, spacing, pts)
    assert _report("4", bad == 0, f"{bad} of 200 cases violated packing/covering")


# ------------------------------------------------------- budget formulas

def test_criterion_5_budget_oracle():
    rng = np.random.default_rng(51)
    mism1 = mism2 = 0
    for _ in range(50):
        eps = float(2.0 ** rng.uniform(-8, -0.5))
        delta = float(10.0 ** rng.uniform(-6, -0.31))
        c1 = float(rng.uniform(1.1, 4.0))
        c2 = float(rng.uniform(1.1, 4.0))
        sigma = float(rng.uniform(max(0.05, eps / 3.9), 1.0))

        # independent re-evaluation, written against the formulas directly
        oracle1 = math.ceil(c1 * math.log(1.0 / delta) / eps)
        if qmc1_budget(eps, delta, c1) != max(1, oracle1):
            mism1 += 1

        ratio = 8.0 * sigma / eps
        lg = math.log(ratio) / math.log(2.0)
        f1 = max(1.0, lg * math.sqrt(lg))
        f2 = max(1.0, math.log(lg) / math.log(2.0))
        oracle2 = math.ceil(c2 * sigma / eps * f1 * f2 * math.log(1.0 / delta))
        if qmc2_budget(eps, sigma, delta, c2) != max(1, oracle2):
            mism2 += 1
    assert _report(
        "5", mism1 == 0 and mism2 == 0,
        f"qmc1 mismatches {mism1}/50, qmc2 mismatches {mism2}/50")


# -------------------------------------------------------- slope contrast

def test_criterion_6_regret_growth_contrast():
    horizons = [10_000, 20_000, 40_000, 80_000]
    slopes = {}
    for alg in ("qzooming", "classical_zooming"):
        finals = []
        for T in horizons:
            cfg = ExperimentConfig(algorithm=alg, reward="triangle",
                                   noise="bernoulli", T=T, trials=10,
                                   master_seed=7)
            traces, _ = run_experiment(cfg)
            finals.append(np.mean([tr.checkpoints[-1][1] for tr in traces]))
        slopes[alg] = float(np.polyfit(np.log(horizons), np.log(finals), 1)[0])
    gap = slopes["classical_zooming"] - slopes["qzooming"]
    ok = gap >= 0.15
    detail = (f"classical slope {slopes['classical_zooming']:.3f}, "
              f"qzooming slope {slopes['qzooming']:.3f}, gap {gap:.3f} (>= 0.15)")
    assert _report("6", ok, detail), detail


# --------------------------------------------------- dimension diagnostic

def test_criterion_7_zooming_dimension():
    model = triangle_model()
    dims = {div: diagnostics.fit_zooming_dimension(model, divisor=div)
                 .fitted_dimension
            for div in (2, 3, 14)}
    spread = max(dims.values()) - min(dims.values())
    ok = dims[3] <= 0.2 and spread <= 0.15
    assert _report(
        "7", ok,
        f"fitted dims {dims} (divisor-3 <= 0.2, spread {spread:.3f} <= 0.15)")


# ------------------------------------------------------------ determinism

def test_criterion_8_sweep_determinism(sweep_dirs):
    a, b = sweep_dirs
    names_a = sorted(p.name for p in a.iterdir() if p.suffix == ".csv")
    names_b = sorted(p.name for p in b.iterdir() if p.suffix == ".csv")
    differing = [n for n in names_a if (a / n).read_bytes() != (b / n).read_bytes()]
    ok = names_a == names_b and not differing
    assert _report(
        "8", ok,
        f"{len(names_a)} CSV files compared, differing: {differing or 'none'}")
