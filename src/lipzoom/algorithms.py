"""Bandit policies: quantum adaptive elimination, quantum zooming and a classical baseline.

Q-LAE and Q-Zooming are loops that yield oracle requests (stage, arms, eps)
and are sent one estimate per arm.  `_run_quantum` serves both; it owns the
round ledger, every oracle call, the audit records, the result and the one
horizon rule: with no stage cap, the first arm whose budget exceeds the rounds
left ends the run, and its stage is not completed.  Elimination's call on it
still plays the leftover rounds, so it plays all T and drops no arm in that
stage; zooming's call is not made, and `RoundLedger.finalize` pads the unplayed
rest at zero regret.  The classical baseline plays T one-round stages.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Generator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .environment import (
    Estimator,
    NoiseModel,
    QuantumOracleSim,
    RewardModel,
    RoundLedger,
    classical_sample,
    qmc_estimate,
    variates,
)
from .geometry import ActiveRegion, Point, _Cover, maximal_packing


@dataclass(frozen=True)
class EstimateRecord:
    """One audited oracle estimate: compare |estimate - true_mean| to eps."""

    stage: int
    point: Point
    eps: float
    estimate: float
    true_mean: float


@dataclass(frozen=True)
class StageAudit:
    """Per-stage snapshot used by the gap-bound lemma audits.

    For elimination runs `arms` is the active packing at stage start with
    the shared previous-stage radius, and `survivors` the post-elimination
    set with the current radius; the stage the horizon cuts short has no
    survivors.  For zooming runs `arms` carries each active arm with its
    current confidence radius, taken before this stage's halving of the
    selected arm.
    """

    stage: int
    arms: tuple[tuple[Point, float], ...]
    survivors: tuple[tuple[Point, float], ...] = ()


# a quantum loop yields (stage, arms, eps) and is sent one estimate per arm
Requests = Generator[tuple[int, Sequence[Point], float], list[float], None]


@dataclass
class PolicyResult:
    checkpoints: list[tuple[int, float]]
    total_rounds: int
    stages_completed: int
    estimate_records: list[EstimateRecord] = field(default_factory=list)
    stage_audits: list[StageAudit] = field(default_factory=list)


def _finish(
    ledger: RoundLedger,
    stages_completed: int,
    records: list[EstimateRecord],
    stage_audits: list[StageAudit],
) -> PolicyResult:
    """Pad the ledger's checkpoints out to the horizon and package the run."""
    ledger.finalize()
    return PolicyResult(
        checkpoints=ledger.checkpoints,
        total_rounds=ledger.consumed,
        stages_completed=stages_completed,
        estimate_records=records,
        stage_audits=stage_audits,
    )


def _run_quantum(
    loop: Callable[[RewardModel, list[StageAudit] | None], Requests],
    model: RewardModel,
    oracle: QuantumOracleSim,
    estimator: Estimator,
    T: int,
    checkpoint_every: int | None,
    audits: bool,
) -> PolicyResult:
    """Serve a quantum loop's requests with one oracle call per arm, in order."""
    ledger = RoundLedger(T, checkpoint_every)
    records: list[EstimateRecord] = []
    stage_audits: list[StageAudit] = []
    policy = loop(model, stage_audits if audits else None)
    estimates = None
    # every estimate plays at least one round, so the horizon ends the run
    while True:
        stage, arms, eps = policy.send(estimates)
        budget, estimates = estimator.queries(eps), []
        for x in arms:
            if budget > ledger.remaining:
                if loop is _elimination:
                    qmc_estimate(oracle, estimator, model, x, eps, ledger)
                return _finish(ledger, stage - 1, records, stage_audits)
            est = qmc_estimate(oracle, estimator, model, x, eps, ledger)[0]
            estimates.append(est)
            if audits:
                records.append(EstimateRecord(stage, x, eps, est, model.mu(x)))


def _elimination(model: RewardModel, stage_audits: list[StageAudit] | None) -> Requests:
    """Q-LAE's stages: pack the active region at eps_m, estimate every packed
    arm to within eps_m and keep those within 3*eps_m of the best estimate."""
    region = ActiveRegion.whole_space(model.metric.dimension)
    for m in itertools.count(1):
        eps = 2.0 ** -m
        arms = maximal_packing(region, model.metric, eps, spacing=eps / 4)
        # the stage the horizon cuts short keeps this snapshot, with no
        # survivors: its partial-budget estimates carry no contract
        if stage_audits is not None:
            active = tuple((x, region.radius) for x in arms)
            stage_audits.append(StageAudit(m, active))
        estimates = yield m, arms, eps
        floor = max(estimates) - 3.0 * eps
        survivors = [x for x, est in zip(arms, estimates) if est >= floor]
        if stage_audits is not None:
            stage_audits[-1] = StageAudit(m, active, tuple((x, eps) for x in survivors))
        region = ActiveRegion(tuple(survivors), eps)


def run_qlae(
    model: RewardModel,
    noise: NoiseModel,
    oracle: QuantumOracleSim,
    T: int,
    delta: float,
    c1: float = 2.0,
    checkpoint_every: int | None = None,
    audits: bool = False,
) -> PolicyResult:
    """Adaptive elimination with the bounded-noise oracle budget.

    Each stage halves the resolution, estimates every packing point to
    within eps_m, drops points more than 3*eps_m below the best estimate
    and re-packs the surviving ball union at half the radius.
    """
    return _run_quantum(
        _elimination, model, oracle, Estimator(noise, delta / T, c1), T,
        checkpoint_every, audits,
    )


def run_qlae_bv(
    model: RewardModel,
    noise: NoiseModel,
    oracle: QuantumOracleSim,
    T: int,
    delta: float,
    c1: float = 2.0,
    c2: float = 2.0,
    checkpoint_every: int | None = None,
    audits: bool = False,
) -> PolicyResult:
    """Adaptive elimination under bounded-variance noise, which must be gaussian.

    Every oracle call charges the qmc2 budget with c2, or the qmc1 budget
    with c1 at stages with eps >= 4*sigma (`Estimator.queries`).  Building
    the estimator raises ValueError on any other noise.
    """
    return _run_quantum(
        _elimination, model, oracle, Estimator(noise, delta / T, c1, c2), T,
        checkpoint_every, audits,
    )


def select_arm(index: list[float]) -> int:
    """The arm with the largest index (estimate + 2*radius); first activated wins ties."""
    return index.index(max(index))


def _zooming(model: RewardModel, stage_audits: list[StageAudit] | None) -> Requests:
    """Q-Zooming's stages: select the arm with the largest index, halve its
    radius, open the first uncovered candidate and re-estimate the arm."""
    cover = _Cover(model.metric.dimension)
    # each active arm's (centre, radius), replaced only when the arm is
    # halved, so that the stage snapshots share one pair per arm; arm 0's
    # radius-1 ball covers every candidate, and only a halving uncovers one
    arms: list[tuple[Point, float]] = [(cover.activate(), 1.0)]
    # estimate + 2*radius per arm, written after each estimate; an unplayed
    # arm sits at estimate 0 and radius 1
    index = [2.0]
    for s in itertools.count(1):
        if stage_audits is not None:
            stage_audits.append(StageAudit(s, tuple(arms)))
        i = select_arm(index)
        x, eps = arms[i][0], arms[i][1] / 2.0
        arms[i] = (x, eps)
        cover.set_radius(i, eps)
        if (y := cover.activate()) is not None:
            arms.append((y, 1.0))
            index.append(2.0)
        (est,) = yield s, (x,), eps
        index[i] = est + 2.0 * eps


def run_qzooming(
    model: RewardModel,
    noise: NoiseModel,
    oracle: QuantumOracleSim,
    T: int,
    delta: float,
    c1: float = 2.0,
    checkpoint_every: int | None = None,
    audits: bool = False,
) -> PolicyResult:
    """Stage-based zooming with the bounded-noise oracle budget.

    Per stage: activate the first lattice candidate not covered by the
    confidence balls, select the active arm maximizing estimate + 2*radius,
    halve its radius and re-estimate it at the new accuracy.  The run ends
    at the first stage whose budget exceeds the rounds left, unplayed.
    """
    return _run_quantum(
        _zooming, model, oracle, Estimator(noise, delta / T, c1), T,
        checkpoint_every, audits,
    )


def run_qzooming_bv(
    model: RewardModel,
    noise: NoiseModel,
    oracle: QuantumOracleSim,
    T: int,
    delta: float,
    c1: float = 2.0,
    c2: float = 2.0,
    checkpoint_every: int | None = None,
    audits: bool = False,
) -> PolicyResult:
    """Stage-based zooming under bounded-variance noise, which must be gaussian.

    Every oracle call charges the qmc2 budget with c2, or the qmc1 budget
    with c1 at stages with eps >= 4*sigma (`Estimator.queries`).  Building
    the estimator raises ValueError on any other noise.
    """
    return _run_quantum(
        _zooming, model, oracle, Estimator(noise, delta / T, c1, c2), T,
        checkpoint_every, audits,
    )


def run_classical_zooming(
    model: RewardModel,
    noise: NoiseModel,
    T: int,
    rng: np.random.Generator,
    checkpoint_every: int | None = None,
) -> PolicyResult:
    """Classical zooming baseline: one noisy sample per round.

    Each round activates the first uncovered lattice candidate, plays the
    arm maximizing the running mean plus twice its confidence radius
    sqrt(2 ln T * max(1, 4 sigma^2) / count), and updates that arm's
    statistics.  The radius is Hoeffding's for rewards in [0,1], whose
    variance proxy is 1/4, widened for sigma-sub-Gaussian noise above it,
    so a running mean lies outside it with probability at most 2 T^-4 per
    (arm, count) pair under either noise.

    Only the played arm's index moves (`log_t` is fixed), so arm i stays
    the first-wins argmax while its index x has x > max(index[:i]) and
    x >= max(index[i+1:]); an activation appends index 2.0 after i and
    can only raise the second threshold.  The loop rescans only when that
    test fails, keeps arm i's statistics and the cover's band for it in
    locals between rescans, and calls `set_radius` only when the radius
    leaves that band, and `activate` before round 1 and right after such a
    call: a new ball has radius 1 and covers every candidate, so only a
    move uncovers one.
    """
    ledger = RoundLedger(T, checkpoint_every)
    cover = _Cover(model.metric.dimension)
    # 4.0 * sigma * sigma is inf for sigma above about 6.7e153, and so is the
    # radius, where sigma**2 would raise OverflowError
    log_t = 2.0 * math.log(T) * max(1.0, 4.0 * noise.sigma * noise.sigma)
    sqrt, inf = math.sqrt, math.inf
    # the played arm i: its count, sum, mean, gap, index and band, and the
    # max index before and after it.  They start as arm 0, opened here.
    m = model.mu(cover.activate())
    g = model.mu_star - m
    means, counts, sums, index = [m], [0], [0.0], [2.0]
    i, c, s, x = 0, 0, 0.0, 2.0
    lo, hi = cover.bands[0]
    before = after = -inf

    # the loop draws its variates lazily, block by block; that keeps the
    # stream of T scalar draws only while nothing else in it reads rng
    for v in variates(noise, rng, T):
        if not (x > before and x >= after):
            counts[i], sums[i], index[i] = c, s, x
            i = select_arm(index)
            before = max(index[:i]) if i else -inf
            after = max(index[i + 1:]) if i + 1 < len(index) else -inf
            c, s, m = counts[i], sums[i], means[i]
            g = model.mu_star - m
            lo, hi = cover.bands[i]  # it holds i's current radius

        s += classical_sample(m, noise, v)
        c += 1
        r = sqrt(log_t / c)
        x = s / c + 2.0 * r
        if not lo <= r < hi:
            lo, hi = cover.set_radius(i, r)
            if (y := cover.activate()) is not None:
                means.append(model.mu(y))
                counts.append(0)
                sums.append(0.0)
                index.append(2.0)  # mean 0, radius 1
                if after < 2.0:
                    after = 2.0
        ledger.consume(1, g)

    counts[i], sums[i], index[i] = c, s, x
    return _finish(ledger, T, [], [])
