"""Reward models, noise, simulated quantum mean-estimation oracles and the round ledger.

The quantum oracle is simulated at the contract level: an invocation at
accuracy eps and failure probability delta charges the documented query
budget against the horizon and returns an estimate within eps of the true
mean, except with probability delta when fault injection is on.  No
circuit-level simulation is performed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator

import numpy as np

from .geometry import Metric, Point


class EnvironmentConfigError(ValueError):
    """Invalid environment configuration or contract violation."""


@dataclass(frozen=True)
class RewardModel:
    """Expected-reward function with known optimum for regret accounting.

    `mu` clips the raw function into [0,1] so it is usable as a Bernoulli
    success probability; the benchmark functions dip slightly below 0 in
    parts of the domain.  `metric` is L-infinity on the arm space [0,1]^d:
    |.| on [0,1] unless the model sets another dimension.
    `lipschitz_constant` is valid in it.
    """

    raw: Callable[[Point], float]
    lipschitz_constant: float
    mu_star: float
    x_star: Point
    metric: Metric = Metric(1)

    def mu(self, x: Point) -> float:
        return min(1.0, max(0.0, float(self.raw(x))))

    def mu_many(self, points: Iterable[Point], count: int) -> np.ndarray:
        """`mu` of each of `count` points, as a float array in their order.

        It calls the same scalar `raw` on the same floats and clips as `mu`
        does, so every entry equals `mu` of its point bit for bit, whatever
        the reward; only the per-point Python overhead of `mu` is gone.  The
        points are read one at a time and the clip is done in place, so the
        result is the only array of `count` floats it allocates.
        """
        mus = np.fromiter(map(self.raw, points), float, count)
        # max(0.0, v) keeps v only when v > 0.0, and min(1.0, v) only when
        # v < 1.0; the same tests map NaN and -0.0 to 0.0 as `mu` does
        np.copyto(mus, 0.0, where=~(mus > 0.0))
        np.copyto(mus, 1.0, where=~(mus < 1.0))
        return mus

    def gap(self, x: Point) -> float:
        return self.mu_star - self.mu(x)


def triangle_model() -> RewardModel:
    return RewardModel(
        raw=lambda x: 0.9 - 0.95 * abs(x[0] - 1.0 / 3.0),
        lipschitz_constant=0.95,
        mu_star=0.9,
        x_star=(1.0 / 3.0,),
    )


def sine_model() -> RewardModel:
    return RewardModel(
        raw=lambda x: 0.35 * math.sin(3.0 * math.pi * x[0] / 2.0),
        lipschitz_constant=0.35 * 3.0 * math.pi / 2.0,
        mu_star=0.35,
        x_star=(1.0 / 3.0,),
    )


def twodim_model() -> RewardModel:
    # the euclidean gradient bound 0.95 + 0.3 converts to the L-infinity
    # metric on [0,1]^2 by a factor sqrt(2)
    def raw(x: Point) -> float:
        d1 = math.hypot(x[0] - 0.8, x[1] - 0.7)
        d2 = math.hypot(x[0] - 0.0, x[1] - 1.0)
        return 1.2 - 0.95 * d1 - 0.3 * d2

    return RewardModel(
        raw=raw,
        lipschitz_constant=1.25 * math.sqrt(2.0),
        mu_star=1.2 - 0.3 * math.hypot(0.8, 0.3),
        x_star=(0.8, 0.7),
        metric=Metric(2),
    )


REWARD_FACTORIES = {
    "triangle": triangle_model,
    "sine": sine_model,
    "twodim": twodim_model,
}


NOISE_KINDS = ("bernoulli", "gaussian")


@dataclass(frozen=True)
class NoiseModel:
    kind: str  # one of NOISE_KINDS
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise EnvironmentConfigError(f"kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        if self.kind == "gaussian" and not 0 < self.sigma < math.inf:
            raise EnvironmentConfigError("gaussian noise requires a finite sigma > 0")


_VARIATE_BLOCK = 4096  # floats per generator call; keeps memory flat at any n


def variates(noise: NoiseModel, rng: np.random.Generator, n: int) -> Iterator[float]:
    """An iterator over the n base variates of n noisy draws: uniforms under
    Bernoulli noise, standard normals under gaussian noise.

    They are drawn in blocks, and a block of k floats equals k scalar
    `rng.random()` or `rng.standard_normal()` calls, generator state
    included.  The iterator chains the block lists: creating it draws
    nothing, and a block is drawn only when its first float is asked for,
    so after k floats exactly ceil(k / 4096) blocks are drawn.  A caller
    must consume the iterator before anything else draws from `rng`.
    """
    draw = rng.random if noise.kind == "bernoulli" else rng.standard_normal
    blocks = range(n, 0, -_VARIATE_BLOCK)  # floats left before each block
    return chain.from_iterable(draw(min(k, _VARIATE_BLOCK)).tolist() for k in blocks)


def classical_sample(m: float, noise: NoiseModel, v: float) -> float:
    """One noisy reward draw around the mean m: Bernoulli(m) or m + N(0, sigma^2).

    `v` is the draw's base variate from `variates`.  Callers evaluate
    `model.mu(x)` once per arm (or per oracle call) and pass it in, since x
    is fixed across the draws they take there.
    """
    if noise.kind == "bernoulli":
        return 1.0 if v < m else 0.0
    return m + noise.sigma * v


def _ceil_budget(value: float) -> int:
    """At least one query, rounded up; a non-finite budget is a config error."""
    if not math.isfinite(value):
        raise EnvironmentConfigError(
            f"query budget is not finite ({value}): the constant is too large or delta too small"
        )
    return max(1, math.ceil(value))


def qmc1_budget(eps: float, delta: float, c1: float = 2.0) -> int:
    """Query budget of the bounded-noise quantum mean estimator: ceil((c1/eps) ln(1/delta))."""
    if not eps > 0:
        raise EnvironmentConfigError(f"eps must be positive, got {eps}")
    if not (0 < delta < 1):
        raise EnvironmentConfigError(f"delta must be in (0,1), got {delta}")
    return _ceil_budget((c1 / eps) * math.log(1.0 / delta))


def qmc2_budget(eps: float, sigma: float, delta: float, c2: float = 2.0) -> int:
    """Query budget of the bounded-variance quantum mean estimator.

    ceil( (c2*sigma/eps) * log2^{3/2}(8 sigma/eps) * log2(log2(8 sigma/eps))
          * ln(1/delta) ), with each log2 factor clamped below at 1.
    Requires eps < 4*sigma.
    """
    if not eps > 0 or not sigma > 0:
        raise EnvironmentConfigError(f"eps and sigma must be positive, got {eps}, {sigma}")
    if not (0 < delta < 1):
        raise EnvironmentConfigError(f"delta must be in (0,1), got {delta}")
    if eps >= 4 * sigma:
        raise EnvironmentConfigError(
            f"bounded-variance budget needs eps < 4*sigma (eps={eps}, sigma={sigma})"
        )
    ratio = 8.0 * sigma / eps
    l = math.log2(ratio)
    f1 = max(1.0, l ** 1.5)
    f2 = max(1.0, math.log2(l))
    return _ceil_budget((c2 * sigma / eps) * f1 * f2 * math.log(1.0 / delta))


@dataclass(frozen=True)
class Estimator:
    """The quantum mean estimator every oracle call of a run uses.

    QMC1 for bounded rewards, or, with `c2` set, QMC2 for bounded variance,
    which needs gaussian noise (Montanaro 2015).  `delta` is the failure
    probability of one call.  A run asks for the budget at every oracle call
    but at only a few distinct eps, so each estimator keeps those it computed.
    """

    noise: NoiseModel
    delta: float
    c1: float = 2.0
    c2: float | None = None
    _budgets: dict[float, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.c2 is not None and self.noise.kind != "gaussian":
            raise EnvironmentConfigError("qmc2 variant requires gaussian noise")

    def queries(self, eps: float) -> int:
        """Queries charged by one call at accuracy eps.

        The qmc1 budget with c1, or with `c2` set the qmc2 budget with c2,
        falling back to qmc1 with c1 when eps >= 4*sigma, where the
        bounded-variance guarantee does not apply.  Each eps is computed
        once; one whose budget raises is not stored, so it raises every time.
        """
        q = self._budgets.get(eps)
        if q is None:
            if self.c2 is not None and eps < 4 * self.noise.sigma:
                q = qmc2_budget(eps, self.noise.sigma, self.delta, self.c2)
            else:
                q = qmc1_budget(eps, self.delta, self.c1)
            self._budgets[eps] = q
        return q


ORACLE_MODES = ("contract", "empirical")


@dataclass
class QuantumOracleSim:
    """Simulated quantum mean-estimation oracle.

    Contract mode draws the estimate directly from the accuracy guarantee:
    mu + Uniform(-eps, eps), or mu +/- 2*eps with probability delta when
    fault injection is on.  Empirical mode returns the sample mean of the
    budgeted number of classical noisy draws (a comparison baseline with
    no accuracy guarantee at the quantum budget).
    """

    mode: str  # one of ORACLE_MODES
    fault_injection: bool
    rng: np.random.Generator

    def __post_init__(self):
        if self.mode not in ORACLE_MODES:
            raise EnvironmentConfigError(f"mode must be one of {ORACLE_MODES}, got {self.mode!r}")


@dataclass
class RoundLedger:
    """Accounting of played rounds and cumulative regret against the horizon.

    `checkpoint_every=None` records a checkpoint every max(1, horizon // 100)
    rounds.
    """

    horizon: int
    checkpoint_every: int | None = None
    consumed: int = 0
    cumulative_regret: float = 0.0
    checkpoints: list[tuple[int, float]] = field(default_factory=list)

    def __post_init__(self):
        if self.horizon < 1:
            raise EnvironmentConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.checkpoint_every is None:
            self.checkpoint_every = max(1, self.horizon // 100)
        if self.checkpoint_every < 1:
            raise EnvironmentConfigError("checkpoint_every must be >= 1")

    @property
    def remaining(self) -> int:
        return self.horizon - self.consumed

    def consume(self, n: int, gap: float) -> int:
        """Charge up to n rounds at per-round regret `gap`; returns rounds charged.

        Checkpoints crossed by the burst are recorded with the exact regret
        at the checkpoint round (regret accrues linearly within a burst).
        The burst covers rounds start+1..end, so it crosses a multiple of
        `checkpoint_every` exactly when end % checkpoint_every < n; only
        then does it look for checkpoints.
        """
        start = self.consumed
        end = start + n
        if end > self.horizon:
            end = self.horizon
            n = end - start
        if n <= 0:
            return 0
        start_regret = self.cumulative_regret
        self.consumed = end
        self.cumulative_regret = start_regret + n * gap
        ck = self.checkpoint_every
        if end % ck < n:
            b = (start // ck + 1) * ck
            while b <= end:
                self.checkpoints.append((b, start_regret + (b - start) * gap))
                b += ck
        return n

    def finalize(self) -> None:
        """Pad checkpoints flat out to the horizon (unplayed rounds add no regret);
        the horizon is the last one even where the interval does not divide it."""
        ck = self.checkpoint_every
        rounds = range((len(self.checkpoints) + 1) * ck, self.horizon + 1, ck)
        self.checkpoints += [(b, self.cumulative_regret) for b in rounds]
        if not self.checkpoints or self.checkpoints[-1][0] < self.horizon:
            self.checkpoints.append((self.horizon, self.cumulative_regret))


def qmc_estimate(
    oracle: QuantumOracleSim,
    estimator: Estimator,
    model: RewardModel,
    x: Point,
    eps: float,
    ledger: RoundLedger,
) -> tuple[float, int, bool]:
    """One simulated quantum mean-estimation call at accuracy eps.

    Returns (estimate, queries_used, horizon_exhausted).  The budget is
    `estimator.queries(eps)`, and the call fails with probability
    `estimator.delta`.  Every query is one played round charged gap(x)
    regret.  When the horizon truncates the budget the exhausted flag is
    set and the estimate carries no accuracy contract; callers discard it.
    """
    budget = estimator.queries(eps)
    if ledger.remaining <= 0:
        return math.nan, 0, True
    m = model.mu(x)  # once per call; mu_star - m is gap(x), and every draw shares m
    used = ledger.consume(budget, model.mu_star - m)
    exhausted = used < budget

    if oracle.mode == "empirical":
        noise = estimator.noise
        # one draw per query, each through the module's `classical_sample`
        # as bound at this call; the mean is numpy's pairwise sum over them
        draws = map(classical_sample, repeat(m, used), repeat(noise, used),
                    variates(noise, oracle.rng, used))
        return float(np.fromiter(draws, float, used).mean()), used, exhausted

    # numpy's uniform(-1.0, 1.0) is -1.0 + 2.0 * random(): the same float
    # and the same generator state, without uniform's argument handling
    if not oracle.fault_injection:
        return m + (2.0 * oracle.rng.random() - 1.0) * eps, used, exhausted
    # a fault draws its sign, a clean call its offset: two floats either
    # way, taken in one call, the same stream as two random() calls
    fault, v = oracle.rng.random(2).tolist()
    if fault < estimator.delta:
        return m + (1.0 if v < 0.5 else -1.0) * 2.0 * eps, used, exhausted
    return m + (2.0 * v - 1.0) * eps, used, exhausted
