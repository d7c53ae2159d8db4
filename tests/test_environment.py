"""Reward models, noise draws, oracle budgets/contract and ledger accounting."""

import inspect
import itertools
import math

import numpy as np
import pytest

from lipzoom.environment import (
    NOISE_KINDS,
    ORACLE_MODES,
    EnvironmentConfigError,
    Estimator,
    NoiseModel,
    QuantumOracleSim,
    RewardModel,
    RoundLedger,
    classical_sample,
    qmc1_budget,
    qmc2_budget,
    qmc_estimate,
    sine_model,
    triangle_model,
    twodim_model,
    variates,
)
from lipzoom.geometry import Metric, lattice

SIGMA = math.sqrt(0.1)


def test_triangle_values():
    m = triangle_model()
    assert m.mu((1 / 3,)) == pytest.approx(0.9)
    assert m.mu((0.0,)) == pytest.approx(0.9 - 0.95 / 3)
    assert m.gap((1 / 3,)) == pytest.approx(0.0)


def test_sine_values():
    m = sine_model()
    assert m.mu((1 / 3,)) == pytest.approx(0.35)
    assert m.mu((0.0,)) == 0.0
    # raw dips negative near x=1; mu clips into [0,1]
    assert m.raw((1.0,)) < 0.0
    assert m.mu((1.0,)) == 0.0


def test_twodim_optimum_against_grid():
    m = twodim_model()
    assert m.mu(m.x_star) == pytest.approx(1.2 - 0.3 * math.hypot(0.8, 0.3))
    # brute-force confirmation that the first kink is the global optimum
    pts = lattice(2, 1 / 256)  # 257x257 grid is plenty at this smoothness
    best = max(m.mu(tuple(p)) for p in pts)
    assert best <= m.mu_star + 1e-9


@pytest.mark.parametrize("factory,metric", [
    (triangle_model, Metric(1)),
    (sine_model, Metric(1)),
    (twodim_model, Metric(2)),
])
def test_lipschitz_on_random_pairs(factory, metric):
    model = factory()
    rng = np.random.default_rng(3)
    for _ in range(300):
        a = tuple(rng.random(metric.dimension))
        b = tuple(rng.random(metric.dimension))
        lhs = abs(model.mu(a) - model.mu(b))
        assert lhs <= model.lipschitz_constant * metric.distance(a, b) + 1e-12


def test_mu_range():
    rng = np.random.default_rng(4)
    for model, d in [(triangle_model(), 1), (sine_model(), 1), (twodim_model(), 2)]:
        for _ in range(200):
            v = model.mu(tuple(rng.random(d)))
            assert 0.0 <= v <= 1.0


def _mu_loop(model, points):
    # reference: the scalar mu of each row, as the dimension fit once did
    return np.array([model.mu(tuple(p)) for p in points])


def _mu_many(model, points):
    # mu_many reads its points once, from an iterator of tuples
    return model.mu_many(map(tuple, points.tolist()), len(points))


@pytest.mark.parametrize("factory,spacing", [
    (triangle_model, 1 / 8192),
    (sine_model, 1 / 8192),
    (twodim_model, 1 / 256),
])
def test_mu_many_equals_mu_on_dim_lattices(factory, spacing):
    # exact, no tolerance: lipzoom dim reads its gaps from mu_many
    model = factory()
    pts = lattice(model.metric.dimension, spacing)
    assert np.array_equal(_mu_many(model, pts), _mu_loop(model, pts))


@pytest.mark.parametrize("model", [
    RewardModel(lambda x: 2.0 * x[0] - 0.5, 2.0, 1.0, (1.0,)),
    RewardModel(lambda x: 3.0 * (x[0] - x[1]) + 0.5, 3.0, 1.0, (1.0, 0.0), Metric(2)),
    RewardModel(lambda x: 0.5, 0.0, 0.5, (0.0,)),
], ids=["clip-1d", "clip-2d", "constant"])
def test_mu_many_equals_mu_on_clipped_and_constant_models(model):
    pts = lattice(model.metric.dimension, 1 / 64)
    raws = np.array([model.raw(tuple(p)) for p in pts])
    if model.lipschitz_constant:
        assert raws.min() < 0.0 and raws.max() > 1.0  # both clips are exercised
    assert np.array_equal(_mu_many(model, pts), _mu_loop(model, pts))


def test_mu_many_clips_nan_and_negative_zero_as_mu():
    # max(0.0, v) and min(1.0, v) keep v only on a strict comparison
    model = RewardModel(lambda x: math.nan if x[0] > 0.5 else -0.0, 0.0, 0.0, (0.0,))
    pts = lattice(1, 1 / 8)
    got, want = _mu_many(model, pts), _mu_loop(model, pts)
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got).any() and not np.isnan(got).any()


def test_qmc1_budget_examples():
    assert qmc1_budget(0.5, 0.05 / 1000, 2.0) == 40
    assert qmc1_budget(0.25, 0.05 / 1000, 2.0) == 80
    assert qmc1_budget(1.0, 1 / math.e, 2.0) == 2


def test_qmc2_budget_examples():
    assert qmc2_budget(0.25, SIGMA, 0.05 / 1000, 2.0) == 266
    # eps = 2*sigma: log2(8s/e) = 2, log2 log2 = 1, ln(1/delta) = 1
    assert qmc2_budget(2 * SIGMA, SIGMA, 1 / math.e, 2.0) == 3


def test_qmc2_budget_precondition():
    with pytest.raises(EnvironmentConfigError):
        qmc2_budget(4 * SIGMA, SIGMA, 0.05)


def test_budget_validation():
    with pytest.raises(EnvironmentConfigError):
        qmc1_budget(0.0, 0.05)
    with pytest.raises(EnvironmentConfigError):
        qmc1_budget(0.5, 1.5)
    with pytest.raises(EnvironmentConfigError):
        qmc2_budget(0.1, -1.0, 0.05)


def test_budget_rejects_nan_eps_and_sigma():
    # NaN passes an `<= 0` test; it must fail the positivity check, not
    # reach the budget's finiteness check
    nan = float("nan")
    with pytest.raises(EnvironmentConfigError, match="^eps must be positive, got nan$"):
        qmc1_budget(nan, 0.05)
    for eps, sigma in ((nan, SIGMA), (0.1, nan)):
        with pytest.raises(EnvironmentConfigError, match="^eps and sigma must be positive"):
            qmc2_budget(eps, sigma, 0.05)


def test_budget_overflow_is_config_error():
    # (c/eps) ln(1/delta) overflows to inf for a huge constant or a delta
    # whose reciprocal is not a finite float
    with pytest.raises(EnvironmentConfigError, match="not finite"):
        qmc1_budget(0.5, 0.05, 1e308)
    with pytest.raises(EnvironmentConfigError, match="not finite"):
        qmc1_budget(0.5, 1e-309)
    with pytest.raises(EnvironmentConfigError, match="not finite"):
        qmc2_budget(0.25, SIGMA, 0.05, 1e308)
    with pytest.raises(EnvironmentConfigError, match="not finite"):
        qmc2_budget(0.25, SIGMA, 1e-309)


def test_budgets_decrease_with_eps():
    prev1 = prev2 = None
    for k in range(1, 8):
        eps = 2.0 ** -k
        b1 = qmc1_budget(eps, 0.05)
        b2 = qmc2_budget(eps, SIGMA, 0.05)
        if prev1 is not None:
            assert b1 > prev1
            assert b2 > prev2
        prev1, prev2 = b1, b2


def test_bernoulli_sample_mean():
    model = triangle_model()
    noise = NoiseModel("bernoulli")
    rng = np.random.default_rng(5)
    m = model.mu((1 / 3,))
    draws = [classical_sample(m, noise, v) for v in variates(noise, rng, 10_000)]
    assert set(draws) <= {0.0, 1.0}
    assert np.mean(draws) == pytest.approx(0.9, abs=0.01)


def test_gaussian_sample_variance():
    model = triangle_model()
    noise = NoiseModel("gaussian", SIGMA)
    rng = np.random.default_rng(6)
    x = (0.0,)
    m = model.mu(x)
    draws = np.array([classical_sample(m, noise, v) for v in variates(noise, rng, 10_000)])
    assert draws.mean() == pytest.approx(model.mu(x), abs=0.02)
    assert draws.var(ddof=1) == pytest.approx(0.1, abs=0.01)


def _reference_classical_sample(model, noise, x, rng):
    # reference: the reward evaluated inside every draw
    m = model.mu(x)
    if noise.kind == "bernoulli":
        return float(rng.random() < m)
    return m + noise.sigma * float(rng.standard_normal())


@pytest.mark.parametrize("kind", NOISE_KINDS)
@pytest.mark.parametrize("factory,x", [
    (triangle_model, (1 / 3,)),
    (triangle_model, (0.9,)),
    (twodim_model, (0.8, 0.7)),
    (twodim_model, (0.0, 0.0)),  # raw < 0: mu clips to 0
])
def test_classical_sample_matches_reference(kind, factory, x):
    model = factory()
    noise = NoiseModel(kind, SIGMA if kind == "gaussian" else 0.0)
    if x == (0.0, 0.0):
        assert model.raw(x) < 0.0 and model.mu(x) == 0.0
    rng_ref, rng_new = np.random.default_rng(31), np.random.default_rng(31)
    m = model.mu(x)
    ref = [_reference_classical_sample(model, noise, x, rng_ref) for _ in range(2_000)]
    new = [classical_sample(m, noise, v) for v in variates(noise, rng_new, 2_000)]
    assert new == ref
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def _scalar_variate(noise, rng):
    # reference: one scalar generator call per draw
    if noise.kind == "bernoulli":
        return rng.random()
    return float(rng.standard_normal())


@pytest.mark.parametrize("kind", NOISE_KINDS)
@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 10_000])
def test_variates_match_scalar_draws(kind, n):
    # blocks must neither change a float nor over-draw across a block boundary
    noise = NoiseModel(kind, SIGMA if kind == "gaussian" else 0.0)
    rng_ref, rng_new = np.random.default_rng(41), np.random.default_rng(41)
    ref = [_scalar_variate(noise, rng_ref) for _ in range(n)]
    new = list(variates(noise, rng_new, n))
    assert new == ref
    assert all(type(v) is float for v in new)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("kind", NOISE_KINDS)
@pytest.mark.parametrize("n", [1, 4096, 10_000])
def test_variates_draw_lazily_block_by_block(kind, n):
    # the classical loop consumes the iterator round by round, so a block
    # must be drawn only when its first float is asked for
    noise = NoiseModel(kind, SIGMA if kind == "gaussian" else 0.0)
    rng, twin = np.random.default_rng(43), np.random.default_rng(43)
    draw = twin.random if kind == "bernoulli" else twin.standard_normal
    it = variates(noise, rng, n)
    assert rng.bit_generator.state == twin.bit_generator.state
    taken = blocks = 0
    for k in sorted({k for k in (0, 1, 4095, 4096, 4097, 8192, 8193, n) if k <= n}):
        assert len(list(itertools.islice(it, k - taken))) == k - taken
        taken = k
        while blocks < -(-k // 4096):  # ceil(k / 4096) blocks, each as variates sizes it
            draw(min(4096, n - 4096 * blocks))
            blocks += 1
        assert rng.bit_generator.state == twin.bit_generator.state, k
    assert next(it, None) is None


def test_gaussian_noise_needs_sigma():
    with pytest.raises(EnvironmentConfigError):
        NoiseModel("gaussian", 0.0)


@pytest.mark.parametrize("value", ["bogus", "Bernoulli", "", None])
def test_noise_kind_and_oracle_mode_are_checked(value):
    # unchecked, an unknown kind would draw no noise and an unknown mode run in contract mode
    with pytest.raises(EnvironmentConfigError, match="^kind must be one of"):
        NoiseModel(value, SIGMA)
    with pytest.raises(EnvironmentConfigError, match="^mode must be one of"):
        QuantumOracleSim(value, False, np.random.default_rng(0))
    for kind in NOISE_KINDS:
        assert NoiseModel(kind, SIGMA).kind == kind
    for mode in ORACLE_MODES:
        assert QuantumOracleSim(mode, False, np.random.default_rng(0)).mode == mode


def _fresh(T=10**9, ck=10**9):
    return RoundLedger(T, ck)


BERN = Estimator(NoiseModel("bernoulli"), 0.05)


def test_qmc_estimate_takes_the_estimator_alone():
    # noise, failure probability and constants live on the Estimator
    params = list(inspect.signature(qmc_estimate).parameters)
    assert params == ["oracle", "estimator", "model", "x", "eps", "ledger"]


def test_oracle_contract_no_fault_always_within_eps():
    model = triangle_model()
    oracle = QuantumOracleSim("contract", False, np.random.default_rng(7))
    mu = model.mu((0.5,))
    for _ in range(2_000):
        est, used, exhausted = qmc_estimate(oracle, BERN, model, (0.5,), 0.1, _fresh())
        assert not exhausted
        assert abs(est - mu) <= 0.1
        assert used == qmc1_budget(0.1, 0.05)


def test_oracle_contract_fault_rate():
    model = triangle_model()
    oracle = QuantumOracleSim("contract", True, np.random.default_rng(8))
    mu = model.mu((0.5,))
    within = 0
    for _ in range(10_000):
        est, _, _ = qmc_estimate(oracle, BERN, model, (0.5,), 0.1, _fresh())
        if abs(est - mu) <= 0.1:
            within += 1
    assert within >= 9_400  # binomial 3-sigma slack below 0.95 * 10^4


def test_oracle_empirical_mode():
    model = triangle_model()
    gauss = Estimator(NoiseModel("gaussian", SIGMA), 0.05)
    oracle = QuantumOracleSim("empirical", False, np.random.default_rng(9))
    est, used, _ = qmc_estimate(oracle, gauss, model, (0.2,), 0.05, _fresh())
    assert used == qmc1_budget(0.05, 0.05)
    # empirical mean of `used` draws carries no eps contract, only consistency
    assert abs(est - model.mu((0.2,))) < 0.2


def _budget_eps(estimator, budget):
    # an eps at which the qmc1 budget is exactly `budget` queries
    eps = estimator.c1 * math.log(1.0 / estimator.delta) / (budget - 0.5)
    assert estimator.queries(eps) == budget
    return eps


@pytest.mark.parametrize("kind", NOISE_KINDS)
@pytest.mark.parametrize("budget,horizon", [
    (1, 10**9), (4095, 10**9), (4096, 10**9), (4097, 10**9), (4097, 3000),
], ids=["1", "4095", "4096", "4097", "4097-truncated"])
def test_empirical_estimate_equals_mean_of_listed_draws(kind, budget, horizon):
    # exact: the estimate is numpy's mean of the same floats, drawn from
    # the same stream, whatever the pipeline that feeds it
    noise = NoiseModel(kind, SIGMA if kind == "gaussian" else 0.0)
    estimator = Estimator(noise, 0.05)
    model, x = triangle_model(), (0.5,)
    oracle = QuantumOracleSim("empirical", False, np.random.default_rng(47))
    twin = np.random.default_rng(47)
    eps = _budget_eps(estimator, budget)
    est, used, exhausted = qmc_estimate(oracle, estimator, model, x, eps, RoundLedger(horizon))
    assert used == min(budget, horizon) and exhausted == (horizon < budget)
    m = model.mu(x)
    ref = float(np.mean([classical_sample(m, noise, v) for v in variates(noise, twin, used)]))
    assert est == ref
    assert oracle.rng.bit_generator.state == twin.bit_generator.state


def test_qmc2_variant_fallback():
    estimator = Estimator(NoiseModel("gaussian", 0.05), 0.05, c2=2.0)
    # eps = 0.5 >= 4*sigma = 0.2: the bounded-variance guarantee is vacuous,
    # so the call charges the qmc1 budget instead
    assert estimator.queries(0.5) == qmc1_budget(0.5, 0.05)
    assert estimator.queries(0.1) == qmc2_budget(0.1, 0.05, 0.05, 2.0)


def test_nonfinite_budget_raises_on_every_call():
    # a budget that raises is not remembered
    estimator = Estimator(NoiseModel("bernoulli"), 0.05, c1=1e308)
    for _ in range(3):
        with pytest.raises(EnvironmentConfigError, match="not finite"):
            estimator.queries(0.5)


def test_budget_memo_leaves_equality_hash_and_repr():
    noise = NoiseModel("bernoulli")
    used, fresh = Estimator(noise, 0.05), Estimator(noise, 0.05)
    assert used.queries(0.25) == used.queries(0.25) == qmc1_budget(0.25, 0.05)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)


@pytest.mark.parametrize("seed", [0, 7, 23, 47, 2**40 + 3])
def test_contract_draw_equals_numpy_uniform(seed):
    # the contract oracle draws 2 * random() - 1 in place of uniform(-1, 1)
    g, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    got = [2.0 * g.random() - 1.0 for _ in range(20_000)]
    want = [twin.uniform(-1.0, 1.0) for _ in range(20_000)]
    assert got == want
    assert g.bit_generator.state == twin.bit_generator.state


def test_qmc2_variant_requires_gaussian():
    with pytest.raises(EnvironmentConfigError):
        Estimator(NoiseModel("bernoulli"), 0.05, c2=2.0)


def test_ledger_checkpoints_and_interpolation():
    led = RoundLedger(100, 10)
    led.consume(25, 0.2)
    assert led.consumed == 25
    assert led.cumulative_regret == pytest.approx(5.0)
    assert led.checkpoints == [(10, pytest.approx(2.0)), (20, pytest.approx(4.0))]
    led.consume(5, 1.0)  # crosses 30 exactly
    assert led.checkpoints[-1] == (30, pytest.approx(10.0))


def _reference_consume(ledger, n, gap):
    # reference: the charge before its per-round overhead was trimmed
    start, start_regret = ledger.consumed, ledger.cumulative_regret
    n = min(n, ledger.horizon - start)
    if n <= 0:
        return 0
    ledger.consumed = end = start + n
    ledger.cumulative_regret = start_regret + n * gap
    ck = ledger.checkpoint_every
    b = (start // ck + 1) * ck
    while b <= end:
        ledger.checkpoints.append((b, start_regret + (b - start) * gap))
        b += ck
    return n


@pytest.mark.parametrize("checkpoint_every", [1, 5, 7, 50, None])
def test_ledger_consume_matches_reference(checkpoint_every):
    # exact, no tolerance: an ulp of drift would move a regret CSV byte.
    # Bursts of ck - 1, ck and ck + 1 rounds and negative ones put the
    # crossing test end % ck < n at its edges
    rng = np.random.default_rng(53)
    led, ref = RoundLedger(5_000, checkpoint_every), RoundLedger(5_000, checkpoint_every)
    ck = ref.checkpoint_every
    edges = [ck - 1, ck, ck + 1, -1, -ck]
    while ref.remaining > 0 or rng.random() < 0.9:
        if rng.random() < 0.3:
            n = int(rng.choice(edges))
        else:
            n = int(rng.integers(0, rng.choice([2, 100, ref.remaining + 50], p=[0.5, 0.4, 0.1])))
        gap = float(rng.random()) if rng.random() < 0.9 else 0.0
        assert led.consume(n, gap) == _reference_consume(ref, n, gap)
        assert (led.consumed, led.cumulative_regret) == (ref.consumed, ref.cumulative_regret)
    assert led.checkpoints == ref.checkpoints
    assert led.consumed == 5_000
    # every burst of -2..2ck+1 rounds from every start in three checkpoint periods
    for start in range(3 * ck):
        for n in range(-2, 2 * ck + 2):
            led, ref = RoundLedger(5_000, ck), RoundLedger(5_000, ck)
            led.consumed = ref.consumed = start
            led.cumulative_regret = ref.cumulative_regret = 0.1 * start
            assert led.consume(n, 0.3) == _reference_consume(ref, n, 0.3)
            assert (led.consumed, led.cumulative_regret, led.checkpoints) == \
                (ref.consumed, ref.cumulative_regret, ref.checkpoints), (start, n)


def test_ledger_default_checkpoint_every():
    for T in (1, 99, 100, 250, 50_000):
        led = RoundLedger(T)
        led.consume(T, 1.0)
        ck = max(1, T // 100)
        assert [t for t, _ in led.checkpoints] == list(range(ck, T + 1, ck))


def test_ledger_truncation_and_finalize():
    led = RoundLedger(50, 10)
    assert led.consume(80, 0.5) == 50
    assert led.remaining == 0
    assert led.consume(10, 0.5) == 0
    led.finalize()
    assert [t for t, _ in led.checkpoints] == [10, 20, 30, 40, 50]
    assert led.checkpoints[-1][1] == pytest.approx(25.0)


def test_ledger_finalize_pads_flat():
    led = RoundLedger(40, 10)
    led.consume(15, 1.0)
    led.finalize()
    assert led.checkpoints == [
        (10, pytest.approx(10.0)), (20, pytest.approx(15.0)),
        (30, pytest.approx(15.0)), (40, pytest.approx(15.0)),
    ]


def test_ledger_last_checkpoint_is_the_horizon():
    # an interval that does not divide T still ends the trace at round T with
    # the final regret; one that divides it adds no row
    for T, every in [(12_345, None), (10, 50), (12_300, None), (50, 10)]:
        led = RoundLedger(T, every)
        led.consume(T - 3, 0.5)
        led.finalize()
        ck = led.checkpoint_every
        rounds = list(range(ck, T + 1, ck)) + ([T] if T % ck else [])
        assert [t for t, _ in led.checkpoints] == rounds, (T, every)
        assert led.checkpoints[-1] == (T, led.cumulative_regret), (T, every)


def test_estimate_truncated_by_horizon_is_flagged():
    model = triangle_model()
    oracle = QuantumOracleSim("contract", False, np.random.default_rng(12))
    led = RoundLedger(10, 5)
    _, used, exhausted = qmc_estimate(oracle, BERN, model, (0.5,), 0.01, led)
    assert exhausted and used == 10
    est, used, exhausted = qmc_estimate(oracle, BERN, model, (0.5,), 0.01, led)
    assert exhausted and used == 0 and math.isnan(est)


def _two_scalar_contract(rng, fault_injection, delta, m, eps):
    # the contract draw as one random() call per float
    if fault_injection and rng.random() < delta:
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return m + sign * 2.0 * eps
    return m + (2.0 * rng.random() - 1.0) * eps


@pytest.mark.parametrize("fault_injection, delta, faults", [
    (True, 1 - 1e-9, (2_000, 2_000)), (True, 1e-9, (0, 0)), (True, 0.5, (900, 1_100)),
    (False, 0.5, (0, 0)),
], ids=["fault-always", "fault-never", "fault-half", "fault-off"])
def test_contract_draw_equals_two_scalar_draws(fault_injection, delta, faults):
    # under fault injection both branches take two floats in one call: the
    # same estimates and generator state as drawing them one at a time
    model, x, eps = triangle_model(), (0.5,), 0.1
    estimator = Estimator(NoiseModel("bernoulli"), delta)
    oracle = QuantumOracleSim("contract", fault_injection, np.random.default_rng(61))
    twin = np.random.default_rng(61)
    m = model.mu(x)
    got = [qmc_estimate(oracle, estimator, model, x, eps, _fresh())[0] for _ in range(2_000)]
    want = [_two_scalar_contract(twin, fault_injection, delta, m, eps) for _ in range(2_000)]
    assert got == want
    assert oracle.rng.bit_generator.state == twin.bit_generator.state
    lo, hi = faults
    assert lo <= sum(abs(est - m) > eps for est in got) <= hi
