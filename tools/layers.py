"""Per-layer timings of lipzoom, written to BENCH_layers.json at the checkout root.

    python3 tools/layers.py

Each layer is timed in-process with `time.perf_counter_ns` on fixed seeded
inputs, through no wrapper:

* µs per contract-mode `qmc_estimate` call, qmc1 and qmc2 at eps 1/8 and
  1/64 (fault injection on, as in the default config);
* µs per empirical-mode `qmc_estimate` call, under Bernoulli and gaussian
  noise, at qmc1 budgets of about 10^2, 10^3, 10^4 and 10^5 queries, on
  both sides of the 4096-float variate block;
* µs per quantum zooming stage, `run_qzooming` (bernoulli) and
  `run_qzooming_bv` (gaussian) on triangle and twodim at T = 6e5: a whole
  `harness.run_single` trial over its completed stages, oracle calls
  included;
* µs per classical round at T = 5e4 for the six classical cells of the
  default sweep: a whole trial over T;
* µs per `_Cover.set_radius` move, 1-D and 2-D: a replay of COVER_MOVES
  (2000) seeded radii, each outside its ball's band so that every call
  moves the ball's box, on a cover whose COVER_BALLS (32) balls were
  opened before the clock starts;
* µs per `_Cover.activate` call, 1-D and 2-D, one on each of
  ACTIVATIONS (100) covers opened as for the moves.  "covered": each
  cover had one more activation, whose radius-1 ball covers every
  candidate, and then one ball halved, a shrinking move that uncovers
  nothing, so each call returns None right after such a move, as most
  calls of both zooming loops do; "opening": each call opens a ball;
* µs per `RoundLedger.consume(1, g)` charge: T = 5e4 one-round charges at
  the default checkpoint interval;
* ms per `maximal_packing` call, by d and eps: each call a seeded qlae
  run makes (triangle and twodim at T = 6e5, seed 23), recorded through
  `algorithms.maximal_packing` during that run and replayed with the same
  arguments.  On a checkout that memoises packings, the memo is cleared
  before each repetition, so that every call runs the sweep;
* ms per `fit_zooming_dimension(model, 3)` for each of the three rewards,
  with the `_lattice_gaps` cache cleared before each call, so that every
  call builds its gap lattice;
* KiB at the tracemalloc peak of one `fit_zooming_dimension(model, 3)`
  for each of the three rewards, once with the `_lattice_gaps` cache
  cleared and once with the reward's gap lattice cached.  This section is
  a memory count, not a timing: one call each, no repetitions or scale.

Every timing is the median and quartiles over REPS (21) repetitions after
one warm-up, raw and scaled to the reference host speed.  The scale is
that of `benchmarks/worker.py`: after each repetition its "loop" kernel (a
Python loop of small numpy calls, like the loops timed here) runs once,
and the repetition's time is multiplied by REF_S["loop"] over the
kernel's time.  The file also records the git revision, whether the tree
was dirty, the CPU count, the machine and the Python and numpy versions.
The script measures and gates nothing; it uses only `qmc_estimate`,
`Estimator`, `QuantumOracleSim`, `RoundLedger`, `ExperimentConfig`,
`run_single` and its results, `sweep_cells`, `_Cover`'s `activate` and
`set_radius`, `maximal_packing` and its `algorithms` binding,
`fit_zooming_dimension`, `_lattice_gaps.cache_clear` and, where it exists,
`geometry._packing.cache_clear`, so the same file runs on older checkouts
for before/after numbers.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
sys.dont_write_bytecode = True  # leave no bytecode cache in benchmarks/

import numpy as np  # noqa: E402

import worker  # noqa: E402
from lipzoom import algorithms, environment, geometry  # noqa: E402
from lipzoom.algorithms import _Cover  # noqa: E402
from lipzoom.diagnostics import _lattice_gaps, fit_zooming_dimension  # noqa: E402
from lipzoom.environment import (  # noqa: E402
    REWARD_FACTORIES,
    Estimator,
    NoiseModel,
    QuantumOracleSim,
    RoundLedger,
    triangle_model,
)
from lipzoom.geometry import maximal_packing  # noqa: E402
from lipzoom.harness import SWEEP_DEFAULTS, ExperimentConfig, run_single, sweep_cells  # noqa: E402

REPS = 21
KERNEL = "loop"
ORACLE_CALLS = 2_000  # qmc_estimate calls per repetition
EMPIRICAL_BUDGETS = (100, 1_000, 10_000, 100_000)  # queries per empirical call
EMPIRICAL_QUERIES = 100_000  # empirical-mode queries per repetition
COVER_BALLS = 32  # balls opened before the timed moves
COVER_MOVES = 2_000  # set_radius moves per repetition
ACTIVATIONS = 100  # activate calls per repetition


def _stats(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": q1, "p50": median, "p75": q3}


def _time(fn, per: float, reps: int, setup=tuple) -> dict:
    """µs per unit of `fn(*setup())`'s work (`per` units per call), raw and
    scaled; `setup()` runs before each call and is not timed."""
    fn(*setup())  # warm-up: imports, caches, first allocations
    raw, scaled = [], []
    for _ in range(reps):
        args = setup()
        t0 = time.perf_counter_ns()
        fn(*args)
        us = (time.perf_counter_ns() - t0) / 1e3 / per
        raw.append(us)
        scaled.append(us * worker.REF_S[KERNEL] / worker.reference(KERNEL))
    return {"raw": _stats(raw), "scaled": _stats(scaled)}


def oracle_calls(reps: int) -> dict:
    config = ExperimentConfig()
    model, x = triangle_model(), (0.5,)
    forms = {
        "qmc1": Estimator(NoiseModel("bernoulli"), config.delta / worker.QUANTUM_T,
                          config.c1),
        "qmc2": Estimator(NoiseModel("gaussian", config.sigma),
                          config.delta / worker.QUANTUM_T, config.c1, config.c2),
    }
    out = {}
    for form, estimator in forms.items():
        for k in (3, 6):
            eps = 2.0 ** -k
            oracle = QuantumOracleSim("contract", config.fault_injection,
                                      np.random.default_rng(k))

            def calls():
                # no checkpoint and no horizon within reach of the calls
                ledger = RoundLedger(10**15, 10**15)
                for _ in range(ORACLE_CALLS):
                    environment.qmc_estimate(oracle, estimator, model, x, eps, ledger)

            out[f"{form} eps=1/{2 ** k}"] = _time(calls, ORACLE_CALLS, reps)
    return out


def empirical_calls(reps: int) -> dict:
    config = ExperimentConfig()
    model, x = triangle_model(), (0.5,)
    delta = config.delta / worker.QUANTUM_T
    out = {}
    for noise in (NoiseModel("bernoulli"), NoiseModel("gaussian", config.sigma)):
        estimator = Estimator(noise, delta, config.c1)
        for target in EMPIRICAL_BUDGETS:
            # the qmc1 budget ceil((c1/eps) ln(1/delta)) is about target at this eps
            eps = config.c1 * math.log(1.0 / delta) / target
            calls = EMPIRICAL_QUERIES // target
            oracle = QuantumOracleSim("empirical", False, np.random.default_rng(target))

            def run():
                ledger = RoundLedger(10**15, 10**15)
                for _ in range(calls):
                    environment.qmc_estimate(oracle, estimator, model, x, eps, ledger)

            out[f"{noise.kind} queries={estimator.queries(eps)}"] = _time(run, calls, reps)
    return out


def zooming_stages(reps: int) -> dict:
    out = {}
    for algorithm, noise in (("qzooming", "bernoulli"), ("qzooming_bv", "gaussian")):
        for reward in ("triangle", "twodim"):
            config = ExperimentConfig(algorithm=algorithm, reward=reward, noise=noise,
                                      T=worker.QUANTUM_T, master_seed=23)
            stages = run_single(config, 0).stages_completed
            entry = _time(lambda: run_single(config, 0), stages, reps)
            out[f"{algorithm} {reward} {noise}"] = {**entry, "stages": stages}
    return out


def classical_rounds(reps: int) -> dict:
    out = {}
    for cell in sweep_cells():
        if cell.algorithm == "classical_zooming":
            out[f"{cell.reward} {cell.noise}"] = _time(
                lambda: run_single(cell, 0), cell.T, reps)
    return out


def _opened_cover(dimension: int) -> tuple[_Cover, list[float]]:
    """A cover with COVER_BALLS balls, each opened and then shrunk to a seeded
    radius, which leaves room for the next activation; and their radii."""
    rng = np.random.default_rng(dimension)
    cover, radii = _Cover(dimension), []
    while len(radii) < COVER_BALLS and cover.activate() is not None:
        radii.append(2.0 ** -rng.uniform(3, 9 if dimension == 1 else 6))
        cover.set_radius(len(radii) - 1, radii[-1])
    return cover, radii


def cover_moves(reps: int) -> dict:
    out = {}
    for dimension in (1, 2):
        # seeded radii, log-uniform over the lattice's scales, each kept only
        # if it leaves its ball's band: every call of the replay moves a box
        rng = np.random.default_rng(40 + dimension)
        cover, radii = _opened_cover(dimension)
        bands = [cover.set_radius(i, r) for i, r in enumerate(radii)]
        moves = []
        while len(moves) < COVER_MOVES:
            i = int(rng.integers(len(radii)))
            r = 2.0 ** -rng.uniform(0, 10 if dimension == 1 else 7)
            lo, hi = bands[i]
            if not lo <= r < hi:
                moves.append((i, r))
                bands[i] = cover.set_radius(i, r)

        def replay(cover):
            set_radius = cover.set_radius
            for i, r in moves:
                set_radius(i, r)

        out[f"{dimension}-D"] = _time(replay, COVER_MOVES, reps,
                                      setup=lambda: _opened_cover(dimension)[:1])
    return out


def cover_activations(reps: int) -> dict:
    def calls(covers):
        for cover in covers:
            cover.activate()

    def covered(dimension):
        covers = []
        for k in range(ACTIVATIONS):
            cover, radii = _opened_cover(dimension)
            cover.activate()
            i = k % len(radii)
            cover.set_radius(i, radii[i] / 2.0)  # radii[i] >= 1/n: the box shrinks
            covers.append(cover)
        return (covers,)

    out = {}
    for dimension in (1, 2):
        out[f"{dimension}-D covered"] = _time(calls, ACTIVATIONS, reps,
                                              setup=lambda: covered(dimension))
        out[f"{dimension}-D opening"] = _time(
            calls, ACTIVATIONS, reps,
            setup=lambda: ([_opened_cover(dimension)[0] for _ in range(ACTIVATIONS)],))
    return out


def ledger_charges(reps: int) -> dict:
    gaps = np.random.default_rng(5).random(SWEEP_DEFAULTS.T).tolist()

    def charges(ledger):
        consume = ledger.consume
        for g in gaps:
            consume(1, g)

    entry = _time(charges, SWEEP_DEFAULTS.T, reps, setup=lambda: (RoundLedger(SWEEP_DEFAULTS.T),))
    return {"consume(1, g)": entry}


def packings(reps: int) -> dict:
    # only an older checkout memoises packings, in `geometry._packing`
    clear = getattr(getattr(geometry, "_packing", None), "cache_clear", lambda: None)

    def cleared():
        clear()
        return ()

    calls = []

    def recorded(region, metric, eps, spacing):
        calls.append((region, metric, eps, spacing))
        return maximal_packing(region, metric, eps, spacing)

    algorithms.maximal_packing = recorded
    try:
        for reward in ("triangle", "twodim"):
            run_single(ExperimentConfig(algorithm="qlae", reward=reward,
                                        T=worker.QUANTUM_T, master_seed=23), 0)
    finally:
        algorithms.maximal_packing = maximal_packing
    out = {}
    for args in calls:
        # 1000 units per call: µs per unit is ms per call
        entry = _time(lambda: maximal_packing(*args), 1e3, reps, setup=cleared)
        key = f"d={args[1].dimension} eps=1/{round(1 / args[2])}"
        out[key] = {**entry, "arms": len(maximal_packing(*args))}
    return out


def dim_fits(reps: int) -> dict:
    def cleared():
        _lattice_gaps.cache_clear()
        return ()

    out = {}
    for reward, factory in REWARD_FACTORIES.items():
        model = factory()
        # 1000 units per call: µs per unit is ms per call
        out[reward] = _time(lambda: fit_zooming_dimension(model, 3), 1e3, reps, setup=cleared)
    return out


def dim_fit_peaks() -> dict:
    def traced_peak_kb(model) -> float:
        tracemalloc.start()
        try:
            fit_zooming_dimension(model, 3)
            return tracemalloc.get_traced_memory()[1] / 1024
        finally:
            tracemalloc.stop()

    out = {}
    for reward, factory in REWARD_FACTORIES.items():
        model = factory()
        _lattice_gaps.cache_clear()
        cleared = traced_peak_kb(model)  # it leaves this reward's lattice cached
        out[reward] = {"cleared": cleared, "cached": traced_peak_kb(model)}
    return out


def provenance() -> dict:
    def git(*args):
        return subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30).stdout.strip()

    return {"git_revision": git("rev-parse", "HEAD") or None,
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}


def collect(reps: int = REPS) -> dict:
    return {
        "provenance": provenance(),
        "repetitions": reps,
        "scale": f"benchmarks/worker.py reference({KERNEL!r}), REF_S = {worker.REF_S[KERNEL]}",
        "qmc_estimate_us_per_call": oracle_calls(reps),
        "qmc_estimate_empirical_us_per_call": empirical_calls(reps),
        "zooming_us_per_stage": zooming_stages(reps),
        "classical_us_per_round": classical_rounds(reps),
        "cover_us_per_move": cover_moves(reps),
        "cover_us_per_activate": cover_activations(reps),
        "ledger_us_per_charge": ledger_charges(reps),
        "packing_ms_per_call": packings(reps),
        "dim_ms_per_fit": dim_fits(reps),
        "dim_fit_traced_peak_kb": dim_fit_peaks(),
    }


def main() -> None:
    path = ROOT / "BENCH_layers.json"
    path.write_text(json.dumps(collect(), indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
