"""Experiment configuration, multi-trial runner, CSV traces and SVG regret plots."""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, fields, replace
from html import escape
from pathlib import Path
from typing import Sequence

import numpy as np

from . import algorithms
from .environment import (
    NOISE_KINDS,
    ORACLE_MODES,
    NoiseModel,
    QuantumOracleSim,
    REWARD_FACTORIES,
)

# the allowed values of each ExperimentConfig field that names a choice
CHOICES = {
    "algorithm": ("qlae", "qlae_bv", "qzooming", "qzooming_bv", "classical_zooming"),
    "reward": tuple(REWARD_FACTORIES),
    "noise": NOISE_KINDS,
    "qmc_mode": ORACLE_MODES,
}


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the offending field names."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str = "qzooming"
    reward: str = "triangle"
    noise: str = "bernoulli"
    sigma: float = math.sqrt(0.1)
    T: int = 300_000
    delta: float = 0.05
    trials: int = 30
    master_seed: int = 0
    c1: float = 2.0
    c2: float = 2.0
    qmc_mode: str = "contract"
    fault_injection: bool = True
    checkpoint_every: int | None = None
    audits: bool = False

    def __post_init__(self) -> None:
        """Numpy numbers become Python values; `validate` runs on construction and `replace`."""
        for name, value in vars(self).items():
            if isinstance(value, np.generic):
                object.__setattr__(self, name, value.item())
        self.validate()  # through self, so a wrapper set on the class runs

    def validate(self) -> None:
        problems, typed = [], set()
        # each field's type first, so that no check below reads a wrong type:
        # a float count runs wrong or crashes, and a string flag is truthy
        for name, (base, optional) in FIELD_TYPES.items():
            value = getattr(self, name)
            if name in CHOICES and value not in CHOICES[name]:
                problems.append(f"{name} must be one of {CHOICES[name]}, got {value!r}")
            elif name not in CHOICES and not (optional and value is None):
                kind, noun = _KINDS[base]
                # a bool is an int to isinstance; only a bool field takes one
                if isinstance(value, kind) and isinstance(value, bool) == (kind is bool):
                    typed.add(name)
                else:
                    problems.append(f"{name} must be {noun}, got {value!r}")
        read = reads(self) if self.algorithm in CHOICES["algorithm"] else set()
        if "T" in typed and self.T < 1:
            problems.append(f"T must be >= 1, got {self.T}")
        if "delta" in typed and not (0 < self.delta < 1):
            problems.append(f"delta must be in (0,1), got {self.delta}")
        elif ({"delta", "T"} <= typed and self.T >= 1 and "delta" in read
              and self.delta / self.T == 0.0):
            problems.append(
                f"delta must be large enough that delta/T > 0, got {self.delta} with T={self.T}")
        if "trials" in typed and self.trials < 1:
            problems.append(f"trials must be >= 1, got {self.trials}")
        if "master_seed" in typed and self.master_seed < 0:
            problems.append(f"master_seed must be >= 0, got {self.master_seed}")
        if "sigma" in typed and not 0 < self.sigma < math.inf:
            problems.append(f"sigma must be finite and > 0 for gaussian noise, got {self.sigma}")
        if "c2" in read and self.noise != "gaussian":
            problems.append(
                f"algorithm {self.algorithm!r} requires gaussian noise, got {self.noise!r}")
        if "audits" in typed and self.audits and "audits" not in read:
            problems.append("audit requires a quantum algorithm")
        for name in ("c1", "c2"):
            value = getattr(self, name)
            if name in typed and not 1 < value < math.inf:
                problems.append(f"{name} must be finite and > 1, got {value}")
        if {"checkpoint_every", "T"} <= typed and not 1 <= self.checkpoint_every <= self.T:
            problems.append(
                f"checkpoint_every must be in [1, T={self.T}], got {self.checkpoint_every}")
        if problems:
            raise ConfigError(problems)


# (type name, whether None is allowed) per field, from its annotation: the one type rule
FIELD_TYPES = {f.name: (base, bool(none)) for f in fields(ExperimentConfig)
               for base, _, none in [f.type.partition(" | ")]}
# what a field of each non-choice type accepts, and the noun its message uses
_KINDS = {"int": (int, "an integer"), "float": ((int, float), "a real number"),
          "bool": (bool, "a bool")}


@dataclass(frozen=True)
class RegretTrace:
    run_id: str
    algorithm: str
    reward: str
    noise: str
    checkpoints: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class Summary:
    """Per-checkpoint mean and sample standard deviation across trials."""

    rounds: tuple[int, ...]
    mean: tuple[float, ...]
    std: tuple[float, ...]


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Counter-based per-trial stream: seeded from (master_seed, trial_index)."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, trial]))


@functools.cache
def _parameters(runner) -> tuple[str, ...]:
    """A runner's parameter names, once per runner object: a wrapper set in
    its place is another object, so it gets its own entry."""
    return tuple(inspect.signature(runner).parameters)


def reads(config: ExperimentConfig) -> set[str]:
    """The config fields a run of `config` reads; outside `validate` its algorithm is valid."""
    params = _parameters(getattr(algorithms, f"run_{config.algorithm}"))
    out = {"algorithm", "reward", "noise", "trials", "master_seed", *params} & vars(config).keys()
    if "oracle" in params:
        out.add("qmc_mode")
        if config.qmc_mode == "contract":  # an empirical estimate is a sample mean
            out.add("fault_injection")
    if config.noise == "gaussian":
        out.add("sigma")
    return out


def run_single(config: ExperimentConfig, trial: int) -> algorithms.PolicyResult:
    """One trial of `config`, which construction has already validated."""
    model = REWARD_FACTORIES[config.reward]()
    noise = NoiseModel(config.noise, config.sigma if config.noise == "gaussian" else 0.0)
    rng = trial_rng(config.master_seed, trial)
    oracle = QuantumOracleSim(config.qmc_mode, config.fault_injection, rng)
    values = {**vars(config), "model": model, "noise": noise, "oracle": oracle, "rng": rng}
    # looked up per call, so a wrapper in its place runs; signature follows __wrapped__
    runner = getattr(algorithms, f"run_{config.algorithm}")
    return runner(**{name: values[name] for name in _parameters(runner)})


def run_experiment(config: ExperimentConfig) -> tuple[list[RegretTrace], Summary]:
    """Run all trials of one configuration; summary aggregates per checkpoint."""
    traces = []
    for trial in range(config.trials):
        result = run_single(config, trial)
        run_id = f"{config.algorithm}-{config.reward}-{config.noise}-trial{trial}"
        traces.append(RegretTrace(run_id, config.algorithm, config.reward, config.noise,
                                  tuple(result.checkpoints)))
    return traces, summarize(traces)


def summarize(traces: Sequence[RegretTrace]) -> Summary:
    if not traces:
        raise ValueError("summarize needs at least one trace")
    rounds = tuple(t for t, _ in traces[0].checkpoints)
    for tr in traces:
        if tuple(t for t, _ in tr.checkpoints) != rounds:
            raise ValueError("traces have mismatched checkpoint rounds")
    values = np.array([[v for _, v in tr.checkpoints] for tr in traces])
    mean = values.mean(axis=0)
    std = values.std(axis=0, ddof=1) if len(traces) > 1 else np.zeros(len(rounds))
    return Summary(rounds, tuple(float(v) for v in mean), tuple(float(v) for v in std))


def emit_csv(
    traces: Sequence[RegretTrace], summary: Summary, prefix: str | Path
) -> tuple[Path, Path]:
    """Write <prefix>_traces.csv and <prefix>_summary.csv in full precision."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    traces_path = prefix.with_name(prefix.name + "_traces.csv")
    summary_path = prefix.with_name(prefix.name + "_summary.csv")
    texts = {
        traces_path: "run_id,algorithm,reward,noise,t,cumulative_regret\n" + "".join(
            f"{tr.run_id},{tr.algorithm},{tr.reward},{tr.noise},{t},{v!r}\n"
            for tr in sorted(traces, key=lambda tr: tr.run_id) for t, v in tr.checkpoints),
        summary_path: "t,mean,std\n" + "".join(
            f"{t},{m!r},{s!r}\n" for t, m, s in zip(summary.rounds, summary.mean, summary.std)),
    }
    try:
        for path, text in texts.items():
            path.write_text(text)
    except OSError as exc:
        raise OSError(f"failed writing CSV near {prefix}: {exc}") from exc
    return traces_path, summary_path


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def emit_plot(
    summaries: Sequence[tuple[str, Summary]],
    path: str | Path,
    title: str = "Average Cumulative Regret",
) -> Path:
    """Self-contained SVG: one polyline per algorithm with a +/-1 std band."""
    if not summaries:
        raise ValueError("emit_plot needs at least one summary")
    width, height = 720, 460
    ml, mr, mt, mb = 70, 20, 40, 50
    pw, ph = width - ml - mr, height - mt - mb

    x_max = max(max(s.rounds) for _, s in summaries)
    y_max = max(max(m + sd for m, sd in zip(s.mean, s.std)) for _, s in summaries)
    y_max = y_max if y_max > 0 else 1.0

    def sx(t: float) -> float:
        return ml + pw * (t / x_max)

    def sy(v: float) -> float:
        return mt + ph * (1.0 - v / y_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{escape(title, quote=False)}</text>',
    ]
    # axes
    parts.append(
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>'
    )
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>')
    for k in range(5):
        t = x_max * k / 4
        v = y_max * k / 4
        parts.append(
            f'<text x="{sx(t):.1f}" y="{mt + ph + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{sy(v) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{v:.4g}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">round t</text>'
    )
    parts.append(
        f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {mt + ph / 2:.1f})">mean cumulative regret</text>'
    )

    for k, (label, s) in enumerate(summaries):
        color = _PALETTE[k % len(_PALETTE)]
        upper = [(t, m + sd) for t, m, sd in zip(s.rounds, s.mean, s.std)]
        lower = [(t, m - sd) for t, m, sd in zip(s.rounds, s.mean, s.std)]
        band = " ".join(f"{sx(t):.2f},{sy(v):.2f}" for t, v in upper + lower[::-1])
        parts.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.15"/>')
        line = " ".join(
            f"{sx(t):.2f},{sy(m):.2f}" for t, m in zip(s.rounds, s.mean)
        )
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = mt + 16 + 18 * k
        parts.append(
            f'<line x1="{ml + 10}" y1="{ly - 4}" x2="{ml + 34}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{ml + 40}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{escape(label, quote=False)}</text>'
        )
    parts.append("</svg>")

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n")
    return path


SWEEP_DEFAULTS = ExperimentConfig(T=50_000, trials=10, master_seed=7)


def sweep_cells(base: ExperimentConfig = SWEEP_DEFAULTS) -> list[ExperimentConfig]:
    """Configurations for the six (reward x noise) panels, three algorithms each.

    Every cell is `base` with its algorithm, reward and noise replaced.
    Bernoulli panels pair the bounded-noise variants with the classical
    baseline; gaussian panels use the bounded-variance variants.
    """
    cells = []
    # by name, so a reward added to REWARD_FACTORIES leaves these cells as they are
    for reward in ("triangle", "sine", "twodim"):
        for noise in CHOICES["noise"]:
            if noise == "bernoulli":
                algs = ("qlae", "qzooming", "classical_zooming")
            else:
                algs = ("qlae_bv", "qzooming_bv", "classical_zooming")
            for alg in algs:
                cells.append(replace(base, algorithm=alg, reward=reward, noise=noise))
    return cells
