"""Command-line entry point: run / sweep / audit / dim subcommands."""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from . import diagnostics
from .environment import REWARD_FACTORIES
from .harness import (
    CHOICES,
    FIELD_TYPES,
    ConfigError,
    ExperimentConfig,
    SWEEP_DEFAULTS,
    emit_csv,
    emit_plot,
    reads,
    run_experiment,
    run_single,
    sweep_cells,
)

_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
# value parsers by field annotation; an `X | None` field also takes `none`
# in a config file
_PARSE = {"int": int, "float": float, "str": str, "bool": lambda v: _BOOL[v.lower()]}
# the values a flag or config-file key sets: every field but `audits`, which only
# audit turns on, and for sweep not algorithm, reward or noise, which its cells set
_SETTABLE = {name: kind for name, kind in FIELD_TYPES.items() if name != "audits"}
_SWEEP_SETTABLE = [name for name in _SETTABLE if name not in ("algorithm", "reward", "noise")]


def _parse_config_file(path: str) -> dict:
    """Flat key=value file with keys matching ExperimentConfig field names."""
    out: dict = {}
    set_on: dict[str, int] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError([f"{path}:{lineno}: expected key=value, got {line!r}"])
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _SETTABLE:
                raise ConfigError([f"{path}:{lineno}: unknown config key {key!r}"])
            base, optional = _SETTABLE[key]
            try:
                out[key] = (None if optional and value.lower() == "none"
                            else _PARSE[base](value))
                if key in CHOICES and out[key] not in CHOICES[key]:
                    raise ValueError
            except (KeyError, ValueError):
                raise ConfigError([f"{path}:{lineno}: bad value {value!r} for {key}"]) from None
            if key in set_on:
                raise ConfigError([f"{path}:{lineno}: {key} already set on line {set_on[key]}"])
            set_on[key] = lineno
    return out


def _add_config_flags(p: argparse.ArgumentParser, names=tuple(_SETTABLE)) -> None:
    for name in names:
        flag = "--" + name.replace("_", "-")
        base = _SETTABLE[name][0]
        if base == "bool":
            p.add_argument(flag, action=argparse.BooleanOptionalAction)
        else:
            p.add_argument(flag, type=_PARSE[base], choices=CHOICES.get(name))
    p.add_argument("--config", metavar="FILE", help="key=value config file")


def _build_cells(args: argparse.Namespace, base: ExperimentConfig,
                 cells=lambda config: [config], read=reads) -> list[ExperimentConfig]:
    """The configs a command runs: `cells` of `base` with the flags and the
    config file applied.  A value that none of them reads is an error."""
    overrides: dict = {}
    if getattr(args, "config", None):
        overrides.update(_parse_config_file(args.config))
    for name in _SETTABLE:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    configs = cells(replace(base, **overrides))
    unread = sorted(overrides.keys() - set().union(*map(read, configs)))
    if unread:
        raise ConfigError([f"{name} is not read by this {args.command}" for name in unread])
    return configs


def _build_config(args: argparse.Namespace, base: ExperimentConfig, read=reads) -> ExperimentConfig:
    (config,) = _build_cells(args, base, read=read)
    return config


def _run_and_emit(config: ExperimentConfig, out: Path):
    traces, summary = run_experiment(config)
    name = f"{config.algorithm}_{config.reward}_{config.noise}"
    emit_csv(traces, summary, out / name)
    return name, summary


def _cmd_run(args) -> int:
    config = _build_config(args, ExperimentConfig())
    out = Path(args.out)
    name, summary = _run_and_emit(config, out)
    emit_plot([(config.algorithm, summary)], out / f"{name}.svg")
    print(f"wrote {name}_traces.csv, {name}_summary.csv, {name}.svg in {out}")
    return 0


def _sweep_reads(cell: ExperimentConfig) -> set[str]:
    """The fields a sweep cell reads that a flag or config-file key may set."""
    return reads(cell).intersection(_SWEEP_SETTABLE)


def _cmd_sweep(args) -> int:
    out = Path(args.out)
    cells = _build_cells(args, SWEEP_DEFAULTS, sweep_cells, _sweep_reads)
    panels: dict[tuple[str, str], list] = {}
    for config in cells:
        name, summary = _run_and_emit(config, out)
        panels.setdefault((config.reward, config.noise), []).append(
            (config.algorithm, summary)
        )
        print(f"finished {name}")
    for (reward, noise), entries in panels.items():
        emit_plot(entries, out / f"panel_{reward}_{noise}.svg",
                  title=f"{reward.capitalize()} ({noise.capitalize()})")
    print(f"wrote {len(cells)} trace sets and {len(panels)} panels in {out}")
    return 0


def _cmd_audit(args) -> int:
    # no report line reads checkpoint_every; audits is set after the unread check
    config = replace(_build_config(args, ExperimentConfig(T=50_000, trials=1),
                                   lambda c: reads(c) - {"checkpoint_every"}), audits=True)
    model = REWARD_FACTORIES[config.reward]()
    total = viol = 0
    for trial in range(config.trials):
        result = run_single(config, trial)
        rep = diagnostics.audit_clean_event(result.estimate_records)
        total += rep.total
        viol += rep.violations
        if config.algorithm.startswith("qlae"):
            lem = diagnostics.audit_qlae_lemmas(result.stage_audits, model)
            misses = f" survival-misses={lem.survival_misses}"
        else:
            lem = diagnostics.audit_qzooming_selected(result.estimate_records, model)
            misses = ""
        print(f"trial {trial}: estimates={rep.total} clean-violations={rep.violations} "
              f"gap-violations={lem.gap_violations}{misses}")
    frac = diagnostics.CleanEventReport(total, viol).fraction
    print(f"clean-event violation fraction: {frac:.4f} over {total} estimates")
    return 0


def _cmd_dim(args) -> int:
    profile = diagnostics.fit_zooming_dimension(REWARD_FACTORIES[args.reward](), args.divisor)
    for r, c in zip(profile.radii, profile.counts):
        print(f"r={r:g}  N_z={c}")
    print(f"fitted zooming dimension (divisor {args.divisor}): "
          f"{profile.fitted_dimension:.4f}  (residual {profile.fit_residual:.4f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lipzoom",
        description="Lipschitz bandit simulations with simulated quantum reward oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment configuration")
    _add_config_flags(p_run)
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run all reward x noise panels")
    _add_config_flags(p_sweep, _SWEEP_SETTABLE)
    p_sweep.add_argument("--out", default="out", help="output directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_audit = sub.add_parser("audit", help="run with audits and report clean-event stats")
    _add_config_flags(p_audit)
    p_audit.set_defaults(func=_cmd_audit)

    p_dim = sub.add_parser("dim", help="zooming-dimension diagnostic for a reward")
    p_dim.add_argument("--reward", choices=CHOICES["reward"], default="triangle")
    p_dim.add_argument("--divisor", type=int, default=3, choices=diagnostics.DIVISORS)
    p_dim.set_defaults(func=_cmd_dim)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of a process: parsing leaves no state on it, since each
    call fills a new namespace."""
    return build_parser()


def cli_main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
