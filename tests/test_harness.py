"""Config validation, trial seeding, CSV/SVG emission and the CLI surface."""

import argparse
import functools
import hashlib
import importlib
import importlib.util
import inspect
import json
import math
import os
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import lipzoom
from lipzoom import algorithms, cli
from lipzoom.cli import _SETTABLE, _build_config, build_parser, cli_main
from lipzoom.harness import (
    CHOICES,
    SWEEP_DEFAULTS,
    ConfigError,
    ExperimentConfig,
    RegretTrace,
    Summary,
    emit_csv,
    emit_plot,
    reads,
    run_experiment,
    run_single,
    summarize,
    sweep_cells,
    trial_rng,
)
from lipzoom.environment import (
    NOISE_KINDS, ORACLE_MODES, REWARD_FACTORIES, qmc1_budget, qmc2_budget,
)
from lipzoom.geometry import Metric
from regret_traces import read_traces_csv

FAST = ExperimentConfig(algorithm="qzooming", reward="triangle", noise="bernoulli",
                        T=5_000, trials=2, master_seed=7)


def test_config_defaults_validate():
    ExperimentConfig().validate()


def test_config_rejects_bad_fields():
    with pytest.raises(ConfigError) as exc:
        replace(FAST, algorithm="nope", trials=0, delta=2.0)
    msgs = "\n".join(exc.value.problems)
    assert "algorithm" in msgs and "trials" in msgs and "delta" in msgs
    # values that would crash a run, or let it run wrong without an error
    gaussian = replace(FAST, algorithm="qzooming_bv", noise="gaussian")
    for base, name, value in [
        (FAST, "c1", math.inf), (FAST, "c1", math.nan),
        (FAST, "c2", math.inf), (FAST, "c2", math.nan),
        (gaussian, "sigma", math.inf),
        (gaussian, "sigma", math.nan),
        (FAST, "master_seed", -1),
        (FAST, "checkpoint_every", FAST.T + 1),
    ]:
        with pytest.raises(ConfigError) as exc:
            replace(base, **{name: value})
        assert len(exc.value.problems) == 1 and name in exc.value.problems[0], (name, value)


def test_config_is_checked_on_construction():
    # construction raises every problem validate() finds, in its order
    for build, problems in [
        (lambda: ExperimentConfig(trials=0, delta=2.0),
         ["delta must be in (0,1), got 2.0", "trials must be >= 1, got 0"]),
        (lambda: replace(FAST, algorithm="qlae_bv"),
         ["algorithm 'qlae_bv' requires gaussian noise, got 'bernoulli'"]),
    ]:
        with pytest.raises(ConfigError) as exc:
            build()
        assert exc.value.problems == problems


@pytest.mark.parametrize("name, value", [
    ("T", 5000.0), ("T", True), ("trials", 2.0), ("master_seed", 1.5),
    ("checkpoint_every", 50.0),
], ids=["T-float", "T-bool", "trials", "master_seed", "checkpoint_every"])
def test_config_counts_must_be_integers(name, value):
    # a float T writes float checkpoint rounds or crashes a run, and True
    # runs one round; numpy integers are accepted and stored as Python ints
    with pytest.raises(ConfigError) as exc:
        replace(FAST, **{name: value})
    assert exc.value.problems == [f"{name} must be an integer, got {value!r}"]
    stored = getattr(replace(FAST, **{name: np.int64(50)}), name)
    assert stored == 50 and type(stored) is int


@pytest.mark.parametrize("changes, name", [
    ({"T": "5"}, "T"), ({"T": None}, "T"), ({"master_seed": None}, "master_seed"),
    ({"delta": "0.1"}, "delta"), ({"noise": "gaussian", "sigma": None}, "sigma"),
    ({"c1": "x"}, "c1"),
], ids=["T-str", "T-None", "master_seed-None", "delta-str", "sigma-None", "c1-str"])
def test_config_numbers_are_type_checked_first(changes, name):
    # a wrong type is a ConfigError naming its field, not a TypeError from a
    # range check; numpy numbers are accepted and stored as Python numbers
    with pytest.raises(ConfigError) as exc:
        replace(FAST, **changes)
    what = "a real number" if name in ("delta", "sigma", "c1") else "an integer"
    assert exc.value.problems == [f"{name} must be {what}, got {changes[name]!r}"]
    ok = {"T": np.int64(50), "master_seed": np.int64(3), "delta": np.float32(0.25),
          "sigma": np.float32(0.5), "c1": np.float32(2.5)}[name]
    stored = getattr(replace(FAST, **{**changes, name: ok}), name)
    assert stored == ok and type(stored) is type(ok.item())


@pytest.mark.parametrize("value", ["no", None, 1], ids=["str", "None", "int"])
@pytest.mark.parametrize("name", ["fault_injection", "audits"])
def test_config_flags_must_be_bools(name, value):
    # "no" is truthy and would turn the flag on; numpy bools are stored as bools
    with pytest.raises(ConfigError) as exc:
        replace(FAST, **{name: value})
    assert exc.value.problems == [f"{name} must be a bool, got {value!r}"]
    assert getattr(replace(FAST, **{name: np.bool_(False)}), name) is False


def test_numpy_numbers_write_the_python_valued_bytes(tmp_path):
    # a numpy T or interval wrote `np.float64(...)` regret cells, and a
    # float32 sigma drew every variate in float32
    gaussian = replace(FAST, algorithm="classical_zooming", noise="gaussian", sigma=0.5)
    for base, changes in [
        (replace(FAST, T=2_000), {"T": np.int64(2_000)}),
        (replace(FAST, T=2_000, checkpoint_every=500), {"checkpoint_every": np.int64(500)}),
        (replace(gaussian, T=2_000), {"sigma": np.float32(0.5)}),
    ]:
        want, got = (emit_csv(*run_experiment(config), tmp_path / kind)
                     for kind, config in (("py", base), ("np", replace(base, **changes))))
        assert [p.read_bytes() for p in got] == [p.read_bytes() for p in want], changes


def test_choices_are_the_environment_tuples():
    # one spelling: the config, the CLI and the constructors read the same tuples
    assert CHOICES["noise"] is NOISE_KINDS
    assert CHOICES["qmc_mode"] is ORACLE_MODES
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("run", "sweep", "audit"):
        flags = {a.dest: a.choices for a in sub.choices[command]._actions}
        assert flags["qmc_mode"] == ORACLE_MODES, command
        assert flags.get("noise", NOISE_KINDS) == NOISE_KINDS, command
    assert "noise" not in {a.dest for a in sub.choices["sweep"]._actions}


def test_config_audits_need_a_quantum_algorithm():
    with pytest.raises(ConfigError, match="^audit requires a quantum algorithm$"):
        ExperimentConfig(algorithm="classical_zooming", audits=True)
    assert replace(FAST, audits=True).audits


def test_config_bv_requires_gaussian():
    with pytest.raises(ConfigError):
        replace(FAST, algorithm="qlae_bv", noise="bernoulli").validate()


def test_reward_model_carries_metric():
    metrics = {name: make().metric for name, make in REWARD_FACTORIES.items()}
    assert metrics == {"triangle": Metric(1),
                       "sine": Metric(1),
                       "twodim": Metric(2)}
    assert set(metrics) == set(CHOICES["reward"])


def test_trial_rng_streams_distinct_and_stable():
    a = trial_rng(7, 0).random(4)
    b = trial_rng(7, 1).random(4)
    c = trial_rng(7, 0).random(4)
    assert not np.allclose(a, b)
    assert np.array_equal(a, c)


def test_bv_fallback_stages_use_c1():
    # sigma = 0.1: stages with eps >= 4*sigma charge the qmc1 budget, set by c1
    base = replace(FAST, noise="gaussian", sigma=0.1, trials=1, audits=True)
    for alg in ("qlae_bv", "qzooming_bv"):
        a = run_single(replace(base, algorithm=alg, c1=2.0), 0)
        b = run_single(replace(base, algorithm=alg, c1=4.0), 0)
        assert a.checkpoints != b.checkpoints
    res = run_single(replace(base, algorithm="qzooming_bv", c1=4.0), 0)
    delta = base.delta / base.T
    charged = sum(
        qmc1_budget(r.eps, delta, 4.0) if r.eps >= 0.4 else qmc2_budget(r.eps, 0.1, delta)
        for r in res.estimate_records
    )
    assert any(r.eps >= 0.4 for r in res.estimate_records)
    assert res.total_rounds == charged


def test_run_single_passes_each_runner_exactly_its_parameters(monkeypatch):
    # wrapped the way the benchmark tracer wraps them: run_single must look
    # the runner up per call and bind every argument by name
    passed = {}

    def recorder(alg, runner):
        @functools.wraps(runner)
        def record(**kwargs):
            passed[alg] = set(kwargs)
            return runner(**kwargs)
        return record

    for alg in CHOICES["algorithm"]:
        name = f"run_{alg}"
        monkeypatch.setattr(algorithms, name, recorder(alg, getattr(algorithms, name)))
        noise = "gaussian" if alg.endswith("_bv") else "bernoulli"
        run_single(replace(FAST, algorithm=alg, noise=noise, T=2_000), 0)
    common = {"model", "noise", "T", "checkpoint_every"}
    quantum = common | {"oracle", "delta", "c1", "audits"}
    assert passed == {
        "qlae": quantum,
        "qlae_bv": quantum | {"c2"},
        "qzooming": quantum,
        "qzooming_bv": quantum | {"c2"},
        "classical_zooming": common | {"rng"},
    }


def test_runner_signatures_cover_the_cli():
    # each algorithm's runner names only config fields and what run_single builds
    names = {f.name for f in fields(ExperimentConfig)} | {"model", "noise", "oracle", "rng"}
    for alg in CHOICES["algorithm"]:
        runner = getattr(algorithms, f"run_{alg}", None)
        assert callable(runner), alg
        assert set(inspect.signature(runner).parameters) <= names, alg
    # every flag run and sweep offer is read by some run the subcommand starts
    runs = []
    for alg in CHOICES["algorithm"]:
        for noise in CHOICES["noise"]:
            try:
                runs.append(ExperimentConfig(algorithm=alg, noise=noise))
            except ConfigError:
                continue
    parser = build_parser()
    for command, configs in (("run", runs), ("sweep", sweep_cells())):
        flags = set(vars(parser.parse_args([command]))) - {"command", "func", "config", "out"}
        unread = flags - set().union(*map(reads, configs))
        assert not unread, (command, unread)


def test_readme_reads_table_matches_the_runners():
    # README's per-algorithm "also reads" table, and the fields its preamble
    # says every algorithm reads, against reads() of a run of that algorithm
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    intro, _, table = readme.partition("| algorithm | also reads |")
    common = set(re.findall(r"`(\w+)`", intro[intro.rindex("Each algorithm reads"):]))
    rows = dict(re.findall(r"^\| `(\w+)` \| (.+) \|$", table.partition("\n\n")[0], re.M))
    assert set(rows) == set(CHOICES["algorithm"])
    for alg, cell in rows.items():
        for noise in CHOICES["noise"]:  # the first noise the algorithm accepts
            try:
                config = ExperimentConfig(algorithm=alg, noise=noise, qmc_mode="contract")
                break
            except ConfigError:
                continue
        documented = common | (set() if cell == "nothing more" else set(cell.strip("`").split()))
        if config.noise != "gaussian":  # "`sigma` under gaussian noise"
            documented.discard("sigma")
        assert reads(config) & _SETTABLE.keys() == documented, alg


def _readme_commands():
    """The commands README.md shows, split as a shell would: each line of its
    `sh` blocks, with `\\` continuations joined and comments dropped, and
    each inline code span outside those blocks that starts with `lipzoom`
    or `python3`."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    prose = re.sub(r"^```.*?^```", "", readme, flags=re.M | re.S)
    spans = [span for span in re.findall(r"`([^`]+)`", prose)
             if span.split()[:1] in (["lipzoom"], ["python3"])]
    return [argv for text in lines + spans if (argv := shlex.split(text, comments=True))]


def test_readme_lipzoom_commands_parse():
    # a misspelled flag in the README (`--master_seed`, say) fails here
    commands = [argv[1:] for argv in _readme_commands() if argv[0] == "lipzoom"]
    assert len(commands) >= 4
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit as exc:  # argparse's exit, which cli_main turns into its code
            pytest.fail(f"README's `lipzoom {shlex.join(argv)}` exits {exc.code} on parsing")


def test_readme_python3_scripts_exist():
    root = Path(__file__).resolve().parent.parent
    scripts = [argv[1] for argv in _readme_commands()
               if argv[0] == "python3" and not argv[1].startswith("-")]
    assert len(scripts) >= 4
    assert [s for s in scripts if not (root / s).is_file()] == []


def test_run_single_repeatable():
    r1 = run_single(FAST, 0)
    r2 = run_single(FAST, 0)
    assert r1.checkpoints == r2.checkpoints


def test_run_experiment_shapes():
    traces, summary = run_experiment(FAST)
    assert len(traces) == 2
    rounds = [t for t, _ in traces[0].checkpoints]
    assert list(summary.rounds) == rounds
    assert len(summary.mean) == len(rounds) == len(summary.std)


def test_summarize_sample_std():
    traces = [
        RegretTrace("a", "x", "r", "n", ((10, 1.0), (20, 3.0))),
        RegretTrace("b", "x", "r", "n", ((10, 2.0), (20, 5.0))),
        RegretTrace("c", "x", "r", "n", ((10, 3.0), (20, 7.0))),
    ]
    s = summarize(traces)
    assert s.mean == (2.0, 5.0)
    assert s.std[0] == pytest.approx(np.std([1, 2, 3], ddof=1))


def test_summarize_rejects_mismatched_rounds():
    traces = [
        RegretTrace("a", "x", "r", "n", ((10, 1.0),)),
        RegretTrace("b", "x", "r", "n", ((20, 1.0),)),
    ]
    with pytest.raises(ValueError):
        summarize(traces)
    with pytest.raises(ValueError, match="at least one trace"):
        summarize([])


def test_emit_csv_roundtrip(tmp_path):
    traces, summary = run_experiment(FAST)
    tp, sp = emit_csv(traces, summary, tmp_path / "out")
    assert tp.name == "out_traces.csv" and sp.name == "out_summary.csv"
    back = read_traces_csv(tp)
    assert sorted(t.run_id for t in back) == sorted(t.run_id for t in traces)
    orig = {t.run_id: t.checkpoints for t in traces}
    for t in back:
        assert t.checkpoints == orig[t.run_id]


def test_emit_csv_row_count(tmp_path):
    trace = RegretTrace("solo", "qzooming", "triangle", "bernoulli",
                        ((10, 0.5), (20, 1.0), (30, 1.5)))
    summary = summarize([trace])
    tp, sp = emit_csv([trace], summary, tmp_path / "one")
    assert len(tp.read_text().splitlines()) == 4  # header + 3 rows
    assert len(sp.read_text().splitlines()) == 4


def test_emit_plot_valid_svg(tmp_path):
    s = Summary((10, 20, 30), (1.0, 2.0, 3.0), (0.1, 0.2, 0.3))
    p = emit_plot([("qzooming", s), ("classical", s)], tmp_path / "plot.svg")
    root = ET.parse(p).getroot()
    assert root.tag.endswith("svg")
    body = p.read_text()
    assert "polyline" in body and "polygon" in body


def test_emit_plot_escapes_markup_as_before(tmp_path):
    # the digest is of the file the xml.sax.saxutils escape wrote: &, < and >
    # become entities and quotes stay as they are
    s = Summary((10, 20, 30), (1.0, 2.0, 3.0), (0.1, 0.2, 0.3))
    p = emit_plot([("a & b <c> \"d\" 'e'", s)], tmp_path / "plot.svg",
                  title="R&D <regret> > 0")
    body = p.read_text()
    assert ">R&amp;D &lt;regret&gt; &gt; 0</text>" in body
    assert ">a &amp; b &lt;c&gt; \"d\" 'e'</text>" in body
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "bab3ed22d4308ade72b933844b006bb7da89517559432099d8e63f0b097f95bf")


def test_cli_import_skips_network_modules():
    # escaping with xml.sax.saxutils pulled in urllib.request, ssl, socket,
    # http.client and email: tens of milliseconds of every CLI start
    src = str(Path(lipzoom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, lipzoom.cli; "
            "print(sorted(m for m in ('urllib.request', 'ssl') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_emit_plot_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_plot([], tmp_path / "x.svg")


def test_sweep_cells_structure():
    assert sweep_cells() == sweep_cells(SWEEP_DEFAULTS)
    assert {(c.T, c.trials, c.master_seed) for c in sweep_cells()} == {(50_000, 10, 7)}
    cells = sweep_cells(replace(SWEEP_DEFAULTS, T=1000, trials=2))
    assert len(cells) == 18
    gauss = [c for c in cells if c.noise == "gaussian"]
    assert all(c.algorithm in ("qlae_bv", "qzooming_bv", "classical_zooming")
               for c in gauss)
    assert all(c.T == 1000 and c.trials == 2 and c.master_seed == 7 for c in cells)


def test_sweep_cells_ignore_added_rewards(monkeypatch):
    # a reward added for `run` and `dim` leaves the default sweep, and so its
    # CSV bytes, as they are
    before = sweep_cells()
    monkeypatch.setitem(REWARD_FACTORIES, "extra", REWARD_FACTORIES["triangle"])
    monkeypatch.setitem(CHOICES, "reward", CHOICES["reward"] + ("extra",))
    assert sweep_cells() == before
    assert [c.reward for c in before[::6]] == ["triangle", "sine", "twodim"]


def test_cli_run_happy_path(tmp_path, capsys):
    rc = cli_main(["run", "--algorithm", "qzooming", "--reward", "triangle",
                   "--noise", "bernoulli", "--T", "3000", "--trials", "1",
                   "--master-seed", "7", "--out", str(tmp_path)])
    assert rc == 0
    names = sorted(f.name for f in tmp_path.iterdir())
    assert "qzooming_triangle_bernoulli_traces.csv" in names
    assert "qzooming_triangle_bernoulli_summary.csv" in names
    assert "qzooming_triangle_bernoulli.svg" in names


def test_cli_commands_in_a_row_act_as_with_fresh_parsers(tmp_path, monkeypatch, capsys):
    # cli_main builds its parser once per process; a run and then a dim
    # through it print and write what each does through a parser of its own
    commands = [["run", "--algorithm", "qlae", "--reward", "sine", "--T", "4000",
                 "--trials", "2", "--master-seed", "3", "--out", "out"],
                ["dim", "--reward", "sine", "--divisor", "14"]]
    outputs = []
    for fresh in (False, True):
        if fresh:
            monkeypatch.setattr(cli, "_parser", build_parser)
        else:
            assert cli._parser() is cli._parser()
        (tmp_path / str(fresh)).mkdir()
        monkeypatch.chdir(tmp_path / str(fresh))
        printed = []
        for argv in commands:
            assert cli_main(argv) == 0
            printed.append(capsys.readouterr())
        written = {p.name: p.read_bytes() for p in Path("out").iterdir()}
        outputs.append((printed, written))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1]) == 3 and "N_z" in outputs[0][0][1].out


def test_cli_config_error_exit_code(tmp_path, capsys):
    rc = cli_main(["run", "--algorithm", "qlae_bv", "--noise", "bernoulli",
                   "--T", "1000", "--trials", "1", "--out", str(tmp_path)])
    assert rc == 2
    # an infinite c1 once escaped cli_main as an OverflowError
    rc = cli_main(["run", "--c1", "inf", "--T", "1000", "--trials", "1",
                   "--out", str(tmp_path)])
    assert rc == 2
    assert "c1 must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--c1", "1e308"), ("--delta", "1e-305")])
def test_cli_budget_overflow_prints_one_line(flag, value, tmp_path, capsys):
    # a finite constant or delta whose query budget overflows once escaped
    # cli_main as an OverflowError traceback
    rc = cli_main(["run", "--algorithm", "qlae", "--T", "5000", "--trials", "1",
                   flag, value, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: query budget is not finite")
    assert err.count("\n") == 1


def test_cli_delta_over_T_underflow_is_config_error(tmp_path, capsys):
    # the per-call delta/T underflows to 0.0: a config error naming delta, not 0.0
    rc = cli_main(["run", "--algorithm", "qlae", "--T", "5000", "--trials", "1",
                   "--delta", "1e-320", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "delta must be large enough that delta/T > 0, got 1e-320 with T=5000" in err
    assert "got 0.0" not in err


def test_cli_unknown_flag_nonzero():
    assert cli_main(["run", "--definitely-not-a-flag"]) != 0


def test_cli_flag_overrides_config_file_seed(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("algorithm = qzooming\nT = 3000\ntrials = 1\n"
                   "# comment line\nfault_injection = false\nmaster_seed = 99\n")
    argv = ["run", "--config", str(cfg)]
    assert _build_config(build_parser().parse_args(argv), ExperimentConfig()).master_seed == 99
    assert cli_main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(argv + ["--master-seed", "7", "--out", str(tmp_path / "b")]) == 0
    assert cli_main(["run", "--algorithm", "qzooming", "--T", "3000", "--trials", "1",
                     "--no-fault-injection", "--master-seed", "7",
                     "--out", str(tmp_path / "c")]) == 0
    ta, tb, tc = ((tmp_path / d / "qzooming_triangle_bernoulli_traces.csv").read_text()
                  for d in "abc")
    assert ta != tb  # different seeds produce different traces
    assert tb == tc  # the flag's seed replaced the file's


# a non-default value of every settable field: (its text, the parsed value)
SETTABLE = {
    "algorithm": ("qlae", "qlae"), "reward": ("twodim", "twodim"),
    "noise": ("gaussian", "gaussian"), "sigma": ("0.5", 0.5), "T": ("1234", 1234),
    "delta": ("0.1", 0.1), "trials": ("3", 3), "master_seed": ("11", 11),
    "c1": ("3.5", 3.5), "c2": ("4.5", 4.5),
    "qmc_mode": ("empirical", "empirical"), "fault_injection": ("false", False),
    "checkpoint_every": ("10", 10),
}


def test_settable_fields_are_every_field_but_audits():
    assert set(SETTABLE) == {f.name for f in fields(ExperimentConfig)} - {"audits"}
    dests = set(vars(build_parser().parse_args(["run"])))
    assert dests - {"command", "func", "config", "out"} == set(SETTABLE)


@pytest.mark.parametrize("name", sorted(SETTABLE))
def test_field_round_trips_through_flag_and_config_file(name, tmp_path):
    # only a bounded-variance run, which needs gaussian noise, reads c2 and sigma
    base = (ExperimentConfig(algorithm="qzooming_bv", noise="gaussian")
            if name in ("c2", "sigma") else ExperimentConfig())
    text, value = SETTABLE[name]
    assert getattr(base, name) != value
    flag = "--" + name.replace("_", "-")
    if isinstance(value, bool):
        flags = [flag if value else "--no-" + flag[2:]]
    else:
        flags = [flag, text]
    parser = build_parser()
    from_flag = _build_config(parser.parse_args(["run"] + flags), base)
    assert from_flag == replace(base, **{name: value})
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{name} = {text}\n")
    from_file = _build_config(parser.parse_args(["run", "--config", str(cfg)]), base)
    assert from_file == from_flag


@pytest.mark.parametrize("name", ["checkpoint_every"])
def test_optional_field_accepts_none_in_config_file(name, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{name} = None\n")
    args = build_parser().parse_args(["run", "--config", str(cfg)])
    assert getattr(_build_config(args, replace(ExperimentConfig(), **{name: 5})), name) is None


def test_cli_audits_is_not_a_config_key(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("T = 1000\naudits = true\n")
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "unknown config key 'audits'" in capsys.readouterr().err


def test_cli_grid_resolution_is_not_an_option(tmp_path, capsys):
    # the zooming grid's spacing is fixed by the dimension: 1/512 in 1-D, 1/64 otherwise
    assert cli_main(["run", "--grid-resolution", "64", "--out", str(tmp_path)]) == 2
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("grid_resolution = 64\n")
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"{cfg}:1: unknown config key 'grid_resolution'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_cli_bad_config_file(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key = 3\n")
    rc = cli_main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("line", ["T = 5e4", "T = none", "sigma = high",
                                  "fault_injection = maybe", "algorithm = nope",
                                  "reward = nope", "noise = nope", "qmc_mode = nope"])
def test_cli_bad_config_value_names_line(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"algorithm = qzooming\n{line}\n")
    rc = cli_main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert f"{cfg}:2: bad value" in capsys.readouterr().err


def test_cli_repeated_config_key_names_both_lines(tmp_path, capsys):
    # once silently last-wins: the run took T = 2000
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("T = 1000\nT = 2000\n")
    rc = cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"{cfg}:2: T already set on line 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--audits"], ["sweep", "--audits"], ["audit", "--audits"], ["dim", "--audits"],
    ["dim", "--T", "5"], ["audit", "--out", "x"],
    ["sweep", "--algorithm", "qlae"], ["sweep", "--reward", "sine"],
    ["sweep", "--noise", "gaussian"],
])
def test_cli_rejects_flags_no_subcommand_reads(argv):
    assert cli_main(argv) == 2


@pytest.mark.parametrize("flags, name", [
    (["--algorithm", "qlae", "--c2", "50"], "c2"),
    (["--algorithm", "classical_zooming", "--c1", "3"], "c1"),
    (["--algorithm", "classical_zooming", "--delta", "0.3"], "delta"),
    (["--algorithm", "classical_zooming", "--qmc-mode", "empirical"], "qmc_mode"),
    (["--noise", "bernoulli", "--sigma", "0.5"], "sigma"),
])
@pytest.mark.parametrize("command", ["run", "audit"])
def test_cli_rejects_a_value_the_run_does_not_read(command, flags, name, tmp_path, capsys):
    # once silently ignored: the run wrote the same traces as without it
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert cli_main([command, *flags, "--T", "1000", "--trials", "1", *out]) == 2
    assert f"{name} is not read by this {command}" in capsys.readouterr().err
    # the same value from a config file
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{name} = {flags[-1]}\n")
    assert cli_main([command, *flags[:-2], "--config", str(cfg), *out]) == 2
    assert f"{name} is not read by this {command}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "audit"])
def test_cli_empirical_oracle_does_not_read_fault_injection(command, tmp_path, capsys):
    # once silently ignored: an empirical estimate is a sample mean, with no
    # fault drawn, so the run wrote the same CSVs with or without it
    assert "fault_injection" not in reads(replace(FAST, qmc_mode="empirical"))
    assert "fault_injection" in reads(FAST)
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    argv = [command, "--algorithm", "qlae", "--qmc-mode", "empirical",
            "--T", "1000", "--trials", "1", *out]
    assert cli_main([*argv, "--no-fault-injection"]) == 2
    assert f"fault_injection is not read by this {command}" in capsys.readouterr().err
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("fault_injection = false\n")
    assert cli_main([*argv, "--config", str(cfg)]) == 2
    assert f"fault_injection is not read by this {command}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_audit_does_not_read_checkpoint_every(tmp_path, capsys):
    # the runner reads it, but no line of the audit report depends on it
    argv = ["audit", "--T", "1000", "--trials", "1"]
    assert cli_main([*argv, "--checkpoint-every", "10"]) == 2
    assert "checkpoint_every is not read by this audit" in capsys.readouterr().err
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("checkpoint_every = 10\n")
    assert cli_main([*argv, "--config", str(cfg)]) == 2
    assert "checkpoint_every is not read by this audit" in capsys.readouterr().err


def test_cli_audit_refuses_the_classical_baseline(capsys):
    assert cli_main(["audit", "--algorithm", "classical_zooming", "--T", "1000"]) == 2
    assert "audit requires a quantum algorithm" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["algorithm = qlae", "reward = sine", "noise = gaussian"])
def test_cli_sweep_config_file_cannot_set_what_cells_set(line, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"T = 1000\ntrials = 1\n{line}\n")
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    name = line.partition(" =")[0]
    assert f"{name} is not read by this sweep" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_sweep_rejects_a_value_no_cell_reads(tmp_path, capsys):
    # once silently ignored: under the empirical oracle no cell reads
    # fault_injection, and the sweep wrote the same CSVs with or without it
    argv = ["sweep", "--qmc-mode", "empirical", "--T", "300", "--trials", "1",
            "--out", str(tmp_path / "out")]
    assert cli_main([*argv, "--no-fault-injection"]) == 2
    assert "fault_injection is not read by this sweep" in capsys.readouterr().err
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("fault_injection = false\n")
    assert cli_main([*argv, "--config", str(cfg)]) == 2
    assert "fault_injection is not read by this sweep" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_sweep_rejects_a_bad_cell_before_any_run(tmp_path, capsys):
    # sigma is valid on the bernoulli base and invalid on every gaussian cell;
    # once the sweep wrote the six triangle/bernoulli CSVs before it stopped
    out = tmp_path / "out"
    assert cli_main(["sweep", "--sigma", "-1", "--T", "300", "--trials", "1",
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "sigma must be finite and > 0 for gaussian noise" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_cli_sweep_builds_its_cells_once(tmp_path, monkeypatch):
    # the cells the unread check reads are the cells the sweep runs
    from lipzoom import cli

    built = []

    def counted(base):
        built.append(sweep_cells(base))
        return built[-1]

    monkeypatch.setattr(cli, "sweep_cells", counted)
    assert cli_main(["sweep", "--T", "300", "--trials", "1", "--out", str(tmp_path)]) == 0
    assert len(built) == 1 and len(built[0]) == 18


def test_cli_sweep_takes_a_value_some_cells_read(tmp_path, capsys):
    # c2 reaches only the bounded-variance cells, and the sweep runs all 18
    assert cli_main(["sweep", "--c2", "5", "--T", "2000", "--trials", "1",
                     "--out", str(tmp_path)]) == 0
    assert "wrote 18 trace sets and 6 panels" in capsys.readouterr().out


def _bench_module(name, monkeypatch):
    """A benchmarks/ script imported as is and left without a bytecode cache."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parent.parent / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layers_tool_times_every_layer(monkeypatch):
    # tools/layers.py runs on this tree and fills every entry it reports
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends to it
    path = Path(__file__).resolve().parent.parent / "tools" / "layers.py"
    spec = importlib.util.spec_from_file_location("tools_layers", path)
    layers = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(layers)
        report = layers.collect(reps=2)
    finally:
        sys.modules.pop("worker", None)  # imported by the script from benchmarks/
    assert set(report["provenance"]) == {"git_revision", "git_dirty", "cpus", "python",
                                         "numpy", "machine"}
    sizes = {"qmc_estimate_us_per_call": 4, "zooming_us_per_stage": 4,
             "classical_us_per_round": 6, "cover_us_per_move": 2,
             "cover_us_per_activate": 4, "ledger_us_per_charge": 1,
             "packing_ms_per_call": 17, "qmc_estimate_empirical_us_per_call": 8,
             "dim_ms_per_fit": 3}
    for section, size in sizes.items():
        assert len(report[section]) == size
        for entry in report[section].values():
            for kind in ("raw", "scaled"):
                q = entry[kind]
                assert 0 < q["p25"] <= q["p50"] <= q["p75"] < math.inf
    # the memory section: one traced peak per reward, cold and cached
    peaks = report["dim_fit_traced_peak_kb"]
    assert set(peaks) == {"triangle", "sine", "twodim"}
    for entry in peaks.values():
        assert 0 < entry["cached"] < entry["cleared"] < math.inf


def test_cli_accepts_benchmark_commands(monkeypatch):
    # every CLI argument list the benchmark's workloads run must still parse
    worker = _bench_module("worker", monkeypatch)
    parser = build_parser()
    for workload in worker.WORKLOADS:
        ops = worker.build_ops(workload, 23, Path("unused"))
        assert ops
        for argv in ops:
            parser.parse_args(argv)


def test_tracer_bindings_resolve(monkeypatch):
    # every name the benchmark's tracer wraps must exist with the arguments
    # its counters read, or traced benchmark runs crash; the runners and
    # diagnostics read the metric from the reward model, so none takes one
    tracer = _bench_module("tracer", monkeypatch)
    for layer, entries in tracer.TABLE.items():
        module = importlib.import_module(f"lipzoom.{layer}")
        for qualname in entries:
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                assert callable(vars(getattr(module, cls_name)).get(meth)), qualname
            else:
                assert callable(getattr(module, qualname, None)), qualname
            if layer == "algorithms" and qualname.startswith("run_"):
                params = inspect.signature(getattr(module, qualname)).parameters
                assert "T" in params and "metric" not in params, qualname
            if layer == "diagnostics":
                params = inspect.signature(getattr(module, qualname)).parameters
                assert "metric" not in params, qualname
    geometry = importlib.import_module("lipzoom.geometry")
    params = inspect.signature(geometry.maximal_packing).parameters
    assert {"metric", "spacing"} <= set(params)


_TRACED_TRIALS = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from lipzoom import harness
tracer = tracing.Tracer()
tracer.install()
tracer.start()
trials = []
for alg in harness.CHOICES["algorithm"]:
    noise = "gaussian" if alg.endswith("_bv") else "bernoulli"
    modes = ("contract",) if alg == "classical_zooming" else harness.ORACLE_MODES
    for mode in modes:
        config = harness.ExperimentConfig(algorithm=alg, noise=noise, qmc_mode=mode,
                                          T=3_000, trials=1, master_seed=5)
        trials.append((config, 0, harness.run_single(config, 0)))
tracer.stop()
print(json.dumps(tracing.identities(tracing.aggregate(tracer.spans), trials)))
"""


def test_tracer_identities_hold():
    # the benchmark tracer's completeness checks on one traced trial per
    # algorithm and oracle mode: one draw per classical round and empirical
    # query, one ledger charge per oracle call that played a query.  A
    # subprocess keeps its wrappers out of this one
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                               if p]))
    out = subprocess.run(
        [sys.executable, "-B", "-c", _TRACED_TRIALS, str(root / "benchmarks" / "tracer.py")],
        env=env, capture_output=True, text=True, check=True, timeout=120).stdout
    checks = json.loads(out)
    assert len(checks) == 5
    assert all(check["ok"] for check in checks.values()), checks
    assert checks["qmc_estimate.queries"]["traced"] > 0


def test_cli_dim_subcommand(capsys):
    rc = cli_main(["dim", "--reward", "triangle", "--divisor", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fitted zooming dimension" in out


def test_cli_audit_subcommand(capsys):
    rc = cli_main(["audit", "--algorithm", "qzooming", "--reward", "triangle",
                   "--noise", "bernoulli", "--T", "20000", "--trials", "1",
                   "--master-seed", "7"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "clean-event violation fraction" in out
    # the selected-arm bound, which a clean run meets; the current-radius
    # form reports 17 violations here
    assert "clean-violations=0 gap-violations=0\n" in out
