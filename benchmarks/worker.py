"""One pass of one benchmark workload, in its own process.

Started by run.py: it prints one JSON line with the pass's timings, peak
RSS, operation counts, output-check failures and, when traced, the
per-layer metrics.  Set-up (imports, CLI arguments, reward models) happens
before the first operation; the parent process times it from the spawn and
scales it by the host speed the worker measures right after it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

QUANTUM = ("qlae", "qlae_bv", "qzooming", "qzooming_bv")
# Horizon of the quantum cells in quantum_6e5 and of the audits.  At 1e6
# qlae/twodim finishes 5 or 6 elimination stages depending on the seed
# (0.5 s / 150 MB or 1.5 s / 450 MB per trial); from 5e5 to 7e5 every trial
# tried finished exactly 5, so the work of a pass does not swing with the seed.
QUANTUM_T = 600_000
# Trials per cell; nominal seconds per pass (its set-up and a share of the
# pass-0 re-run included) on a 2-CPU x86 machine, run.py makes --seconds /
# nominal passes; and the reference kernel the workload's times are scaled
# by (see HostClock): the kind of work that takes most of its time.
WORKLOADS = {
    "sweep_default": (1, 10.0, "loop"),
    "quantum_6e5": (10, 9.5, "array"),
    "empirical_oracle": (1, 8.5, "loop"),
    "diagnostics": (2, 14.0, "array"),
}


# Host speed.  Other tenants of the host change its speed by up to 1.8x
# within seconds, and every timed part here follows.  So a pass stops every
# TICK_S seconds, runs a fixed reference kernel and scales the time since the
# last stop by REF_S / (the kernel's time).  There are two kernels, for the
# two kinds of work the workloads do: "loop", a Python loop of small numpy
# calls like the per-round and per-query loops, and "array", in-place sorts
# of an 800 kB array like the large pairwise arrays.  Each tracked its own
# kind of workload best; the other left two to five times the spread
# (README.md, Measured spread).  The "array" kernel adds a fixed
# 1.6 MB to the peak RSS of a pass.  REF_S, each kernel's median time on the
# machine of README.md's measurements, only fixes the unit.
TICK_S = 0.25
REF_S = {"loop": 0.011, "array": 0.0039}
_REF_DATA: dict = {}


def reference(kind: str) -> float:
    """Seconds the reference kernel takes now; its work never changes."""
    import numpy as np

    if kind == "loop":
        rng, small = _REF_DATA.setdefault(
            kind, (np.random.default_rng(1), np.arange(64.0)))
        t = time.perf_counter()
        for i in range(1500):
            x = rng.random()
            float(small[i % 64] * x) + np.abs(small[:8] - x).min()
        return time.perf_counter() - t
    big, work = _REF_DATA.setdefault(
        kind, (np.random.default_rng(2).random(100_000), np.empty(100_000)))
    t = time.perf_counter()
    for _ in range(4):
        work[:] = big
        work.sort()
    return time.perf_counter() - t


def speed_scale(kind: str) -> float:
    """REF_S over the kernel's time now: the median of three runs, the first
    of which may be a cold one."""
    return REF_S[kind] / statistics.median(reference(kind) for _ in range(3))


class HostClock:
    """Pass time at the reference speed: raw segments between SIGALRM ticks,
    each scaled by the reference kernel run at the tick.  The kernel's own
    time is in no segment."""

    def __init__(self, kind: str):
        self.kind = kind
        self.segments: list[tuple[float, float]] = []
        self.last = 0.0

    def _tick(self, signum=None, frame=None):
        now = time.perf_counter()
        self.segments.append((now - self.last, reference(self.kind)))
        self.last = time.perf_counter()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        self.last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()

    def raw_s(self) -> float:
        return sum(seg for seg, _ in self.segments)

    def scaled_s(self) -> float:
        return sum(seg * REF_S[self.kind] / ref for seg, ref in self.segments)


def build_ops(workload: str, seed: int, out: Path) -> list[list[str]]:
    """CLI argument lists of one pass over the workload."""
    from lipzoom.harness import sweep_cells

    seed_arg, trials = str(seed), str(WORKLOADS[workload][0])
    if workload == "sweep_default":
        return [["sweep", "--T", "50000", "--trials", trials, "--master-seed", seed_arg,
                 "--out", str(out)]]
    if workload in ("quantum_6e5", "empirical_oracle"):
        T, mode = (QUANTUM_T, "contract") if workload == "quantum_6e5" else \
            (200_000, "empirical")
        return [["run", "--algorithm", c.algorithm, "--reward", c.reward,
                 "--noise", c.noise, "--T", str(T), "--trials", trials,
                 "--master-seed", seed_arg, "--qmc-mode", mode, "--out", str(out)]
                for c in sweep_cells() if c.algorithm in QUANTUM]
    dims = [["dim", "--reward", r] for r in ("triangle", "sine", "twodim")]
    audits = [["audit", "--algorithm", a, "--reward", "twodim", "--noise", "bernoulli",
               "--T", str(QUANTUM_T), "--trials", trials, "--master-seed", seed_arg]
              for a in ("qlae", "qzooming")]
    return dims + audits


class Capture:
    """Records every harness.run_single call: its config, trial and outcome."""

    def __init__(self, harness, cli):
        self.trials: list[tuple] = []
        self.original = harness.run_single
        captured, original = self.trials, self.original

        def run_single(config, trial):
            try:
                result = original(config, trial)
            except Exception as exc:
                captured.append((config, trial, exc))
                raise
            captured.append((config, trial, result))
            return result

        harness.run_single = run_single
        cli.run_single = run_single


def check_trial(config, result, mu_star: float) -> str | None:
    """Output check of one trial; returns the failure or None."""
    if isinstance(result, Exception):
        return f"raised {result!r}"
    ck = config.checkpoint_every or max(1, config.T // 100)
    rounds = [t for t, _ in result.checkpoints]
    if rounds != list(range(ck, config.T + 1, ck)):
        return "checkpoint rounds are not ck, 2ck, ..., T"
    regret = [v for _, v in result.checkpoints]
    if not all(math.isfinite(v) and v >= 0 for v in regret):
        return "regret not finite and non-negative"
    if any(b < a for a, b in zip(regret, regret[1:])):
        return "regret decreases"
    if regret[-1] > config.T * mu_star:
        return "regret exceeds T * mu_star"
    if result.total_rounds > config.T:
        return "total_rounds exceeds T"
    return None


def check_command(argv: list[str], code, stdout: str) -> str | None:
    """Output check of one CLI command; returns the failure or None."""
    if code != 0:
        return f"exit {code}"
    if argv[0] == "dim":
        m = re.search(r"fitted zooming dimension \(divisor \d+\): (\S+)", stdout)
        if m is None:
            return "no fitted dimension printed"
        if not (math.isfinite(float(m.group(1))) and float(m.group(1)) >= 0):
            return f"dimension {m.group(1)} is not finite and non-negative"
    return None


def digest(out: Path, stdout: str) -> str:
    """SHA-256 of the CSVs a pass wrote, or of its stdout when it wrote none."""
    h = hashlib.sha256()
    csvs = sorted(out.glob("*.csv")) if out.exists() else []
    for p in csvs:
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    if not csvs:
        h.update(stdout.encode())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--rerun", type=int, default=0)
    ap.add_argument("--setup-only", type=int, default=0)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import lipzoom
    from lipzoom import cli, harness
    from lipzoom.environment import REWARD_FACTORIES

    if Path(lipzoom.__file__).resolve().parent != ROOT / "src" / "lipzoom":
        print(f"lipzoom imported from {lipzoom.__file__}, not the checkout", file=sys.stderr)
        return 2
    out = OUT / f"{args.workload}-{args.seed}-t{args.trace}"
    ops = build_ops(args.workload, args.seed, out)
    mu_star = {name: make().mu_star for name, make in REWARD_FACTORIES.items()}
    # Capture first: the tracer then wraps the capture wrapper separately at
    # the harness and cli bindings, while the capture calls the untraced
    # original, so a binding the tracer misses shows in run_single.calls
    capture = Capture(harness, cli)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    first_op = time.monotonic()
    # host speed at set-up time, for run.py to scale set-up with.  Set-up is
    # interpreter start and imports in every workload: Python-level work.
    setup_scale = speed_scale("loop")
    if args.setup_only:
        print(json.dumps({"first_op": first_op, "setup_scale": setup_scale}))
        return 0

    shutil.rmtree(out, ignore_errors=True)
    codes, stdouts = [], []
    # a traced pass is not scaled: the ticks would land inside its spans
    if tracer:
        tracer.start()
    else:
        clock = HostClock(WORKLOADS[args.workload][2])
        clock.start()
    t_pass = time.perf_counter()
    for argv in ops:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                codes.append(cli.cli_main(argv))
            except Exception as exc:  # a raising command is a failed operation
                codes.append(repr(exc))
        stdouts.append(buf.getvalue())
    if tracer:
        raw_wall_s = wall_s = time.perf_counter() - t_pass
        tracer.stop()
    else:
        clock.stop()
        raw_wall_s, wall_s = clock.raw_s(), clock.scaled_s()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    for argv, code, text in zip(ops, codes, stdouts):
        problem = check_command(argv, code, text)
        if problem:
            failures.append(f"{' '.join(argv[:3])}: {problem}")
    trials = list(capture.trials)
    for config, trial, result in trials:
        problem = check_trial(config, result, mu_star[config.reward])
        if problem:
            failures.append(f"{config.algorithm}/{config.reward}/{config.noise} "
                            f"trial {trial}: {problem}")
    attempted = len(ops) + len(trials)

    if args.rerun:
        # one trial per cell again, in the same process: checkpoints must repeat
        seen = set()
        for config, trial, result in trials:
            if trial != 0 or config in seen or isinstance(result, Exception):
                continue
            seen.add(config)
            attempted += 1
            try:
                same = capture.original(config, 0).checkpoints == result.checkpoints
            except Exception as exc:  # a raising re-run is a failed operation
                same = f"raised {exc!r}"
            if same is not True:
                failures.append(f"{config.algorithm}/{config.reward}/{config.noise}: "
                                f"re-run {same or 'checkpoints differ'}")

    record = {
        "first_op": first_op,
        "setup_scale": setup_scale,
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "output_sha256": digest(out, "".join(stdouts)),
        "numpy": np.__version__,
    }
    shutil.rmtree(out, ignore_errors=True)
    if tracer:
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        agg = tracing.aggregate(tracer.spans)
        record["layers"] = tracing.layer_metrics(agg)
        record["identities"] = tracing.identities(agg, trials)
        record["bindings"] = tracer.bindings
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
