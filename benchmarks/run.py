"""lipzoom benchmark: end-to-end time and memory per workload, per-layer traces.

    python3 benchmarks/run.py --workload sweep_default --seed 7 --seconds 30 --trace 0

Each pass over a workload runs in a fresh process (benchmarks/worker.py),
one after another: a closed loop with one caller.  The number of passes is
what --seconds leaves after the set-up-only shots, over the workload's
nominal pass time.  The last stdout line is
the result JSON; the line before it, also written to benchmarks/out/, is the
full record with per-pass values, output digests and provenance.

--trace 0 reports wall_s, peak_rss_mb and setup_s, the two times at the
reference host speed of worker.HostClock.  --trace 1 alternates an
untraced and a traced pass on the same inputs and reports the per-layer
metrics of benchmarks/tracer.py plus trace.overhead_frac.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from worker import WORKLOADS  # noqa: E402  (the script's directory is on sys.path)

# set-up times per untraced run: each pass's, plus set-up-only shots spread
# between the passes.  Scaled to the reference speed, single shots within
# one run still spread by up to a quarter of their median, so the median
# needs many.
SETUP_SAMPLES = 20
SETUP_SHOT_S = 0.4  # nominal seconds of one set-up-only shot, spawn to exit
DEADLINE_S = 170  # a run must exit within 180 s

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def provenance(seed: int) -> dict:
    git = {"revision": None, "dirty": None}
    if (ROOT / ".git").exists():
        def run_git(*args):
            return subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), *args],
                                  capture_output=True, text=True, timeout=30).stdout.strip()
        git = {"revision": run_git("rev-parse", "HEAD") or None,
               "dirty": bool(run_git("status", "--porcelain", "--untracked-files=no"))}
    mem_kb = None
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {"git_revision": git["revision"], "git_dirty": git["dirty"],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "mem_total_mb": mem_kb // 1024 if mem_kb else None, "seed": seed}


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.t_start = time.monotonic()
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.numpy = None

    def spawn(self, trace=0, rerun=0, setup_only=0) -> dict | None:
        """One worker process; returns its record with setup_s, or None if it broke."""
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--trace", str(trace), "--rerun", str(rerun),
                "--setup-only", str(setup_only)]
        timeout = max(10.0, DEADLINE_S - (time.monotonic() - self.t_start))
        env = dict(os.environ, PYTHONHASHSEED="0")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout,
                                  cwd=ROOT, env=env)
        except subprocess.TimeoutExpired:
            proc = None
        record = None
        if proc is not None and proc.returncode == 0 and proc.stdout.strip():
            record = json.loads(proc.stdout.strip().splitlines()[-1])
            record["raw_setup_s"] = record.pop("first_op") - t_spawn
            # at the reference speed, like wall_s (see worker.HostClock)
            record["setup_s"] = record["raw_setup_s"] * record.pop("setup_scale")
            self.numpy = record.get("numpy", self.numpy)
        if setup_only:
            if record is None:
                self.errors.append(self._describe(proc))
            return record
        if record is None:
            self.attempted += 1
            self.failed += 1
            self.errors.append(self._describe(proc))
            return None
        self.attempted += record["attempted"]
        self.failed += record["failed"]
        self.errors.extend(record["failures"])
        return record

    @staticmethod
    def _describe(proc) -> str:
        if proc is None:
            return "worker timed out"
        return f"worker exit {proc.returncode}: {proc.stderr.strip()[-400:]}"

    def elapsed(self) -> float:
        return time.monotonic() - self.t_start


def n_passes(workload: str, seconds: float) -> int:
    # fixed by --seconds, not by the clock: a faster program runs the same
    # passes in less time rather than more passes
    return max(1, int(seconds / WORKLOADS[workload][1]))


def run_untraced(r: Runner, seconds: float) -> tuple[dict, dict, bool]:
    # the set-up-only shots take their share of --seconds
    count = n_passes(r.workload, seconds - SETUP_SAMPLES * SETUP_SHOT_S)
    shots = -(-max(0, SETUP_SAMPLES - count) // count)
    setups, passes = [], []
    for p in range(count):
        if r.elapsed() > DEADLINE_S / 2:
            break
        setups += [rec["setup_s"] for rec in
                   (r.spawn(setup_only=1) for _ in range(shots)) if rec]
        rec = r.spawn(rerun=int(p == 0))
        if rec is not None:
            passes.append(rec)
    if not passes:
        return {}, {}, False
    setups += [p["setup_s"] for p in passes]
    metrics = {"wall_s": statistics.median(p["wall_s"] for p in passes),
               "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
               "setup_s": statistics.median(setups)}
    digests = {p["output_sha256"] for p in passes}
    detail = {"passes": [{k: p[k] for k in ("wall_s", "raw_wall_s", "peak_rss_mb", "setup_s",
                                             "raw_setup_s", "attempted", "failed",
                                             "output_sha256")}
                         for p in passes],
              "setup_samples": setups, "digests_equal": len(digests) == 1}
    return metrics, detail, len(digests) == 1


def run_traced(r: Runner, seconds: float) -> tuple[dict, dict, bool]:
    plain, traced = [], []
    for p in range(max(1, n_passes(r.workload, seconds) // 2)):
        if r.elapsed() > DEADLINE_S / 2:
            break
        # an untraced and a traced pass on the same inputs: their difference
        # is the tracing overhead
        u = r.spawn(rerun=int(p == 0))
        t = r.spawn(trace=1) if u else None
        if t is not None:
            plain.append(u)
            traced.append(t)
    if not traced:
        return {}, {}, False
    # raw times: a traced pass is not scaled to the reference speed
    untraced_wall = statistics.fmean(p["raw_wall_s"] for p in plain)
    traced_wall = statistics.fmean(t["raw_wall_s"] for t in traced)
    metrics = {name: statistics.median(t["layers"][name] for t in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    digests = {rec["output_sha256"] for rec in plain + traced}
    ok = all(v["ok"] for t in traced for v in t["identities"].values()) \
        and len(digests) == 1
    detail = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
              "pairs": [{"untraced_pass_s": u["raw_wall_s"],
                         "traced_pass_s": t["raw_wall_s"]}
                        for u, t in zip(plain, traced)],
              "identities": traced[-1]["identities"], "bindings": traced[0]["bindings"],
              "digests_equal": len(digests) == 1, "output_sha256": sorted(digests)}
    return metrics, detail, ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "lipzoom" / "__init__.py").is_file():
        print(f"no lipzoom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    r = Runner(args.workload, args.seed)
    prov = provenance(args.seed)
    # compiles the bytecode cache and warms the file cache before any timing
    if r.spawn(setup_only=1) is None:
        print("\n".join(r.errors), file=sys.stderr)
        return 1
    run = run_traced if args.trace else run_untraced
    values, detail, ok = run(r, args.seconds)
    metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    if not values:
        print("no complete pass:", *r.errors[-5:], sep="\n", file=sys.stderr)
        return 1
    result = {"correct": ok and r.failed == 0, "attempted": r.attempted,
              "failed": r.failed, "metrics": metrics}
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "provenance": dict(prov, numpy=r.numpy), "errors": r.errors[:20],
              "detail": detail, "result": result}
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
