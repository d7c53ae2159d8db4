"""Out-of-program tracing of the six lipzoom layers.

`install` wraps each layer's public functions and methods at every place
they are bound: the defining module, every other lipzoom module that
imported the name (``from .geometry import maximal_packing``), and the
package namespace.  Methods are wrapped once on their class.  Nothing in
``src/`` is edited.

Two kinds of wrapper:

* a *span* wrapper records ``[id, parent, trial, name, start, end, leaves,
  extra]`` in memory.  Spans under one ``harness.run_single`` call share its
  id as their trial id.
* a *leaf* wrapper is for functions called once per round or per query
  (``classical_sample``, ``RoundLedger.consume``, ...).  It records no span;
  it adds its call count and time into the innermost open span, so memory
  does not grow with the horizon T.  Leaves must not call other wrapped
  functions.

Self time of a span is its duration minus the durations of its child spans
and of the leaf calls accumulated into it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

SPAN, LEAF = "span", "leaf"

# Public entry points the workloads reach, by layer.  RewardModel.mu/gap are
# not wrapped: they run inside the classical_sample leaf, and leaves do not nest.
TABLE = {
    "cli": {"cli_main": SPAN},
    "harness": {
        "run_experiment": SPAN, "run_single": SPAN, "summarize": SPAN,
        "emit_csv": SPAN, "emit_plot": SPAN, "sweep_cells": SPAN,
        "trial_rng": LEAF, "ExperimentConfig.validate": LEAF,
    },
    "algorithms": {
        "run_qlae": SPAN, "run_qlae_bv": SPAN, "run_qzooming": SPAN,
        "run_qzooming_bv": SPAN, "run_classical_zooming": SPAN,
        "select_arm": LEAF,
    },
    "geometry": {
        "maximal_packing": SPAN, "lattice": SPAN, "Metric.pairwise": SPAN,
        "ActiveRegion.contains_many": SPAN, "Metric.distance": LEAF,
    },
    "environment": {
        "qmc_estimate": SPAN, "classical_sample": LEAF,
        "RoundLedger.consume": LEAF, "RoundLedger.finalize": LEAF,
        "qmc1_budget": LEAF, "qmc2_budget": LEAF,
    },
    "diagnostics": {
        "near_optimal_set": SPAN, "zooming_number": SPAN,
        "fit_zooming_dimension": SPAN, "audit_clean_event": SPAN,
        "audit_qlae_lemmas": SPAN, "audit_qzooming_selected": SPAN,
        "audit_qzooming_lemma": SPAN,
    },
}

ID, PARENT, TRIAL, NAME, START, END, LEAVES, EXTRA = range(8)


def _bound_arg(fn, name):
    sig = inspect.signature(fn)

    def get(args, kwargs):
        return sig.bind(*args, **kwargs).arguments[name]

    return get


def _lattice_size(dimension: int, spacing: float) -> int:
    # same axis rule as geometry.lattice, computed without building it
    n = int(1.0 / spacing + 1e-12)
    axis = n + 1 + (n * spacing < 1.0 - 1e-12)
    return axis ** dimension


def _extras(name, fn):
    """Counter function (args, kwargs, result) -> dict for some spans."""
    if name.startswith("algorithms.run_"):
        horizon = _bound_arg(fn, "T")
        return lambda a, k, r: {"T": horizon(a, k), "rounds": r.total_rounds,
                                "stages": r.stages_completed}
    if name == "geometry.maximal_packing":
        metric, spacing = _bound_arg(fn, "metric"), _bound_arg(fn, "spacing")
        return lambda a, k, r: {
            "lattice_points": _lattice_size(metric(a, k).dimension, spacing(a, k)),
            "accepted": len(r)}
    if name == "geometry.Metric.pairwise":
        return lambda a, k, r: {"elements": r.size,
                                "bytes_computed": r.size * a[0].dimension * 8}
    if name == "geometry.ActiveRegion.contains_many":
        return lambda a, k, r: {"elements": len(r) * len(a[0].centers)}
    if name == "geometry.lattice":
        return lambda a, k, r: {"points": len(r)}
    if name == "environment.qmc_estimate":
        # an oracle call with queries > 0 charged the ledger exactly once
        return lambda a, k, r: {"queries": r[1], "charged": int(r[1] > 0)}
    if name == "harness.emit_csv":
        return lambda a, k, r: {"bytes": sum(p.stat().st_size for p in r)}
    if name == "diagnostics.near_optimal_set":
        return lambda a, k, r: {"points": len(r)}
    if name.startswith("diagnostics.audit_"):
        # clean-event reports count estimates, lemma reports count arms
        return lambda a, k, r: {"records": r.total if hasattr(r, "total")
                                else r.arms_checked}
    return None


class Tracer:
    """In-memory span store; one per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.bindings = 0

    # -- wrappers ---------------------------------------------------------
    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        extra = _extras(name, fn)
        is_trial = name == "harness.run_single"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = len(spans)
            span = [sid, parent[ID], sid if is_trial else parent[TRIAL], name,
                    0.0, 0.0, None, None]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, kwargs, result)
            return result

        return wrapper

    def _leaf(self, name, fn):
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            top = stack[-1]
            leaves = top[LEAVES]
            if leaves is None:
                leaves = top[LEAVES] = {}
            entry = leaves.get(name)
            if entry is None:
                leaves[name] = [1, dt]
            else:
                entry[0] += 1
                entry[1] += dt
            return result

        return wrapper

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Wrap every TABLE entry at every lipzoom binding of it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "lipzoom" or n.startswith("lipzoom.")]
        for layer, entries in TABLE.items():
            module = importlib.import_module(f"lipzoom.{layer}")
            for qualname, kind in entries.items():
                name = f"{layer}.{qualname}"
                make = self._span if kind == SPAN else self._leaf
                if "." in qualname:
                    cls_name, meth = qualname.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, make(name, cls.__dict__[meth]))
                    self.bindings += 1
                    continue
                original = getattr(module, qualname)
                wrapped = make(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)
                            self.bindings += 1

    # -- recording window -------------------------------------------------
    def start(self) -> None:
        root = [0, None, None, "bench.pass", time.perf_counter(), 0.0, None, None]
        self.spans.append(root)
        self.stack.append(root)

    def stop(self) -> None:
        self.spans[0][END] = time.perf_counter()
        self.stack.clear()

    def dump(self, path) -> None:
        keys = ("id", "parent", "trial", "name", "start", "end", "leaves", "extra")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def aggregate(spans: list[list]) -> dict:
    """Per-name totals: calls, inclusive and self seconds, durations, extras.

    Span entries also carry inclusive seconds by parent name
    (``incl_by_parent``); leaf entries carry calls and self time only, plus
    calls by the name of the span they were accumulated into (``by_parent``).
    """
    child_time = [0.0] * len(spans)
    for s in spans[1:]:
        child_time[s[PARENT]] += s[END] - s[START]
    out: dict[str, dict] = {}
    for s in spans:
        dur = s[END] - s[START]
        leaf_time = 0.0
        for leaf, (count, dt) in (s[LEAVES] or {}).items():
            leaf_time += dt
            e = out.setdefault(leaf, {"calls": 0, "self_s": 0.0, "by_parent": {}})
            e["calls"] += count
            e["self_s"] += dt
            e["by_parent"][s[NAME]] = e["by_parent"].get(s[NAME], 0) + count
        e = out.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                                     "durations": [], "extra": {}, "incl_by_parent": {}})
        if s[PARENT] is not None:
            parent = spans[s[PARENT]][NAME]
            e["incl_by_parent"][parent] = e["incl_by_parent"].get(parent, 0.0) + dur
        e["calls"] += 1
        e["self_s"] += dur - child_time[s[ID]] - leaf_time
        e["incl_s"] += dur
        e["durations"].append(dur)
        for key, value in (s[EXTRA] or {}).items():
            e["extra"][key] = e["extra"].get(key, 0) + value
    return out


def layer_metrics(agg: dict) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json (without trace.overhead_frac)."""

    def get(name, key="self_s"):
        return agg.get(name, {}).get(key, 0)

    def extra(name, key):
        return agg.get(name, {}).get("extra", {}).get(key, 0)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    runners = [f"algorithms.run_{a}" for a in
               ("qlae", "qlae_bv", "qzooming", "qzooming_bv", "classical_zooming")]
    zooming = runners[2:4]
    elimination = runners[0:2]
    zoom_stages = sum(extra(n, "stages") for n in zooming)
    # zooming time outside the oracle: activation, new-arm distances, selection
    oracle_by_parent = agg.get("environment.qmc_estimate", {}).get("incl_by_parent", {})
    zoom_outside_oracle = sum(get(n, "incl_s") - oracle_by_parent.get(n, 0.0)
                              for n in zooming)
    pack = agg.get("geometry.maximal_packing", {})
    audits = [n for n in agg if n.startswith("diagnostics.audit_")]
    return {
        "cli.cli_main.self_s": get("cli.cli_main"),
        "harness.run_single.calls": get("harness.run_single", "calls"),
        "harness.run_single.self_s": get("harness.run_single"),
        "harness.summarize.self_s": get("harness.summarize"),
        "harness.emit_csv.self_s": get("harness.emit_csv"),
        "harness.emit_csv.bytes": extra("harness.emit_csv", "bytes"),
        "harness.emit_plot.self_s": get("harness.emit_plot"),
        "algorithms.run_classical_zooming.self_s": get(runners[4]),
        "algorithms.classical_round_us": ratio(
            get(runners[4], "incl_s"), extra(runners[4], "rounds"), 1e6),
        "algorithms.run_qzooming.self_s": get(zooming[0]),
        "algorithms.run_qzooming_bv.self_s": get(zooming[1]),
        "algorithms.zooming_stages": zoom_stages,
        "algorithms.zooming_stage_us": ratio(zoom_outside_oracle, zoom_stages, 1e6),
        "algorithms.run_qlae.self_s": get(elimination[0]),
        "algorithms.run_qlae_bv.self_s": get(elimination[1]),
        "algorithms.elimination_stages": sum(extra(n, "stages") for n in elimination),
        "algorithms.played_round_frac": ratio(
            sum(extra(n, "rounds") for n in runners), sum(extra(n, "T") for n in runners)),
        "geometry.maximal_packing.calls": get("geometry.maximal_packing", "calls"),
        "geometry.maximal_packing.self_s": get("geometry.maximal_packing"),
        "geometry.maximal_packing.ms_p50": statistics.median(pack["durations"]) * 1e3
        if pack else 0.0,
        "geometry.maximal_packing.lattice_points":
            extra("geometry.maximal_packing", "lattice_points"),
        "geometry.maximal_packing.accepted": extra("geometry.maximal_packing", "accepted"),
        "geometry.maximal_packing.accept_ratio": ratio(
            extra("geometry.maximal_packing", "accepted"),
            extra("geometry.maximal_packing", "lattice_points")),
        "geometry.contains_many.self_s": get("geometry.ActiveRegion.contains_many"),
        "geometry.contains_many.elements":
            extra("geometry.ActiveRegion.contains_many", "elements"),
        "geometry.lattice.calls": get("geometry.lattice", "calls"),
        "geometry.lattice.points": extra("geometry.lattice", "points"),
        "geometry.lattice.self_s": get("geometry.lattice"),
        "geometry.pairwise.calls": get("geometry.Metric.pairwise", "calls"),
        "geometry.pairwise.self_s": get("geometry.Metric.pairwise"),
        "geometry.pairwise.elements": extra("geometry.Metric.pairwise", "elements"),
        "geometry.pairwise.bytes_computed":
            extra("geometry.Metric.pairwise", "bytes_computed"),
        "environment.qmc_estimate.calls": get("environment.qmc_estimate", "calls"),
        "environment.qmc_estimate.self_s": get("environment.qmc_estimate"),
        "environment.qmc_estimate.us_per_call": ratio(
            get("environment.qmc_estimate", "incl_s"),
            get("environment.qmc_estimate", "calls"), 1e6),
        "environment.qmc_estimate.queries": extra("environment.qmc_estimate", "queries"),
        "environment.classical_sample.calls": get("environment.classical_sample", "calls"),
        "environment.classical_sample.self_s": get("environment.classical_sample"),
        "environment.classical_sample.us_per_call": ratio(
            get("environment.classical_sample"),
            get("environment.classical_sample", "calls"), 1e6),
        "environment.ledger_consume.calls": get("environment.RoundLedger.consume", "calls"),
        "environment.ledger_consume.self_s": get("environment.RoundLedger.consume"),
        "diagnostics.near_optimal_set.self_s": get("diagnostics.near_optimal_set"),
        "diagnostics.near_optimal_set.points": extra("diagnostics.near_optimal_set", "points"),
        "diagnostics.zooming_number.self_s": get("diagnostics.zooming_number"),
        "diagnostics.fit_zooming_dimension.self_s": get("diagnostics.fit_zooming_dimension"),
        "diagnostics.audit.self_s": sum(get(n) for n in audits),
        "diagnostics.audit.records": sum(extra(n, "records") for n in audits),
    }


def identities(agg: dict, trials: list[tuple]) -> dict:
    """Completeness checks: traced counts against counts from the captured trials.

    `trials` holds (config, trial, PolicyResult) per run_single call.
    """
    classical_T = sum(c.T for c, _, _ in trials if c.algorithm == "classical_zooming")
    quantum = [(c, r) for c, _, r in trials
               if c.algorithm != "classical_zooming" and not isinstance(r, Exception)]
    empirical_rounds = sum(r.total_rounds for c, r in quantum if c.qmc_mode == "empirical")
    consume = agg.get("environment.RoundLedger.consume", {"calls": 0, "by_parent": {}})
    sample = agg.get("environment.classical_sample", {"calls": 0})
    oracle = agg.get("environment.qmc_estimate", {"extra": {}})
    checks = {
        # one draw per classical round, plus one per empirical oracle query
        "classical_sample.calls": (sample["calls"], classical_T + empirical_rounds),
        # one charge per classical round ...
        "ledger_consume.calls_in_classical": (
            consume["by_parent"].get("algorithms.run_classical_zooming", 0), classical_T),
        # ... plus one per oracle call that charged queries, and nowhere else
        "ledger_consume.calls": (
            consume["calls"], classical_T + oracle["extra"].get("charged", 0)),
        "qmc_estimate.queries": (oracle["extra"].get("queries", 0),
                                 sum(r.total_rounds for _, r in quantum)),
        "run_single.calls": (agg.get("harness.run_single", {}).get("calls", 0), len(trials)),
    }
    return {k: {"traced": got, "expected": want, "ok": got == want}
            for k, (got, want) in checks.items()}
