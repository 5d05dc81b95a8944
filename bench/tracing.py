"""Span tracer for the traced benchmark run, and the per-layer metrics
derived from its spans.

install() rebinds every public function of the decapbench modules, at every
module attribute that binds it (search.ga_solve is also cli.ga_solve), and
every public method of the classes those modules define, to a wrapper that
records one span per call: id, name, start, end, parent span, op id, whether
it raised, and for a few names one probed argument value. Spans stay in
memory until dump(). restore() puts every original back.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time
import types

MODULES = ("pdn", "env", "search", "autodiff", "policy", "training",
           "report", "cli")

# Constructors whose body is a pipeline stage of its own.
CONSTRUCTORS = {"pdn": ("StackTopology",)}

PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def current_rss_mb() -> float:
    """Resident set size of this process now, from /proc/self/statm."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_MB


# One argument value recorded per call for these spans.
PROBES = {
    # distinct (problem, sorted placement) pairs -> useful-work ratio
    "env.Evaluator.evaluate": lambda a, k: (
        a[1], tuple(sorted(int(x) for x in a[2]))),
    # number of terminated ports K: the Schur work count
    "pdn.attach_decaps": lambda a, k: len(a[2]),
    # frequency points per sweep
    "pdn.solve_z_ports": lambda a, k: len(a[2] if len(a) > 2 else k["grid"]),
    # live tape size when backward starts
    "autodiff.Tensor.backward": lambda a, k: current_rss_mb(),
}


class Tracer:
    def __init__(self):
        self.spans = []          # [id, name, start, end, parent, op, err, arg]
        self.op = 0              # op id stamped on spans as they start
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []       # (owner, attr, original), in install order

    # --- recording -----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, local, ids = self.spans, self._local, self._ids
        clock, probe = time.perf_counter, PROBES.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            rec = [sid, name, clock(), 0.0, stack[-1] if stack else -1,
                   self.op, False, probe(args, kwargs) if probe else None]
            spans.append(rec)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[6] = True
                raise
            finally:
                rec[3] = clock()
                stack.pop()
        return span

    def install(self, package) -> None:
        """Wrap every public function and method of package's modules."""
        mods = {m: getattr(package, m) for m in MODULES}
        wrappers = {}  # original function -> its one wrapper

        def wrapped(fn, name):
            if fn not in wrappers:
                wrappers[fn] = self._wrap(name, fn)
            return wrappers[fn]

        def span_name(fn):
            return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"

        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and \
                        obj.__module__.startswith(package.__name__ + "."):
                    self._set(mod, attr, wrapped(obj, span_name(obj)))
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj, wrapped, span_name)

    def _wrap_class(self, short, cls, wrapped, span_name):
        ctors = CONSTRUCTORS.get(short, ())
        for attr, val in list(vars(cls).items()):
            if attr == "__init__" and cls.__name__ in ctors:
                self._set(cls, attr, wrapped(val, f"{short}.{cls.__name__}"))
            elif attr.startswith("_"):
                continue
            elif isinstance(val, types.FunctionType):
                self._set(cls, attr, wrapped(val, span_name(val)))
            elif isinstance(val, (staticmethod, classmethod)):
                fn = val.__func__
                self._set(cls, attr, type(val)(wrapped(fn, span_name(fn))))

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path, seed) -> None:
        """Write the spans as JSON lines: a header, then one array each."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"seed": seed, "columns": [
                "id", "name", "start_s", "end_s", "parent", "op", "raised"]})
                + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec[:7]) + "\n")


# --- per-layer metrics -------------------------------------------------------

CLI_COMMANDS = ("gen", "train", "eval", "min_k", "baselines", "report")


def _self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for rec in spans:
        if rec[4] >= 0:
            children.setdefault(rec[4], []).append((rec[2], rec[3]))
    out = {}
    for rec in spans:
        covered, end = 0.0, float("-inf")
        for s, e in sorted(children.get(rec[0], ())):
            s = max(s, end)
            if e > s:
                covered += e - s
                end = e
        out[rec[0]] = (rec[3] - rec[2]) - covered
    return out


def layer_metrics(spans) -> dict:
    """Every per-layer metric (values only) from one traced pass's spans."""
    self_t = _self_times(spans)
    by_name = {}
    for rec in spans:
        by_name.setdefault(rec[1], []).append(rec)

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def total(*names):
        return sum(r[3] - r[2] for n in names for r in by_name.get(n, ()))

    def self_total(*names):
        return sum(self_t[r[0]] for n in names for r in by_name.get(n, ()))

    def args(name):
        return [r[7] for r in by_name.get(name, ())]

    # evaluate calls made under a search-module span (searches' sim calls)
    in_search = {}
    for rec in spans:  # ids grow with start time, so parents come first
        in_search[rec[0]] = rec[1].startswith("search.") or \
            in_search.get(rec[4], False)
    evaluates = by_name.get("env.Evaluator.evaluate", ())
    schur = [r[3] - r[2] for r in by_name.get("pdn.attach_decaps", ())]
    n_freq = sum(args("pdn.solve_z_ports"))
    keys = args("env.Evaluator.evaluate")
    rss = args("autodiff.Tensor.backward")

    m = {
        "pdn.topology_s": total("pdn.StackTopology"),
        "pdn.sweep_calls": calls("pdn.solve_z_ports"),
        "pdn.sweep_s": total("pdn.solve_z_ports"),
        "pdn.sweep_ms_per_freq":
            1e3 * total("pdn.solve_z_ports") / n_freq if n_freq else 0.0,
        "pdn.schur_calls": len(schur),
        "pdn.schur_s": sum(schur),
        "pdn.schur_us_p50": 1e6 * statistics.median(schur) if schur else 0.0,
        "pdn.schur_ports_total": sum(args("pdn.attach_decaps")),
        "pdn.errors": sum(1 for r in spans
                          if r[6] and r[1].startswith("pdn.")),
        "env.evaluate_calls": len(evaluates),
        "env.evaluate_self_s": self_total("env.Evaluator.evaluate"),
        "env.validate_s": total("env.validate_placement"),
        "env.evaluate_unique_ratio":
            len(set(keys)) / len(keys) if keys else 0.0,
        "env.encode_features_calls": calls("env.encode_features"),
        "env.encode_features_s": total("env.encode_features"),
        "env.io_s": total("env.write_problem_file", "env.read_problem_file"),
        "search.ga_solve_calls": calls("search.ga_solve"),
        "search.random_search_calls": calls("search.random_search"),
        "search.sim_calls": sum(1 for r in evaluates if in_search[r[0]]),
        "search.self_s": sum(self_t[r[0]] for r in spans
                             if r[1].startswith("search.")),
        "search.dataset_io_s": total("search.write_expert_dataset",
                                     "search.read_expert_dataset"),
        "autodiff.backward_calls": calls("autodiff.Tensor.backward"),
        "autodiff.backward_s": total("autodiff.Tensor.backward"),
        "autodiff.rss_at_backward_mb": statistics.median(rss) if rss else 0.0,
        "autodiff.checkpoint_io_s": total("autodiff.save_checkpoint",
                                          "autodiff.load_checkpoint"),
        "policy.encode_calls": calls("policy.encode"),
        "policy.encode_s": total("policy.encode"),
        "policy.decode_step_calls": calls("policy.decode_step"),
        "policy.decode_step_s": total("policy.decode_step"),
        "policy.context_query_s": total("policy.context_query"),
        "policy.sequence_log_prob_self_s":
            self_total("policy.sequence_log_prob"),
        "policy.rollout_batch_self_s": self_total("policy.rollout_batch"),
        "training.expert_loss_s": total("training.expert_loss"),
        "training.self_loss_s": total("training.self_loss"),
        "training.adam_step_s": total("training.Adam.step"),
        "training.validate_s": total("training.validate"),
        "training.order_bias_s": total("training.order_bias_estimate"),
        "report.verify_calls": calls("report.BenchReport.verify"),
        "report.verify_s": total("report.BenchReport.verify"),
        "report.artifacts_s": total("report.impedance_artifacts",
                                    "report.svg_placement_heatmap",
                                    "report.BenchReport.write_csv"),
        "cli.lookahead_calls": calls("cli.greedy_sim_placement"),
        "cli.lookahead_s": total("cli.greedy_sim_placement"),
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = total(f"cli.cmd_{cmd}")
    return m


# name -> unit, for every metric layer_metrics() returns plus the run-level
# ones the harness adds.
LAYER_UNITS = {
    "pdn.topology_s": "s", "pdn.sweep_calls": "count", "pdn.sweep_s": "s",
    "pdn.sweep_ms_per_freq": "ms", "pdn.schur_calls": "count",
    "pdn.schur_s": "s", "pdn.schur_us_p50": "us",
    "pdn.schur_ports_total": "count", "pdn.errors": "count",
    "env.evaluate_calls": "count", "env.evaluate_self_s": "s",
    "env.validate_s": "s", "env.evaluate_unique_ratio": "ratio",
    "env.encode_features_calls": "count", "env.encode_features_s": "s",
    "env.io_s": "s",
    "search.ga_solve_calls": "count", "search.random_search_calls": "count",
    "search.sim_calls": "count", "search.self_s": "s",
    "search.dataset_io_s": "s",
    "autodiff.backward_calls": "count", "autodiff.backward_s": "s",
    "autodiff.rss_at_backward_mb": "MB", "autodiff.checkpoint_io_s": "s",
    "policy.encode_calls": "count", "policy.encode_s": "s",
    "policy.decode_step_calls": "count", "policy.decode_step_s": "s",
    "policy.context_query_s": "s", "policy.sequence_log_prob_self_s": "s",
    "policy.rollout_batch_self_s": "s",
    "training.expert_loss_s": "s", "training.self_loss_s": "s",
    "training.adam_step_s": "s", "training.validate_s": "s",
    "training.order_bias_s": "s",
    "report.verify_calls": "count", "report.verify_s": "s",
    "report.artifacts_s": "s",
    **{f"cli.{c}_s": "s" for c in CLI_COMMANDS},
    "cli.lookahead_calls": "count", "cli.lookahead_s": "s",
    "cli.cpu_per_wall": "ratio",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}
