"""The benchmark's three workloads, driven through decapbench.cli.main.

Each workload makes its inputs from the seed (untimed), performs one
set-up the harness can time, lists the CLI commands of one pass, and checks
and digests a pass's outputs. Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import functools
import hashlib
import io
import itertools
import json
import math
import os
import struct
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from decapbench import autodiff, cli, env, pdn, policy, search, training

THREADS = 2             # --threads on every command (run.BLAS_THREADS matches)
UNREACHABLE = 1e12      # min-k target no placement reaches


# --- per-run instrumentation that stays on in untraced runs ------------------

class Session:
    """Command runner plus the few hooks an untraced run needs: op latency,
    simulator-call count, training losses and the parameters handed to
    save_policy. Each hook costs a clock read or a counter per call."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = []      # seconds per completed op, across passes
        self.ops_started = 0
        self._t0 = None
        self._ids = itertools.count(1)
        self._command_op = 0
        self._lock = threading.Lock()
        self._patches = []
        self.new_pass()

    def new_pass(self) -> None:
        self.evaluations = 0
        self.losses = []
        self.saved = None        # {name: array} given to the last save_policy
        self.outcomes = []       # (command, exit code or None, output)

    # --- ops -----------------------------------------------------------------

    def _begin_op(self) -> None:
        self.ops_started += 1
        self._t0 = time.perf_counter()
        if self.tracer:
            self.tracer.op = next(self._ids)

    def _end_op(self) -> None:
        self.latencies.append(time.perf_counter() - self._t0)
        if self.tracer:
            self.tracer.op = self._command_op

    @property
    def ops_failed(self) -> int:
        return self.ops_started - len(self.latencies)

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def hook_call_ops(self, owner, *attrs) -> None:
        """Each call of owner.attr is one op."""
        for attr in attrs:
            fn = getattr(owner, attr)

            @functools.wraps(fn)
            def op(*args, _fn=fn, **kwargs):
                self._begin_op()
                out = _fn(*args, **kwargs)
                self._end_op()
                return out
            self._set(owner, attr, op)

    def hook_train_steps(self) -> None:
        """One op per training step: loss forward, backward and Adam."""
        total_loss, step = training.total_loss, training.Adam.step

        @functools.wraps(total_loss)
        def loss(*args, **kwargs):
            self._begin_op()
            out = total_loss(*args, **kwargs)
            self.losses.append((float(out[0].data), out[1], out[2]))
            return out

        @functools.wraps(step)
        def adam_step(opt):
            step(opt)
            self._end_op()
        self._set(training, "total_loss", loss)
        self._set(training.Adam, "step", adam_step)

    def hook_common(self) -> None:
        evaluate, save = env.Evaluator.evaluate, policy.save_policy

        @functools.wraps(evaluate)
        def counted(*args, **kwargs):
            with self._lock:
                self.evaluations += 1
            return evaluate(*args, **kwargs)

        @functools.wraps(save)
        def capture(path, store, cfg, meta=None):
            self.saved = {n: t.data.copy() for n, t in store.params.items()}
            self.saved.update((n, b.copy()) for n, b in store.buffers.items())
            return save(path, store, cfg, meta)
        self._set(env.Evaluator, "evaluate", counted)
        self._set(policy, "save_policy", capture)

    # --- commands ------------------------------------------------------------

    def run_command(self, argv) -> None:
        argv = [str(a) for a in argv]
        self._command_op = next(self._ids)
        if self.tracer:
            self.tracer.op = self._command_op
        buf = io.StringIO()
        try:
            with redirect_stdout(buf), redirect_stderr(buf):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a traceback is a failure too
            code = None
            buf.write(f"\n{type(exc).__name__}: {exc}")
        self.outcomes.append((argv[0], code, buf.getvalue()))


# --- digests -----------------------------------------------------------------

def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return sha(fh.read())


def json_digest(path, drop=()) -> str:
    """Digest of a JSON file with the given key paths removed."""
    with open(path) as fh:
        doc = json.load(fh)
    for keys in drop:
        node = doc
        for key in keys[:-1]:
            node = node.get(key, {})
        node.pop(keys[-1], None)
    return sha(json.dumps(doc, sort_keys=True).encode())


def checkpoint_digest(path) -> str:
    """Checkpoint header without meta.wall_time_s, plus the raw blobs."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen).decode())
        blobs = fh.read()
    header.get("meta", {}).pop("wall_time_s", None)
    return sha(magic + json.dumps(header, sort_keys=True).encode() + blobs)


def dir_digest(path) -> str:
    names = sorted(os.listdir(path))
    return sha("".join(f"{n}:{file_digest(os.path.join(path, n))}\n"
                       for n in names).encode())


WALL = [("metadata", "wall_time_s")]


# --- shared checks -----------------------------------------------------------

def lookahead_evaluations(problems, k_max: int) -> int:
    """evaluate() calls of `min-k` with an unreachable target: the greedy
    lookahead scores every feasible port at each of k_max steps, then every
    prefix is scored, then the full placement once more."""
    total = 0
    for p in problems:
        feasible = p.n_ports - 1 - len(p.keepout)
        total += sum(max(feasible - t, 0) for t in range(k_max)) + k_max + 1
    return total


def check_min_k(path, k_max: int) -> list:
    with open(path) as fh:
        doc = json.load(fh)
    bad = [r for r in doc["results"]
           if r["met"] or len(r["placement"]) != k_max]
    return [f"{len(bad)} min-k results met the unreachable target or are "
            f"not {k_max} long"] if bad else []


def check_training(session, ckpt, log, steps: int) -> list:
    failures = []
    store, _, meta = autodiff.load_checkpoint(ckpt)
    if meta.get("steps_run") != steps:
        failures.append(f"steps_run {meta.get('steps_run')} != {steps}")
    if len(session.losses) != steps or \
            not all(math.isfinite(v) for row in session.losses for v in row):
        failures.append("training losses missing or not finite")
    loaded = {**{n: t.data for n, t in store.params.items()},
              **store.buffers}
    saved = session.saved or {}
    if loaded.keys() != saved.keys() or any(
            loaded[n].tobytes() != saved[n].tobytes() for n in saved):
        failures.append("checkpoint parameters do not load back bit-exactly")
    if validation_rounds(log) < 1:
        failures.append("train log has no validation row, or a non-finite one")
    return failures


def validation_rounds(log) -> int:
    """Rows of the train log (one per validation round); -1 if any value
    is not finite."""
    with open(log) as fh:
        lines = fh.read().splitlines()[1:]
    for line in lines:
        if not all(math.isfinite(float(v)) for v in line.split(",")):
            return -1
    return len(lines)


def ops_check(session, before: int, expected: int) -> list:
    done = len(session.latencies) - before
    return [] if done == expected else [f"{done} ops completed, expected "
                                        f"{expected}"]


# --- workloads ---------------------------------------------------------------

class Workload:
    """One workload: inputs, set-up, one pass of commands, checks, digests."""

    name = ""

    def __init__(self, sizes):
        self.s = sizes

    def make_inputs(self, seed: int, inp: str) -> dict:
        raise NotImplementedError

    def setup_once(self, inputs: dict) -> None:
        raise NotImplementedError

    def commands(self, seed: int, inputs: dict, out: str) -> list:
        raise NotImplementedError

    def hooks(self, session: Session) -> None:
        session.hook_common()

    def check(self, session, inputs, out, ops_before) -> list:
        """(command, message) per failed output check of one pass."""
        raise NotImplementedError

    def digests(self, inputs: dict, out: str) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class SearchSizes:
    sim: str = "paper"
    rows: int = 10
    problems: int = 10
    min_k_problems: int = 1
    keepout_max: int = 15
    k: int = 20
    rs_budget: int = 100
    ga: tuple = (20, 5, 4)


class SearchPaper(Workload):
    """baselines, min-k and report --verify on the paper stack."""

    name = "search-paper"

    def make_inputs(self, seed, inp):
        s = self.s
        probs = env.gen_problem_set(seed, s.problems, s.rows, s.rows,
                                    s.keepout_max)
        paths = {"problems": os.path.join(inp, "problems.json"),
                 "min_k": os.path.join(inp, "min_k_problems.json")}
        env.write_problem_file(paths["problems"], probs)
        env.write_problem_file(paths["min_k"], probs[:s.min_k_problems])
        return {**paths, "first": probs[0],
                "min_k_list": probs[:s.min_k_problems]}

    def setup_once(self, inputs):
        cfg = pdn.paper_scale_config() if self.s.sim == "paper" else \
            pdn.chip_only_config(self.s.rows, self.s.rows)
        env.Evaluator(cfg).bare_profile(inputs["first"])

    def commands(self, seed, inputs, out):
        s = self.s
        common = ["--sim", s.sim, "--seed", seed, "--threads", THREADS]
        return [
            ["baselines", *common, "--problems", inputs["problems"],
             "--k", s.k, "--rs-budgets", s.rs_budget,
             "--ga-presets", ":".join(map(str, s.ga)),
             "--out", os.path.join(out, "baselines.json")],
            ["min-k", *common, "--problems", inputs["min_k"],
             "--target", UNREACHABLE, "--k-max", s.k,
             "--out", os.path.join(out, "min_k.json")],
            ["report", *common, "--verify",
             "--report", os.path.join(out, "baselines.json"),
             "--out", os.path.join(out, "plots")],
        ]

    def hooks(self, session):
        super().hooks(session)
        session.hook_call_ops(cli, "random_search", "ga_solve")

    def check(self, session, inputs, out, ops_before):
        s = self.s
        per_problem = s.rs_budget + s.ga[0] * s.ga[1]
        failures = [("min-k", m) for m in
                    check_min_k(os.path.join(out, "min_k.json"), s.k)]
        with open(os.path.join(out, "baselines.json")) as fh:
            calls = json.load(fh)["metadata"]["simulator_calls"]
        if calls != s.problems * per_problem:
            failures.append(("baselines", f"simulator_calls {calls}"))
        expected = (s.problems * per_problem
                    + lookahead_evaluations(inputs["min_k_list"], s.k)
                    + 2 * s.problems)  # verify re-scores both methods
        if session.evaluations != expected:
            failures.append(("report", f"{session.evaluations} simulator "
                                       f"calls, expected {expected}"))
        failures += [("baselines", m) for m in
                     ops_check(session, ops_before, 2 * s.problems)]
        return failures

    def digests(self, inputs, out):
        return {"problems": file_digest(inputs["problems"]),
                "baselines": json_digest(os.path.join(out, "baselines.json"),
                                         WALL),
                "min_k": file_digest(os.path.join(out, "min_k.json")),
                "plots": dir_digest(os.path.join(out, "plots"))}


@dataclass(frozen=True)
class TrainSizes:
    rows: int = 10
    train: int = 16
    val: int = 4
    keepout_max: int = 15
    k: int = 20
    batch: int = 8
    steps: int = 20
    label_ga: tuple = (4, 2, 1)   # cheap GA labels; their quality is moot


class TrainK20(Workload):
    """Paper-preset training at K=20 on a 10x10 chip dataset."""

    name = "train-k20"

    def make_inputs(self, seed, inp):
        s = self.s
        train = env.gen_problem_set(2 * seed, s.train, s.rows, s.rows,
                                    s.keepout_max)
        val = env.gen_problem_set(2 * seed + 1, s.val, s.rows, s.rows,
                                  s.keepout_max,
                                  {p.canonical_hash() for p in train})
        paths = {"dataset": os.path.join(inp, "expert_dataset.jsonl"),
                 "val": os.path.join(inp, "val_problems.json")}
        env.write_problem_file(paths["val"], val)
        ev = env.Evaluator(pdn.chip_only_config(s.rows, s.rows))
        search.build_expert_dataset(
            paths["dataset"], len(train), s.k,
            search.GaConfig(*s.label_ga, seed=seed), ev, problem_seed=0,
            n_rows=s.rows, n_cols=s.rows, problems=train)
        return {**paths, "first": val[0], "seed": seed}

    def setup_once(self, inputs):
        env.Evaluator(pdn.chip_only_config(self.s.rows, self.s.rows)) \
            .bare_profile(inputs["first"])
        policy.init_params(policy.ModelConfig(init_seed=inputs["seed"]))

    def commands(self, seed, inputs, out):
        s = self.s
        return [["train", "--seed", seed, "--threads", THREADS,
                 "--dataset", inputs["dataset"],
                 "--val-problems", inputs["val"], "--preset", "paper",
                 "--batch", s.batch, "--k", s.k, "--steps", s.steps,
                 "--out", os.path.join(out, "model.ckpt"),
                 "--log", os.path.join(out, "train.csv")]]

    def hooks(self, session):
        super().hooks(session)
        session.hook_train_steps()

    def check(self, session, inputs, out, ops_before):
        s = self.s
        log = os.path.join(out, "train.csv")
        failures = check_training(session, os.path.join(out, "model.ckpt"),
                                  log, s.steps)
        failures += ops_check(session, ops_before, s.steps)
        expected = s.val * validation_rounds(log)
        if session.evaluations != expected:
            failures.append(f"{session.evaluations} simulator calls, "
                            f"expected {expected}")
        return [("train", m) for m in failures]

    def digests(self, inputs, out):
        return {"dataset": file_digest(inputs["dataset"]),
                "val_problems": file_digest(inputs["val"]),
                "checkpoint": checkpoint_digest(
                    os.path.join(out, "model.ckpt")),
                "train_log": file_digest(os.path.join(out, "train.csv"))}


@dataclass(frozen=True)
class ToySizes:
    rows: int = 5
    train: int = 20
    val: int = 10
    test: int = 10
    keepout_max: int = 4
    k: int = 4
    steps: int = 100
    rs_budget: int = 100
    ga: tuple = (20, 5, 4)


class ToyPipeline(Workload):
    """The README sequence on 5x5 boards at K=4."""

    name = "toy-pipeline"

    def make_inputs(self, seed, inp):
        s = self.s
        cfg = policy.toy_config(init_seed=seed)
        ckpt = os.path.join(inp, "init.ckpt")
        policy.save_policy(ckpt, policy.init_params(cfg), cfg, {})
        return {"checkpoint": ckpt,
                "first": env.gen_problem(seed, s.rows, s.rows, s.keepout_max)}

    def setup_once(self, inputs):
        env.Evaluator(pdn.chip_only_config(self.s.rows, self.s.rows)) \
            .bare_profile(inputs["first"])
        policy.load_policy(inputs["checkpoint"])

    def commands(self, seed, inputs, out):
        s = self.s
        common = ["--seed", seed, "--threads", THREADS]
        f = functools.partial(os.path.join, out)
        return [
            ["gen", *common, "--rows", s.rows, "--cols", s.rows,
             "--train", s.train, "--val", s.val, "--test", s.test,
             "--keepout-max", s.keepout_max, "--expert", "--k", s.k,
             "--ga-population", s.ga[0], "--ga-generations", s.ga[1],
             "--ga-elites", s.ga[2], "--out", out],
            ["train", *common, "--dataset", f("expert_dataset.jsonl"),
             "--val-problems", f("val_problems.json"), "--preset", "toy",
             "--steps", s.steps, "--out", f("model.ckpt"),
             "--log", f("train.csv")],
            ["eval", *common, "--checkpoint", f("model.ckpt"),
             "--problems", f("test_problems.json"), "--k", s.k,
             "--out", f("eval.json")],
            ["min-k", *common, "--problems", f("test_problems.json"),
             "--target", UNREACHABLE, "--k-max", s.k,
             "--out", f("min_k.json")],
            ["baselines", *common, "--problems", f("test_problems.json"),
             "--k", s.k, "--rs-budgets", s.rs_budget,
             "--ga-presets", ":".join(map(str, s.ga)),
             "--out", f("baselines.json")],
            ["report", *common, "--report", f("eval.json"), "--verify",
             "--out", f("plots")],
        ]

    def hooks(self, session):
        super().hooks(session)
        session.hook_train_steps()

    def check(self, session, inputs, out, ops_before):
        s = self.s
        f = functools.partial(os.path.join, out)
        failures = [("train", m) for m in
                    check_training(session, f("model.ckpt"), f("train.csv"),
                                   s.steps)
                    + ops_check(session, ops_before, s.steps)]
        failures += [("min-k", m) for m in check_min_k(f("min_k.json"), s.k)]
        test = env.read_problem_file(f("test_problems.json"))
        expected = (s.train * s.ga[0] * s.ga[1]                 # gen --expert
                    + s.val * validation_rounds(f("train.csv"))  # train
                    + s.test                                    # eval
                    + lookahead_evaluations(test, s.k)          # min-k
                    + s.test * (s.rs_budget + s.ga[0] * s.ga[1])  # baselines
                    + s.test)                                   # verify
        if session.evaluations != expected:
            failures.append(("report", f"{session.evaluations} simulator "
                                       f"calls, expected {expected}"))
        return failures

    def digests(self, inputs, out):
        f = functools.partial(os.path.join, out)
        d = {split: file_digest(f(f"{split}_problems.json"))
             for split in ("train", "val", "test")}
        d.update({
            "dataset": file_digest(f("expert_dataset.jsonl")),
            "checkpoint": checkpoint_digest(f("model.ckpt")),
            "train_log": file_digest(f("train.csv")),
            "eval": json_digest(f("eval.json"), WALL + [
                ("metadata", "checkpoint_meta", "wall_time_s")]),
            "min_k": file_digest(f("min_k.json")),
            "baselines": json_digest(f("baselines.json"), WALL),
            "plots": dir_digest(f("plots"))})
        return d


WORKLOADS = {w.name: w for w in (SearchPaper, TrainK20, ToyPipeline)}
FULL = {"search-paper": SearchSizes(), "train-k20": TrainSizes(),
        "toy-pipeline": ToySizes()}
