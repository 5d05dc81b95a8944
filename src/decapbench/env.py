"""Contextual-MDP wrapper: problems, feasibility, features, scoring.

Port condition codes: 0 = decap allowed, 1 = keep-out, 2 = probing port.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import numbers
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from . import pdn
from .errors import ContractViolation, check_schema

ALLOWED, KEEPOUT, PROBE = 0, 1, 2

PROBLEM_SCHEMA_VERSION = 1

# Evaluator.evaluate_all scores a batch on worker threads only when some
# placement has at least this many ports. Below it the share of each
# evaluate() that holds the interpreter lock leaves little to overlap:
# batches of 20 on 2 threads (2 CPUs, 2 BLAS threads) against a loop ran
# x0.89 to x1.28 at K = 4 and x0.90 to x1.54 at K = 8, but x1.42 to x1.76
# at K = 12 (chip 5x5, paper and chip 10x10 stacks, medians of 7).
PARALLEL_MIN_PORTS = 12

_INDEX_SCHEMA = {"type": "integer", "minimum": 0}

# One problem as Problem.to_dict writes it; problem files, expert datasets
# and reports all embed this.
PROBLEM_SCHEMA = {
    "type": "object",
    "properties": {
        "rows": {"type": "integer", "minimum": 1},
        "cols": {"type": "integer", "minimum": 1},
        "probe": _INDEX_SCHEMA,
        "keepout": {"type": "array", "items": _INDEX_SCHEMA},
    },
    "required": ["rows", "cols", "probe", "keepout"],
    "additionalProperties": False,
}

PROBLEM_FILE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "schema_version": {"const": PROBLEM_SCHEMA_VERSION},
        "problems": {"type": "array", "items": PROBLEM_SCHEMA},
    },
    "required": ["schema_version", "problems"],
    "additionalProperties": False,
}


@dataclass(frozen=True)
class Problem:
    n_rows: int
    n_cols: int
    probe: int
    keepout: frozenset

    def __post_init__(self):
        n = self.n_rows * self.n_cols
        if not (0 <= self.probe < n):
            raise ContractViolation("probe out of range")
        if any(not (0 <= k < n) for k in self.keepout):
            raise ContractViolation("keep-out index out of range")
        if self.probe in self.keepout:
            raise ContractViolation("probe may not be in the keep-out set")

    @property
    def n_ports(self) -> int:
        return self.n_rows * self.n_cols

    @functools.cached_property
    def allowed_mask(self) -> np.ndarray:
        """(n_ports,) bool, read-only: True where a decap may go, i.e.
        neither the probe nor a keep-out. The one feasibility rule every
        search, policy and validation reads."""
        mask = np.ones(self.n_ports, dtype=bool)
        mask[list(self.keepout)] = False
        mask[self.probe] = False
        mask.flags.writeable = False
        return mask

    @functools.cached_property
    def allowed_ports(self) -> tuple:
        """The allowed ports in ascending order."""
        return tuple(int(p) for p in np.flatnonzero(self.allowed_mask))

    def to_dict(self) -> dict:
        return {"rows": self.n_rows, "cols": self.n_cols,
                "probe": self.probe, "keepout": sorted(self.keepout)}

    @staticmethod
    def from_dict(d: dict) -> "Problem":
        return Problem(int(d["rows"]), int(d["cols"]), int(d["probe"]),
                       frozenset(int(k) for k in d["keepout"]))

    def canonical_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


Placement = tuple  # ordered distinct feasible port indices


def gen_problem(rng, n_rows: int, n_cols: int, keepout_max: int) -> Problem:
    """One random problem: uniform probe, 0..keepout_max keep-outs.

    rng is an integer seed or a numpy Generator (PCG64 for seeds, which is
    platform-stable).
    """
    n = n_rows * n_cols
    if keepout_max >= n - 1:
        raise ContractViolation("keepout_max too large for the board")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.Generator(np.random.PCG64(rng))
    probe = int(rng.integers(n))
    n_keep = int(rng.integers(keepout_max + 1))
    others = np.array([p for p in range(n) if p != probe])
    keepout = rng.choice(others, size=n_keep, replace=False)
    return Problem(n_rows, n_cols, probe, frozenset(int(k) for k in keepout))


def problem_space_size(n_rows: int, n_cols: int, keepout_max: int) -> int:
    """Number of distinct problems gen_problem can return: a probe and a
    keep-out set of at most keepout_max of the other ports."""
    if n_rows < 1 or n_cols < 1:
        raise ContractViolation(
            f"board dimensions must be positive, got {n_rows}x{n_cols}")
    n = n_rows * n_cols
    return n * sum(math.comb(n - 1, j) for j in range(keepout_max + 1))


def gen_problem_set(seed, count: int, n_rows: int, n_cols: int,
                    keepout_max: int, exclude_hashes=()) -> list:
    """count distinct problems, disjoint from exclude_hashes by rejection.

    Raises ContractViolation as soon as the problems not yet drawn cannot
    complete the request, so a request larger than the distinct-problem
    space fails instead of looping forever.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    space = problem_space_size(n_rows, n_cols, keepout_max)
    seen = set(exclude_hashes)
    drawn = set()
    out = []
    while len(out) < count:
        if count - len(out) > space - len(drawn):
            raise ContractViolation(
                f"cannot draw {count} distinct problems: {space} exist on a "
                f"{n_rows}x{n_cols} board with at most {keepout_max} "
                f"keep-outs, less any excluded")
        p = gen_problem(rng, n_rows, n_cols, keepout_max)
        h = p.canonical_hash()
        drawn.add(h)
        if h in seen:
            continue
        seen.add(h)
        out.append(p)
    return out


def _port(a) -> int:
    """a as a port index: an integer (Python or numpy) or an integral
    float such as JSON's 1.0. A bool or a non-integral value is rejected,
    where int() would truncate it to some other port."""
    if not isinstance(a, bool) and (
            isinstance(a, numbers.Integral)
            or isinstance(a, numbers.Real) and float(a).is_integer()):
        return int(a)
    raise ContractViolation(f"action {a!r} is not an integer")


def validate_placement(problem: Problem, placement) -> tuple:
    """Check the trajectory is feasible step by step: every port an
    integer on the board, distinct, and neither the probe nor a keep-out.
    Return it as a tuple of ints."""
    chosen = tuple(a if type(a) is int else _port(a) for a in placement)
    free = problem.allowed_mask.tolist()
    for a in chosen:
        if not (0 <= a < len(free) and free[a]):
            raise ContractViolation(f"infeasible action {a}")
        free[a] = False
    return chosen


@functools.lru_cache(maxsize=64)
def board_xy(n_rows: int, n_cols: int) -> np.ndarray:
    """(n_ports, 2) normalized (x, y) of every port, row-major. Read-only:
    one cached array per board size serves every caller."""
    idx = np.arange(n_rows * n_cols)
    r, c = idx // n_cols, idx % n_cols
    xy = np.zeros((n_rows * n_cols, 2))
    xy[:, 0] = c / (n_cols - 1) if n_cols > 1 else 0.0
    xy[:, 1] = r / (n_rows - 1) if n_rows > 1 else 0.0
    xy.flags.writeable = False
    return xy


def encode_features(problem: Problem) -> np.ndarray:
    """(n_ports, 5) array: x_norm, y_norm, condition one-hot(3)."""
    n = problem.n_ports
    feats = np.zeros((n, 5))
    feats[:, :2] = board_xy(problem.n_rows, problem.n_cols)
    cond = np.full(n, ALLOWED)
    cond[list(problem.keepout)] = KEEPOUT
    cond[problem.probe] = PROBE
    feats[np.arange(n), 2 + cond] = 1.0
    return feats


class Evaluator:
    """Scores placements against the simulator, caching the bare sweep and
    the scores of the problem being scored.

    The bare port-impedance sweep depends only on the stack, so one sweep
    per board size serves every problem and placement. Each evaluate()
    counts as one simulator call (`count`). J is a pure function of the
    probe's sweep row and the multiset of the decap ports' sweep rows, so
    for the problem being scored each distinct termination is solved once
    (`solves`) and its repeats return the stored J, bit-identical to a
    fresh solve. Scoring another problem drops the stored scores; a failed
    solve is never stored. Safe to share between threads: a thread that
    asks for a termination another thread is solving waits for that solve.
    evaluate_all() scores a batch on up to `threads` threads, and
    run_beside() runs a second task beside the caller's on a worker;
    close() (or leaving a `with` block) stops the worker threads.
    """

    def __init__(self, config: pdn.SimConfig, threads: int = 1):
        if threads < 1:
            raise ContractViolation(f"threads must be >= 1, got {threads}")
        self.config = config
        self.threads = threads
        self._sweep: pdn.FrequencySweepZ | None = None
        self._port_rows: list = []
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self.count = 0
        self.solves = 0
        # The problem whose scores _memo holds, and those scores keyed on
        # (probe row, sorted decap rows): J, or a held Lock while a thread
        # solves that termination.
        self._memo_problem: Problem | None = None
        self._memo: dict = {}

    def __enter__(self) -> "Evaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop the worker threads, if any started; they restart on the
        next batch that needs them."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _bare_sweep(self) -> pdn.FrequencySweepZ:
        with self._lock:
            if self._sweep is None:
                stack = self.config.stack
                ports = range(stack.chip.n_cells)
                self._sweep = pdn.solve_z_ports(stack, ports, self.config.grid)
                # The sweep's ports are 0..n-1 in order, so entry p is the
                # sweep row of port p.
                self._port_rows = self._sweep.port_rows.tolist()
            return self._sweep

    def _workers(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    self.threads - 1, thread_name_prefix="evaluator")
            return self._pool

    def run_beside(self, main, side) -> tuple:
        """(main(), side()), with side on a worker thread while main runs
        on the calling thread; with threads == 1, main then side, both
        here. Returns once both have finished. If main raised, its
        exception is raised, else side's."""
        if self.threads < 2:
            return main(), side()
        future = self._workers().submit(side)
        try:
            out = main()
        finally:
            wait([future])
        return out, future.result()

    def _check_board(self, problem: Problem) -> None:
        chip = self.config.stack.chip
        if (problem.n_rows, problem.n_cols) != (chip.n_rows, chip.n_cols):
            raise ContractViolation("problem board does not match the stack")

    def bare_profile(self, problem: Problem) -> np.ndarray:
        self._check_board(problem)
        sweep = self._bare_sweep()
        i = sweep.port_index(problem.probe)
        return np.abs(sweep.z[:, i, i])

    def final_profile(self, problem: Problem, placement) -> np.ndarray:
        self._check_board(problem)
        return pdn.attach_decaps(self._bare_sweep(), problem.probe,
                                 list(placement), self.config.decap)

    def evaluate(self, problem: Problem, placement) -> float:
        """Objective J for one placement; exactly permutation-invariant,
        and equal for ports that share a network node. One simulator call
        whether or not its termination was solved before."""
        self._check_board(problem)
        placement = validate_placement(problem, placement)
        self._bare_sweep()
        rows = self._port_rows
        key = (rows[problem.probe], tuple(sorted(rows[a] for a in placement)))
        with self._lock:
            self.count += 1
        while True:
            with self._lock:
                if problem != self._memo_problem:
                    self._memo_problem, self._memo = problem, {}
                memo = self._memo
                got = memo.get(key)
                if isinstance(got, float):
                    return got
                if got is None:
                    busy = memo[key] = threading.Lock()
                    busy.acquire()
                    self.solves += 1
                    break
            with got:  # another thread is solving key: wait, then look again
                pass
        try:
            j = pdn.objective(self.bare_profile(problem),
                              self.final_profile(problem, placement),
                              self.config.grid)
        except BaseException:
            with self._lock:
                del memo[key]  # a failure is not stored: a retry raises again
            busy.release()
            raise
        with self._lock:
            memo[key] = j
        busy.release()
        return j

    def evaluate_all(self, problems, placements) -> list:
        """evaluate(problems[i], placements[i]) for every i, in order.

        Scores on the calling thread plus up to threads - 1 workers when
        some placement has PARALLEL_MIN_PORTS ports or more, else in a
        plain loop. Either way each score is one evaluate() call, and the
        result or the exception raised (the first failing pair in input
        order) is the same; no worker is still scoring on return.
        """
        problems, placements = list(problems), list(placements)
        if len(problems) != len(placements):
            raise ContractViolation("one placement per problem")
        n = len(placements)
        n_workers = min(self.threads, n) - 1
        if n_workers < 1 or max(map(len, placements)) < PARALLEL_MIN_PORTS:
            return [self.evaluate(p, a) for p, a in zip(problems, placements)]
        self._bare_sweep()  # build the shared sweep before the workers start
        scores = [None] * n
        failures = []              # (index, exception)
        taken = itertools.count()  # pairs go out in input order
        take = threading.Lock()
        stop = threading.Event()

        def drain():
            while not stop.is_set():
                with take:
                    i = next(taken)
                if i >= n:
                    return
                try:
                    scores[i] = self.evaluate(problems[i], placements[i])
                except Exception as exc:  # re-raised by the calling thread
                    failures.append((i, exc))
                    stop.set()

        pool = self._workers()
        futures = [pool.submit(drain) for _ in range(n_workers)]
        try:
            drain()
        finally:
            stop.set()
            wait(futures)
        for f in futures:
            f.result()
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
        return scores


def write_problem_file(path, problems) -> None:
    doc = {"schema_version": PROBLEM_SCHEMA_VERSION,
           "problems": [p.to_dict() for p in problems]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_problem_file(path) -> list:
    with open(path) as fh:
        doc = json.load(fh)
    check_schema(doc, PROBLEM_FILE_SCHEMA, "problem file")
    return [Problem.from_dict(d) for d in doc["problems"]]
