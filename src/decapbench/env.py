"""Contextual-MDP wrapper: problems, feasibility, features, scoring.

Port condition codes: 0 = decap allowed, 1 = keep-out, 2 = probing port.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import threading
from dataclasses import dataclass

import numpy as np

from . import pdn
from .errors import ContractViolation, check_schema

ALLOWED, KEEPOUT, PROBE = 0, 1, 2

PROBLEM_SCHEMA_VERSION = 1

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

    @property
    def allowed_ports(self) -> tuple:
        """The ports a decap may use, ascending: neither the probe nor a
        keep-out. The one feasibility rule every search and policy reads."""
        blocked = self.keepout | {self.probe}
        return tuple(p for p in range(self.n_ports) if p not in blocked)

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


def validate_placement(problem: Problem, placement) -> tuple:
    """Check the trajectory is feasible step by step: every port on the
    board, distinct, and neither the probe nor a keep-out. Return it as a
    tuple of ints."""
    chosen = tuple(int(a) for a in placement)
    free = [True] * problem.n_ports
    for p in problem.keepout:
        free[p] = False
    free[problem.probe] = False
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
    """Scores placements against the simulator, caching the bare sweep.

    The bare port-impedance sweep depends only on the stack, so one sweep
    per board size serves every problem and placement. Each evaluate()
    performs one Schur termination per frequency and counts as one
    simulator call. Safe to share between threads.
    """

    def __init__(self, config: pdn.SimConfig):
        self.config = config
        self._sweep: pdn.FrequencySweepZ | None = None
        self._lock = threading.Lock()
        self.count = 0

    def _bare_sweep(self) -> pdn.FrequencySweepZ:
        with self._lock:
            if self._sweep is None:
                stack = self.config.stack
                ports = range(stack.chip.n_cells)
                self._sweep = pdn.solve_z_ports(stack, ports, self.config.grid)
            return self._sweep

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
        """Objective J for one placement; exactly permutation-invariant."""
        z_init = self.bare_profile(problem)
        placement = validate_placement(problem, placement)
        z_final = self.final_profile(problem, placement)
        with self._lock:
            self.count += 1
        return pdn.objective(z_init, z_final, self.config.grid)


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
