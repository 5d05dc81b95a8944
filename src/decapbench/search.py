"""Search baselines: random search and the elitist genetic algorithm,
plus offline expert-dataset construction."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .env import PROBLEM_SCHEMA, Evaluator, Problem, validate_placement
from .errors import ContractViolation, check_schema
from .pdn import sim_preset

DATASET_SCHEMA_VERSION = 1

# The JSONL lines of an expert dataset: a header, then one record per line.
# The header fixes K, the length of every record's placement, and the
# simulator preset (sim) and keep-out cap of `train`.
DATASET_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "array",
    "minItems": 1,
    "prefixItems": [{
        "type": "object",
        "properties": {"schema_version": {"const": DATASET_SCHEMA_VERSION},
                       "k": {"type": "integer", "minimum": 1},
                       "sim": {"type": ["string", "null"]},
                       "keepout_max": {"type": "integer", "minimum": 0}},
        "required": ["schema_version", "k", "sim", "keepout_max"],
    }],
    "items": {
        "type": "object",
        "properties": {
            "problem": PROBLEM_SCHEMA,
            "placement": {"type": "array", "items": {"type": "integer"}},
            "score": {"type": "number"},
            "budget": {"type": "integer"},
            "seed": {"type": "integer"},
        },
        "required": ["problem", "placement", "score", "budget", "seed"],
    },
}


@dataclass(frozen=True)
class GaConfig:
    population: int = 20
    generations: int = 5
    elites: int = 4
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.elites < self.population:
            raise ContractViolation("need 0 <= elites < population")
        if self.population < 2 or self.generations < 1:
            raise ContractViolation("need population >= 2 and generations >= 1")

    @property
    def budget(self) -> int:
        return self.population * self.generations


@dataclass(frozen=True)
class ExpertRecord:
    problem: Problem
    placement: tuple
    score: float
    budget: int
    seed: int

    def to_dict(self) -> dict:
        return {"problem": self.problem.to_dict(),
                "placement": list(self.placement),
                "score": self.score, "budget": self.budget, "seed": self.seed}

    @staticmethod
    def from_dict(d: dict) -> "ExpertRecord":
        return ExpertRecord(Problem.from_dict(d["problem"]),
                            tuple(d["placement"]), d["score"],
                            d["budget"], d["seed"])


def _random_placement(problem: Problem, k: int, rng) -> tuple:
    feasible = problem.allowed_ports
    if k < 1:
        raise ContractViolation("K must be >= 1")
    if len(feasible) < k:
        raise ContractViolation("fewer feasible ports than K")
    pick = rng.choice(np.array(feasible), size=k, replace=False)
    return tuple(int(a) for a in pick)


def baseline_seed(seed: int, method: str, index: int) -> int:
    """The rng seed of one baseline search, method "rs" or "ga", on problem
    index of a run seeded with seed: 2 (seed + index) for random search and
    one more for the GA, so the two methods never share a stream."""
    return 2 * (seed + index) + ("rs", "ga").index(method)


def random_search(problem: Problem, k: int, m: int, evaluator: Evaluator,
                  seed: int) -> ExpertRecord:
    """Best of m uniformly drawn feasible placements; exactly m evaluations."""
    if m < 1:
        raise ContractViolation("m must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    cands = [_random_placement(problem, k, rng) for _ in range(m)]
    scores = evaluator.evaluate_all([problem] * m, cands)
    best, best_score = None, -np.inf
    for cand, score in zip(cands, scores):
        if score > best_score:
            best, best_score = cand, score
    return ExpertRecord(problem, best, best_score, m, seed)


def exhaustive_best(problem: Problem, k: int, evaluator: Evaluator
                    ) -> ExpertRecord:
    """Global optimum by enumerating every size-k feasible subset.

    Only usable on tiny boards; ties break toward the lexicographically
    first subset.
    """
    import itertools
    feasible = problem.allowed_ports
    if len(feasible) < k:
        raise ContractViolation("fewer feasible ports than K")
    best, best_score = None, -np.inf
    for n_evals, cand in enumerate(itertools.combinations(feasible, k), 1):
        score = evaluator.evaluate(problem, cand)
        if score > best_score:
            best, best_score = cand, score
    return ExpertRecord(problem, best, best_score, n_evals, seed=0)


def crossover(parent_a, parent_b, rng) -> list:
    """First half of one parent (coin flip) plus last half of the other.

    The child may contain duplicates; mutate_dedup repairs them.
    """
    if len(parent_a) != len(parent_b):
        raise ContractViolation("parents must have equal length")
    k = len(parent_a)
    half = (k + 1) // 2
    if rng.integers(2) == 0:
        return list(parent_a[:half]) + list(parent_b[half:])
    return list(parent_b[:half]) + list(parent_a[half:])


def mutate_dedup(genes, problem: Problem, rng) -> tuple:
    """Replace duplicate or infeasible genes with fresh feasible draws."""
    k = len(genes)
    allowed = problem.allowed_ports
    if len(allowed) < k:
        raise ContractViolation("fewer feasible ports than K")
    feasible = set(allowed)
    out = []
    used = set()
    for g in genes:
        g = int(g)
        if g not in feasible or g in used:
            remaining = [a for a in allowed if a not in used]
            g = int(rng.choice(np.array(remaining)))
        out.append(g)
        used.add(g)
    return tuple(out)


def ga_solve(problem: Problem, k: int, cfg: GaConfig,
             evaluator: Evaluator) -> ExpertRecord:
    """Elitism -> crossover -> mutation GA; exactly population*generations
    simulator calls (elites are re-scored every generation, matching the
    M = P0 * G sample accounting)."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    pop = [_random_placement(problem, k, rng) for _ in range(cfg.population)]
    best, best_score = None, -np.inf
    for _ in range(cfg.generations):
        scores = evaluator.evaluate_all([problem] * len(pop), pop)
        order = sorted(range(len(pop)), key=lambda i: (-scores[i], i))
        if scores[order[0]] > best_score:
            best, best_score = pop[order[0]], scores[order[0]]
        elites = [pop[i] for i in order[:cfg.elites]]
        children = []
        for _ in range(cfg.population - cfg.elites):
            pa = pop[int(rng.integers(len(pop)))]
            pb = pop[int(rng.integers(len(pop)))]
            child = crossover(pa, pb, rng)
            children.append(mutate_dedup(child, problem, rng))
        pop = elites + children
    return ExpertRecord(problem, best, best_score, cfg.budget, cfg.seed)


def build_expert_dataset(path, n_problems: int, k: int, ga_cfg: GaConfig,
                         evaluator: Evaluator, problem_seed: int,
                         n_rows: int, n_cols: int, keepout_max: int = 15,
                         exclude_hashes=(), problems=None) -> list:
    """GA-label n_problems disjoint problems and write them as JSONL. The
    header records keepout_max, the cap the problems were drawn with, and
    the preset name of evaluator's configuration (sim_preset)."""
    if n_problems < 1:
        raise ContractViolation("need at least one problem")
    if problems is None:
        from .env import gen_problem_set
        problems = gen_problem_set(problem_seed, n_problems, n_rows, n_cols,
                                   keepout_max, exclude_hashes)
    records = [ga_solve(prob, k, replace(ga_cfg, seed=ga_cfg.seed + i),
                        evaluator)
               for i, prob in enumerate(problems)]
    write_expert_dataset(path, records, k=k,
                         total_simulations=ga_cfg.budget * n_problems,
                         keepout_max=keepout_max,
                         sim=sim_preset(evaluator.config))
    return records


def write_expert_dataset(path, records, **meta) -> None:
    with open(path, "w") as fh:
        header = {"schema_version": DATASET_SCHEMA_VERSION,
                  "kind": "expert-dataset", **meta}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")


def read_expert_dataset(path) -> tuple:
    """Returns (records, header metadata). Every record's placement is
    feasible and the header's k ports long."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    docs = [json.loads(ln) for ln in lines]
    check_schema(docs, DATASET_SCHEMA, "expert dataset")
    header = docs[0]
    records = [ExpertRecord.from_dict(d) for d in docs[1:]]
    for i, rec in enumerate(records, 1):
        if len(rec.placement) != header["k"]:
            raise ContractViolation(
                f"expert dataset record {i} has {len(rec.placement)} ports, "
                f"not the header's k {header['k']}")
        validate_placement(rec.problem, rec.placement)
    return records, header
