"""Symmetry-exploiting training for the placement policy.

Two loss terms: teacher-forced imitation on a permutation-augmented expert
dataset, and a self-term that penalizes the probability gap between a
trajectory sampled from a frozen snapshot of the policy and a random
reordering of it. The self-term is exactly the order-bias metric under the
snapshot's own trajectory distribution; its raw magnitude is a product of
step probabilities, hence the very large weight (the paper-scale preset
stores lambda * 1e32 as a single number).

In train() the snapshot is a stop-gradient of the current parameters: one
training-mode encode of the self-term problems serves both branches, and no
copy of the parameters is taken. The snapshot's rollout reads the running
batch-norm statistics, so each step computes the self-term before the
imitation loss updates them.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, asdict, field

import numpy as np

from . import autodiff as ad
from . import pdn
from . import policy as pol
from .env import (Evaluator, Problem, gen_problem, gen_problem_set,
                  problem_space_size)
from .errors import ContractViolation, NumericFailure
from .search import ExpertRecord, GaConfig, ga_solve

TRAIN_LOG_COLUMNS = ("step", "train_nll", "self_loss", "val_J", "order_bias")


# --- action-order transformations ------------------------------------------

def ap_transform(placement, rng) -> tuple:
    """Uniformly random reordering of the action sequence (same port set)."""
    placement = tuple(placement)
    perm = rng.permutation(len(placement))
    return tuple(placement[i] for i in perm)


def augment(records, p: int, seed: int) -> list:
    """Each expert record plus p reordered copies; size len(records)*(p+1)."""
    if p < 0:
        raise ContractViolation("p must be >= 0")
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for rec in records:
        out.append(rec)
        for _ in range(p):
            out.append(ExpertRecord(rec.problem,
                                    ap_transform(rec.placement, rng),
                                    rec.score, rec.budget, rec.seed))
    return out


# --- losses -----------------------------------------------------------------

def expert_loss(batch, store: ad.ParamStore, cfg: pol.ModelConfig) -> ad.Tensor:
    """Mean teacher-forced negative log-likelihood of expert placements."""
    problems = [r.problem for r in batch]
    placements = [r.placement for r in batch]
    lps = pol.sequence_log_prob(problems, placements, store, cfg, training=True)
    return ad.scale(ad.mean(lps), -1.0)


def self_loss(problems, store: ad.ParamStore, frozen: ad.ParamStore | None,
              cfg: pol.ModelConfig, k: int, rng) -> ad.Tensor:
    """Mean |pi_frozen(a'|x) - pi_theta(t(a')|x)| over sampled trajectories.

    frozen is a snapshot of the parameters that receives no gradient;
    None means the current parameters under a stop-gradient. Then the
    problems are encoded once, with the tape, and the snapshot's branch is
    decoded from a constant copy of that encoding. Both sequence
    probabilities use training-mode batch statistics over the same
    problems, so with frozen == store and identity transforms the loss is
    exactly zero. The trajectories are sampled in eval mode, from the
    snapshot's running batch-norm statistics; with frozen None those are
    store's, so a training step must call this before its imitation loss
    updates them. The absolute gap is evaluated as
    e^c * |e^(l1-c) - e^(l2-c)| with c = max(l1, l2) to avoid underflow.
    Gradients flow only through store.
    """
    snapshot = store if frozen is None else frozen
    samples = pol.rollout_batch(problems, snapshot, cfg, "sample", k, rng)
    placements = [s[0] for s in samples]
    transformed = [ap_transform(pl, rng) for pl in placements]
    h = pol.encode(problems, store, cfg, training=True, update_running=False)
    if frozen is None:
        with ad.no_grad():
            l_frozen = pol.decode_log_prob(ad.Tensor(h.data), problems,
                                           placements, store, cfg).data
    else:
        l_frozen = pol.sequence_log_prob(problems, placements, frozen, cfg,
                                         training=True,
                                         update_running=False).data
    l_theta = pol.decode_log_prob(h, problems, transformed, store, cfg)
    c = np.maximum(l_frozen, l_theta.data)
    gap = ad.absolute(ad.Tensor(np.exp(l_frozen - c))
                      - ad.exp(l_theta + ad.Tensor(-c)))
    return ad.mean(ad.mul(ad.Tensor(np.exp(c)), gap))


def total_loss(batch, problems, store, frozen, cfg: pol.ModelConfig,
               k: int, lambda_eff: float, rng) -> tuple:
    """(loss tensor, expert component, self component).

    The self term is computed first: expert_loss updates store's running
    batch-norm statistics, and with frozen None the self term's rollout
    must read them as they stood at the start of the step.
    """
    l_self = self_loss(problems, store, frozen, cfg, k, rng) \
        if lambda_eff else None
    l_exp = expert_loss(batch, store, cfg)
    if l_self is None:
        return l_exp, float(l_exp.data), 0.0
    return (l_exp + ad.scale(l_self, lambda_eff),
            float(l_exp.data), float(l_self.data))


# --- optimizer ----------------------------------------------------------------

class Adam:
    def __init__(self, store: ad.ParamStore, lr: float,
                 betas=(0.9, 0.999), eps: float = 1e-8):
        self.store = store
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = {n: np.zeros_like(t.data) for n, t in store.params.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in store.params.items()}

    def step(self) -> None:
        """One update of every parameter that has a gradient. m, v and the
        parameters change in place, by the operations of the out-of-place
        form m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
        p -= lr*mhat / (sqrt(vhat) + eps) in the same order, so the
        results are bitwise equal to it."""
        self.t += 1
        c1 = 1 - self.b1 ** self.t
        c2 = 1 - self.b2 ** self.t
        for name, t in self.store.params.items():
            g = t.grad
            if g is None:
                continue
            m, v = self.m[name], self.v[name]
            m *= self.b1
            m += (1 - self.b1) * g
            v *= self.b2
            v += (1 - self.b2) * g * g
            update = m / c1
            update *= self.lr
            denom = v / c2
            np.sqrt(denom, out=denom)
            denom += self.eps
            update /= denom
            t.data -= update


# --- training configuration ---------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-5
    batch_size: int = 100
    permutations: int = 4          # reordered copies per expert label
    lambda_eff: float = 5e32       # weight on the self term (lambda * 1e32)
    k: int = 20
    val_size: int = 100
    max_steps: int = 2000
    val_interval: int = 50
    patience: int = 20             # validation rounds without improvement
    seed: int = 0
    n_rows: int = 10
    n_cols: int = 10
    keepout_max: int = 15
    self_batch: int | None = None  # defaults to batch_size

    def __post_init__(self):
        for name in ("batch_size", "k", "max_steps", "val_interval"):
            if getattr(self, name) < 1:
                raise ContractViolation(f"{name} must be >= 1")
        if self.self_batch is not None and self.self_batch < 1:
            raise ContractViolation("self_batch must be >= 1 when set")

    def to_dict(self) -> dict:
        return asdict(self)


def toy_train_config(**overrides) -> TrainConfig:
    base = dict(learning_rate=1e-3, batch_size=25, permutations=4,
                lambda_eff=1e3, k=4, val_size=20,
                max_steps=800, val_interval=100, patience=20,
                n_rows=5, n_cols=5, keepout_max=4, self_batch=16)
    base.update(overrides)
    return TrainConfig(**base)


# --- order bias ----------------------------------------------------------------

@dataclass(frozen=True)
class OrderBiasEstimate:
    value: float
    sample_width: int
    seed: int


def order_bias_estimate(policy, problems, s: int, seed: int,
                        k: int) -> OrderBiasEstimate:
    """Monte Carlo order bias: mean |pi(a|x) - pi(t(a)|x)| over s draws of
    (problem uniform, a ~ pi, t uniform). One triple per draw.

    The draws are made one at a time, in one rng order; the s reordered
    placements are then scored by one policy.placement_log_probs call, so
    the problems must share one board.
    """
    if s < 1:
        raise ContractViolation("sample width must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    drawn, lps, transformed = [], [], []
    for _ in range(s):
        prob = problems[int(rng.integers(len(problems)))]
        placement, lp = policy.sample_placement(prob, k, rng)
        drawn.append(prob)
        lps.append(lp)
        transformed.append(ap_transform(placement, rng))
    lps2 = policy.placement_log_probs(drawn, transformed)
    terms = [abs(math.exp(lp) - math.exp(lp2)) for lp, lp2 in zip(lps, lps2)]
    return OrderBiasEstimate(float(np.mean(terms)), s, seed)


class SequentialUniformPolicy:
    """Uniform over feasible ports at every step; exactly order-unbiased."""

    def sample_placement(self, problem: Problem, k: int, rng):
        lp = 0.0
        chosen = []
        for _ in range(k):
            feas = [a for a in problem.allowed_ports if a not in chosen]
            a = int(feas[int(rng.integers(len(feas)))])
            lp += math.log(1.0 / len(feas))
            chosen.append(a)
        return tuple(chosen), lp

    def placement_log_prob(self, problem: Problem, placement) -> float:
        m = len(problem.allowed_ports)
        if len(set(placement)) != len(placement):
            raise ContractViolation("placement must be distinct")
        return float(sum(math.log(1.0 / (m - t)) for t in range(len(placement))))

    def placement_log_probs(self, problems, placements) -> list:
        return [self.placement_log_prob(p, pl)
                for p, pl in zip(problems, placements)]


@dataclass(frozen=True)
class TheoremReport:
    order_bias: float
    is_symmetric: bool
    n_trajectories: int
    counterexample: tuple | None
    consistent: bool


def theorem_check(policy, problem: Problem, k: int,
                  trajectory_weights=None,
                  transform_weights=None) -> TheoremReport:
    """Exact order bias by full enumeration on a tiny board.

    Asserts the equivalence: bias is zero iff the policy assigns equal
    probability to every reordering of every trajectory. Weight
    distributions must be strictly positive.
    """
    feas = problem.allowed_ports
    if len(feas) > 6 or k > 3:
        raise ContractViolation("board too large for exhaustive check")
    trajectories = list(itertools.permutations(feas, k))
    transforms = list(itertools.permutations(range(k)))
    if trajectory_weights is None:
        trajectory_weights = [1.0 / len(trajectories)] * len(trajectories)
    if transform_weights is None:
        transform_weights = [1.0 / len(transforms)] * len(transforms)
    if len(trajectory_weights) != len(trajectories) or \
            len(transform_weights) != len(transforms):
        raise ContractViolation("weight vector length mismatch")
    if any(w <= 0 for w in trajectory_weights) or \
            any(w <= 0 for w in transform_weights):
        raise ContractViolation("theorem requires strictly positive distributions")

    probs = {a: math.exp(policy.placement_log_prob(problem, a))
             for a in trajectories}
    bias = 0.0
    counterexample = None
    symmetric = True
    for a, wa in zip(trajectories, trajectory_weights):
        for t, wt in zip(transforms, transform_weights):
            ta = tuple(a[i] for i in t)
            gap = abs(probs[a] - probs[ta])
            bias += wa * wt * gap
            if gap != 0.0 and counterexample is None:
                counterexample = (a, t)
                symmetric = False
    return TheoremReport(order_bias=bias, is_symmetric=symmetric,
                         n_trajectories=len(trajectories),
                         counterexample=counterexample,
                         consistent=(bias == 0.0) == symmetric)


# --- training loop ---------------------------------------------------------------

@dataclass
class TrainResult:
    store: ad.ParamStore
    log_rows: list = field(default_factory=list)
    best_val: float = -np.inf
    steps_run: int = 0
    final_store: ad.ParamStore | None = None  # parameters at the last step run


def _self_problem_stream(cfg: TrainConfig, excluded_hashes, rng):
    """Endless random problems outside excluded_hashes (repeats allowed).
    Raises ContractViolation once every possible problem was drawn and
    found excluded."""
    space = problem_space_size(cfg.n_rows, cfg.n_cols, cfg.keepout_max)
    rejected = set()
    while True:
        p = gen_problem(rng, cfg.n_rows, cfg.n_cols, cfg.keepout_max)
        h = p.canonical_hash()
        if h in excluded_hashes:
            rejected.add(h)
            if len(rejected) == space:
                raise ContractViolation(
                    "every self-term problem is excluded by validation")
            continue
        yield p


def train(records, tcfg: TrainConfig, mcfg: pol.ModelConfig,
          evaluator: Evaluator, val_problems, store=None,
          order_bias_samples: int = 32, diagnostics_path=None) -> TrainResult:
    """Mini-batch descent on the combined loss with greedy validation and
    early stopping on the best validation score. Deterministic per seed."""
    if not val_problems:
        raise ContractViolation("need validation problems")
    val_hashes = {p.canonical_hash() for p in val_problems}
    for rec in records:
        if rec.problem.canonical_hash() in val_hashes:
            raise ContractViolation("training and validation problems overlap")

    data = augment(records, tcfg.permutations, seed=tcfg.seed)
    if len(data) < tcfg.batch_size:
        raise ContractViolation(
            f"the augmented dataset has {len(data)} rows, fewer than the "
            f"batch size {tcfg.batch_size}")
    rng = np.random.Generator(np.random.PCG64(tcfg.seed + 1))
    stream = _self_problem_stream(tcfg, val_hashes, rng)
    if store is None:
        store = pol.init_params(mcfg)
    opt = Adam(store, tcfg.learning_rate)
    result = TrainResult(store=store)
    best_store = store.copy()
    rounds_since_best = 0
    order = []
    self_batch = tcfg.self_batch or tcfg.batch_size

    for step_i in range(1, tcfg.max_steps + 1):
        if len(order) < tcfg.batch_size:
            order = list(rng.permutation(len(data)))
        batch = [data[order.pop()] for _ in range(tcfg.batch_size)]
        problems = [next(stream) for _ in range(self_batch)] \
            if tcfg.lambda_eff else []
        loss, l_exp, l_self = total_loss(batch, problems, store, None,
                                         mcfg, tcfg.k, tcfg.lambda_eff, rng)
        if not np.isfinite(loss.data):
            state = {"step": step_i, "expert_loss": l_exp, "self_loss": l_self,
                     "train_config": tcfg.to_dict()}
            if diagnostics_path:
                with open(diagnostics_path, "w") as fh:
                    json.dump(state, fh, indent=2, sort_keys=True)
            raise NumericFailure(f"non-finite loss at step {step_i}: {state}")
        store.zero_grad()
        loss.backward()
        opt.step()
        result.steps_run = step_i

        if step_i % tcfg.val_interval == 0 or step_i == tcfg.max_steps:
            val_j = validate(store, mcfg, evaluator, val_problems, tcfg.k)
            bias = order_bias_estimate(pol.DevFormerPolicy(store, mcfg),
                                       val_problems, order_bias_samples,
                                       seed=tcfg.seed + 2, k=tcfg.k)
            result.log_rows.append({"step": step_i, "train_nll": l_exp,
                                    "self_loss": l_self, "val_J": val_j,
                                    "order_bias": bias.value})
            if val_j > result.best_val:
                result.best_val = val_j
                best_store = store.copy()
                rounds_since_best = 0
            else:
                rounds_since_best += 1
                if rounds_since_best >= tcfg.patience:
                    break

    result.final_store = store
    result.store = best_store
    return result


def validate(store, mcfg, evaluator: Evaluator, problems, k: int) -> float:
    """Mean objective of one greedy rollout per problem (single-shot)."""
    outs = pol.rollout_batch(list(problems), store, mcfg, "greedy", k)
    scores = [evaluator.evaluate(p, placement)
              for p, (placement, _) in zip(problems, outs)]
    return float(np.mean(scores))


def write_train_log(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRAIN_LOG_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[c]) for c in TRAIN_LOG_COLUMNS) + "\n")


def make_validation_problems(tcfg: TrainConfig, seed: int,
                             exclude_hashes=()) -> list:
    return gen_problem_set(seed, tcfg.val_size, tcfg.n_rows, tcfg.n_cols,
                           tcfg.keepout_max, exclude_hashes)


# --- directional experiment -------------------------------------------------------

# arm -> (toy train-config overrides, toy model-config overrides)
EXPERIMENT_ARMS = {
    "cse": ({}, {}),
    "il": ({"lambda_eff": 0.0}, {}),
    "ablated": ({}, {"use_ppe": False, "use_pcn": False, "use_rcn": False}),
}


def directional_experiment(seeds, arms) -> dict:
    """The symmetric-training (CSE) against imitation-only (IL) and full
    against ablated comparison on the 5x5 toy setup: 50 GA-labelled
    problems at K=4, 20 validation problems, and one toy-preset run of
    800 steps, early stopping off, per arm and seed (arms run in the
    given order within each seed).

    Returns {(arm, seed): {"best_val", "final_j", "bias"}}: the best
    validation J, the validation J of the final parameters (the last
    validation round, which train() runs after its last step) and their
    order bias over 512 draws.
    """
    arm_overrides = [(arm, EXPERIMENT_ARMS[arm]) for arm in arms]
    ev = Evaluator(pdn.chip_only_config(5, 5))
    probs = gen_problem_set(100, 50, 5, 5, 4)
    records = [ga_solve(p, 4, GaConfig(seed=i), ev)
               for i, p in enumerate(probs)]
    val = make_validation_problems(toy_train_config(), 999,
                                   {p.canonical_hash() for p in probs})
    runs = {}
    for seed in seeds:
        for arm, (train_overrides, model_overrides) in arm_overrides:
            tcfg = toy_train_config(seed=seed, patience=1000,
                                    **train_overrides)
            mcfg = pol.toy_config(init_seed=seed, **model_overrides)
            res = train(records, tcfg, mcfg, ev, val)
            policy = pol.DevFormerPolicy(res.final_store, mcfg)
            runs[(arm, seed)] = {
                "best_val": res.best_val,
                "final_j": res.log_rows[-1]["val_J"],
                "bias": order_bias_estimate(policy, val, 512, seed=42,
                                            k=tcfg.k).value}
    return runs
