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
batch-norm statistics as they stood at the start of the step. train()
holds OpenBLAS at one thread. It computes the self term first, or, for a
large enough self term and a spare evaluator thread, on two threads: the
two terms are then the branches of one autodiff.branch_sum node, and the
rollout reads a shallow copy of the statistics taken at the start of the
step. The calling thread runs the self term's training-mode encode, which
needs no sample, then the imitation forward; the worker samples the
rollout meanwhile, then decodes both self-term branches from the encoding
the caller handed over. Each branch's backward runs on the thread that
ran its forward decodes.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import Future
from dataclasses import dataclass, asdict, field

import numpy as np

from . import autodiff as ad
from . import pdn
from . import policy as pol
from .env import Evaluator, gen_problem, gen_problem_set, problem_space_size
from .errors import ContractViolation, NumericFailure
from .search import ExpertRecord, GaConfig, ga_solve

TRAIN_LOG_COLUMNS = ("step", "train_nll", "self_loss", "val_J", "order_bias")

# train() runs the self term beside the imitation term only when one
# encoder activation of the self term (self-batch x ports x d_model) has at
# least this many elements. Smaller steps are mostly interpreter work: at
# 12,800 (the toy preset on 5x5 boards, self-batch 16) the op_tail_ms of
# the toy-pipeline bench rose from 7.9 to 11.2 ms (medians of 8 pairs),
# and at 18,432 a step's p97 from 9.6 to 9.8 ms. At 25,088, 25,600 and
# 102,400 (train-k20) every step percentile measured fell: the p50 by
# 15-35% (2 CPUs, OpenBLAS at 1 thread). Below the gate the terms are
# computed in turn without a branch_sum node, whose leaf view adds about
# 60 collected objects per step: on the toy-pipeline step that was enough
# to cross the collector's first threshold every step (365 instead of 37
# first-generation and 3 instead of 0 full collections in 400 steps).
PARALLEL_MIN_SELF_ELEMENTS = 25_000


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


def _self_encode(problems, store: ad.ParamStore,
                 cfg: pol.ModelConfig) -> ad.Tensor:
    """The self term's training-mode encoding of its problems, with the
    tape; it leaves store's running statistics as they are."""
    return pol.encode(problems, store, cfg, training=True,
                      update_running=False)


def self_loss(problems, store: ad.ParamStore, frozen: ad.ParamStore | None,
              cfg: pol.ModelConfig, k: int, rng,
              encoding: Future | None = None) -> ad.Tensor:
    """Mean |pi_frozen(a'|x) - pi_theta(t(a')|x)| over sampled trajectories.

    frozen is a snapshot of the parameters that receives no gradient;
    None means the current parameters under a stop-gradient. Then the
    problems are encoded once, with the tape, and the snapshot's branch is
    decoded from a constant copy of that encoding. Both sequence
    probabilities use training-mode batch statistics over the same
    problems, so with frozen == store and identity transforms the loss is
    exactly zero. The trajectories are sampled in eval mode, from the
    snapshot's running batch-norm statistics; with frozen None those are
    store's, so a training step computes this before its imitation loss
    updates them, or on a view whose buffers are a copy taken at the start
    of the step (total_loss). The absolute gap is evaluated as
    e^c * |e^(l1-c) - e^(l2-c)| with c = max(l1, l2) to avoid underflow.
    Gradients flow only through store.

    encoding, when given, is a future of the training-mode encoding
    (_self_encode(problems, store, cfg)) that another thread computes
    while this one samples; its result is read after the rollout, and an
    exception set on it is raised here.
    """
    snapshot = store if frozen is None else frozen
    samples = pol.rollout_batch(problems, snapshot, cfg, "sample", k, rng)
    placements = [s[0] for s in samples]
    transformed = [ap_transform(pl, rng) for pl in placements]
    h = _self_encode(problems, store, cfg) if encoding is None \
        else encoding.result()
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
               k: int, lambda_eff: float, rng, run=None) -> tuple:
    """(loss tensor, expert component, self component).

    Without run, the terms are computed in turn, the self term first:
    expert_loss updates store's running batch-norm statistics, and with
    frozen None the self term's rollout must read them as they stood at
    the start of the step. With run(f, g), which may run g on another
    thread, the terms are the two branches of one ad.branch_sum node: the
    self term works on a leaf view of store whose buffers are a shallow
    copy of store.buffers taken here, so its rollout reads them as they
    stood at the start of the step (batch_norm replaces entries and never
    writes into them). The self term's training-mode encode needs no
    sample, so f runs it first and hands it over through a future, then
    runs the imitation forward; meanwhile g samples the rollout, then
    waits for the encoding and decodes both self-term branches. An
    exception in that encode is set on the future too, so g's wait ends.
    Both ways give bitwise the same loss and gradients. Only the self
    term draws from rng.
    """
    if not lambda_eff:
        l_exp = expert_loss(batch, store, cfg)
        return l_exp, float(l_exp.data), 0.0
    if run is None:
        l_self = self_loss(problems, store, frozen, cfg, k, rng)
        l_exp = expert_loss(batch, store, cfg)
        loss = l_exp + ad.scale(l_self, lambda_eff)
    else:
        snap = store.leaf_view(dict(store.buffers))
        encoding = Future()

        def imitation():
            try:
                encoding.set_result(_self_encode(problems, snap, cfg))
            except BaseException as exc:
                encoding.set_exception(exc)
                raise
            return expert_loss(batch, store, cfg)

        loss, l_exp, l_self = ad.branch_sum(
            store, imitation, snap,
            lambda: self_loss(problems, snap, frozen, cfg, k, rng, encoding),
            lambda_eff, run)
    return loss, float(l_exp.data), float(l_self.data)


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
    max_steps: int = 2000
    val_interval: int = 50
    patience: int = 20             # validation rounds without improvement
    seed: int = 0
    self_batch: int | None = None  # defaults to batch_size

    def __post_init__(self):
        for name in ("batch_size", "max_steps", "val_interval"):
            if getattr(self, name) < 1:
                raise ContractViolation(f"{name} must be >= 1")
        if self.self_batch is not None and self.self_batch < 1:
            raise ContractViolation("self_batch must be >= 1 when set")

    def to_dict(self) -> dict:
        return asdict(self)


def toy_train_config(**overrides) -> TrainConfig:
    base = dict(learning_rate=1e-3, batch_size=25, permutations=4,
                lambda_eff=1e3, max_steps=800, val_interval=100,
                patience=20, self_batch=16)
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


# --- training loop ---------------------------------------------------------------

@dataclass
class TrainResult:
    store: ad.ParamStore
    log_rows: list = field(default_factory=list)
    best_val: float = -np.inf
    steps_run: int = 0
    final_store: ad.ParamStore | None = None  # parameters at the last step run
    blas_threads: int | None = None  # OpenBLAS count held; None: not found


def _self_problem_stream(board, keepout_max: int, excluded_hashes, rng):
    """Endless random problems on board (rows, cols) outside
    excluded_hashes (repeats allowed). Raises ContractViolation once every
    possible problem was drawn and found excluded."""
    n_rows, n_cols = board
    space = problem_space_size(n_rows, n_cols, keepout_max)
    rejected = set()
    while True:
        p = gen_problem(rng, n_rows, n_cols, keepout_max)
        h = p.canonical_hash()
        if h in excluded_hashes:
            rejected.add(h)
            if len(rejected) == space:
                raise ContractViolation(
                    "every self-term problem is excluded by validation")
            continue
        yield p


def _fail(diagnostics_path, tcfg: TrainConfig, step: int, message: str,
          **values):
    """Raise NumericFailure for a training step, first writing the step,
    the message, values and the train config to diagnostics_path, when
    one is given."""
    state = {"step": step, "message": message, **values,
             "train_config": tcfg.to_dict()}
    if diagnostics_path:
        with open(diagnostics_path, "w") as fh:
            json.dump(state, fh, indent=2, sort_keys=True)
    raise NumericFailure(f"{message} at step {step}: {state}")


def train(records, tcfg: TrainConfig, mcfg: pol.ModelConfig,
          evaluator: Evaluator, val_problems, *, keepout_max: int,
          store=None, order_bias_samples: int = 32,
          diagnostics_path=None) -> TrainResult:
    """Mini-batch descent on the combined loss with greedy validation and
    early stopping on the best validation score. Deterministic per seed.
    The records fix the board and K, the length of their placements, which
    the self term, validation and the order bias decode. The self-term
    problems are drawn on that board with up to keepout_max keep-outs, the
    cap the records were drawn with.

    Every loaded OpenBLAS runs at one thread until train returns or
    raises, and then gets its old count back; result.blas_threads records
    1, or None where no OpenBLAS symbol is found. With the count pinned,
    a spare evaluator thread and a self term of at least
    PARALLEL_MIN_SELF_ELEMENTS, each step runs on two threads through
    evaluator.run_beside (total_loss); the results do not depend on
    evaluator.threads. A NumericFailure in a step or in a
    validation round, or a non-finite loss, writes diagnostics_path
    (_fail) and raises."""
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
    shapes = {(r.problem.n_rows, r.problem.n_cols, len(r.placement))
              for r in records}
    if len(shapes) != 1:
        raise ContractViolation("expert records must share one board size "
                                "and one placement length")
    n_rows, n_cols, k = shapes.pop()
    if not 0 <= keepout_max < n_rows * n_cols - 1:
        raise ContractViolation(
            f"keepout_max {keepout_max} does not fit the {n_rows}x{n_cols} "
            f"board")
    rng = np.random.Generator(np.random.PCG64(tcfg.seed + 1))
    stream = _self_problem_stream((n_rows, n_cols), keepout_max, val_hashes,
                                  rng)
    if store is None:
        store = pol.init_params(mcfg)
    opt = Adam(store, tcfg.learning_rate)
    result = TrainResult(store=store)
    best_store = store.copy()
    rounds_since_best = 0
    order = []
    self_batch = tcfg.self_batch or tcfg.batch_size
    beside = self_batch * n_rows * n_cols * mcfg.d_model >= \
        PARALLEL_MIN_SELF_ELEMENTS

    # One BLAS thread: the self branch's worker is the second CPU, and
    # results then do not depend on the environment's count.
    with ad.blas_threads(1) as found:
        run = evaluator.run_beside \
            if found and beside and evaluator.threads > 1 else None
        result.blas_threads = 1 if found else None
        for step_i in range(1, tcfg.max_steps + 1):
            if len(order) < tcfg.batch_size:
                order = list(rng.permutation(len(data)))
            batch = [data[order.pop()] for _ in range(tcfg.batch_size)]
            problems = [next(stream) for _ in range(self_batch)] \
                if tcfg.lambda_eff else []
            try:
                loss, l_exp, l_self = total_loss(batch, problems, store,
                                                 None, mcfg, k,
                                                 tcfg.lambda_eff, rng, run)
            except NumericFailure as exc:
                _fail(diagnostics_path, tcfg, step_i, str(exc))
            if not np.isfinite(loss.data):
                _fail(diagnostics_path, tcfg, step_i, "non-finite loss",
                      expert_loss=l_exp, self_loss=l_self)
            store.zero_grad()
            loss.backward()
            opt.step()
            result.steps_run = step_i

            if step_i % tcfg.val_interval == 0 or step_i == tcfg.max_steps:
                try:
                    val_j = validate(store, mcfg, evaluator, val_problems, k)
                    bias = order_bias_estimate(
                        pol.DevFormerPolicy(store, mcfg), val_problems,
                        order_bias_samples, seed=tcfg.seed + 2, k=k)
                except NumericFailure as exc:
                    _fail(diagnostics_path, tcfg, step_i, str(exc))
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
    """Mean objective of one greedy rollout per problem (single-shot),
    scored as one evaluator.evaluate_all batch."""
    problems = list(problems)
    outs = pol.rollout_batch(problems, store, mcfg, "greedy", k)
    return float(np.mean(evaluator.evaluate_all(
        problems, [placement for placement, _ in outs])))


def write_train_log(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRAIN_LOG_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[c]) for c in TRAIN_LOG_COLUMNS) + "\n")


# --- directional experiment -------------------------------------------------------

# arm -> (toy train-config overrides, toy model-config overrides)
EXPERIMENT_ARMS = {
    "cse": ({}, {}),
    "il": ({"lambda_eff": 0.0}, {}),
    "ablated": ({}, {"ablated": True}),
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
    k = 4
    ev = Evaluator(pdn.chip_only_config(5, 5))
    probs = gen_problem_set(100, 50, 5, 5, 4)
    records = [ga_solve(p, k, GaConfig(seed=i), ev)
               for i, p in enumerate(probs)]
    val = gen_problem_set(999, 20, 5, 5, 4,
                          {p.canonical_hash() for p in probs})
    runs = {}
    for seed in seeds:
        for arm, (train_overrides, model_overrides) in arm_overrides:
            tcfg = toy_train_config(seed=seed, patience=1000,
                                    **train_overrides)
            mcfg = pol.toy_config(init_seed=seed, **model_overrides)
            res = train(records, tcfg, mcfg, ev, val, keepout_max=4)
            policy = pol.DevFormerPolicy(res.final_store, mcfg)
            runs[(arm, seed)] = {
                "best_val": res.best_val,
                "final_j": res.log_rows[-1]["val_J"],
                "bias": order_bias_estimate(policy, val, 512, seed=42,
                                            k=k).value}
    return runs
