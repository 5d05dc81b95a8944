"""Attention-based sequential placement policy.

Encoder: per-port linear node embedding plus a probe-relative positional
embedding, followed by L blocks of multi-head attention and feed-forward,
each added to its input and batch-normalized. Decoder: a context
query built from the probe embedding and the previously selected port's
embedding, one attention layer, and pointer-style per-port logits, so the
same checkpoint runs on any board size and any placement length.

All decoding goes through one core, decode(), which maps T previous ports
and T masks to T rows of log-probabilities, building the T queries itself.
The glimpse keys/values, the pointer keys and the step-invariant query
part depend only on the encoding, so decoder_cache() computes them once
per encode. Feasibility comes only from Problem.allowed_mask. Under
teacher forcing every step's previous port is known up front, so
decode_log_prob() decodes all K steps from a given encoding in one pass
(sequence_log_prob() encodes, then calls it); rollouts call the same two
functions one step at a time.

ModelConfig.float32 (the paper preset) runs the forward and backward
passes in float32. The parameters stay float64 masters: a forward reads
them through _params(), which casts each one once, and the cast hands its
gradient back in float64. The pointer logits are cast to float64 before
the log-softmax, so log-probabilities and their sums are float64.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .env import Problem, board_xy, encode_features
from .errors import ContractViolation, NumericFailure, check_schema


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 3
    d_model: int = 128
    ff_dim: int = 512
    n_heads: int = 8
    ablated: bool = False  # no PPE, PCN or RCN: the architecture ablation
    init_seed: int = 0
    float32: bool = True   # compute in float32 on float64 master parameters

    def __post_init__(self):
        if min(self.d_model, self.ff_dim, self.n_heads) < 1:
            raise ContractViolation("d_model, ff_dim and n_heads must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ContractViolation("n_heads must divide d_model")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        check_schema(d, MODEL_CONFIG_SCHEMA, "model config")
        # the schema admits floats only as integral values of int fields
        return ModelConfig(**{k: int(v) if isinstance(v, float) else v
                              for k, v in d.items()})


_FIELD_SCHEMAS = {"int": {"type": "integer", "minimum": 0},
                  "bool": {"type": "boolean"}}

# The model config as a checkpoint header stores it (ModelConfig.to_dict).
MODEL_CONFIG_SCHEMA = {
    "type": "object",
    "properties": {f.name: _FIELD_SCHEMAS[f.type]
                   for f in fields(ModelConfig)},
    "required": [f.name for f in fields(ModelConfig)],
    "additionalProperties": False,
}


def toy_config(**overrides) -> ModelConfig:
    base = dict(n_layers=1, d_model=32, ff_dim=64, n_heads=4, init_seed=0,
                float32=False)
    base.update(overrides)
    return ModelConfig(**base)


def ppe_features(problem: Problem) -> np.ndarray:
    """(n_ports, 1) distance of each port to the probe, in normalized
    coordinates."""
    xy = board_xy(problem.n_rows, problem.n_cols)
    delta = xy - xy[problem.probe]
    return np.sqrt((delta ** 2).sum(axis=1, keepdims=True))


def init_params(cfg: ModelConfig) -> ad.ParamStore:
    rng = np.random.Generator(np.random.PCG64(cfg.init_seed))
    store = ad.ParamStore()
    d, ff = cfg.d_model, cfg.ff_dim

    def lin(name, fan_in, fan_out, bias=True):
        store.add(name + ".w", ad.xavier_uniform(rng, fan_in, fan_out))
        if bias:
            store.add(name + ".b", np.zeros(fan_out))

    # One bias per sum: node.b serves node + ppe, ctx.b serves pcn2 + rcn2
    # (ctx's only input), and bn2 centres ff2.
    lin("node", 5, d)
    if not cfg.ablated:
        lin("ppe", 1, d, bias=False)
    for layer in range(cfg.n_layers):
        pre = f"enc{layer}"
        for name in ("wq", "wk", "wv", "wo"):
            store.add(f"{pre}.{name}", ad.xavier_uniform(rng, d, d))
        lin(f"{pre}.ff1", d, ff)
        lin(f"{pre}.ff2", ff, d, bias=False)
        for bn in ("bn1", "bn2"):
            store.add(f"{pre}.{bn}.gamma", np.ones(d))
            store.add(f"{pre}.{bn}.beta", np.zeros(d))
            store.add_buffer(f"{pre}.{bn}.mean", np.zeros(d))
            store.add_buffer(f"{pre}.{bn}.var", np.ones(d))
    if not cfg.ablated:
        for net in ("pcn", "rcn"):
            lin(net + "1", d, d)
            lin(net + "2", d, d, bias=False)
        store.add("start", ad.xavier_uniform(rng, 1, d, shape=(d,)))
    lin("ctx", d, d)
    for name in ("wq", "wk", "wv", "wo"):
        store.add(f"dec.{name}", ad.xavier_uniform(rng, d, d))
    store.add("dec.key", ad.xavier_uniform(rng, d, d))
    return store


class _Float32Params:
    """One forward's float32 reading of a ParamStore. Each parameter is
    cast on first use, once; the buffers are the store's own."""

    def __init__(self, store: ad.ParamStore):
        self.store, self.buffers, self._cast = store, store.buffers, {}

    def __getitem__(self, name: str) -> ad.Tensor:
        t = self._cast.get(name)
        if t is None:
            t = self._cast[name] = ad.cast(self.store[name], np.float32)
        return t


def _params(store, cfg: ModelConfig):
    """The parameters a forward computes with: store itself in float64,
    else a float32 view of it (a view is passed through unchanged)."""
    if not cfg.float32 or isinstance(store, _Float32Params):
        return store
    return _Float32Params(store)


def _inputs(arrays, cfg: ModelConfig) -> ad.Tensor:
    return ad.Tensor(np.stack(arrays).astype(
        np.float32 if cfg.float32 else np.float64, copy=False))


def encode(problems, store: ad.ParamStore, cfg: ModelConfig,
           training: bool = False, update_running: bool = True) -> ad.Tensor:
    """Per-port embeddings, shape (B, N, d). Problems must share a board."""
    if len({(p.n_rows, p.n_cols) for p in problems}) != 1:
        raise ContractViolation("batch must share one board size")
    store = _params(store, cfg)
    feats = _inputs([encode_features(p) for p in problems], cfg)
    h = ad.linear(feats, store["node.w"], store["node.b"])
    if not cfg.ablated:
        ppe = _inputs([ppe_features(p) for p in problems], cfg)
        h = h + ad.linear(ppe, store["ppe.w"])
    for layer in range(cfg.n_layers):
        pre = f"enc{layer}"
        a = ad.mha(h, h, h, store[f"{pre}.wq"], store[f"{pre}.wk"],
                   store[f"{pre}.wv"], store[f"{pre}.wo"], cfg.n_heads)
        h = ad.batch_norm(h + a,
                          store[f"{pre}.bn1.gamma"], store[f"{pre}.bn1.beta"],
                          store.buffers, f"{pre}.bn1", training,
                          update_running=update_running)
        h = ad.batch_norm(h + _mlp(h, store, f"{pre}.ff"),
                          store[f"{pre}.bn2.gamma"], store[f"{pre}.bn2.beta"],
                          store.buffers, f"{pre}.bn2", training,
                          update_running=update_running)
    return h


def _mlp(x, store, net):
    """Feed-forward block net: net1 with its bias, ReLU, net2 without."""
    return ad.feed_forward(x, store[net + "1.w"], store[net + "1.b"],
                           store[net + "2.w"])


START = -1  # prev-port index of the first step: the table's start row


@dataclass(frozen=True)
class DecoderCache:
    """Decoder work that depends only on the encoding, done once per encode."""
    kh: ad.Tensor             # (B, heads, N, dh) glimpse keys
    vh: ad.Tensor             # (B, heads, N, dh) glimpse values
    keys: ad.Tensor           # (B, d, N) pointer keys, transposed
    fixed: ad.Tensor          # (B, 1, d) step-invariant part of the query
    table: ad.Tensor | None   # (B, N + 1, d) RCN inputs: ports, then start;
                              # None in the ablated model


def decoder_cache(h: ad.Tensor, problems, store: ad.ParamStore,
                  cfg: ModelConfig) -> DecoderCache:
    """Project the encoding h of problems once for every decode step.

    The step-invariant query part is the PCN of the probe embedding, and
    the table feeds the RCN of the previous port; the ablated model has
    neither network, and its query is the mean port embedding alone.
    """
    bsz, _, d = h.shape
    store = _params(store, cfg)
    if cfg.ablated:
        fixed, table = ad.mean(h, axis=1, keepdims=True), None
    else:
        probes = np.array([[p.probe] for p in problems])
        fixed = _mlp(ad.take_rows(h, probes), store, "pcn")
        start = ad.broadcast_to(ad.reshape(store["start"], (1, 1, d)),
                                (bsz, 1, d))
        table = ad.concat([h, start], axis=1)
    return DecoderCache(
        kh=ad.split_heads(h, store["dec.wk"], cfg.n_heads),
        vh=ad.split_heads(h, store["dec.wv"], cfg.n_heads),
        keys=ad.transpose(ad.linear(h, store["dec.key"]), (0, 2, 1)),
        fixed=fixed, table=table)


def decode(cache: DecoderCache, prev_ports: np.ndarray, masks: np.ndarray,
           store: ad.ParamStore, cfg: ModelConfig) -> ad.Tensor:
    """Per-port log-probabilities (B, T, N) for T steps. prev_ports (B, T)
    holds the port chosen before each step (START before the first) and
    masks (B, T, N) the ports feasible at each step. The glimpse attends to
    every port; masked ports carry NEG_INF in the output (their probability
    is exactly zero)."""
    if not masks.any(axis=-1).all():
        raise ContractViolation("no feasible port left")
    bsz, t = prev_ports.shape
    store = _params(store, cfg)
    query = cache.fixed
    if cache.table is not None:
        r = _mlp(ad.take_rows(cache.table, prev_ports), store, "rcn")
        query = query + r
    q = ad.linear(query, store["ctx.w"], store["ctx.b"])
    if q.shape[1] != t:
        q = ad.broadcast_to(q, (bsz, t, cfg.d_model))
    qh = ad.split_heads(q, store["dec.wq"], cfg.n_heads)
    glimpse = ad.attend(qh, cache.kh, cache.vh, store["dec.wo"])
    logits = ad.scale(ad.matmul(glimpse, cache.keys),
                      1.0 / np.sqrt(cfg.d_model))
    if cfg.float32:
        logits = ad.cast(logits, np.float64)
    return ad.masked_log_softmax(logits, masks)


def sequence_log_prob(problems, placements, store: ad.ParamStore,
                      cfg: ModelConfig, training: bool = False,
                      update_running: bool = True) -> ad.Tensor:
    """Teacher-forced log pi(a|x) per batch item, shape (B,)."""
    store = _params(store, cfg)
    h = encode(problems, store, cfg, training, update_running)
    return decode_log_prob(h, problems, placements, store, cfg)


def decode_log_prob(h: ad.Tensor, problems, placements,
                    store: ad.ParamStore, cfg: ModelConfig) -> ad.Tensor:
    """Teacher-forced log pi(a|x) per batch item, shape (B,), decoded from
    the problems' encoding h.

    Every step's query depends only on the probe and the previous expert
    action, so all K steps are decoded in one pass.
    """
    placements = [tuple(int(a) for a in pl) for pl in placements]
    ks = {len(pl) for pl in placements}
    if len(ks) != 1:
        raise ContractViolation("batch placements must share one length")
    k = ks.pop()
    if k == 0:
        raise ContractViolation("placements must not be empty")
    actions = np.array(placements, dtype=np.int64)
    bsz = len(problems)
    rows = np.arange(bsz)
    masks = np.repeat(np.stack([p.allowed_mask for p in problems])[:, None],
                      k, axis=1)
    for t in range(k):
        if not masks[rows, t, actions[:, t]].all():
            raise ContractViolation("placement contains an infeasible step")
        masks[rows, t + 1:, actions[:, t]] = False
    prev_ports = np.concatenate(
        [np.full((bsz, 1), START), actions[:, :-1]], axis=1)
    store = _params(store, cfg)
    logp = decode(decoder_cache(h, problems, store, cfg), prev_ports, masks,
                  store, cfg)
    n = logp.shape[2]
    picked = ad.take_rows(ad.reshape(logp, (bsz * k, n)), actions.reshape(-1))
    return ad.tensor_sum(ad.reshape(picked, (bsz, k)), axis=1)


def _sample_actions(probs: np.ndarray, feasible: np.ndarray,
                    rng) -> np.ndarray:
    """One port per row of probs (B, N), drawn as a loop of
    rng.choice(N, p=row / row.sum()) over the rows would draw them: one
    uniform per row, from one rng.random(B) call, and the first port
    whose cdf, normalised by its last entry, exceeds it. Raises
    NumericFailure on a non-finite cdf, before drawing, and on a draw
    that lands on a port that feasible (B, N) excludes."""
    p = probs / probs.sum(axis=1, keepdims=True)
    cdf = np.cumsum(p, axis=1)
    cdf /= cdf[:, -1:]
    if not np.isfinite(cdf).all():
        raise NumericFailure("non-finite cdf of action probabilities")
    u = rng.random(len(probs))
    actions = (cdf <= u[:, None]).sum(axis=1)
    if not feasible[np.arange(len(actions)), actions].all():
        raise NumericFailure("an action was drawn on an infeasible port")
    return actions


def rollout_batch(problems, store: ad.ParamStore, cfg: ModelConfig,
                  mode: str, k: int, rng=None):
    """Autoregressive decode for a batch; returns [(placement, logp), ...].

    Each step is a one-step decode() over the same DecoderCache. Greedy
    mode breaks ties toward the lowest port index. Sample mode draws one
    uniform from rng per row and step, the same stream and the same ports
    as Generator.choice row by row (_sample_actions). Both modes raise
    NumericFailure at a step whose probabilities are not finite.
    """
    if mode not in ("greedy", "sample"):
        raise ContractViolation("mode must be 'greedy' or 'sample'")
    if mode == "sample" and rng is None:
        raise ContractViolation("sampling requires an rng")
    if any(len(p.allowed_ports) < k for p in problems):
        raise ContractViolation("fewer feasible ports than K")
    bsz = len(problems)
    rows = np.arange(bsz)
    with ad.no_grad():
        store = _params(store, cfg)
        h = encode(problems, store, cfg, training=False)
        cache = decoder_cache(h, problems, store, cfg)
        mask = np.stack([p.allowed_mask for p in problems])
        prev = np.full((bsz, 1), START)
        chosen = np.empty((bsz, k), dtype=np.int64)
        logps = np.zeros(bsz)
        for t in range(k):
            logp = decode(cache, prev, mask[:, None], store, cfg).data[:, 0]
            probs = np.exp(logp)
            if not np.isfinite(probs).all():
                raise NumericFailure(
                    f"non-finite action probabilities (decode step "
                    f"{t + 1} of {k})")
            if mode == "greedy":
                actions = np.argmax(probs, axis=1)
            else:
                actions = _sample_actions(probs, mask, rng)
            logps += logp[rows, actions]
            chosen[:, t] = actions
            mask[rows, actions] = False
            prev = actions[:, None]
    return [(tuple(int(a) for a in c), float(lp))
            for c, lp in zip(chosen, logps)]


class DevFormerPolicy:
    """The single-problem inference adapter: sampling, greedy decoding and
    exact sequence probabilities, none of which records a tape."""

    def __init__(self, store: ad.ParamStore, cfg: ModelConfig):
        self.store = store
        self.cfg = cfg

    def sample_placement(self, problem: Problem, k: int, rng):
        return rollout_batch([problem], self.store, self.cfg, "sample", k, rng)[0]

    def greedy_placement(self, problem: Problem, k: int):
        return rollout_batch([problem], self.store, self.cfg, "greedy", k)[0]

    def placement_log_prob(self, problem: Problem, placement) -> float:
        return float(self.placement_log_probs([problem], [placement])[0])

    def placement_log_probs(self, problems, placements) -> np.ndarray:
        """Log-probabilities of many placements in one batched pass:
        problems share one board, placements one length. Eval-mode batch
        norm keeps the rows independent."""
        with ad.no_grad():
            return sequence_log_prob(problems, placements, self.store,
                                     self.cfg).data


def save_policy(path, store: ad.ParamStore, cfg: ModelConfig, meta=None):
    ad.save_checkpoint(path, store, cfg.to_dict(), meta)


def _shapes(store: ad.ParamStore) -> dict:
    return {**{f"parameter {n}": t.shape for n, t in store.params.items()},
            **{f"buffer {n}": b.shape for n, b in store.buffers.items()}}


def load_policy(path):
    """Returns (DevFormerPolicy, meta). Refuses tampered config hashes and
    parameters or buffers other than those the config's model has, naming
    the first that differs."""
    store, cfg_dict, meta = ad.load_checkpoint(path)
    cfg = ModelConfig.from_dict(cfg_dict)
    have, want = _shapes(store), _shapes(init_params(cfg))
    for name in [*have, *want]:
        if have.get(name) != want.get(name):
            raise ContractViolation(
                "checkpoint does not match its model config: " + (
                    f"unexpected {name}" if name not in want else
                    f"missing {name}" if name not in have else
                    f"{name} has shape {have[name]}, the model's "
                    f"{want[name]}"))
    return DevFormerPolicy(store, cfg), meta
