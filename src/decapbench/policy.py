"""Attention-based sequential placement policy.

Encoder: per-port linear node embedding plus a probe-relative positional
embedding, followed by L blocks of multi-head attention and feed-forward,
each batch-normalized (residual additions optional). Decoder: a context
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
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .env import Problem, board_xy, encode_features
from .errors import ContractViolation, check_schema


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 3
    d_model: int = 128
    ff_dim: int = 512
    n_heads: int = 8
    ppe_mode: str = "norm"  # "norm" or "delta-and-norm"
    use_ppe: bool = True
    use_pcn: bool = True
    use_rcn: bool = True
    residual: bool = True
    init_seed: int = 0

    def __post_init__(self):
        if min(self.d_model, self.ff_dim, self.n_heads) < 1:
            raise ContractViolation("d_model, ff_dim and n_heads must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ContractViolation("n_heads must divide d_model")
        if self.ppe_mode not in ("norm", "delta-and-norm"):
            raise ContractViolation("unknown ppe_mode")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        check_schema(d, MODEL_CONFIG_SCHEMA, "model config")
        # the schema admits floats only as integral values of int fields
        return ModelConfig(**{k: int(v) if isinstance(v, float) else v
                              for k, v in d.items()})


_FIELD_SCHEMAS = {"int": {"type": "integer", "minimum": 0},
                  "bool": {"type": "boolean"}, "str": {"type": "string"}}

# The model config as a checkpoint header stores it (ModelConfig.to_dict).
MODEL_CONFIG_SCHEMA = {
    "type": "object",
    "properties": {f.name: _FIELD_SCHEMAS[f.type]
                   for f in fields(ModelConfig)},
    "required": [f.name for f in fields(ModelConfig)],
    "additionalProperties": False,
}


def toy_config(**overrides) -> ModelConfig:
    base = dict(n_layers=1, d_model=32, ff_dim=64, n_heads=4, init_seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def ppe_features(problem: Problem, mode: str = "norm") -> np.ndarray:
    """Per-port position relative to the probe, in normalized coordinates."""
    xy = board_xy(problem.n_rows, problem.n_cols)
    delta = xy - xy[problem.probe]
    norm = np.sqrt((delta ** 2).sum(axis=1, keepdims=True))
    if mode == "norm":
        return norm
    return np.concatenate([delta, norm], axis=1)


def init_params(cfg: ModelConfig) -> ad.ParamStore:
    rng = np.random.Generator(np.random.PCG64(cfg.init_seed))
    store = ad.ParamStore()
    d, ff = cfg.d_model, cfg.ff_dim

    def lin(name, fan_in, fan_out, bias=True):
        store.add(name + ".w", ad.xavier_uniform(rng, fan_in, fan_out))
        if bias:
            store.add(name + ".b", np.zeros(fan_out))

    lin("node", 5, d)
    if cfg.use_ppe:
        lin("ppe", 1 if cfg.ppe_mode == "norm" else 3, d)
    for layer in range(cfg.n_layers):
        pre = f"enc{layer}"
        for name in ("wq", "wk", "wv", "wo"):
            store.add(f"{pre}.{name}", ad.xavier_uniform(rng, d, d))
        lin(f"{pre}.ff1", d, ff)
        lin(f"{pre}.ff2", ff, d)
        for bn in ("bn1", "bn2"):
            store.add(f"{pre}.{bn}.gamma", np.ones(d))
            store.add(f"{pre}.{bn}.beta", np.zeros(d))
            store.add_buffer(f"{pre}.{bn}.mean", np.zeros(d))
            store.add_buffer(f"{pre}.{bn}.var", np.ones(d))
    if cfg.use_pcn:
        lin("pcn1", d, d)
        lin("pcn2", d, d)
    if cfg.use_rcn:
        lin("rcn1", d, d)
        lin("rcn2", d, d)
        store.add("start", ad.xavier_uniform(rng, 1, d, shape=(d,)))
    lin("ctx", d, d)
    for name in ("wq", "wk", "wv", "wo"):
        store.add(f"dec.{name}", ad.xavier_uniform(rng, d, d))
    store.add("dec.key", ad.xavier_uniform(rng, d, d))
    return store


def _batch_inputs(problems, cfg: ModelConfig):
    feats = np.stack([encode_features(p) for p in problems])
    ppe = np.stack([ppe_features(p, cfg.ppe_mode) for p in problems])
    return feats, ppe


def encode(problems, store: ad.ParamStore, cfg: ModelConfig,
           training: bool = False, update_running: bool = True) -> ad.Tensor:
    """Per-port embeddings, shape (B, N, d). Problems must share a board."""
    if len({(p.n_rows, p.n_cols) for p in problems}) != 1:
        raise ContractViolation("batch must share one board size")
    feats, ppe = _batch_inputs(problems, cfg)
    h = ad.linear(ad.Tensor(feats), store["node.w"], store["node.b"])
    if cfg.use_ppe:
        h = h + ad.linear(ad.Tensor(ppe), store["ppe.w"], store["ppe.b"])
    for layer in range(cfg.n_layers):
        pre = f"enc{layer}"
        a = ad.mha(h, h, h, store[f"{pre}.wq"], store[f"{pre}.wk"],
                   store[f"{pre}.wv"], store[f"{pre}.wo"], cfg.n_heads)
        h = ad.batch_norm(h + a if cfg.residual else a,
                          store[f"{pre}.bn1.gamma"], store[f"{pre}.bn1.beta"],
                          store.buffers, f"{pre}.bn1", training,
                          update_running=update_running)
        f = _mlp(h, store, f"{pre}.ff1", f"{pre}.ff2")
        h = ad.batch_norm(h + f if cfg.residual else f,
                          store[f"{pre}.bn2.gamma"], store[f"{pre}.bn2.beta"],
                          store.buffers, f"{pre}.bn2", training,
                          update_running=update_running)
    return h


def _mlp(x, store, p1, p2):
    return ad.feed_forward(x, store[p1 + ".w"], store[p1 + ".b"],
                           store[p2 + ".w"], store[p2 + ".b"])


START = -1  # prev-port index of the first step: the table's start row


@dataclass(frozen=True)
class DecoderCache:
    """Decoder work that depends only on the encoding, done once per encode."""
    kh: ad.Tensor             # (B, heads, N, dh) glimpse keys
    vh: ad.Tensor             # (B, heads, N, dh) glimpse values
    keys: ad.Tensor           # (B, d, N) pointer keys, transposed
    fixed: ad.Tensor | None   # (B, 1, d) step-invariant part of the query
    table: ad.Tensor | None   # (B, N + 1, d) RCN inputs: ports, then start


def decoder_cache(h: ad.Tensor, problems, store: ad.ParamStore,
                  cfg: ModelConfig) -> DecoderCache:
    """Project the encoding h of problems once for every decode step.

    The step-invariant query part is the PCN of the probe embedding; it is
    None when only the RCN is on, and the mean port embedding when both
    context networks are off.
    """
    bsz, _, d = h.shape
    fixed = table = None
    if cfg.use_pcn:
        probes = np.array([[p.probe] for p in problems])
        fixed = _mlp(ad.take_rows(h, probes), store, "pcn1", "pcn2")
    elif not cfg.use_rcn:
        fixed = ad.mean(h, axis=1, keepdims=True)
    if cfg.use_rcn:
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
    query = cache.fixed
    if cfg.use_rcn:
        r = _mlp(ad.take_rows(cache.table, prev_ports), store, "rcn1", "rcn2")
        query = r if query is None else query + r
    q = ad.linear(query, store["ctx.w"], store["ctx.b"])
    if q.shape[1] != t:
        q = ad.broadcast_to(q, (bsz, t, cfg.d_model))
    qh = ad.split_heads(q, store["dec.wq"], cfg.n_heads)
    glimpse = ad.attend(qh, cache.kh, cache.vh, store["dec.wo"])
    logits = ad.scale(ad.matmul(glimpse, cache.keys),
                      1.0 / np.sqrt(cfg.d_model))
    return ad.masked_log_softmax(logits, masks)


def sequence_log_prob(problems, placements, store: ad.ParamStore,
                      cfg: ModelConfig, training: bool = False,
                      update_running: bool = True) -> ad.Tensor:
    """Teacher-forced log pi(a|x) per batch item, shape (B,)."""
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
    logp = decode(decoder_cache(h, problems, store, cfg), prev_ports, masks,
                  store, cfg)
    n = logp.shape[2]
    picked = ad.take_rows(ad.reshape(logp, (bsz * k, n)), actions.reshape(-1))
    return ad.tensor_sum(ad.reshape(picked, (bsz, k)), axis=1)


def rollout_batch(problems, store: ad.ParamStore, cfg: ModelConfig,
                  mode: str, k: int, rng=None):
    """Autoregressive decode for a batch; returns [(placement, logp), ...].

    Each step is a one-step decode() over the same DecoderCache. Greedy
    mode breaks ties toward the lowest port index.
    """
    if mode not in ("greedy", "sample"):
        raise ContractViolation("mode must be 'greedy' or 'sample'")
    if mode == "sample" and rng is None:
        raise ContractViolation("sampling requires an rng")
    for p in problems:
        if len(p.allowed_ports) < k:
            raise ContractViolation("fewer feasible ports than K")
    bsz = len(problems)
    rows = np.arange(bsz)
    with ad.no_grad():
        h = encode(problems, store, cfg, training=False)
        cache = decoder_cache(h, problems, store, cfg)
        mask = np.stack([p.allowed_mask for p in problems])
        prev = np.full((bsz, 1), START)
        chosen = np.empty((bsz, k), dtype=np.int64)
        logps = np.zeros(bsz)
        for t in range(k):
            logp = decode(cache, prev, mask[:, None], store, cfg).data[:, 0]
            probs = np.exp(logp)
            if mode == "greedy":
                actions = np.argmax(probs, axis=1)
            else:
                actions = np.empty(bsz, dtype=np.int64)
                for i in range(bsz):
                    p = probs[i] / probs[i].sum()
                    actions[i] = rng.choice(len(p), p=p)
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


def _shapes(store: ad.ParamStore) -> tuple:
    return ({n: t.shape for n, t in store.params.items()},
            {n: b.shape for n, b in store.buffers.items()})


def load_policy(path):
    """Returns (DevFormerPolicy, meta). Refuses tampered config hashes and
    parameters or buffers other than those the config's model has."""
    store, cfg_dict, meta = ad.load_checkpoint(path)
    cfg = ModelConfig.from_dict(cfg_dict)
    if _shapes(store) != _shapes(init_params(cfg)):
        raise ContractViolation(
            "checkpoint parameters do not match its model config")
    return DevFormerPolicy(store, cfg), meta
