"""Attention-based sequential placement policy.

Encoder: per-port linear node embedding plus a probe-relative positional
embedding, followed by L blocks of multi-head attention and feed-forward,
each batch-normalized (residual additions optional). Decoder: a context
query built from the probe embedding and the previously selected port's
embedding, one attention layer, and pointer-style per-port logits, so the
same checkpoint runs on any board size and any placement length.

All decoding goes through one core, decode(), which maps T queries and T
masks to T rows of log-probabilities. The glimpse keys/values and the
pointer keys depend only on the encoding, so decoder_cache() projects them
once per encode. Under teacher forcing every step's query is known up
front, so sequence_log_prob() decodes all K steps in one pass; rollouts
call the same core one step at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .env import Problem, board_xy, encode_features
from .errors import ContractViolation


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
        if self.d_model % self.n_heads != 0:
            raise ContractViolation("n_heads must divide d_model")
        if self.ppe_mode not in ("norm", "delta-and-norm"):
            raise ContractViolation("unknown ppe_mode")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        return ModelConfig(**d)


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
        f = ad.linear(ad.relu(ad.linear(h, store[f"{pre}.ff1.w"],
                                        store[f"{pre}.ff1.b"])),
                      store[f"{pre}.ff2.w"], store[f"{pre}.ff2.b"])
        h = ad.batch_norm(h + f if cfg.residual else f,
                          store[f"{pre}.bn2.gamma"], store[f"{pre}.bn2.beta"],
                          store.buffers, f"{pre}.bn2", training,
                          update_running=update_running)
    return h


def _mlp(x, store, p1, p2):
    return ad.linear(ad.relu(ad.linear(x, store[p1 + ".w"], store[p1 + ".b"])),
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


def _fixed_context(h, probe_idx, store, cfg):
    """Step-invariant query part (B, 1, d); None when only the RCN is on.

    With both context networks disabled the query is the mean port
    embedding.
    """
    if cfg.use_pcn:
        h_probe = ad.take_rows(h, np.asarray(probe_idx)[:, None])
        return _mlp(h_probe, store, "pcn1", "pcn2")
    if not cfg.use_rcn:
        return ad.mean(h, axis=1, keepdims=True)
    return None


def _start(bsz, store, cfg):
    return ad.broadcast_to(ad.reshape(store["start"], (1, 1, cfg.d_model)),
                           (bsz, 1, cfg.d_model))


def decoder_cache(h: ad.Tensor, store: ad.ParamStore, cfg: ModelConfig,
                  probe_idx=None) -> DecoderCache:
    """Project h once for every decode step that follows.

    Without probe_idx only the attention-side entries are filled (what
    decode() needs); step_queries() needs probe_idx too.
    """
    bsz = h.shape[0]
    fixed = table = None
    if probe_idx is not None:
        fixed = _fixed_context(h, probe_idx, store, cfg)
        if cfg.use_rcn:
            table = ad.concat([h, _start(bsz, store, cfg)], axis=1)
    return DecoderCache(
        kh=ad.split_heads(h, store["dec.wk"], cfg.n_heads),
        vh=ad.split_heads(h, store["dec.wv"], cfg.n_heads),
        keys=ad.transpose(ad.linear(h, store["dec.key"]), (0, 2, 1)),
        fixed=fixed, table=table)


def _queries(fixed, prev, t, store, cfg):
    """Decoder queries (B, t, d) from the step-invariant part and the
    previous ports' embeddings prev (B, t, d), read only by the RCN."""
    total = fixed
    if cfg.use_rcn:
        r = _mlp(prev, store, "rcn1", "rcn2")
        total = r if total is None else total + r
    q = ad.linear(total, store["ctx.w"], store["ctx.b"])
    return q if q.shape[1] == t \
        else ad.broadcast_to(q, (q.shape[0], t, cfg.d_model))


def step_queries(cache: DecoderCache, prev_ports: np.ndarray,
                 store: ad.ParamStore, cfg: ModelConfig) -> ad.Tensor:
    """Queries (B, T, d) for T steps; prev_ports (B, T) holds the port
    chosen before each step, START before the first."""
    prev = ad.take_rows(cache.table, prev_ports) if cfg.use_rcn else None
    return _queries(cache.fixed, prev, prev_ports.shape[1], store, cfg)


def decode(cache: DecoderCache, queries: ad.Tensor, masks: np.ndarray,
           store: ad.ParamStore, cfg: ModelConfig) -> ad.Tensor:
    """Per-port log-probabilities (B, T, N) for queries (B, T, d) under
    masks (B, T, N). The glimpse attends to every port; masked ports carry
    NEG_INF in the output (their probability is exactly zero)."""
    if not masks.any(axis=-1).all():
        raise ContractViolation("no feasible port left")
    qh = ad.split_heads(queries, store["dec.wq"], cfg.n_heads)
    glimpse = ad.attend(qh, cache.kh, cache.vh, store["dec.wo"])
    logits = ad.scale(ad.matmul(glimpse, cache.keys),
                      1.0 / np.sqrt(cfg.d_model))
    return ad.masked_log_softmax(logits, masks)


def context_query(h: ad.Tensor, probe_idx, prev: ad.Tensor | None,
                  store: ad.ParamStore, cfg: ModelConfig) -> ad.Tensor:
    """Decoder query for one step, shape (B, d).

    prev is the previously selected port's embedding (B, d), or None at
    t=1, where a learned start embedding is used.
    """
    bsz, d = h.shape[0], cfg.d_model
    if cfg.use_rcn:
        prev = _start(bsz, store, cfg) if prev is None \
            else ad.reshape(prev, (bsz, 1, d))
    q = _queries(_fixed_context(h, probe_idx, store, cfg), prev, 1, store,
                 cfg)
    return ad.reshape(q, (bsz, d))


def decode_step(h: ad.Tensor, query: ad.Tensor, mask: np.ndarray,
                store: ad.ParamStore, cfg: ModelConfig) -> ad.Tensor:
    """Per-port log-probabilities (B, N) for one step; masked ports carry
    NEG_INF (their probability is exactly zero)."""
    bsz, n = mask.shape
    logp = decode(decoder_cache(h, store, cfg),
                  ad.reshape(query, (bsz, 1, cfg.d_model)), mask[:, None],
                  store, cfg)
    return ad.reshape(logp, (bsz, n))


def step_probabilities(logp: ad.Tensor) -> np.ndarray:
    """Exact probability view of a decode step (masked entries are 0.0)."""
    return np.exp(logp.data)


def initial_mask(problems) -> np.ndarray:
    n = problems[0].n_ports
    mask = np.ones((len(problems), n), dtype=bool)
    for i, p in enumerate(problems):
        mask[i, p.probe] = False
        mask[i, list(p.keepout)] = False
    return mask


def sequence_log_prob(problems, placements, store: ad.ParamStore,
                      cfg: ModelConfig, training: bool = False,
                      update_running: bool = True) -> ad.Tensor:
    """Teacher-forced log pi(a|x) per batch item, shape (B,).

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
    masks = np.repeat(initial_mask(problems)[:, None], k, axis=1)
    for t in range(k):
        if not masks[rows, t, actions[:, t]].all():
            raise ContractViolation("placement contains an infeasible step")
        masks[rows, t + 1:, actions[:, t]] = False
    h = encode(problems, store, cfg, training, update_running)
    probes = np.array([p.probe for p in problems])
    cache = decoder_cache(h, store, cfg, probes)
    prev_ports = np.concatenate(
        [np.full((bsz, 1), START), actions[:, :-1]], axis=1)
    logp = decode(cache, step_queries(cache, prev_ports, store, cfg), masks,
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
        cache = decoder_cache(h, store, cfg, [p.probe for p in problems])
        mask = initial_mask(problems)
        prev = np.full((bsz, 1), START)
        chosen = np.empty((bsz, k), dtype=np.int64)
        logps = np.zeros(bsz)
        for t in range(k):
            logp = decode(cache, step_queries(cache, prev, store, cfg),
                          mask[:, None], store, cfg).data[:, 0]
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


def load_policy(path):
    """Returns (DevFormerPolicy, meta). Refuses tampered config hashes."""
    store, cfg_dict, meta = ad.load_checkpoint(path)
    cfg = ModelConfig.from_dict(cfg_dict)
    return DevFormerPolicy(store, cfg), meta
