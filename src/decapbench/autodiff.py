"""Minimal dense-tensor reverse-mode differentiation.

The op set is deliberately closed: exactly what the placement policy needs
(linear maps, multi-head attention, batch norm, masked log-softmax,
elementwise ops) plus a finite-difference gradient checker. Attention
probabilities and the ReLU feed-forward block are single nodes that keep
only what their backward reads. Data is float32 or float64: an op computes
in its inputs' dtype, a node's gradient is kept in its own dtype, and
cast() is the one op that changes dtype. Parameters, running statistics
and checkpoints are float64. All reductions use numpy's fixed order, so
two identical backward passes produce bit-identical gradients.
branch_sum() joins two losses, one built on a ParamStore and one on a
private leaf view of it; they share no node, so their forward and backward
passes may run on two threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import math
import os
import struct
import threading

import numpy as np

from .errors import ContractViolation, NumericFailure, check_schema

NEG_INF = -1e9  # finite stand-in for log(0); exp(NEG_INF) underflows to 0.0

_GRAD = threading.local()  # .off is True inside no_grad() on this thread


@contextlib.contextmanager
def no_grad():
    """Record no tape on this thread: every op result is a constant."""
    prev = getattr(_GRAD, "off", False)
    _GRAD.off = True
    try:
        yield
    finally:
        _GRAD.off = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else \
            np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def backward(self, grad=None):
        """Accumulate grad * d(self)/d(leaf) into every leaf's grad; grad
        defaults to 1.

        The tape is consumed: each interior node drops its parents, its
        backward closure and its grad once they have been used, so the
        graph's memory is released during the pass and a second backward
        through the same graph reaches no leaf.
        """
        if self.data.ndim != 0:
            raise ContractViolation("backward requires a scalar output")
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            stack += [(p, False) for p in node._parents if id(p) not in seen]
        self.grad = np.ones_like(self.data) if grad is None else \
            np.array(grad, dtype=self.data.dtype)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node._parents, node._backward, node.grad = (), None, None

    # convenience arithmetic
    def __add__(self, other):
        return add(self, _wrap(other))

    def __sub__(self, other):
        return add(self, scale(_wrap(other), -1.0))


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if not getattr(_GRAD, "off", False) and \
            any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accum(t: Tensor, g: np.ndarray):
    """Add g into t.grad, which has t's dtype. The first gradient is stored
    as a copy: backward closures may hand one array to several operands
    (add gives both the same g), so owning g itself could alias two .grad
    arrays."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _make(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)  # a numpy float64 scalar would promote float32 data
    data = a.data * c

    def backward(g):
        _accum(a, g * c)

    return _make(data, (a,), backward)


def cast(a: Tensor, dtype) -> Tensor:
    """a's data in dtype; the backward hands a its gradient in a's dtype."""
    data = a.data.astype(dtype)

    def backward(g):
        _accum(a, g)

    return _make(data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data @ b.data

    def backward(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        _accum(a, _unbroadcast(ga, a.shape))
        _accum(b, _unbroadcast(gb, b.shape))

    return _make(data, (a, b), backward)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def backward(g):
        _accum(a, g * data)

    return _make(data, (a,), backward)


def absolute(a: Tensor) -> Tensor:
    data = np.abs(a.data)

    def backward(g):
        _accum(a, g * np.sign(a.data))

    return _make(data, (a,), backward)


def tensor_sum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.shape).copy())

    return _make(data, (a,), backward)


def mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return scale(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        _accum(a, g.reshape(a.shape))

    return _make(data, (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    data = a.data.transpose(axes)
    inv = np.argsort(axes)

    def backward(g):
        _accum(a, g.transpose(inv))

    return _make(data, (a,), backward)


def take_rows(a: Tensor, idx) -> Tensor:
    """Pick entries along axis 1 per batch item.

    idx of shape (B,) maps (B, N, ...) -> (B, ...); idx of shape (B, T)
    maps (B, N, ...) -> (B, T, ...).
    """
    idx = np.asarray(idx, dtype=np.int64)
    bsz = a.shape[0]
    rows = np.arange(bsz).reshape((bsz,) + (1,) * (idx.ndim - 1))
    data = a.data[rows, idx]

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (rows, idx), g)
        _accum(a, ga)

    return _make(data, (a,), backward)


def concat(tensors, axis: int) -> Tensor:
    """Join tensors along an existing axis (shapes agree elsewhere)."""
    data = np.concatenate([t.data for t in tensors], axis=axis)
    bounds = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(g):
        for t, gt in zip(tensors, np.split(g, bounds, axis=axis)):
            _accum(t, gt)

    return _make(data, tuple(tensors), backward)


def broadcast_to(a: Tensor, shape) -> Tensor:
    data = np.broadcast_to(a.data, shape)

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))

    return _make(data, (a,), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x (..., din) @ w (din, dout) + b (dout,) as one node.

    The leading axes are flattened so the forward pass and both gradients
    are single 2-D GEMMs: the weight gradient sums over all rows in one
    product instead of a batched product reduced over the batch.
    """
    din, dout = w.shape
    if x.shape[-1] != din:
        raise ContractViolation("linear: shape mismatch")
    x2 = x.data.reshape(-1, din)
    y2 = x2 @ w.data
    if b is not None:
        y2 += b.data
    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        g2 = g.reshape(-1, dout)
        if x.requires_grad:
            _accum(x, (g2 @ w.data.T).reshape(x.shape))
        if w.requires_grad:
            _accum(w, x2.T @ g2)
        if b is not None and b.requires_grad:
            _accum(b, g2.sum(axis=0))

    return _make(y2.reshape(x.shape[:-1] + (dout,)), parents, backward)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor) -> Tensor:
    """linear(relu(linear(x, w1, b1)), w2) as one node: x (..., din),
    w1 (din, dff), w2 (dff, dout). The second linear has no bias: every
    caller's output enters a sum whose own bias absorbs one.

    The ReLU runs in place, so the tape keeps x and the hidden output h
    but not the pre-activation: the backward mask h > 0 equals pre > 0. A
    NaN stays NaN through the ReLU, so the non-finite loss guard sees it.
    Forward and backward run the three-node chain's arithmetic in its
    order.
    """
    din, dff = w1.shape
    dout = w2.shape[1]
    if x.shape[-1] != din or w2.shape[0] != dff:
        raise ContractViolation("feed_forward: shape mismatch")
    x2 = x.data.reshape(-1, din)
    h2 = x2 @ w1.data
    h2 += b1.data
    np.maximum(h2, 0.0, out=h2)
    y2 = h2 @ w2.data

    def backward(g):
        g2 = g.reshape(-1, dout)
        if x.requires_grad or w1.requires_grad or b1.requires_grad:
            gh = (g2 @ w2.data.T) * (h2 > 0)
        _accum(w2, h2.T @ g2)
        if x.requires_grad:
            _accum(x, (gh @ w1.data.T).reshape(x.shape))
        if w1.requires_grad:
            _accum(w1, x2.T @ gh)
        if b1.requires_grad:
            _accum(b1, gh.sum(axis=0))

    return _make(y2.reshape(x.shape[:-1] + (dout,)), (x, w1, b1, w2),
                 backward)


def attention_probs(qh: Tensor, kh: Tensor, c: float) -> Tensor:
    """softmax(c * qh @ kh^T) over the last axis as one node: head-split
    queries (B, heads, Tq, dh) and keys (B, heads, Tk, dh) give
    probabilities (B, heads, Tq, Tk).

    The scores are scaled and normalized in place, so the tape keeps only
    the probabilities, which are all that softmax backward needs. Forward
    and backward run the matmul, scale and softmax chain's arithmetic in
    its order.
    """
    if qh.shape[:2] != kh.shape[:2] or qh.shape[3] != kh.shape[3]:
        raise ContractViolation("attention_probs: shape mismatch")
    c = float(c)
    p = qh.data @ np.swapaxes(kh.data, -1, -2)
    p *= c
    p -= np.max(p, axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def backward(g):
        gs = p * (g - (g * p).sum(axis=-1, keepdims=True))
        gs *= c
        if qh.requires_grad:
            _accum(qh, gs @ kh.data)
        if kh.requires_grad:
            _accum(kh, np.swapaxes(np.swapaxes(qh.data, -1, -2) @ gs, -1, -2))

    return _make(p, (qh, kh), backward)


def masked_log_softmax(logits: Tensor, mask) -> Tensor:
    """Log-softmax over the last axis; masked entries hold NEG_INF.

    mask is a boolean array broadcastable to logits (True = allowed).
    """
    x = logits.data
    allowed = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
    if not allowed.any(axis=-1).all():
        raise ContractViolation("masked_log_softmax: a row is fully masked")
    xm = np.where(allowed, x, -np.inf)
    mx = np.max(xm, axis=-1, keepdims=True)
    e = np.where(allowed, np.exp(np.where(allowed, x - mx, 0.0)), 0.0)
    lse = mx + np.log(e.sum(axis=-1, keepdims=True))
    data = np.where(allowed, x - lse, NEG_INF)
    p = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        g = g * allowed
        _accum(logits, g - p * g.sum(axis=-1, keepdims=True))

    return _make(data, (logits,), backward)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running: dict,
               prefix: str, training: bool, momentum: float = 0.1,
               eps: float = 1e-5, update_running: bool = True) -> Tensor:
    """Per-feature normalization over all leading axes of x (..., d).

    running holds '<prefix>.mean' and '<prefix>.var' buffers; training mode
    normalizes with batch statistics in x's dtype and (optionally) updates
    the buffers in theirs (float64); eval mode normalizes with the buffers
    cast to x's dtype.
    """
    d = x.shape[-1]
    axes = tuple(range(x.data.ndim - 1))
    rm, rv = running[prefix + ".mean"], running[prefix + ".var"]
    if training:
        n = int(np.prod([x.shape[a] for a in axes])) if axes else 1
        if n < 2:
            raise ContractViolation("batch norm needs a batch of >= 2")
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        if update_running:
            running[prefix + ".mean"] = (1 - momentum) * rm + momentum * \
                np.asarray(mu, dtype=rm.dtype)
            running[prefix + ".var"] = (1 - momentum) * rv + momentum * \
                np.asarray(var, dtype=rv.dtype)
    else:
        mu = np.asarray(rm, dtype=x.data.dtype)
        var = np.asarray(rv, dtype=x.data.dtype)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv_std
    data = gamma.data * xhat + beta.data

    def backward(g):
        _accum(gamma, (g * xhat).sum(axis=axes))
        _accum(beta, g.sum(axis=axes))
        dxhat = g * gamma.data
        if training:
            m = xhat.size // d
            dx = (inv_std / m) * (m * dxhat
                                  - dxhat.sum(axis=axes)
                                  - xhat * (dxhat * xhat).sum(axis=axes))
            _accum(x, dx)
        else:
            _accum(x, dxhat * inv_std)

    return _make(data, (x, gamma, beta), backward)


def split_heads(x: Tensor, w: Tensor, n_heads: int) -> Tensor:
    """Project x (B, T, d) by w and split into heads: (B, heads, T, d/heads)."""
    bsz, t, d = x.shape
    if d % n_heads != 0:
        raise ContractViolation("model dim must be divisible by n_heads")
    return transpose(reshape(linear(x, w), (bsz, t, n_heads, d // n_heads)),
                     (0, 2, 1, 3))


def attend(qh: Tensor, kh: Tensor, vh: Tensor, wo: Tensor) -> Tensor:
    """Scaled dot-product attention over head-split inputs (B, heads, T, dh)
    with output projection: (B, Tq, heads * dh)."""
    bsz, n_heads, tq, dh = qh.shape
    attn = attention_probs(qh, kh, 1.0 / np.sqrt(dh))
    ctx = matmul(attn, vh)  # (B, h, Tq, dh)
    ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (bsz, tq, n_heads * dh))
    return linear(ctx, wo)


def mha(q: Tensor, k: Tensor, v: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
        wo: Tensor, n_heads: int) -> Tensor:
    """Scaled dot-product multi-head attention with output projection.

    q: (B, Tq, d); k, v: (B, Tk, d).
    """
    return attend(split_heads(q, wq, n_heads), split_heads(k, wk, n_heads),
                  split_heads(v, wv, n_heads), wo)


class ParamStore:
    """Named parameter tensors (stable order) plus running-stat buffers."""

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, np.ndarray] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self.params:
            raise ContractViolation(f"duplicate parameter {name}")
        t = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
        self.params[name] = t
        return t

    def add_buffer(self, name: str, data) -> None:
        if name in self.buffers:
            raise ContractViolation(f"duplicate buffer {name}")
        self.buffers[name] = np.array(data, dtype=np.float64)

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def n_coords(self) -> int:
        return sum(t.data.size for t in self.params.values())

    def copy(self, requires_grad: bool = False) -> "ParamStore":
        out = ParamStore()
        out.params = {name: Tensor(t.data.copy(), requires_grad=requires_grad)
                      for name, t in self.params.items()}
        out.buffers = {name: b.copy() for name, b in self.buffers.items()}
        return out

    def leaf_view(self, buffers: dict) -> "ParamStore":
        """Fresh leaf tensors over this store's parameter arrays, so a
        backward through the view writes only the view's .grad; buffers
        are the view's running statistics."""
        out = ParamStore()
        out.params = {name: Tensor(t.data, requires_grad=t.requires_grad)
                      for name, t in self.params.items()}
        out.buffers = buffers
        return out


def branch_sum(store: ParamStore, first, view: ParamStore, second,
               weight: float, run):
    """(first() + weight * second() as one node, first(), second()) for
    two scalar branches: first() builds its branch over store's leaves and
    second() over view's, a leaf view of store (ParamStore.leaf_view), so
    the two share no node and write disjoint gradients.

    run(f, g) returns (f(), g()) and may run g on another thread. The
    forward builds both branches through run, and so does the backward,
    which hands first the incoming gradient g and second g * weight, as
    first + scale(second, weight) does. It then adds view's gradients
    into store's leaves. Backward through that chain also finishes
    first's part before second's, so where second reaches each leaf
    through one node, as the self term does, the gradients are bitwise
    the same.
    """
    a, b = run(first, second)
    c = float(weight)

    def backward(g):
        run(lambda: a.backward(g), lambda: b.backward(g * c))
        for name, v in view.params.items():
            t = store.params[name]
            if v.grad is None:
                continue
            if t.grad is None:
                t.grad = v.grad  # the view's own array, made by _accum
            else:
                t.grad += v.grad

    out = _make(a.data + b.data * c, tuple(store.params.values()), backward)
    return out, a, b


def xavier_uniform(rng, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape or (fan_in, fan_out))


def grad_check(fn, store: ParamStore, eps: float = 1e-4, seed: int = 0,
               subsample_above: int = 10_000) -> float:
    """Max relative error between reverse-mode and central differences.

    fn() must be deterministic and scalar-valued. Buffers are snapshotted
    around every evaluation so batch-norm running stats do not drift.
    Above subsample_above total coordinates, a seeded 1% subsample is used.
    """
    snap = {k: v.copy() for k, v in store.buffers.items()}

    def run() -> float:
        for k in store.buffers:
            store.buffers[k][...] = snap[k]
        out = fn()
        if not np.isfinite(out.data):
            raise NumericFailure("non-finite output in grad_check")
        return out

    store.zero_grad()
    out = run()
    out.backward()
    analytic = {name: (t.grad.copy() if t.grad is not None
                       else np.zeros_like(t.data))
                for name, t in store.params.items()}

    total = store.n_coords()
    rng = np.random.Generator(np.random.PCG64(seed))
    max_err = 0.0
    for name, t in store.params.items():
        flat = t.data.reshape(-1)
        n = flat.size
        if total > subsample_above:
            m = max(1, n // 100)
            coords = rng.choice(n, size=m, replace=False)
        else:
            coords = range(n)
        a_flat = analytic[name].reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = run().item()
            flat[i] = orig - eps
            f_minus = run().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2 * eps)
            a = a_flat[i]
            err = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-6)
            max_err = max(max_err, err)
    for k in store.buffers:
        store.buffers[k][...] = snap[k]
    return max_err


# --- BLAS thread count ------------------------------------------------------

# Name prefix and suffix of {get,set}_num_threads in OpenBLAS builds:
# scipy-openblas's 64-bit and 32-bit interfaces, then the plain library.
_OPENBLAS_NAMES = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                   ("openblas_", ""))


def _openblas_libs() -> list:
    """(get, set) thread-count functions of every OpenBLAS loaded into this
    process (numpy and scipy each bundle one); empty where none is found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:  # no /proc: not Linux
        return []
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for pre, post in _OPENBLAS_NAMES:
            get = getattr(lib, f"{pre}get_num_threads{post}", None)
            put = getattr(lib, f"{pre}set_num_threads{post}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                libs.append((get, put))
                break
    return libs


@contextlib.contextmanager
def blas_threads(n: int | None = None):
    """Run the block with every loaded OpenBLAS at n threads (None: as
    they are), and set each back to its own count on the way out. Yields
    the counts found on entry, one per library: an empty list where no
    OpenBLAS symbol is found, and then nothing is changed."""
    libs = _openblas_libs()
    before = [get() for get, _ in libs]
    try:
        if n is not None:
            for _, put in libs:
                put(n)
        yield before
    finally:
        for (_, put), count in zip(libs, before):
            put(count)


# --- checkpoint container ---------------------------------------------------
#
# Byte layout (little-endian):
#   magic   4 bytes  b"DCB1"
#   hlen    u64      length of the UTF-8 JSON header
#   header  hlen bytes: {"config": ..., "meta": ...,
#                        "params": [[name, shape], ...],
#                        "buffers": [[name, shape], ...]}
#   data    raw float64 arrays, params then buffers, header order
CHECKPOINT_MAGIC = b"DCB1"

_ARRAY_LIST_SCHEMA = {
    "type": "array",
    "items": {
        "type": "array",
        "prefixItems": [
            {"type": "string"},
            {"type": "array", "items": {"type": "integer", "minimum": 0}},
        ],
        "items": False,
        "minItems": 2,
    },
}

# The JSON header as save_checkpoint writes it.
CHECKPOINT_HEADER_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "config": {"type": "object"},
        "config_hash": {"type": "string"},
        "meta": {"type": "object"},
        "params": _ARRAY_LIST_SCHEMA,
        "buffers": _ARRAY_LIST_SCHEMA,
    },
    "required": ["config", "config_hash", "meta", "params", "buffers"],
    "additionalProperties": False,
}


def config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def save_checkpoint(path, store: ParamStore, config: dict, meta=None) -> None:
    header = {
        "config": config,
        "config_hash": config_hash(config),
        "meta": meta or {},
        "params": [[n, list(t.shape)] for n, t in store.params.items()],
        "buffers": [[n, list(b.shape)] for n, b in store.buffers.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for t in store.params.values():
            fh.write(np.ascontiguousarray(t.data).astype("<f8").tobytes())
        for b in store.buffers.values():
            fh.write(np.ascontiguousarray(b).astype("<f8").tobytes())


def _read_exact(fh, n: int) -> bytes:
    # A corrupt length larger than the file must not be allocated.
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    blob = fh.read(n) if n <= left else b""
    if len(blob) != n:
        raise ContractViolation("checkpoint file is truncated")
    return blob


def _read_array(fh, shape) -> np.ndarray:
    shape = tuple(int(s) for s in shape)  # JSON may spell an integer 2.0
    blob = _read_exact(fh, 8 * math.prod(shape))
    return np.frombuffer(blob, dtype="<f8").reshape(shape).copy()


def load_checkpoint(path):
    """Returns (ParamStore, config dict, meta dict)."""
    with open(path, "rb") as fh:
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise ContractViolation("not a checkpoint file")
        (hlen,) = struct.unpack("<Q", _read_exact(fh, 8))
        header = json.loads(_read_exact(fh, hlen).decode())
        check_schema(header, CHECKPOINT_HEADER_SCHEMA, "checkpoint header")
        if config_hash(header["config"]) != header["config_hash"]:
            raise ContractViolation("checkpoint config hash mismatch")
        store = ParamStore()
        for name, shape in header["params"]:
            store.params[name] = Tensor(_read_array(fh, shape),
                                        requires_grad=True)
        for name, shape in header["buffers"]:
            store.buffers[name] = _read_array(fh, shape)
    return store, header["config"], header["meta"]
