import threading

import numpy as np
import pytest

from decapbench import autodiff as ad
from decapbench.errors import ContractViolation


def make_rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def store_with(**arrays):
    s = ad.ParamStore()
    for name, arr in arrays.items():
        s.add(name, np.asarray(arr, dtype=np.float64))
    return s


# --- per-op gradient checks ------------------------------------------------------

def test_grad_check_elementwise_chain():
    rng = make_rng(1)
    s = store_with(a=rng.normal(size=(3, 4)), b=rng.normal(size=(3, 4)))

    def fn():
        x = ad.mul(ad.exp(s["a"]), s["b"]) + ad.relu(s["a"]) - s["b"]
        return ad.mean(ad.absolute(x) + ad.log(ad.exp(x) + ad.Tensor(2.0)))

    assert ad.grad_check(fn, s) < 1e-6


def test_grad_check_matmul_reshape_transpose():
    rng = make_rng(2)
    s = store_with(w=rng.normal(size=(4, 5)), x=rng.normal(size=(2, 3, 4)))

    def fn():
        y = ad.matmul(s["x"], s["w"])
        y = ad.transpose(ad.reshape(y, (6, 5)), (1, 0))
        return ad.tensor_sum(ad.mul(y, y))

    assert ad.grad_check(fn, s) < 1e-6


def test_grad_check_linear_3d_with_and_without_bias():
    rng = make_rng(11)
    s = store_with(x=rng.normal(size=(2, 3, 4)), w=rng.normal(size=(4, 5)),
                   b=rng.normal(size=5))
    weights = ad.Tensor(rng.normal(size=(2, 3, 5)))

    def with_bias():
        return ad.tensor_sum(ad.mul(ad.exp(ad.linear(s["x"], s["w"], s["b"])),
                                    weights))

    def without_bias():
        return ad.tensor_sum(ad.mul(ad.exp(ad.linear(s["x"], s["w"])),
                                    weights))

    assert ad.grad_check(with_bias, s) < 1e-6
    assert ad.grad_check(without_bias, s) < 1e-6


def test_grad_check_linear_constant_input():
    rng = make_rng(12)
    x = ad.Tensor(rng.normal(size=(3, 2, 4)))
    s = store_with(w=rng.normal(size=(4, 3)), b=rng.normal(size=3))

    def fn():
        return ad.mean(ad.mul(ad.linear(x, s["w"], s["b"]),
                              ad.linear(x, s["w"], s["b"])))

    assert ad.grad_check(fn, s) < 1e-6
    s.zero_grad()
    fn().backward()
    assert x.grad is None


def test_fused_linear_matches_matmul_plus_add():
    rng = make_rng(13)
    ref = store_with(x=rng.normal(size=(4, 7, 6)), w=rng.normal(size=(6, 5)),
                     b=rng.normal(size=5))
    fused = ref.copy(requires_grad=True)
    upstream = ad.Tensor(rng.normal(size=(4, 7, 5)))

    y_ref = ad.add(ad.matmul(ref["x"], ref["w"]), ref["b"])
    y = ad.linear(fused["x"], fused["w"], fused["b"])
    np.testing.assert_allclose(y.data, y_ref.data, rtol=1e-12, atol=0)
    ad.tensor_sum(ad.mul(y_ref, upstream)).backward()
    ad.tensor_sum(ad.mul(y, upstream)).backward()
    for name in ("x", "w", "b"):
        np.testing.assert_allclose(fused[name].grad, ref[name].grad,
                                   rtol=1e-12, atol=0)


def test_grad_check_take_rows():
    rng = make_rng(3)
    s = store_with(h=rng.normal(size=(3, 5, 4)))
    idx = np.array([1, 4, 0])

    def fn():
        return ad.tensor_sum(ad.exp(ad.take_rows(s["h"], idx)))

    assert ad.grad_check(fn, s) < 1e-6


def test_grad_check_take_rows_2d_indices():
    rng = make_rng(3)
    s = store_with(h=rng.normal(size=(3, 5, 4)))
    idx = np.array([[1, 4, 1], [0, 2, 3], [4, 4, 0]])  # repeats accumulate

    def fn():
        rows = ad.take_rows(s["h"], idx)
        assert rows.shape == (3, 3, 4)
        return ad.tensor_sum(ad.exp(rows))

    assert ad.grad_check(fn, s) < 1e-6


def test_grad_check_concat_and_broadcast_to():
    rng = make_rng(10)
    s = store_with(a=rng.normal(size=(2, 3, 4)), b=rng.normal(size=(2, 1, 4)),
                   c=rng.normal(size=(1, 1, 4)))
    weights = ad.Tensor(rng.normal(size=(2, 6, 4)))

    def fn():
        c = ad.broadcast_to(s["c"], (2, 2, 4))
        x = ad.concat([s["a"], s["b"], c], axis=1)
        assert x.shape == (2, 6, 4)
        return ad.tensor_sum(ad.mul(ad.exp(x), weights))

    assert ad.grad_check(fn, s) < 1e-6


def test_grad_check_masked_log_softmax():
    rng = make_rng(4)
    s = store_with(z=rng.normal(size=(3, 6)))
    mask = np.ones((3, 6), dtype=bool)
    mask[0, 2] = mask[1, 0] = mask[1, 5] = False

    def fn():
        return ad.mean(ad.take_rows(ad.masked_log_softmax(s["z"], mask),
                                    np.array([0, 1, 3])))

    assert ad.grad_check(fn, s) < 1e-6


def test_grad_check_mha():
    rng = make_rng(5)
    d = 8
    s = store_with(q=rng.normal(size=(2, 3, d)), h=rng.normal(size=(2, 5, d)),
                   wq=rng.normal(size=(d, d)), wk=rng.normal(size=(d, d)),
                   wv=rng.normal(size=(d, d)), wo=rng.normal(size=(d, d)))

    def fn():
        out = ad.mha(s["q"], s["h"], s["h"], s["wq"], s["wk"], s["wv"],
                     s["wo"], n_heads=2)
        return ad.mean(ad.mul(out, out))

    assert ad.grad_check(fn, s) < 1e-5


def test_grad_check_batch_norm_training_mode():
    rng = make_rng(6)
    s = store_with(x=rng.normal(size=(4, 3, 5)), gamma=np.ones(5),
                   beta=np.zeros(5))
    s.add_buffer("bn.mean", np.zeros(5))
    s.add_buffer("bn.var", np.ones(5))

    def fn():
        y = ad.batch_norm(s["x"], s["gamma"], s["beta"], s.buffers, "bn",
                          training=True, update_running=False)
        return ad.mean(ad.mul(y, y))

    assert ad.grad_check(fn, s) < 1e-5


# --- tape lifetime ----------------------------------------------------------------

def test_backward_frees_interior_nodes_and_keeps_leaf_grads():
    rng = make_rng(12)
    s = store_with(w=rng.normal(size=(3, 3)), x=rng.normal(size=(2, 3)))

    def fn():
        y = ad.relu(ad.matmul(s["x"], s["w"]))
        return y, ad.mean(ad.mul(y, y))

    s.zero_grad()
    _, kept = fn()
    kept.backward()
    expect = {n: t.grad.copy() for n, t in s.params.items()}

    s.zero_grad()
    y, loss = fn()
    loss.backward()
    for name, t in s.params.items():
        assert np.array_equal(t.grad, expect[name])
    for node in (y, loss):
        assert node._parents == () and node._backward is None
        assert node.grad is None
    assert y.data.shape == (2, 3)   # values stay readable


def test_no_grad_records_no_tape_on_this_thread_only():
    s = store_with(w=np.ones(2))
    with ad.no_grad():
        with ad.no_grad():
            pass
        y = ad.mul(s["w"], s["w"])   # still off after the inner block
        seen = []
        t = threading.Thread(
            target=lambda: seen.append(ad.mul(s["w"], s["w"]).requires_grad))
        t.start()
        t.join(timeout=10)
    assert not t.is_alive() and seen == [True]
    assert not y.requires_grad and y._parents == ()
    assert ad.mul(s["w"], s["w"]).requires_grad


# --- masked log-softmax exactness --------------------------------------------------

def test_masked_log_softmax_exact_zeros_and_normalization():
    logits = ad.Tensor(np.array([[2.0, -1.0, 0.5, 3.0]]))
    mask = np.array([[True, False, True, False]])
    p = np.exp(ad.masked_log_softmax(logits, mask).data)
    assert p[0, 1] == 0.0 and p[0, 3] == 0.0   # NEG_INF underflows to 0
    assert p.sum() == pytest.approx(1.0, abs=1e-15)
    full = ad.softmax(ad.Tensor(logits.data[:, mask[0]])).data
    assert np.allclose(p[0, mask[0]], full[0], rtol=1e-15)


def test_masked_log_softmax_all_masked_row_rejected():
    logits = ad.Tensor(np.zeros((1, 3)))
    with pytest.raises(ContractViolation):
        ad.masked_log_softmax(logits, np.zeros((1, 3), dtype=bool))


# --- batch norm running statistics ---------------------------------------------------

def test_batch_norm_running_stats_update_and_eval():
    rng = make_rng(7)
    x = rng.normal(loc=3.0, scale=2.0, size=(64, 4))
    s = store_with(gamma=np.ones(4), beta=np.zeros(4))
    s.add_buffer("bn.mean", np.zeros(4))
    s.add_buffer("bn.var", np.ones(4))
    for _ in range(200):
        ad.batch_norm(ad.Tensor(x), s["gamma"], s["beta"], s.buffers, "bn",
                      training=True)
    assert np.allclose(s.buffers["bn.mean"], x.mean(axis=0), atol=1e-6)
    # Evaluation mode uses the running stats and leaves them untouched.
    snap = s.buffers["bn.mean"].copy()
    y = ad.batch_norm(ad.Tensor(x), s["gamma"], s["beta"], s.buffers, "bn",
                      training=False)
    assert np.array_equal(s.buffers["bn.mean"], snap)
    assert abs(y.data.mean()) < 0.1


def test_batch_norm_update_running_flag():
    s = store_with(gamma=np.ones(2), beta=np.zeros(2))
    s.add_buffer("bn.mean", np.zeros(2))
    s.add_buffer("bn.var", np.ones(2))
    x = ad.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    ad.batch_norm(x, s["gamma"], s["beta"], s.buffers, "bn", training=True,
                  update_running=False)
    assert np.array_equal(s.buffers["bn.mean"], np.zeros(2))


# --- broadcasting in backward ---------------------------------------------------------

def test_unbroadcast_gradients():
    s = store_with(b=np.array([1.0, 2.0, 3.0]))

    def fn():
        x = ad.Tensor(np.ones((4, 3)))
        return ad.tensor_sum(x + s["b"])

    s.zero_grad()
    out = fn()
    out.backward()
    assert np.array_equal(s["b"].grad, np.full(3, 4.0))
    assert ad.grad_check(fn, s) < 1e-8


def test_shared_upstream_gradient_is_not_aliased():
    # add hands one g to both operands; each .grad must own its array, so a
    # later accumulation into one leaf leaves the other intact.
    rng = make_rng(14)
    c, w = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    for add_first in (True, False):
        s = store_with(a=rng.normal(size=(2, 3)), b=rng.normal(size=(2, 3)))
        shared = ad.tensor_sum(ad.mul(ad.add(s["a"], s["b"]), ad.Tensor(c)))
        own = ad.tensor_sum(ad.mul(s["a"], ad.Tensor(w)))
        loss = ad.add(shared, own) if add_first else ad.add(own, shared)
        loss.backward()
        np.testing.assert_array_equal(s["a"].grad, c + w)
        np.testing.assert_array_equal(s["b"].grad, c)
        assert not np.shares_memory(s["a"].grad, s["b"].grad)

    s = store_with(a=rng.normal(size=(2, 3)))
    ad.tensor_sum(ad.mul(ad.add(s["a"], s["a"]), ad.Tensor(c))).backward()
    np.testing.assert_array_equal(s["a"].grad, 2 * c)


def test_relu_propagates_nan():
    s = store_with(a=np.array([np.nan, -1.0, 2.0]))
    y = ad.relu(s["a"])
    assert np.isnan(y.data[0]) and y.data[1] == 0.0 and y.data[2] == 2.0
    ad.tensor_sum(y).backward()
    np.testing.assert_array_equal(s["a"].grad, [0.0, 0.0, 1.0])


# --- param store and checkpoints ---------------------------------------------------

def test_param_store_copy_is_deep():
    s = store_with(w=np.ones((2, 2)))
    s.add_buffer("buf", np.zeros(3))
    c = s.copy()
    c["w"].data[0, 0] = 5.0
    c.buffers["buf"][0] = 7.0
    assert s["w"].data[0, 0] == 1.0
    assert s.buffers["buf"][0] == 0.0


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = make_rng(8)
    s = store_with(w=rng.normal(size=(3, 3)), b=rng.normal(size=3))
    s.add_buffer("bn.mean", rng.normal(size=3))
    cfg = {"d_model": 3, "n_layers": 1}
    path = tmp_path / "model.ckpt"
    ad.save_checkpoint(path, s, cfg, meta={"note": 1})
    s2, cfg2, meta = ad.load_checkpoint(path)
    assert cfg2 == cfg and meta == {"note": 1}
    for name in s.params:
        assert np.array_equal(s[name].data, s2[name].data)
    assert np.array_equal(s.buffers["bn.mean"], s2.buffers["bn.mean"])


def test_checkpoint_rejects_tampered_header(tmp_path):
    s = store_with(w=np.ones((2, 2)))
    path = tmp_path / "model.ckpt"
    ad.save_checkpoint(path, s, {"d_model": 2})
    blob = path.read_bytes()
    patched = blob.replace(b'"d_model": 2', b'"d_model": 3')
    assert patched != blob
    path.write_bytes(patched)
    with pytest.raises(ContractViolation):
        ad.load_checkpoint(path)


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ContractViolation):
        ad.load_checkpoint(path)


def test_xavier_uniform_bounds():
    rng = make_rng(9)
    w = ad.xavier_uniform(rng, 10, 20)
    limit = np.sqrt(6.0 / 30.0)
    assert w.shape == (10, 20)
    assert np.abs(w).max() <= limit
