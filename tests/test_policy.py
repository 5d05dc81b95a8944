import dataclasses
import itertools
import math

import numpy as np
import pytest

from decapbench import autodiff as ad
from decapbench import policy as pol
from decapbench.env import Problem, board_xy, encode_features, gen_problem_set
from decapbench.errors import ContractViolation, NumericFailure


CFG = pol.toy_config(n_layers=1, d_model=16, n_heads=2, ff_dim=32)


def make_rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def test_model_config_contracts():
    with pytest.raises(ContractViolation):
        pol.ModelConfig(d_model=10, n_heads=4)
    with pytest.raises(ContractViolation):
        pol.ModelConfig(d_model=0, n_heads=4)
    assert pol.ModelConfig().float32 and not CFG.float32
    d = CFG.to_dict()
    assert pol.ModelConfig.from_dict(d) == CFG
    assert pol.ModelConfig.from_dict({**d, "d_model": 16.0}) == CFG
    for bad in ({**d, "extra": 1}, {k: v for k, v in d.items()
                                    if k != "init_seed"},
                {**d, "d_model": "16"}, {**d, "n_heads": 0},
                {**d, "ablated": 1}, {**d, "float32": 1},
                {**{k: v for k, v in d.items() if k != "ablated"},
                 "use_ppe": True, "use_pcn": True, "use_rcn": True}):
        with pytest.raises(ContractViolation):
            pol.ModelConfig.from_dict(bad)


def test_ppe_features_probe_row_is_zero():
    p = Problem(3, 3, 4, frozenset())
    norm = pol.ppe_features(p)
    assert norm.shape == (9, 1)
    assert norm[4, 0] == 0.0


def _uncached_xy(rows, cols):
    """The coordinate formula encode_features applied per call before the
    board geometry was cached."""
    idx = np.arange(rows * cols)
    r, c = idx // cols, idx % cols
    x = c / (cols - 1) if cols > 1 else np.zeros(rows * cols)
    y = r / (rows - 1) if rows > 1 else np.zeros(rows * cols)
    return np.stack([x, y], axis=1)


@pytest.mark.parametrize("rows,cols", [(3, 4), (10, 10), (1, 5), (4, 1)])
def test_board_geometry_cache_bit_identical_and_read_only(rows, cols):
    p = gen_problem_set(rows * cols, 1, rows, cols, min(2, rows * cols - 2))[0]
    xy = _uncached_xy(rows, cols)
    feats = encode_features(p)
    assert np.array_equal(feats[:, :2], xy)
    assert np.array_equal(feats[:, 2:].sum(axis=1), np.ones(rows * cols))
    delta = xy - xy[p.probe]
    norm = np.sqrt((delta ** 2).sum(axis=1, keepdims=True))
    assert np.array_equal(pol.ppe_features(p), norm)

    cached = board_xy(rows, cols)
    assert cached is board_xy(rows, cols)
    with pytest.raises(ValueError):
        cached[0, 0] = 5.0
    feats[:, :2] = 5.0       # callers get their own arrays
    assert np.array_equal(board_xy(rows, cols), xy)


def test_encode_shapes_and_board_mismatch():
    store = pol.init_params(CFG)
    probs = gen_problem_set(0, 3, 3, 3, 2)
    h = pol.encode(probs, store, CFG)
    assert h.shape == (3, 9, CFG.d_model)
    with pytest.raises(ContractViolation):
        pol.encode([probs[0], Problem(4, 4, 0, frozenset())], store, CFG)


def test_rollout_log_prob_matches_sequence_log_prob():
    policy = pol.DevFormerPolicy(pol.init_params(CFG), CFG)
    p = gen_problem_set(1, 1, 4, 4, 3)[0]
    placement, lp = policy.sample_placement(p, 3, make_rng(7))
    assert lp == pytest.approx(policy.placement_log_prob(p, placement),
                               abs=1e-12)
    g_placement, g_lp = policy.greedy_placement(p, 3)
    assert g_lp == pytest.approx(policy.placement_log_prob(p, g_placement),
                                 abs=1e-12)


def step_by_step_log_prob(problems, placements, store, cfg):
    """Reference: one decode() call per step, each on a freshly built
    decoder cache."""
    h = pol.encode(problems, store, cfg, training=True, update_running=False)
    bsz = len(problems)
    mask = np.stack([p.allowed_mask for p in problems])
    prev = np.full((bsz, 1), pol.START)
    total = None
    for t in range(len(placements[0])):
        actions = np.array([pl[t] for pl in placements])
        cache = pol.decoder_cache(h, problems, store, cfg)
        logp = ad.reshape(pol.decode(cache, prev, mask[:, None], store, cfg),
                          mask.shape)
        picked = ad.take_rows(logp, actions)
        total = picked if total is None else total + picked
        mask = mask.copy()
        mask[np.arange(bsz), actions] = False
        prev = actions[:, None]
    return total


@pytest.mark.parametrize("overrides,k", [
    ({}, 4), ({"ablated": True}, 3), ({}, 1)])
def test_one_pass_sequence_log_prob_matches_step_by_step(overrides, k):
    cfg = pol.toy_config(n_layers=1, d_model=16, n_heads=2, ff_dim=32,
                         **overrides)
    store = pol.init_params(cfg)
    problems = gen_problem_set(8, 3, 4, 4, 3)
    rng = make_rng(9)
    placements = [tuple(int(a) for a in rng.permutation(p.allowed_ports)[:k])
                  for p in problems]

    def value_and_grads(fn):
        store.zero_grad()
        lps = fn()
        ad.tensor_sum(lps).backward()
        return lps.data, {n: t.grad.copy() for n, t in store.params.items()
                          if t.grad is not None}

    one_pass = value_and_grads(lambda: pol.sequence_log_prob(
        problems, placements, store, cfg, training=True,
        update_running=False))
    reference = value_and_grads(lambda: step_by_step_log_prob(
        problems, placements, store, cfg))
    assert one_pass[0] == pytest.approx(reference[0], abs=1e-12)
    assert one_pass[1].keys() == reference[1].keys()
    # atol is the round-off floor for gradients that are zero in exact
    # arithmetic, e.g. the bias feeding a batch norm.
    for name, g in reference[1].items():
        np.testing.assert_allclose(one_pass[1][name], g, rtol=1e-10,
                                   atol=1e-12, err_msg=name)


def test_inference_records_no_tape(monkeypatch):
    # The live store requires grad; rollouts and placement_log_prob return
    # floats, so they must not record a tape for it.
    store = pol.init_params(CFG)
    policy = pol.DevFormerPolicy(store, CFG)
    p = gen_problem_set(1, 1, 4, 4, 3)[0]
    encodings = []
    real_encode = pol.encode

    def spy(*args, **kwargs):
        encodings.append(real_encode(*args, **kwargs))
        return encodings[-1]

    monkeypatch.setattr(pol, "encode", spy)
    placement, _ = policy.greedy_placement(p, 2)
    policy.placement_log_prob(p, placement)
    assert len(encodings) == 2
    assert not any(h.requires_grad for h in encodings)
    assert pol.sequence_log_prob([p], [placement], store, CFG).requires_grad


def _tape_buffers(out):
    """The distinct arrays a tape keeps alive: every node's data and every
    array its backward closure holds, each reduced to the buffer it views."""
    buffers, seen, stack = {}, set(), [out]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        arrays = [node.data]
        if node._backward is not None:
            arrays += [cell.cell_contents
                       for cell in node._backward.__closure__ or ()
                       if isinstance(cell.cell_contents, np.ndarray)]
        for a in arrays:
            while isinstance(a.base, np.ndarray):
                a = a.base
            buffers[id(a)] = a
        stack.extend(node._parents)
    return list(buffers.values())


def test_training_encode_tape_keeps_one_attention_and_hidden_buffer():
    # Per encoder layer the tape holds the attention probabilities, not the
    # raw or scaled scores, and the feed-forward ReLU output, not its
    # pre-activation. The sizes below collide with no other buffer.
    cfg = pol.toy_config(n_layers=2, d_model=8, n_heads=2, ff_dim=12)
    bsz, n = 3, 9
    problems = gen_problem_set(2, bsz, 3, 3, 2)
    h = pol.encode(problems, pol.init_params(cfg), cfg, training=True,
                   update_running=False)
    sizes = [a.size for a in _tape_buffers(h)]
    assert sizes.count(bsz * cfg.n_heads * n * n) == cfg.n_layers
    assert sizes.count(bsz * n * cfg.ff_dim) == cfg.n_layers


def test_greedy_rollout_deterministic():
    policy = pol.DevFormerPolicy(pol.init_params(CFG), CFG)
    p = gen_problem_set(2, 1, 4, 4, 3)[0]
    a = policy.greedy_placement(p, 4)
    b = policy.greedy_placement(p, 4)
    assert a == b


def test_rollout_masking_never_leaks():
    store = pol.init_params(CFG)
    rng = make_rng(3)
    for p in gen_problem_set(3, 20, 4, 4, 5):
        placement, _ = pol.rollout_batch([p], store, CFG, "sample", 4, rng)[0]
        blocked = p.keepout | {p.probe}
        assert len(set(placement)) == 4
        assert not blocked.intersection(placement)


def _choice_loop(probs, rng):
    """The per-row draw that _sample_actions replaces: the reference."""
    actions = np.empty(len(probs), dtype=np.int64)
    for i in range(len(probs)):
        p = probs[i] / probs[i].sum()
        actions[i] = rng.choice(len(p), p=p)
    return actions


def _sampler_cases():
    """(probs, feasible) pairs as rollout_batch makes them: exp of a masked
    log-softmax, so masked ports hold exact zeros. Rows with one feasible
    port (first, middle, last), logits rounded through float32 as in the
    paper preset, and B=1."""
    gen = make_rng(11)
    cases = []
    for bsz, n, dtype, scale in [(1, 2, np.float64, 1.0),
                                 (1, 100, np.float32, 4.0),
                                 (7, 9, np.float64, 1.0),
                                 (16, 25, np.float32, 8.0),
                                 (39, 119, np.float64, 2.0)]:
        feasible = gen.random((bsz, n)) < 0.6
        feasible[np.arange(bsz), gen.integers(n, size=bsz)] = True
        if bsz > 1:
            for row, port in zip(range(3), (0, n // 2, n - 1)):
                feasible[row] = False
                feasible[row, port] = True
        logits = (gen.normal(size=(bsz, n)) * scale).astype(dtype)
        logp = ad.masked_log_softmax(ad.Tensor(logits.astype(np.float64)),
                                     feasible).data
        cases.append((np.exp(logp), feasible))
    return cases


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_call_draw_matches_per_row_choice(seed):
    reference, one_call = make_rng(seed), make_rng(seed)
    for probs, feasible in _sampler_cases():
        assert (probs[~feasible] == 0.0).all()
        for _ in range(20):
            want = _choice_loop(probs, reference)
            got = pol._sample_actions(probs, feasible, one_call)
            assert np.array_equal(got, want)
    assert one_call.bit_generator.state == reference.bit_generator.state


def test_one_call_draw_rejects_non_finite_and_infeasible_draws():
    rng = make_rng(4)
    state = rng.bit_generator.state
    probs = np.full((2, 4), 0.25)
    probs[1, 2] = np.nan
    with pytest.raises(NumericFailure, match="non-finite cdf"):
        pol._sample_actions(probs, np.ones((2, 4), bool), rng)
    assert rng.bit_generator.state == state
    with pytest.raises(NumericFailure, match="infeasible port"):
        pol._sample_actions(np.full((2, 4), 0.25), np.zeros((2, 4), bool),
                            rng)


def test_sequence_log_prob_rejects_infeasible():
    store = pol.init_params(CFG)
    p = Problem(3, 3, 4, frozenset({0}))
    with pytest.raises(ContractViolation):
        pol.sequence_log_prob([p], [(0, 1)], store, CFG)
    with pytest.raises(ContractViolation):
        pol.sequence_log_prob([p], [(1, 1)], store, CFG)


def test_fresh_policy_has_order_bias():
    # A freshly initialized network is not order-symmetric: reorderings of
    # the same port set generally get different sequence probabilities.
    cfg = pol.toy_config(init_seed=11)
    policy = pol.DevFormerPolicy(pol.init_params(cfg), cfg)
    p = gen_problem_set(4, 1, 4, 4, 3)[0]
    placement, _ = policy.sample_placement(p, 3, make_rng(5))
    reordered = (placement[1], placement[2], placement[0])
    lp1 = policy.placement_log_prob(p, placement)
    lp2 = policy.placement_log_prob(p, reordered)
    assert not math.isclose(lp1, lp2, rel_tol=1e-9)


def test_zero_shot_board_and_k_transfer():
    # One checkpoint, three board sizes and placement lengths: pointer-style
    # decoding has no board-size-dependent parameters.
    policy = pol.DevFormerPolicy(pol.init_params(CFG), CFG)
    for rows, cols, k in ((4, 4, 3), (6, 6, 8), (3, 7, 5)):
        p = gen_problem_set(rows * 100 + cols, 1, rows, cols, 2)[0]
        placement, lp = policy.greedy_placement(p, k)
        assert len(placement) == k and lp < 0


def test_ablated_variants_run():
    for ablated in (False, True):
        cfg = pol.toy_config(n_layers=1, d_model=16, n_heads=2, ff_dim=32,
                             ablated=ablated)
        policy = pol.DevFormerPolicy(pol.init_params(cfg), cfg)
        p = gen_problem_set(5, 1, 3, 3, 2)[0]
        placement, lp = policy.greedy_placement(p, 2)
        assert len(placement) == 2 and np.isfinite(lp)


def test_policy_save_load_round_trip(tmp_path):
    store = pol.init_params(CFG)
    path = tmp_path / "policy.ckpt"
    pol.save_policy(path, store, CFG, meta={"tag": "test"})
    policy, meta = pol.load_policy(path)
    assert meta["tag"] == "test"
    p = gen_problem_set(6, 1, 4, 4, 3)[0]
    assert policy.greedy_placement(p, 3) == \
        pol.rollout_batch([p], store, CFG, "greedy", 3)[0]


def _with_ppe_bias(store):
    # a full-model checkpoint saved before ppe.b was deleted
    store.add("ppe.b", np.zeros(CFG.d_model))


@pytest.mark.parametrize("edit, named", [
    (_with_ppe_bias, "unexpected parameter ppe.b"),
    (lambda store: store.params.pop("ctx.b"), "missing parameter ctx.b"),
    (lambda store: store.params.update(start=ad.Tensor(np.zeros(17))),
     "parameter start has shape (17,), the model's (16,)"),
    (lambda store: store.add_buffer("enc0.bn3.mean", np.zeros(16)),
     "unexpected buffer enc0.bn3.mean"),
    (lambda store: store.buffers.pop("enc0.bn2.var"),
     "missing buffer enc0.bn2.var")],
    ids=["ppe.b", "no-ctx.b", "start-shape", "extra-buffer", "no-buffer"])
def test_load_policy_names_the_mismatch(tmp_path, edit, named):
    store = pol.init_params(CFG)
    edit(store)
    path = tmp_path / "policy.ckpt"
    pol.save_policy(path, store, CFG)
    with pytest.raises(ContractViolation) as exc:
        pol.load_policy(path)
    assert str(exc.value) == \
        f"checkpoint does not match its model config: {named}"


def _imitation_grads(problems, placements, cfg):
    store = pol.init_params(cfg)
    lp = pol.sequence_log_prob(problems, placements, store, cfg, training=True)
    ad.scale(ad.mean(lp), -1.0).backward()
    return lp.data, {n: t.grad for n, t in store.params.items()}


def test_float32_model_matches_float64():
    # The tolerances are 10x the worst of 20 seeds measured on this config
    # at K=3: 4.8e-6 on log pi, 2.8e-6 global relative gradient error.
    cfg64 = pol.toy_config(n_layers=2, d_model=16, n_heads=2, ff_dim=32,
                           init_seed=8)
    cfg32 = dataclasses.replace(cfg64, float32=True)
    probs = gen_problem_set(8, 6, 4, 4, 3)
    store = pol.init_params(cfg64)
    assert pol.encode(probs, store, cfg32).data.dtype == np.float32
    greedy = [pl for pl, _ in pol.rollout_batch(probs, store, cfg64,
                                                 "greedy", 3)]
    assert [pl for pl, _ in pol.rollout_batch(probs, store, cfg32,
                                               "greedy", 3)] == greedy
    lp64, g64 = _imitation_grads(probs, greedy, cfg64)
    lp32, g32 = _imitation_grads(probs, greedy, cfg32)
    assert lp32.dtype == np.float64
    np.testing.assert_allclose(lp32, lp64, rtol=0, atol=5e-5)
    assert all(g.dtype == np.float64 for g in g32.values())
    err = math.sqrt(sum(((g32[n] - g) ** 2).sum() for n, g in g64.items())
                    / sum((g ** 2).sum() for g in g64.values()))
    assert err < 3e-5


@pytest.mark.parametrize("cfg, board, k", [
    (pol.toy_config(), 5, 4),
    (pol.toy_config(ablated=True), 5, 4),
    (pol.ModelConfig(float32=False), 10, 20)],
    ids=["toy", "ablated-toy", "paper-float64"])
def test_no_dead_parameter(cfg, board, k):
    # Adam turns a gradient of pure round-off into lr-sized steps of random
    # sign. At init the weakest live parameter (the paper model's start
    # row) peaks near 1e-3 of the largest gradient entry; a bias that feeds
    # a training-mode batch norm only through a sum peaks near 1e-16.
    rng = make_rng(0)
    probs = gen_problem_set(0, 8, board, board, 2)
    placements = [tuple(rng.choice(p.allowed_ports, k, replace=False))
                  for p in probs]
    _, grads = _imitation_grads(probs, placements, cfg)
    peak = {n: 0.0 if g is None else float(np.abs(g).max())
            for n, g in grads.items()}
    top = max(peak.values())
    assert [n for n, v in peak.items() if v <= 1e-6 * top] == []


@pytest.mark.parametrize("cfg, board, k", [
    (pol.toy_config(), 5, 4),
    (pol.toy_config(ablated=True), 5, 4),
    (pol.ModelConfig(float32=False), 10, 20)],
    ids=["toy", "ablated-toy", "paper-float64"])
def test_no_redundant_bias(cfg, board, k):
    # Two biases added into one sum get one gradient and act as one bias
    # with a doubled Adam step; at most one bias may serve each sum.
    rng = make_rng(1)
    probs = gen_problem_set(1, 8, board, board, 2)
    placements = [tuple(rng.choice(p.allowed_ports, k, replace=False))
                  for p in probs]
    _, grads = _imitation_grads(probs, placements, cfg)
    biases = {n: g for n, g in grads.items() if n.endswith((".b", ".beta"))}
    pairs = [(a, b) for a, b in itertools.combinations(biases, 2)
             if biases[a].shape == biases[b].shape
             and np.abs(biases[a] - biases[b]).max()
             <= 1e-12 * max(np.abs(biases[a]).max(), np.abs(biases[b]).max())]
    assert pairs == []


def test_parameter_counts():
    def count(cfg):
        return sum(t.data.size for t in pol.init_params(cfg).params.values())

    assert count(pol.ModelConfig()) == 758_144
    assert count(pol.toy_config()) == 18_976
    assert count(pol.ModelConfig(ablated=True)) == 692_096
    assert count(pol.toy_config(ablated=True)) == 14_752
