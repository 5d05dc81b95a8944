import math

import numpy as np
import pytest

from decapbench import autodiff as ad
from decapbench import policy as pol
from decapbench import training as tr
from decapbench.env import Problem, gen_problem, gen_problem_set
from decapbench.errors import ContractViolation, NumericFailure
from decapbench.search import ExpertRecord, ga_solve, GaConfig

CFG = pol.toy_config(n_layers=1, d_model=16, n_heads=2, ff_dim=32)


def make_rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def test_ap_transform_is_reordering():
    rng = make_rng(0)
    a = (3, 1, 4, 9)
    for _ in range(20):
        t = tr.ap_transform(a, rng)
        assert sorted(t) == sorted(a)


def test_augment_size_and_port_sets():
    p = Problem(3, 3, 4, frozenset())
    recs = [ExpertRecord(p, (0, 1, 2), 1.0, 10, 0)]
    out = tr.augment(recs, p=4, seed=1)
    assert len(out) == 5
    assert out[0].placement == (0, 1, 2)
    assert all(sorted(r.placement) == [0, 1, 2] for r in out)


def test_self_loss_zero_against_self_with_identity():
    # With frozen == current parameters the two sequence probabilities are
    # computed along the identical code path, so any nonzero value could
    # only come from the transform. Force identity transforms by using
    # k=1 placements (a single action has one ordering).
    store = pol.init_params(CFG)
    probs = gen_problem_set(0, 4, 3, 3, 2)
    loss = tr.self_loss(probs, store, store, CFG, k=1, rng=make_rng(1))
    assert loss.data == 0.0


def test_self_loss_nonnegative_and_differentiable():
    store = pol.init_params(CFG)
    frozen = store.copy()
    probs = gen_problem_set(1, 3, 3, 3, 2)
    store.zero_grad()
    loss = tr.self_loss(probs, store, frozen, CFG, k=2, rng=make_rng(2))
    assert loss.data >= 0.0
    loss.backward()
    assert any(t.grad is not None and np.abs(t.grad).sum() > 0
               for t in store.params.values())


def test_total_loss_lambda_zero_skips_self_term(eval3):
    store = pol.init_params(CFG)
    p = gen_problem_set(2, 2, 3, 3, 2)
    batch = [ExpertRecord(q, tuple(sorted(q.allowed_ports)[:2]), 1.0, 1, 0)
             for q in p]
    loss, l_exp, l_self = tr.total_loss(batch, [], store, store, CFG,
                                        k=2, lambda_eff=0.0, rng=make_rng(3))
    assert l_self == 0.0 and loss.data == pytest.approx(l_exp)


def test_adam_reduces_expert_loss():
    store = pol.init_params(CFG)
    probs = gen_problem_set(3, 4, 3, 3, 2)
    batch = [ExpertRecord(q, tuple(sorted(q.allowed_ports)[:2]), 1.0, 1, 0)
             for q in probs]
    opt = tr.Adam(store, lr=1e-2)
    first = None
    for _ in range(30):
        store.zero_grad()
        loss = tr.expert_loss(batch, store, CFG)
        if first is None:
            first = loss.data
        loss.backward()
        opt.step()
    assert tr.expert_loss(batch, store, CFG).data < first * 0.8


def test_adam_in_place_step_equals_out_of_place_formula():
    rng = make_rng(21)
    store = ad.ParamStore()
    store.add("w", rng.normal(size=(4, 3)))
    store.add("b", rng.normal(size=3))
    opt = tr.Adam(store, lr=1e-2)
    ref = {n: t.data.copy() for n, t in store.params.items()}
    m = {n: np.zeros_like(p) for n, p in ref.items()}
    v = {n: np.zeros_like(p) for n, p in ref.items()}
    b1, b2, eps = opt.b1, opt.b2, opt.eps
    for t in range(1, 30):
        grads = {n: rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3)
                 for n, p in ref.items()}
        if t % 7 == 0:
            del grads["b"]          # a parameter without a gradient
        store.zero_grad()
        for n, g in grads.items():
            store[n].grad = g.copy()
        opt.step()
        for n, g in grads.items():
            m[n] = b1 * m[n] + (1 - b1) * g
            v[n] = b2 * v[n] + (1 - b2) * g * g
            mhat = m[n] / (1 - b1 ** t)
            vhat = v[n] / (1 - b2 ** t)
            ref[n] -= 1e-2 * mhat / (np.sqrt(vhat) + eps)
        for n in ref:
            assert np.array_equal(store[n].data, ref[n]), (t, n)
            assert np.array_equal(opt.m[n], m[n]), (t, n)
            assert np.array_equal(opt.v[n], v[n]), (t, n)


@pytest.mark.parametrize("field", ["batch_size", "k", "max_steps",
                                   "val_interval", "self_batch"])
@pytest.mark.parametrize("value", [0, -1])
def test_train_config_rejects_non_positive_counts(field, value):
    with pytest.raises(ContractViolation, match=field):
        tr.TrainConfig(**{field: value})


def test_order_bias_uniform_policy_exactly_zero():
    probs = gen_problem_set(4, 5, 4, 4, 3)
    est = tr.order_bias_estimate(tr.SequentialUniformPolicy(), probs,
                                 s=100, seed=0, k=3)
    assert est.value == 0.0
    assert est.sample_width == 100


def test_order_bias_positive_for_fresh_network():
    probs = gen_problem_set(5, 5, 4, 4, 3)
    policy = pol.DevFormerPolicy(pol.init_params(CFG), CFG)
    est = tr.order_bias_estimate(policy, probs, s=50, seed=1, k=3)
    assert est.value > 0.0


def test_order_bias_batched_scoring_matches_per_draw_loop():
    probs = gen_problem_set(5, 5, 4, 4, 3)
    policy = pol.DevFormerPolicy(pol.init_params(CFG), CFG)
    for seed in range(3):
        rng = make_rng(seed)
        terms = []
        for _ in range(20):
            prob = probs[int(rng.integers(len(probs)))]
            placement, lp = policy.sample_placement(prob, 3, rng)
            lp2 = policy.placement_log_prob(prob,
                                            tr.ap_transform(placement, rng))
            terms.append(abs(math.exp(lp) - math.exp(lp2)))
        est = tr.order_bias_estimate(policy, probs, s=20, seed=seed, k=3)
        assert est.value == pytest.approx(float(np.mean(terms)), rel=1e-12,
                                          abs=0)


class BiasedTwoStepPolicy:
    """Hand-built policy over ordered pairs with a known, closed-form
    order bias: first action uniform, second proportional to the port
    index among the remaining feasible ones."""

    def placement_log_prob(self, problem, placement):
        feas = sorted(problem.allowed_ports)
        a, b = placement
        rest = [x for x in feas if x != a]
        w = [x + 1.0 for x in rest]
        return math.log(1.0 / len(feas)) + \
            math.log(w[rest.index(b)] / sum(w))


def test_theorem_check_both_directions():
    # Symmetric direction: the uniform policy has exactly zero bias.
    p = Problem(2, 2, 0, frozenset())     # 3 feasible ports
    rep = tr.theorem_check(tr.SequentialUniformPolicy(), p, k=2)
    assert rep.order_bias == 0.0 and rep.is_symmetric and rep.consistent

    # Asymmetric direction: nonzero bias, with a counterexample pair.
    rep2 = tr.theorem_check(BiasedTwoStepPolicy(), p, k=2)
    assert rep2.order_bias > 0.0
    assert not rep2.is_symmetric and rep2.consistent
    assert rep2.counterexample is not None


def test_theorem_check_matches_hand_enumeration():
    p = Problem(2, 2, 0, frozenset())
    policy = BiasedTwoStepPolicy()
    rep = tr.theorem_check(policy, p, k=2)
    import itertools
    feas = [1, 2, 3]
    trajs = list(itertools.permutations(feas, 2))
    transforms = list(itertools.permutations(range(2)))
    expect = 0.0
    for a in trajs:
        pa = math.exp(policy.placement_log_prob(p, a))
        for t in transforms:
            ta = tuple(a[i] for i in t)
            pt = math.exp(policy.placement_log_prob(p, ta))
            expect += abs(pa - pt) / (len(trajs) * len(transforms))
    assert rep.order_bias == pytest.approx(expect, abs=1e-15)


def test_theorem_check_rejects_bad_weights():
    p = Problem(2, 2, 0, frozenset())
    with pytest.raises(ContractViolation):
        tr.theorem_check(tr.SequentialUniformPolicy(), p, k=2,
                         trajectory_weights=[0.0] * 6,
                         transform_weights=None)
    with pytest.raises(ContractViolation):
        tr.theorem_check(tr.SequentialUniformPolicy(),
                         Problem(3, 3, 0, frozenset()), k=2)  # 8 > 6 ports


def _tiny_dataset(eval3, n=6):
    probs = gen_problem_set(6, n, 3, 3, 2)
    return [ga_solve(q, 2, GaConfig(population=4, generations=2, elites=1,
                                    seed=i), eval3)
            for i, q in enumerate(probs)], probs


def test_train_smoke_and_log(eval3, tmp_path):
    recs, probs = _tiny_dataset(eval3)
    hashes = {p.canonical_hash() for p in probs}
    val = gen_problem_set(77, 4, 3, 3, 2, exclude_hashes=hashes)
    tcfg = tr.TrainConfig(learning_rate=1e-3, batch_size=4, permutations=1,
                          lambda_eff=10.0, k=2, val_size=4,
                          max_steps=20, val_interval=10, patience=5,
                          n_rows=3, n_cols=3, keepout_max=2, self_batch=2)
    res = tr.train(recs, tcfg, CFG, eval3, val, order_bias_samples=8)
    assert res.steps_run == 20
    assert res.best_val > 0
    assert res.final_store is not None
    assert [r["step"] for r in res.log_rows] == [10, 20]
    log_path = tmp_path / "log.csv"
    tr.write_train_log(log_path, res.log_rows)
    lines = log_path.read_text().splitlines()
    assert lines[0] == "step,train_nll,self_loss,val_J,order_bias"
    assert len(lines) == 3


def test_train_nan_after_relu_reaches_non_finite_guard(eval3):
    # relu propagates NaN, so a NaN feed-forward bias makes the loss
    # non-finite instead of being zeroed away.
    recs, probs = _tiny_dataset(eval3, n=4)
    hashes = {p.canonical_hash() for p in probs}
    val = gen_problem_set(79, 2, 3, 3, 2, exclude_hashes=hashes)
    tcfg = tr.TrainConfig(batch_size=4, permutations=1, lambda_eff=0.0, k=2,
                          val_size=2, max_steps=1, n_rows=3, n_cols=3,
                          keepout_max=2)
    store = pol.init_params(CFG)
    store["enc0.ff1.b"].data[0] = np.nan
    with pytest.raises(NumericFailure):
        tr.train(recs, tcfg, CFG, eval3, val, store=store)


@pytest.mark.parametrize("max_steps, patience", [(7, 5), (40, 1)],
                         ids=["max-steps", "patience"])
def test_last_log_row_validates_final_store(eval3, max_steps, patience):
    # directional_experiment reads final_j from the last log row instead of
    # validating the final parameters again
    recs, probs = _tiny_dataset(eval3, n=4)
    hashes = {p.canonical_hash() for p in probs}
    val = gen_problem_set(80, 3, 3, 3, 2, exclude_hashes=hashes)
    tcfg = tr.TrainConfig(learning_rate=5e-2, batch_size=4, permutations=1,
                          lambda_eff=10.0, k=2, val_size=3,
                          max_steps=max_steps, val_interval=3,
                          patience=patience, n_rows=3, n_cols=3,
                          keepout_max=2, self_batch=2, seed=2)
    res = tr.train(recs, tcfg, CFG, eval3, val, order_bias_samples=4)
    stopped_early = res.steps_run < max_steps
    assert stopped_early == (patience == 1)
    assert res.log_rows[-1]["step"] == res.steps_run
    assert res.log_rows[-1]["val_J"] == tr.validate(res.final_store, CFG,
                                                    eval3, val, tcfg.k)


def test_train_rejects_val_overlap(eval3):
    recs, probs = _tiny_dataset(eval3, n=3)
    tcfg = tr.TrainConfig(n_rows=3, n_cols=3, k=2, max_steps=1,
                          batch_size=1, val_size=1)
    with pytest.raises(ContractViolation):
        tr.train(recs, tcfg, CFG, eval3, [probs[0]])


def test_train_deterministic_given_seed(eval3):
    recs, probs = _tiny_dataset(eval3, n=4)
    hashes = {p.canonical_hash() for p in probs}
    val = gen_problem_set(78, 3, 3, 3, 2, exclude_hashes=hashes)
    tcfg = tr.TrainConfig(learning_rate=1e-3, batch_size=4, permutations=1,
                          lambda_eff=10.0, k=2, val_size=3,
                          max_steps=6, val_interval=3, patience=5,
                          n_rows=3, n_cols=3, keepout_max=2, self_batch=2,
                          seed=9)
    a = tr.train(recs, tcfg, CFG, eval3, val, order_bias_samples=4)
    b = tr.train(recs, tcfg, CFG, eval3, val, order_bias_samples=4)
    assert a.log_rows == b.log_rows
    for name in a.store.params:
        assert np.array_equal(a.store[name].data, b.store[name].data)


def test_self_problem_stream_same_draws_and_bounded(run_with_timeout):
    cfg = tr.TrainConfig(n_rows=2, n_cols=2, keepout_max=1)
    excluded = {p.canonical_hash() for p in gen_problem_set(0, 10, 2, 2, 1)}
    stream = tr._self_problem_stream(cfg, excluded, make_rng(3))
    drawn = [next(stream) for _ in range(20)]
    rng = make_rng(3)
    expect = []
    while len(expect) < 20:
        p = gen_problem(rng, 2, 2, 1)
        if p.canonical_hash() not in excluded:
            expect.append(p)
    assert drawn == expect
    every = {p.canonical_hash() for p in gen_problem_set(0, 16, 2, 2, 1)}
    stream = tr._self_problem_stream(cfg, every, make_rng(3))
    assert isinstance(run_with_timeout(lambda: next(stream)),
                      ContractViolation)


def test_train_rejects_dataset_smaller_than_batch(eval3):
    recs, probs = _tiny_dataset(eval3, n=4)
    hashes = {p.canonical_hash() for p in probs}
    val = gen_problem_set(80, 2, 3, 3, 2, exclude_hashes=hashes)
    # 4 records with 4 reordered copies each augment to 20 rows < 25
    tcfg = tr.TrainConfig(batch_size=25, permutations=4, lambda_eff=0.0, k=2,
                          max_steps=1, n_rows=3, n_cols=3, keepout_max=2)
    with pytest.raises(ContractViolation, match="batch size"):
        tr.train(recs, tcfg, CFG, eval3, val)


def _reference_self_loss(problems, store, frozen, cfg, k, rng):
    """The self-term with a separate training-mode encode of the snapshot,
    as computed before the two branches shared one encode."""
    samples = pol.rollout_batch(problems, frozen, cfg, "sample", k, rng)
    placements = [s[0] for s in samples]
    transformed = [tr.ap_transform(pl, rng) for pl in placements]
    l_frozen = pol.sequence_log_prob(problems, placements, frozen, cfg,
                                     training=True, update_running=False).data
    l_theta = pol.sequence_log_prob(problems, transformed, store, cfg,
                                    training=True, update_running=False)
    c = np.maximum(l_frozen, l_theta.data)
    gap = ad.absolute(ad.Tensor(np.exp(l_frozen - c))
                      - ad.exp(l_theta + ad.Tensor(-c)))
    return ad.mean(ad.mul(ad.Tensor(np.exp(c)), gap))


def _reference_train(records, tcfg, mcfg, evaluator, val, order_bias_samples):
    """train() as a loop that copies the parameters into a snapshot at the
    start of every step and computes the imitation loss first; every step
    is validated."""
    data = tr.augment(records, tcfg.permutations, seed=tcfg.seed)
    rng = make_rng(tcfg.seed + 1)
    stream = tr._self_problem_stream(
        tcfg, {p.canonical_hash() for p in val}, rng)
    store = pol.init_params(mcfg)
    opt = tr.Adam(store, tcfg.learning_rate)
    order, rows = [], []
    for step_i in range(1, tcfg.max_steps + 1):
        if len(order) < tcfg.batch_size:
            order = list(rng.permutation(len(data)))
        batch = [data[order.pop()] for _ in range(tcfg.batch_size)]
        frozen = store.copy()
        problems = [next(stream) for _ in range(tcfg.self_batch)]
        l_exp = tr.expert_loss(batch, store, mcfg)
        l_self = _reference_self_loss(problems, store, frozen, mcfg, tcfg.k,
                                      rng)
        loss = l_exp + ad.scale(l_self, tcfg.lambda_eff)
        store.zero_grad()
        loss.backward()
        opt.step()
        bias = tr.order_bias_estimate(pol.DevFormerPolicy(store, mcfg), val,
                                      order_bias_samples, seed=tcfg.seed + 2,
                                      k=tcfg.k)
        rows.append({"step": step_i, "train_nll": float(l_exp.data),
                     "self_loss": float(l_self.data),
                     "val_J": tr.validate(store, mcfg, evaluator, val,
                                          tcfg.k),
                     "order_bias": bias.value})
    return store, rows


def test_train_shared_encode_matches_snapshot_loop(eval3):
    recs, probs = _tiny_dataset(eval3, n=6)
    hashes = {p.canonical_hash() for p in probs}
    val = gen_problem_set(81, 3, 3, 3, 2, exclude_hashes=hashes)
    # The running batch-norm statistics move by a tenth of the gap per
    # step, so reading them after the imitation loss changes only a few
    # sampled actions; 128 self-term problems per step make such a change
    # show in every seed tried (0-7).
    tcfg = tr.TrainConfig(learning_rate=1e-2, batch_size=4, permutations=1,
                          lambda_eff=10.0, k=2, val_size=3, max_steps=3,
                          val_interval=1, patience=10, n_rows=3, n_cols=3,
                          keepout_max=2, self_batch=128, seed=4)
    res = tr.train(recs, tcfg, CFG, eval3, val, order_bias_samples=8)
    store, rows = _reference_train(recs, tcfg, CFG, eval3, val, 8)
    assert res.steps_run == 3
    assert res.log_rows == rows
    assert all(r["self_loss"] > 0.0 for r in rows)
    for name, t in store.params.items():
        assert np.array_equal(res.final_store[name].data, t.data), name
    for name, b in store.buffers.items():
        assert np.array_equal(res.final_store.buffers[name], b), name


def test_self_loss_shared_encode_matches_explicit_snapshot():
    store = pol.init_params(CFG)
    probs = gen_problem_set(12, 6, 4, 4, 3)

    def loss_and_grads(frozen):
        store.zero_grad()
        loss = tr.self_loss(probs, store, frozen, CFG, k=3, rng=make_rng(5))
        loss.backward()
        return loss.data, {n: t.grad.copy() for n, t in store.params.items()
                           if t.grad is not None}

    shared = loss_and_grads(None)
    explicit = loss_and_grads(store.copy())
    assert shared[0] > 0.0
    assert shared[0] == explicit[0]
    assert shared[1].keys() == explicit[1].keys() and shared[1]
    for name, g in explicit[1].items():
        assert np.array_equal(shared[1][name], g), name


def test_self_term_step_runs_three_encodes(eval3, monkeypatch):
    # one eval-mode encode for the rollout, one training-mode encode shared
    # by both self-term branches, one for the imitation loss
    calls = []
    encode, total_loss = pol.encode, tr.total_loss

    def counted_encode(*args, **kwargs):
        calls.append(1)
        return encode(*args, **kwargs)

    per_step = []

    def counted_total_loss(*args, **kwargs):
        before = len(calls)
        out = total_loss(*args, **kwargs)
        per_step.append(len(calls) - before)
        return out

    monkeypatch.setattr(pol, "encode", counted_encode)
    monkeypatch.setattr(tr, "total_loss", counted_total_loss)
    recs, probs = _tiny_dataset(eval3, n=4)
    hashes = {p.canonical_hash() for p in probs}
    val = gen_problem_set(82, 2, 3, 3, 2, exclude_hashes=hashes)
    tcfg = tr.TrainConfig(batch_size=4, permutations=1, lambda_eff=10.0, k=2,
                          max_steps=2, val_interval=10, n_rows=3, n_cols=3,
                          keepout_max=2, self_batch=2)
    tr.train(recs, tcfg, CFG, eval3, val, order_bias_samples=2)
    assert per_step == [3, 3]
