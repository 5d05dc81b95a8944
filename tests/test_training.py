import math

import numpy as np
import pytest

from decapbench import autodiff as ad
from decapbench import policy as pol
from decapbench import training as tr
from decapbench.env import Problem, gen_problem, gen_problem_set
from decapbench.errors import ContractViolation
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
                          lambda_eff=10.0, k=2, n_train=6, val_size=4,
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
                          lambda_eff=10.0, k=2, n_train=4, val_size=3,
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
