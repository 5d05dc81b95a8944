"""Acceptance suite: one test per criterion, each printable as a single
pass/fail line via `pytest -v tests/test_acceptance.py`.

Every numeric target is checked against an oracle computed independently in
this file (dense nodal re-solves, brute-force enumeration, hand enumeration)
or against a deterministic seeded experiment whose direction is asserted.
"""

import itertools
import math

import numpy as np
import pytest

from decapbench import autodiff as ad
from decapbench import pdn
from decapbench import policy as pol
from decapbench import training as tr
from decapbench.cli import main as cli_main, min_k_for_target
from decapbench.env import Evaluator, gen_problem_set
from decapbench.search import (ExpertRecord, GaConfig, exhaustive_best,
                               ga_solve, random_search)
from order_bias_reference import SequentialUniformPolicy, theorem_check

TWO_PI = 2.0 * np.pi
SHORT_GRID = pdn.make_freq_grid(21, 2.0e8, 2.0e10)


# --- criterion 1: simulator oracle equivalence ---------------------------------

def _oracle_profiles(config, probe, decap_ports):
    """|Z_probe|(f) by dense nodal re-solve with decaps stamped as shunts,
    batched over the full frequency grid. Independent of the package's
    sparse assembly and Schur code paths."""
    chip = config.stack.chip
    rows, cols, cell = chip.n_rows, chip.n_cols, chip.cell
    n = rows * cols
    freqs = config.grid.points
    w = TWO_PI * freqs
    y = np.zeros((len(freqs), n, n), dtype=complex)
    y_series = 1.0 / (cell.resistance_ohm + 1j * w * cell.inductance_henry)
    y_shunt = cell.conductance_siemens + 1j * w * cell.capacitance_farad
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            y[:, i, i] += y_shunt
            for rr, cc in ((r, c + 1), (r + 1, c)):
                if rr < rows and cc < cols:
                    j = rr * cols + cc
                    y[:, i, i] += y_series
                    y[:, j, j] += y_series
                    y[:, i, j] -= y_series
                    y[:, j, i] -= y_series
    zd = pdn.decap_impedance(config.decap, freqs)
    for p in decap_ports:
        y[:, p, p] += 1.0 / zd
    rhs = np.zeros((len(freqs), n), dtype=complex)
    rhs[:, probe] = 1.0
    v = np.linalg.solve(y, rhs[:, :, None])[:, :, 0]
    return np.abs(v[:, probe])


def test_01_simulator_oracle_equivalence():
    rng = np.random.Generator(np.random.PCG64(101))
    n_checked = 0
    boards = [(r, c) for r in range(1, 6) for c in range(1, 6) if r * c >= 3]
    for rows, cols in boards:
        config = pdn.chip_only_config(rows, cols)
        assert len(config.grid) == 201
        n = rows * cols
        sweep = pdn.solve_z_ports(config.stack, range(n), config.grid)
        for _ in range(3):
            probe = int(rng.integers(n))
            others = [p for p in range(n) if p != probe]
            k = int(rng.integers(1, min(4, len(others)) + 1))
            ports = [int(p) for p in rng.choice(others, size=k,
                                                replace=False)]
            fast = pdn.attach_decaps(sweep, probe, ports, config.decap)
            slow = _oracle_profiles(config, probe, ports)
            rel = np.abs(fast - slow) / np.abs(slow)
            assert rel.max() < 1e-8, (rows, cols, probe, ports, rel.max())
            n_checked += 1
            if n_checked == 50:
                return
    assert n_checked >= 50


# --- criterion 2: objective symmetry --------------------------------------------

def test_02_objective_permutation_bit_identical():
    ev = Evaluator(pdn.chip_only_config(10, 10))
    probs = gen_problem_set(202, 10, 10, 10, 15)
    rng = np.random.Generator(np.random.PCG64(202))
    for i in range(100):
        p = probs[i % len(probs)]
        feas = p.allowed_ports
        k = int(rng.integers(2, 21))
        a = [int(x) for x in rng.choice(feas, size=k, replace=False)]
        t = list(rng.permutation(k))
        ta = [a[j] for j in t]
        assert ev.evaluate(p, a) == ev.evaluate(p, ta)


# --- criterion 3: small-instance optimality --------------------------------------

def test_03_small_instance_optimality():
    ev = Evaluator(pdn.chip_only_config(3, 3, SHORT_GRID))
    for p in gen_problem_set(303, 10, 3, 3, 3):
        feas = p.allowed_ports
        for k in (1, 2):
            if len(feas) < k:
                continue
            got = exhaustive_best(p, k, ev)
            brute = max(ev.evaluate(p, c)
                        for c in itertools.combinations(feas, k))
            assert got.score == brute


# --- criterion 4: GA contract ------------------------------------------------------

def test_04_ga_contract():
    ev = Evaluator(pdn.chip_only_config(10, 10, SHORT_GRID))
    # best-ever monotone per generation: seeded prefix runs share the RNG
    # stream, so growing the generation count extends the same trajectory.
    probs = gen_problem_set(404, 5, 10, 10, 15)
    for seed in range(10):
        for p in probs:
            best = [ga_solve(p, 6, GaConfig(6, g, 2, seed=seed), ev).score
                    for g in (1, 2, 3)]
            assert best[0] <= best[1] <= best[2]
    # exact P0*G evaluation accounting
    before = ev.count
    ga_solve(probs[0], 6, GaConfig(20, 5, 4, seed=0), ev)
    assert ev.count - before == 100
    # directional: mean GA(M=100) >= mean RS(M=100) at K=20, 20 problems
    probs20 = gen_problem_set(4, 20, 10, 10, 15)
    ga = [ga_solve(p, 20, GaConfig(20, 5, 4, seed=100 + i), ev).score
          for i, p in enumerate(probs20)]
    rs = [random_search(p, 20, 100, ev, seed=200 + i).score
          for i, p in enumerate(probs20)]
    assert np.mean(ga) >= np.mean(rs)


# --- criterion 5: gradient integrity --------------------------------------------------

def test_05_full_loss_gradient_check():
    cfg = pol.toy_config(n_layers=1, d_model=16, n_heads=2, ff_dim=32,
                         init_seed=55)
    store = pol.init_params(cfg)
    frozen = pol.init_params(pol.toy_config(n_layers=1, d_model=16,
                                            n_heads=2, ff_dim=32,
                                            init_seed=56))
    probs = gen_problem_set(505, 2, 3, 3, 2)
    batch = [ExpertRecord(p, tuple(sorted(p.allowed_ports)[:2]), 1.0, 1, 0)
             for p in probs]
    self_probs = gen_problem_set(506, 2, 3, 3, 2)

    def fn():
        rng = np.random.Generator(np.random.PCG64(57))
        loss, _, _ = tr.total_loss(batch, self_probs, store, frozen, cfg,
                                   k=2, lambda_eff=10.0, rng=rng)
        return loss

    # eps = 1e-5 keeps the odds of a central difference straddling a
    # relu/absolute-value kink negligible while staying far above the
    # double-precision noise floor.
    err = ad.grad_check(fn, store, eps=1e-5, subsample_above=10 ** 9)
    assert err < 1e-4, err


# --- criterion 6: masking soundness ----------------------------------------------------

def test_06_masking_soundness_exact():
    cfg = pol.toy_config(n_layers=1, d_model=16, n_heads=2, ff_dim=32)
    store = pol.init_params(cfg)
    base = gen_problem_set(606, 50, 4, 4, 5)
    problems = [p for p in base for _ in range(20)]   # 1000 rollouts
    rng = np.random.Generator(np.random.PCG64(607))
    bsz = len(problems)
    h = pol.encode(problems, store, cfg)
    mask = np.stack([p.allowed_mask for p in problems])
    blocked = np.zeros_like(mask)
    for i, p in enumerate(problems):
        blocked[i, [p.probe, *p.keepout]] = True
    cache = pol.decoder_cache(h, problems, store, cfg)
    prev = np.full((bsz, 1), pol.START)
    k = 4
    for _ in range(k):
        logp = pol.decode(cache, prev, mask[:, None], store, cfg)
        probs = np.exp(logp.data[:, 0])
        # zero mass on probe, keep-out, and already chosen ports — exact
        assert np.all(probs[~mask] == 0.0)
        assert np.all(probs[blocked] == 0.0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        actions = np.empty(bsz, dtype=np.int64)
        for i in range(bsz):
            pr = probs[i] / probs[i].sum()
            actions[i] = rng.choice(len(pr), p=pr)
        assert mask[np.arange(bsz), actions].all()
        mask = mask.copy()
        mask[np.arange(bsz), actions] = False
        prev = actions[:, None]


# --- criterion 7: order-bias estimator correctness ---------------------------------------

class _AsymmetricPairPolicy:
    """Closed-form policy on ordered pairs: first action uniform over the
    feasible ports, second proportional to (port index + 1) among the rest."""

    def placement_log_prob(self, problem, placement):
        feas = sorted(problem.allowed_ports)
        a, b = placement
        rest = [x for x in feas if x != a]
        w = [x + 1.0 for x in rest]
        return math.log(1.0 / len(feas)) + math.log(w[rest.index(b)] / sum(w))

    def sample_placement(self, problem, k, rng):
        feas = sorted(problem.allowed_ports)
        a = int(feas[int(rng.integers(len(feas)))])
        rest = [x for x in feas if x != a]
        w = np.array([x + 1.0 for x in rest])
        b = int(rng.choice(rest, p=w / w.sum()))
        return (a, b), self.placement_log_prob(problem, (a, b))


def test_07_order_bias_estimator_correctness():
    # symmetric direction: exactly zero for any sample width / seed / board
    uniform = SequentialUniformPolicy()
    for seed, s, board in ((0, 10, (3, 3)), (1, 100, (4, 4)), (2, 7, (2, 3))):
        probs = gen_problem_set(700 + seed, 4, board[0], board[1], 2)
        assert tr.order_bias_estimate(uniform, probs, s, seed, k=2).value == 0.0
        rep = theorem_check(uniform, probs[0], k=2) \
            if len(probs[0].allowed_ports) <= 6 else None
        if rep is not None:
            assert rep.order_bias == 0.0 and rep.is_symmetric and rep.consistent

    # asymmetric direction on the 4-port, K=2 board: theorem_check equals an
    # independent exhaustive enumeration within 1e-12
    from decapbench.env import Problem
    p4 = Problem(2, 2, 0, frozenset())
    policy = _AsymmetricPairPolicy()
    rep = theorem_check(policy, p4, k=2)
    feas = [1, 2, 3]
    trajs = list(itertools.permutations(feas, 2))
    transforms = list(itertools.permutations(range(2)))
    expect = sum(abs(math.exp(policy.placement_log_prob(p4, a))
                     - math.exp(policy.placement_log_prob(
                         p4, tuple(a[i] for i in t))))
                 for a in trajs for t in transforms) \
        / (len(trajs) * len(transforms))
    assert abs(rep.order_bias - expect) < 1e-12
    assert rep.order_bias > 0 and not rep.is_symmetric and rep.consistent
    assert rep.counterexample is not None


# --- criteria 8 and 9: directional training experiments -----------------------------------

@pytest.fixture(scope="module")
def toy_experiment():
    """Per-seed runs of the 5x5/K=4/N=50 experiment. Arms: 'cse' (toy
    preset), 'il' (self-loss weight zero), 'ablated' (toy preset without
    PPE/PCN/RCN). Equal step budgets everywhere."""
    return tr.directional_experiment(range(5), ("cse", "il", "ablated"))


def test_08_cse_directional_effect(toy_experiment):
    runs = toy_experiment
    bias_wins = sum(runs[("cse", s)]["bias"] < runs[("il", s)]["bias"]
                    for s in range(5))
    j_wins = sum(runs[("cse", s)]["final_j"] >= runs[("il", s)]["final_j"]
                 for s in range(5))
    assert bias_wins >= 4, [(runs[("cse", s)]["bias"],
                             runs[("il", s)]["bias"]) for s in range(5)]
    assert j_wins >= 3, [(runs[("cse", s)]["final_j"],
                          runs[("il", s)]["final_j"]) for s in range(5)]


def test_09_architecture_ablation_direction(toy_experiment):
    runs = toy_experiment
    wins = sum(runs[("cse", s)]["best_val"] >= runs[("ablated", s)]["best_val"]
               for s in range(5))
    assert wins >= 3, [(runs[("cse", s)]["best_val"],
                        runs[("ablated", s)]["best_val"]) for s in range(5)]


# --- criterion 10: zero-shot transfer -------------------------------------------------------

def test_10_zero_shot_transfer(tmp_path):
    ev10 = Evaluator(pdn.chip_only_config(10, 10, SHORT_GRID))
    probs = gen_problem_set(1000, 10, 10, 10, 15)
    records = [ga_solve(p, 8, GaConfig(10, 3, 2, seed=i), ev10)
               for i, p in enumerate(probs)]
    val = gen_problem_set(1001, 5, 10, 10, 15,
                          {p.canonical_hash() for p in probs})
    tcfg = tr.TrainConfig(learning_rate=1e-3, batch_size=10, permutations=2,
                          lambda_eff=0.0, max_steps=40, val_interval=20,
                          patience=10)
    mcfg = pol.toy_config()
    res = tr.train(records, tcfg, mcfg, ev10, val, keepout_max=15)
    ckpt = tmp_path / "model10.ckpt"
    pol.save_policy(ckpt, res.store, mcfg)
    policy, _ = pol.load_policy(ckpt)

    ev15 = Evaluator(pdn.chip_only_config(15, 15, SHORT_GRID))
    test15 = gen_problem_set(1002, 5, 15, 15, 10)
    for k in (6, 12):
        scores = []
        for p in test15:
            placement, _ = policy.greedy_placement(p, k)
            blocked = p.keepout | {p.probe}
            assert len(set(placement)) == k
            assert not blocked.intersection(placement)
            scores.append(ev15.evaluate(p, placement))
        assert np.mean(scores) > 0


# --- criterion 11: min-K correctness ----------------------------------------------------------

def test_11_min_k_matches_exhaustive():
    ev = Evaluator(pdn.chip_only_config(3, 3, SHORT_GRID))
    probs = gen_problem_set(7, 20, 3, 3, 3)
    rng = np.random.Generator(np.random.PCG64(11))
    for p in probs:
        feas = p.allowed_ports
        k_max = min(3, len(feas))
        best = max(ev.evaluate(p, c)
                   for c in itertools.combinations(feas, k_max))
        target = float(rng.uniform(0.2, 1.0)) * best
        exhaustive = None
        for k in range(1, k_max + 1):
            if any(ev.evaluate(p, c) >= target
                   for c in itertools.combinations(feas, k)):
                exhaustive = k
                break
        rec = min_k_for_target(p, target, k_max, ev)
        assert rec["met"] and rec["min_k"] == exhaustive
    # trivial boundary: J* = 0 always met with K = 0
    rec = min_k_for_target(probs[0], 0.0, 3, ev)
    assert rec["min_k"] == 0 and rec["met"]


# --- criterion 12: reproducibility -------------------------------------------------------------

def test_12_reproducibility(tmp_path):
    argv = ["gen", "--rows", "4", "--cols", "4", "--train", "3", "--val", "2",
            "--test", "2", "--keepout-max", "3", "--expert", "--k", "2",
            "--ga-population", "4", "--ga-generations", "2",
            "--ga-elites", "1", "--seed", "12"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(argv + ["--out", str(d1)]) == 0
    assert cli_main(argv + ["--out", str(d2)]) == 0
    for name in ("train_problems.json", "val_problems.json",
                 "test_problems.json", "expert_dataset.jsonl"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    # checkpoints round-trip bit-exactly
    cfg = pol.toy_config(n_layers=1, d_model=16, n_heads=2, ff_dim=32)
    store = pol.init_params(cfg)
    p1, p2 = tmp_path / "m1.ckpt", tmp_path / "m2.ckpt"
    pol.save_policy(p1, store, cfg, meta={"k": 2})
    loaded, _ = pol.load_policy(p1)
    pol.save_policy(p2, loaded.store, cfg, meta={"k": 2})
    assert p1.read_bytes() == p2.read_bytes()
