"""Golden placements for every search and sampling routine that draws from
the feasible ports of a board with keep-outs, and for DevFormer rollouts.

The values were recorded with fixed seeds; any change to which ports are
feasible, to their order, to the rng draws made from them or to how ties
break shows up here as a different placement.
"""

import numpy as np
import pytest

from decapbench import pdn
from decapbench import policy as pol
from decapbench.cli import greedy_sim_placement
from decapbench.env import Evaluator, Problem
from decapbench.search import GaConfig, ga_solve, random_search
from order_bias_reference import SequentialUniformPolicy

PROBLEMS = {0: Problem(4, 4, 5, frozenset({0, 10, 15})),
            1: Problem(4, 4, 0, frozenset({3, 6, 9, 12})),
            2: Problem(4, 4, 14, frozenset({1, 2}))}

GOLDEN = {
    # seed: (random_search, ga_solve, greedy_sim_placement, uniform sample)
    0: ((4, 7, 1), (8, 4, 9, 12, 1), [1, 9, 6, 4], (13, 9, 7, 3)),
    1: ((2, 11, 4), (4, 2, 1, 14, 5), [1, 4, 5, 2], (8, 10, 13, 15)),
    2: ((15, 13, 10), (15, 13, 8, 4, 10), [10, 15, 13, 9], (12, 5, 3, 6)),
}


@pytest.fixture(scope="module")
def eval4():
    return Evaluator(pdn.chip_only_config(
        4, 4, pdn.make_freq_grid(21, 2.0e8, 2.0e10)))


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_placements_match_golden(eval4, seed):
    p = PROBLEMS[seed]
    rs, ga, greedy, uniform = GOLDEN[seed]
    assert random_search(p, 3, 12, eval4, seed=seed).placement == rs
    # k=5 from 12-13 ports: crossover makes duplicates, so mutate_dedup
    # draws replacements.
    cfg = GaConfig(population=8, generations=4, elites=2, seed=seed)
    assert ga_solve(p, 5, cfg, eval4).placement == ga
    assert greedy_sim_placement(p, 4, eval4) == greedy
    rng = np.random.Generator(np.random.PCG64(seed))
    placement, lp = SequentialUniformPolicy().sample_placement(p, 4, rng)
    assert placement == uniform
    m = len(p.allowed_ports)
    assert lp == pytest.approx(-np.log(m * (m - 1) * (m - 2) * (m - 3)),
                               abs=1e-12)


# Batched DevFormer rollouts over the three PROBLEMS with a fresh small
# model: (placement, repr of its rollout log-probability, repr of its
# teacher-forced sequence_log_prob). The decoder's masking, query and
# tie-breaking logic is pinned down to the last bit.
DEVFORMER_GOLDEN = {
    "greedy": [((3, 7, 11, 2), "-9.121177554719539", "-9.121177554719539"),
               ((15, 11, 14, 7), "-8.547693589582275", "-8.547693589582275"),
               ((3, 7, 0, 6), "-9.44208373413891", "-9.44208373413891")],
    0: [((9, 1, 11, 14), "-9.415215075493837", "-9.415215075493835"),
        ((5, 14, 11, 13), "-8.875610515630202", "-8.875610515630203"),
        ((0, 13, 8, 3), "-9.677401921557616", "-9.677401921557616")],
    1: [((8, 14, 12, 1), "-9.499575275455168", "-9.499575275455168"),
        ((15, 5, 7, 13), "-8.818921067172152", "-8.818921067172152"),
        ((3, 7, 9, 10), "-9.598229255580815", "-9.598229255580815")],
    2: [((4, 2, 3, 11), "-9.279105838086899", "-9.279105838086897"),
        ((5, 11, 1, 10), "-9.090524190910898", "-9.090524190910898"),
        ((12, 10, 4, 3), "-9.747944206869697", "-9.747944206869697")],
}


@pytest.mark.parametrize("mode", sorted(DEVFORMER_GOLDEN, key=str))
def test_devformer_rollouts_match_golden(mode):
    cfg = pol.toy_config(n_layers=1, d_model=16, n_heads=2, ff_dim=32)
    store = pol.init_params(cfg)
    problems = [PROBLEMS[s] for s in sorted(PROBLEMS)]
    if mode == "greedy":
        out = pol.rollout_batch(problems, store, cfg, "greedy", 4)
    else:
        rng = np.random.Generator(np.random.PCG64(mode))
        out = pol.rollout_batch(problems, store, cfg, "sample", 4, rng)
    seq = pol.sequence_log_prob(problems, [pl for pl, _ in out], store,
                                cfg).data
    got = [(pl, repr(lp), repr(float(s))) for (pl, lp), s in zip(out, seq)]
    assert got == DEVFORMER_GOLDEN[mode]
