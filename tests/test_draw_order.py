"""Golden placements for every search and sampling routine that draws from
the feasible ports of a board with keep-outs.

The values were recorded with fixed seeds; any change to which ports are
feasible, to their order, to the rng draws made from them or to how ties
break shows up here as a different placement.
"""

import numpy as np
import pytest

from decapbench import pdn
from decapbench.cli import greedy_sim_placement
from decapbench.env import Evaluator, Problem
from decapbench.search import GaConfig, ga_solve, random_search
from decapbench.training import SequentialUniformPolicy

PROBLEMS = {0: Problem(4, 4, 5, frozenset({0, 10, 15})),
            1: Problem(4, 4, 0, frozenset({3, 6, 9, 12})),
            2: Problem(4, 4, 14, frozenset({1, 2}))}

GOLDEN = {
    # seed: (random_search, ga_solve, greedy_sim_placement, uniform sample)
    0: ((4, 7, 1), (8, 4, 9, 12, 1), [1, 9, 6, 4], (13, 9, 7, 3)),
    1: ((2, 11, 4), (4, 2, 1, 14, 5), [1, 4, 5, 8], (8, 10, 13, 15)),
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
