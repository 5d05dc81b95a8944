"""The order-bias reference of test 07, the training tests and the
draw-order goldens: a policy that is exactly order-unbiased, and an exact
order-bias checker that enumerates every trajectory and reordering on a
tiny board."""

import itertools
import math
from dataclasses import dataclass

from decapbench.env import Problem
from decapbench.errors import ContractViolation


class SequentialUniformPolicy:
    """Uniform over feasible ports at every step; exactly order-unbiased."""

    def sample_placement(self, problem: Problem, k: int, rng):
        lp = 0.0
        chosen = []
        for _ in range(k):
            feas = [a for a in problem.allowed_ports if a not in chosen]
            a = int(feas[int(rng.integers(len(feas)))])
            lp += math.log(1.0 / len(feas))
            chosen.append(a)
        return tuple(chosen), lp

    def placement_log_prob(self, problem: Problem, placement) -> float:
        m = len(problem.allowed_ports)
        if len(set(placement)) != len(placement):
            raise ContractViolation("placement must be distinct")
        return float(sum(math.log(1.0 / (m - t)) for t in range(len(placement))))

    def placement_log_probs(self, problems, placements) -> list:
        return [self.placement_log_prob(p, pl)
                for p, pl in zip(problems, placements)]


@dataclass(frozen=True)
class TheoremReport:
    order_bias: float
    is_symmetric: bool
    n_trajectories: int
    counterexample: tuple | None
    consistent: bool


def theorem_check(policy, problem: Problem, k: int,
                  trajectory_weights=None,
                  transform_weights=None) -> TheoremReport:
    """Exact order bias by full enumeration on a tiny board.

    Asserts the equivalence: bias is zero iff the policy assigns equal
    probability to every reordering of every trajectory. Weight
    distributions must be strictly positive.
    """
    feas = problem.allowed_ports
    if len(feas) > 6 or k > 3:
        raise ContractViolation("board too large for exhaustive check")
    trajectories = list(itertools.permutations(feas, k))
    transforms = list(itertools.permutations(range(k)))
    if trajectory_weights is None:
        trajectory_weights = [1.0 / len(trajectories)] * len(trajectories)
    if transform_weights is None:
        transform_weights = [1.0 / len(transforms)] * len(transforms)
    if len(trajectory_weights) != len(trajectories) or \
            len(transform_weights) != len(transforms):
        raise ContractViolation("weight vector length mismatch")
    if any(w <= 0 for w in trajectory_weights) or \
            any(w <= 0 for w in transform_weights):
        raise ContractViolation("theorem requires strictly positive distributions")

    probs = {a: math.exp(policy.placement_log_prob(problem, a))
             for a in trajectories}
    bias = 0.0
    counterexample = None
    symmetric = True
    for a, wa in zip(trajectories, trajectory_weights):
        for t, wt in zip(transforms, transform_weights):
            ta = tuple(a[i] for i in t)
            gap = abs(probs[a] - probs[ta])
            bias += wa * wt * gap
            if gap != 0.0 and counterexample is None:
                counterexample = (a, t)
                symmetric = False
    return TheoremReport(order_bias=bias, is_symmetric=symmetric,
                         n_trajectories=len(trajectories),
                         counterexample=counterexample,
                         consistent=(bias == 0.0) == symmetric)
