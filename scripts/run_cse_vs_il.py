#!/usr/bin/env python3
"""Directional comparison of symmetry-regularized training against pure
imitation on the 5x5 toy setup (training.directional_experiment): order
bias and final validation score over multiple seeds at equal step budgets.

    python3 scripts/run_cse_vs_il.py --seeds 5
"""

import argparse
import time

from decapbench import training as tr


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=5)
    args = ap.parse_args()

    t0 = time.time()
    runs = tr.directional_experiment(range(args.seeds), ("cse", "il"))
    bias_wins = j_wins = 0
    print(f"{'seed':>4} {'bias IL':>12} {'bias CSE':>12} "
          f"{'J IL':>10} {'J CSE':>10}")
    for seed in range(args.seeds):
        il, cse = runs[("il", seed)], runs[("cse", seed)]
        bias_wins += cse["bias"] < il["bias"]
        j_wins += cse["final_j"] >= il["final_j"]
        print(f"{seed:>4} {il['bias']:>12.3e} {cse['bias']:>12.3e} "
              f"{il['final_j']:>10.3f} {cse['final_j']:>10.3f}")
    print(f"bias wins {bias_wins}/{args.seeds}, "
          f"J wins {j_wins}/{args.seeds}  "
          f"[{time.time() - t0:.0f}s]")


if __name__ == "__main__":
    main()
