#!/usr/bin/env python3
"""Score-versus-budget comparison of the genetic algorithm and random
search on a 10x10 board, with CSV and SVG outputs.

    python3 scripts/run_ga_vs_rs.py --out runs/ga_vs_rs
"""

import argparse
import os
import pathlib

import numpy as np

from decapbench import pdn
from decapbench.env import Evaluator, gen_problem_set
from decapbench.report import svg_line_plot
from decapbench.search import GaConfig, baseline_seed, ga_solve, random_search


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="runs/ga_vs_rs")
    ap.add_argument("--problems", type=int, default=10)
    ap.add_argument("--k", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    probs = gen_problem_set(args.seed, args.problems, 10, 10, 15)

    budgets = [20, 60, 100, 200, 500]
    ga_cfgs = {20: (10, 2, 2), 60: (20, 3, 4), 100: (20, 5, 4),
               200: (20, 10, 4), 500: (50, 10, 10)}
    rows = []
    sim = pdn.chip_only_config(10, 10)
    with Evaluator(sim, threads=os.cpu_count() or 1) as ev:
        for m in budgets:
            pop, gens, elites = ga_cfgs[m]
            ga = np.mean([ga_solve(p, args.k, GaConfig(
                pop, gens, elites, seed=baseline_seed(args.seed, "ga", i)),
                ev).score for i, p in enumerate(probs)])
            rs = np.mean([random_search(
                p, args.k, m, ev, seed=baseline_seed(args.seed, "rs", i)).score
                for i, p in enumerate(probs)])
            rows.append((m, ga, rs))
            print(f"M={m:>4}  GA {ga:.4f}  RS {rs:.4f}")

    with open(out / "scores.csv", "w") as fh:
        fh.write("budget,ga_mean,rs_mean\n")
        for m, ga, rs in rows:
            fh.write(f"{m},{ga!r},{rs!r}\n")
    ms = [r[0] for r in rows]
    svg_line_plot(out / "scores.svg",
                  [("GA", ms, [r[1] for r in rows]),
                   ("RS", ms, [r[2] for r in rows])],
                  "Search score vs simulation budget",
                  "simulator calls per problem (M)", "mean objective J")
    print(f"wrote {out}/scores.csv and {out}/scores.svg")


if __name__ == "__main__":
    main()
