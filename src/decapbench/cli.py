"""Command-line surface: dataset generation, training, evaluation, min-K
search, search baselines, and report rendering.

Exit codes: 0 success, 2 contract violation (including an input too large
for memory), 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from . import pdn, policy as pol, training
from .env import (PARALLEL_MIN_PORTS, Evaluator, Problem, gen_problem_set,
                  read_problem_file, write_problem_file)
from .errors import ContractViolation, NumericFailure
from .report import BenchReport, impedance_artifacts, svg_placement_heatmap
from .search import (GaConfig, baseline_seed, build_expert_dataset, ga_solve,
                     random_search, read_expert_dataset)

EXIT_OK, EXIT_CONTRACT, EXIT_NUMERIC, EXIT_IO = 0, 2, 3, 4

# Lookahead scores within this fraction of the best one tie, and the lowest
# port among them wins: mirror-image ports score equal in exact arithmetic,
# and round-off must not choose between them.
LOOKAHEAD_TIE_RTOL = 1e-10


def _board_of(problems) -> tuple:
    boards = {(p.n_rows, p.n_cols) for p in problems}
    if len(boards) != 1:
        raise ContractViolation("problem file must use one board size")
    return boards.pop()


def _calls(ev: Evaluator) -> str:
    """The evaluator's simulator calls and the terminations it solved."""
    return f"{ev.count} simulator calls, {ev.solves} terminations solved"


# --- gen ----------------------------------------------------------------------

def cmd_gen(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    seen = set()
    t0 = time.time()
    splits = {}
    for offset, (split, count) in enumerate((("train", args.train),
                                             ("val", args.val),
                                             ("test", args.test))):
        if count <= 0:
            continue
        probs = gen_problem_set(args.seed * 3 + offset, count, args.rows,
                                args.cols, args.keepout_max, seen)
        seen |= {p.canonical_hash() for p in probs}
        path = os.path.join(args.out, f"{split}_problems.json")
        write_problem_file(path, probs)
        splits[split] = probs
        print(f"wrote {path} ({count} problems)")
    if args.expert:
        if "train" not in splits:
            raise ContractViolation("--expert requires --train > 0")
        sim = pdn.sim_config(args.sim, args.rows, args.cols)
        ga = GaConfig(args.ga_population, args.ga_generations, args.ga_elites,
                      seed=args.seed)
        path = os.path.join(args.out, "expert_dataset.jsonl")
        with Evaluator(sim, args.threads) as ev:
            build_expert_dataset(path, len(splits["train"]), args.k, ga, ev,
                                 problem_seed=0, n_rows=args.rows,
                                 n_cols=args.cols,
                                 keepout_max=args.keepout_max,
                                 problems=splits["train"])
        print(f"wrote {path} ({_calls(ev)}, {time.time() - t0:.1f}s)")
    return EXIT_OK


# --- train --------------------------------------------------------------------

def _train_configs(args):
    """The preset's train and model configs, with the train flags that are
    set applied to the train config."""
    if args.preset == "paper":
        tcfg = training.TrainConfig(seed=args.seed)
        mcfg = pol.ModelConfig(init_seed=args.seed)
    else:
        tcfg = training.toy_train_config(seed=args.seed)
        mcfg = pol.toy_config(init_seed=args.seed)
    flags = {"learning_rate": args.lr, "batch_size": args.batch,
             "max_steps": args.steps, "lambda_eff": args.lambda_eff}
    overrides = {name: value for name, value in flags.items()
                 if value is not None}
    return dataclasses.replace(tcfg, **overrides), mcfg


def cmd_train(args) -> int:
    """Train on the board, K, simulator preset and keep-out cap that the
    dataset fixes: the board from its records, the rest from its header."""
    records, header = read_expert_dataset(args.dataset)
    k = int(header["k"])
    if args.k is not None and args.k != k:
        raise ContractViolation(f"train --k {args.k} does not match the "
                                f"dataset's k {k}: --k must be >= 1 and "
                                f"equal it")
    val_problems = read_problem_file(args.val_problems)
    rows, cols = _board_of([r.problem for r in records])
    sim, keepout_max = header["sim"], int(header["keepout_max"])
    if sim not in pdn.SIM_PRESETS:
        raise ContractViolation(
            f"expert dataset header field 'sim' is {sim!r}, not one of "
            f"{', '.join(pdn.SIM_PRESETS)}: no simulator preset can "
            f"validate on it")
    tcfg, mcfg = _train_configs(args)
    t0 = time.time()
    with Evaluator(pdn.sim_config(sim, rows, cols), args.threads) as ev:
        result = training.train(records, tcfg, mcfg, ev, val_problems,
                                keepout_max=keepout_max,
                                diagnostics_path=args.diagnostics)
    meta = {"best_val": result.best_val, "steps_run": result.steps_run,
            "train_config": tcfg.to_dict(), "wall_time_s": time.time() - t0,
            "seed": args.seed, "blas_threads": result.blas_threads,
            "k": k, "sim": sim, "keepout_max": keepout_max,
            "board": [rows, cols]}
    pol.save_policy(args.out, result.store, mcfg, meta)
    if args.log:
        training.write_train_log(args.log, result.log_rows)
    print(f"best validation J {result.best_val:.6f} after "
          f"{result.steps_run} steps -> {args.out}")
    return EXIT_OK


# --- eval ---------------------------------------------------------------------

def cmd_eval(args) -> int:
    policy, meta = pol.load_policy(args.checkpoint)
    problems = read_problem_file(args.problems)
    rows, cols = _board_of(problems)
    sim = pdn.sim_config(args.sim, rows, cols)
    t0 = time.time()
    outs = pol.rollout_batch(problems, policy.store, policy.cfg,
                             "greedy", args.k)
    placements = [p for p, _ in outs]
    with Evaluator(sim, args.threads) as ev:
        scores = ev.evaluate_all(problems, placements)
    report = BenchReport(problems)
    report.add_method("devformer-greedy", 1, args.k, placements, scores)
    report.metadata = {"checkpoint": args.checkpoint,
                       "checkpoint_meta": meta, "seed": args.seed,
                       "wall_time_s": time.time() - t0}
    report.save(args.out)
    row = report.rows[0]
    print(f"K={args.k} mean J {row.mean_score:.6f} "
          f"(std {row.std_score:.6f}, {len(problems)} problems) -> {args.out}")
    return EXIT_OK


# --- min-k --------------------------------------------------------------------

def greedy_sim_placement(problem: Problem, k_max: int,
                         evaluator: Evaluator) -> list:
    """One-step-lookahead placement: at each step add the feasible port that
    maximizes J, the lowest one among ports that tie (`_lookahead_pick`).
    Returns the incremental placement: k_max ports, or every
    feasible port when there are fewer."""
    chosen = []
    for _ in range(k_max):
        feas = [a for a in problem.allowed_ports if a not in chosen]
        if not feas:
            break
        scores = evaluator.evaluate_all([problem] * len(feas),
                                        [chosen + [a] for a in feas])
        chosen.append(_lookahead_pick(feas, scores))
    return chosen


def _lookahead_pick(ports, scores) -> int:
    """The lowest port whose score lies within LOOKAHEAD_TIE_RTOL x |best|
    of the best score."""
    best = max(scores)
    tol = LOOKAHEAD_TIE_RTOL * abs(best)
    return min(p for p, s in zip(ports, scores) if best - s <= tol)


def min_k_for_target(problem: Problem, target: float, k_max: int,
                     evaluator: Evaluator, policy=None) -> dict:
    """Smallest prefix length K of an incremental greedy placement with
    J >= target, or a failure record at the placement's length (k_max, or
    fewer when the problem has fewer feasible ports)."""
    if k_max < 1:
        raise ContractViolation("K_max must be >= 1")
    if target <= 0.0:
        return {"min_k": 0, "achieved": 0.0, "placement": [], "met": True}
    if policy is not None:
        placement, _ = policy.greedy_placement(
            problem, min(k_max, len(problem.allowed_ports)))
        placement = list(placement)
    else:
        placement = greedy_sim_placement(problem, k_max, evaluator)
    for k in range(1, len(placement) + 1):
        j = evaluator.evaluate(problem, placement[:k])
        if j >= target:
            return {"min_k": k, "achieved": j,
                    "placement": placement[:k], "met": True}
    j = evaluator.evaluate(problem, placement) if placement else 0.0
    return {"min_k": len(placement), "achieved": j, "placement": placement,
            "met": False}


def cmd_min_k(args) -> int:
    problems = read_problem_file(args.problems)
    rows, cols = _board_of(problems)
    sim = pdn.sim_config(args.sim, rows, cols)
    policy = None
    if args.checkpoint:
        policy, _ = pol.load_policy(args.checkpoint)
    results = []
    with Evaluator(sim, args.threads) as ev:
        for i, prob in enumerate(problems):
            rec = min_k_for_target(prob, args.target, args.k_max, ev, policy)
            rec["problem"] = prob.to_dict()
            results.append(rec)
            status = f"K={rec['min_k']}" if rec["met"] else "unmet"
            print(f"problem {i}: {status} (J={rec['achieved']:.6f})")
    print(_calls(ev))
    doc = {"target": args.target, "k_max": args.k_max, "results": results,
           "seed": args.seed,
           "method": "policy" if policy else "greedy-sim"}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


# --- baselines ------------------------------------------------------------------

def cmd_baselines(args) -> int:
    problems = read_problem_file(args.problems)
    rows, cols = _board_of(problems)
    ev = Evaluator(pdn.sim_config(args.sim, rows, cols), args.threads)
    ev.bare_profile(problems[0])
    report = BenchReport(problems)
    t0 = time.time()

    def run_method(label, solve):
        recs = [solve(i, p) for i, p in enumerate(problems)]
        report.add_method(label, recs[0].budget, args.k,
                          [r.placement for r in recs], [r.score for r in recs])

    with ev:  # one search at a time; each scores on args.threads threads
        for m in args.rs_budgets:
            run_method(f"rs-{m}",
                       lambda i, p, m=m: random_search(
                           p, args.k, m, ev,
                           seed=baseline_seed(args.seed, "rs", i)))
        for pop, gens, elites in args.ga_presets:
            cfg = GaConfig(pop, gens, elites)
            run_method(f"ga-{cfg.budget}",
                       lambda i, p, c=cfg: ga_solve(
                           p, args.k, dataclasses.replace(
                               c, seed=baseline_seed(args.seed, "ga", i)),
                           ev))
    report.metadata = {"seed": args.seed, "k": args.k,
                       "simulator_calls": ev.count,
                       "wall_time_s": time.time() - t0}
    report.save(args.out)
    for row in report.rows:
        print(f"{row.method}: M={row.budget} mean J {row.mean_score:.6f} "
              f"(std {row.std_score:.6f})")
    print(_calls(ev))
    return EXIT_OK


# --- report ---------------------------------------------------------------------

def cmd_report(args) -> int:
    report = BenchReport.load(args.report)
    rows, cols = _board_of(report.problems)
    ev = Evaluator(pdn.sim_config(args.sim, rows, cols), args.threads)
    if args.verify:
        with ev:
            report.verify(ev)
        print("verified: all stored scores re-derive by re-simulation")
    os.makedirs(args.out, exist_ok=True)
    report.write_csv(os.path.join(args.out, "scores.csv"))
    n_plots = min(args.max_plots, len(report.problems))
    for row in report.rows:
        for i in range(n_plots):
            prob, placement = report.problems[i], row.placements[i]
            prefix = os.path.join(args.out, f"{row.method}_p{i}_impedance")
            impedance_artifacts(ev, prob, placement, prefix,
                                title=f"{row.method} problem {i}")
            svg_placement_heatmap(
                os.path.join(args.out, f"{row.method}_p{i}_board.svg"),
                prob, placement)
    print(f"wrote tables and plots to {args.out}")
    return EXIT_OK


# --- parser ---------------------------------------------------------------------

def _ga_preset(text: str) -> tuple:
    try:
        pop, gens, elites = (int(x) for x in text.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            "GA preset must be population:generations:elites") from exc
    return pop, gens, elites


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="decapbench",
        description="Decoupling-capacitor placement benchmark suite")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, sim=True):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="threads that eval, min-k, baselines, gen "
                            "--expert, report --verify and train's "
                            "validation score a batch of "
                            "placements on, when a placement has at least "
                            f"{PARALLEL_MIN_PORTS} ports (fewer run on one "
                            "thread); at 2 or more, train runs a large "
                            "enough self term beside its imitation term; "
                            "results do not depend on this value")
        if sim:  # train takes its simulator from the dataset header
            p.add_argument("--sim", choices=pdn.SIM_PRESETS, default="chip")

    g = sub.add_parser("gen", help="generate problem splits and expert labels")
    common(g)
    g.add_argument("--rows", type=int, default=10)
    g.add_argument("--cols", type=int, default=10)
    g.add_argument("--train", type=int, default=0)
    g.add_argument("--val", type=int, default=100)
    g.add_argument("--test", type=int, default=100)
    g.add_argument("--keepout-max", type=int, default=15)
    g.add_argument("--expert", action="store_true",
                   help="GA-label the training split")
    g.add_argument("--k", type=int, default=20)
    g.add_argument("--ga-population", type=int, default=20)
    g.add_argument("--ga-generations", type=int, default=5)
    g.add_argument("--ga-elites", type=int, default=4)
    g.add_argument("--out", default=".")
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="train the placement policy")
    common(t, sim=False)
    t.add_argument("--dataset", required=True)
    t.add_argument("--val-problems", required=True)
    t.add_argument("--preset", choices=("paper", "toy"), default="toy")
    t.add_argument("--lambda", dest="lambda_eff", type=float, default=None,
                   help="self-loss weight; 0 gives the imitation-only arm")
    t.add_argument("--lr", type=float, default=None)
    t.add_argument("--batch", type=int, default=None)
    t.add_argument("--steps", type=int, default=None)
    t.add_argument("--k", type=int, default=None,
                   help="a check only: the dataset header's k fixes K, and "
                        "any other value exits 2")
    t.add_argument("--log", default=None, help="training-log CSV path")
    t.add_argument("--diagnostics", default=None)
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="greedy zero-shot evaluation")
    common(e)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--problems", required=True)
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    m = sub.add_parser("min-k", help="minimal K meeting a target objective")
    common(m)
    m.add_argument("--problems", required=True)
    m.add_argument("--target", type=float, required=True)
    m.add_argument("--k-max", type=int, required=True)
    m.add_argument("--checkpoint", default=None,
                   help="policy checkpoint; omitted = simulator lookahead")
    m.add_argument("--out", default=None)
    m.set_defaults(func=cmd_min_k)

    b = sub.add_parser("baselines", help="GA / random-search comparison")
    common(b)
    b.add_argument("--problems", required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--rs-budgets", type=int, nargs="*", default=[100])
    b.add_argument("--ga-presets", type=_ga_preset, nargs="*",
                   default=[(20, 5, 4)],
                   help="population:generations:elites, e.g. 50:10:10")
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_baselines)

    r = sub.add_parser("report", help="render CSV tables and SVG plots")
    common(r)
    r.add_argument("--report", required=True, help="BenchReport JSON path")
    r.add_argument("--verify", action="store_true",
                   help="re-simulate every stored score")
    r.add_argument("--max-plots", type=int, default=4)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except MemoryError as exc:
        print(f"contract violation: input too large for memory: {exc}",
              file=sys.stderr)
        return EXIT_CONTRACT
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
