import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decapbench import pdn
from decapbench.cli import greedy_sim_placement, min_k_for_target
from decapbench.env import (PARALLEL_MIN_PORTS, Evaluator, Problem,
                            gen_problem_set)
from decapbench.errors import ContractViolation
from decapbench.report import BenchReport
from decapbench.search import (ExpertRecord, GaConfig, build_expert_dataset,
                               crossover, exhaustive_best, ga_solve,
                               mutate_dedup, random_search,
                               read_expert_dataset, write_expert_dataset)


def test_ga_config_contracts_and_presets():
    with pytest.raises(ContractViolation):
        GaConfig(population=4, generations=2, elites=4)
    assert GaConfig(population=20, generations=5, elites=4).budget == 100
    assert GaConfig(population=50, generations=10, elites=10).budget == 500


def test_crossover_halves():
    rng = np.random.Generator(np.random.PCG64(0))
    a, b = (1, 2, 3, 4), (5, 6, 7, 8)
    child = crossover(a, b, rng)
    assert child in ([1, 2, 7, 8], [5, 6, 3, 4])
    # odd length: first parent contributes the extra gene
    child = crossover((1, 2, 3), (4, 5, 6), rng)
    assert child in ([1, 2, 6], [4, 5, 3])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 1000))
def test_mutate_dedup_repairs(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    p = Problem(3, 3, 4, frozenset({0}))
    genes = [1, 1, 4, 0]   # duplicate, probe, keep-out
    out = mutate_dedup(genes, p, rng)
    assert len(set(out)) == 4
    assert all(g in p.allowed_ports for g in out)
    assert out[0] == 1      # valid genes are kept in place


def test_random_search_budget_and_determinism(eval3):
    p = Problem(3, 3, 4, frozenset())
    before = eval3.count
    rec = random_search(p, 2, 15, eval3, seed=3)
    assert eval3.count - before == 15
    again = random_search(p, 2, 15, eval3, seed=3)
    assert rec.placement == again.placement and rec.score == again.score


def test_random_search_monotone_in_budget(eval3):
    p = Problem(3, 3, 4, frozenset())
    scores = [random_search(p, 2, m, eval3, seed=9).score
              for m in (1, 5, 20)]
    assert scores[0] <= scores[1] <= scores[2]


def test_ga_budget_exact_and_deterministic(eval3):
    p = Problem(3, 3, 4, frozenset({0}))
    cfg = GaConfig(population=8, generations=4, elites=2, seed=5)
    before = eval3.count
    rec = ga_solve(p, 3, cfg, eval3)
    assert eval3.count - before == cfg.budget == 32
    assert rec.placement == ga_solve(p, 3, cfg, eval3).placement


def test_ga_best_monotone_per_generation(eval3):
    # Run the same seeded GA at increasing generation counts: the best-ever
    # score must be non-decreasing because prefixes share the RNG stream.
    p = Problem(3, 3, 4, frozenset())
    best = [ga_solve(p, 3, GaConfig(population=6, generations=g,
                                    elites=2, seed=1), eval3).score
            for g in (1, 2, 3, 4)]
    assert all(b2 >= b1 - 1e-15 for b1, b2 in zip(best, best[1:]))


@pytest.mark.parametrize("k", [4, PARALLEL_MIN_PORTS])
def test_searches_do_not_depend_on_thread_count(eval5, k):
    # Below and above the gate: RS, GA, the lookahead and verify return
    # the same results after the same number of simulator calls.
    probs = gen_problem_set(6, 2, 5, 5, 2)
    outcomes = []
    for threads in (1, 2, 4):
        with Evaluator(eval5.config, threads=threads) as ev:
            rs = [random_search(p, k, 10, ev, seed=i)
                  for i, p in enumerate(probs)]
            ga = [ga_solve(p, k, GaConfig(6, 2, 2, seed=i), ev)
                  for i, p in enumerate(probs)]
            look = [greedy_sim_placement(p, k + 1, ev) for p in probs]
            report = BenchReport(probs)
            for label, recs in (("rs", rs), ("ga", ga)):
                report.add_method(label, 1, k, [r.placement for r in recs],
                                  [r.score for r in recs])
            report.verify(ev)
            outcomes.append(([r.to_dict() for r in rs + ga], look, ev.count))
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


def test_search_call_counts_do_not_depend_on_repeats(package_config,
                                                     monkeypatch):
    # The evaluate() counts the benchmark checks, through the same kind of
    # spy, on a stack where ports share nodes: repeated terminations are
    # solved once, but each is still one call. Solves do not depend on
    # the thread count either.
    calls = []
    evaluate = Evaluator.evaluate

    @functools.wraps(evaluate)
    def counted(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(Evaluator, "evaluate", counted)
    problem = Problem(4, 4, 5, frozenset({10}))
    k, f = PARALLEL_MIN_PORTS, len(problem.allowed_ports)
    searches = {
        "min-k": (lambda ev: min_k_for_target(problem, 1e30, k, ev),
                  sum(f - t for t in range(k)) + k + 1),
        "rs": (lambda ev: random_search(problem, k, 40, ev, seed=1), 40),
        "ga": (lambda ev: ga_solve(problem, k, GaConfig(6, 3, 2, seed=1),
                                   ev), 18)}
    solves = {}
    for threads in (1, 2):
        for name, (search, expected) in searches.items():
            calls.clear()
            with Evaluator(package_config, threads) as ev:
                search(ev)
            assert len(calls) == ev.count == expected, (name, threads)
            assert ev.solves < expected, (name, threads)
            solves.setdefault(name, ev.solves)
            assert ev.solves == solves[name], (name, threads)


def test_exhaustive_best_is_global_optimum(eval3):
    p = Problem(3, 3, 4, frozenset({0}))
    rec = exhaustive_best(p, 2, eval3)
    feas = p.allowed_ports
    brute = max(eval3.evaluate(p, c)
                for c in itertools.combinations(feas, 2))
    assert rec.score == brute


def test_dataset_round_trip(tmp_path, eval3):
    probs = gen_problem_set(2, 3, 3, 3, 2)
    path = tmp_path / "expert.jsonl"
    recs = build_expert_dataset(path, 3, 2, GaConfig(population=4,
                                                     generations=2, elites=1),
                                eval3, problem_seed=2, n_rows=3, n_cols=3,
                                problems=probs)
    again, header = read_expert_dataset(path)
    assert header["kind"] == "expert-dataset"
    assert [r.placement for r in again] == [r.placement for r in recs]
    assert [r.problem for r in again] == [r.problem for r in recs]


@pytest.mark.parametrize("config, board, sim", [
    (pdn.chip_only_config(3, 3), 3, "chip"),
    (pdn.paper_scale_config(), 10, "paper"),
    (pdn.chip_only_config(3, 3, pdn.make_freq_grid(21, 2.0e8, 2.0e10)), 3,
     None)], ids=["chip", "paper", "custom-grid"])
def test_dataset_header_records_sim_preset_and_keepout_max(tmp_path, config,
                                                          board, sim):
    # sim names the preset that equals the evaluator's configuration; a
    # configuration no preset equals (here a 21-point grid) writes null.
    probs = gen_problem_set(3, 1, board, board, 1)
    path = tmp_path / "expert.jsonl"
    build_expert_dataset(path, 1, 2, GaConfig(population=2, generations=1,
                                              elites=0),
                         Evaluator(config), problem_seed=3, n_rows=board,
                         n_cols=board, keepout_max=1, problems=probs)
    _, header = read_expert_dataset(path)
    assert header["sim"] == sim and pdn.sim_preset(config) == sim
    assert header["keepout_max"] == 1


def test_dataset_rejects_infeasible_record(tmp_path):
    p = Problem(3, 3, 4, frozenset({0}))
    rec = ExpertRecord(p, (0, 1), 1.0, 1, 0)   # keep-out port in placement
    path = tmp_path / "bad.jsonl"
    write_expert_dataset(path, [rec], k=2, sim="chip", keepout_max=1)
    with pytest.raises(ContractViolation, match="infeasible action 0"):
        read_expert_dataset(path)


@pytest.mark.parametrize("placements, k, record", [
    ([(1, 2), (2, 3)], 3, 1),       # the header says 3 over 2-port records
    ([(1, 2), (1, 2, 3)], 2, 2)],   # mixed lengths
    ids=["header-k", "mixed-lengths"])
def test_dataset_rejects_record_not_k_ports_long(tmp_path, placements, k,
                                                record):
    p = Problem(3, 3, 4, frozenset({0}))
    path = tmp_path / "bad.jsonl"
    write_expert_dataset(path, [ExpertRecord(p, pl, 1.0, 1, 0)
                                for pl in placements],
                         k=k, sim="chip", keepout_max=1)
    with pytest.raises(ContractViolation,
                       match=f"record {record} has {len(placements[record - 1])}"
                             f" ports, not the header's k {k}"):
        read_expert_dataset(path)


def test_dataset_header_requires_k(tmp_path):
    p = Problem(3, 3, 4, frozenset({0}))
    path = tmp_path / "old.jsonl"
    write_expert_dataset(path, [ExpertRecord(p, (1, 2), 1.0, 1, 0)],
                         sim="chip", keepout_max=1)
    with pytest.raises(ContractViolation, match="'k'"):
        read_expert_dataset(path)
