import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decapbench import env, pdn
from decapbench.env import (Evaluator, Problem, encode_features, gen_problem,
                            gen_problem_set, validate_placement)
from decapbench.errors import ContractViolation, NumericFailure, check_schema


def test_problem_contracts():
    with pytest.raises(ContractViolation):
        Problem(3, 3, 9, frozenset())          # probe out of range
    with pytest.raises(ContractViolation):
        Problem(3, 3, 0, frozenset({0}))       # probe inside keep-out
    with pytest.raises(ContractViolation):
        Problem(3, 3, 0, frozenset({12}))      # keep-out out of range


def test_gen_problem_deterministic_and_stable():
    a = gen_problem(42, 5, 5, 4)
    b = gen_problem(42, 5, 5, 4)
    assert a == b
    # Frozen golden value: documents the seeded generator's output so any
    # change to the sampling procedure is caught.
    assert a.to_dict() == {"rows": 5, "cols": 5, "probe": 2,
                           "keepout": [11, 15, 24]}


def test_gen_problem_set_distinct_and_disjoint():
    first = gen_problem_set(0, 30, 4, 4, 3)
    hashes = {p.canonical_hash() for p in first}
    assert len(hashes) == 30
    second = gen_problem_set(1, 10, 4, 4, 3, exclude_hashes=hashes)
    assert hashes.isdisjoint({p.canonical_hash() for p in second})


def test_feasible_and_step():
    # allowed_ports is the one feasibility rule: ascending, without the
    # probe or a keep-out (test_validate_placement_round_trip checks that
    # duplicate, probe and keep-out steps are rejected).
    p = Problem(3, 3, 4, frozenset({0}))
    assert p.allowed_ports == (1, 2, 3, 5, 6, 7, 8)


def test_validate_placement_accepts_integral_numbers():
    p = Problem(3, 3, 4, frozenset())
    out = validate_placement(p, [np.int64(1), 2.0, np.float32(8.0)])
    assert out == (1, 2, 8) and all(type(a) is int for a in out)


@pytest.mark.parametrize("bad", [[1.7, 2.2], [True, 2], [2, np.bool_(True)],
                                 [2, 8.5], [float("nan")], ["1"]],
                         ids=repr)
def test_validate_placement_rejects_what_int_would_truncate(eval3, bad):
    # int() reads 1.7 and True as port 1: evaluate would score port 1.
    p = Problem(3, 3, 4, frozenset())
    with pytest.raises(ContractViolation, match="is not an integer"):
        validate_placement(p, bad)
    with pytest.raises(ContractViolation, match="is not an integer"):
        eval3.evaluate(p, bad)


def test_validate_placement_round_trip():
    p = Problem(3, 3, 4, frozenset({0}))
    assert validate_placement(p, [1, 8]) == (1, 8)
    out = validate_placement(p, np.array([8, 1, 2]))
    assert out == (8, 1, 2) and all(type(a) is int for a in out)
    assert validate_placement(p, []) == ()
    for bad in ([1, 1], [2, 8, 2], [0], [1, 4], [9], [-1], [3, 12]):
        with pytest.raises(ContractViolation):
            validate_placement(p, bad)


def unbounded_gen_problem_set(seed, count, n_rows, n_cols, keepout_max,
                              exclude_hashes=()):
    """The rejection loop without a bound: the reference for the draws."""
    rng = np.random.Generator(np.random.PCG64(seed))
    seen, out = set(exclude_hashes), []
    while len(out) < count:
        p = gen_problem(rng, n_rows, n_cols, keepout_max)
        if p.canonical_hash() not in seen:
            seen.add(p.canonical_hash())
            out.append(p)
    return out


def test_gen_problem_set_same_draws_as_unbounded_loop():
    cases = [((0, 30, 4, 4, 3), ()), ((4, 6, 2, 2, 1), ()),
             ((5, 16, 2, 2, 1), ()),   # the whole space of 2x2, <= 1 keep-out
             ((1, 10, 4, 4, 3), {p.canonical_hash()
                                 for p in gen_problem_set(0, 30, 4, 4, 3)})]
    for args, excluded in cases:
        assert gen_problem_set(*args, exclude_hashes=excluded) == \
            unbounded_gen_problem_set(*args, exclude_hashes=excluded)


def test_gen_problem_set_rejects_requests_beyond_the_problem_space(
        run_with_timeout):
    assert env.problem_space_size(2, 1, 0) == 2
    assert env.problem_space_size(2, 2, 1) == 4 * (1 + 3)
    assert isinstance(run_with_timeout(lambda: gen_problem_set(0, 5, 2, 1, 0)),
                      ContractViolation)
    both = gen_problem_set(0, 2, 2, 1, 0)
    one = {both[0].canonical_hash()}
    assert gen_problem_set(3, 1, 2, 1, 0, exclude_hashes=one) == [both[1]]
    assert isinstance(run_with_timeout(lambda: gen_problem_set(
        3, 2, 2, 1, 0, exclude_hashes=one)), ContractViolation)


def test_encode_features_shape_and_onehot():
    p = Problem(3, 4, 5, frozenset({0, 11}))
    f = encode_features(p)
    assert f.shape == (12, 5)
    assert np.allclose(f[:, 2:].sum(axis=1), 1.0)
    assert f[5, 4] == 1.0            # probe one-hot
    assert f[0, 3] == 1.0 and f[11, 3] == 1.0   # keep-out one-hot
    assert f[1, 2] == 1.0            # allowed one-hot
    # normalized coordinates of the last cell are (1, 1)
    assert f[11, 0] == 1.0 and f[11, 1] == 1.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_gen_problem_respects_bounds(seed):
    p = gen_problem(seed, 4, 5, 6)
    assert 0 <= p.probe < 20
    assert len(p.keepout) <= 6
    assert p.probe not in p.keepout


@settings(max_examples=50, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 6), data=st.data())
def test_allowed_mask_is_the_feasibility_rule(rows, cols, data):
    n = rows * cols
    probe = data.draw(st.integers(0, n - 1))
    keepout = data.draw(st.frozensets(
        st.integers(0, n - 1).filter(lambda k: k != probe)))
    p = Problem(rows, cols, probe, keepout)
    mask = p.allowed_mask
    expected = np.array([i != probe and i not in keepout for i in range(n)])
    assert mask.dtype == bool and np.array_equal(mask, expected)
    assert p.allowed_ports == tuple(np.flatnonzero(mask))
    assert all(type(a) is int for a in p.allowed_ports)
    with pytest.raises(ValueError):
        mask[0] = not mask[0]
    assert np.array_equal(p.allowed_mask, expected)


def test_evaluator_counts_and_matches_pdn(eval3):
    p = Problem(3, 3, 4, frozenset())
    before = eval3.count
    j1 = eval3.evaluate(p, (0, 8))
    assert eval3.count == before + 1
    j2 = eval3.evaluate(p, (8, 0))
    assert j1 == j2      # permutation invariance is exact
    assert j1 > 0


def test_evaluator_rejects_wrong_board(eval3):
    p = Problem(4, 4, 0, frozenset())
    with pytest.raises(ContractViolation):
        eval3.evaluate(p, (1,))
    with pytest.raises(ContractViolation):
        eval3.bare_profile(p)
    with pytest.raises(ContractViolation):
        eval3.final_profile(p, (1,))


def test_evaluator_shared_between_threads(eval3, package_config,
                                         monkeypatch):
    # One bare sweep and one count per call, and one solve per distinct
    # termination, however the threads interleave; the repeats (reversed
    # placements, and on the package stack ports on one node) score like
    # the serial loop.
    sweeps = []
    real_solve = env.pdn.solve_z_ports

    def counted_solve(*args, **kwargs):
        sweeps.append(1)
        return real_solve(*args, **kwargs)

    for config, p, base in (
            (eval3.config, Problem(3, 3, 4, frozenset()),
             [(0, 8), (1, 7), (2, 6), (3, 5)]),
            (package_config, Problem(4, 4, 0, frozenset()),
             [(1, 15), (2, 15), (4, 7), (8, 7), (3, 5)])):
        cycle = base + [pl[::-1] for pl in base]
        placements = [cycle[i % len(cycle)] for i in range(400)]
        serial = {pl: Evaluator(config).evaluate(p, pl) for pl in cycle}
        sweeps.clear()
        monkeypatch.setattr(env.pdn, "solve_z_ports", counted_solve)
        fresh = Evaluator(config)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(fresh.evaluate, p, pl)
                           for pl in placements]
                scores = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(env.pdn, "solve_z_ports", real_solve)
        assert len(sweeps) == 1
        assert fresh.count == 400
        assert fresh.solves == len({_node_key(config, p, pl)
                                    for pl in base})
        assert scores == [serial[pl] for pl in placements]


def _node_key(config, problem, placement) -> tuple:
    """What a termination depends on: the probe's network node and the
    multiset of the decap ports' nodes."""
    nodes = pdn.StackTopology(config.stack).chip_port_nodes
    return (nodes[problem.probe], tuple(sorted(nodes[a] for a in placement)))


def _memo_case(request, board) -> tuple:
    """(config, problem, placements): placements that repeat terminations
    by permutation and, on the package stack, by swapping ports that share
    a node; some have PARALLEL_MIN_PORTS ports, so they score on workers."""
    if board == "chip":
        config = request.getfixturevalue("eval5").config
        p = Problem(5, 5, 0, frozenset())
        big = tuple(range(1, 13))
        base = [(1, 24), (3, 7, 11), big, (5, 6)]
    else:
        config = request.getfixturevalue("package_config")
        p = Problem(4, 4, 0, frozenset())
        big = tuple(a for a in range(1, 16) if a not in (2, 8, 13))
        swapped = tuple(a for a in range(1, 16) if a not in (1, 4, 13))
        base = [(1, 15), (2, 15), (4, 7), (8, 7, 1), (2, 7, 4), big, swapped,
                (3, 5)]
    placements = base + [pl[::-1] for pl in base] + [big[1::2] + big[::2]]
    return config, p, placements


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("board", ["chip", "package"])
def test_memo_solves_each_termination_once(request, board, threads):
    config, p, placements = _memo_case(request, board)
    keys = [_node_key(config, p, pl) for pl in placements]
    fresh = [Evaluator(config).evaluate(p, pl) for pl in placements]
    # One call at a time: count rises on every call, solves on a miss.
    with Evaluator(config, threads) as ev:
        for i, pl in enumerate(placements):
            count, solves = ev.count, ev.solves
            assert ev.evaluate(p, pl) == fresh[i]
            assert ev.count == count + 1
            assert ev.solves == solves + (keys[i] not in keys[:i])
    # One batch, on workers at threads=2: the same scores and counts.
    with Evaluator(config, threads) as ev:
        assert ev.evaluate_all([p] * len(placements), placements) == fresh
        assert ev.count == len(placements)
        assert ev.solves == len(set(keys)) < len(placements)


@pytest.mark.parametrize("threads", [1, 2])
def test_memo_never_stores_a_failure(package_config, monkeypatch, threads):
    # Every termination fails its residual check: each call solves again
    # and raises the same message, and nothing is left behind that a
    # passing solve would not give.
    p = Problem(4, 4, 0, frozenset())
    big = tuple(range(1, env.PARALLEL_MIN_PORTS + 1))
    tol = env.pdn.TERMINATION_RESIDUAL_TOL
    monkeypatch.setattr(env.pdn, "TERMINATION_RESIDUAL_TOL", -1.0)
    messages = []
    with Evaluator(package_config, threads) as ev:
        for _ in range(3):
            with pytest.raises(NumericFailure) as got:
                ev.evaluate(p, big)
            messages.append(str(got.value))
            with pytest.raises(NumericFailure) as got:
                ev.evaluate_all([p] * 2, [big, big[::-1]])
            messages.append(str(got.value))
        assert ev.solves >= 6
        monkeypatch.setattr(env.pdn, "TERMINATION_RESIDUAL_TOL", tol)
        assert ev.evaluate(p, big) == Evaluator(package_config).evaluate(p, big)
    assert "ill-conditioned decap termination" in messages[0]
    assert messages == messages[:1] * 6


def test_memo_covers_the_problem_being_scored(package_config):
    # a and b read the same terminations, but scoring b drops a's scores.
    a = Problem(4, 4, 0, frozenset())
    b = Problem(4, 4, 0, frozenset({3}))
    ev = Evaluator(package_config)
    solves = []
    for problem, placement in ((a, (1, 15)), (a, (2, 15)), (b, (1, 15)),
                               (b, (15, 2)), (a, (1, 15))):
        ev.evaluate(problem, placement)
        solves.append(ev.solves)
    assert solves == [1, 1, 2, 2, 3]


def _evaluator_threads() -> list:
    return [t for t in threading.enumerate()
            if t.name.startswith("evaluator")]


def _above_gate_placements(n: int) -> list:
    """n distinct placements of PARALLEL_MIN_PORTS ports on a 5x5 board
    with the probe at port 0."""
    rng = np.random.Generator(np.random.PCG64(4))
    return [tuple(int(a) for a in rng.permutation(np.arange(1, 25))[
        :env.PARALLEL_MIN_PORTS]) for _ in range(n)]


def test_evaluate_all_stress_matches_the_loop(eval5, monkeypatch):
    # More workers than cores and a short switch interval: every score
    # lands at its own index and each is one evaluate() call, looked up on
    # the instance when it is made.
    p = Problem(5, 5, 0, frozenset())
    placements = _above_gate_placements(60)
    serial = [eval5.evaluate(p, a) for a in placements]
    calls = []
    evaluate = Evaluator.evaluate

    def counted(self, problem, placement):
        calls.append(placement)
        return evaluate(self, problem, placement)

    monkeypatch.setattr(Evaluator, "evaluate", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Evaluator(eval5.config, threads=8) as ev:
            scores = ev.evaluate_all([p] * len(placements), placements)
            assert ev.count == len(placements)
    finally:
        sys.setswitchinterval(interval)
    assert scores == serial
    assert sorted(calls) == sorted(placements)
    assert not _evaluator_threads()


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_evaluate_all_raises_the_first_failure_in_input_order(
        eval5, monkeypatch, threads):
    # Placement 3 fails slowly and placement 7 at once, so a worker meets
    # 7's failure first; the call still raises 3's, like the loop.
    p = Problem(5, 5, 0, frozenset())
    placements = _above_gate_placements(12)
    evaluate = Evaluator.evaluate

    def failing(self, problem, placement):
        i = placements.index(tuple(placement))
        if i == 3:
            time.sleep(0.05)
        if i in (3, 7):
            raise NumericFailure(f"placement {i} failed")
        return evaluate(self, problem, placement)

    monkeypatch.setattr(Evaluator, "evaluate", failing)
    with Evaluator(eval5.config, threads=threads) as ev:
        with pytest.raises(NumericFailure, match="placement 3 failed"):
            ev.evaluate_all([p] * len(placements), placements)
    assert not _evaluator_threads()


def test_evaluate_all_below_the_gate_starts_no_worker(eval5):
    p = Problem(5, 5, 0, frozenset())
    short = [a[:env.PARALLEL_MIN_PORTS - 1]
             for a in _above_gate_placements(8)]
    with Evaluator(eval5.config, threads=4) as ev:
        scores = ev.evaluate_all([p] * len(short), short)
        assert not _evaluator_threads()
        assert scores == [eval5.evaluate(p, a) for a in short]
        ev.evaluate_all([p] * 8, _above_gate_placements(8))
        assert _evaluator_threads()
    assert not _evaluator_threads()


@pytest.mark.parametrize("threads", [1, 2])
def test_run_beside_runs_side_on_a_worker(eval5, threads):
    def name():
        return threading.current_thread().name

    with Evaluator(eval5.config, threads=threads) as ev:
        main, side = ev.run_beside(name, name)
        assert main == threading.current_thread().name
        assert side.startswith("evaluator") == (threads == 2)

        def fail(msg):
            def raise_it():
                time.sleep(0.05 if msg == "main" else 0.0)
                raise NumericFailure(msg)
            return raise_it

        # Both raise: main's exception wins, after side has finished.
        with pytest.raises(NumericFailure, match="main"):
            ev.run_beside(fail("main"), fail("side"))
        with pytest.raises(NumericFailure, match="side"):
            ev.run_beside(name, fail("side"))
    assert not _evaluator_threads()


def test_evaluator_rejects_fewer_than_one_thread(eval5):
    with pytest.raises(ContractViolation, match="threads must be >= 1"):
        Evaluator(eval5.config, threads=0)


def test_problem_file_round_trip(tmp_path):
    probs = gen_problem_set(3, 5, 4, 4, 3)
    path = tmp_path / "problems.json"
    env.write_problem_file(path, probs)
    again = env.read_problem_file(path)
    assert again == probs
    # JSON Schema counts 3.0 as an integer; it reads back as the int 3.
    path.write_text(json.dumps({"schema_version": 1, "problems": [
        {"rows": 3.0, "cols": 3, "probe": 4.0, "keepout": [1.0]}]}))
    assert env.read_problem_file(path) == [Problem(3, 3, 4, frozenset({1}))]


@pytest.mark.parametrize("doc", [
    {"schema_version": 1, "problems": [{"rows": 3}]},
    {"schema_version": 2, "problems": []},
    {"problems": []},
    [],
    {"schema_version": 1, "problems": {}},
    {"schema_version": 1, "problems": [
        {"rows": 3, "cols": 3, "probe": "4", "keepout": []}]},
    {"schema_version": 1, "problems": [
        {"rows": 3, "cols": 3, "probe": 4, "keepout": [-1]}]},
    {"schema_version": 1, "problems": [
        {"rows": 0, "cols": 3, "probe": 0, "keepout": []}]},
    {"schema_version": 1, "problems": [
        {"rows": 3, "cols": 3, "probe": 9, "keepout": []}]},
    {"schema_version": 1, "problems": [
        {"rows": 3, "cols": 3, "probe": 4, "keepout": [], "extra": 1}]},
])
def test_malformed_problem_file_is_a_contract_violation(tmp_path, doc):
    path = tmp_path / "problems.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ContractViolation) as got:
        env.read_problem_file(path)
    # A schema failure reads as jsonschema.validate's own message.
    import jsonschema
    try:
        jsonschema.validate(doc, env.PROBLEM_FILE_SCHEMA)
    except jsonschema.ValidationError as ref:
        assert str(got.value) == f"bad problem file: {ref.message}"


def test_check_schema_checks_each_schema_once(monkeypatch):
    import jsonschema
    calls = []
    real = jsonschema.Draft202012Validator.check_schema

    def counting(schema, *args, **kwargs):
        calls.append(schema)
        return real(schema, *args, **kwargs)

    monkeypatch.setattr(jsonschema.Draft202012Validator, "check_schema",
                        counting)
    schema = {"type": "array", "items": {"type": "integer"}}
    for _ in range(3):
        check_schema([1, 2], schema, "list")
    with pytest.raises(ContractViolation, match="bad list: 'x' is not of "):
        check_schema([1, "x"], schema, "list")
    assert calls == [schema]
