import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decapbench import env
from decapbench.env import (Evaluator, Problem, encode_features, gen_problem,
                            gen_problem_set, validate_placement)
from decapbench.errors import ContractViolation, check_schema


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


def test_evaluator_shared_between_threads(eval3, monkeypatch):
    # One bare sweep and one count per call, however the threads interleave.
    p = Problem(3, 3, 4, frozenset())
    placements = [(i % 4, 8 - i % 4) for i in range(400)]
    serial = {pl: eval3.evaluate(p, pl) for pl in placements[:4]}
    sweeps = []
    real_solve = env.pdn.solve_z_ports

    def counted_solve(*args, **kwargs):
        sweeps.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(env.pdn, "solve_z_ports", counted_solve)
    fresh = Evaluator(eval3.config)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(fresh.evaluate, p, pl)
                       for pl in placements]
            scores = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(sweeps) == 1
    assert fresh.count == 400
    assert scores == [serial[pl] for pl in placements]


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
