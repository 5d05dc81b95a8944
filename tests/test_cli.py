import itertools
import json
import os
import pathlib
import re
import shlex
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from decapbench import autodiff as ad
from decapbench import cli, pdn, training
from decapbench import policy as pol
from decapbench.cli import (EXIT_CONTRACT, EXIT_IO, EXIT_NUMERIC, EXIT_OK,
                            LOOKAHEAD_TIE_RTOL, _lookahead_pick, build_parser,
                            greedy_sim_placement, main, min_k_for_target)
from decapbench.env import (PARALLEL_MIN_PORTS, Problem, gen_problem_set,
                            read_problem_file, write_problem_file)


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One generated 3x3 corpus shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    code = run("gen", "--rows", 3, "--cols", 3, "--train", 4, "--val", 3,
               "--test", 3, "--keepout-max", 2, "--expert", "--k", 2,
               "--ga-population", 4, "--ga-generations", 2, "--ga-elites", 1,
               "--seed", 5, "--out", root)
    assert code == EXIT_OK
    return root


def test_gen_outputs_and_disjoint_splits(workdir):
    names = {"train_problems.json", "val_problems.json",
             "test_problems.json", "expert_dataset.jsonl"}
    assert names.issubset(set(os.listdir(workdir)))
    splits = [read_problem_file(workdir / f"{s}_problems.json")
              for s in ("train", "val", "test")]
    hashes = [p.canonical_hash() for split in splits for p in split]
    assert len(hashes) == len(set(hashes))


def test_gen_reproducible(workdir, tmp_path):
    code = run("gen", "--rows", 3, "--cols", 3, "--train", 4, "--val", 3,
               "--test", 3, "--keepout-max", 2, "--expert", "--k", 2,
               "--ga-population", 4, "--ga-generations", 2, "--ga-elites", 1,
               "--seed", 5, "--out", tmp_path)
    assert code == EXIT_OK
    for name in ("train_problems.json", "expert_dataset.jsonl"):
        assert (tmp_path / name).read_bytes() == (workdir / name).read_bytes()


@pytest.fixture(scope="module")
def checkpoint(workdir):
    out = workdir / "model.ckpt"
    code = run("train", "--dataset", workdir / "expert_dataset.jsonl",
               "--val-problems", workdir / "val_problems.json",
               "--preset", "toy", "--lambda", 0, "--steps", 20, "--batch", 8,
               "--k", 2, "--seed", 1, "--out", out,
               "--log", workdir / "train.csv")
    assert code == EXIT_OK
    return out


def test_train_writes_log(workdir, checkpoint):
    lines = (workdir / "train.csv").read_text().splitlines()
    assert lines[0] == "step,train_nll,self_loss,val_J,order_bias"
    assert len(lines) >= 2


def test_train_meta_records_blas_threads(checkpoint):
    _, _, meta = ad.load_checkpoint(checkpoint)
    with ad.blas_threads() as found:
        assert meta["blas_threads"] == (1 if found else None)


def _gen_expert(out, *flags):
    """gen --expert with cheap GA labels, no test split and flags."""
    assert run("gen", "--train", 6, "--val", 3, "--test", 0, "--expert",
               "--k", 2, "--ga-population", 2, "--ga-generations", 1,
               "--ga-elites", 0, "--out", out, *flags) == EXIT_OK
    return out / "expert_dataset.jsonl", out / "val_problems.json"


def _train_args(dataset, val, out):
    return ("train", "--dataset", dataset, "--val-problems", val,
            "--preset", "toy", "--k", 2, "--batch", 8, "--steps", 2,
            "--threads", 1, "--out", out)


def test_train_draws_self_term_problems_with_the_dataset_keepout_max(
        tmp_path, monkeypatch):
    # The toy preset's problems had at most 4 keep-outs; the dataset's cap
    # of 6 now sets the self-term draws (32 here, uniform in 0..6 each).
    dataset, val = _gen_expert(tmp_path, "--rows", 5, "--cols", 5,
                               "--keepout-max", 6)
    drawn = []
    self_loss = training.self_loss

    def spy(problems, *args, **kwargs):
        drawn.extend(len(p.keepout) for p in problems)
        return self_loss(problems, *args, **kwargs)

    monkeypatch.setattr(training, "self_loss", spy)
    out = tmp_path / "m.ckpt"
    assert run(*_train_args(dataset, val, out)) == EXIT_OK
    assert len(drawn) == 32 and 4 < max(drawn) <= 6
    _, _, meta = ad.load_checkpoint(out)
    assert (meta["sim"], meta["keepout_max"], meta["board"]) == \
        ("chip", 6, [5, 5])


def test_train_validates_on_the_dataset_simulator(tmp_path, monkeypatch):
    dataset, val = _gen_expert(tmp_path, "--sim", "paper")
    configs = []
    validate = training.validate

    def spy(store, mcfg, evaluator, *args):
        configs.append(evaluator.config)
        return validate(store, mcfg, evaluator, *args)

    monkeypatch.setattr(training, "validate", spy)
    out = tmp_path / "m.ckpt"
    assert run(*_train_args(dataset, val, out), "--lambda", 0) == EXIT_OK
    assert configs == [pdn.paper_scale_config()]
    _, _, meta = ad.load_checkpoint(out)
    assert (meta["sim"], meta["keepout_max"], meta["board"]) == \
        ("paper", 15, [10, 10])


@pytest.mark.parametrize("edit, field", [
    (lambda h: h.pop("sim"), "'sim'"),
    (lambda h: h.pop("keepout_max"), "'keepout_max'"),
    (lambda h: h.update(sim=None), "'sim'"),
    (lambda h: h.update(sim="board"), "'sim'")],
    ids=["no-sim", "no-keepout-max", "null-sim", "unknown-sim"])
def test_exit_code_dataset_header_without_sim_or_keepout_max(
        workdir, tmp_path, capsys, edit, field):
    lines = (workdir / "expert_dataset.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    edit(header)
    bad = tmp_path / "old.jsonl"
    bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    out = tmp_path / "m.ckpt"
    assert run(*_train_args(bad, workdir / "val_problems.json", out)) == \
        EXIT_CONTRACT
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_train_takes_k_from_the_dataset(tmp_path, monkeypatch):
    # The toy preset's K was 4; without --k the dataset's K=2 is decoded.
    dataset, val = _gen_expert(tmp_path)
    ks = []
    validate = training.validate

    def spy(store, mcfg, evaluator, problems, k):
        ks.append(k)
        return validate(store, mcfg, evaluator, problems, k)

    monkeypatch.setattr(training, "validate", spy)
    args = list(_train_args(dataset, val, tmp_path / "m.ckpt"))
    i = args.index("--k")
    del args[i:i + 2]
    assert run(*args) == EXIT_OK
    assert ks == [2]
    _, _, meta = ad.load_checkpoint(tmp_path / "m.ckpt")
    assert meta["k"] == 2 and "k" not in meta["train_config"]


def _mixed_length_dataset(path, lines):
    record = json.loads(lines[1])
    record["placement"] = record["placement"][:1]
    path.write_text("\n".join([lines[0], json.dumps(record)] + lines[2:])
                    + "\n")


@pytest.mark.parametrize("edit, flags, message", [
    (None, ("--k", 3), "train --k 3 does not match the dataset's k 2"),
    (_mixed_length_dataset, (), "record 1 has 1 ports, not the header's k 2")],
    ids=["k-mismatch", "mixed-length"])
def test_exit_code_dataset_k(workdir, tmp_path, capsys, edit, flags,
                             message):
    dataset = workdir / "expert_dataset.jsonl"
    if edit is not None:
        dataset = tmp_path / "bad.jsonl"
        edit(dataset, (workdir / "expert_dataset.jsonl").read_text()
             .splitlines())
    out = tmp_path / "m.ckpt"
    assert run(*_train_args(dataset, workdir / "val_problems.json", out),
               *flags) == EXIT_CONTRACT
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_has_no_sim_flag(workdir, tmp_path, capsys):
    with pytest.raises(SystemExit):
        run("train", "--help")
    assert "--sim" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        run(*_train_args(workdir / "expert_dataset.jsonl",
                         workdir / "val_problems.json", tmp_path / "m.ckpt"),
            "--sim", "chip")
    assert exc.value.code == EXIT_CONTRACT
    assert "--sim" in capsys.readouterr().err


def test_eval_and_report_verify(workdir, checkpoint, tmp_path):
    out = workdir / "eval.json"
    code = run("eval", "--checkpoint", checkpoint,
               "--problems", workdir / "test_problems.json",
               "--k", 2, "--out", out)
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["rows"][0]["method"] == "devformer-greedy"
    code = run("report", "--report", out, "--verify", "--max-plots", 1,
               "--out", tmp_path / "plots")
    assert code == EXIT_OK
    files = os.listdir(tmp_path / "plots")
    assert "scores.csv" in files
    assert any(f.endswith("_impedance.svg") for f in files)
    assert any(f.endswith("_board.svg") for f in files)


def test_eval_of_non_finite_checkpoint_exits_numeric(workdir, checkpoint,
                                                     tmp_path, capsys):
    # greedy decoding would otherwise pick the lowest feasible ports from
    # NaN probabilities and score them
    policy, meta = pol.load_policy(checkpoint)
    policy.store["enc0.ff1.b"].data[0] = np.nan
    bad = tmp_path / "nan.ckpt"
    pol.save_policy(bad, policy.store, policy.cfg, meta)
    out = tmp_path / "eval.json"
    assert run("eval", "--checkpoint", bad,
               "--problems", workdir / "test_problems.json",
               "--k", 2, "--out", out) == EXIT_NUMERIC
    assert "non-finite action probabilities" in capsys.readouterr().err
    assert not out.exists()


def test_train_non_finite_validation_writes_diagnostics(workdir, tmp_path,
                                                        monkeypatch):
    # The step's loss is finite; the Adam step then leaves a NaN
    # parameter, which the validation round after the last step meets.
    step = training.Adam.step

    def nan_step(opt):
        step(opt)
        opt.store["enc0.ff1.b"].data[0] = np.nan

    monkeypatch.setattr(training.Adam, "step", nan_step)
    diag = tmp_path / "diagnostics.json"
    code = run("train", "--dataset", workdir / "expert_dataset.jsonl",
               "--val-problems", workdir / "val_problems.json",
               "--preset", "toy", "--lambda", 0, "--steps", 1, "--batch", 8,
               "--k", 2, "--out", tmp_path / "m.ckpt", "--diagnostics", diag)
    assert code == EXIT_NUMERIC
    state = json.loads(diag.read_text())
    assert state["step"] == 1
    assert "non-finite action probabilities" in state["message"]
    assert not (tmp_path / "m.ckpt").exists()


@pytest.fixture(scope="module")
def board5(tmp_path_factory):
    """Two 5x5 problems with room for placements above the thread gate."""
    path = tmp_path_factory.mktemp("board5") / "problems.json"
    write_problem_file(path, gen_problem_set(8, 2, 5, 5, 2))
    return path


def test_eval_threads_do_not_change_results(workdir, checkpoint, board5,
                                            tmp_path):
    # K=2 runs below the thread gate, PARALLEL_MIN_PORTS above it.
    for problems, k in ((workdir / "test_problems.json", 2),
                        (board5, PARALLEL_MIN_PORTS)):
        outs = []
        for threads in (1, 2, 4):
            out = tmp_path / f"eval_k{k}_t{threads}.json"
            code = run("eval", "--checkpoint", checkpoint,
                       "--problems", problems, "--k", k,
                       "--threads", threads, "--out", out)
            assert code == EXIT_OK
            doc = json.loads(out.read_text())
            doc["metadata"] = None
            outs.append(doc)
        assert outs[1] == outs[0] and outs[2] == outs[0]


def _outputs_at_threads(threads, tmp_path, board5):
    """gen --expert, baselines and min-k above the thread gate at one
    --threads value: the bytes each writes, baselines without its wall
    time."""
    out = tmp_path / f"t{threads}"
    k = PARALLEL_MIN_PORTS
    common = ("--threads", threads, "--seed", 3)
    before = threading.active_count()
    assert run("gen", *common, "--rows", 5, "--cols", 5, "--train", 2,
               "--val", 0, "--test", 0, "--keepout-max", 2, "--expert",
               "--k", k, "--ga-population", 4, "--ga-generations", 2,
               "--ga-elites", 1, "--out", out) == EXIT_OK
    assert run("baselines", *common, "--problems", board5, "--k", k,
               "--rs-budgets", 6, "--ga-presets", "4:2:1",
               "--out", out / "baselines.json") == EXIT_OK
    assert run("min-k", *common, "--problems", board5, "--target", 1e9,
               "--k-max", k + 1, "--out", out / "min_k.json") == EXIT_OK
    assert threading.active_count() == before
    baselines = json.loads((out / "baselines.json").read_text())
    del baselines["metadata"]["wall_time_s"]
    return ((out / "expert_dataset.jsonl").read_bytes(),
            (out / "min_k.json").read_bytes(), baselines)


def test_search_commands_do_not_depend_on_thread_count(board5, tmp_path):
    assert _outputs_at_threads(2, tmp_path, board5) == \
        _outputs_at_threads(1, tmp_path, board5)


def _outputs_at_blas_threads(n, checkpoint, problems, out):
    """eval on the chip and paper stacks, baselines and min-k --checkpoint
    with every loaded OpenBLAS at n threads: each output, wall time aside."""
    out.mkdir()
    paper = ("--sim", "paper", "--problems", problems)
    with ad.blas_threads(n):
        for sim in ("chip", "paper"):
            assert run("eval", "--sim", sim, "--checkpoint", checkpoint,
                       "--problems", problems, "--k", 20,
                       "--out", out / f"eval_{sim}.json") == EXIT_OK
        assert run("baselines", *paper, "--k", 20, "--rs-budgets", 6,
                   "--ga-presets", "4:2:1",
                   "--out", out / "baselines.json") == EXIT_OK
        assert run("min-k", *paper, "--checkpoint", checkpoint,
                   "--target", 1e9, "--k-max", 20,
                   "--out", out / "min_k.json") == EXIT_OK
    docs = {}
    for path in sorted(out.iterdir()):
        docs[path.name] = doc = json.loads(path.read_text())
        doc.get("metadata", {}).pop("wall_time_s", None)
    return docs


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # A paper-preset model at init on 10x10 problems at K=20: GEMMs large
    # enough for OpenBLAS to split over threads.
    with ad.blas_threads() as found:
        if not found:
            pytest.skip("no OpenBLAS symbol found: cannot set its threads")
    cfg = pol.ModelConfig()
    checkpoint = tmp_path / "paper.ckpt"
    pol.save_policy(checkpoint, pol.init_params(cfg), cfg)
    problems = tmp_path / "problems.json"
    write_problem_file(problems, gen_problem_set(4, 3, 10, 10, 15))
    assert _outputs_at_blas_threads(2, checkpoint, problems, tmp_path / "b2") \
        == _outputs_at_blas_threads(1, checkpoint, problems, tmp_path / "b1")


def test_search_commands_print_calls_and_solves(board5, tmp_path, capsys):
    # Each search command prints its simulator calls (the budgets) and the
    # terminations it solved, fewer because GA elites and the min-k
    # prefixes repeat terminations already scored.
    k = PARALLEL_MIN_PORTS
    feasible = [len(p.allowed_ports) for p in read_problem_file(board5)]
    lookahead = sum(sum(f - t for t in range(k)) + k + 1 for f in feasible)
    commands = [
        (("gen", "--rows", 5, "--cols", 5, "--train", 2, "--val", 0,
          "--test", 0, "--keepout-max", 2, "--expert", "--k", k,
          "--ga-population", 4, "--ga-generations", 2, "--ga-elites", 1,
          "--out", tmp_path), 2 * 8),
        (("baselines", "--problems", board5, "--k", k, "--rs-budgets", 6,
          "--ga-presets", "4:2:1", "--out", tmp_path / "b.json"), 2 * 14),
        (("min-k", "--problems", board5, "--target", 1e9, "--k-max", k),
         lookahead)]
    for argv, calls in commands:
        assert run(*argv, "--threads", 2) == EXIT_OK
        found = re.search(r"(\d+) simulator calls, (\d+) terminations "
                          r"solved", capsys.readouterr().out)
        assert int(found[1]) == calls and 0 < int(found[2]) < calls, argv
    doc = json.loads((tmp_path / "b.json").read_text())
    assert doc["metadata"]["simulator_calls"] == 2 * 14


def test_threaded_failure_matches_one_thread(board5, tmp_path, capsys,
                                             monkeypatch):
    # Every termination fails its residual check; the first search's first
    # placement fails first at any thread count, and no worker outlives
    # the command.
    monkeypatch.setattr(pdn, "TERMINATION_RESIDUAL_TOL", -1.0)
    errors = []
    for threads in (1, 2):
        before = threading.active_count()
        code = run("baselines", "--threads", threads, "--problems", board5,
                   "--k", PARALLEL_MIN_PORTS, "--rs-budgets", 6,
                   "--ga-presets", "4:2:1", "--out", tmp_path / "b.json")
        assert code == EXIT_NUMERIC
        assert threading.active_count() == before
        errors.append(capsys.readouterr().err)
    assert "ill-conditioned decap termination" in errors[0]
    assert errors[1] == errors[0]


@pytest.mark.parametrize("threads", [0, -1])
def test_exit_code_threads_below_one(board5, tmp_path, capsys, threads):
    code = run("baselines", "--threads", threads, "--problems", board5,
               "--k", 2, "--out", tmp_path / "b.json")
    assert code == EXIT_CONTRACT
    assert "threads must be >= 1" in capsys.readouterr().err


def test_baselines_report(workdir):
    out = workdir / "baselines.json"
    code = run("baselines", "--problems", workdir / "test_problems.json",
               "--k", 2, "--rs-budgets", 8, "--ga-presets", "4:2:1",
               "--seed", 2, "--out", out)
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    methods = {r["method"] for r in doc["rows"]}
    assert methods == {"rs-8", "ga-8"}


def test_report_draws_the_budget_curve(workdir, tmp_path):
    # Two budgets per method family give one curve each, rs and ga; one
    # budget per family, as in test_baselines_report, gives no budget.svg.
    for name, rs, ga in (("two", (4, 8), ("2:2:1", "4:2:1")),
                         ("one", (8,), ("4:2:1",))):
        doc = tmp_path / f"{name}.json"
        assert run("baselines", "--problems", workdir / "test_problems.json",
                   "--k", 2, "--rs-budgets", *rs, "--ga-presets", *ga,
                   "--out", doc) == EXIT_OK
        assert run("report", "--report", doc, "--max-plots", 0,
                   "--out", tmp_path / name) == EXIT_OK
    svg = (tmp_path / "two" / "budget.svg").read_text()
    assert svg.count("<polyline") == 2
    assert ">rs</text>" in svg and ">ga</text>" in svg
    assert os.listdir(tmp_path / "one") == ["scores.csv"]


def test_baselines_seed_each_method_apart(workdir, tmp_path, monkeypatch):
    # Problem i of a run seeded with s draws RS from seed 2(s + i) and the
    # GA from 2(s + i) + 1, one search per method and problem: the two
    # methods never draw from one stream.
    seeds = {"rs": [], "ga": []}
    random_search, ga_solve = cli.random_search, cli.ga_solve

    def rs_spy(problem, k, m, ev, seed):
        seeds["rs"].append(seed)
        return random_search(problem, k, m, ev, seed=seed)

    def ga_spy(problem, k, cfg, ev):
        seeds["ga"].append(cfg.seed)
        return ga_solve(problem, k, cfg, ev)

    monkeypatch.setattr(cli, "random_search", rs_spy)
    monkeypatch.setattr(cli, "ga_solve", ga_spy)
    assert run("baselines", "--problems", workdir / "test_problems.json",
               "--k", 2, "--rs-budgets", 8, "--ga-presets", "4:2:1",
               "--seed", 7, "--out", tmp_path / "b.json") == EXIT_OK
    assert seeds == {"rs": [14, 16, 18], "ga": [15, 17, 19]}


def test_min_k_zero_target(workdir):
    out = workdir / "mink0.json"
    code = run("min-k", "--problems", workdir / "test_problems.json",
               "--target", 0, "--k-max", 2, "--out", out)
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert all(r["min_k"] == 0 and r["met"] for r in doc["results"])


def test_min_k_unreachable_target(workdir):
    out = workdir / "minkbig.json"
    code = run("min-k", "--problems", workdir / "test_problems.json",
               "--target", 1e9, "--k-max", 2, "--out", out)
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert all(not r["met"] and r["min_k"] == 2 for r in doc["results"])


@pytest.mark.parametrize("method", ["greedy-sim", "policy"])
def test_min_k_unmet_records_placement_length(workdir, checkpoint, tmp_path,
                                              method):
    # --k-max above the 3x3 boards' 6-7 feasible ports: the unmet record's
    # min_k is the length of the placement it stores, not --k-max
    out = tmp_path / "mink.json"
    policy_args = ("--checkpoint", checkpoint) if method == "policy" else ()
    code = run("min-k", "--problems", workdir / "test_problems.json",
               "--target", 1e9, "--k-max", 30, *policy_args, "--out", out)
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["method"] == method
    problems = read_problem_file(workdir / "test_problems.json")
    for p, r in zip(problems, doc["results"]):
        assert not r["met"]
        assert r["min_k"] == len(r["placement"]) == len(p.allowed_ports) < 30


def test_min_k_matches_exhaustive_oracle(eval3):
    from decapbench.env import gen_problem_set
    probs = gen_problem_set(7, 8, 3, 3, 3)
    rng = np.random.Generator(np.random.PCG64(11))
    for p in probs:
        feas = p.allowed_ports
        kmax = min(3, len(feas))
        best = max(eval3.evaluate(p, c)
                   for c in itertools.combinations(feas, kmax))
        target = float(rng.uniform(0.2, 1.0)) * best
        exhaustive = None
        for k in range(1, kmax + 1):
            if any(eval3.evaluate(p, c) >= target
                   for c in itertools.combinations(feas, k)):
                exhaustive = k
                break
        rec = min_k_for_target(p, target, kmax, eval3)
        assert rec["met"] and rec["min_k"] == exhaustive


def test_exit_code_contract_violation(tmp_path):
    # paper stack is 10x10; a 3x3 problem file violates the contract
    from decapbench.env import gen_problem_set, write_problem_file
    path = tmp_path / "p.json"
    write_problem_file(path, gen_problem_set(0, 2, 3, 3, 2))
    code = run("baselines", "--problems", path, "--k", 2, "--sim", "paper",
               "--out", tmp_path / "r.json")
    assert code == EXIT_CONTRACT


def test_exit_code_io_error(tmp_path):
    code = run("eval", "--checkpoint", tmp_path / "missing.ckpt",
               "--problems", tmp_path / "missing.json",
               "--k", 2, "--out", tmp_path / "out.json")
    assert code == EXIT_IO


@pytest.mark.parametrize("command", ["min-k", "baselines", "eval"])
def test_exit_code_malformed_problem_file(tmp_path, checkpoint, command):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1, "problems": [{"rows": 3}]}')
    args = {"min-k": ("--target", 1, "--k-max", 1),
            "baselines": ("--k", 2, "--out", tmp_path / "r.json"),
            "eval": ("--checkpoint", checkpoint, "--k", 2,
                     "--out", tmp_path / "e.json")}[command]
    assert run(command, "--problems", bad, *args) == EXIT_CONTRACT


@pytest.mark.parametrize("lines", [
    ['{"schema_version": 1}', '{"problem": {"rows": 3}}'],
    ['{"problem": {"rows": 3}}']])
def test_exit_code_malformed_dataset(workdir, tmp_path, lines):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    code = run("train", "--dataset", bad,
               "--val-problems", workdir / "val_problems.json",
               "--steps", 1, "--out", tmp_path / "m.ckpt")
    assert code == EXIT_CONTRACT


def test_exit_code_dataset_smaller_than_batch(workdir, tmp_path, capsys):
    # 4 records with the toy preset's 4 reordered copies each augment to
    # 20 rows, fewer than its batch of 25
    out = tmp_path / "m.ckpt"
    code = run("train", "--dataset", workdir / "expert_dataset.jsonl",
               "--val-problems", workdir / "val_problems.json",
               "--preset", "toy", "--k", 2, "--out", out)
    assert code == EXIT_CONTRACT
    assert "batch size 25" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    {"schema_version": 1, "problems": [{"rows": 3}], "rows": []},
    # a row shorter than the problem list
    {"schema_version": 1,
     "problems": [{"rows": 3, "cols": 3, "probe": 0, "keepout": []}],
     "rows": [{"method": "m", "budget": 1, "k": 1, "mean_score": 0.0,
               "std_score": 0.0, "placements": [], "scores": []}]}])
def test_exit_code_malformed_report(tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = run("report", "--report", bad, "--verify",
               "--out", tmp_path / "plots")
    assert code == EXIT_CONTRACT


def test_exit_code_bad_json(workdir, checkpoint, tmp_path):
    # invalid JSON, then bytes that are not UTF-8, in every file argument
    # read as JSON text
    bad = tmp_path / "bad.json"
    commands = [
        ("min-k", "--problems", bad, "--target", 1, "--k-max", 1),
        ("eval", "--checkpoint", checkpoint, "--problems", bad, "--k", 2,
         "--out", tmp_path / "e.json"),
        ("report", "--report", bad, "--out", tmp_path / "plots"),
        ("train", "--dataset", bad,
         "--val-problems", workdir / "val_problems.json", "--steps", 1,
         "--out", tmp_path / "m.ckpt")]
    for content in (b"{not json", b"\xff\xfe{}"):
        bad.write_bytes(content)
        for argv in commands:
            assert run(*argv) == EXIT_IO, (content, argv[0])


@pytest.mark.parametrize("edit", [{"std_score": 123.0}, {"k": 7},
                                  {"mean_score": 1.0}],
                         ids=["std", "k", "mean"])
def test_report_verify_rejects_tampered_row(workdir, tmp_path, capsys, edit):
    # A row must re-derive its mean and std from its scores, and every
    # placement must be K ports long; re-simulation alone checks neither.
    path = tmp_path / "b.json"
    assert run("baselines", "--problems", workdir / "test_problems.json",
               "--k", 2, "--rs-budgets", 4, "--ga-presets",
               "--out", path) == EXIT_OK
    doc = json.loads(path.read_text())
    doc["rows"][0].update(edit)
    path.write_text(json.dumps(doc))
    code = run("report", "--report", path, "--verify", "--max-plots", 1,
               "--out", tmp_path / "plots")
    assert code == EXIT_CONTRACT
    assert "bad report" in capsys.readouterr().err
    assert not (tmp_path / "plots").exists()


def test_exit_code_out_of_memory(workdir, tmp_path, capsys, monkeypatch):
    # A board too large for a dense sweep fails its allocation; no real
    # oversized board is built, since the allocation can succeed and fill
    # the machine's memory where the kernel overcommits.
    def oversized(*args, **kwargs):
        raise MemoryError("Unable to allocate 300. GiB for an array with "
                          "shape (201, 10000, 10000) and data type complex128")

    monkeypatch.setattr(pdn, "solve_z_ports", oversized)
    code = run("baselines", "--problems", workdir / "test_problems.json",
               "--k", 2, "--out", tmp_path / "b.json")
    captured = capsys.readouterr()
    assert code == EXIT_CONTRACT
    assert "too large for memory" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_exit_code_sweep_larger_than_ram(tmp_path, capsys):
    # A 100x100 board's sweep needs ~300 GiB; it is rejected from its size
    # before anything that large is allocated.
    path = tmp_path / "big.json"
    write_problem_file(path, [Problem(100, 100, 0, frozenset())])
    tracemalloc.start()
    try:
        code = run("baselines", "--problems", path, "--k", 2,
                   "--out", tmp_path / "b.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == EXIT_CONTRACT
    assert "of physical RAM" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert peak < 64 * 2**20


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (-2, -2)])
def test_exit_code_gen_non_positive_board(tmp_path, capsys, rows, cols):
    code = run("gen", "--rows", rows, "--cols", cols, "--val", 2,
               "--test", 2, "--keepout-max", 1, "--out", tmp_path)
    assert code == EXIT_CONTRACT
    assert "board dimensions must be positive" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag, field", [("--steps", "max_steps"),
                                         ("--batch", "batch_size"),
                                         ("--k", "k")])
@pytest.mark.parametrize("value", [0, -1])
def test_exit_code_train_non_positive_count(workdir, tmp_path, capsys, flag,
                                            field, value):
    out = tmp_path / "m.ckpt"
    code = run("train", "--dataset", workdir / "expert_dataset.jsonl",
               "--val-problems", workdir / "val_problems.json",
               "--preset", "toy", "--batch", 8, "--steps", 1, "--k", 2,
               flag, value, "--out", out)
    assert code == EXIT_CONTRACT
    assert f"{field} must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def _ints(lo, hi):
    return st.integers(min_value=lo, max_value=hi)


# (command, its numeric arguments). GA presets start with a non-negative
# population so that argparse reads them as values, not as options.
NUMERIC_ARGUMENTS = st.one_of(
    st.builds(lambda r, c, ko: ("gen", ["--rows", r, "--cols", c,
                                        "--keepout-max", ko]),
              _ints(-1, 5), _ints(-1, 5), _ints(-1, 9)),
    st.builds(lambda b, s, k: ("train", ["--batch", b, "--steps", s,
                                         "--k", k]),
              _ints(-1, 6), _ints(-1, 2), _ints(-1, 9)),
    st.builds(lambda k: ("min-k", ["--k-max", k]), _ints(-2, 12)),
    st.builds(lambda k, rs, ga: ("baselines", ["--k", k, "--rs-budgets", *rs,
                                               "--ga-presets", *ga]),
              _ints(-1, 9), st.lists(_ints(-1, 4), max_size=2),
              st.lists(st.builds("{}:{}:{}".format, _ints(0, 5),
                                 _ints(-1, 3), _ints(-1, 4)), max_size=2)))


@settings(max_examples=60, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(case=("gen", ["--rows", 0, "--cols", 3, "--keepout-max", 2]))
@example(case=("train", ["--batch", 2, "--steps", 1, "--k", -1]))
@example(case=("baselines", ["--k", -1, "--rs-budgets", 2,
                             "--ga-presets"]))
@example(case=("gen", ["--rows", 3, "--cols", 3, "--keepout-max", 2,
                       "--seed", -1]))
@example(case=("train", ["--batch", 2, "--steps", 1, "--k", 2,
                         "--seed", -1]))
@example(case=("baselines", ["--k", 2, "--seed", -1]))
@given(case=NUMERIC_ARGUMENTS)
def test_numeric_arguments_exit_cleanly(workdir, tmp_path, capsys,
                                        run_with_timeout, case):
    command, numeric = case
    fixed = {
        "gen": ("--train", 0, "--val", 2, "--test", 2,
                "--out", tmp_path / "gen"),
        "train": ("--dataset", workdir / "expert_dataset.jsonl",
                  "--val-problems", workdir / "val_problems.json",
                  "--preset", "toy", "--out", tmp_path / "m.ckpt"),
        "min-k": ("--problems", workdir / "test_problems.json",
                  "--target", 1e9),
        "baselines": ("--problems", workdir / "test_problems.json",
                      "--out", tmp_path / "b.json"),
    }[command]
    codes = []

    def call():
        try:
            codes.append(run(command, *fixed, *numeric))
        except SystemExit as exc:   # argparse rejected the command line
            codes.append(exc.code)

    assert run_with_timeout(call) is None
    captured = capsys.readouterr()
    assert codes[0] in (EXIT_OK, EXIT_CONTRACT, EXIT_NUMERIC, EXIT_IO)
    assert "Traceback" not in captured.out + captured.err


def _edit_header(edit):
    """A damage function that rewrites the checkpoint's JSON header with
    edit(header) -> new header, keeping the data blobs."""
    def damage(blob):
        (hlen,) = struct.unpack("<Q", blob[4:12])
        new = json.dumps(edit(json.loads(blob[12:12 + hlen])),
                         sort_keys=True).encode()
        return blob[:4] + struct.pack("<Q", len(new)) + new + blob[12 + hlen:]
    return damage


def _extra_config_key(header):
    header["config"]["extra"] = 1
    header["config_hash"] = ad.config_hash(header["config"])
    return header


def _without_params(header):
    del header["params"]
    return header


def _negate_first_shape(header):
    # Same element count, so only the shape's sign is wrong.
    header["params"][0][1] = [-n for n in header["params"][0][1]]
    return header


def _huge_first_shape(header):
    header["params"][0][1] = [2 ** 40]
    return header


def _without_last_buffer(header):
    header["buffers"].pop()
    return header


def _three_ablation_flags(header):
    # The config of a checkpoint saved before one `ablated` flag replaced
    # use_ppe/use_pcn/use_rcn.
    del header["config"]["ablated"]
    header["config"].update(use_ppe=True, use_pcn=True, use_rcn=True)
    header["config_hash"] = ad.config_hash(header["config"])
    return header


def _without_float32(header):
    # The config of a checkpoint saved before ModelConfig.float32 existed.
    del header["config"]["float32"]
    header["config_hash"] = ad.config_hash(header["config"])
    return header


def _string_d_model(header):
    header["config"]["d_model"] = "32"
    header["config_hash"] = ad.config_hash(header["config"])
    return header


@pytest.mark.parametrize("damage", [
    lambda blob: blob[:len(blob) // 2],   # ends inside the parameters
    lambda blob: blob[:6],                # ends inside the length prefix
    lambda blob: blob[:4] + struct.pack("<Q", 2 ** 50) + blob[12:],
    _edit_header(_extra_config_key),
    _edit_header(_without_params),
    _edit_header(lambda header: [header]),
    _edit_header(_negate_first_shape),
    _edit_header(_huge_first_shape),
    _edit_header(_without_last_buffer),
    _edit_header(_string_d_model),
    _edit_header(_three_ablation_flags),
    _edit_header(_without_float32)],
    ids=["half", "first-6-bytes", "huge-header-length", "extra-config-key",
         "no-params", "list-header", "negative-shape", "huge-shape",
         "missing-buffer", "string-d-model", "three-ablation-flags",
         "no-float32-field"])
def test_exit_code_malformed_checkpoint(workdir, checkpoint, tmp_path,
                                        damage):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(damage(checkpoint.read_bytes()))
    code = run("eval", "--checkpoint", bad,
               "--problems", workdir / "test_problems.json",
               "--k", 2, "--out", tmp_path / "e.json")
    assert code == EXIT_CONTRACT


def test_greedy_sim_placement_feasible(eval3):
    from decapbench.env import gen_problem_set, validate_placement
    p = gen_problem_set(9, 1, 3, 3, 2)[0]
    placement = greedy_sim_placement(p, 3, eval3)
    validate_placement(p, placement)
    assert len(placement) == 3


def test_lookahead_pick_breaks_ties_by_lowest_port():
    # Two mirror-image placements of the test_draw_order golden, 1 ulp apart.
    best = 215.57247239360925
    low = np.nextafter(best, 0.0)
    assert _lookahead_pick([2, 8], [low, best]) == 2
    assert _lookahead_pick([2, 8], [best, low]) == 2
    assert _lookahead_pick([2, 5, 8], [best - 1.0, low, best]) == 5
    # A gap larger than the tolerance: the maximum wins.
    gap = 10 * LOOKAHEAD_TIE_RTOL * best
    assert _lookahead_pick([2, 8], [best - gap, best]) == 8
    assert _lookahead_pick([2, 8], [-best - gap, -best]) == 8


# --- fuzzed input files -------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _ints(-2, 6) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


@st.composite
def _edited(draw, doc):
    """doc with one node replaced by a random JSON value or removed from
    its container. Integers stay small, so no edit asks for a large
    board."""
    if isinstance(doc, (dict, list)) and doc and draw(_ints(0, 3)):
        key = draw(st.sampled_from(list(doc) if isinstance(doc, dict)
                                   else range(len(doc))))
        doc = dict(doc) if isinstance(doc, dict) else list(doc)
        if draw(_ints(0, 4)):
            doc[key] = draw(_edited(doc[key]))
        else:
            del doc[key]
        return doc
    return draw(JSON_VALUES)


@pytest.fixture(scope="module")
def fuzz_inputs(workdir, checkpoint):
    """kind -> (a valid document; its file bytes given an edited copy and
    whether to rehash a checkpoint config; a command reading the file F)."""
    problems, report = workdir / "test_problems.json", workdir / "fz.json"
    assert run("eval", "--checkpoint", checkpoint, "--problems", problems,
               "--k", 2, "--out", report) == EXIT_OK
    blob = checkpoint.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[4:12])

    def checkpoint_bytes(doc, rehash):
        if rehash and isinstance(doc, dict) and "config" in doc:
            doc["config_hash"] = ad.config_hash(doc["config"])
        text = json.dumps(doc).encode()
        return blob[:4] + struct.pack("<Q", len(text)) + text \
            + blob[12 + hlen:]

    def jsonl(docs, _):
        docs = docs if isinstance(docs, list) else [docs]
        return "".join(json.dumps(d) + "\n" for d in docs).encode()

    lines = (workdir / "expert_dataset.jsonl").read_text().splitlines()
    return {
        "problems": (json.loads(problems.read_text()), jsonl,
                     ("min-k", "--problems", "F", "--target", 1e9,
                      "--k-max", 2)),
        "dataset": ([json.loads(line) for line in lines], jsonl,
                    ("train", "--dataset", "F", "--val-problems", problems,
                     "--preset", "toy", "--steps", 1, "--batch", 2, "--k", 2,
                     "--out", workdir / "fz.ckpt")),
        "report": (json.loads(report.read_text()), jsonl,
                   ("report", "--report", "F", "--verify", "--max-plots", 1,
                    "--out", workdir / "fz_plots")),
        "checkpoint": (json.loads(blob[12:12 + hlen]), checkpoint_bytes,
                       ("eval", "--checkpoint", "F", "--problems", problems,
                        "--k", 2, "--out", workdir / "fz_eval.json")),
    }


@settings(max_examples=80, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), kind=st.sampled_from(["problems", "dataset", "report",
                                              "checkpoint"]),
       rehash=st.booleans(), cut=st.none() | st.floats(0, 1))
def test_fuzzed_input_files_exit_cleanly(fuzz_inputs, tmp_path, capsys,
                                         run_with_timeout, data, kind,
                                         rehash, cut):
    # rehash: a checkpoint's config hash matches its edited config;
    # cut: the file ends at this fraction of its bytes
    doc, to_bytes, argv = fuzz_inputs[kind]
    blob = to_bytes(data.draw(_edited(json.loads(json.dumps(doc)))), rehash)
    bad = tmp_path / "fuzzed"
    bad.write_bytes(blob if cut is None else blob[:int(len(blob) * cut)])
    argv = [bad if a == "F" else a for a in argv]
    codes = []
    assert run_with_timeout(lambda: codes.append(run(*argv)), 30) is None
    captured = capsys.readouterr()
    assert codes[0] in (EXIT_OK, EXIT_CONTRACT, EXIT_NUMERIC, EXIT_IO)
    assert "Traceback" not in captured.out + captured.err


def test_readme_cli_commands_parse():
    # Every decapbench command in the README's CLI section's code blocks,
    # continuation lines joined, is accepted by the parser the program uses.
    readme = (pathlib.Path(__file__).resolve().parent.parent
              / "README.md").read_text()
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    block = "".join(b.split("```", 1)[0]
                    for b in section.split("```sh\n")[1:])
    commands = [shlex.split(line) for line in
                block.replace("\\\n", " ").splitlines()
                if line.startswith("decapbench ")]
    assert len(commands) == 9
    for argv in commands:
        args = build_parser().parse_args(argv[1:])
        assert args.command == argv[1]
