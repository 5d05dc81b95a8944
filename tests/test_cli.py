import itertools
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from decapbench import autodiff as ad
from decapbench import pdn
from decapbench.cli import (EXIT_CONTRACT, EXIT_IO, EXIT_NUMERIC, EXIT_OK,
                            greedy_sim_placement, main, min_k_for_target)
from decapbench.env import read_problem_file


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


def test_eval_threads_do_not_change_results(workdir, checkpoint):
    outs = []
    for threads in (1, 4):
        out = workdir / f"eval_t{threads}.json"
        code = run("eval", "--checkpoint", checkpoint,
                   "--problems", workdir / "test_problems.json",
                   "--k", 2, "--threads", threads, "--out", out)
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        doc["metadata"] = None
        outs.append(doc)
    assert outs[0] == outs[1]


def test_baselines_report(workdir):
    out = workdir / "baselines.json"
    code = run("baselines", "--problems", workdir / "test_problems.json",
               "--k", 2, "--rs-budgets", 8, "--ga-presets", "4:2:1",
               "--seed", 2, "--out", out)
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    methods = {r["method"] for r in doc["rows"]}
    assert methods == {"rs-8", "ga-8"}


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
    _edit_header(_string_d_model)],
    ids=["half", "first-6-bytes", "huge-header-length", "extra-config-key",
         "no-params", "list-header", "negative-shape", "huge-shape",
         "missing-buffer", "string-d-model"])
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
