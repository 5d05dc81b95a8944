"""Smoke tests for the experiment scripts under scripts/, each run as
`python3 scripts/<name>.py ...` would run it."""

import pathlib
import runpy
import sys

from decapbench import training as tr

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *(str(a) for a in argv)])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_run_ga_vs_rs(monkeypatch, tmp_path, capsys):
    run_script(monkeypatch, "run_ga_vs_rs.py", "--problems", 1, "--k", 2,
               "--out", tmp_path)
    lines = (tmp_path / "scores.csv").read_text().splitlines()
    assert lines[0] == "budget,ga_mean,rs_mean"
    assert [line.split(",")[0] for line in lines[1:]] == \
        ["20", "60", "100", "200", "500"]
    assert (tmp_path / "scores.svg").read_text().startswith("<svg")
    assert f"wrote {tmp_path}/scores.csv" in capsys.readouterr().out


def test_run_cse_vs_il_counts_wins(monkeypatch, capsys):
    # (bias, final J) per arm: seed 0 is a CSE win on both counts, seed 1
    # loses the bias count and ties the J count, which counts as a win
    canned = {("cse", 0): (1e-3, 400.0), ("il", 0): (2e-2, 399.0),
              ("cse", 1): (5e-2, 398.0), ("il", 1): (1e-2, 398.0)}
    calls = []

    def experiment(seeds, arms):
        calls.append((list(seeds), tuple(arms)))
        return {key: {"best_val": j, "final_j": j, "bias": bias}
                for key, (bias, j) in canned.items()}

    monkeypatch.setattr(tr, "directional_experiment", experiment)
    run_script(monkeypatch, "run_cse_vs_il.py", "--seeds", 2)
    assert calls == [([0, 1], ("cse", "il"))]
    out = capsys.readouterr().out
    assert "bias wins 1/2, J wins 2/2" in out
