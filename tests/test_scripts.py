"""Smoke tests for the experiment scripts under scripts/, each run as
`python3 scripts/<name>.py ...` would run it."""

import pathlib
import re
import runpy
import sys

from decapbench import training as tr

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *(str(a) for a in argv)])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_every_script_has_a_smoke_test():
    # Each file under scripts/ is run by some run_script call in this file.
    tested = set(re.findall(r'run_script\(monkeypatch, "([^"]+)"',
                            pathlib.Path(__file__).read_text()))
    files = {p.name for p in SCRIPTS.iterdir() if p.is_file()}
    assert files - tested == set()


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
