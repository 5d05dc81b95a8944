import csv

import numpy as np
import pytest

from decapbench import report as rep
from decapbench.env import Problem, gen_problem_set
from decapbench.errors import ContractViolation


def _toy_report(eval3):
    probs = gen_problem_set(0, 3, 3, 3, 2)
    r = rep.BenchReport(probs)
    placements = [tuple(sorted(p.allowed_ports)[:2]) for p in probs]
    scores = [eval3.evaluate(p, a) for p, a in zip(probs, placements)]
    r.add_method("fixed", 1, 2, placements, scores)
    return r


def test_report_round_trip_and_verify(eval3, tmp_path):
    r = _toy_report(eval3)
    path = tmp_path / "report.json"
    r.save(path)
    again = rep.BenchReport.load(path)
    assert again.to_dict() == r.to_dict()
    again.verify(eval3)     # exact re-derivation


def test_report_verify_catches_tampering(eval3):
    r = _toy_report(eval3)
    r.rows[0].scores[0] += 1e-3
    with pytest.raises(ContractViolation):
        r.verify(eval3)


def test_report_add_method_length_contract(eval3):
    r = _toy_report(eval3)
    with pytest.raises(ContractViolation):
        r.add_method("short", 1, 2, [(0, 1)], [1.0])


def test_report_csv(eval3, tmp_path):
    r = _toy_report(eval3)
    r.add_method("a,b", 1, 2, r.rows[0].placements, r.rows[0].scores)
    path = tmp_path / "scores.csv"
    r.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(rep.REPORT_CSV_COLUMNS)
    assert lines[1].startswith("fixed,1,2,")
    rows = list(csv.reader(lines[1:]))
    assert [row[0] for row in rows] == ["fixed", "a,b"]
    # float() raises on a cell that is not a plain number
    assert all(len([float(c) for c in row[1:]]) == 5 for row in rows)


def test_budget_plot_draws_families_with_two_budgets(tmp_path):
    # rs and devformer-sample have two budgets each; ga has one, and
    # devformer-greedy's name carries no budget suffix.
    probs = gen_problem_set(0, 1, 3, 3, 2)
    r = rep.BenchReport(probs)
    for method, budget, score in (("rs-20", 20, 1.0), ("ga-20", 20, 2.0),
                                  ("rs-60", 60, 3.0),
                                  ("devformer-greedy", 1, 4.0),
                                  ("devformer-sample-10", 10, 5.0),
                                  ("devformer-sample-100", 100, 6.0)):
        r.add_method(method, budget, 2, [(0, 1)], [score])
    path = tmp_path / "budget.svg"
    r.write_budget_plot(path)
    text = path.read_text()
    assert text.count("<polyline") == 2
    assert ">rs</text>" in text and ">devformer-sample</text>" in text
    r.rows = r.rows[1:4]        # ga-20, rs-60, devformer-greedy
    r.write_budget_plot(tmp_path / "none.svg")
    assert not (tmp_path / "none.svg").exists()


def test_svg_line_plot_deterministic(tmp_path):
    xs = np.linspace(1.0, 10.0, 20)
    series = [("a", xs, np.sin(xs) + 2.0), ("b", xs, np.cos(xs) + 2.0)]
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    rep.svg_line_plot(p1, series, "t", "x", "y")
    rep.svg_line_plot(p2, series, "t", "x", "y")
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 2


def test_svg_line_plot_log_axis_rejects_nonpositive(tmp_path):
    with pytest.raises(ContractViolation):
        rep.svg_line_plot(tmp_path / "x.svg",
                          [("a", [1.0, 2.0], [0.0, 1.0])],
                          "t", "x", "y", ylog=True)


def test_svg_heatmap_marks_roles(tmp_path):
    p = Problem(3, 3, 4, frozenset({0}))
    path = tmp_path / "board.svg"
    rep.svg_placement_heatmap(path, p, (1, 8))
    text = path.read_text()
    assert text.count("#d62728") == 1       # probe
    assert text.count("#bbbbbb") == 1       # keep-out
    assert text.count("#1f77b4") == 2       # decaps
    assert ">1</text>" in text and ">2</text>" in text   # placement order


def test_impedance_artifacts(eval3, tmp_path):
    p = gen_problem_set(1, 1, 3, 3, 2)[0]
    placement = tuple(sorted(p.allowed_ports)[:2])
    prefix = str(tmp_path / "imp")
    initial, final = rep.impedance_artifacts(eval3, p, placement, prefix)
    assert (tmp_path / "imp.csv").exists()
    assert (tmp_path / "imp.svg").exists()
    # final curve must lie at or below the initial one at low frequency
    assert final[0] < initial[0]
    rows = (tmp_path / "imp.csv").read_text().splitlines()
    assert rows[0] == "frequency_hz,z_initial_ohm,z_final_ohm"
    assert len(rows) == len(eval3.config.grid) + 1
    # float() raises on a cell that is not a plain number
    cells = [float(c) for row in rows[1:] for c in row.split(",")]
    assert len(cells) == 3 * len(eval3.config.grid)
