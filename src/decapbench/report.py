"""Result artifacts: BenchReport tables, CSV emission, and deterministic
SVG plots (impedance curves, placement heatmaps and J against budget).

Every score stored in a BenchReport carries the placements it came from, so
verify() can re-derive each number by re-simulation; a row's mean and std
are derived from its scores and checked against the stored ones on load.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import pdn
from .env import PROBLEM_SCHEMA, Evaluator, Problem
from .errors import ContractViolation, check_schema

REPORT_SCHEMA_VERSION = 1

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "schema_version": {"const": REPORT_SCHEMA_VERSION},
        "problems": {"type": "array", "items": PROBLEM_SCHEMA,
                     "minItems": 1},
        "rows": {"type": "array", "items": {
            "type": "object",
            "properties": {
                "method": {"type": "string"},
                "budget": {"type": "integer"},
                "k": {"type": "integer"},
                "mean_score": {"type": "number"},
                "std_score": {"type": "number"},
                "placements": {"type": "array", "items": {
                    "type": "array", "items": {"type": "integer"}}},
                "scores": {"type": "array", "items": {"type": "number"}},
            },
            "required": ["method", "budget", "k", "mean_score", "std_score",
                         "placements", "scores"],
        }},
        "metadata": {"type": "object"},
    },
    "required": ["schema_version", "problems", "rows"],
}

REPORT_CSV_COLUMNS = ("method", "budget", "k", "mean_score", "std_score",
                      "n_problems")


@dataclass
class MethodRow:
    method: str
    budget: int            # simulator calls per problem (M); 1 for greedy
    k: int
    placements: list       # one placement per problem, aligned with problems
    scores: list

    @property
    def mean_score(self) -> float:
        return float(np.mean(self.scores))

    @property
    def std_score(self) -> float:
        """Over problems."""
        return float(np.std(self.scores))

    def to_dict(self) -> dict:
        return {"method": self.method, "budget": self.budget, "k": self.k,
                "mean_score": self.mean_score, "std_score": self.std_score,
                "placements": [list(p) for p in self.placements],
                "scores": list(self.scores)}

    @staticmethod
    def from_dict(d: dict) -> "MethodRow":
        row = MethodRow(d["method"], d["budget"], d["k"],
                        [tuple(p) for p in d["placements"]], list(d["scores"]))
        if any(len(p) != row.k for p in row.placements):
            raise ContractViolation(
                f"bad report: a placement of {row.method} is not K={row.k} "
                f"ports long")
        if (d["mean_score"], d["std_score"]) != (row.mean_score,
                                                 row.std_score):
            raise ContractViolation(
                f"bad report: stored mean or std of {row.method} does not "
                f"re-derive from its scores")
        return row


@dataclass
class BenchReport:
    problems: list                      # Problem objects
    rows: list = field(default_factory=list)   # MethodRow
    metadata: dict = field(default_factory=dict)

    def add_method(self, method: str, budget: int, k: int,
                   placements, scores) -> MethodRow:
        if len(placements) != len(self.problems) or \
                len(scores) != len(self.problems):
            raise ContractViolation("one placement and score per problem")
        row = MethodRow(method, budget, k, list(placements), list(scores))
        self.rows.append(row)
        return row

    def to_dict(self) -> dict:
        return {"schema_version": REPORT_SCHEMA_VERSION,
                "problems": [p.to_dict() for p in self.problems],
                "rows": [r.to_dict() for r in self.rows],
                "metadata": self.metadata}

    @staticmethod
    def from_dict(d: dict) -> "BenchReport":
        check_schema(d, REPORT_SCHEMA, "report")
        n = len(d["problems"])
        if any(len(r["placements"]) != n or len(r["scores"]) != n
               for r in d["rows"]):
            raise ContractViolation(
                "bad report: one placement and score per problem")
        return BenchReport([Problem.from_dict(p) for p in d["problems"]],
                           [MethodRow.from_dict(r) for r in d["rows"]],
                           d.get("metadata", {}))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path) -> "BenchReport":
        with open(path) as fh:
            return BenchReport.from_dict(json.load(fh))

    def verify(self, evaluator: Evaluator) -> None:
        """Re-simulate every stored placement; raise on any mismatch."""
        for row in self.rows:
            fresh_scores = evaluator.evaluate_all(self.problems,
                                                  row.placements)
            for fresh, score in zip(fresh_scores, row.scores):
                if fresh != score:
                    raise ContractViolation(
                        f"stored score {score!r} does not re-derive "
                        f"({fresh!r}) for method {row.method}")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(REPORT_CSV_COLUMNS)
            out.writerows((r.method, r.budget, r.k, r.mean_score,
                           r.std_score, len(self.problems))
                          for r in self.rows)

    def write_budget_plot(self, path) -> None:
        """Mean J against budget M, one series per method family with two
        or more budgets; no file when no family has two. A family is the
        method name less its "-M" suffix: rs-20 and rs-60 are rs."""
        families = {}
        for r in self.rows:
            family = r.method.removesuffix(f"-{r.budget}")
            if family != r.method:
                families.setdefault(family, []).append(
                    (r.budget, r.mean_score))
        series = [(family, *zip(*sorted(points)))
                  for family, points in families.items() if len(points) > 1]
        if series:
            svg_line_plot(path, series, "Search score vs simulation budget",
                          "simulator calls per problem (M)",
                          "mean objective J")


# --- SVG helpers -------------------------------------------------------------
#
# Hand-rolled writer so the output is deterministic and diffable: fixed
# float formatting, no timestamps, stable element order.

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


def _esc(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def _ticks(lo: float, hi: float, n: int = 5) -> list:
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise ContractViolation("bad axis range")
    raw = np.linspace(lo, hi, n)
    return [float(v) for v in raw]


def svg_line_plot(path, series, title: str, xlabel: str, ylabel: str,
                  xlog: bool = False, ylog: bool = False,
                  width: int = 640, height: int = 420) -> None:
    """series: iterable of (label, xs, ys). Writes a standalone SVG."""
    series = [(lbl, np.asarray(xs, float), np.asarray(ys, float))
              for lbl, xs, ys in series]
    if not series:
        raise ContractViolation("nothing to plot")
    for _, xs, ys in series:
        if xs.shape != ys.shape or xs.size < 2:
            raise ContractViolation("series needs matching x/y of length >= 2")
        if (xlog and (xs <= 0).any()) or (ylog and (ys <= 0).any()):
            raise ContractViolation("log axis requires positive data")

    def tx(v):
        return np.log10(v) if xlog else v

    def ty(v):
        return np.log10(v) if ylog else v

    x_all = np.concatenate([tx(xs) for _, xs, _ in series])
    y_all = np.concatenate([ty(ys) for _, _, ys in series])
    x0, x1 = float(x_all.min()), float(x_all.max())
    y0, y1 = float(y_all.min()), float(y_all.max())
    if y1 == y0:
        y0, y1 = y0 - 1.0, y1 + 1.0
    if x1 == x0:
        x0, x1 = x0 - 1.0, x1 + 1.0
    pad = 0.04 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    ml, mr, mt, mb = 70, 20, 40, 55
    pw, ph = width - ml - mr, height - mt - mb

    def px(v):
        return ml + (v - x0) / (x1 - x0) * pw

    def py(v):
        return mt + (1.0 - (v - y0) / (y1 - y0)) * ph

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<text x="{width / 2}" y="22" text-anchor="middle" '
           f'font-family="sans-serif" font-size="15">{_esc(title)}</text>']
    # axes and ticks
    out.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
               'fill="none" stroke="black"/>')
    for v in _ticks(x0, x1):
        x = px(v)
        lbl = f"1e{v:.1f}" if xlog else _fmt(v)
        out.append(f'<line x1="{_fmt(x)}" y1="{mt + ph}" x2="{_fmt(x)}" '
                   f'y2="{mt + ph + 5}" stroke="black"/>')
        out.append(f'<text x="{_fmt(x)}" y="{mt + ph + 20}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{_esc(lbl)}</text>')
    for v in _ticks(y0, y1):
        y = py(v)
        lbl = f"1e{v:.1f}" if ylog else _fmt(v)
        out.append(f'<line x1="{ml - 5}" y1="{_fmt(y)}" x2="{ml}" '
                   f'y2="{_fmt(y)}" stroke="black"/>')
        out.append(f'<text x="{ml - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{_esc(lbl)}</text>')
    out.append(f'<text x="{width / 2}" y="{height - 12}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13">{_esc(xlabel)}</text>')
    out.append(f'<text x="16" y="{height / 2}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 16 {height / 2})">{_esc(ylabel)}</text>')
    # series
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{_fmt(px(a))},{_fmt(py(b))}"
                       for a, b in zip(tx(xs), ty(ys)))
        out.append(f'<polyline points="{pts}" fill="none" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 16 + 16 * i
        out.append(f'<line x1="{ml + pw - 130}" y1="{ly - 4}" '
                   f'x2="{ml + pw - 105}" y2="{ly - 4}" stroke="{color}" '
                   'stroke-width="1.5"/>')
        out.append(f'<text x="{ml + pw - 100}" y="{ly}" '
                   f'font-family="sans-serif" font-size="11">'
                   f'{_esc(label)}</text>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def svg_placement_heatmap(path, problem: Problem, placement,
                          cell_px: int = 36) -> None:
    """Board diagram: probe red, keep-out grey, decaps blue, free white."""
    placement = tuple(int(a) for a in placement)
    rows, cols = problem.n_rows, problem.n_cols
    ml, mt = 10, 10
    width = cols * cell_px + 2 * ml
    height = rows * cell_px + 2 * mt + 20
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>']
    for idx in range(problem.n_ports):
        r, c = idx // cols, idx % cols
        if idx == problem.probe:
            fill, tag = "#d62728", "P"
        elif idx in problem.keepout:
            fill, tag = "#bbbbbb", "x"
        elif idx in placement:
            fill, tag = "#1f77b4", str(placement.index(idx) + 1)
        else:
            fill, tag = "#ffffff", ""
        x, y = ml + c * cell_px, mt + r * cell_px
        out.append(f'<rect x="{x}" y="{y}" width="{cell_px}" '
                   f'height="{cell_px}" fill="{fill}" stroke="black"/>')
        if tag:
            out.append(f'<text x="{x + cell_px / 2}" y="{y + cell_px / 2 + 5}" '
                       f'text-anchor="middle" font-family="sans-serif" '
                       f'font-size="14" fill="white">{_esc(tag)}</text>')
    out.append(f'<text x="{ml}" y="{height - 6}" font-family="sans-serif" '
               'font-size="11">P=probe, x=keep-out, numbers=decap order'
               '</text>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def write_impedance_csv(path, grid: pdn.FreqGrid, initial: np.ndarray,
                        final: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("frequency_hz,z_initial_ohm,z_final_ohm\n")
        for f, zi, zf in zip(grid.points, initial, final):
            fh.write(f"{float(f)!r},{float(zi)!r},{float(zf)!r}\n")


def impedance_artifacts(evaluator: Evaluator, problem: Problem, placement,
                        out_prefix: str, title: str = "Probe impedance"):
    """CSV + SVG of the initial and final |Z(f)| at the probing port."""
    initial = evaluator.bare_profile(problem)
    final = evaluator.final_profile(problem, placement)
    grid = evaluator.config.grid
    write_impedance_csv(out_prefix + ".csv", grid, initial, final)
    svg_line_plot(out_prefix + ".svg",
                  [("initial", grid.points, initial),
                   ("final", grid.points, final)],
                  title, "frequency (Hz)", "|Z| (ohm)", xlog=True, ylog=True)
    return initial, final
