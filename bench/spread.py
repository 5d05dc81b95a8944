#!/usr/bin/env python3
"""Run one workload once per seed and print, for every metric, the median,
the quartiles and their distance as a share of the median, next to the
metric's bound from BENCHMARK.json:

    python3 bench/spread.py --workload search-paper --seeds 1-10 [--trace 1]

--out FILE keeps each run's digests, notes and result, to compare sets.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, kept = {}, []
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable if c == "python3" else c
                               for c in cmd], cwd=ROOT, capture_output=True,
                              text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        result = json.loads(lines[-1])
        kept.append({"seed": seed, "result": result, **{
            ln.split(" ", 1)[0]: json.loads(ln.split(" ", 1)[1])
            for ln in lines if ln.startswith(("digests ", "notes "))}})
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
            if args.trace == 0), flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    if args.out:
        with open(args.out, "w") as fh:
            for rec in kept:
                fh.write(json.dumps(rec) + "\n")
    for k, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
        share = (q3 - q1) / med if med else 0.0
        bound = bounds.get(k)
        flag = "" if bound is None else (
            f"  bound {bound} {'ok' if share < bound / 3 else 'WIDE'}")
        print(f"{k:34s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
              f"  spread {share:7.2%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
