#!/usr/bin/env python3
"""Fast self-test of the benchmark harness at reduced sizes (about 20 s):

    python3 bench/selftest.py

For every workload it checks that an untraced run passes its output checks
and emits exactly the end-to-end metrics BENCHMARK.json names, and that two
traced runs emit exactly the per-layer metrics it names, with identical
counts and output digests. Exits 1 on the first mismatch.
"""

import json
import sys

import run

SEED = 7


def small_sizes(workloads):
    return {
        "search-paper": workloads.SearchSizes(
            sim="chip", rows=5, problems=2, keepout_max=4, k=4,
            rs_budget=10, ga=(4, 2, 1)),
        "train-k20": workloads.TrainSizes(
            rows=5, train=4, val=2, keepout_max=4, k=4, batch=2, steps=3),
        # the toy preset's batch of 25 needs 5 problems x 5 orderings
        "toy-pipeline": workloads.ToySizes(
            train=5, val=2, test=2, steps=3, rs_budget=10, ga=(4, 2, 1)),
    }


def digests(lines):
    return next(line for line in lines if line.startswith("digests "))


def expect(cond, what):
    if not cond:
        print(f"selftest FAILED: {what}")
        sys.exit(1)


def main() -> int:
    if not run.prepare():
        return 2
    import workloads
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    names = [w["name"] for w in bench["workloads"]]
    expect(set(names) == set(workloads.WORKLOADS), f"workloads {names}")
    expect(run.tail(range(1, 101)) == (90, 90.0, 10), "tail of 1..100")
    expect(run.tail([5, 1, 3]) == (5, 100.0, 0), "tail of three samples")

    for name, sizes in small_sizes(workloads).items():
        wl = workloads.WORKLOADS[name](sizes)
        plain, plain_lines = run.execute(wl, SEED, 0, 0)
        expect(plain["correct"], f"{name}: untraced run failed: {plain_lines}")
        got = {k: m["unit"] for k, m in plain["metrics"].items()}
        expect(got == e2e, f"{name}: end-to-end metrics {sorted(got)}")

        runs = [run.execute(wl, SEED, 0, 1) for _ in range(2)]
        for res, lines in runs:
            expect(res["correct"], f"{name}: traced run failed: {lines}")
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            expect(got == layers, f"{name}: per-layer metrics differ: "
                   f"{sorted(set(got) ^ set(layers))}")
        counts = [{k: m["value"] for k, m in res["metrics"].items()
                   if m["unit"] == "count"} for res, _ in runs]
        expect(counts[0] == counts[1], f"{name}: counts differ: {counts}")
        expect(digests(runs[0][1]) == digests(runs[1][1])
               == digests(plain_lines), f"{name}: digests differ")
        print(f"selftest {name}: ok ({len(counts[0])} counts repeat)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
