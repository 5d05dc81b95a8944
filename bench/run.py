#!/usr/bin/env python3
"""decapbench benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload search-paper --seed 1 --seconds 20 --trace 0

Run from anywhere; it works in the checkout that holds this file and
keeps its files under .bench_work/ there. --trace 0 prints the end-to-end
metrics; --trace 1 prints the per-layer metrics of a traced pass and writes
its spans to .bench_work/trace-<workload>.jsonl. The last line of
standard output is the result; the lines before it are the run record, the
output digests and the op-latency sample counts. See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up repeats for SETUP_SECONDS (at least once) before every pass, and
# after the last until there are SETUP_REPEATS samples at least.
SETUP_REPEATS, SETUP_SECONDS = 3, 1.0
BLAS_THREADS = 2  # equal to workloads.THREADS; fixed before numpy loads

# workloads.WORKLOADS' keys; spelled out because that module imports numpy,
# which must wait until the BLAS thread count is pinned.
WORKLOAD_NAMES = ("search-paper", "train-k20", "toy-pipeline")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


# --- statistics --------------------------------------------------------------

def tail(samples) -> tuple:
    """(value, percentile, samples beyond): the highest nearest-rank
    percentile with at least ten samples above it; the maximum when there
    are ten samples or fewer."""
    xs = sorted(samples)
    rank = len(xs) - 10 if len(xs) > 10 else len(xs)
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs) - rank


# --- run record --------------------------------------------------------------

def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports (numpy and scipy each
    bundle one), keyed by library file name."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    out = {}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = fn()
                break
    return out


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # not a git checkout
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run_record() -> dict:
    import hashlib
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted((SRC / "decapbench").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE")
                        * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_sha": git_sha(),
        "src_lines": lines, "src_sha256": digest.hexdigest(),
    }


# --- one pass ----------------------------------------------------------------

def run_pass(wl, session, seed, inputs, out, digests) -> tuple:
    """Run one pass of wl's commands: (wall seconds, failures), where each
    failure is (command, message). Appends the pass's digests to digests."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    session.new_pass()
    ops_before = len(session.latencies)
    argvs = wl.commands(seed, inputs, out)
    t0 = time.perf_counter()
    for argv in argvs:
        session.run_command(argv)
    wall = time.perf_counter() - t0
    failures = [(cmd, f"exit {code}: {output.strip()[-300:]}")
                for cmd, code, output in session.outcomes if code != 0]
    try:
        failures += wl.check(session, inputs, out, ops_before)
        digests.append(wl.digests(inputs, out))
    except Exception as exc:  # missing or malformed output is a failure
        failures.append((argvs[-1][0], f"output check raised {exc!r}"))
    if len(digests) > 1 and digests[-1] != digests[0]:
        failures.append((argvs[-1][0], "outputs differ between passes"))
    return wall, failures


class Passes:
    """Runs passes and tallies attempted and failed commands and ops. A
    command fails on a non-zero exit, an exception or a failed check of its
    output; an op fails when it raises."""

    def __init__(self, wl, seed, inputs, out):
        self.wl, self.seed, self.inputs, self.out = wl, seed, inputs, out
        self.sessions, self.walls, self.cpus = [], [], []
        self.failures, self.digests = [], []

    def run(self, session) -> float:
        if session not in self.sessions:
            self.sessions.append(session)
        cpu0 = os.times()
        wall, failures = run_pass(self.wl, session, self.seed, self.inputs,
                                  self.out, self.digests)
        cpu1 = os.times()
        self.cpus.append(cpu1.user - cpu0.user + cpu1.system - cpu0.system)
        self.walls.append(wall)
        self.failures += [(len(self.walls), f) for f in failures]
        return wall

    def counts(self) -> tuple:
        n_cmds = len(self.wl.commands(self.seed, self.inputs, self.out))
        attempted = len(self.walls) * n_cmds + \
            sum(s.ops_started for s in self.sessions)
        failed = len({(i, cmd) for i, (cmd, _) in self.failures}) + \
            sum(s.ops_failed for s in self.sessions)
        return attempted, failed


# --- modes -------------------------------------------------------------------

def measure(wl, seed, seconds, work) -> tuple:
    """Untraced passes until seconds have passed, with set-up repeats
    before each pass and after the last, so that they span the run."""
    import workloads
    inputs = wl.make_inputs(seed, str(work / "in"))
    setups = []

    def set_up(at_least):
        spent = 0.0
        while spent < SETUP_SECONDS or len(setups) < at_least:
            t0 = time.perf_counter()
            wl.setup_once(inputs)
            setups.append(time.perf_counter() - t0)
            spent += setups[-1]

    passes = Passes(wl, seed, inputs, str(work / "out"))
    session = workloads.Session()
    start = time.perf_counter()
    while not passes.walls or time.perf_counter() - start < seconds:
        set_up(1)
        wl.hooks(session)
        try:
            passes.run(session)
        finally:
            session.restore()
    set_up(SETUP_REPEATS)

    attempted, failed = passes.counts()
    lat = [1e3 * x for x in session.latencies] or [0.0]
    tail_ms, pct, beyond = tail(lat)
    notes = {"pass_wall_s": passes.walls, "pass_cpu_s": passes.cpus,
             "setup_s": setups,
             "op_tail": f"p{pct:.1f} of {len(lat)} ops, {beyond} beyond"}
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(passes.walls), "s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
    }
    return metrics, passes, notes


def traced(wl, seed, work) -> tuple:
    """One untraced pass, then the same pass traced: per-layer metrics."""
    import decapbench
    import tracing
    import workloads
    inputs = wl.make_inputs(seed, str(work / "in"))
    passes = Passes(wl, seed, inputs, str(work / "out"))

    session = workloads.Session()
    wl.hooks(session)
    try:
        plain = passes.run(session)
    finally:
        session.restore()

    tracer = tracing.Tracer()
    tracer.install(decapbench)
    session = workloads.Session(tracer)
    wl.hooks(session)
    try:
        wall = passes.run(session)
    finally:
        session.restore()
        tracer.restore()

    values = tracing.layer_metrics(tracer.spans)
    values.update({"cli.cpu_per_wall": passes.cpus[0] / plain,
                   "trace.wall_s": wall,
                   "trace.overhead_s": wall - plain,
                   "trace.spans": len(tracer.spans)})
    tracer.dump(work.parent / f"trace-{wl.name}.jsonl", seed)
    metrics = {k: (v, tracing.LAYER_UNITS[k]) for k, v in values.items()}
    return metrics, passes, {"pass_wall_s": passes.walls,
                             "pass_cpu_s": passes.cpus}


def execute(wl, seed, seconds, trace) -> tuple:
    """Run one workload: (result dict, lines to print before it)."""
    work = pathlib.Path(".bench_work") / f"{wl.name}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    try:
        if trace:
            metrics, passes, notes = traced(wl, seed, work)
        else:
            metrics, passes, notes = measure(wl, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = passes.counts()
    lines = ["record " + json.dumps(run_record(), sort_keys=True),
             "digests " + json.dumps(passes.digests[0] if passes.digests
                                     else {}, sort_keys=True),
             "notes " + json.dumps(notes, sort_keys=True)]
    lines += [f"FAILED pass {i} {cmd}: {msg}"
              for i, (cmd, msg) in passes.failures]
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return result, lines


def prepare() -> bool:
    """Pin the BLAS thread count before numpy loads, put src/ first on the
    path and work from the checkout root. False if the sources are missing."""
    if not (SRC / "decapbench" / "cli.py").is_file():
        print(f"no decapbench sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return False
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare():
        return 2
    import workloads
    wl = workloads.WORKLOADS[args.workload](workloads.FULL[args.workload])
    result, lines = execute(wl, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
