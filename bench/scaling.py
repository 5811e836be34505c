"""Scaling record: how run, structural certify and compare grow with n.

For every generator kind and n in the grid (lambda = ceil(log2 n), seed 1)
this runs the online algorithm, saves its trace and loads it back, timing
the save and the load apart. The structural phase times
`check_run(trace, witness_levels=())` on the loaded trace: its one walk
without witness levels. The oracle phase times `exact_optimum` at the
default limit, the call every `run`, `compare` and `certify` makes. The
certify phase times the whole `check_run(trace, opt)` at every level, as
`certify --levels all` runs it. The compare phase times what `compare`
computes: one `iter_online(inst, lam)` walk feeding
`offline_gluttonous_forest`, so each hierarchy is built once, and both
`run_baseline`s. It writes BENCH_scaling_<label>.json with, per cell, the
seven wall times (the median of REPEATS runs, every run, and the distance
between the runs' quartiles over the median), the trace's
byte count and sha256 over its files, a sha256 over the certify phase's
`certify.csv` text (which, unlike the trace's, does not change with the
trace format), a sha256 over the baselines' per-prefix costs and one over
the oracle's, the run's (arrival, level) pair count and how many of those
pairs the arrival left unchanged, and per kind and phase the least-squares
exponent of time against n. It calls only sfonline's public API, so
`--parent` can measure any tree that has it.

Only the standard library and sfonline (with its numpy) are used:

    PYTHONPATH=src python3 bench/scaling.py --label mytree

Every cell is measured in a fresh interpreter that imports this tree's
sfonline. With `--parent DIR`, every cell is measured a second time, with
DIR/src's sfonline, the order alternating from cell to cell, so that host
drift over the grid lands on both trees alike. It writes
BENCH_scaling_<label>.json and BENCH_scaling_<label>-parent.json.

It is too slow for the test suite: line-chain n=160 takes seconds per phase.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

from sfonline.certify import check_run
from sfonline.metric import GENERATOR_KINDS, GeneratorSpec, generate_instance
from sfonline.oracles import (
    DEFAULT_ORACLE_LIMIT,
    exact_optimum,
    offline_gluttonous_forest,
    run_baseline,
)
from sfonline.trace import iter_online, load_trace, run_online, save_trace

SIZES = (40, 80, 160)
REPEATS = 5
SEED = 1
PHASES = ("run_online_s", "save_s", "load_s", "structural_s", "certify_s", "oracle_s",
          "compare_s")


def trace_digest(dirpath) -> tuple[str, int]:
    """(sha256 over the trace's file names and bytes in name order, byte count)."""
    h = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(dirpath)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(dirpath, name), "rb") as fh:
            data = fh.read()
        h.update(data)
        size += len(data)
    return h.hexdigest(), size


def baseline_costs(inst, lam):
    """Per-prefix costs of the online-gluttonous, greedy and offline
    gluttonous baselines, as `compare` tabulates them."""
    offline = [res.cost for res in offline_gluttonous_forest(iter_online(inst, lam))]
    return [[step.cost for step in run_baseline(inst, "online-gluttonous").steps],
            [step.cost for step in run_baseline(inst, "greedy").steps],
            offline]


def level_counts(trace) -> tuple[int, int]:
    """(levels, unchanged levels) of a run: its (arrival, level i = 0..L)
    pairs, and those whose C_i and C_{i+1} are the previous arrival's plus
    the arrival's new terminals as singletons."""
    levels = unchanged = 0
    prev = None
    for out in trace.arrivals:
        h = out.hierarchy
        levels += h.L + 1
        if prev is not None:
            new = tuple(range(len(prev.clusterings[0].assignment), len(h.clusterings[0].assignment)))
            grown = [prev.clustering(i).assignment + new == cl.assignment
                     for i, cl in enumerate(h.clusterings)]
            unchanged += sum(map(operator.and_, grown, grown[1:]))
        prev = h
    return levels, unchanged


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def measure(kind, n, workdir):
    inst = generate_instance(GeneratorSpec(kind=kind, n=n, seed=SEED))
    lam = max(1, math.ceil(math.log2(n)))
    run_s, save_s, load_s, structural_s, certify_s, oracle_s, compare_s = ([] for _ in PHASES)
    digests, row_digests, cost_digests, opt_digests, counts = set(), set(), set(), set(), set()
    for r in range(REPEATS):
        trace, secs = timed(run_online, inst, lam)
        run_s.append(secs)
        counts.add(level_counts(trace))
        d = os.path.join(workdir, f"{kind}_{n}_{r}")
        _, secs = timed(save_trace, trace, d)
        save_s.append(secs)
        digests.add(trace_digest(d))
        loaded, secs = timed(load_trace, d)
        load_s.append(secs)
        report, secs = timed(check_run, loaded, witness_levels=())
        structural_s.append(secs)
        if fails := report.failures():
            raise SystemExit(f"{kind} n={n}: structural pass FAILED: {fails[0]}")
        opt, secs = timed(exact_optimum, inst.view(min(n, DEFAULT_ORACLE_LIMIT)))
        oracle_s.append(secs)
        opt_digests.add(hashlib.sha256(json.dumps(opt.prefix_costs).encode()).hexdigest())
        report, secs = timed(check_run, loaded, dict(enumerate(opt.prefix_costs, 1)))
        certify_s.append(secs)
        if fails := report.failures():
            raise SystemExit(f"{kind} n={n}: certify FAILED: {fails[0]}")
        row_digests.add(hashlib.sha256(report.to_csv().encode()).hexdigest())
        costs, secs = timed(baseline_costs, inst, lam)
        compare_s.append(secs)
        cost_digests.add(hashlib.sha256(json.dumps(costs).encode()).hexdigest())
    if any(len(seen) != 1 for seen in (digests, row_digests, cost_digests, opt_digests, counts)):
        raise SystemExit(f"{kind} n={n}: outputs differ between repeats")
    trace_sha256, trace_bytes = digests.pop()
    levels, unchanged_levels = counts.pop()
    cell = {
        "kind": kind, "n": n, "lam": lam, "seed": SEED,
        "trace_sha256": trace_sha256,
        "trace_bytes": trace_bytes,
        "rows_sha256": row_digests.pop(),
        "baselines_sha256": cost_digests.pop(),
        "oracle_sha256": opt_digests.pop(),
        "levels": levels,
        "unchanged_levels": unchanged_levels,
    }
    for phase, runs in zip(PHASES, (run_s, save_s, load_s, structural_s, certify_s, oracle_s,
                                    compare_s)):
        # The distance between the quartiles over the median: the run-to-run
        # noise that a change to this phase must beat to be seen.
        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        cell[phase] = median = statistics.median(runs)
        cell[phase[:-2] + "_runs_s"] = runs
        cell[phase[:-2] + "_iqr_rel"] = (q3 - q1) / median
    return cell


def exponent(cells, key):
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(c["n"]) for c in cells]
    ys = [math.log(c[key]) for c in cells]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def measure_with(src, kind, n):
    """measure(kind, n) in a fresh interpreter that imports sfonline from `src`."""
    code = ("import json, sys, tempfile; sys.path[:0] = sys.argv[1:3]; import scaling\n"
            "with tempfile.TemporaryDirectory() as d:\n"
            "    print(json.dumps(scaling.measure(sys.argv[3], int(sys.argv[4]), d)))")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    argv = [sys.executable, "-c", code, src, os.path.dirname(os.path.abspath(__file__)),
            kind, str(n)]
    return json.loads(subprocess.run(argv, env=env, check=True, stdout=subprocess.PIPE).stdout)


def write_record(label, cells, outdir):
    exponents = {
        kind: {key: exponent([c for c in cells if c["kind"] == kind], key) for key in PHASES}
        for kind in GENERATOR_KINDS
    }
    record = {
        "label": label,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeats": REPEATS,
        "cells": cells,
        "exponents": exponents,
    }
    path = os.path.join(outdir, f"BENCH_scaling_{label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="names the output BENCH_scaling_<label>.json")
    p.add_argument("--out", default=".", help="directory to write the record into")
    p.add_argument("--parent", help="a parent tree to measure too, cell by cell, from its src/")
    args = p.parse_args(argv)

    here = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    trees = [(args.label, here)]
    if args.parent is not None:
        trees.append((f"{args.label}-parent", os.path.join(args.parent, "src")))
    cells = {label: [] for label, _ in trees}
    grid = [(kind, n) for kind in GENERATOR_KINDS for n in SIZES]
    for index, (kind, n) in enumerate(grid):
        for label, src in trees[::-1] if index % 2 else trees:
            cell = measure_with(src, kind, n)
            print(f"{label:20s} {kind:14s} n={n:4d} run {cell['run_online_s']:7.3f} s  "
                  f"save {cell['save_s']:7.3f} s  "
                  f"load {cell['load_s']:7.3f} s  "
                  f"structural {cell['structural_s']:7.3f} s  "
                  f"certify {cell['certify_s']:7.3f} s  "
                  f"oracle {cell['oracle_s']:7.3f} s  "
                  f"compare {cell['compare_s']:7.3f} s  "
                  f"unchanged {cell['unchanged_levels']}/{cell['levels']}", flush=True)
            cells[label].append(cell)
    for label, got in cells.items():
        write_record(label, got, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
