"""Scaling record: how run, structural certify and compare grow with n.

For every generator kind and n in the grid (lambda = ceil(log2 n), seed 1)
this runs the online algorithm, saves its trace, loads it back and runs the
structural certify pass (`check_run(..., with_witness=False)`) on the loaded
trace, timing the load and the pass apart. The witness phase times the
witness pass alone over every level, as `certify` runs it after the
structural pass; the oracle phase times `exact_optimum` at the default
limit, the call every `run`, `compare` and `certify` makes. The compare
phase times what `compare` computes: one `iter_online(inst, lam)` walk
feeding `offline_gluttonous_forest`, so each hierarchy is built once, and
both `run_baseline`s. It writes BENCH_scaling_<label>.json with, per cell,
the six wall times (the median of REPEATS runs, and every run), the trace's
sha256 over its files, a sha256 over the baselines' per-prefix costs and
one over the oracle's, and per kind and phase the least-squares exponent of
time against n.

Only the standard library and sfonline (with its numpy) are used:

    PYTHONPATH=src python3 bench/scaling.py --label mytree

It is too slow for the test suite: line-chain n=160 takes seconds per phase.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import time

import numpy as np

from sfonline.certify import _witness_pass, check_run
from sfonline.metric import GENERATOR_KINDS, GeneratorSpec, generate_instance
from sfonline.oracles import (
    DEFAULT_ORACLE_LIMIT,
    exact_optimum,
    offline_gluttonous_forest,
    run_baseline,
)
from sfonline.trace import iter_online, load_trace, run_online, save_trace

SIZES = (40, 80, 160)
REPEATS = 3
SEED = 1
PHASES = ("run_online_s", "load_s", "structural_s", "witness_s", "oracle_s", "compare_s")


def trace_sha256(dirpath) -> str:
    """sha256 over the trace's file names and bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(dirpath)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(dirpath, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def baseline_costs(inst, lam):
    """Per-prefix costs of the online-gluttonous, greedy and offline
    gluttonous baselines, as `compare` tabulates them."""
    offline = [res.cost for res in offline_gluttonous_forest(iter_online(inst, lam))]
    return [[step.cost for step in run_baseline(inst, "online-gluttonous").steps],
            [step.cost for step in run_baseline(inst, "greedy").steps],
            offline]


def witness_fails(trace, opt_final):
    """Run the witness pass on every level; return its FAIL rows."""
    rows = []
    _witness_pass(trace, lambda *row: rows.append(row), {}, opt_final)
    return [row for row in rows if not row[3]]


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def measure(kind, n, workdir):
    inst = generate_instance(GeneratorSpec(kind=kind, n=n, seed=SEED))
    lam = max(1, math.ceil(math.log2(n)))
    run_s, load_s, structural_s, witness_s, oracle_s, compare_s = [], [], [], [], [], []
    digests, cost_digests, opt_digests = set(), set(), set()
    for r in range(REPEATS):
        trace, secs = timed(run_online, inst, lam)
        run_s.append(secs)
        d = os.path.join(workdir, f"{kind}_{n}_{r}")
        save_trace(trace, d)
        digests.add(trace_sha256(d))
        loaded, secs = timed(load_trace, d)
        load_s.append(secs)
        report, secs = timed(check_run, loaded, with_witness=False)
        structural_s.append(secs)
        if not report.ok:
            raise SystemExit(f"{kind} n={n}: structural pass FAILED")
        opt, secs = timed(exact_optimum, inst.view(min(n, DEFAULT_ORACLE_LIMIT)))
        oracle_s.append(secs)
        opt_digests.add(hashlib.sha256(json.dumps(opt.prefix_costs).encode()).hexdigest())
        fails, secs = timed(witness_fails, loaded, opt.cost if n <= DEFAULT_ORACLE_LIMIT else None)
        witness_s.append(secs)
        if fails:
            raise SystemExit(f"{kind} n={n}: witness pass FAILED: {fails[0]}")
        costs, secs = timed(baseline_costs, inst, lam)
        compare_s.append(secs)
        cost_digests.add(hashlib.sha256(json.dumps(costs).encode()).hexdigest())
    if len(digests) != 1 or len(cost_digests) != 1 or len(opt_digests) != 1:
        raise SystemExit(f"{kind} n={n}: outputs differ between repeats")
    return {
        "kind": kind, "n": n, "lam": lam, "seed": SEED,
        "run_online_s": statistics.median(run_s),
        "load_s": statistics.median(load_s),
        "structural_s": statistics.median(structural_s),
        "witness_s": statistics.median(witness_s),
        "oracle_s": statistics.median(oracle_s),
        "compare_s": statistics.median(compare_s),
        "run_online_runs_s": run_s,
        "load_runs_s": load_s,
        "structural_runs_s": structural_s,
        "witness_runs_s": witness_s,
        "oracle_runs_s": oracle_s,
        "compare_runs_s": compare_s,
        "trace_sha256": digests.pop(),
        "baselines_sha256": cost_digests.pop(),
        "oracle_sha256": opt_digests.pop(),
    }


def exponent(cells, key):
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(c["n"]) for c in cells]
    ys = [math.log(c[key]) for c in cells]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="names the output BENCH_scaling_<label>.json")
    p.add_argument("--out", default=".", help="directory to write the record into")
    args = p.parse_args(argv)

    cells = []
    with tempfile.TemporaryDirectory() as workdir:
        for kind in GENERATOR_KINDS:
            for n in SIZES:
                cell = measure(kind, n, workdir)
                print(f"{kind:14s} n={n:4d} run {cell['run_online_s']:7.3f} s  "
                      f"load {cell['load_s']:7.3f} s  "
                      f"structural {cell['structural_s']:7.3f} s  "
                      f"witness {cell['witness_s']:7.3f} s  "
                      f"oracle {cell['oracle_s']:7.3f} s  "
                      f"compare {cell['compare_s']:7.3f} s", flush=True)
                cells.append(cell)
    exponents = {
        kind: {key: exponent([c for c in cells if c["kind"] == kind], key) for key in PHASES}
        for kind in GENERATOR_KINDS
    }
    record = {
        "label": args.label,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeats": REPEATS,
        "cells": cells,
        "exponents": exponents,
    }
    path = os.path.join(args.out, f"BENCH_scaling_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
