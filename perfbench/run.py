"""Benchmark of the sfonline CLI: `run`, `certify` and `compare`, driven in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload run-euclid --seed 1 --seconds 25 --trace 0

Set-up generates the workload's inputs from --seed through `sfonline gen`
(and, for certify-line, records the trace with `sfonline run`), several times,
and requires the repeats to be byte-identical. The timed loop then calls
`sfonline.cli.main([...])` once per pass until --seconds have gone by; only
that call is timed. After every pass, outside the timed region, the outputs
are checked and hashed, and their counters must repeat the first pass's
exactly. With --trace 1 untraced and traced passes alternate and the layer
spans of the traced ones give the per-layer metrics (see perfbench/spans.py).

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans as sp

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Set-up repeats at least SETUP_MIN times and for at least SETUP_SECONDS (at
# most SETUP_MAX times), so a 15 ms set-up still gets a steady median.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 25, 1.0
MIN_PASSES = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str  # run | certify | compare
    kind: str
    n: int
    lam: int | None  # None: the CLI default ceil(log2 n)

    @property
    def effective_lam(self) -> int:
        return self.lam if self.lam is not None else max(1, (self.n - 1).bit_length())


# Why these four: see perfbench/README.md. Sizes keep one pass near 1.5 s on a
# 2-vCPU host, so a 25 s run holds 12-20 passes for a steady median.
WORKLOADS = {w.name: w for w in (
    Workload("run-euclid", "run", "euclidean", 64, None),
    Workload("run-line", "run", "line-chain", 48, 2),
    Workload("certify-line", "certify", "line-chain", 32, 2),
    Workload("compare-euclid", "compare", "euclidean", 32, None),
)}


def import_program():
    """Import sfonline from this checkout's src/, never from anywhere else."""
    if not (SRC / "sfonline" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sfonline sources under {SRC}; "
                         "run from a full checkout of the repository")
    sys.path.insert(0, str(SRC))
    import sfonline.cli
    import sfonline.trace

    if Path(sfonline.cli.__file__).resolve().parent != SRC / "sfonline":
        raise SystemExit(f"perfbench: imported {sfonline.cli.__file__}, not the checkout's copy")
    return sfonline


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

# The shared 2-vCPU host this was sized on switches between speed modes about
# 1.5x apart, sometimes for minutes and sometimes several times a second, with
# CPU time equal to wall time throughout. Raw pass times of one input spread
# by a third between runs. So every timed piece of work (a pass, a set-up)
# runs under HostSpeed: a fixed micro-kernel is timed before and after it and,
# from a SIGALRM handler, every SAMPLE_PERIOD seconds during it. The work's
# time is its wall time minus the handlers' time, rescaled to the host speed
# at which the kernel takes REF_S: time * REF_S / mean kernel time.
REF_S = 0.001
SAMPLE_PERIOD = 0.05
PROBES = 5
_KERNEL_BASE = np.arange(64 * 64, dtype=np.int64).reshape(64, 64) * 7919 % 1000 + 1


def reference_kernel() -> int:
    """Fixed work of the program's kind: dict work in pure Python, then an
    int64 min-plus closure of a 64x64 matrix.

    The mix is chosen so the kernel slows with the host about as much as the
    program does: a pure-Python kernel slows more, a pure-numpy one less.
    """
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[i & 63] = counts.get(i & 63, 0) + i
    dist = _KERNEL_BASE.copy()
    for k in range(64):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return int(dist.sum()) + len(counts)


def _kernel_time() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


@dataclasses.dataclass(frozen=True)
class Timing:
    wall: float  # as measured around the work
    sampled: float  # the part of it spent in the sampling handler
    scale: float  # REF_S over the mean kernel time before, during and after

    @property
    def seconds(self) -> float:
        """The work's time at the reference host speed."""
        return (self.wall - self.sampled) * self.scale


class HostSpeed:
    """Times work and the host's speed while it ran (see REF_S above)."""

    def __init__(self):
        self.kernel_times: list[float] = []

    def _probe(self) -> float:
        return statistics.median(_kernel_time() for _ in range(PROBES))

    def run(self, fn, *args):
        """(fn's result, Timing). An exception from fn propagates after the
        timer is stopped."""
        samples = [self._probe()]

        def sample(signum, frame):
            samples.append(_kernel_time())

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        sampled = sum(samples[1:])
        samples.append(self._probe())
        self.kernel_times += samples
        return result, Timing(wall, sampled, REF_S / statistics.mean(samples))


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def tree_digest(root) -> str:
    """sha256 over every file under root: relative path, size and bytes."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(f"{os.path.relpath(path, root)}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()


def set_up(cli, wl: Workload, seed: int, where: Path) -> dict:
    """Write the workload's inputs under `where`; return their paths."""
    shutil.rmtree(where, ignore_errors=True)
    instance = where / "instance.sfo"
    rc = cli.main(["gen", "--kind", wl.kind, "--n", str(wl.n), "--seed", str(seed),
                   "--file", str(instance), "--quiet"])
    if rc != 0:
        raise RuntimeError(f"gen exited {rc}")
    inputs = {"instance": instance}
    if wl.command == "certify":
        rc = cli.main(["run", "--input", str(instance), "--lam", str(wl.effective_lam),
                       "--checks", "none", "--out", str(where / "rec"), "--quiet"])
        if rc != 0:
            raise RuntimeError(f"recording run exited {rc}")
        inputs["trace"] = where / "rec" / "trace"
    return inputs


def command_argv(wl: Workload, inputs: dict, out: Path) -> list[str]:
    if wl.command == "certify":
        return ["certify", "--trace", str(inputs["trace"]), "--levels", "all",
                "--out", str(out), "--quiet"]
    argv = [wl.command, "--input", str(inputs["instance"]), "--out", str(out), "--quiet"]
    if wl.command == "run":
        argv += ["--checks", "none"]
    if wl.lam is not None:
        argv += ["--lam", str(wl.lam)]
    return argv


# ---------------------------------------------------------------------------
# Outputs: counters and checks
# ---------------------------------------------------------------------------

def trace_counters(trace_dir: Path) -> dict:
    """Counters read from a trace directory's own JSON files."""
    c = dict(levels=0, clusters=0, fresh_edges=0, inherited_edges=0,
             pins_batch=0, pins_single=0, trace_bytes=0)
    for path in sorted(trace_dir.iterdir()):
        c["trace_bytes"] += path.stat().st_size
        if not path.name.startswith("arrival_"):
            continue
        with open(path, encoding="utf-8") as fh:
            arrival = json.load(fh)
        c["levels"] += arrival["L"] + 1
        c["clusters"] += sum(len(cl) for cl in arrival["clusterings"])
        for entries in arrival["forest"].values():
            for ve in entries:
                c["inherited_edges" if ve["inherited"] else "fresh_edges"] += 1
        for ev in arrival["ledger"]["pin_events"]:
            c["pins_" + ev["kind"]] += 1
    return c


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


@dataclasses.dataclass
class Pass:
    timing: Timing
    ops: int
    failed: int
    problems: list
    counters: dict
    digest: str
    latencies_ms: list
    spans: list | None = None
    cuts: int = 0


def check_arrivals(sf, inst, lam, outcomes, costs_by_t, problems) -> set:
    """Arrivals whose snapshot, pin set or reported cost is wrong."""
    bad = set()
    for out in outcomes:
        t = out.t
        if not sf.check_feasible(out.snapshot.edges, inst.view(t).demands):
            problems.append(f"arrival {t}: snapshot does not connect every pair")
            bad.add(t)
        if not sf.check_pinned_forest([e for e, _ in out.pinned_after], 2 * inst.n):
            problems.append(f"arrival {t}: pinned set is not a forest of <= 2n-1 edges")
            bad.add(t)
        if costs_by_t.get(t) != out.snapshot.cost:
            problems.append(f"arrival {t}: CSV cost {costs_by_t.get(t)} != snapshot "
                            f"cost {out.snapshot.cost}")
            bad.add(t)
    if [o.t for o in outcomes] != list(range(1, inst.n + 1)):
        problems.append(f"saw {len(outcomes)} advance calls, want {inst.n}")
        bad.update(range(1, inst.n + 1))
    ins = sum(o.ledger.insertions for o in outcomes)
    dels = sum(o.ledger.deletions for o in outcomes)
    bound = 2 * inst.n + 21 * inst.n * lam
    if not (ins <= bound and dels <= ins):
        problems.append(f"ledger: insertions {ins} (bound {bound}), deletions {dels}")
        bad.update(range(1, inst.n + 1))
    return bad


def check_outputs(sf, wl, inst, inputs, out: Path, outcomes, problems):
    """(ops, failed operations, counters) of one finished pass."""
    if wl.command == "certify":
        rows = read_csv(out / "certify.csv")
        fails = [r for r in rows if r["status"] == "fail"]
        for r in fails[:5]:
            problems.append(f"certify FAIL {r['check']} level={r['level']} "
                            f"arrival={r['arrival']} {r['value']}")
        # The certified trace is this workload's input; its counters size the work.
        counters = trace_counters(inputs["trace"])
        counters.update(certify_rows=len(rows), certify_fail_rows=len(fails))
        return len(rows), len(fails), counters

    if wl.command == "run":
        rows = read_csv(out / "per_arrival.csv")
        cost_cols = ("cost_F",)
        counters = trace_counters(out / "trace")
    else:
        rows = read_csv(out / "compare.csv")
        cost_cols = ("cost_main", "cost_online_gluttonous", "cost_greedy",
                     "cost_offline_gluttonous")
        counters = {col: int(rows[-1][col]) for col in cost_cols}
    costs = {int(r["t"]): int(r[cost_cols[0]]) for r in rows}
    bad = check_arrivals(sf, inst, wl.effective_lam, outcomes, costs, problems)
    for r in rows:
        if r["OPT"] and any(int(r[col]) < int(r["OPT"]) for col in cost_cols):
            problems.append(f"arrival {r['t']}: a cost undercuts the exact optimum")
            bad.add(int(r["t"]))
    ins = sum(o.ledger.insertions for o in outcomes)
    dels = sum(o.ledger.deletions for o in outcomes)
    if wl.command == "run" and (int(rows[-1]["cum_insertions"]),
                                int(rows[-1]["cum_deletions"])) != (ins, dels):
        problems.append("per_arrival.csv recourse totals differ from the ledger")
        bad.update(range(1, inst.n + 1))
    counters["final_cost"] = outcomes[-1].snapshot.cost
    counters["recourse_total"] = ins + dels
    return inst.n, len(bad), counters


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class ArrivalTimer:
    """One timer around each `advance` call as sfonline.trace calls it.

    It also keeps each call's outcome so the snapshots can be checked after
    the pass; `advance` is about n calls per pass, so this is not tracing.
    """

    def __init__(self, trace_module):
        self.module = trace_module
        self.advance = trace_module.advance
        self.latencies_ms: list[float] = []
        self.outcomes: list = []

    def __call__(self, state, pair):
        t0 = time.perf_counter()
        result = self.advance(state, pair)
        self.latencies_ms.append((time.perf_counter() - t0) * 1e3)
        self.outcomes.append(result[0].last_outcome)
        return result

    def __enter__(self):
        self.module.advance = self
        return self

    def __exit__(self, *exc):
        self.module.advance = self.advance
        return False


def run_pass(sf, wl, inst, inputs, out: Path, timer: ArrivalTimer, speed: HostSpeed,
             tracer=None) -> Pass:
    """One timed call of the CLI command, then its checks (untimed)."""
    shutil.rmtree(out, ignore_errors=True)
    timer.latencies_ms, timer.outcomes = [], []
    argv = command_argv(wl, inputs, out)
    problems = []

    def command():
        try:
            if tracer is None:
                return sf.cli.main(argv)
            with tracer:
                return tracer.call(sp.COMMAND, None, sf.cli.main, argv)
        except Exception:  # a raising command is a failed pass, reported below
            problems.append("command raised:\n" + traceback.format_exc())
            return None

    rc, timing = speed.run(command)
    try:
        ops, failed, counters = check_outputs(sf, wl, inst, inputs, out, timer.outcomes,
                                              problems)
        digest = tree_digest(out)
    except (OSError, KeyError, ValueError, IndexError) as err:
        problems.append(f"unreadable output: {err!r}")
        ops = failed = inst.n if wl.command != "certify" else 1
        counters, digest = {}, ""
    if rc != 0:
        if rc is not None:
            problems.append(f"command exited {rc}")
        failed = ops
    return Pass(timing, ops, failed, problems, counters, digest, timer.latencies_ms)


def measure(sf, wl, inst, inputs, seconds, work: Path, traced: bool, speed: HostSpeed):
    """(untraced passes, traced passes) over at least `seconds` of wall time."""
    entry_points = sp.resolve() if traced else None
    plain, with_spans = [], []
    out = work / "out"
    deadline = time.perf_counter() + seconds
    with ArrivalTimer(sf.trace) as timer:
        while (time.perf_counter() < deadline or len(plain) < MIN_PASSES
               or (traced and len(with_spans) < MIN_PASSES)):
            if traced and len(with_spans) < len(plain):
                tracer = sp.Tracer(entry_points)
                p = run_pass(sf, wl, inst, inputs, out, timer, speed, tracer)
                p.spans = tracer.spans
                p.cuts = tracer.counts.get("certify.witness", 0)
                with_spans.append(p)
            else:
                plain.append(run_pass(sf, wl, inst, inputs, out, timer, speed))
    return plain, with_spans


def settle(plain, traced) -> tuple[int, int, list]:
    """(attempted, failed, problems) over all passes.

    A pass whose counters or output digest differ from the first pass's, or
    a traced pass whose cut count differs from the first traced pass's,
    fails as a whole: the program is deterministic, so any difference is a
    defect.
    """
    attempted = failed = 0
    problems = []
    ref = (plain + traced)[0]
    for k, p in enumerate(plain + traced):
        attempted += p.ops
        lost = p.failed
        if (p.counters, p.digest) != (ref.counters, ref.digest) or (
                p.spans is not None and p.cuts != traced[0].cuts):
            p.problems.append(f"pass {k}: counters or output digest differ from the first pass")
            lost = p.ops
        failed += lost
        problems += p.problems
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile(values, p):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


def layer_metrics(traced, plain) -> dict:
    """Per-layer metrics: medians over the traced passes of self times, scaled
    like wall_s (the sampling handler's time stays inside whichever span it
    interrupted); counts from the first traced pass."""
    selfs = [{k: v * p.timing.scale for k, v in sp.self_times(p.spans).items()}
             for p in traced]
    calls = sp.call_counts(traced[0].spans)
    counters = traced[0].counters

    def t(*keys):
        return statistics.median(sum(s.get(k, 0.0) for k in keys) for s in selfs)

    fresh = counters.get("fresh_edges", 0)
    inherited = counters.get("inherited_edges", 0)
    residual = statistics.median(p.timing.wall * p.timing.scale - sum(s.values())
                                 for p, s in zip(traced, selfs))
    m = {
        "metric.load_s": (t("metric.load", "metric.validate"), "s"),
        "metric.validate_calls": (calls.get("metric.validate", 0), "count"),
        "clustering.build_hierarchy_s": (t("clustering.build_hierarchy"), "s"),
        "clustering.build_hierarchy_calls": (calls.get("clustering.build_hierarchy", 0), "count"),
        "clustering.cluster_distance_s": (t("clustering.cluster_distance"), "s"),
        "clustering.cluster_distance_calls": (calls.get("clustering.cluster_distance", 0), "count"),
        "clustering.contract_s": (t("clustering.contract"), "s"),
        "clustering.contract_calls": (calls.get("clustering.contract", 0), "count"),
        "clustering.levels": (counters.get("levels", 0), "count"),
        "clustering.clusters": (counters.get("clusters", 0), "count"),
        "forest.advance_self_s": (t("forest.advance"), "s"),
        "forest.inherit_s": (t("forest.inherit"), "s"),
        "forest.pin_self_s": (t("forest.pin"), "s"),
        "forest.pins_batch": (counters.get("pins_batch", 0), "count"),
        "forest.pins_single": (counters.get("pins_single", 0), "count"),
        "forest.fresh_edges": (fresh, "count"),
        "forest.inherited_edges": (inherited, "count"),
        "forest.inherit_ratio": (inherited / (inherited + fresh) if fresh + inherited else 0.0,
                                 "ratio"),
        "trace.save_s": (t("trace.save"), "s"),
        "trace.bytes": (counters.get("trace_bytes", 0), "bytes"),
        "trace.load_s": (t("trace.load"), "s"),
        "certify.structural_s": (t("certify.check_run"), "s"),
        "certify.witness_s": (t("certify.witness"), "s"),
        "certify.dual_feasibility_s": (t("certify.dual_feasibility"), "s"),
        "certify.cuts": (traced[0].cuts, "count"),
        "certify.checks": (counters.get("certify_rows", 0), "count"),
        "oracles.exact_optimum_s": (t("oracles.exact_optimum"), "s"),
        "oracles.offline_s": (t("oracles.offline"), "s"),
        "oracles.baselines_s": (t("oracles.baselines"), "s"),
        "cli.self_s": (t(sp.COMMAND), "s"),
        "tracing.overhead_s": (statistics.median(p.timing.seconds for p in traced)
                               - statistics.median(p.timing.seconds for p in plain), "s"),
        "tracing.residual_s": (residual, "s"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}


def report_end_to_end(wl, seed, plain, setups, speed, attempted, failed, rss_mb) -> dict:
    """Print all eight end-to-end metrics; return the JSON's three.

    `setups` holds one Timing per set-up.
    """
    walls = [p.timing.seconds for p in plain]
    setup_s = statistics.median(t.seconds for t in setups)
    lat = [x for p in plain for x in p.latencies_ms]
    ref = plain[0]
    q1, q3 = quartiles(walls)
    print(f"workload {wl.name}  seed {seed}  {wl.kind} n={wl.n} lambda={wl.effective_lam}  "
          f"command: sfonline {' '.join(command_argv(wl, {'instance': 'IN', 'trace': 'IN'}, 'OUT'))}")
    print(f"  wall_s          {statistics.median(walls):.6f} s     "
          f"median of {len(walls)} passes (q1 {q1:.6f}, q3 {q3:.6f}); "
          f"raw {statistics.median(p.timing.wall for p in plain):.6f} s")
    print(f"  setup_s         {setup_s:.6f} s     median of {len(setups)} set-ups; "
          f"raw {statistics.median(t.wall for t in setups):.6f} s")
    print(f"  host            reference kernel {statistics.median(speed.kernel_times) * 1e3:.3f} ms "
          f"median of {len(speed.kernel_times)} timings; the times above are scaled to "
          f"{REF_S * 1e3:g} ms and exclude the sampling")
    if lat:
        print(f"  arrival_p50_ms  {statistics.median(lat):.4f} ms    "
              f"{len(lat)} advance calls over {len(plain)} passes")
        print(f"  arrival_p90_ms  {percentile(lat, 0.9):.4f} ms")
    else:
        print("  arrival_p50_ms  n/a            no advance call in this workload")
        print("  arrival_p90_ms  n/a")
    print(f"  peak_rss_mb     {rss_mb:.2f} MB")
    for key in ("final_cost", "recourse_total"):
        val = ref.counters.get(key)
        print(f"  {key:<15} {val if val is not None else 'n/a'} int")
    print(f"  fail_frac       {failed / attempted:.6f} ratio  ({failed} of {attempted} operations)")
    print("  counters        " + " ".join(f"{k}={v}" for k, v in sorted(ref.counters.items())))
    print(f"  output sha256   {ref.digest}")
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    sf = import_program()
    work = WORK / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    try:
        speed = HostSpeed()
        setups, digests = [], set()
        while len(setups) < SETUP_MIN or (sum(t.wall for t in setups) < SETUP_SECONDS
                                          and len(setups) < SETUP_MAX):
            where = work / "setup"
            inputs, timing = speed.run(set_up, sf.cli, wl, args.seed, where)
            digests.add(tree_digest(where))
            setups.append(timing)
        inst = sf.metric.load_instance_file(inputs["instance"])
        try:
            plain, traced = measure(sf, wl, inst, inputs, args.seconds, work,
                                    bool(args.trace), speed)
        except sp.MissingEntryPoint as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 2
        attempted, failed, problems = settle(plain, traced)
        if len(digests) != 1:
            problems.append("set-up is not deterministic: its inputs differ between repeats")
            failed = attempted
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = report_end_to_end(wl, args.seed, plain, setups, speed, attempted, failed,
                                         rss_mb)
        if args.trace:
            metrics = layer_metrics(traced, plain)
            WORK.mkdir(exist_ok=True)
            span_file = WORK / f"spans_{wl.name}_s{args.seed}.jsonl"
            sp.write_spans(span_file, [p.spans for p in traced])
            print(f"  traced passes   {len(traced)}; spans written to {span_file.relative_to(ROOT)}")
            for name, m in metrics.items():
                print(f"  {name:<34} {m['value']:.6f} {m['unit']}" if m["unit"] in ("s", "ratio")
                      else f"  {name:<34} {m['value']} {m['unit']}")
        for line in problems[:20]:
            print(f"  CHECK FAILED: {line}", file=sys.stderr)
        print("  checks          " + ("PASS" if failed == 0 else "FAIL"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
