"""The benchmark reads its trace counters from a saved trace's JSON files
(perfbench/run.py `trace_counters`). A trace format change that it cannot
read would crash every run and certify workload, or make a counter read
wrong, so tier-1 runs that reader on freshly saved traces."""

import collections
import importlib.util
import pathlib
import sys

from sfonline.metric import GeneratorSpec, generate_instance
from sfonline.trace import run_online, save_trace

RUN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_trace_counters_match_the_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(RUN.parent))  # run.py imports spans.py beside it
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # its dataclasses look it up there
    spec.loader.exec_module(bench)
    kinds = collections.Counter()
    # lambda 1 pins whole batches and lambda 2 single edges.
    for lam in (1, 2):
        trace = run_online(generate_instance(GeneratorSpec(kind="euclidean", n=6, seed=1)),
                           lam=lam)
        d = tmp_path / f"lam{lam}"
        save_trace(trace, d)
        got = bench.trace_counters(d)
        entries = [ve for out in trace.arrivals for es in out.forest.values() for ve in es]
        pins = collections.Counter(ev.kind for out in trace.arrivals
                                   for ev in out.ledger.pin_events)
        assert got["levels"] == sum(out.hierarchy.L + 1 for out in trace.arrivals)
        assert got["fresh_edges"] == sum(not ve.inherited for ve in entries) > 0
        assert got["inherited_edges"] == sum(ve.inherited for ve in entries) > 0
        assert (got["pins_batch"], got["pins_single"]) == (pins["batch"], pins["single"])
        assert got["trace_bytes"] == sum(path.stat().st_size for path in d.iterdir())
        kinds += pins
    assert kinds["batch"] and kinds["single"]
