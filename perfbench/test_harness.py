"""Self-check of the benchmark harness on small instances.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import spans as sp  # noqa: E402

SF = bench.import_program()
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMALL = {name: dataclasses.replace(wl, n=n) for name, wl, n in (
    ("run-euclid", bench.WORKLOADS["run-euclid"], 9),
    ("run-line", bench.WORKLOADS["run-line"], 10),
    ("certify-line", bench.WORKLOADS["certify-line"], 7),
    ("compare-euclid", bench.WORKLOADS["compare-euclid"], 6),
)}


def passes(name, tmp_path, traced=2, seed=3):
    wl = SMALL[name]
    inputs = bench.set_up(SF.cli, wl, seed, tmp_path / "setup")
    inst = SF.metric.load_instance_file(inputs["instance"])
    entry_points = sp.resolve()
    out = tmp_path / "out"
    speed = bench.HostSpeed()
    with bench.ArrivalTimer(SF.trace) as timer:
        plain = [bench.run_pass(SF, wl, inst, inputs, out, timer, speed)]
        spanned = []
        for _ in range(traced):
            tracer = sp.Tracer(entry_points)
            p = bench.run_pass(SF, wl, inst, inputs, out, timer, speed, tracer)
            p.spans, p.cuts = tracer.spans, tracer.counts.get("certify.witness", 0)
            spanned.append(p)
    return wl, plain, spanned


@pytest.mark.parametrize("name", sorted(SMALL))
def test_passes_check_out_and_repeat_exactly(name, tmp_path):
    wl, plain, traced = passes(name, tmp_path)
    attempted, failed, problems = bench.settle(plain, traced)
    assert (failed, problems) == (0, [])
    assert attempted == sum(p.ops for p in plain + traced) > 0
    first = plain[0]
    assert first.digest and first.counters
    for p in traced:
        assert (p.counters, p.digest) == (first.counters, first.digest)
        assert p.cuts == traced[0].cuts
    if wl.command == "run":
        assert first.counters["levels"] > 0
        assert len(first.latencies_ms) == wl.n
    if wl.command == "certify":
        assert first.counters["certify_rows"] > 0 and traced[0].cuts > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_spans_nest_and_self_times_sum_to_wall(name, tmp_path):
    _, _, traced = passes(name, tmp_path)
    for p in traced:
        spans = p.spans
        roots = [s for s in spans if s[3] == -1]
        assert [r[0] for r in roots] == [sp.COMMAND]
        last_child_end = {}
        for k, (key, start, end, parent) in enumerate(spans):
            assert start <= end
            if parent >= 0:
                assert parent < k
                _, p_start, p_end, _ = spans[parent]
                assert p_start <= start and end <= p_end
                # siblings are recorded in call order and never overlap
                assert last_child_end.get(parent, p_start) <= start
                last_child_end[parent] = end
        selfs = sp.self_times(spans)
        assert all(v >= -1e-9 for v in selfs.values()), selfs
        command = roots[0][2] - roots[0][1]
        assert sum(selfs.values()) == pytest.approx(command, abs=1e-6)
        assert p.timing.wall >= command
        assert 0 <= p.timing.sampled < p.timing.wall and p.timing.scale > 0


def test_layer_metrics_match_the_declared_names(tmp_path):
    wl, plain, traced = passes("run-line", tmp_path)
    metrics = bench.layer_metrics(traced, plain)
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in SPEC["per_layer"])
    assert metrics["clustering.build_hierarchy_calls"]["value"] == wl.n
    assert metrics["clustering.build_hierarchy_s"]["value"] > 0
    assert metrics["certify.checks"]["value"] == 0
    speed = bench.HostSpeed()
    _, timing = speed.run(sum, (1, 2))
    e2e = bench.report_end_to_end(wl, 3, plain, [timing, timing], speed, 1, 0, 50.0)
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(e2e[m["name"]]["unit"] == m["unit"] for m in SPEC["end_to_end"])


def test_dominant_layers_count_work(tmp_path):
    _, plain, traced = passes("compare-euclid", tmp_path, traced=1)
    metrics = bench.layer_metrics(traced, plain)
    assert metrics["clustering.cluster_distance_calls"]["value"] > 0
    assert metrics["oracles.offline_s"]["value"] > 0
    assert metrics["oracles.baselines_s"]["value"] > 0
    _, plain, traced = passes("certify-line", tmp_path / "c", traced=1)
    metrics = bench.layer_metrics(traced, plain)
    assert metrics["trace.load_s"]["value"] > 0
    assert metrics["certify.dual_feasibility_s"]["value"] > 0
    assert metrics["metric.validate_calls"]["value"] > 0


def test_a_differing_pass_fails_as_a_whole(tmp_path):
    _, plain, traced = passes("run-euclid", tmp_path, traced=1)
    traced[0].digest = "0" * 64
    attempted, failed, problems = bench.settle(plain, traced)
    assert failed == traced[0].ops and attempted == 2 * traced[0].ops
    assert any("differ" in line for line in problems)


def test_missing_entry_point_is_reported():
    with pytest.raises(sp.MissingEntryPoint, match="sfonline.forest.no_such_function"):
        sp.resolve((("sfonline.forest", "no_such_function", "forest.x", None),))


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-euclid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "no sfonline sources" in proc.stderr
