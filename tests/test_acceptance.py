"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` asserts the same facts silently. The two randomized
fleets are built once per module: a large mixed-size fleet for the exact
structural criteria and a small-instance fleet for every oracle-anchored
ratio. All bounds asserted here are the generous property bounds; measured
ratios are reported alongside, never substituted for the assertions.
"""

import time
from fractions import Fraction

import pytest

from sfonline.certify import (
    build_dual_witness,
    check_dual_feasibility,
    check_feasible,
    check_pinned_forest,
    check_run,
    grow_balls,
    radius,
    witness_value_identity,
)
from sfonline.cli import main
from sfonline.clustering import level_threshold
from sfonline.metric import GeneratorSpec, generate_instance, save_instance_file
from sfonline.oracles import exact_optimum, offline_gluttonous_forest, run_baseline
from sfonline.trace import iter_online, run_online

KINDS = ("euclidean", "random-metric", "line-chain")
BIG_SIZES = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16, 18, 21, 24, 28, 32, 36, 40)
SEEDS_PER_KIND = 67  # 3 * 67 = 201 runs >= 200
SMALL_SIZES = (1, 2, 3, 4, 5, 6, 7, 8)
SMALL_SEEDS_PER_KIND = 18  # 54 bundles >= 50


def _lam_for(n, idx):
    choices = (1, 2, max(1, (n - 1).bit_length()))
    return choices[idx % 3]


def say(line):
    print(f"ACCEPTANCE {line}")


@pytest.fixture(scope="module")
def big_fleet():
    t0 = time.time()
    runs = []
    idx = 0
    for kind in KINDS:
        for seed in range(SEEDS_PER_KIND):
            n = BIG_SIZES[seed % len(BIG_SIZES)]
            inst = generate_instance(GeneratorSpec(kind=kind, n=n, seed=seed))
            lam = _lam_for(n, idx)
            idx += 1
            trace = run_online(inst, lam)
            feasible = all(
                check_feasible(o.snapshot.edges, inst.view(o.t).demands)
                for o in trace.arrivals
            )
            pinned_ok = all(
                check_pinned_forest([e for e, _ in o.pinned_after], 2 * n)
                for o in trace.arrivals
            ) and len(trace.final().pinned_after) <= 2 * n - 1
            report = check_run(trace, witness_levels=())
            fails_by_check = {}
            for e in report.entries:
                if e.status == "fail":
                    fails_by_check.setdefault(e.check, 0)
                    fails_by_check[e.check] += 1
            runs.append({
                "label": inst.label,
                "n": n,
                "lam": lam,
                "feasible": feasible,
                "pinned_ok": pinned_ok,
                "insertions": trace.insertions_total,
                "deletions": trace.deletions_total,
                "fails": fails_by_check,
            })
    return {"runs": runs, "elapsed": time.time() - t0}


@pytest.fixture(scope="module")
def small_fleet():
    t0 = time.time()
    bundles = []
    for kind in KINDS:
        for seed in range(SMALL_SEEDS_PER_KIND):
            n = SMALL_SIZES[seed % len(SMALL_SIZES)]
            inst = generate_instance(GeneratorSpec(kind=kind, n=n, seed=seed))
            opt = dict(enumerate(exact_optimum(inst.view(n)).prefix_costs, 1))
            lam = max(1, (n - 1).bit_length())
            trace = run_online(inst, lam)
            bundles.append({
                "inst": inst,
                "opt": opt,
                "lam": lam,
                "trace": trace,
                "report": check_run(trace, opt),
                "gluttonous": run_baseline(inst, "online-gluttonous"),
                "greedy": run_baseline(inst, "greedy"),
                "offline": [res.cost for res in offline_gluttonous_forest(iter_online(inst, lam))],
            })
    return {"bundles": bundles, "elapsed": time.time() - t0}


def test_criterion_01_feasibility(big_fleet):
    bad = [r["label"] for r in big_fleet["runs"] if not r["feasible"]]
    count = len(big_fleet["runs"])
    elapsed = big_fleet["elapsed"]
    assert count >= 200
    assert not bad, f"infeasible snapshots in {bad[:3]}"
    assert elapsed < 60, f"fleet took {elapsed:.1f}s"
    say(f"C1 feasibility: PASS ({count} runs, every arrival connected, "
        f"fleet built in {elapsed:.1f}s)")


def test_criterion_02_pinned_forest(big_fleet):
    bad = [r["label"] for r in big_fleet["runs"] if not r["pinned_ok"]]
    assert not bad, f"pinned-forest violations in {bad[:3]}"
    say(f"C2 pinned forest (<= 2n-1, acyclic): PASS ({len(big_fleet['runs'])} runs)")


def test_criterion_03_recourse_bound(big_fleet):
    worst = 0.0
    for r in big_fleet["runs"]:
        bound = 2 * r["n"] + 21 * r["n"] * r["lam"]
        assert r["insertions"] <= bound, (r["label"], r["insertions"], bound)
        assert r["deletions"] <= r["insertions"], r["label"]
        worst = max(worst, r["insertions"] / (r["n"] * r["lam"]))
    say(f"C3 recourse <= 2n+21n*lam: PASS "
        f"(max measured insertions/(n*lam) = {worst:.3f})")


def test_criterion_04_hierarchy_structure(big_fleet):
    checks = ("active-cluster-gap", "top-coclustering",
              "refine-across-arrivals", "refine-into-inherited")
    bad = [(r["label"], c) for r in big_fleet["runs"] for c in checks
           if r["fails"].get(c)]
    assert not bad, bad[:5]
    say(f"C4 hierarchy structure (cluster gaps, co-clustering, refinements): "
        f"PASS ({len(big_fleet['runs'])} runs, every (t,i))")


def test_criterion_05_edge_budget(big_fleet):
    bad = [r["label"] for r in big_fleet["runs"] if r["fails"].get("edge-budget")]
    assert not bad, bad[:5]
    # Nothing else in the structural pass may fail either.
    dirty = [(r["label"], r["fails"]) for r in big_fleet["runs"] if r["fails"]]
    assert not dirty, dirty[:3]
    say(f"C5 cost(E_orig) <= 2^(i+1): PASS ({len(big_fleet['runs'])} runs)")


def test_criterion_06_oracle_anchored_competitiveness(small_fleet):
    worst = Fraction(0)
    for b in small_fleet["bundles"]:
        for out in b["trace"].arrivals:
            ratio = Fraction(out.snapshot.cost, b["opt"][out.t])
            worst = max(worst, ratio)
            assert ratio <= 64, (b["inst"].label, out.t, float(ratio))
    elapsed = small_fleet["elapsed"]
    assert elapsed < 60, f"small fleet took {elapsed:.1f}s"
    say(f"C6 cost/OPT <= 64 with lam=ceil(log2 n): PASS "
        f"(empirical max {float(worst):.3f}, fleet built in {elapsed:.1f}s)")


def test_criterion_07_dual_fitting_certification(small_fleet):
    bundles = small_fleet["bundles"]
    assert len(bundles) >= 50
    worst_d = Fraction(0)
    for b in bundles:
        trace = b["trace"]
        opt_final = b["opt"][trace.n]
        view = trace.instance.view(trace.n)
        top = trace.final().hierarchy.top
        for i in range(trace.final().hierarchy.L + 1):
            wit = build_dual_witness(trace, i)  # raises on any invariant break
            dual = grow_balls(view, wit.final_sources, radius(i))
            ok, detail = check_dual_feasibility(dual, view, top)
            assert ok, (b["inst"].label, i, detail)
            ok, d2, detail = witness_value_identity(wit, trace, dual)  # d2 = 2D
            assert ok, (b["inst"].label, i, detail)
            assert sum(wit.noninherited_counts) * level_threshold(i) == 2 * d2
            ratio = Fraction(d2, 2 * opt_final)
            worst_d = max(worst_d, ratio)
            assert d2 <= 128 * opt_final, (b["inst"].label, i, float(ratio))
        assert b["report"].ok, b["report"].failures()[:3]
    say(f"C7 dual witness (invariants, feasibility, identities, 4D): PASS "
        f"({len(bundles)} runs, all levels; max D/OPT = {float(worst_d):.3f})")


def test_criterion_08_hierarchy_budget(small_fleet):
    worst = Fraction(0)
    for b in small_fleet["bundles"]:
        h = b["trace"].final().hierarchy
        budget = sum(
            (len(h.clustering(i).cluster_ids) - len(h.clustering(i + 1).cluster_ids))
            * level_threshold(i)
            for i in range(h.L + 1)
        )
        ratio = Fraction(budget, b["opt"][b["trace"].n])
        worst = max(worst, ratio)
        assert ratio <= 64, (b["inst"].label, float(ratio))
    say(f"C8 hierarchy budget sum/OPT <= 64: PASS (max {float(worst):.3f})")


def test_criterion_09_online_gluttonous_baseline(small_fleet):
    worst = Fraction(0)
    for b in small_fleet["bundles"]:
        inst = b["inst"]
        glut = b["gluttonous"]
        for step in glut.steps:
            assert check_feasible(step.edges, inst.view(step.t).demands)
            assert step.deletions == 0
        n = inst.n
        bound = 8 * (2 * n - 1).bit_length()  # 8 * ceil(log2 2n)
        ratio = Fraction(glut.final_cost(), b["opt"][n])
        worst = max(worst, ratio)
        assert ratio <= bound, (inst.label, float(ratio), bound)
    say(f"C9 online gluttonous feasible, zero deletions, "
        f"cost/OPT <= 8*ceil(log2 2n): PASS (max ratio {float(worst):.3f})")


def test_criterion_10_determinism(tmp_path, w1):
    inst = generate_instance(GeneratorSpec(kind="euclidean", n=6, seed=42))
    path = tmp_path / "inst.sfo"
    save_instance_file(inst, path)

    def read_all(root):
        out = {}
        for sub in sorted(root.rglob("*")):
            if sub.is_file():
                out[str(sub.relative_to(root))] = sub.read_bytes()
        return out

    for cmd, extra in (
        ("run", ["--lam", "2", "--checks", "full-witness"]),
        ("sweep", ["--lams", "1,3"]),
        ("compare", ["--lam", "2"]),
    ):
        d1 = tmp_path / f"{cmd}_1"
        d2 = tmp_path / f"{cmd}_2"
        for d in (d1, d2):
            rc = main([cmd, "--input", str(path), "--out", str(d), "--quiet"] + extra)
            assert rc == 0
        assert read_all(d1) == read_all(d2), f"{cmd} outputs differ between reruns"
    say("C10 determinism: PASS (run/sweep/compare byte-identical on rerun)")


def test_criterion_11_cross_oracle_consistency(small_fleet):
    violations = []
    for b in small_fleet["bundles"]:
        opt = b["opt"]
        for out in b["trace"].arrivals:
            if out.snapshot.cost < opt[out.t]:
                violations.append((b["inst"].label, "main", out.t))
        for name in ("gluttonous", "greedy"):
            for step in b[name].steps:
                if step.cost < opt[step.t]:
                    violations.append((b["inst"].label, name, step.t))
        for t, cost in enumerate(b["offline"], 1):
            if cost < opt[t]:
                violations.append((b["inst"].label, "offline", t))
    assert not violations, violations[:5]
    say(f"C11 no method beats the exact optimum: PASS "
        f"({len(small_fleet['bundles'])} instances, all methods, all arrivals)")
