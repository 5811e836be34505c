import dataclasses
from fractions import Fraction

import pytest

from sfonline.certify import (
    WitnessError,
    build_dual_witness,
    check_dual_feasibility,
    check_feasible,
    check_pinned_forest,
    check_run,
    grow_balls,
    radius,
    witness_value_identity,
)
from sfonline.clustering import build_hierarchy
from sfonline.errors import SfonlineError
from sfonline.metric import GeneratorSpec, generate_instance
from sfonline.oracles import exact_optimum
from sfonline.trace import run_online

from conftest import line_instance


def opt_map(instance, limit=9):
    k = min(instance.n, limit)
    return dict(enumerate(exact_optimum(instance.view(k), limit).prefix_costs, 1))


def test_check_feasible_basics():
    assert check_feasible([(0, 1)], [(0, 1)])
    assert not check_feasible([], [(0, 1)])
    assert check_feasible([(0, 2), (2, 1)], [(0, 1)])


def test_check_pinned_forest_basics():
    assert check_pinned_forest([], 4)
    assert not check_pinned_forest([(0, 1), (1, 2), (0, 2)], 6)  # cycle
    path = [(k, k + 1) for k in range(7)]  # spanning path on 2n=8 terminals
    assert check_pinned_forest(path, 8)
    assert len(path) == 8 - 1


def test_grow_balls_single_shell():
    inst = line_instance([0, 3])
    dual = grow_balls(inst.view(1), [0], 1)
    assert dual.cuts == {frozenset([0]): Fraction(1)}
    assert dual.total() == 1


def test_grow_balls_two_shells():
    inst = line_instance([0, 1, 5, 50])
    dual = grow_balls(inst.view(2), [0], 2)
    assert dual.cuts == {frozenset([0]): Fraction(1), frozenset([0, 1]): Fraction(1)}
    assert dual.total() == 2


def test_grow_balls_empty():
    inst = line_instance([0, 3])
    dual = grow_balls(inst.view(1), [], 5)
    assert dual.cuts == {}
    assert dual.total() == 0


def test_grow_balls_rejects_overlap():
    inst = line_instance([0, 3])
    with pytest.raises(SfonlineError):
        grow_balls(inst.view(1), [0, 1], 2)  # distance 3 < 2r = 4


def test_two_balls_at_exactly_2r_are_feasible():
    inst = line_instance([0, 4])
    view = inst.view(1)
    dual = grow_balls(view, [0, 1], 2)
    assert dual.total() == 4
    top = build_hierarchy(view).top
    ok, detail = check_dual_feasibility(dual, view, top)
    assert ok, detail
    # The single edge is exactly tight: both radius-2 balls cross it.
    load = sum(v for cut, v in dual.cuts.items() if (0 in cut) != (1 in cut))
    assert load == 4 == view.d(0, 1)


def test_empty_dual_is_feasible(w1):
    view = w1.view(2)
    from sfonline.certify import DualSolution

    ok, _ = check_dual_feasibility(DualSolution({}, frozenset(), Fraction(1)), view,
                                   build_hierarchy(view).top)
    assert ok


def test_w1_witness_level2(w1):
    trace = run_online(w1, lam=1)
    wit = build_dual_witness(trace, 2)
    xhat2, x2 = wit.per_arrival[1]
    assert xhat2 == frozenset([2, 3])
    assert x2 == frozenset([2])
    assert wit.noninherited_counts == [0, 1]
    ok, d_val, detail = witness_value_identity(wit, trace)
    assert ok, detail
    assert d_val == 2  # one non-inherited level-2 edge, r = 2


def test_w1_witness_all_levels_and_values(w1):
    trace = run_online(w1, lam=1)
    expected_d = {0: Fraction(1, 2), 1: Fraction(0), 2: Fraction(2)}
    view = w1.view(2)
    top = trace.final().hierarchy.top
    for i, want in expected_d.items():
        wit = build_dual_witness(trace, i)
        dual = grow_balls(view, wit.final_sources, radius(i))
        ok, d_val, detail = witness_value_identity(wit, trace, dual)
        assert ok, detail
        assert d_val == want
        ok, detail = check_dual_feasibility(dual, view, top)
        assert ok, detail


def test_witness_level_above_top_is_empty(w1):
    trace = run_online(w1, lam=1)
    wit = build_dual_witness(trace, 9)
    assert wit.final_sources == frozenset()
    assert wit.noninherited_counts == [0, 0]
    ok, d_val, _ = witness_value_identity(wit, trace)
    assert ok and d_val == 0


def test_check_run_healthy_w1(w1):
    trace = run_online(w1, lam=1)
    report = check_run(trace, opt_map(w1))
    assert report.ok, report.failures()[:3]
    assert report.ratios["cost/OPT-max"] == 1.0  # W1 is separable
    csv = report.to_csv()
    assert csv.splitlines()[0] == "check,level,arrival,status,value"
    assert "PASS" in report.summary_text()


def test_check_run_detects_corrupted_snapshot(w1):
    trace = run_online(w1, lam=1)
    bad = trace.arrivals[1]
    dropped = frozenset(list(bad.snapshot.edges)[:1])
    removed = bad.snapshot.edges - dropped
    trace.arrivals[1] = dataclasses.replace(
        bad, snapshot=dataclasses.replace(bad.snapshot, edges=removed))
    report = check_run(trace, with_witness=False)
    assert not report.ok
    fails = {(e.check, e.arrival) for e in report.failures()}
    assert ("feasible", 2) in fails or ("snapshot-consistency", 2) in fails


def test_check_run_detects_tampered_witness_counts(w1):
    # Flip an inherited flag: the witness's source-count bookkeeping must notice.
    trace = run_online(w1, lam=1)
    a2 = trace.arrivals[1]
    ve = a2.forest[2][0]
    ve.inherited = True
    ve.parent = (2, 3)
    with pytest.raises(WitnessError):
        build_dual_witness(trace, 2)


def test_check_run_random_runs_certify():
    for kind, seed, lam in [("euclidean", 0, 1), ("random-metric", 1, 2),
                            ("line-chain", 2, 2)]:
        inst = generate_instance(GeneratorSpec(kind=kind, n=5, seed=seed, scale=40))
        trace = run_online(inst, lam=lam)
        report = check_run(trace, opt_map(inst))
        assert report.ok, (kind, seed, report.failures()[:3])
        # Per-level 4D linkage entries are all exact.
        assert all(e.status == "pass" for e in report.entries if e.check == "linkage-4d")


def test_lambda_one_pins_more_per_edge(w1):
    inst = generate_instance(GeneratorSpec(kind="euclidean", n=8, seed=21))
    lam_big = max(1, (inst.n - 1).bit_length())  # ceil(log2 n)
    t1 = run_online(inst, lam=1)
    t2 = run_online(inst, lam=lam_big)
    assert check_run(t1, with_witness=True).ok
    assert check_run(t2, with_witness=True).ok

    def pins_and_edges(trace):
        pins = sum(e.ledger.pins_added for e in trace.arrivals)
        fresh = sum(1 for out in trace.arrivals
                    for entries in out.forest.values() for ve in entries
                    if not ve.inherited)
        return pins, fresh

    p1, f1 = pins_and_edges(t1)
    p2, f2 = pins_and_edges(t2)
    assert p1 * f2 >= p2 * f1  # lambda=1 pins at least as much per fresh edge
    assert p1 >= p2
