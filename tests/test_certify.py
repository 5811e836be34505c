import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfonline.certify import (
    DualSolution,
    WitnessError,
    build_dual_witness,
    check_dual_feasibility,
    check_feasible,
    check_pinned_forest,
    check_run,
    grow_balls,
    inherited_clustering,
    radius,
    witness_value_identity,
)
from sfonline.clustering import (
    build_hierarchy,
    check_refinement,
    contract_clustering,
)
from sfonline.errors import SfonlineError
from sfonline.metric import (
    GENERATOR_KINDS,
    MAX_DIST,
    GeneratorSpec,
    Instance,
    generate_instance,
)
from sfonline.oracles import exact_optimum
from sfonline.trace import run_online

from conftest import clustering_of, line_instance


def opt_map(instance, limit=9):
    k = min(instance.n, limit)
    return dict(enumerate(exact_optimum(instance.view(k), limit).prefix_costs, 1))


# ---------------------------------------------------------------------------
# Reference dual: exact rationals, explicit cuts, brute-force edge loads
# ---------------------------------------------------------------------------

def ref_grow_balls(view, sources, r):
    """Radius-r balls as Fraction-valued prefix cuts (the certifier's rule)."""
    r = Fraction(r)
    src = sorted(sources)
    for a_idx in range(len(src)):
        for b_idx in range(a_idx + 1, len(src)):
            if view.d(src[a_idx], src[b_idx]) < 2 * r:
                raise SfonlineError(
                    f"sources {src[a_idx]},{src[b_idx]} closer than 2r: balls would overlap")
    cuts: dict = {}
    for v in src:
        order = sorted(range(view.num_terminals), key=lambda u: (view.d(v, u), u))
        for j, u in enumerate(order):
            d_j = view.d(v, u)
            if d_j > r:
                break
            upper = r if j + 1 >= len(order) else min(Fraction(view.d(v, order[j + 1])), r)
            inc = upper - d_j
            if inc > 0:
                key = frozenset(order[: j + 1])
                cuts[key] = cuts.get(key, Fraction(0)) + inc
    dual = DualSolution(cuts, frozenset(src), r)
    assert sum(cuts.values(), Fraction(0)) == len(src) * r
    return dual


def ref_overlapping_dual(view, sources, r):
    """Sum of single-source reference duals; the balls may overlap."""
    cuts: dict = {}
    for v in sorted(sources):
        for cut, val in ref_grow_balls(view, [v], r).cuts.items():
            cuts[cut] = cuts.get(cut, Fraction(0)) + val
    return DualSolution(cuts, frozenset(sources), Fraction(r))


def ref_check_dual_feasibility(dual, view, top_clustering):
    """(ok, detail) by summing every positive cut over every terminal pair."""
    items = [(cut, val) for cut, val in dual.cuts.items() if val > 0]
    T = view.num_terminals
    for a in range(T):
        for b in range(a + 1, T):
            load = sum(val for cut, val in items if (a in cut) != (b in cut))
            if load > view.d(a, b):
                return False, f"edge ({a},{b}) overloaded: {load} > {view.d(a, b)}"
    for cut, _ in items:
        separated = any(
            any(m in cut for m in top_clustering.members[cid])
            and any(m not in cut for m in top_clustering.members[cid])
            for cid in top_clustering.cluster_ids
        )
        if not separated:
            return False, f"cut {sorted(cut)} separates no top cluster"
    return True, ""


def as_certify_dual(ref):
    """A reference dual in the certifier's representation: values doubled."""
    return DualSolution({cut: int(2 * val) for cut, val in ref.cuts.items()}, ref.sources,
                        int(2 * ref.radius))


def assert_same_verdict(ref, view, top):
    want = ref_check_dual_feasibility(ref, view, top)
    assert check_dual_feasibility(as_certify_dual(ref), view, top) == want


KIND_NAMES = ("euclidean", "random-metric", "line-chain")


@st.composite
def dual_cases(draw, separated):
    """(view, sources, level, top clustering) on a random small metric."""
    kind = draw(st.sampled_from(KIND_NAMES))
    n = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1, 3, 40, 1000]))
    inst = generate_instance(GeneratorSpec(kind=kind, n=n, seed=draw(st.integers(0, 99)),
                                           scale=scale))
    view = inst.view(n)
    T = view.num_terminals
    i = draw(st.integers(0, 12))
    order = draw(st.permutations(range(T)))
    want = draw(st.integers(0, T))
    sources = []
    for v in order:
        if len(sources) == want:
            break
        if not separated or all(view.d(v, w) >= 1 << i for w in sources):
            sources.append(v)
    if draw(st.booleans()):
        top = build_hierarchy(view)[0].top
    else:
        top = clustering_of(draw(st.lists(st.integers(0, 3), min_size=T, max_size=T)),
                            view.levels)
    return view, sources, i, top


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dual_cases(separated=True))
def test_dual_check_matches_reference_on_grown_balls(case):
    view, sources, i, top = case
    ref = ref_grow_balls(view, sources, Fraction(1 << i, 2))
    dual = grow_balls(view, sources, radius(i))
    assert dual.cuts == as_certify_dual(ref).cuts
    assert check_dual_feasibility(dual, view, top) == ref_check_dual_feasibility(ref, view, top)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(dual_cases(separated=False))
def test_dual_check_matches_reference_on_overlapping_balls(case):
    view, sources, i, top = case
    assert_same_verdict(ref_overlapping_dual(view, sources, Fraction(1 << i, 2)), view, top)


def test_dual_check_hand_made_duals(w1):
    view = w1.view(2)
    h = build_hierarchy(view)[0]
    top, trivial = h.top, h.clusterings[0]
    # Overloaded edge: radius-1 balls around 0 and 1, which sit 1 apart.
    ref = ref_overlapping_dual(view, [0, 1], 1)
    assert ref_check_dual_feasibility(ref, view, top) == (
        False, "edge (0,1) overloaded: 2 > 1")
    assert_same_verdict(ref, view, top)
    # A half-integral overload.
    line = line_instance([0, 1, 2, 50]).view(2)
    ref = ref_overlapping_dual(line, [0, 2], Fraction(3, 2))
    line_top = build_hierarchy(line)[0].top
    assert ref_check_dual_feasibility(ref, line, line_top) == (
        False, "edge (0,1) overloaded: 3/2 > 1")
    assert_same_verdict(ref, line, line_top)
    # A cut that separates no top cluster: singletons cannot be separated.
    ref = ref_grow_balls(view, [0], Fraction(1, 2))
    assert ref_check_dual_feasibility(ref, view, trivial) == (
        False, "cut [0] separates no top cluster")
    assert_same_verdict(ref, view, trivial)
    # The empty dual.
    ref = DualSolution({}, frozenset(), Fraction(1, 2))
    assert ref_check_dual_feasibility(ref, view, top) == (True, "")
    assert_same_verdict(ref, view, top)


def test_dual_check_loads_past_int64():
    # Four terminals pairwise MAX_DIST apart, each the centre of a ball of
    # radius 2^62: every edge carries two full balls, 2 * MAX_DIST in all,
    # so a doubled load of 2^64 - 4 must not wrap.
    T = 4
    dist = np.full((T, T), MAX_DIST, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    inst = Instance(n=2, dist=dist, demands=((0, 1), (2, 3)))
    view = inst.view(2)
    top = clustering_of((0, 0, 0, 0), view.levels)
    ref = ref_overlapping_dual(view, range(T), 1 << 62)
    assert ref_check_dual_feasibility(ref, view, top) == (
        False, f"edge (0,1) overloaded: {2 * MAX_DIST} > {MAX_DIST}")
    assert_same_verdict(ref, view, top)


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
    dual = grow_balls(inst.view(1), [0], 2)  # r = 1; values doubled
    assert dual.cuts == {frozenset([0]): 2}
    assert dual.total() == 2


def test_grow_balls_two_shells():
    inst = line_instance([0, 1, 5, 50])
    dual = grow_balls(inst.view(2), [0], 4)  # r = 2
    assert dual.cuts == {frozenset([0]): 2, frozenset([0, 1]): 2}
    assert dual.total() == 4


def test_grow_balls_empty():
    inst = line_instance([0, 3])
    dual = grow_balls(inst.view(1), [], 10)
    assert dual.cuts == {}
    assert dual.total() == 0


def test_grow_balls_rejects_overlap():
    inst = line_instance([0, 3])
    with pytest.raises(SfonlineError):
        grow_balls(inst.view(1), [0, 1], 4)  # distance 3 < 2r = 4


def test_two_balls_at_exactly_2r_are_feasible():
    inst = line_instance([0, 4])
    view = inst.view(1)
    dual = grow_balls(view, [0, 1], 4)  # r = 2
    assert dual.total() == 8
    top = build_hierarchy(view)[0].top
    ok, detail = check_dual_feasibility(dual, view, top)
    assert ok, detail
    # The single edge is exactly tight: both radius-2 balls cross it.
    load = sum(v for cut, v in dual.cuts.items() if (0 in cut) != (1 in cut))
    assert load == 8 == 2 * view.d(0, 1)


def test_empty_dual_is_feasible(w1):
    view = w1.view(2)
    ok, _ = check_dual_feasibility(DualSolution({}, frozenset(), 2), view,
                                   build_hierarchy(view)[0].top)
    assert ok


def test_w1_witness_level2(w1):
    trace = run_online(w1, lam=1)
    wit = build_dual_witness(trace, 2)
    # w1 has two arrivals, so the final sets are those after arrival 2.
    assert wit.final_xhat == frozenset([2, 3])
    assert wit.final_sources == frozenset([2])
    assert wit.noninherited_counts == [0, 1]
    ok, d2, detail = witness_value_identity(wit, trace)
    assert ok, detail
    assert d2 == 4  # one non-inherited level-2 edge, r = 2; D doubled


def test_w1_witness_all_levels_and_values(w1):
    trace = run_online(w1, lam=1)
    expected_d2 = {0: 1, 1: 0, 2: 4}  # D doubled: 1/2, 0, 2
    view = w1.view(2)
    top = trace.final().hierarchy.top
    for i, want in expected_d2.items():
        wit = build_dual_witness(trace, i)
        dual = grow_balls(view, wit.final_sources, radius(i))
        ok, d2, detail = witness_value_identity(wit, trace, dual)
        assert ok, detail
        assert d2 == want
        ok, detail = check_dual_feasibility(dual, view, top)
        assert ok, detail


def test_witness_level_above_top_is_empty(w1):
    trace = run_online(w1, lam=1)
    wit = build_dual_witness(trace, 9)
    assert wit.final_sources == frozenset()
    assert wit.noninherited_counts == [0, 0]
    ok, d2, _ = witness_value_identity(wit, trace)
    assert ok and d2 == 0


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
    report = check_run(trace, witness_levels=())
    assert not report.ok
    fails = {(e.check, e.arrival) for e in report.failures()}
    assert ("feasible", 2) in fails or ("snapshot-consistency", 2) in fails


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("n,lam", [(8, 1), (8, 2), (16, 1), (16, 2)])
def test_inherited_clustering_contracts_the_inherited_edges(kind, n, lam):
    trace = run_online(generate_instance(GeneratorSpec(kind=kind, n=n, seed=1)), lam=lam)
    prev = None
    for out in trace.arrivals:
        h = out.hierarchy
        for i in range(h.L + 1):
            cl, cl_next = h.clustering(i), h.clustering(i + 1)
            finh = [ve.endpoints for ve in out.forest.get(i, []) if ve.inherited]
            cinh = inherited_clustering(cl, cl_next, finh)
            if not finh:
                assert cinh is cl
            assert (cinh is cl_next) == (cinh.assignment == cl_next.assignment)
            assert cinh.assignment == contract_clustering(cl, finh)
            if prev is not None:
                assert check_refinement(prev.hierarchy.clustering(i + 1), cinh)
        prev = out


def test_check_run_detects_tampered_witness_counts(w1):
    # Flip a fresh edge's inherited flag: C_inh follows the flag, so the
    # forest no longer vouches for the edge, but provenance does.
    trace = run_online(w1, lam=1)
    a2 = trace.arrivals[1]
    ve = a2.forest[2][0]
    ve.inherited = True
    ve.parent = (2, 3)
    assert [(e.check, e.level, e.arrival) for e in check_run(trace).failures()] == [
        ("inheritance-provenance", 2, 2)]
    # Flip an inherited one: arrival 4 of euclidean n=4 inherits level-8 edge
    # (1,2), and as a fresh edge it leaves the witness one source short.
    trace = run_online(generate_instance(GeneratorSpec(kind="euclidean", n=4, seed=1)), lam=2)
    ve = next(ve for ve in trace.arrivals[3].forest[8] if ve.inherited)
    ve.inherited, ve.parent = False, None
    with pytest.raises(WitnessError, match="cluster 0 offers 2 fresh sources, needs 3"):
        build_dual_witness(trace, 8)


class _CountingList(list):
    """A list that counts the walks over it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


@pytest.mark.parametrize("witness_levels", [None, (), [3]])
def test_check_run_walks_the_arrivals_once(monkeypatch, witness_levels):
    trace = run_online(generate_instance(GeneratorSpec(kind="line-chain", n=12, seed=1)), lam=2)
    want = {i: build_dual_witness(trace, i) for i in range(trace.final().hierarchy.L + 1)}
    used = []

    def identity(witness, *args):
        used.append(witness)
        return witness_value_identity(witness, *args)

    monkeypatch.setattr("sfonline.certify.witness_value_identity", identity)
    trace.arrivals = _CountingList(trace.arrivals)
    report = check_run(trace, witness_levels=witness_levels)
    assert trace.arrivals.walks == 1
    assert report.ok, report.failures()[:3]
    # Each level's rows come from the same sets that build_dual_witness steps.
    assert [w.level for w in used] == list(want if witness_levels is None else witness_levels)
    assert all(w == want[w.level] for w in used)


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
    assert check_run(t1).ok
    assert check_run(t2).ok

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
