import dataclasses
import inspect

import pytest

from sfonline import forest
from sfonline.certify import check_run
from sfonline.cli import main
from sfonline.clustering import (
    NO_METRIC,
    NO_TERMINALS,
    ClusterPath,
    Clustering,
    Hierarchy,
    build_hierarchy,
)
from sfonline.errors import ConfigError
from sfonline.forest import (
    ARRIVAL_ZERO,
    ArrivalLedger,
    ArrivalOutcome,
    OnlineState,
    Snapshot,
    VirtualEdge,
    advance,
    classify_inheritance,
    recourse_diff,
    select_spanning_forest,
)
from sfonline.metric import GeneratorSpec, generate_instance
from sfonline.trace import load_trace, run_online, save_trace
from sfonline.unionfind import UnionFind

from conftest import clustering_of, inherited_clusterings, line_instance


def chain5():
    """Four unit pairs spaced 3 apart plus one pair spanning the whole chain.

    At t=5 the spanning pair merges at level 3 through a 5-hop path of cost
    15 realizing edges (0,8),(1,2),(3,4),(5,6),(7,9), all of cost 3.
    """
    return line_instance([0, 1, 4, 5, 8, 9, 12, 13, -3, 16], label="chain5")


def w3():
    """Pairs (0,100), (2,102), (1,101): arrival 3 creates four fresh level-0
    edges, driving the buffer past lambda=3 on the third insertion."""
    return line_instance([0, 100, 2, 102, 1, 101], label="W3")


def connected_pairs(edges, demands):
    uf = UnionFind()
    for a, b in edges:
        uf.union(a, b)
    return all(uf.connected(u, v) for u, v in demands)


def test_recourse_diff_basics():
    assert recourse_diff({(0, 1), (2, 3)}, {(2, 3), (4, 5)}) == (1, 1)
    assert recourse_diff({(0, 1)}, {(0, 1)}) == (0, 0)
    assert recourse_diff(set(), {(0, 1)}) == (1, 0)


def test_classify_inheritance_base_case(w1):
    view = w1.view(1)
    h, vgraphs, _ = build_hierarchy(view)
    assert classify_inheritance((), h.clustering(0), vgraphs[0]) == {}


def test_classify_inheritance_maps_and_absorbs(w1):
    # Previous edge ({0},{1}) with endpoints in distinct new clusters stays;
    # with both endpoints inside one new cluster it dies.
    view = w1.view(2)
    pe = VirtualEdge(0, 0, 1, False, None, frozenset([(0, 1)]), 1)
    new_same = build_hierarchy(view)[0].clusterings[0]
    parents = classify_inheritance([pe], new_same, [(0, 1)])
    assert parents == {(0, 1): pe}
    merged = clustering_of((0, 0, 2, 3), view.levels)
    assert classify_inheritance([pe], merged, []) == {}


def test_select_spanning_forest_cases():
    # Triangle with one inherited edge: keep it plus one canonical edge.
    tri = [(0, 1), (0, 2), (1, 2)]
    f_inh, f_rest = select_spanning_forest(tri, [(1, 2)])
    assert f_inh == [(1, 2)]
    assert f_rest == [(0, 1)]
    # Inherited edges forming a cycle: one gets dropped.
    f_inh, f_rest = select_spanning_forest(tri, tri)
    assert len(f_inh) == 2 and f_rest == []
    assert select_spanning_forest([], []) == ([], [])


def test_w1_hand_run_lambda1(w1):
    trace = run_online(w1, lam=1)
    a1, a2 = trace.arrivals

    # Arrival 1: single edge realized and pinned immediately.
    assert a1.snapshot.edges == frozenset([(0, 1)])
    assert a1.ledger.insertions == 1 and a1.ledger.deletions == 0
    assert a1.pinned_after == (((0, 1), 1),)

    # Arrival 2: level-0 edge inherited (edge set reused), level-2 edge fresh,
    # realizing the single cost-4 edge (2,3), pinned via floor(1/1) = 1.
    lvl0 = a2.forest[0]
    assert [ (ve.endpoints, ve.inherited) for ve in lvl0 ] == [((0, 1), True)]
    assert lvl0[0].eorig == frozenset([(0, 1)])
    lvl2 = a2.forest[2]
    assert [ (ve.endpoints, ve.inherited) for ve in lvl2 ] == [((2, 3), False)]
    assert lvl2[0].eorig == frozenset([(2, 3)])
    assert a2.snapshot.edges == frozenset([(0, 1), (2, 3)])
    assert a2.snapshot.cost == 5
    assert dict(a2.pinned_after) == {(0, 1): 1, (2, 3): 2}
    events = a2.ledger.pin_events
    assert len(events) == 1 and events[0].kind == "batch" and events[0].edges == ((2, 3),)


def test_batch_pin_five_edge_path():
    trace = run_online(chain5(), lam=2)
    a5 = trace.arrivals[4]
    lvl3 = a5.forest[3]
    assert [ve.endpoints for ve in lvl3] == [(8, 9)]
    assert lvl3[0].eorig == frozenset([(0, 8), (1, 2), (3, 4), (5, 6), (7, 9)])
    batch = [ev for ev in a5.ledger.pin_events if ev.kind == "batch"]
    assert len(batch) == 1
    assert batch[0].source_size == 5
    assert batch[0].edges == ((0, 8), (1, 2))  # floor(5/2) cheapest, ties canonical
    # Arrivals 1-4 never reach the buffer threshold with lambda=2.
    assert all(not a.ledger.pin_events for a in trace.arrivals[:4])
    assert connected_pairs(a5.snapshot.edges, trace.instance.demands)


def test_buffer_single_pin_at_lambda3():
    trace = run_online(w3(), lam=3)
    a3 = trace.arrivals[2]
    noninh0 = [ve for ve in a3.forest[0] if not ve.inherited]
    assert [ve.endpoints for ve in noninh0] == [(0, 4), (1, 5), (2, 4), (3, 5)]
    singles = [ev for ev in a3.ledger.pin_events if ev.kind == "single"]
    assert len(singles) == 1
    assert singles[0].edges == ((0, 4),)  # cheapest of the full buffer, canonical tie
    assert singles[0].source_size == 3
    assert a3.ledger.buffer_end == 1  # (3,5) left behind, below lambda
    # The old level-1 edges were absorbed (non-inheritable): no level-1 forest.
    assert a3.forest.get(1, []) == []
    # The pair-spanning edge keeps riding its arrival-1 realization.
    top = [ve for ve in a3.forest[6]]
    assert top and top[0].inherited and top[0].eorig == frozenset([(0, 1)])


def test_advance_rejects_wrong_pair(w1):
    state = OnlineState(w1, lam=1)
    with pytest.raises(ConfigError):
        advance(state, (2, 3))


def test_lambda_validation(w1):
    with pytest.raises(ConfigError):
        OnlineState(w1, lam=0)


def _outcome_fields(out):
    """An outcome as comparable values: Clustering compares by identity."""
    cls = [(c.assignment, c.cluster_ids, c.members, c.cluster_level)
           for c in out.hierarchy.clusterings]
    return (out.t, out.hierarchy.L, cls, out.forest, out.pinned_after, out.snapshot,
            out.ledger, out.cost_pinned, out.cost_forestforming)


def test_arrival_zero_stays_empty(tmp_path):
    # Every walk over arrivals starts from the one shared ARRIVAL_ZERO, a
    # mutable outcome holding a dict: running, saving, loading, certifying
    # and comparing must leave it as empty as a freshly built one.
    inst = generate_instance(GeneratorSpec(kind="euclidean", n=6, seed=2))
    assert OnlineState(inst, lam=2).last_outcome is ARRIVAL_ZERO
    save_trace(run_online(inst, lam=2), tmp_path / "t")
    assert check_run(load_trace(tmp_path / "t")).ok
    assert main(["compare", "--kind", "euclidean", "--n", "6", "--seed", "2",
                 "--out", str(tmp_path / "c"), "--quiet"]) == 0
    empty = Clustering.from_parts((), {}, {})
    fresh = ArrivalOutcome(0, Hierarchy(-1, (empty,)), {}, (), Snapshot(frozenset(), 0),
                           ArrivalLedger(0, 0, 0, (), 0), 0, 0)
    assert _outcome_fields(ARRIVAL_ZERO) == _outcome_fields(fresh)
    assert all(cl is NO_TERMINALS for cl in ARRIVAL_ZERO.hierarchy.clusterings)
    assert NO_METRIC.ids == () and NO_METRIC.D.shape == (0, 0)


def test_replay_is_deterministic():
    inst = generate_instance(GeneratorSpec(kind="euclidean", n=8, seed=13))
    t1 = run_online(inst, lam=2)
    t2 = run_online(inst, lam=2)
    for a, b in zip(t1.arrivals, t2.arrivals):
        assert a.snapshot == b.snapshot
        assert a.ledger == b.ledger
        assert a.pinned_after == b.pinned_after


@pytest.mark.parametrize("kind,seed,lam", [
    ("euclidean", 0, 1),
    ("euclidean", 1, 2),
    ("random-metric", 2, 1),
    ("random-metric", 3, 3),
    ("line-chain", 4, 2),
    ("line-chain", 0, 1),
])
def test_run_invariants_random(kind, seed, lam):
    inst = generate_instance(GeneratorSpec(kind=kind, n=6, seed=seed, scale=40))
    trace = run_online(inst, lam=lam)
    n = inst.n
    prev_pinned = ()
    prev_edges = frozenset()
    for out in trace.arrivals:
        t = out.t
        view = inst.view(t)
        # Feasibility, recomputed here.
        assert connected_pairs(out.snapshot.edges, view.demands)
        # Pinned forest: monotone prefix, acyclic, small.
        assert out.pinned_after[: len(prev_pinned)] == prev_pinned
        prev_pinned = out.pinned_after
        uf = UnionFind()
        for (a, b), _ in out.pinned_after:
            assert uf.union(a, b), "pinned set has a cycle"
        assert len(out.pinned_after) <= 2 * n - 1
        # Snapshot is the pin set plus all realized edge sets.
        rebuilt = set(e for e, _ in out.pinned_after)
        for entries in out.forest.values():
            for ve in entries:
                rebuilt |= ve.eorig
                cost = sum(view.d(a, b) for a, b in ve.eorig)
                assert cost <= 2 ** (ve.level + 1)
                if ve.inherited:
                    assert ve.parent is not None
        assert frozenset(rebuilt) == out.snapshot.edges
        # Counting identities per level.
        h = out.hierarchy
        cinh = inherited_clusterings(out)
        for i in range(h.L + 1):
            fi = out.forest.get(i, [])
            finh = [ve for ve in fi if ve.inherited]
            sizes = [len(c.cluster_ids) for c in (h.clustering(i), h.clustering(i + 1), cinh[i])]
            assert len(fi) == sizes[0] - sizes[1]
            assert len(finh) == sizes[0] - sizes[2]
        # Ledger row matches the actual diff.
        ins, dels = recourse_diff(prev_edges, out.snapshot.edges)
        assert (ins, dels) == (out.ledger.insertions, out.ledger.deletions)
        prev_edges = out.snapshot.edges
        assert out.ledger.buffer_end < lam
    assert trace.insertions_total <= 2 * n + 21 * n * lam
    assert trace.deletions_total <= trace.insertions_total


# Each internal-bug assertion of advance and pin_and_realize, fired by one
# injected fault. A fault that no collaborator can cause (the buffer rules)
# is a one-line change to pin_and_realize's own source.

def _source_fault(monkeypatch, fn, old, new):
    """Swap `fn`, in its module, for a copy of its source with the one
    occurrence of `old` replaced by `new`."""
    src = inspect.getsource(fn)
    assert src.count(old) == 1
    scope = {}
    exec(compile(src.replace(old, new), inspect.getsourcefile(fn), "exec"), fn.__globals__, scope)
    monkeypatch.setattr(inspect.getmodule(fn), fn.__name__, scope[fn.__name__])


def _patched(monkeypatch, name, fault):
    """Replace forest's `name` by `fault` applied to the real one's result."""
    real = getattr(forest, name)
    monkeypatch.setattr(forest, name, lambda *args: fault(real(*args)))


def test_advance_catches_a_dropped_forest_edge(monkeypatch, w1):
    _patched(monkeypatch, "select_spanning_forest",
             lambda f: (f[0], f[1][:-1]) if f[1] else (f[0][:-1], f[1]))
    with pytest.raises(AssertionError, match="forest-contracts-to-next: terminal "):
        run_online(w1, lam=1)


def test_advance_speaks_the_certifiers_phrases(monkeypatch):
    # The fault of test_trace.py's "forest-edge-dropped" tampering, made in
    # the run: arrival 4 of euclidean n=4, lambda=2, seed 1 loses its greatest
    # level-7 forest edge. advance names it as certify.csv does.
    real_build, real_select = forest.build_hierarchy, forest.select_spanning_forest
    levels = []  # per arrival, the levels whose forest is selected so far

    def build(*args):
        levels.append(0)
        return real_build(*args)

    def select(*args):
        f_inh, f_rest = real_select(*args)
        levels[-1] += 1
        if (len(levels), levels[-1] - 1) != (4, 7):
            return f_inh, f_rest
        top = max(f_inh + f_rest)
        return [e for e in f_inh if e != top], [e for e in f_rest if e != top]

    monkeypatch.setattr(forest, "build_hierarchy", build)
    monkeypatch.setattr(forest, "select_spanning_forest", select)
    with pytest.raises(AssertionError) as err:
        run_online(generate_instance(GeneratorSpec(kind="euclidean", n=4, seed=1)), lam=2)
    assert "forest-contracts-to-next: terminal 7 in 7 want 3" in str(err.value)
    assert "count-identity-forest: |F_i|=2 |C_i|-|C_i+1|=3" in str(err.value)


def test_advance_catches_a_repeated_forest_edge(monkeypatch, w1):
    _patched(monkeypatch, "select_spanning_forest", lambda f: (f[0], f[1] + f[1][:1]))
    with pytest.raises(AssertionError, match=r"^count-identity-forest: \|F_i\|="):
        run_online(w1, lam=1)


def test_advance_catches_a_wrong_inherited_clustering(monkeypatch):
    # C_inh contracts the inherited edges into C_i, one merge per edge. An
    # inherited edge listed twice merges once; chain5's arrival 2 inherits
    # one level-0 edge beside a fresh one.
    _patched(monkeypatch, "select_spanning_forest", lambda f: (f[0] + f[0][:1], f[1]))
    with pytest.raises(AssertionError, match=r"count-identity-inherited: \|F_inh\|=2 "):
        run_online(chain5(), lam=2)


def test_advance_catches_a_previous_level_that_does_not_refine_cinh(monkeypatch, w1):
    # Treating w1's inherited level-0 edge as fresh leaves C_inh = C_0, which
    # the previous C_1 = {0, 1} does not refine.
    _patched(monkeypatch, "select_spanning_forest", lambda f: (f[0][1:], f[1] + f[0][:1]))
    with pytest.raises(AssertionError, match="refine-into-inherited: fine cluster "):
        run_online(w1, lam=1)


def test_advance_catches_an_inherited_image_missing_from_the_virtual_graph(monkeypatch, w1):
    real = forest.build_hierarchy
    calls = []

    def build(*args):
        calls.append(args)
        h, vgraphs, metrics = real(*args)
        return h, (vgraphs if len(calls) == 1 else tuple(() for _ in vgraphs)), metrics

    monkeypatch.setattr(forest, "build_hierarchy", build)
    with pytest.raises(AssertionError, match="inheritable edge image missing"):
        run_online(w1, lam=1)


def test_advance_catches_an_infeasible_snapshot(monkeypatch, w1):
    _patched(monkeypatch, "cluster_distance", lambda path: ClusterPath(0, path.nodes[:1], ()))
    with pytest.raises(AssertionError, match="snapshot infeasible"):
        run_online(w1, lam=1)


def test_pin_and_realize_catches_an_over_budget_path(monkeypatch, w1):
    _patched(monkeypatch, "cluster_distance",
             lambda path: dataclasses.replace(path, distance=1 << 64))
    with pytest.raises(AssertionError, match="realized path exceeds the level budget"):
        run_online(w1, lam=1)


def test_pin_and_realize_catches_a_repeated_pin(monkeypatch, w1):
    # (0, 1) is pinned at arrival 1; arrival 2's path offers it again.
    _patched(monkeypatch, "cluster_distance",
             lambda path: dataclasses.replace(path, edges=path.edges + ((0, 1),)))
    with pytest.raises(AssertionError, match="pinned twice"):
        run_online(w1, lam=1)


def test_pin_and_realize_catches_a_pin_cycle(monkeypatch, w1):
    # Arrival 2's path (2, 3) also offers (0, 2) and (1, 2), closing a cycle
    # with the pinned (0, 1).
    _patched(monkeypatch, "cluster_distance",
             lambda path: dataclasses.replace(path, edges=path.edges + ((0, 2), (1, 2)))
             if path.edges == ((2, 3),) else path)
    with pytest.raises(AssertionError, match="would close a cycle"):
        run_online(w1, lam=1)


def test_pin_and_realize_catches_a_buffer_past_twice_lambda(monkeypatch):
    # Sending long paths to the buffer too puts chain5's 5-edge path there.
    _source_fault(monkeypatch, forest.pin_and_realize,
                  "if len(eorig) >= lam:", "if False:")
    with pytest.raises(AssertionError, match="buffer exceeded its momentary 2\\*lambda bound"):
        run_online(chain5(), lam=2)


def test_pin_and_realize_catches_an_undrained_buffer(monkeypatch):
    # A buffer that never pins ends w3's arrival 3 holding four edges.
    _source_fault(monkeypatch, forest.pin_and_realize,
                  "if len(buffer) >= lam:\n                e = min(",
                  "if False:\n                e = min(")
    with pytest.raises(AssertionError, match="buffer not drained at end of arrival"):
        run_online(w3(), lam=3)
