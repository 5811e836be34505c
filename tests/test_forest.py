import pytest

from sfonline.clustering import (
    Clustering,
    build_hierarchy,
    terminal_levels,
)
from sfonline.errors import ConfigError
from sfonline.forest import (
    OnlineState,
    VirtualEdge,
    advance,
    classify_inheritance,
    recourse_diff,
    select_spanning_forest,
)
from sfonline.metric import GeneratorSpec, generate_instance
from sfonline.trace import run_online
from sfonline.unionfind import UnionFind

from conftest import line_instance


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
    assert classify_inheritance((), None, h.clustering(0), vgraphs[0]) == {}


def test_classify_inheritance_maps_and_absorbs(w1):
    # Previous edge ({0},{1}) with endpoints in distinct new clusters stays;
    # with both endpoints inside one new cluster it dies.
    view = w1.view(2)
    prev_cl = build_hierarchy(view)[0].clusterings[0]
    pe = VirtualEdge(0, 0, 1, False, None, frozenset([(0, 1)]), 1)
    new_same = build_hierarchy(view)[0].clusterings[0]
    parents = classify_inheritance([pe], prev_cl, new_same, [(0, 1)])
    assert parents == {(0, 1): pe}
    merged = Clustering((0, 0, 2, 3), terminal_levels(view))
    assert classify_inheritance([pe], prev_cl, merged, []) == {}


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
        for i in range(h.L + 1):
            fi = out.forest.get(i, [])
            finh = [ve for ve in fi if ve.inherited]
            assert len(fi) == len(h.clustering(i).cluster_ids) - len(h.clustering(i + 1).cluster_ids)
            assert len(finh) == len(h.clustering(i).cluster_ids) - len(out.cinh[i].cluster_ids)
        # Ledger row matches the actual diff.
        ins, dels = recourse_diff(prev_edges, out.snapshot.edges)
        assert (ins, dels) == (out.ledger.insertions, out.ledger.deletions)
        prev_edges = out.snapshot.edges
        assert out.ledger.buffer_end < lam
    assert trace.insertions_total <= 2 * n + 21 * n * lam
    assert trace.deletions_total <= trace.insertions_total


def test_nhat_doubling_mode_runs_and_stays_feasible():
    inst = generate_instance(GeneratorSpec(kind="euclidean", n=7, seed=5))
    trace = run_online(inst, lam=2, nhat_doubling=True)
    assert trace.nhat_doubling
    for out in trace.arrivals:
        assert connected_pairs(out.snapshot.edges, inst.view(out.t).demands)
    again = run_online(inst, lam=2, nhat_doubling=True)
    assert [o.snapshot for o in trace.arrivals] == [o.snapshot for o in again.arrivals]
