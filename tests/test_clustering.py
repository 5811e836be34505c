import heapq
import itertools
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfonline import clustering
from sfonline.clustering import (
    NO_METRIC,
    NO_TERMINALS,
    ClusterPath,
    ContractedMetric,
    build_hierarchy,
    check_refinement,
    cluster_distance,
    contract_clustering,
    active_virtual_edges,
    dump_hierarchy,
    level_metrics,
    level_threshold,
)
from sfonline.errors import ConfigError
from sfonline.forest import OnlineState, advance
from sfonline.metric import (
    GENERATOR_KINDS,
    MAX_DIST,
    GeneratorSpec,
    generate_instance,
    validate_metric,
)
from sfonline.unionfind import UnionFind

from conftest import clustering_of, graph_closure_instances, line_instance


# ---------------------------------------------------------------------------
# Reference contracted metric: per-cluster minima, then Floyd-Warshall.
# ---------------------------------------------------------------------------

def contracted_weights(dist, assignment):
    """(ids, W): W[p, q] = min original distance between members of
    clusters ids[p] and ids[q]; zero diagonal."""
    asn = np.asarray(assignment)
    ids = tuple(sorted(set(assignment)))
    K = len(ids)
    rows = np.empty((K, len(assignment)), dtype=np.int64)
    for k, cid in enumerate(ids):
        rows[k] = dist[asn == cid].min(axis=0)
    W = np.empty((K, K), dtype=np.int64)
    for k, cid in enumerate(ids):
        W[:, k] = rows[:, asn == cid].min(axis=1)
    np.fill_diagonal(W, 0)
    return ids, W


def floyd_warshall(W):
    D = W.copy()
    for k in range(len(D)):
        np.minimum(D, D[:, k, None] + D[None, k, :], out=D)
    return D


def assert_matches_reference(metric, dist, assignment):
    ids, W = contracted_weights(dist, assignment)
    assert metric.ids == ids
    assert np.array_equal(metric.D, floyd_warshall(W))


def joined(metric, assignment, pairs):
    """`metric`, of the canonical `assignment`, with the clusters of each
    (id, id) pair joined: the clustering contracted by the pairs, then the
    metric coarsened to it."""
    cl = clustering_of(assignment, [0] * len(assignment))
    return metric.coarsen(cl.contract(pairs).assignment)


def random_assignment(rng, T, groups):
    labels = [rng.randrange(groups) for _ in range(T)]
    anchor = {lab: min(k for k in range(T) if labels[k] == lab) for lab in set(labels)}
    return tuple(anchor[lab] for lab in labels)


# ---------------------------------------------------------------------------
# Brute-force oracle: explicit contracted multigraph + Dijkstra, no numpy.
# ---------------------------------------------------------------------------

def brute_contracted_distance(view, assignment, contracted_by, C1, C2):
    parent = {cid: cid for cid in set(assignment)}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in contracted_by:
        ra, rb = find(assignment[a]), find(assignment[b])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    sup = [find(c) for c in assignment]
    src, dst = find(C1), find(C2)
    if src == dst:
        return 0
    adj = {}
    T = view.num_terminals
    for a in range(T):
        for b in range(a + 1, T):
            if sup[a] != sup[b]:
                w = view.d(a, b)
                key = (sup[a], sup[b])
                adj.setdefault(sup[a], []).append((sup[b], w))
                adj.setdefault(sup[b], []).append((sup[a], w))
    dist = {src: 0}
    pq = [(0, src)]
    while pq:
        d, x = heapq.heappop(pq)
        if d > dist[x]:
            continue
        if x == dst:
            return d
        for y, w in adj.get(x, []):
            nd = d + w
            if y not in dist or nd < dist[y]:
                dist[y] = nd
                heapq.heappush(pq, (nd, y))
    return dist[dst]


def test_terminal_level_examples(w1):
    view = w1.view(2)
    assert view.levels[0] == 0  # dist 1 -> level 0
    assert view.levels[2] == 2  # dist 4 -> level 2
    five = line_instance([0, 5])
    assert five.view(1).levels == (3, 3)  # ceil(log2 5) = 3


def test_terminal_level_matches_float_log():
    import math

    for d in list(range(1, 70)) + [2**k for k in range(1, 40)] + [2**k + 1 for k in range(1, 40)]:
        exact = line_instance([0, d]).view(1).levels[0]
        assert exact == math.ceil(math.log2(d)) if d > 1 else exact == 0


def test_cluster_distance_same_supernode(w1):
    view = w1.view(2)
    cl = build_hierarchy(view)[0].clusterings[0]
    metric = ContractedMetric.of(view.dist_matrix(), cl.assignment)
    path = cluster_distance(view, cl, [(0, 1)], 0, 1, metric)
    assert path == ClusterPath(0, (0,), ())


def test_cluster_distance_two_singletons(w1):
    view = w1.view(1)
    cl = build_hierarchy(view)[0].clusterings[0]
    metric = ContractedMetric.of(view.dist_matrix(), cl.assignment)
    path = cluster_distance(view, cl, [], 0, 1, metric)
    assert path.distance == 1
    assert path.edges == ((0, 1),)


def test_cluster_distance_goes_through_middle():
    # Line a-b-c with d(a,b)=d(b,c)=1, d(a,c)=2: path {a}->{c} runs via b.
    inst = line_instance([0, 1, 2, 50])  # 4 terminals to keep pairs legal
    view = inst.view(2)
    cl = build_hierarchy(view)[0].clusterings[0]
    metric = ContractedMetric.of(view.dist_matrix(), cl.assignment)
    path = cluster_distance(view, cl, [], 0, 2, metric)
    assert path.distance == 2
    assert path.nodes == (0, 1, 2)
    assert path.edges == ((0, 1), (1, 2))


def hub_case():
    """Terminals at 200, 0, 1, 199 with terminals 2 and 3 in one cluster:
    cluster 1 reaches cluster 0 in 2 through the hub cluster 2, while its
    own cheapest edge to cluster 0 costs 200."""
    view = line_instance([200, 0, 1, 199]).view(2)
    cl = clustering_of((0, 1, 2, 2), view.levels)
    return view, cl, ContractedMetric.of(view.dist_matrix(), cl.assignment)


def test_cluster_distance_rejects_a_candidate_that_is_not_one_hop():
    # Cluster 0 is the smallest id on a shortest path from cluster 1
    # (D[1, 0] + D[0, 0] == 2), but its one-hop cost is 200, not 2.
    view, cl, metric = hub_case()
    path = cluster_distance(view, cl, [], 1, 0, metric)
    assert path == ClusterPath(2, (1, 2, 0), ((1, 2), (0, 3)))


def test_cluster_distance_walk_stalls_on_a_closure_below_every_path():
    # A closure entry below every real path leaves no hop to take.
    view, cl, metric = hub_case()
    D = metric.D.copy()
    D[1, 0] = D[0, 1] = 1
    bad = ContractedMetric(metric.ids, D)
    with pytest.raises(AssertionError, match="shortest-path walk stalled"):
        cluster_distance(view, cl, [], 1, 0, bad)


def test_cluster_distance_rejects_unknown_cluster(w1):
    view = w1.view(2)
    cl = build_hierarchy(view)[0].clusterings[0]
    metric = ContractedMetric.of(view.dist_matrix(), cl.assignment)
    with pytest.raises(ConfigError):
        cluster_distance(view, cl, [], 0, 99, metric)


def test_cluster_distance_rejects_a_contracted_id_outside_the_arrived_terminals():
    # A negative id would index from the end: (-1, 0) would merge terminal 5
    # with terminal 0.
    view = generate_instance(GeneratorSpec(kind="line-chain", n=3, seed=1)).view(3)
    cl = build_hierarchy(view)[0].clusterings[0]
    metric = ContractedMetric.of(view.dist_matrix(), cl.assignment)
    assert cluster_distance(view, cl, [(5, 0)], 0, 5, metric).distance == 0
    for pair in ((-1, 0), (0, -6), (6, 0), (0, 7)):
        with pytest.raises(ConfigError):
            cluster_distance(view, cl, [pair], 0, 5, metric)


def test_cluster_distance_path_invariants_and_oracle():
    import random

    rng = random.Random(5)
    for seed in range(8):
        inst = generate_instance(GeneratorSpec(kind="random-metric", n=4, seed=seed, scale=20))
        view = inst.view(4)
        T = view.num_terminals
        # Random clustering of the 8 terminals.
        labels = [rng.randrange(3) for _ in range(T)]
        anchor = {lab: min(k for k in range(T) if labels[k] == lab) for lab in set(labels)}
        assignment = tuple(anchor[lab] for lab in labels)
        cl = clustering_of(assignment, view.levels)
        metric = ContractedMetric.of(view.dist_matrix(), assignment)
        all_edges = list(itertools.combinations(range(T), 2))
        contracted = rng.sample(all_edges, 3)
        cids = sorted(set(assignment))
        for C1, C2 in itertools.combinations(cids, 2):
            path = cluster_distance(view, cl, contracted, C1, C2, metric)
            brute = brute_contracted_distance(view, assignment, contracted, C1, C2)
            assert path.distance == brute
            assert path.distance == sum(view.d(a, b) for a, b in path.edges)
            # Symmetry of the contracted metric.
            back = cluster_distance(view, cl, contracted, C2, C1, metric)
            assert back.distance == path.distance
        # Monotone under contraction: adding contracted edges never lengthens.
        for C1, C2 in itertools.combinations(cids, 2):
            d_more = cluster_distance(view, cl, all_edges[:6], C1, C2, metric).distance
            d_less = cluster_distance(view, cl, [], C1, C2, metric).distance
            assert d_more <= d_less


def test_cluster_distance_triangle_over_supernodes():
    inst = generate_instance(GeneratorSpec(kind="euclidean", n=3, seed=4, scale=100))
    view = inst.view(3)
    cl = build_hierarchy(view)[0].clusterings[0]
    cids = cl.cluster_ids
    metric = ContractedMetric.of(view.dist_matrix(), cl.assignment)
    for a, b, c in itertools.permutations(cids[:4], 3):
        dab = cluster_distance(view, cl, [], a, b, metric).distance
        dbc = cluster_distance(view, cl, [], b, c, metric).distance
        dac = cluster_distance(view, cl, [], a, c, metric).distance
        assert dac <= dab + dbc


def level_edges(view, cl, i):
    m = ContractedMetric.of(view.dist_matrix(), cl.assignment)
    return active_virtual_edges(m.D, m.ids, cl.cluster_level, i)[0]


def test_virtual_graph_thresholds(w1):
    # Two active singletons at distance 3 with i=1: 3 < 4 gives one edge.
    inst = line_instance([0, 3, 100, 1000])
    view = inst.view(1)
    cl = clustering_of((0, 1), view.levels)
    assert level_edges(view, cl, 1) == ((0, 1),)
    # Distance exactly 2^(i+1) gives no edge (strict inequality).
    inst4 = line_instance([0, 4])
    view4 = inst4.view(1)
    cl4 = clustering_of((0, 1), view4.levels)
    assert level_edges(view4, cl4, 1) == ()
    # Single active cluster: empty edge set.
    clw = clustering_of((0, 0), w1.view(1).levels)
    assert level_edges(w1.view(1), clw, 0) == ()


def test_build_hierarchy_w1(w1):
    h, vgraphs, metrics = build_hierarchy(w1.view(2))
    assert h.L == 2
    c1 = h.clustering(1)
    assert sorted(c1.members.values()) == [(0, 1), (2,), (3,)]
    # Level 1 merges nothing: dist(c,d) = 4 is not < 4.
    assert h.clustering(2).assignment == c1.assignment
    c3 = h.clustering(3)
    assert sorted(c3.members.values()) == [(0, 1), (2, 3)]
    # Aliasing above the top.
    assert h.clustering(10) is c3
    assert len(vgraphs) == h.L + 1
    assert len(metrics) == h.L + 2  # C_0 .. C_{L+1}: the top is carried too


def test_build_hierarchy_single_pair():
    inst = line_instance([0, 1])
    h, vgraphs, _ = build_hierarchy(inst.view(1))
    assert h.L == 0
    assert h.top.members == {0: (0, 1)}
    assert vgraphs == (((0, 1),),)


def test_build_hierarchy_needs_an_arrived_pair(w1):
    with pytest.raises(ConfigError, match="at least one arrived pair"):
        build_hierarchy(w1.view(0))


def test_refinement_basics(w1):
    view = w1.view(2)
    h = build_hierarchy(view)[0]
    triv, top = h.clusterings[0], h.top
    assert check_refinement(triv, triv)
    assert check_refinement(triv, top)
    a = clustering_of((0, 0, 2, 3), view.levels)  # {ab},{c},{d}
    b = clustering_of((0, 1, 0, 3), view.levels)  # {ac},{b},{d}
    assert not check_refinement(a, b)
    with pytest.raises(ConfigError):
        check_refinement(top, clustering_of((0, 1), w1.view(1).levels))


def test_hierarchy_invariants_on_random_instances():
    for kind in ("euclidean", "random-metric", "line-chain"):
        for seed in (0, 1):
            inst = generate_instance(GeneratorSpec(kind=kind, n=5, seed=seed, scale=60))
            prev = None
            for t in range(1, inst.n + 1):
                view = inst.view(t)
                h, vgraphs, _ = build_hierarchy(view)
                # C_i refines C_{i+1}; gap and co-clustering postconditions are
                # asserted inside build_hierarchy, refinement re-checked here.
                for i in range(h.L + 1):
                    assert check_refinement(h.clustering(i), h.clustering(i + 1))
                    # A level that merges nothing shares its predecessor's object.
                    merged = h.clustering(i + 1) is not h.clustering(i)
                    assert merged == (vgraphs[i] != ())
                top = h.top
                for u, v in view.demands:
                    assert top.assignment[u] == top.assignment[v]
                # Cross-arrival refinement at matching levels.
                if prev is not None:
                    for i in range(h.L + 2):
                        assert check_refinement(prev.clustering(i), h.clustering(i))
                prev = h


def test_cluster_gap_recomputed_independently():
    inst = generate_instance(GeneratorSpec(kind="random-metric", n=4, seed=3, scale=30))
    view = inst.view(4)
    h = build_hierarchy(view)[0]
    for i in range(h.L + 1):
        cl = h.clustering(i)
        act = [cid for cid in cl.cluster_ids if cl.cluster_level[cid] >= i]
        for c1, c2 in itertools.combinations(act, 2):
            d = brute_contracted_distance(view, cl.assignment, [], c1, c2)
            assert d >= 2**i


def test_hierarchy_deterministic(w1):
    h1, vgraphs1, _ = build_hierarchy(w1.view(2))
    h2, vgraphs2, _ = build_hierarchy(w1.view(2))
    assert dump_hierarchy(h1) == dump_hierarchy(h2)
    assert [c.assignment for c in h1.clusterings] == [c.assignment for c in h2.clusterings]
    assert vgraphs1 == vgraphs2


def test_contracted_metric_of_matches_reference():
    rng = random.Random(11)
    for kind in ("euclidean", "random-metric", "line-chain"):
        for seed in range(4):
            inst = generate_instance(GeneratorSpec(kind=kind, n=9, seed=seed, scale=200))
            dist = inst.view(9).dist_matrix()
            triv = ContractedMetric.of(dist, tuple(range(18)))
            assert triv.ids == tuple(range(18)) and triv.D is dist
            for groups in (1, 2, 5, 12, 18):
                assignment = random_assignment(rng, 18, groups)
                assert_matches_reference(ContractedMetric.of(dist, assignment), dist,
                                         assignment)


def test_contracted_metric_random_merge_orders():
    rng = random.Random(12)
    for seed in range(6):
        inst = generate_instance(GeneratorSpec(kind="random-metric", n=8, seed=seed,
                                               scale=100))
        dist = inst.view(8).dist_matrix()
        metric = ContractedMetric.trivial(dist)
        assignment = list(range(16))
        while len(metric.ids) > 1:
            # A random batch of pairs, some repeated, self-pairs or already joined.
            batch = [tuple(rng.sample(metric.ids, 2)) for _ in range(rng.randint(1, 3))]
            batch += batch[:1] + [(batch[0][1],) * 2]
            assert joined(metric, assignment, [(c, c) for c in batch[0]]) is metric
            metric = joined(metric, assignment, batch)
            for a, b in batch:
                ra, rb = assignment[a], assignment[b]
                lo, hi = min(ra, rb), max(ra, rb)
                assignment = [lo if c == hi else c for c in assignment]
            assert_matches_reference(metric, dist, assignment)


def test_level_metrics_follow_and_fall_back():
    inst = generate_instance(GeneratorSpec(kind="euclidean", n=6, seed=2, scale=100))
    view = inst.view(6)
    h, _, metrics = build_hierarchy(view)
    dist = view.dist_matrix()
    for cl, metric in zip(h.clusterings, level_metrics(dist, h.clusterings)):
        assert_matches_reference(metric, dist, cl.assignment)
    # A sequence that does not refine: top, then trivial, then top again.
    seq = [h.top, h.clusterings[0], h.top]
    for cl, metric in zip(seq, level_metrics(dist, seq)):
        assert_matches_reference(metric, dist, cl.assignment)
    # build_hierarchy carried the same metrics level to level.
    for i, metric in enumerate(metrics):
        assert_matches_reference(metric, dist, h.clustering(i).assignment)


def test_cluster_distance_level_metric_with_pins_matches_brute():
    rng = random.Random(13)
    for kind in ("euclidean", "random-metric", "line-chain"):
        inst = generate_instance(GeneratorSpec(kind=kind, n=6, seed=3, scale=50))
        view = inst.view(6)
        h, _, metrics = build_hierarchy(view)
        all_edges = list(itertools.combinations(range(12), 2))
        for i in range(h.L + 1):
            cl = h.clustering(i)
            pins = rng.sample(all_edges, rng.randint(0, 5))
            fresh = ContractedMetric.of(view.dist_matrix(), cl.assignment)
            for C1, C2 in itertools.combinations(cl.cluster_ids, 2):
                path = cluster_distance(view, cl, pins, C1, C2, metrics[i])
                assert path == cluster_distance(view, cl, pins, C1, C2, fresh)
                brute = brute_contracted_distance(view, cl.assignment, pins, C1, C2)
                assert path.distance == brute
                assert path.distance == sum(view.d(a, b) for a, b in path.edges)


def test_contracted_metric_near_max_dist():
    # Points on a line spanning MAX_DIST, with pairs at levels up to 62:
    # W + D sums come within two of 2^63, and merging must still not wrap.
    positions = [0, MAX_DIST, 1, MAX_DIST - 1, 2, 2**61, 3, 2**40]
    inst = line_instance(positions)
    view = inst.view(4)
    dist = view.dist_matrix()
    for assignment in ((0, 0, 2, 3, 4, 5, 6, 6), (0, 1, 1, 3, 4, 4, 6, 7),
                       (0, 1, 2, 3, 4, 5, 6, 7)):
        metric = ContractedMetric.of(dist, assignment)
        assert_matches_reference(metric, dist, assignment)
        cl = clustering_of(assignment, view.levels)
        for C1, C2 in itertools.combinations(cl.cluster_ids, 2):
            path = cluster_distance(view, cl, [], C1, C2, metric)
            assert path.distance == brute_contracted_distance(view, assignment, [], C1, C2)
            assert path.distance <= MAX_DIST
        path = cluster_distance(view, cl, [(0, 7)], 0, 6, metric)
        assert path.distance == brute_contracted_distance(view, assignment, [(0, 7)], 0, 6)
    h, _, metrics = build_hierarchy(view)
    for i in range(h.L + 1):
        assert_matches_reference(metrics[i], dist, h.clustering(i).assignment)


def test_contracted_weights_matches_brute():
    inst = generate_instance(GeneratorSpec(kind="euclidean", n=3, seed=8, scale=50))
    view = inst.view(3)
    assignment = (0, 0, 2, 2, 4, 4)
    ids, W = contracted_weights(view.dist_matrix(), assignment)
    assert ids == (0, 2, 4)
    for p, cp in enumerate(ids):
        for q, cq in enumerate(ids):
            if p == q:
                assert W[p, q] == 0
            else:
                mp = [k for k in range(6) if assignment[k] == cp]
                mq = [k for k in range(6) if assignment[k] == cq]
                assert W[p, q] == min(view.d(a, b) for a in mp for b in mq)
    D = floyd_warshall(W)
    assert (D <= W).all()


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(GENERATOR_KINDS), n=st.integers(1, 9),
       seed=st.integers(0, 100), lam=st.sampled_from((1, 2, 3, 6)))
def test_carried_metrics_match_reference(kind, n, seed, lam):
    # Every arrival after the first carries its metrics from the previous
    # arrival's; each, the top one included, must equal a fresh closure.
    inst = generate_instance(GeneratorSpec(kind=kind, n=n, seed=seed, scale=200))
    state = OnlineState(inst, lam)
    for pair in inst.demands:
        advance(state, pair)
        h = state.last_outcome.hierarchy
        dist = inst.view(state.t).dist_matrix()
        assert len(state.metrics) == h.L + 2
        for cl, metric in zip(h.clusterings, state.metrics):
            assert_matches_reference(metric, dist, cl.assignment)


def test_carried_metrics_equal_level_merged_ones():
    # Carried from the previous arrival and built from arrival zero,
    # build_hierarchy yields the same clusterings and the same arrays.
    inst = generate_instance(GeneratorSpec(kind="line-chain", n=12, seed=3))
    prev = ((NO_TERMINALS,), (NO_METRIC,), ())  # arrival zero's
    for t in range(1, inst.n + 1):
        view = inst.view(t)
        carried = build_hierarchy(view, prev)
        merged = build_hierarchy(view)
        assert [c.assignment for c in carried[0].clusterings] == \
               [c.assignment for c in merged[0].clusterings]
        assert carried[1] == merged[1]
        for a, b in zip(carried[2], merged[2], strict=True):
            assert a.ids == b.ids
            assert np.array_equal(a.D, b.D)
        prev = (carried[0].clusterings, carried[2], carried[1])


def assert_same_hierarchy(got, want):
    """Two build_hierarchy results hold equal clusterings, virtual edges and
    metrics."""
    assert got[0].L == want[0].L
    for a, b in zip(got[0].clusterings, want[0].clusterings, strict=True):
        assert a.assignment == b.assignment
        assert a.cluster_ids == b.cluster_ids
        assert a.members == b.members
        assert a.cluster_level == b.cluster_level
    assert got[1] == want[1]
    for a, b in zip(got[2], want[2], strict=True):
        assert a.ids == b.ids
        assert np.array_equal(a.D, b.D)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(GENERATOR_KINDS), n=st.integers(2, 12),
       seed=st.integers(0, 100), lam=st.sampled_from((1, 2, 3)))
def test_carried_hierarchy_equals_one_built_from_scratch(kind, n, seed, lam):
    # The online run passes each arrival's clusterings, metrics and virtual
    # edges to the next; the hierarchy it builds from them, through the
    # unchanged prefix and past it, is the one built with no previous arrival.
    inst = generate_instance(GeneratorSpec(kind=kind, n=n, seed=seed, scale=200))
    assert_carried_equals_scratch(inst, lam)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(graph_closure_instances(), st.integers(1, 3))
def test_carried_hierarchy_equals_one_built_from_scratch_on_graph_closures(inst, lam):
    # Weights {1, 2} put a new terminal's nearest distance on a level
    # threshold, where the prefix's nearest-distance rule is tightest.
    assert_carried_equals_scratch(inst, lam)


def assert_carried_equals_scratch(inst, lam):
    state = OnlineState(inst, lam)
    for pair in inst.demands:
        advance(state, pair)
        carried = (state.last_outcome.hierarchy, state.vgraphs, state.metrics)
        assert_same_hierarchy(carried, build_hierarchy(inst.view(state.t)))


generated_instances = st.builds(
    lambda kind, n, seed: generate_instance(GeneratorSpec(kind=kind, n=n, seed=seed, scale=200)),
    st.sampled_from(GENERATOR_KINDS), st.integers(1, 10), st.integers(0, 100))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.one_of(graph_closure_instances(), generated_instances))
def test_no_new_row_edge_below_the_new_terminals_nearest_distance(inst):
    # build_hierarchy skips the new rows on a prefix level whose threshold
    # is at most the least distance from a new terminal to any other one.
    # On every such level the new terminals are singletons of C_i, and the
    # metric, extended all the way, holds no new-row entry below 2^(i+1).
    prev = ((NO_TERMINALS,), (NO_METRIC,), ())
    for t in range(1, inst.n + 1):
        dist = inst.view(t).dist_matrix()
        T = 2 * t
        nearest = min(int(dist[u, v]) for u in (T - 2, T - 1) for v in range(T) if v != u)
        h, vgraphs, metrics = build_hierarchy(inst.view(t), prev)
        for i in range(h.L + 1):
            if level_threshold(i) > nearest:
                break
            cl = h.clustering(i)
            grown = prev[0][min(i, len(prev[0]) - 1)].grown(inst.view(t).levels)
            assert cl.assignment == grown.assignment
            assert_matches_reference(metrics[i], dist, cl.assignment)
            assert not clustering._new_row_edge(metrics[i], cl.cluster_level, i, 2, 0)
            rows = metrics[i].D[-2:].copy()
            rows[[0, 1], [-2, -1]] = MAX_DIST
            assert rows.min() >= level_threshold(i)
        prev = (h.clusterings, metrics, vgraphs)


def _searched_levels(monkeypatch):
    """The level of every active_virtual_edges call, in call order."""
    levels = []
    real = clustering.active_virtual_edges

    def counted(D, ids, cluster_level, i):
        levels.append(i)
        return real(D, ids, cluster_level, i)

    monkeypatch.setattr(clustering, "active_virtual_edges", counted)
    return levels


def _first_arrival(inst):
    """`prev` for the second arrival's build_hierarchy call."""
    first = build_hierarchy(inst.view(1))
    return first[0].clusterings, first[2], first[1]


def test_build_hierarchy_skips_the_levels_an_arrival_leaves_alone(monkeypatch):
    # Pair 1 (0, 2) merges at level 1 into a cluster of level 1. Pair 2
    # (6, 70) merges at level 6; terminal 2 sits within 2^3 of that cluster,
    # but the cluster is inactive from level 2 on. So levels 0-5 are the
    # first arrival's plus the two singletons (level 1 takes the previous H_1
    # and C_2), and only level 6 searches for H_6.
    inst = line_instance([0, 2, 6, 70])
    want, prev = build_hierarchy(inst.view(2)), _first_arrival(inst)
    searched = _searched_levels(monkeypatch)
    got = build_hierarchy(inst.view(2), prev)
    assert searched == [6] and got[0].L == 6
    assert got[1][1] == ((0, 1),)
    assert_same_hierarchy(got, want)


def test_build_hierarchy_searches_from_the_level_a_new_row_joins(monkeypatch):
    # Pair 1 (0, 64) merges at level 6. Terminal 2, at 8, is within 2^4 of
    # the active cluster 0, so levels 0-2 are left alone and the search
    # starts at level 3, where H_3 gains (0, 2).
    inst = line_instance([0, 64, 8, 72])
    want, prev = build_hierarchy(inst.view(2)), _first_arrival(inst)
    searched = _searched_levels(monkeypatch)
    got = build_hierarchy(inst.view(2), prev)
    assert searched == [3, 4, 5, 6]
    assert got[1][:4] == ((), (), (), ((0, 2), (1, 3)))
    assert_same_hierarchy(got, want)


def test_build_hierarchy_rejects_a_previous_level_that_does_not_refine():
    inst = generate_instance(GeneratorSpec(kind="euclidean", n=4, seed=1, scale=100))
    h, vgraphs, metrics = build_hierarchy(inst.view(3))
    # Claim the top clustering for every level of the previous arrival.
    prev = ((h.top,) * len(h.clusterings), (metrics[-1],) * len(metrics), vgraphs)
    with pytest.raises(AssertionError, match="does not refine"):
        build_hierarchy(inst.view(4), prev)


def test_build_hierarchy_rejects_active_clusters_closer_than_the_level(monkeypatch, w1):
    real = clustering.active_virtual_edges
    monkeypatch.setattr(clustering, "active_virtual_edges", lambda *a: (real(*a)[0], 0))
    with pytest.raises(AssertionError, match="active clusters too close at level 0"):
        build_hierarchy(w1.view(1))


def test_build_hierarchy_rejects_a_split_demand_pair(monkeypatch, w1):
    monkeypatch.setattr(clustering, "active_virtual_edges", lambda *a: ((), 1 << 62))
    with pytest.raises(AssertionError, match="demand pair split at the top clustering"):
        build_hierarchy(w1.view(1))


def test_extend_near_max_dist():
    # The positions of test_contracted_metric_near_max_dist: the two new
    # terminals sit at 3 and 2^40, so W + D sums come within two of 2^63.
    positions = [0, MAX_DIST, 1, MAX_DIST - 1, 2, 2**61, 3, 2**40]
    inst = line_instance(positions)
    old, new = inst.view(3).dist_matrix(), inst.view(4).dist_matrix()
    for assignment in ((0, 0, 2, 3, 4, 5), (0, 1, 1, 3, 4, 4), (0, 1, 0, 1, 0, 1),
                       (0, 1, 2, 3, 4, 5)):
        ext = ContractedMetric.of(old, assignment).extend(new, assignment)
        assert_matches_reference(ext, new, assignment + (6, 7))
        # Coarsened: terminal 6 joins terminal 4's cluster, 7 stays alone.
        coarse = assignment + (assignment[4], 7)
        metric = ext.coarsen(coarse)
        assert_matches_reference(metric, new, coarse)
        for C1, C2 in itertools.combinations(sorted(set(coarse)), 2):
            path = cluster_distance(inst.view(4), clustering_of(coarse, inst.view(4).levels), [],
                                    C1, C2, metric)
            assert path.distance == brute_contracted_distance(inst.view(4), coarse, [],
                                                              C1, C2)
            assert path.distance <= MAX_DIST


def test_extend_matches_reference():
    rng = random.Random(14)
    for kind in GENERATOR_KINDS:
        for seed in range(3):
            inst = generate_instance(GeneratorSpec(kind=kind, n=8, seed=seed, scale=300))
            for t in range(1, inst.n):
                old = inst.view(t).dist_matrix()
                new = inst.view(t + 1).dist_matrix()
                assignment = random_assignment(rng, 2 * t, rng.randint(1, 2 * t))
                ext = ContractedMetric.of(old, assignment).extend(new, assignment)
                assert_matches_reference(ext, new, assignment + (2 * t, 2 * t + 1))


@pytest.mark.parametrize("k", range(2, 13, 2))
def test_one_extension_over_many_arrivals_equals_one_per_arrival(k):
    # k new terminals at once, k/2 arrivals: more than two new rows take
    # extend past its first block of two rows. A deferred extension of an
    # unread one, and extend called on an unread one, start from its base.
    rng = random.Random(k)
    for kind in GENERATOR_KINDS:
        inst = generate_instance(GeneratorSpec(kind=kind, n=8, seed=k, scale=300))
        t0 = inst.n - k // 2
        assignment = random_assignment(rng, 2 * t0, rng.randint(1, 2 * t0))
        base = ContractedMetric.of(inst.view(t0).dist_matrix(), assignment)
        stepwise = deferred = base
        a = assignment
        for t in range(t0 + 1, inst.n + 1):
            dist = inst.view(t).dist_matrix()
            carried = deferred.extend(dist, a)
            stepwise = stepwise.extend(dist, a)
            deferred = clustering._Extension(deferred, dist, a)
            assert deferred.pending[0] is base and deferred.ids == stepwise.ids
            assert carried.ids == stepwise.ids and np.array_equal(carried.D, stepwise.D)
            a += (2 * t - 2, 2 * t - 1)
        whole = base.extend(dist, assignment)
        for m in (whole, deferred):
            assert m.ids == stepwise.ids
            assert np.array_equal(m.D, stepwise.D)
        assert_matches_reference(stepwise, dist, a)


def test_a_deferred_extension_releases_its_base_once_read():
    inst = generate_instance(GeneratorSpec(kind="euclidean", n=4, seed=2, scale=100))
    assignment = (0, 0, 2, 3)
    base = ContractedMetric.of(inst.view(2).dist_matrix(), assignment)
    ref = weakref.ref(base)
    ext = clustering._Extension(base, inst.view(3).dist_matrix(), assignment)
    del base
    # Another missing name is missing, as on any metric, and computes nothing.
    assert not hasattr(ext, "W") and ext.pending
    assert ref() is not None
    assert_matches_reference(ext, inst.view(3).dist_matrix(), assignment + (4, 5))
    assert ref() is None and ext.pending is None
    # A read extension is an ordinary base for the next arrival's.
    later = clustering._Extension(ext, inst.view(4).dist_matrix(), assignment + (4, 5))
    assert later.pending[0] is ext
    assert_matches_reference(later, inst.view(4).dist_matrix(), assignment + (4, 5, 6, 7))


def _counting(monkeypatch, name):
    calls = []
    original = getattr(ContractedMetric, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(ContractedMetric, name, counted)
    return calls


def test_level_metrics_follow_the_previous_arrival(monkeypatch):
    inst = generate_instance(GeneratorSpec(kind="euclidean", n=8, seed=4, scale=100))
    h7 = build_hierarchy(inst.view(7))[0]
    h8 = build_hierarchy(inst.view(8))[0]
    old = inst.view(7).dist_matrix()
    dist = inst.view(8).dist_matrix()
    prev = (h7.clusterings, tuple(level_metrics(old, h7.clusterings)))
    extends = _counting(monkeypatch, "extend")
    fresh = _counting(monkeypatch, "of")
    metrics = list(level_metrics(dist, h8.clusterings, prev))
    for cl, metric in zip(h8.clusterings, metrics, strict=True):
        assert_matches_reference(metric, dist, cl.assignment)
    # Every metric read, one extension per distinct previous metric at most.
    assert extends and not fresh
    assert len(extends) <= len(set(map(id, prev[1])))


def test_level_metrics_fall_back_when_the_previous_arrival_does_not_refine(monkeypatch):
    inst = generate_instance(GeneratorSpec(kind="euclidean", n=8, seed=4, scale=100))
    h7 = build_hierarchy(inst.view(7))[0]
    h8 = build_hierarchy(inst.view(8))[0]
    old = inst.view(7).dist_matrix()
    dist = inst.view(8).dist_matrix()
    # A previous arrival claiming its top clustering at every level refines
    # none of the levels below this arrival's top.
    top = tuple(level_metrics(old, (h7.top,)))
    prev = ((h7.top,) * len(h7.clusterings), top * len(h7.clusterings))
    fresh = _counting(monkeypatch, "of")
    metrics = list(level_metrics(dist, h8.clusterings, prev))
    assert fresh  # the trivial C_0 starts over
    for cl, metric in zip(h8.clusterings, metrics, strict=True):
        assert_matches_reference(metric, dist, cl.assignment)


# ---------------------------------------------------------------------------
# Fast paths against their slow references.
# ---------------------------------------------------------------------------

def reference_contraction(assignment, cluster_edges):
    """Canonical assignment with the clusters of each edge merged: a
    union-find over every cluster id, one find per terminal."""
    parent = {cid: cid for cid in assignment}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in cluster_edges:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return tuple(find(cid) for cid in assignment)


@st.composite
def partitions_and_edges(draw):
    """(canonical assignment, terminal levels, edges between its cluster ids);
    the edges repeat pairs and include self-pairs."""
    T = 2 * draw(st.integers(1, 8))
    labels = draw(st.lists(st.integers(0, T - 1), min_size=T, max_size=T))
    first = {}
    assignment = tuple(first.setdefault(lab, k) for k, lab in enumerate(labels))
    levels = tuple(draw(st.lists(st.integers(0, 63), min_size=T, max_size=T)))
    cids = sorted(set(assignment))
    pair = st.tuples(st.sampled_from(cids), st.sampled_from(cids))
    edges = draw(st.lists(pair, max_size=6))
    edges += draw(st.lists(st.sampled_from(edges), max_size=3)) if edges else []
    return assignment, levels, edges


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(partitions_and_edges())
def test_contract_matches_a_clustering_built_from_scratch(case):
    assignment, levels, edges = case
    got = clustering_of(assignment, levels).contract(edges)
    want = clustering_of(reference_contraction(assignment, edges), levels)
    assert got.assignment == want.assignment
    assert got.cluster_ids == want.cluster_ids
    assert got.members == want.members
    assert got.cluster_level == want.cluster_level
    assert contract_clustering(clustering_of(assignment, levels), edges) == want.assignment


@st.composite
def edge_lists(draw):
    """Edges between small ids, with self-pairs, repeats and reversed pairs."""
    ids = st.integers(0, draw(st.integers(1, 12)))
    edges = draw(st.lists(st.tuples(ids, ids), max_size=12))
    again = draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    return edges + [pair[::-1] if draw(st.booleans()) else pair for pair in again]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(edge_lists())
def test_union_find_roots_are_least_ids_of_bfs_components(edges):
    adjacent = {}
    for a, b in edges:
        adjacent.setdefault(a, set()).add(b)
        adjacent.setdefault(b, set()).add(a)
    least = {}
    for start in adjacent:
        if start not in least:
            component, frontier = {start}, [start]
            while frontier:
                frontier = [y for x in frontier for y in adjacent[x] - component]
                component.update(frontier)
            least.update(dict.fromkeys(component, min(component)))
    first_touch = list(dict.fromkeys(x for edge in edges for x in edge))
    uf = UnionFind(edges)
    roots = uf.roots()
    assert roots is uf.parent
    assert list(roots.items()) == [(x, least[x]) for x in first_touch]


@st.composite
def merge_batches(draw):
    """(dist, assignment, pairs): a generated metric, a clustering of its
    terminals and a shuffled batch of pairs between its cluster ids. The
    pairs chain each drawn group in a drawn order (a-b, b-c), so groups have
    many members, and add self-pairs, repeats and reversed pairs."""
    spec = GeneratorSpec(kind=draw(st.sampled_from(GENERATOR_KINDS)), n=draw(st.integers(2, 8)),
                         seed=draw(st.integers(0, 30)), scale=draw(st.sampled_from((3, 50, 1000))))
    dist = generate_instance(spec).view(spec.n).dist_matrix()
    T = len(dist)
    labels = draw(st.lists(st.integers(0, T - 1), min_size=T, max_size=T))
    first = {}
    assignment = tuple(first.setdefault(lab, k) for k, lab in enumerate(labels))
    cids = draw(st.permutations(sorted(set(assignment))))
    group = draw(st.lists(st.integers(0, 3), min_size=len(cids), max_size=len(cids)))
    pairs = []
    for g in range(4):
        chain = [c for c, h in zip(cids, group) if h == g]
        pairs += zip(chain, chain[1:])
    pairs += [(c, c) for c in draw(st.lists(st.sampled_from(cids), max_size=2))]
    if pairs:
        pairs += [(b, a) for a, b in draw(st.lists(st.sampled_from(pairs), max_size=3))]
    return dist, assignment, draw(st.permutations(pairs))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(merge_batches())
def test_merge_folds_a_batch_like_the_reference_and_one_pair_at_a_time(case):
    dist, assignment, pairs = case
    metric = ContractedMetric.of(dist, assignment)
    assert metric.coarsen(assignment) is metric
    merged = joined(metric, assignment, pairs)
    want = reference_contraction(assignment, pairs)
    assert_matches_reference(merged, dist, want)
    # One pair at a time, each endpoint named by its cluster's id so far.
    one_by_one, current = metric, assignment
    for a, b in pairs:
        one_by_one = joined(one_by_one, current, [(current[a], current[b])])
        current = reference_contraction(current, [(current[a], current[b])])
    assert one_by_one.ids == merged.ids
    assert np.array_equal(one_by_one.D, merged.D)
    coarse = metric.coarsen(want)
    assert coarse.ids == merged.ids and np.array_equal(coarse.D, merged.D)
    assert (coarse is metric) == (want == assignment)


def test_merge_of_two_groups_near_max_dist():
    # Two sides at MAX_DIST from each other, a line inside each. Merging one
    # group per side in one call pivots twice, and each pivot adds two
    # MAX_DIST entries: 2^63 - 2, which must not wrap.
    side = np.abs(np.array([0, 1, 3])[:, None] - np.array([0, 1, 3])[None])
    dist = np.full((6, 6), MAX_DIST, dtype=np.int64)
    dist[0::2, 0::2] = side
    dist[1::2, 1::2] = side + side.T  # 0, 2, 6 apart
    validate_metric(dist)
    metric = ContractedMetric.trivial(dist)
    for pairs in ([(0, 2), (1, 3)], [(4, 2), (5, 1), (3, 1)]):
        merged = joined(metric, tuple(range(6)), pairs)
        want = reference_contraction(tuple(range(6)), pairs)
        assert len(set(want)) == 4 - (len(pairs) == 3)
        assert_matches_reference(merged, dist, want)
        assert merged.D.min() >= 0 and merged.D.max() == MAX_DIST


def reference_active_virtual_edges(D, ids, cluster_level, i):
    """active_virtual_edges over the upper-triangle index pairs of the active
    positions, one pair at a time."""
    act = [k for k, cid in enumerate(ids) if cluster_level[cid] >= i]
    if len(act) < 2:
        return (), 1 << 62
    x, y = np.triu_indices(len(act), k=1)
    a = np.array(act)
    dxy = D[a[x], a[y]]
    close = np.flatnonzero(dxy < min(1 << (i + 1), 1 << 62))
    return tuple((ids[act[x[k]]], ids[act[y[k]]]) for k in close), int(dxy.min())


@st.composite
def contracted_distances(draw):
    """(D, ids, cluster levels, i): a symmetric zero-diagonal D over up to six
    clusters, entries small or near MAX_DIST, levels at either end of 0..63."""
    K = draw(st.integers(0, 6))
    entry = st.one_of(st.integers(1, 64), st.integers(MAX_DIST - 4, MAX_DIST))
    D = np.zeros((K, K), dtype=np.int64)
    for p, q in itertools.combinations(range(K), 2):
        D[p, q] = D[q, p] = draw(entry)
    ids = tuple(sorted(draw(st.sets(st.integers(0, 40), min_size=K, max_size=K))))
    level = st.one_of(st.integers(0, 6), st.integers(59, 63))
    cluster_level = {cid: draw(level) for cid in ids}
    return D, ids, cluster_level, draw(level)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(contracted_distances())
def test_active_virtual_edges_matches_the_pairwise_reference(case):
    assert active_virtual_edges(*case) == reference_active_virtual_edges(*case)


def test_active_virtual_edges_edge_cases():
    D = np.array([[0, MAX_DIST, 3], [MAX_DIST, 0, 5], [3, 5, 0]], dtype=np.int64)
    ids = (0, 2, 5)
    # Zero or one active cluster: no edge and the 2^62 gap.
    assert active_virtual_edges(D, ids, {0: 0, 2: 0, 5: 0}, 1) == ((), 1 << 62)
    assert active_virtual_edges(D, ids, {0: 63, 2: 0, 5: 0}, 1) == ((), 1 << 62)
    # Above level 60 the threshold is clamped to 2^62, so MAX_DIST is an edge.
    assert active_virtual_edges(D, ids, {0: 61, 2: 62, 5: 0}, 61) == (((0, 2),), MAX_DIST)
    assert active_virtual_edges(D, ids, {0: 63, 2: 63, 5: 63}, 63) == (
        ((0, 2), (0, 5), (2, 5)), 3)
    assert active_virtual_edges(np.zeros((0, 0), dtype=np.int64), (), {}, 0) == ((), 1 << 62)


def reference_realize_hop(dist, members_p, members_q):
    """The cheapest original edge between two member lists, ties to the least
    normalized (min, max) pair, over the full np.ix_ block."""
    sub = dist[np.ix_(members_p, members_q)]
    w = int(sub.min())
    ends = ((members_p[x], members_q[y]) for x, y in np.argwhere(sub == w))
    return w, min((min(a, b), max(a, b)) for a, b in ends)


def reference_cluster_distance(view, assignment, contracted_by, C1, C2, metric):
    """cluster_distance with a union-find over every cluster, one find per
    terminal for the member lists of every super-node, a position dict, and
    a walk on the merged clustering's one-hop weights from contracted_weights
    (the smallest id q with W[ci, q] + D[q, dst] == rest)."""
    if C1 not in assignment or C2 not in assignment:
        raise ConfigError(f"cluster {C1 if C1 not in assignment else C2} not in clustering")
    T = view.num_terminals
    uf = UnionFind()
    for a, b in contracted_by:
        if not (0 <= a < T and 0 <= b < T):
            raise ConfigError("contracted_by touches a terminal that has not arrived")
        uf.union(assignment[a], assignment[b])
    src, dst = uf.find(C1), uf.find(C2)
    if src == dst:
        return ClusterPath(0, (src,), ())
    dist = view.dist_matrix()
    merged = tuple(uf.find(cid) for cid in assignment)
    m = metric.coarsen(merged)
    ids, W = contracted_weights(dist, merged)
    assert ids == m.ids
    D = m.D
    pos = {cid: k for k, cid in enumerate(m.ids)}
    members = {cid: [] for cid in m.ids}
    for k, cid in enumerate(merged):
        members[cid].append(k)
    si, di = pos[src], pos[dst]
    total = int(D[si, di])
    to_dst = D[:, di]
    nodes, edges, ci, rest = [src], [], si, total
    while ci != di:
        hit = np.flatnonzero(W[ci] + to_dst == rest)
        hit = hit[hit != ci]
        qi = int(hit[0])
        w, edge = reference_realize_hop(dist, members[m.ids[ci]], members[m.ids[qi]])
        assert w == int(W[ci, qi])
        rest -= w
        edges.append(edge)
        nodes.append(m.ids[qi])
        ci = qi
    assert rest == 0
    return ClusterPath(total, tuple(nodes), tuple(edges))


@st.composite
def realization_cases(draw):
    """(view, clustering, contracted_by, level metric): a hierarchy level of a
    generated prefix and terminal pairs that cross clusters, lie inside one,
    are self-pairs, repeat a pair or join two clusters already joined."""
    kind = draw(st.sampled_from(GENERATOR_KINDS))
    n = draw(st.integers(1, 5))
    spec = GeneratorSpec(kind=kind, n=n, seed=draw(st.integers(0, 30)),
                         scale=draw(st.sampled_from((3, 20, 1000))))
    view = generate_instance(spec).view(draw(st.integers(1, n)))
    h, _, metrics = build_hierarchy(view)
    i = draw(st.integers(0, h.L + 1))
    cl = h.clustering(i)
    terminal = st.integers(0, view.num_terminals - 1)
    pairs = draw(st.lists(st.tuples(terminal, terminal), max_size=5))

    def member(k):
        return draw(st.sampled_from(cl.members[cl.assignment[k]]))

    extra = [(k, k) for k in draw(st.lists(terminal, max_size=2))]
    extra += [(k, member(k)) for k in draw(st.lists(terminal, max_size=2))]
    if pairs:
        again = draw(st.lists(st.sampled_from(pairs), max_size=3))
        extra += again + [(member(b), member(a)) for a, b in again]
    return view, cl, draw(st.permutations(pairs + extra)), metrics[i]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(realization_cases())
def test_cluster_distance_matches_the_reference(case):
    view, cl, contracted_by, metric = case
    fresh = ContractedMetric.of(view.dist_matrix(), cl.assignment)
    for C1, C2 in itertools.product(cl.cluster_ids, repeat=2):
        for m in (fresh, metric):
            path = cluster_distance(view, cl, contracted_by, C1, C2, m)
            assert path == reference_cluster_distance(view, cl.assignment, contracted_by,
                                                      C1, C2, m)
            assert all(type(x) is int for e in path.edges for x in e)
            assert type(path.distance) is int

