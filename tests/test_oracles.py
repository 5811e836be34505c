import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfonline import oracles
from sfonline.clustering import ContractedMetric, build_hierarchy, cluster_distance
from sfonline.errors import ConfigError, OracleLimitError
from sfonline.forest import select_spanning_forest
from sfonline.metric import (
    GENERATOR_KINDS,
    MAX_DIST,
    GeneratorSpec,
    Instance,
    generate_instance,
)
from sfonline.oracles import (
    GreedyOnlineState,
    OfflineForestResult,
    OnlineGluttonousState,
    exact_optimum,
    offline_gluttonous_forest,
    run_baseline,
)
from sfonline.trace import iter_online
from sfonline.unionfind import UnionFind

from conftest import graph_closure_instances, line_instance, uniform_instance
from test_clustering import assert_matches_reference


def brute_optimum_cost(view):
    """Independent oracle: minimum cost over ALL edge subsets that connect
    every pair. Exponential; keep to n <= 3."""
    T = view.num_terminals
    edges = list(itertools.combinations(range(T), 2))
    best = None
    for mask in range(1 << len(edges)):
        chosen = [edges[k] for k in range(len(edges)) if mask >> k & 1]
        cost = sum(view.d(a, b) for a, b in chosen)
        if best is not None and cost >= best:
            continue
        uf = UnionFind()
        for a, b in chosen:
            uf.union(a, b)
        if all(uf.connected(u, v) for u, v in view.demands):
            best = cost
    return best


def feasible(edges, demands):
    uf = UnionFind()
    for a, b in edges:
        uf.union(a, b)
    return all(uf.connected(u, v) for u, v in demands)


def pair_partitions(k: int):
    """All partitions of range(k) in restricted-growth-string order."""
    if k == 0:
        yield []
        return
    a = [0] * k

    def rec(j, used):
        if j == k:
            blocks = [[] for _ in range(used)]
            for idx, b in enumerate(a):
                blocks[b].append(idx)
            yield blocks
            return
        for b in range(used + 1):
            a[j] = b
            yield from rec(j + 1, used + (1 if b == used else 0))

    yield from rec(1, 1)  # a[0] = 0 fixed


def reference_prim_mst(view, terminals):
    """(cost, edges) of the MST over `terminals`, read through `view.d`:
    Prim from the smallest id, key ties broken toward the smaller vertex and
    the smaller parent."""
    terms = sorted(terminals)
    if len(terms) <= 1:
        return 0, frozenset()
    key = {}
    parent = {}
    for y in terms[1:]:
        key[y] = view.d(terms[0], y)
        parent[y] = terms[0]
    edges = []
    cost = 0
    while key:
        y = min(key, key=lambda v: (key[v], v))
        k = key.pop(y)
        p = parent.pop(y)
        cost += k
        edges.append((p, y) if p < y else (y, p))
        for z in key:
            d = view.d(y, z)
            if d < key[z] or (d == key[z] and y < parent[z]):
                key[z] = d
                parent[z] = y
    return cost, frozenset(edges)


def enumerated_optimum(view):
    """Reference oracle: (cost, partition) by enumerating every partition of
    the pairs, one MST per group. Ties go to the first partition in
    enumeration order, i.e. the smallest restricted-growth string."""
    mst_cache = {}

    def group_cost(block):
        key = frozenset(block)
        hit = mst_cache.get(key)
        if hit is None:
            hit = mst_cache[key] = reference_prim_mst(
                view, [x for p in block for x in (2 * p, 2 * p + 1)])[0]
        return hit

    best = best_blocks = None
    for blocks in pair_partitions(view.t):
        cost = sum(group_cost(blk) for blk in blocks)
        if best is None or cost < best:
            best, best_blocks = cost, [list(blk) for blk in blocks]
    return best, tuple(tuple(blk) for blk in best_blocks)


def test_pair_partitions_counts_are_bell_numbers():
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}
    for k, want in bell.items():
        assert sum(1 for _ in pair_partitions(k)) == want


@pytest.mark.parametrize("kind", ["euclidean", "random-metric", "line-chain"])
@pytest.mark.parametrize("scale", [2, 3, 5, 1000])
def test_subset_dp_matches_enumeration(kind, scale):
    # Small scales put many partitions at the optimum, so this checks the
    # tie-break as well as the cost.
    for seed in range(4):
        inst = generate_instance(GeneratorSpec(kind=kind, n=8, seed=seed, scale=scale))
        costs = []
        for t in range(1, 9):
            res = exact_optimum(inst.view(t))
            cost, partition = enumerated_optimum(inst.view(t))
            assert (res.cost, res.partition) == (cost, partition), (seed, t)
            assert res.prefix_costs == tuple(costs) + (cost,)
            costs.append(cost)


def prim_subset_mst_costs(inst):
    """Reference for `_subset_mst_costs`: one `reference_prim_mst` call per
    pair subset of the whole instance."""
    t, view = inst.n, inst.view(inst.n)
    return [0] + [reference_prim_mst(view, [x for p in range(t) if G >> p & 1
                                            for x in (2 * p, 2 * p + 1)])[0]
                  for G in range(1, 1 << t)]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(GENERATOR_KINDS), scale=st.sampled_from([1, 2, 3, 1000]),
       seed=st.integers(0, 10**6), t=st.integers(1, 9))
def test_subset_mst_costs_match_prim_mst(kind, scale, seed, t):
    # Scales 1 to 3 make most distances equal, so Prim's ties come up often.
    inst = generate_instance(GeneratorSpec(kind=kind, n=t, seed=seed, scale=scale))
    assert oracles._subset_mst_costs(inst.dist) == prim_subset_mst_costs(inst)


@pytest.mark.parametrize("block", [1, 3, 7, 64])
def test_subset_mst_costs_across_block_boundaries(monkeypatch, block):
    # 2^7 - 1 and 2^9 - 1 subsets split unevenly into these blocks; the
    # uniform MAX_DIST metric has trees whose cost passes 2^63.
    cases = [generate_instance(GeneratorSpec(kind="random-metric", n=7, seed=2, scale=3)),
             uniform_instance(9)]
    want = [oracles._subset_mst_costs(inst.dist) for inst in cases]
    monkeypatch.setattr(oracles, "MST_BLOCK", block)
    for inst, costs in zip(cases, want):
        assert oracles._subset_mst_costs(inst.dist) == costs == prim_subset_mst_costs(inst)
    assert max(want[1]) == 17 * MAX_DIST


def test_prim_mst_on_line():
    # The reference Prim and the vectorized subset costs on a hand-checked line.
    inst = line_instance([0, 1, 10, 14])
    cost, edges = reference_prim_mst(inst.view(2), [0, 1, 2, 3])
    assert cost == 14  # 1 + 9 + 4
    assert edges == frozenset([(0, 1), (1, 2), (2, 3)])
    assert reference_prim_mst(inst.view(2), [2]) == (0, frozenset())
    assert oracles._subset_mst_costs(inst.dist) == [0, 1, 4, 14]


def test_exact_optimum_single_pair(w1):
    res = exact_optimum(w1.view(1))
    assert res.cost == 1
    assert res.partition == ((0,),)


def test_exact_optimum_w1(w1):
    res = exact_optimum(w1.view(2))
    assert res.cost == 5  # separate groups beat the cost-14 merged tree
    assert res.partition == ((0,), (1,))


def test_exact_optimum_separated_pairs():
    inst = line_instance([0, 1, 1000, 1001])
    res = exact_optimum(inst.view(2))
    assert res.cost == 2
    assert res.partition == ((0,), (1,))


def test_exact_optimum_prefers_merging_when_cheaper():
    # Pairs interleaved tightly: one group costs less than two.
    inst = line_instance([0, 100, 1, 101])
    res = exact_optimum(inst.view(2))
    merged = reference_prim_mst(inst.view(2), [0, 1, 2, 3])[0]
    assert res.cost == min(merged, 200)
    assert res.cost == merged == 101  # 1 + 99 + 1 on positions 0,1,100,101


def test_exact_optimum_matches_exhaustive_search():
    for kind, seed in [("euclidean", 0), ("random-metric", 1), ("line-chain", 2)]:
        inst = generate_instance(GeneratorSpec(kind=kind, n=3, seed=seed, scale=25))
        for t in (1, 2, 3):
            view = inst.view(t)
            assert exact_optimum(view).cost == brute_optimum_cost(view)


def test_exact_optimum_sums_past_int64():
    # Every distance is MAX_DIST, so the optimum keeps the pairs apart and
    # from t = 3 on its cost no longer fits in int64.
    n = 9
    dist = np.full((2 * n, 2 * n), MAX_DIST, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    demands = tuple((2 * p, 2 * p + 1) for p in range(n))
    res = exact_optimum(Instance(n=n, dist=dist, demands=demands, label="uniform").view(n))
    assert res.prefix_costs == tuple(t * MAX_DIST for t in range(1, n + 1))
    assert res.partition == tuple((p,) for p in range(n))


def test_exact_optimum_monotone_in_t():
    inst = generate_instance(GeneratorSpec(kind="euclidean", n=6, seed=3))
    costs = [exact_optimum(inst.view(t)).cost for t in range(1, 7)]
    assert all(a <= b for a, b in zip(costs, costs[1:]))


def test_exact_optimum_limit():
    inst = generate_instance(GeneratorSpec(kind="euclidean", n=4, seed=0))
    with pytest.raises(OracleLimitError):
        exact_optimum(inst.view(4), limit=3)


def test_exact_optimum_needs_an_arrived_pair(w1):
    with pytest.raises(ConfigError, match="at least one arrived pair"):
        exact_optimum(w1.view(0))


def test_offline_gluttonous_single_pair():
    inst = line_instance([0, 1])
    (res,) = offline_gluttonous_forest(iter_online(inst, 1))
    assert res.edges == frozenset([(0, 1)])
    assert res.cost == 1
    assert res.level_counts == (1,)


def test_offline_gluttonous_w1(w1):
    res = offline_gluttonous_forest(iter_online(w1, 1))[1]
    assert res.cost == 5
    assert res.edges == frozenset([(0, 1), (2, 3)])
    # Level counts: one merge at level 0, none at 1, one at 2.
    assert res.level_counts == (1, 0, 1)


def test_offline_gluttonous_feasible_on_random_views():
    inst = generate_instance(GeneratorSpec(kind="random-metric", n=6, seed=7, scale=50))
    forests = offline_gluttonous_forest(iter_online(inst, 3))
    for t in (1, 3, 6):
        view = inst.view(t)
        res = forests[t - 1]
        assert feasible(res.edges, view.demands)
        assert res.cost >= exact_optimum(view).cost


def reference_offline_forest(view):
    """The offline forest of one prefix, from a hierarchy built with no
    `prev`: every level's metric merged up from the trivial one."""
    h, vgraphs, metrics = build_hierarchy(view)
    edges = set()
    counts = []
    for i in range(h.L + 1):
        f_inh, f_rest = select_spanning_forest(vgraphs[i], ())
        cl = h.clustering(i)
        for c1, c2 in f_inh + f_rest:
            edges.update(cluster_distance(view, cl, (), c1, c2, metrics[i]).edges)
        counts.append(len(cl.cluster_ids) - len(h.clustering(i + 1).cluster_ids))
    cost = sum(view.d(a, b) for a, b in edges)
    return OfflineForestResult(frozenset(edges), cost, tuple(counts))


@pytest.mark.parametrize("kind", ["euclidean", "random-metric", "line-chain"])
def test_offline_forest_carried_matches_per_prefix_reference(monkeypatch, kind):
    # Fed from the online run's live states, the offline forest is the
    # per-prefix reference at every prefix, and reusing the previous
    # prefix's paths skips some realizations.
    inst = generate_instance(GeneratorSpec(kind=kind, n=12, seed=5))
    calls = []

    def counted(*args):
        calls.append(args)
        return cluster_distance(*args)

    monkeypatch.setattr(oracles, "cluster_distance", counted)
    forests = offline_gluttonous_forest(iter_online(inst, lam=4))
    assert len(calls) < sum(sum(res.level_counts) for res in forests)
    assert len(forests) == inst.n
    for t, res in enumerate(forests, 1):
        assert res == reference_offline_forest(inst.view(t))


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("n", [3, 6, 12, 20])
def test_offline_forest_matches_the_reference_at_every_prefix(kind, n):
    # Whole results, edges included, over seeds 1-5: random-metric n=20
    # seed 4 has prefixes where only the {u, v} cluster lies on a shortest
    # path between two old clusters, so reusing there would be wrong.
    for seed in range(1, 6):
        inst = generate_instance(GeneratorSpec(kind=kind, n=n, seed=seed))
        forests = offline_gluttonous_forest(iter_online(inst, lam=2))
        assert forests == tuple(reference_offline_forest(inst.view(t))
                                for t in range(1, n + 1))


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(graph_closure_instances(), st.integers(1, 3))
def test_offline_forest_matches_the_reference_on_graph_closures(inst, lam):
    forests = offline_gluttonous_forest(iter_online(inst, lam))
    assert forests == tuple(reference_offline_forest(inst.view(t))
                            for t in range(1, inst.n + 1))


def test_online_gluttonous_first_arrival():
    inst = line_instance([0, 1])
    state = OnlineGluttonousState(inst)
    step = state.step((0, 1))
    assert step.edges == frozenset([(0, 1)])
    assert step.cost == 1 and step.deletions == 0


def test_run_baseline_rejects_an_unknown_name(w1):
    with pytest.raises(ConfigError, match="unknown baseline 'nope'"):
        run_baseline(w1, "nope")


def test_online_gluttonous_w1(w1):
    tr = run_baseline(w1, "online-gluttonous")
    assert tr.steps[0].edges == frozenset([(0, 1)])
    # Arrival 2 merges (c,d) at level 2 buying the cost-4 edge.
    assert tr.steps[1].edges == frozenset([(0, 1), (2, 3)])
    assert tr.final_cost() == 5
    assert tr.deletions_total == 0


def test_online_gluttonous_feasible_prefixes():
    inst = generate_instance(GeneratorSpec(kind="euclidean", n=6, seed=9))
    tr = run_baseline(inst, "online-gluttonous")
    for step in tr.steps:
        assert feasible(step.edges, inst.view(step.t).demands)
        assert step.deletions == 0


BASELINE_STATES = {"online-gluttonous": OnlineGluttonousState, "greedy": GreedyOnlineState}


@pytest.mark.parametrize("which", BASELINE_STATES)
def test_a_baseline_refuses_a_pair_out_of_order(w1, which):
    state = BASELINE_STATES[which](w1)
    with pytest.raises(ConfigError, match=r"pair \(2, 3\) is not demand #1"):
        state.step((2, 3))
    state.step((0, 1))
    state.step((2, 3))
    with pytest.raises(ConfigError, match="is not demand #3"):
        state.step((0, 1))  # past the last demand


@pytest.mark.parametrize("which,kind", [
    pytest.param(which, kind, id=kind if which == "online-gluttonous" else f"{which}-{kind}")
    for which in BASELINE_STATES for kind in ("euclidean", "random-metric", "line-chain")])
def test_online_gluttonous_carries_its_metric(monkeypatch, which, kind):
    # After every step of run_baseline, the metric carried across arrivals
    # is the contracted metric of the clustering, built from the trivial one.
    inst = generate_instance(GeneratorSpec(kind=kind, n=10, seed=3))
    cls = BASELINE_STATES[which]
    step = cls.step
    checked = []

    def checked_step(state, pair):
        out = step(state, pair)
        dist = inst.view(state.t).dist_matrix()
        assert_matches_reference(state.metric, dist, state.cl.assignment)
        fresh = ContractedMetric.of(dist, state.cl.assignment)
        assert state.metric.ids == fresh.ids
        assert np.array_equal(state.metric.D, fresh.D)
        checked.append(state.t)
        return out

    monkeypatch.setattr(cls, "step", checked_step)
    run_baseline(inst, which)
    assert checked == list(range(1, inst.n + 1))


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_greedy_clustering_is_the_components_of_its_bought_edges(kind):
    inst = generate_instance(GeneratorSpec(kind=kind, n=10, seed=4))
    state = GreedyOnlineState(inst)
    for t, pair in enumerate(inst.demands, 1):
        state.step(pair)
        root = UnionFind(state.bought).roots()
        assert state.cl.assignment == tuple(root.get(k, k) for k in range(2 * t))


def test_greedy_w1(w1):
    tr = run_baseline(w1, "greedy")
    assert tr.final_cost() == 5
    assert tr.deletions_total == 0


def test_cross_oracle_no_method_beats_optimum():
    from sfonline.trace import run_online

    for seed in (0, 1):
        inst = generate_instance(GeneratorSpec(kind="euclidean", n=5, seed=seed))
        opt = {t: exact_optimum(inst.view(t)).cost for t in range(1, 6)}
        main = run_online(inst, lam=2)
        for out in main.arrivals:
            assert out.snapshot.cost >= opt[out.t]
        for name in ("online-gluttonous", "greedy"):
            tr = run_baseline(inst, name)
            for step in tr.steps:
                assert step.cost >= opt[step.t]
        for t, res in enumerate(offline_gluttonous_forest(iter_online(inst, 2)), 1):
            assert res.cost >= opt[t]
