"""Reference solvers: exact optimum and the baseline algorithms.

The exact optimum is the cheapest partition of the demand pairs, summing one
minimum spanning tree per group. In the terminal-only metric model this is
exact: every connected component of an optimal forest touches whole pairs
only (a terminal is in a component iff its mate is, since pairs must be
connected), so the optimum equals the best pairs-partition with each group
connected as cheaply as possible, and with all vertices being terminals the
cheapest connector of a group is its MST. One Prim run vectorized over the
pair subsets gives the 2^k - 1 group MST costs, and a subset DP over pair
bitmasks (Dreyfus and Wagner, 1971) the best partition in O(3^k) steps and
the optimum of every prefix on the way.

The offline-gluttonous forest spans the algorithm's own hierarchy of every
prefix. It reads them from the online run's states as each arrival lands,
so a hierarchy is built once for both. It re-walks only the paths an
arrival could have shortened (Demetrescu and Italiano's locality).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .clustering import (  # noqa: F401 (build_hierarchy is in perfbench/spans.py's table)
    NO_METRIC,
    NO_TERMINALS,
    active_virtual_edges,
    build_hierarchy,
    cluster_distance,
)
from .errors import ConfigError, OracleLimitError
from .forest import recourse_diff, select_spanning_forest
from .metric import MAX_DIST, Instance, InstanceView

DEFAULT_ORACLE_LIMIT = 9
MST_BLOCK = 2048  # pair subsets per vectorized Prim run, so memory is O(MST_BLOCK k)


def _pairs(mask):
    """Pair indices in the bitmask `mask`, increasing."""
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


def _subset_mst_costs(dist):
    """MST cost of every pair subset G = 0 .. 2^t - 1 of terminals 0 .. 2t - 1:
    Prim on MST_BLOCK subsets at once, one numpy row each. `pen` is 0 at the
    vertices a subset's tree still lacks and the sentinel MAX_DIST + 1
    elsewhere, so a finished row picks the sentinel, counted 0. Each cost is
    summed in Python ints, as 2t - 1 edges can sum past int64."""
    d = np.asarray(dist, dtype=np.int64)
    T, out = len(d), MAX_DIST + 1
    costs = [0]
    for lo in range(1, 1 << (T // 2), MST_BLOCK):
        G = np.arange(lo, min(lo + MST_BLOCK, 1 << (T // 2)))
        rows = np.arange(len(G))
        pen = np.where((G[:, None] >> np.arange(T) // 2) & 1, 0, out)
        j = pen.argmin(axis=1)  # each subset's least vertex, the root of its tree
        key, steps = np.full(pen.shape, out), []
        for _ in range(T - 1):
            pen[rows, j] = out
            key = np.maximum(np.minimum(key, d[j]), pen)
            j = key.argmin(axis=1)
            steps.append(np.where(key[rows, j] == out, 0, key[rows, j]))
        costs.extend(map(sum, np.array(steps).T.tolist()))
    return costs


def _growth_string(S, G, sub):
    """Restricted-growth string of the partition {G} + `sub`'s of S, G ∋ min(S).

    Positions are S's pairs in increasing order: G's get 0, the others 1 plus
    their label in `sub`, the string of S minus G.
    """
    it = iter(sub)
    return tuple(0 if G >> p & 1 else next(it) + 1 for p in _pairs(S))


@dataclasses.dataclass(frozen=True)
class OptimumResult:
    cost: int
    partition: tuple  # tuple of tuples of 0-based pair indices
    prefix_costs: tuple  # prefix_costs[s - 1] is the optimum of the first s pairs


def exact_optimum(view: InstanceView, limit: int = DEFAULT_ORACLE_LIMIT) -> OptimumResult:
    """Exact Steiner forest optimum of the current prefix (and, in
    `prefix_costs`, of every shorter one). Ties between partitions go to the
    smallest restricted-growth string, the first in canonical enumeration."""
    t = view.t
    if t < 1:
        raise ConfigError("exact optimum needs at least one arrived pair")
    if t > limit:
        raise OracleLimitError(f"{t} pairs exceed the oracle limit of {limit}")
    full = (1 << t) - 1
    mst = _subset_mst_costs(view.dist_matrix())

    # f(S) = min over G ∋ min(S) of mst(G) + f(S - G), on (cost, growth string).
    cost, choice, rgs = [0] * (full + 1), [0] * (full + 1), [()] * (full + 1)
    for S in range(1, full + 1):
        low = S & -S
        rest = S ^ low
        best, best_g, best_rgs = mst[S], S, None  # the incumbent's string, built at a tie
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            G = sub | low
            c = mst[G] + cost[S ^ G]
            if c < best:
                best, best_g, best_rgs = c, G, None
            elif c == best:
                best_rgs = best_rgs or _growth_string(S, best_g, rgs[S ^ best_g])
                cand = _growth_string(S, G, rgs[S ^ G])
                if cand < best_rgs:
                    best_g, best_rgs = G, cand
        cost[S], choice[S] = best, best_g
        rgs[S] = best_rgs or _growth_string(S, best_g, rgs[S ^ best_g])

    groups = []
    S = full
    while S:
        groups.append(choice[S])
        S ^= choice[S]
    prefix = tuple(cost[(1 << s) - 1] for s in range(1, t + 1))
    return OptimumResult(cost[full], tuple(tuple(_pairs(G)) for G in groups), prefix)


@dataclasses.dataclass(frozen=True)
class OfflineForestResult:
    edges: frozenset
    cost: int
    level_counts: tuple  # |C_i| - |C_{i+1}| for i = 0..L


def offline_gluttonous_forest(states) -> tuple[OfflineForestResult, ...]:
    """Offline forest of every prefix t = 1..n, index t - 1: canonical
    spanning forests of the prefix's hierarchy, each virtual edge realized by
    a shortest path in the plain contracted metric (no pin contraction, no
    inheritance).

    `states` is an online run's walk, `iter_online(instance, lam)`; any
    lambda gives the same hierarchies. Each state's hierarchy, virtual edges
    and metrics are read before the next state is asked for.

    On a level whose old terminals keep the previous prefix's partition, an
    edge reuses the previous prefix's path unless a cluster holding a new
    terminal and more than one member (an old cluster that took in u or v,
    or {u, v}) lies on a shortest path between its clusters. This is exact:
    old distances shrink only through such a cluster, as a new singleton
    never shortens a path (ContractedMetric.extend); every candidate the
    smallest-id walk tests lies on a shortest path, so every D entry and
    one-hop weight it reads is unchanged, and it tries the new, largest ids
    last.
    """
    out = []
    prev_paths = {}  # level -> (the previous prefix's assignment, {edge: path} there)
    for state in states:
        view = state.instance.view(state.t)
        h, vgraphs, metrics = state.last_outcome.hierarchy, state.vgraphs, state.metrics
        T = view.num_terminals
        edges = set()
        counts = []
        paths = {}
        for i in range(h.L + 1):
            f_inh, f_rest = select_spanning_forest(vgraphs[i], ())
            cl, ids, D = h.clustering(i), metrics[i].ids, metrics[i].D
            old, prev = prev_paths.get(i, (None, {}))
            reuse = prev if cl.assignment[:T - 2] == old else {}
            block = [ids.index(c) for c in {cl.assignment[T - 2], cl.assignment[T - 1]}
                     if len(cl.members[c]) > 1]
            realized = {}
            for c1, c2 in f_inh + f_rest:
                path = reuse.get((c1, c2))
                p1, p2 = ids.index(c1), ids.index(c2)
                if path is None or any(D[p1, x] + D[x, p2] == D[p1, p2] for x in block):
                    path = cluster_distance(view, cl, (), c1, c2, metrics[i]).edges
                realized[c1, c2] = path
                edges.update(path)
            paths[i] = (cl.assignment, realized)
            counts.append(len(cl.cluster_ids) - len(h.clustering(i + 1).cluster_ids))
        prev_paths = paths
        out.append(OfflineForestResult(frozenset(edges), view.cost(edges), tuple(counts)))
    return tuple(out)


@dataclasses.dataclass(frozen=True)
class BaselineStep:
    t: int
    edges: frozenset
    cost: int
    deletions: int


@dataclasses.dataclass
class BaselineTrace:
    name: str
    steps: list

    def final_cost(self) -> int:
        return self.steps[-1].cost if self.steps else 0

    @property
    def deletions_total(self) -> int:
        return sum(s.deletions for s in self.steps)


class _CarriedBaseline:
    """No-recourse baseline over a persistent clustering of the arrived
    terminals: it only buys edges and merges clusters.

    `cl` is that Clustering and `metric` its contracted metric, both carried
    across arrivals from the empty NO_TERMINALS and NO_METRIC: each arrival
    grows them by the two new singletons, and each purchase contracts `cl`
    and coarsens `metric` to it. A subclass's `_connect` buys what the new
    pair `u`, `v` needs.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.t = 0
        self.cl = NO_TERMINALS
        self.bought: set = set()
        self.metric = NO_METRIC

    def _buy(self, path, cids):
        """Buy `path`'s edges and merge the clusters `cids` into the least."""
        self.bought.update(path.edges)
        self.cl = self.cl.contract(zip(cids, cids[1:]))
        self.metric = self.metric.coarsen(self.cl.assignment)

    def step(self, pair) -> BaselineStep:
        t = self.t + 1
        if t > self.instance.n or tuple(pair) != self.instance.demands[t - 1]:
            raise ConfigError(f"pair {pair} is not demand #{t}")
        self.t = t
        view = self.instance.view(t)
        dist = view.dist_matrix()
        self.metric = self.metric.extend(dist, self.cl.assignment)
        self.cl = self.cl.grown(view.levels)
        u, v = pair
        before = frozenset(self.bought)
        self._connect(view, u, v)
        after = frozenset(self.bought)
        _, dels = recourse_diff(before, after)
        return BaselineStep(t, after, view.cost(after), dels)


class OnlineGluttonousState(_CarriedBaseline):
    """Appendix-style no-recourse baseline: a persistent clustering, merged
    level by level whenever two active clusters come within 2^(i+1), buying
    the realized shortest path of every merge."""

    def _connect(self, view, u, v):
        for i in range(max(self.cl.cluster_level.values()) + 1):
            while hits := active_virtual_edges(self.metric.D, self.metric.ids,
                                               self.cl.cluster_level, i)[0]:
                c1, c2 = hits[0]  # c1 < c2
                path = cluster_distance(view, self.cl, (), c1, c2, self.metric)
                self._buy(path, (c1, c2))


class GreedyOnlineState(_CarriedBaseline):
    """Classic greedy: buy a shortest path between the two components of the
    new pair in the solution-contracted metric; never remove anything. The
    clustering is the components of the bought edges. The new pair's two
    terminals are singletons, so they are never connected before they arrive.
    """

    def _connect(self, view, u, v):
        path = cluster_distance(view, self.cl, (), u, v, self.metric)
        self._buy(path, path.nodes)


def run_baseline(instance: Instance, which: str) -> BaselineTrace:
    if which == "online-gluttonous":
        state = OnlineGluttonousState(instance)
    elif which == "greedy":
        state = GreedyOnlineState(instance)
    else:
        raise ConfigError(f"unknown baseline {which!r}")
    steps = [state.step(pair) for pair in instance.demands]
    return BaselineTrace(which, steps)
