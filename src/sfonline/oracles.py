"""Reference solvers: exact optimum and the baseline algorithms.

The exact optimum is the cheapest partition of the demand pairs, summing one
minimum spanning tree per group. In the terminal-only metric model this is
exact: every connected component of an optimal forest touches whole pairs
only (a terminal is in a component iff its mate is, since pairs must be
connected), so the optimum equals the best pairs-partition with each group
connected as cheaply as possible, and with all vertices being terminals the
cheapest connector of a group is its MST. One Prim run vectorized over the
pair subsets gives the 2^k - 1 group MST costs, a subset DP over pair bitmasks
(Dreyfus and Wagner, 1971) the best partition in O(3^k) steps and the optimum
of every prefix on the way, and prim_mst the edges of the chosen groups.

The offline-gluttonous forest spans the algorithm's own hierarchy of every
prefix. It reads them from the online run's states as each arrival lands,
so a hierarchy is built once for both.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .clustering import (  # noqa: F401 (build_hierarchy is in perfbench/spans.py's table)
    Clustering,
    ContractedMetric,
    active_virtual_edges,
    build_hierarchy,
    cluster_distance,
    terminal_levels,
)
from .errors import ConfigError, OracleLimitError
from .forest import recourse_diff, select_spanning_forest
from .metric import MAX_DIST, Instance, InstanceView

DEFAULT_ORACLE_LIMIT = 9
MST_BLOCK = 2048  # pair subsets per vectorized Prim run, so memory is O(MST_BLOCK k)


def prim_mst(d, terminals):
    """(cost, edges) of the MST over the nonempty `terminals` of the metric
    `d` (a list of rows of Python ints, so the cost is exact).

    Canonical vertex order: start at the smallest id, break key ties toward
    the smaller vertex and the smaller parent. Cost is unique regardless.
    """
    rest = sorted(terminals)
    root = rest.pop(0)
    key = [d[root][y] for y in rest]
    parent = [root] * len(rest)
    cost, edges = 0, []
    while rest:
        j = key.index(min(key))
        cost += key.pop(j)
        p, y = parent.pop(j), rest.pop(j)
        edges.append((p, y) if p < y else (y, p))
        row = d[y]
        for i, z in enumerate(rest):
            if row[z] < key[i] or (row[z] == key[i] and y < parent[i]):
                key[i], parent[i] = row[z], y
    return cost, frozenset(edges)


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
    forest: frozenset  # union of per-group MST edges
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
    d = view.dist_matrix().tolist()  # Python ints, so no sum wraps
    full = (1 << t) - 1
    mst = _subset_mst_costs(d)

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
    forest = frozenset().union(*(prim_mst(d, [x for p in _pairs(G) for x in (2 * p, 2 * p + 1)])[1]
                                 for G in groups))
    prefix = tuple(cost[(1 << s) - 1] for s in range(1, t + 1))
    return OptimumResult(cost[full], tuple(tuple(_pairs(G)) for G in groups), forest, prefix)


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

    A level whose clustering is the previous prefix's plus the two new
    terminals as singletons reuses the previous prefix's path for an edge it
    realized there: extending a metric leaves the old entries of D as they
    are and the new ids are the largest, so the smallest-id walk tries and
    takes the same hops over the same members.
    """
    out = []
    # Level -> (the previous prefix's level-i assignment with the next two
    # terminals appended as singletons, {edge: path} realized there).
    prev_paths = {}
    for state in states:
        view = state.instance.view(state.t)
        h, vgraphs, metrics = state.last_outcome.hierarchy, state.vgraphs, state.metrics
        T = view.num_terminals
        edges = set()
        counts = []
        paths = {}
        for i in range(h.L + 1):
            f_inh, f_rest = select_spanning_forest(vgraphs[i], ())
            cl = h.clustering(i)
            grown, prev = prev_paths.get(i, (None, {}))
            reuse = prev if cl.assignment == grown else {}
            realized = {}
            for c1, c2 in f_inh + f_rest:
                path = reuse.get((c1, c2))
                if path is None:
                    path = cluster_distance(view, cl.assignment, (), c1, c2, metrics[i]).edges
                realized[c1, c2] = path
                edges.update(path)
            paths[i] = (cl.assignment + (T, T + 1), realized)
            counts.append(len(cl.cluster_ids) - len(h.clustering(i + 1).cluster_ids))
        prev_paths = paths
        cost = sum(view.d(a, b) for a, b in edges)
        out.append(OfflineForestResult(frozenset(edges), cost, tuple(counts)))
    return tuple(out)


@dataclasses.dataclass(frozen=True)
class BaselineStep:
    t: int
    edges: frozenset
    cost: int
    insertions: int
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
    across arrivals: each arrival grows them by the two new singletons, and
    each purchase contracts `cl` and coarsens `metric` to it. A subclass's
    `_connect` buys what the new pair `u`, `v` needs.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.t = 0
        self.levels = terminal_levels(instance.view(instance.n))  # fixed per terminal
        self.cl = Clustering.from_parts((), {}, {})
        self.bought: set = set()
        self.metric: ContractedMetric | None = None

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
        self.metric = (ContractedMetric.trivial(dist) if self.metric is None
                       else self.metric.extend(dist, self.cl.assignment))
        self.cl = self.cl.grown(self.levels[:2 * t])
        u, v = pair
        before = frozenset(self.bought)
        self._connect(view, u, v)
        after = frozenset(self.bought)
        ins, dels = recourse_diff(before, after)
        cost = sum(view.d(a, b) for a, b in after)
        return BaselineStep(t, after, cost, ins, dels)


class OnlineGluttonousState(_CarriedBaseline):
    """Appendix-style no-recourse baseline: a persistent clustering, merged
    level by level whenever two active clusters come within 2^(i+1), buying
    the realized shortest path of every merge."""

    def _connect(self, view, u, v):
        for i in range(max(self.cl.cluster_level.values()) + 1):
            while hits := active_virtual_edges(self.metric.D, self.metric.ids,
                                               self.cl.cluster_level, i)[0]:
                c1, c2 = hits[0]  # c1 < c2
                path = cluster_distance(view, self.cl.assignment, (), c1, c2, self.metric)
                self._buy(path, (c1, c2))


class GreedyOnlineState(_CarriedBaseline):
    """Classic greedy: buy a shortest path between the two components of the
    new pair in the solution-contracted metric; never remove anything. The
    clustering is the components of the bought edges. The new pair's two
    terminals are singletons, so they are never connected before they arrive.
    """

    def _connect(self, view, u, v):
        path = cluster_distance(view, self.cl.assignment, (), u, v, self.metric)
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
