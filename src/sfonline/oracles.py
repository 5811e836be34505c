"""Reference solvers: exact optimum and the baseline algorithms.

The exact optimum is the cheapest partition of the demand pairs, summing one
minimum spanning tree per group. In the terminal-only metric model this is
exact: every connected component of an optimal forest touches whole pairs
only (a terminal is in a component iff its mate is, since pairs must be
connected), so the optimum equals the best pairs-partition with each group
connected as cheaply as possible, and with all vertices being terminals the
cheapest connector of a group is its MST. A subset DP over pair bitmasks
(Dreyfus and Wagner, 1971) finds the best partition from the 2^k - 1 group
MSTs in O(3^k) steps, and gives the optimum of every prefix on the way.

The offline-gluttonous forest spans the algorithm's own hierarchy of every
prefix. It reads them from the online run's states as each arrival lands,
so a hierarchy is built once for both.
"""

from __future__ import annotations

import dataclasses

from .clustering import (  # noqa: F401 (build_hierarchy is in perfbench/spans.py's table)
    ContractedMetric,
    active_virtual_edges,
    build_hierarchy,
    cluster_distance,
    terminal_level,
)
from .errors import ConfigError, OracleLimitError
from .forest import recourse_diff, select_spanning_forest
from .metric import Instance, InstanceView

DEFAULT_ORACLE_LIMIT = 9


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
    msts = [(0, frozenset())] + [prim_mst(d, [x for p in _pairs(G) for x in (2 * p, 2 * p + 1)])
                                 for G in range(1, full + 1)]
    mst = [c for c, _ in msts]

    # f(S) = min over G ∋ min(S) of mst(G) + f(S - G), on (cost, growth string).
    cost = [0] * (full + 1)
    choice = [0] * (full + 1)
    rgs = [()] * (full + 1)
    for S in range(1, full + 1):
        low = S & -S
        rest = S ^ low
        best, best_g = mst[S], S
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            G = sub | low
            c = mst[G] + cost[S ^ G]
            if c < best:
                best, best_g = c, G
            elif c == best and (_growth_string(S, G, rgs[S ^ G])
                                < _growth_string(S, best_g, rgs[S ^ best_g])):
                best_g = G
        cost[S], choice[S] = best, best_g
        rgs[S] = _growth_string(S, best_g, rgs[S ^ best_g])

    groups = []
    S = full
    while S:
        groups.append(choice[S])
        S ^= choice[S]
    forest = frozenset().union(*(msts[G][1] for G in groups))
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
    realized there: extending a metric leaves the old entries of W and D as
    they are and the new ids are the largest, so the smallest-id walk takes
    the same hops over the same members.
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

    `assignment` is canonical (cluster id = least member) and `metric` is
    its contracted metric, carried across arrivals: each arrival extends it
    by the two new singletons and each purchase merges it. A subclass's
    `_connect` buys what the new pair `u`, `v` needs.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.t = 0
        self.assignment: list[int] = []  # terminal -> cluster id (min member)
        self.bought: set = set()
        self.metric: ContractedMetric | None = None

    def _buy(self, path, cids):
        """Buy `path`'s edges and merge the clusters `cids` into the least."""
        self.bought.update(path.edges)
        root = min(cids)
        gone = set(cids) - {root}
        self.assignment = [root if c in gone else c for c in self.assignment]
        self.metric = self.metric.merge([(root, c) for c in gone])

    def step(self, pair) -> BaselineStep:
        t = self.t + 1
        if t > self.instance.n or tuple(pair) != self.instance.demands[t - 1]:
            raise ConfigError(f"pair {pair} is not demand #{t}")
        self.t = t
        view = self.instance.view(t)
        dist = view.dist_matrix()
        self.metric = (ContractedMetric.trivial(dist) if self.metric is None
                       else self.metric.extend(dist, self.assignment))
        u, v = pair
        self.assignment.extend([u, v])
        before = frozenset(self.bought)
        self._connect(view, u, v)
        after = frozenset(self.bought)
        ins, dels = recourse_diff(before, after)
        cost = sum(view.d(a, b) for a, b in after)
        return BaselineStep(t, after, cost, ins, dels)


class OnlineGluttonousState(_CarriedBaseline):
    """Appendix-style no-recourse baseline: a persistent clustering, merged
    level by level whenever two active clusters come within 2^(i+1), buying
    the realized shortest path of every merge. `level` carries each
    cluster's level (its highest member's) across arrivals."""

    def __init__(self, instance: Instance):
        super().__init__(instance)
        self.level: dict[int, int] = {}

    def _connect(self, view, u, v):
        self.level[u] = self.level[v] = terminal_level(view, u)
        for i in range(max(self.level.values()) + 1):
            while True:
                hits, _ = active_virtual_edges(self.metric.D, self.metric.ids, self.level, i)
                if not hits:
                    break
                c1, c2 = hits[0]  # c1 < c2
                path = cluster_distance(view, tuple(self.assignment), (), c1, c2, self.metric)
                self._buy(path, (c1, c2))
                self.level[c1] = max(self.level[c1], self.level.pop(c2))


class GreedyOnlineState(_CarriedBaseline):
    """Classic greedy: buy a shortest path between the two components of the
    new pair in the solution-contracted metric; never remove anything. The
    clustering is the components of the bought edges. The new pair's two
    terminals are singletons, so they are never connected before they arrive.
    """

    def _connect(self, view, u, v):
        path = cluster_distance(view, tuple(self.assignment), (), u, v, self.metric)
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
