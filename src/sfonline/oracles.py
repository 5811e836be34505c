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
"""

from __future__ import annotations

import dataclasses

from .clustering import (
    ContractedMetric,
    active_virtual_edges,
    build_hierarchy,
    cluster_distance,
    terminal_level,
)
from .errors import ConfigError, OracleLimitError
from .forest import recourse_diff, select_spanning_forest
from .metric import Instance, InstanceView
from .unionfind import UnionFind

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


def offline_gluttonous_forest(view: InstanceView) -> OfflineForestResult:
    """Offline forest from the hierarchy: canonical spanning forests, each
    virtual edge realized by a shortest path in the plain contracted metric
    (no pin contraction, no inheritance)."""
    h, vgraphs, metrics = build_hierarchy(view)
    edges = set()
    counts = []
    for i in range(h.L + 1):
        f_inh, f_rest = select_spanning_forest(vgraphs[i], ())
        cl = h.clustering(i)
        for c1, c2 in f_inh + f_rest:
            path = cluster_distance(view, cl.assignment, (), c1, c2, metrics[i])
            edges.update(path.edges)
        counts.append(len(cl.cluster_ids) - len(h.clustering(i + 1).cluster_ids))
    cost = sum(view.d(a, b) for a, b in edges)
    return OfflineForestResult(frozenset(edges), cost, tuple(counts))


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


class OnlineGluttonousState:
    """Appendix-style no-recourse baseline: a persistent clustering, merged
    level by level whenever two active clusters come within 2^(i+1), buying
    the realized shortest path of every merge."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.t = 0
        self.assignment: list[int] = []  # terminal -> cluster id (min member)
        self.levels: list[int] = []
        self.bought: set = set()

    def _merge_pass(self, view):
        metric = ContractedMetric.of(view.dist_matrix(), self.assignment)
        lvl = {}
        for k, cid in enumerate(self.assignment):
            lvl[cid] = max(lvl.get(cid, 0), self.levels[k])
        for i in range(max(self.levels) + 1):
            while True:
                hits, _ = active_virtual_edges(metric.D, metric.ids, lvl, i)
                if not hits:
                    break
                c1, c2 = hits[0]  # c1 < c2
                path = cluster_distance(view, tuple(self.assignment), (), c1, c2, metric)
                self.bought.update(path.edges)
                self.assignment = [c1 if c == c2 else c for c in self.assignment]
                lvl[c1] = max(lvl[c1], lvl.pop(c2))
                metric = metric.merge([(c1, c2)])

    def step(self, pair) -> BaselineStep:
        t = self.t + 1
        if t > self.instance.n or tuple(pair) != self.instance.demands[t - 1]:
            raise ConfigError(f"pair {pair} is not demand #{t}")
        self.t = t
        view = self.instance.view(t)
        u, v = pair
        self.assignment.extend([u, v])
        lev = terminal_level(view, u)
        self.levels.extend([lev, lev])
        before = frozenset(self.bought)
        self._merge_pass(view)
        after = frozenset(self.bought)
        ins, dels = recourse_diff(before, after)
        cost = sum(view.d(a, b) for a, b in after)
        return BaselineStep(t, after, cost, ins, dels)


class GreedyOnlineState:
    """Classic greedy: buy a shortest path between the two components of the
    new pair in the solution-contracted metric; never remove anything."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.t = 0
        self.bought: set = set()

    def step(self, pair) -> BaselineStep:
        t = self.t + 1
        if t > self.instance.n or tuple(pair) != self.instance.demands[t - 1]:
            raise ConfigError(f"pair {pair} is not demand #{t}")
        self.t = t
        view = self.instance.view(t)
        u, v = pair
        uf = UnionFind(range(view.num_terminals))
        for a, b in self.bought:
            uf.union(a, b)
        before = frozenset(self.bought)
        if not uf.connected(u, v):
            assignment = tuple(uf.find(k) for k in range(view.num_terminals))
            path = cluster_distance(view, assignment, (), uf.find(u), uf.find(v))
            self.bought.update(path.edges)
        after = frozenset(self.bought)
        ins, dels = recourse_diff(before, after)
        cost = sum(view.d(a, b) for a, b in after)
        return BaselineStep(t, after, cost, ins, dels)


def run_baseline(instance: Instance, which: str) -> BaselineTrace:
    if which == "online-gluttonous":
        state = OnlineGluttonousState(instance)
    elif which == "greedy":
        state = GreedyOnlineState(instance)
    else:
        raise ConfigError(f"unknown baseline {which!r}")
    steps = [state.step(pair) for pair in instance.demands]
    return BaselineTrace(which, steps)
