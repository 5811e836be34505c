"""Reference solvers: exact optimum and the baseline algorithms.

The exact optimum enumerates partitions of the demand pairs and sums one
minimum spanning tree per group. In the terminal-only metric model this is
exact: every connected component of an optimal forest touches whole pairs
only (a terminal is in a component iff its mate is, since pairs must be
connected), so the optimum equals the best pairs-partition with each group
connected as cheaply as possible, and with all vertices being terminals the
cheapest connector of a group is its MST. Enumeration runs in canonical
restricted-growth order; Bell(9) = 21147 partitions keep the default limit
of 9 pairs instant.
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


def prim_mst(view: InstanceView, terminals):
    """(cost, edges) of the MST over `terminals` in the submetric.

    Canonical vertex order: start at the smallest id, break key ties toward
    the smaller vertex and the smaller parent. Cost is unique regardless.
    """
    terms = sorted(terminals)
    if len(terms) <= 1:
        return 0, frozenset()
    in_tree = {terms[0]}
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
        in_tree.add(y)
        for z in key:
            d = view.d(y, z)
            if d < key[z] or (d == key[z] and y < parent[z]):
                key[z] = d
                parent[z] = y
    return cost, frozenset(edges)


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


@dataclasses.dataclass(frozen=True)
class OptimumResult:
    cost: int
    partition: tuple  # tuple of tuples of 0-based pair indices
    forest: frozenset  # union of per-group MST edges


def exact_optimum(view: InstanceView, limit: int = DEFAULT_ORACLE_LIMIT) -> OptimumResult:
    """Exact Steiner forest optimum of the current prefix.

    Ties between partitions go to the first one in enumeration order.
    """
    t = view.t
    if t < 1:
        raise ConfigError("exact optimum needs at least one arrived pair")
    if t > limit:
        raise OracleLimitError(f"{t} pairs exceed the oracle limit of {limit}")
    mst_cache: dict[frozenset, tuple[int, frozenset]] = {}

    def group_cost(block):
        key = frozenset(block)
        hit = mst_cache.get(key)
        if hit is None:
            terms = [x for p in block for x in (2 * p, 2 * p + 1)]
            hit = prim_mst(view, terms)
            mst_cache[key] = hit
        return hit

    best = None
    best_blocks = None
    for blocks in pair_partitions(t):
        cost = sum(group_cost(blk)[0] for blk in blocks)
        if best is None or cost < best:
            best = cost
            best_blocks = [list(blk) for blk in blocks]
    forest = frozenset().union(*(group_cost(blk)[1] for blk in best_blocks))
    partition = tuple(tuple(blk) for blk in best_blocks)
    return OptimumResult(int(best), partition, forest)


@dataclasses.dataclass(frozen=True)
class OfflineForestResult:
    edges: frozenset
    cost: int
    level_counts: tuple  # |C_i| - |C_{i+1}| for i = 0..L


def offline_gluttonous_forest(view: InstanceView) -> OfflineForestResult:
    """Offline forest from the hierarchy: canonical spanning forests, each
    virtual edge realized by a shortest path in the plain contracted metric
    (no pin contraction, no inheritance)."""
    h = build_hierarchy(view)
    edges = set()
    counts = []
    for i in range(h.L + 1):
        f_inh, f_rest = select_spanning_forest(h.virtual_edges(i), ())
        cl = h.clustering(i)
        for c1, c2 in f_inh + f_rest:
            path = cluster_distance(view, cl.assignment, (), c1, c2, h.metric(i))
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
