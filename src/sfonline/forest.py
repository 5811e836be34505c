"""The online low-recourse forest: inheritance, pinning, and snapshots.

Per arrival the algorithm rebuilds the clustering hierarchy (carrying the
previous arrival's contracted metrics forward), carries over as
many virtual edges as possible from the previous arrival (an edge survives if
its endpoint clusters are still separate, and its realized original edges are
reused verbatim), completes each level's spanning forest giving priority to
the carried-over edges, and realizes the fresh edges by shortest paths in the
pin-contracted cluster graph. A 1/lambda fraction of every purchased path is
pinned permanently; paths shorter than lambda edges accumulate in a buffer
that pins its single cheapest edge once it reaches lambda entries.

All iteration orders are canonical (levels ascending, edges by endpoint ids)
so a rerun reproduces every snapshot and ledger row exactly. Each level asserts
the certifier's forest facts, and an AssertionError names the certify.csv check.
"""

from __future__ import annotations

import dataclasses

from .certify import check_feasible, forest_faults, inherited_clustering, refinement_fault
from .clustering import (  # noqa: F401 (contract_clustering is in perfbench/spans.py's table)
    NO_METRIC,
    NO_TERMINALS,
    Clustering,
    Hierarchy,
    build_hierarchy,
    cluster_distance,
    contract_clustering,
    level_threshold,
)
from .errors import ConfigError
from .metric import Instance
from .unionfind import UnionFind

Edge = tuple  # (a, b) terminal ids, a < b


def recourse_diff(prev, now) -> tuple[int, int]:
    """(insertions, deletions) between two edge sets."""
    prev, now = set(prev), set(now)
    return len(now - prev), len(prev - now)


@dataclasses.dataclass
class VirtualEdge:
    """One chosen virtual edge of the level-i spanning forest at arrival t."""

    level: int
    c1: int
    c2: int
    inherited: bool
    parent: tuple[int, int] | None  # endpoints of the parent edge at t-1
    eorig: frozenset
    created_at: int  # arrival whose pinning pass realized eorig

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.c1, self.c2)


class PinnedSet:
    """Growing forest of permanently pinned original edges."""

    def __init__(self):
        self._pin_arrival: dict[Edge, int] = {}  # in pinning order
        self._uf = UnionFind()

    def add(self, e: Edge, t: int) -> None:
        if e in self._pin_arrival:
            raise AssertionError(f"edge {e} pinned twice (internal bug)")
        if not self._uf.union(e[0], e[1]):
            raise AssertionError(f"pinning {e} would close a cycle (internal bug)")
        self._pin_arrival[e] = t

    def edges(self) -> tuple[Edge, ...]:
        return tuple(self._pin_arrival)

    def items(self) -> tuple[tuple[Edge, int], ...]:
        return tuple(self._pin_arrival.items())


@dataclasses.dataclass(frozen=True)
class PinEvent:
    kind: str  # "batch" (floor(|E|/lam) cheapest of a path) or "single" (cheapest of buffer)
    level: int
    edges: tuple
    cost: int
    source_size: int  # |E_orig| for batch, |B| at pin time for single


@dataclasses.dataclass(frozen=True)
class ArrivalLedger:
    insertions: int
    deletions: int
    pins_added: int
    pin_events: tuple
    buffer_end: int


@dataclasses.dataclass(frozen=True)
class Snapshot:
    edges: frozenset
    cost: int


class OnlineState:
    """Mutable loop state of the online algorithm (one instance, one lambda).

    `last_outcome` is the latest arrival's outcome, at first ARRIVAL_ZERO:
    the next arrival reads its hierarchy, forests and snapshot. `vgraphs` and
    `metrics` belong to that outcome's hierarchy and are kept for this
    arrival only; the next one carries the metrics and replaces both.
    """

    def __init__(self, instance: Instance, lam: int):
        if lam < 1 or int(lam) != lam:
            raise ConfigError("lambda must be an integer >= 1")
        self.instance = instance
        self.lam = int(lam)
        self.t = 0
        self.vgraphs: tuple = ()  # virtual edges of the hierarchy's H_0 .. H_L
        self.metrics: tuple = (NO_METRIC,)  # contracted metrics of the hierarchy's C_0 .. C_{L+1}
        self.pinned = PinnedSet()
        self.last_outcome = ARRIVAL_ZERO


def classify_inheritance(prev_edges, new_cl: Clustering, h_edges):
    """Map the previous level-i forest into inherited edges of H_i^(t).

    A previous edge is inheritable iff its endpoint clusters land in two
    different current clusters; the image edge joins those clusters. When
    several inheritable edges share an image, the parent is the one with the
    lexicographically smallest endpoint pair. The previous C_i refines
    `new_cl`, C_i: C_0 is trivial, and advance proved it at level i - 1.
    """
    h_set = set(h_edges)
    parents: dict[tuple[int, int], VirtualEdge] = {}
    for pe in sorted(prev_edges, key=lambda e: (e.c1, e.c2)):
        d1, d2 = new_cl.assignment[pe.c1], new_cl.assignment[pe.c2]
        if d1 == d2:
            continue  # non-inheritable: both endpoints merged into one cluster
        img = (d1, d2) if d1 < d2 else (d2, d1)
        if img not in h_set:
            raise AssertionError("inheritable edge image missing from virtual graph (internal bug)")
        if img not in parents:
            parents[img] = pe
    return parents


def select_spanning_forest(h_edges, inherited_images):
    """Spanning forest of H_i preferring inherited edges.

    Kruskal-style scan: inherited edges first (canonical order), then the
    rest, keeping whatever does not close a cycle. Returns (inherited part,
    augmenting part); their union spans every component of H_i.
    """
    uf = UnionFind()
    inherited_set = set(inherited_images)
    f_inh = []
    f_rest = []
    for e in sorted(inherited_set):
        if uf.union(e[0], e[1]):
            f_inh.append(e)
    for e in h_edges:
        if e not in inherited_set and uf.union(e[0], e[1]):
            f_rest.append(e)
    return f_inh, f_rest


def pin_and_realize(view, hier, metrics, pending, pinned, lam, t):
    """Realize the fresh virtual edges and grow the pin set.

    `pending` holds the non-inherited forest edges in pinning order (levels
    ascending, canonical within a level). Each is realized by a shortest path
    in the cluster graph contracted by the CURRENT pin set, which grows as
    the loop runs; `metrics[i]` is the contracted metric of level i's
    clustering, which the pins are merged into. Long realizations pin their
    floor(|E|/lambda) cheapest edges directly; short ones feed the buffer,
    which pins its cheapest edge whenever it reaches lambda entries. The
    buffer starts empty each arrival and every pin empties it. Each path is
    checked against its level's budget here, once: an inherited edge keeps
    its parent's realization at the same level.
    """
    buffer: list[Edge] = []  # multiset: duplicates kept on purpose
    events: list[PinEvent] = []
    for ve in pending:
        cl = hier.clustering(ve.level)
        path = cluster_distance(view, cl, pinned.edges(), ve.c1, ve.c2,
                                metrics[ve.level])
        eorig = frozenset(path.edges)
        ve.eorig = eorig
        ve.created_at = t
        if path.distance > level_threshold(ve.level):
            raise AssertionError("realized path exceeds the level budget (internal bug)")
        if len(eorig) >= lam:
            take = len(eorig) // lam
            chosen = sorted(eorig, key=lambda e: (view.d(*e), e))[:take]
            for e in chosen:
                pinned.add(e, t)
            events.append(PinEvent("batch", ve.level, tuple(chosen), view.cost(chosen),
                                   len(eorig)))
            buffer.clear()
        else:
            buffer.extend(sorted(eorig))
            if len(buffer) > 2 * lam:
                raise AssertionError("buffer exceeded its momentary 2*lambda bound (internal bug)")
            if len(buffer) >= lam:
                e = min(buffer, key=lambda e: (view.d(*e), e))
                pinned.add(e, t)
                events.append(PinEvent("single", ve.level, (e,), view.d(*e), len(buffer)))
                buffer.clear()
    if len(buffer) >= lam:
        raise AssertionError("buffer not drained at end of arrival (internal bug)")
    return events, len(buffer)


@dataclasses.dataclass
class ArrivalOutcome:
    """Everything advance() produced for one arrival (feeds trace + reports)."""

    t: int
    hierarchy: Hierarchy
    forest: dict
    pinned_after: tuple  # ((edge, pin arrival), ...)
    snapshot: Snapshot
    ledger: ArrivalLedger
    cost_pinned: int
    cost_forestforming: int


# The outcome before the first arrival, where every walk over arrivals starts: no
# forest, pin or snapshot edge, every level NO_TERMINALS. Shared: never write to it.
ARRIVAL_ZERO = ArrivalOutcome(0, Hierarchy(-1, (NO_TERMINALS,)), {}, (), Snapshot(frozenset(), 0),
                              ArrivalLedger(0, 0, 0, (), 0), 0, 0)


def advance(state: OnlineState, pair) -> tuple[OnlineState, Snapshot, ArrivalLedger]:
    """Process the next demand pair and rebuild the snapshot.

    Raises ConfigError if `pair` is not the instance's next demand. The
    returned ledger entry carries the arrival's recourse and pin events; the
    full outcome (with hierarchy and forests) lands in state.last_outcome.
    """
    inst = state.instance
    t = state.t + 1
    if t > inst.n or tuple(pair) != inst.demands[t - 1]:
        raise ConfigError(f"pair {pair} is not demand #{t} of the instance")
    view = inst.view(t)
    prev = state.last_outcome
    hier, vgraphs, metrics = build_hierarchy(
        view, (prev.hierarchy.clusterings, state.metrics, state.vgraphs))

    forest: dict[int, list[VirtualEdge]] = {}
    pending: list[VirtualEdge] = []
    for i in range(hier.L + 1):
        h_edges = vgraphs[i]
        cl_i = hier.clustering(i)
        cl_next = hier.clustering(i + 1)
        prev_edges = prev.forest.get(i, ())
        parents = classify_inheritance(prev_edges, cl_i, h_edges) if prev_edges else {}
        f_inh, f_rest = select_spanning_forest(h_edges, parents.keys())

        faults = forest_faults(cl_i, cl_next, f_inh + f_rest, f_inh)
        # C_inh contracts part of a forest whose full contraction is C_{i+1}, so this
        # proves the previous C_{i+1} refines C_{i+1} too, as level i + 1 needs. With
        # every edge inherited, C_inh is C_{i+1}: build_hierarchy tested that pair.
        if f_rest or not f_inh:
            faults["refine-into-inherited"] = refinement_fault(
                prev.hierarchy.clustering(i + 1), inherited_clustering(cl_i, cl_next, f_inh))
        wrong = "; ".join(f"{check}: {phrase}" for check, phrase in faults.items() if phrase)
        if wrong:
            raise AssertionError(f"{wrong} (internal bug)")

        entries = []
        for e in sorted(f_inh + f_rest):
            if e in parents:  # f_rest holds no inheritable image
                pe = parents[e]
                entries.append(VirtualEdge(i, e[0], e[1], True, pe.endpoints,
                                           pe.eorig, pe.created_at))
            else:
                ve = VirtualEdge(i, e[0], e[1], False, None, frozenset(), t)
                entries.append(ve)
                pending.append(ve)
        forest[i] = entries

    events, buffer_end = pin_and_realize(view, hier, metrics, pending, state.pinned,
                                         state.lam, t)
    pins_added = sum(len(ev.edges) for ev in events)

    F = set(state.pinned.edges())
    cost_ff = 0
    for entries in forest.values():
        for ve in entries:
            cost_ff += view.cost(ve.eorig)
            F.update(ve.eorig)
    F = frozenset(F)

    if not check_feasible(F, view.demands):
        raise AssertionError("snapshot infeasible (internal bug)")

    cost_f = view.cost(F)
    cost_a = view.cost(state.pinned.edges())
    ins, dels = recourse_diff(prev.snapshot.edges, F)
    snapshot = Snapshot(F, cost_f)
    entry = ArrivalLedger(ins, dels, pins_added, tuple(events), buffer_end)

    state.t = t
    state.vgraphs = vgraphs
    state.metrics = metrics
    state.last_outcome = ArrivalOutcome(
        t=t,
        hierarchy=hier,
        forest=forest,
        pinned_after=state.pinned.items(),
        snapshot=snapshot,
        ledger=entry,
        cost_pinned=cost_a,
        cost_forestforming=cost_ff,
    )
    return state, snapshot, entry
