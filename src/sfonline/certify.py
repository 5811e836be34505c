"""Mechanical certification of a recorded run.

Everything here re-derives its verdicts from the trace plus the instance
metric; nothing trusts the online loop's own bookkeeping. `check_run`
walks the arrivals once. Each arrival gets its structural rows: feasibility,
the pinned forest, refinements, cluster-gap and co-clustering observations,
per-level counting identities, and the per-edge cost budget. It then steps
the dual-fitting source sets of every witness level, asserting their four
invariants. After the walk, each level's rows follow: the ball-growing
dual, its exact feasibility, and the value identities.

The dual radius at level i is 2^(i-1), a half at level 0, so the witness
holds every radius and dual value doubled: all are integers, and every
asserted identity stays exact. Edge loads come in closed form from the
sources (see check_dual_feasibility) in O(|X| T^2) per level.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import typing

import numpy as np

from .clustering import (
    NO_METRIC,
    active_virtual_edges,
    check_refinement,
    contract_clustering,
    level_metrics,
    level_threshold,
)
from .errors import SfonlineError
from .metric import MAX_DIST, InstanceView
from .unionfind import UnionFind


class WitnessError(SfonlineError):
    """Dual-witness invariant violation; carries the failing arrival."""

    code = "E_WITNESS"

    def __init__(self, message, t):
        super().__init__(message)
        self.t = t


def recourse_bound(n: int, lam: int) -> int:
    """2n + 21n*lambda: the most insertions a run of n arrivals may make."""
    return 2 * n + 21 * n * lam


def check_feasible(edges, demands) -> bool:
    """True iff every demand pair is connected by the edge set."""
    uf = UnionFind(edges)
    return all(uf.connected(u, v) for u, v in demands)


def check_pinned_forest(edges, terminal_count: int) -> bool:
    """True iff the pin set is acyclic with at most terminal_count - 1 edges."""
    edges = list(edges)
    if len(edges) > max(terminal_count - 1, 0):
        return False
    uf = UnionFind()
    return all(uf.union(a, b) for a, b in edges)


# ---------------------------------------------------------------------------
# Dual witness (source sets + ball growing)
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class WitnessState:
    """Level i's source sets after the arrivals stepped so far."""

    level: int
    final_xhat: set = dataclasses.field(default_factory=set)  # Xhat
    final_sources: set = dataclasses.field(default_factory=set)  # X
    noninherited_counts: list = dataclasses.field(default_factory=list)  # |F_i \ F_inh,i| per t

    def step(self, view, out, cinh_i) -> None:
        """Advance by arrival `out`, whose C_inh,i is `cinh_i` and whose
        instance prefix is `view`. The new pair's endpoints join Xhat when
        they are the only high-level vertices of their C_inh,i cluster; X
        gains k-1 smallest fresh Xhat vertices per top cluster glued out of k
        inherited clusters. The four invariants are asserted after the step."""
        t, i, lv = out.t, self.level, view.levels
        xhat, x, counts = self.final_xhat, self.final_sources, self.noninherited_counts
        u, v = 2 * t - 2, 2 * t - 1
        cl_next = out.hierarchy.clustering(i + 1)
        if cinh_i is None:
            raise WitnessError("an inherited edge does not join two clusters", t)
        added = []
        if lv[u] >= i:
            cu = cinh_i.assignment[u]
            cv = cinh_i.assignment[v]
            high_u = [k for k in cinh_i.members[cu] if lv[k] >= i]
            if cu == cv:
                if sorted(high_u) == sorted([u, v]):
                    added = [u]
            else:
                high_v = [k for k in cinh_i.members[cv] if lv[k] >= i]
                added = [z for z, high in ((u, high_u), (v, high_v)) if high == [z]]
            xhat.update(added)

        top_of = cl_next.assignment
        active = [cid for cid in cl_next.cluster_ids if cl_next.cluster_level[cid] >= i]
        subclusters = collections.Counter(
            top_of[c2] for c2 in cinh_i.cluster_ids if cinh_i.cluster_level[c2] >= i)
        fresh: dict = {}
        for z in xhat - x:
            fresh.setdefault(top_of[z], []).append(z)
        for cid in active:
            k = subclusters.get(cid, 0)
            if k == 0:
                raise WitnessError("active top cluster without active inherited subclusters", t)
            cands = fresh.get(cid, ())
            if len(cands) < k:
                raise WitnessError(f"cluster {cid} offers {len(cands)} fresh sources, "
                                   f"needs {k}", t)
            if k > 1:
                x.update(sorted(cands)[: k - 1])

        counts.append(sum(1 for ve in out.forest.get(i, ()) if not ve.inherited))

        # Candidate sources must sit inside active next-level clusters.
        for z in xhat:
            if cl_next.cluster_level[top_of[z]] < i:
                raise WitnessError(f"source {z} sits in an inactive cluster", t)
        # Candidate sources stay pairwise 2r-separated. Earlier arrivals
        # checked every older pair and the new vertices have the largest ids,
        # so testing the pairs that end at a new vertex, in row-major order,
        # finds the same first close pair as testing all of them. Distances
        # stay below 2^62, so clamping 2r = 2^i there keeps d < 2r exact.
        if added:
            xs = sorted(xhat)
            close = (view.dist_matrix()[np.ix_(xs, added)] < level_threshold(i - 1)) \
                & (np.array(xs)[:, None] < np.array(added)[None, :])
            hits = np.argwhere(close)
            if len(hits):
                a, b = hits[0]
                raise WitnessError(f"sources {xs[a]},{added[b]} closer than 2r", t)
        # Grown sources stay within the candidates, and every active cluster
        # keeps at least one spare candidate outside the grown set.
        if not x <= xhat:
            raise WitnessError("X escapes Xhat", t)
        spare = {top_of[z] for z in xhat - x}
        for cid in active:
            if cid not in spare:
                raise WitnessError(f"cluster {cid} has no Xhat vertex outside X", t)
        # The grown-source count tracks the non-inherited forest edges.
        if len(x) != sum(counts):
            raise WitnessError(f"|X| = {len(x)} but non-inherited count is {sum(counts)}", t)


def radius(level: int) -> int:
    """The doubled dual radius 2r = 2^i at level i (the radius is 2^(i-1))."""
    return 1 << level


def _halves(x2: int) -> str:
    """A doubled value printed as the rational it stands for: 3 -> '3/2'."""
    return str(x2 // 2) if x2 % 2 == 0 else f"{x2}/2"


def build_dual_witness(trace, i: int) -> WitnessState:
    """Step level i's source sets over the whole run; a broken invariant
    raises WitnessError with its arrival."""
    witness = WitnessState(i)
    for out in trace.arrivals:
        witness.step(trace.instance.view(out.t), out, _inherited_at(out, i))
    return witness


@dataclasses.dataclass
class DualSolution:
    """A ball-growing dual, every value doubled so that all are integers."""

    cuts: dict  # frozenset of terminal ids -> 2 * y(cut) > 0
    sources: frozenset
    radius: int  # 2r

    def total(self) -> int:
        return sum(self.cuts.values())


def grow_balls(view: InstanceView, sources, r2: int) -> DualSolution:
    """Grow a radius-r ball around every source, r2 = 2r; cuts are prefix balls.

    Around v, terminals are ordered by (distance, id); each prefix whose last
    terminal is within r receives the gap to the next shell (clamped at r).
    Values are doubled like the radius, and they total |sources| * r2.
    """
    src = sorted(sources)
    dist = view.dist_matrix()
    close = np.argwhere(np.triu(dist[np.ix_(src, src)] < min(r2, 1 << 62), 1))
    if len(close):
        a, b = close[0]
        raise SfonlineError(f"sources {src[a]},{src[b]} closer than 2r: balls would overlap")
    cuts: dict = {}
    for v in src:
        order = np.argsort(dist[v], kind="stable").tolist()  # by (distance, id)
        d2 = [2 * d for d in dist[v, order].tolist()]
        for j in range(len(order)):
            if d2[j] > r2:
                break
            inc = (r2 if j + 1 == len(order) else min(d2[j + 1], r2)) - d2[j]
            if inc > 0:
                key = frozenset(order[: j + 1])
                cuts[key] = cuts.get(key, 0) + inc
    dual = DualSolution(cuts, frozenset(src), r2)
    if dual.total() != len(src) * r2:
        raise AssertionError("ball growing total mismatch (internal bug)")
    return dual


def check_dual_feasibility(dual: DualSolution, view: InstanceView, top_clustering):
    """(ok, detail): exact edge constraints plus the cut-domain condition.

    Every original edge may be crossed by cuts totalling at most its cost,
    and every positive cut must separate some cluster of the final top
    clustering (the dual's feasible domain).

    The cuts around one source are nested balls, so the load they put on an
    edge (a, b) telescopes to |min(d(v, a), r) - min(d(v, b), r)|. Edge loads
    are therefore summed in closed form from the dual's sources and radius,
    one T x T matrix per source, and the cut list serves the domain check.
    """
    dist = view.dist_matrix()
    src = sorted(dual.sources)
    # min(2d, 2r) is unchanged by capping 2r at 2 * MAX_DIST, and no term of
    # a load exceeds the cap; past int64, the sum is taken in Python ints.
    cap = min(dual.radius, 2 * MAX_DIST)
    dtype = np.int64 if len(src) * cap < 1 << 63 else object
    dist2 = 2 * dist.astype(dtype)
    load = np.zeros(dist.shape, dtype=dtype)
    for v in src:
        c = np.minimum(dist2[v], cap)
        load += np.abs(c[:, None] - c[None, :])
    over = np.argwhere(np.triu(load > dist2, 1))
    if len(over):
        a, b = (int(k) for k in over[0])
        return False, f"edge ({a},{b}) overloaded: {_halves(int(load[a, b]))} > {int(dist[a, b])}"
    top_of = top_clustering.assignment
    size = collections.Counter(top_of)
    for cut, val in dual.cuts.items():
        # A cut separates no cluster iff it is a union of whole clusters.
        if val > 0 and sum(size[cid] for cid in {top_of[m] for m in cut}) == len(cut):
            return False, f"cut {sorted(cut)} separates no top cluster"
    return True, ""


def witness_value_identity(witness: WitnessState, trace, dual: DualSolution | None = None):
    """(ok, 2D, detail): D = sum y = |X| r = sum_t |F_i \\ F_inh,i| * 2^(i-1),
    all compared doubled."""
    i = witness.level
    r2 = radius(i)
    if dual is None:
        dual = grow_balls(trace.instance.view(trace.n), witness.final_sources, r2)
    d2 = dual.total()
    by_sources = len(witness.final_sources) * r2
    by_counts = sum(witness.noninherited_counts) * r2
    if d2 == by_sources == by_counts:
        return True, d2, ""
    return False, d2, (f"D={_halves(d2)} |X|r={_halves(by_sources)} "
                       f"counts*r={_halves(by_counts)}")


# ---------------------------------------------------------------------------
# Full-run certification
# ---------------------------------------------------------------------------

class CheckEntry(typing.NamedTuple):
    check: str
    level: object  # int or None
    arrival: object  # int or None
    status: str  # pass | fail | info
    value: str = ""


@dataclasses.dataclass
class CertReport:
    instance_label: str
    instance_hash: str
    lam: int
    entries: list
    ratios: dict

    @property
    def ok(self) -> bool:
        return not any(e.status == "fail" for e in self.entries)

    def failures(self):
        return [e for e in self.entries if e.status == "fail"]

    def to_csv(self) -> str:
        rows = ["check,level,arrival,status,value"]
        for check, level, arrival, status, value in self.entries:
            lv = "" if level is None else str(level)
            ar = "" if arrival is None else str(arrival)
            rows.append(f"{check},{lv},{ar},{status},{value.replace(',', ';')}")
        return "\n".join(rows) + "\n"

    def summary_text(self) -> str:
        by_check: dict = {}
        for e in self.entries:
            if e.status == "info":
                continue
            stats = by_check.setdefault(e.check, [0, 0])
            stats[0] += e.status == "pass"
            stats[1] += e.status == "fail"
        lines = [f"instance {self.instance_label} [{self.instance_hash}] lambda={self.lam}"]
        for check in sorted(by_check):
            p, f = by_check[check]
            mark = "PASS" if f == 0 else "FAIL"
            lines.append(f"  {mark} {check}: {p} pass, {f} fail")
        for name in sorted(self.ratios):
            val = self.ratios[name]
            if val is not None:
                lines.append(f"  ratio {name} = {float(val):.6f}")
        lines.append("overall: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines) + "\n"


def _unarrived(edges, T):
    """The least edge with an endpoint outside terminals 0..T-1, or None."""
    return min((e for e in edges if not (0 <= e[0] < T and 0 <= e[1] < T)), default=None)


def _edges_cost(view: InstanceView, edges):
    """Total cost of `edges`, or None when one has an endpoint not yet
    arrived (a trace is untrusted input, so ids are checked before lookup)."""
    if _unarrived(edges, view.num_terminals) is not None:
        return None
    return view.cost(edges)


def _edge_str(edge) -> str:
    return f"({edge[0]},{edge[1]})"


def _moved(got, want):
    """The first terminal whose cluster differs between two assignments, or ""."""
    if got == want:
        return ""
    k = next(k for k, (a, b) in enumerate(zip(got, want)) if a != b)
    return f"terminal {k} in {got[k]} want {want[k]}"


def refinement_fault(fine, coarse):
    """"" when `fine` refines `coarse`, else the first terminal whose fine
    cluster the coarse clustering splits."""
    if check_refinement(fine, coarse):
        return ""
    c = coarse.assignment
    k = next(k for k, f in enumerate(fine.assignment) if c[f] != c[k])
    return f"fine cluster {fine.assignment[k]} split at terminal {k}"


def inherited_clustering(cl, cl_next, inherited):
    """C_inh,i: C_i (`cl`) contracted by the level's inherited forest edges;
    `cl` itself when nothing is inherited, the `cl_next` object when that is
    C_{i+1}, and None when an endpoint is not a cluster id of `cl`."""
    if not inherited:
        return cl
    if any(c not in cl.members for edge in inherited for c in edge):
        return None
    root = UnionFind(inherited).roots()
    a = cl.assignment
    got = tuple(map(root.get, a, a))
    return cl_next if got == cl_next.assignment else cl.merged(root, got)


def _inherited_at(out, i):
    """C_inh,i of arrival `out`, as inherited_clustering derives it."""
    h = out.hierarchy
    return inherited_clustering(h.clustering(i), h.clustering(i + 1),
                                [ve.endpoints for ve in out.forest.get(i, ()) if ve.inherited])


def forest_faults(cl, cl_next, edges, inherited):
    """Level i's forest facts as {check: phrase}, "" where one holds, in
    certify.csv row order: `edges` contract `cl` to `cl_next` with one edge per
    merge, and their sub-list `inherited` merges once per edge too."""
    got = contract_clustering(cl, edges)
    merged = len(cl.cluster_ids) - len(cl_next.cluster_ids)
    faults = {"forest-contracts-to-next": _moved(got, cl_next.assignment),
              "count-identity-forest": "" if len(edges) == merged
              else f"|F_i|={len(edges)} |C_i|-|C_i+1|={merged}"}
    if len(inherited) != len(edges):  # else the sub-list is `edges` itself
        got = contract_clustering(cl, inherited)
    merged = len(cl.cluster_ids) - len(set(got))
    faults["count-identity-inherited"] = "" if len(inherited) == merged else (
        f"|F_inh|={len(inherited)} |C_i|-|C_inh|={merged}")
    return faults


def _pin_ledger_errors(out, prev_out):
    """What is wrong with an arrival's pin ledger, as FAIL-row phrases:
    pins_added must count the pin events' edges, the pinned list must grow by
    exactly those edges stamped with this arrival, and every fresh forest
    edge must have been created at this arrival."""
    t = out.t
    events = [e for ev in out.ledger.pin_events for e in ev.edges]
    wrong = []
    if out.ledger.pins_added != len(events):
        wrong.append(f"pins_added={out.ledger.pins_added} pin event edges={len(events)}")
    grown = out.pinned_after[len(prev_out.pinned_after):]
    if sorted(e for e, _ in grown) != sorted(events):
        wrong.append(f"pinned grew by {len(grown)} edges not the pin events' {len(events)}")
    late = next(((e, pt) for e, pt in grown if pt != t), None)
    if late is not None:
        wrong.append(f"pin {_edge_str(late[0])} stamped {late[1]}")
    fresh = (ve for entries in out.forest.values() for ve in entries if not ve.inherited)
    stale = next((ve for ve in fresh if ve.created_at != t), None)
    if stale is not None:
        wrong.append(f"fresh {_edge_str(stale.endpoints)} created_at={stale.created_at}")
    return wrong


def _maps_onto(assignment, parent, ve):
    """True iff the parent edge's endpoints land in ve's two distinct clusters."""
    d1, d2 = assignment[parent.c1], assignment[parent.c2]
    return d1 != d2 and {d1, d2} == {ve.c1, ve.c2}


def _structural_pass(trace, add, levels):
    """Write each arrival's structural rows, then yield the arrival with its
    C_inh,i for i in 0..L and in `levels`; write `recourse-bound` last."""
    inst = trace.instance
    n = inst.n
    metrics = (NO_METRIC,)  # the previous arrival's level metrics, arrival zero's first
    ins_total = dels_total = 0
    for prev_out, out in trace.with_previous():
        t = out.t
        view = inst.view(t)
        hier = out.hierarchy

        ok = check_feasible(out.snapshot.edges, view.demands)
        add("feasible", None, t, ok)

        pinned = [e for e, _ in out.pinned_after]
        ok = check_pinned_forest(pinned, 2 * n)
        add("pinned-forest", None, t, ok, f"|A|={len(out.pinned_after)}")
        ok = out.pinned_after[: len(prev_out.pinned_after)] == prev_out.pinned_after
        add("pinned-monotone", None, t, ok)

        T = view.num_terminals
        rebuilt = set(pinned)
        for entries in out.forest.values():
            for ve in entries:
                rebuilt |= ve.eorig
        realized = {i: [_edges_cost(view, ve.eorig) for ve in entries]
                    for i, entries in out.forest.items()}
        parts = [c for costs in realized.values() for c in costs]
        rederived = (
            ("cost_f", out.snapshot.cost, _edges_cost(view, out.snapshot.edges)),
            ("cost_pinned", out.cost_pinned, _edges_cost(view, pinned)),
            ("cost_forestforming", out.cost_forestforming,
             None if None in parts else sum(parts)),
        )
        wrong = [] if frozenset(rebuilt) == out.snapshot.edges else ["edges"]
        wrong += [f"{name}={got} rederived={want}" for name, got, want in rederived
                  if want is not None and got != want]
        unarrived = _unarrived(rebuilt | out.snapshot.edges, T)
        if unarrived is not None:
            wrong.append(f"edge {_edge_str(unarrived)} has an endpoint not yet arrived")
        wrong += _pin_ledger_errors(out, prev_out)
        add("snapshot-consistency", None, t, not wrong, " ".join(wrong))
        arrived_pins = [(a, b) for a, b in pinned if 0 <= a < T and 0 <= b < T]

        top = hier.top
        add("top-coclustering", None, t,
            all(top.assignment[u] == top.assignment[v] for u, v in view.demands))

        # Each level's metric follows the previous arrival's where it refines.
        metrics = tuple(level_metrics(view.dist_matrix(), hier.clusterings,
                                      (prev_out.hierarchy.clusterings, metrics)))
        cinh = {i: _inherited_at(out, i) for i in {*range(hier.L + 1), *levels}}
        # Levels share clustering objects: test each (fine, coarse) pair once.
        split = functools.cache(refinement_fault)
        for i, m in zip(range(hier.L + 1), metrics):
            cl = hier.clustering(i)
            cl_next = hier.clustering(i + 1)
            h_edges, gap = active_virtual_edges(m.D, m.ids, cl.cluster_level, i)
            floor = level_threshold(i - 1)
            add("active-cluster-gap", i, t, gap >= floor,
                f"gap={gap} 2^i={floor}" if gap < floor else "")

            fi = out.forest.get(i, [])
            finh = [ve for ve in fi if ve.inherited]

            bad_edge = ""
            uf = UnionFind()
            pos = {cid: k for k, cid in enumerate(m.ids)} if fi else {}
            for ve in fi:
                e = _edge_str(ve.endpoints)
                if ve.c1 not in pos or ve.c2 not in pos or ve.c1 == ve.c2:
                    bad_edge = f"{e} does not join two clusters"
                elif cl.cluster_level[ve.c1] < i or cl.cluster_level[ve.c2] < i:
                    bad_edge = f"{e} touches an inactive cluster"
                elif (d := int(m.D[pos[ve.c1], pos[ve.c2]])) >= level_threshold(i):
                    bad_edge = f"{e} at distance {d}"
                elif not uf.union(ve.c1, ve.c2):
                    bad_edge = f"{e} closes a cycle"
                if bad_edge:
                    break
            add("virtual-edge-valid", i, t, not bad_edge, bad_edge)

            faults = forest_faults(cl, cl_next, [ve.endpoints for ve in fi],
                                   [ve.endpoints for ve in finh])
            # C_{i+1} must merge every edge of H_i, not only the forest's.
            nxt = cl_next.assignment
            unmerged = next(((a, b) for a, b in h_edges if nxt[a] != nxt[b]), None)
            if unmerged is not None:
                a, b = unmerged
                faults["forest-contracts-to-next"] = " ".join(filter(None, (
                    faults["forest-contracts-to-next"],
                    f"unmerged H_i edge {_edge_str(unmerged)} "
                    f"at distance {int(m.D[m.ids.index(a), m.ids.index(b)])}")))
            for check, phrase in faults.items():
                add(check, i, t, not phrase, phrase)

            over_budget = unjoined = ""
            # Clusters joined by the pins, shared by every edge of the level.
            pinned_uf = UnionFind((cl.assignment[a], cl.assignment[b])
                                  for a, b in (arrived_pins if fi else ()))
            for ve, cost in zip(fi, realized.get(i, ())):
                if not over_budget and cost is None:
                    over_budget = (f"edge {_edge_str(_unarrived(ve.eorig, T))} of "
                                   f"({ve.c1},{ve.c2}) has an endpoint not yet arrived")
                elif not over_budget and cost > level_threshold(ve.level):
                    over_budget = f"({ve.c1},{ve.c2}) costs {cost} > {level_threshold(ve.level)}"
                # Does eorig join ve's clusters once the pins are contracted?
                uf2 = UnionFind((pinned_uf.find(cl.assignment[a]),
                                 pinned_uf.find(cl.assignment[b]))
                                for a, b in (ve.eorig if cost is not None else ()))
                if not unjoined and (uf2.find(pinned_uf.find(ve.c1))
                                     != uf2.find(pinned_uf.find(ve.c2))):
                    unjoined = f"eorig of {_edge_str(ve.endpoints)} does not join its clusters"
            add("edge-budget", i, t, not over_budget, over_budget)
            add("realization-connects", i, t, not unjoined, unjoined)

            moved = split(prev_out.hierarchy.clustering(i), cl)
            add("refine-across-arrivals", i, t, not moved, moved)
            if cinh[i] is not None:
                moved = split(prev_out.hierarchy.clustering(i + 1), cinh[i])
                add("refine-into-inherited", i, t, not moved, moved)

            bad_parent = ""
            prev_forest = {pe.endpoints: pe for pe in prev_out.forest.get(i, [])}
            for ve in finh:
                e = _edge_str(ve.endpoints)
                pe = prev_forest.get(ve.parent)
                if pe is None:
                    bad_parent = f"{e} has no parent in the previous forest"
                elif pe.eorig != ve.eorig:
                    bad_parent = f"{e} realizes other edges than its parent"
                elif pe.created_at != ve.created_at:
                    bad_parent = f"{e} created_at={ve.created_at} parent's={pe.created_at}"
                elif not _maps_onto(cl.assignment, pe, ve):
                    bad_parent = f"{e} is not its parent's image"
                if bad_parent:
                    break
            add("inheritance-provenance", i, t, not bad_parent, bad_parent)
        # The top clustering index gets the cross-arrival check too.
        moved = split(prev_out.hierarchy.clustering(hier.L + 1), hier.top)
        add("refine-across-arrivals", hier.L + 1, t, not moved, moved)

        ins = len(out.snapshot.edges - prev_out.snapshot.edges)
        dels = len(prev_out.snapshot.edges - out.snapshot.edges)
        add("ledger-diff", None, t,
            (ins, dels) == (out.ledger.insertions, out.ledger.deletions),
            f"ins={ins} dels={dels}")
        add("buffer-bound", None, t, 0 <= out.ledger.buffer_end < trace.lam,
            f"|B|={out.ledger.buffer_end}")
        ins_total += out.ledger.insertions
        dels_total += out.ledger.deletions
        yield out, cinh

    bound = recourse_bound(n, trace.lam)
    add("recourse-bound", None, None, ins_total <= bound and dels_total <= ins_total,
        f"ins={ins_total} bound={bound}")


def check_run(trace, opt_per_arrival=None, witness_levels=None) -> CertReport:
    """Re-verify a recorded run and measure its ratios against the oracle.

    opt_per_arrival maps t -> exact optimum cost (arrivals past the oracle
    limit simply absent). witness_levels names the levels the witness pass
    checks: None is all of 0..L, and () skips the pass. Ratios are reported,
    never asserted against the analysis constants; structural and witness
    checks are exact pass/fail. The arrivals are walked once: each writes its
    structural rows and steps every witness level, whose rows follow.
    """
    entries: list[CheckEntry] = []

    def add(check, level, arrival, ok, value=""):
        entries.append(CheckEntry(check, level, arrival, "pass" if ok else "fail", value or ""))

    final = trace.final()
    levels = range(final.hierarchy.L + 1) if witness_levels is None else witness_levels
    witnesses = [WitnessState(i) for i in levels]
    broken = [None] * len(witnesses)  # the WitnessError that stopped each level
    view = trace.instance.view(trace.n)
    opt_per_arrival = opt_per_arrival or {}
    # Ratios are compared exactly by cross-multiplying; int true division
    # rounds each one correctly to the float it is reported as.
    worst = None  # (cost, OPT) of the largest cost/OPT
    for out, cinh in _structural_pass(trace, add, levels):
        arrived = trace.instance.view(out.t)
        for k, witness in enumerate(witnesses):
            if broken[k] is None:
                try:
                    witness.step(arrived, out, cinh[witness.level])
                except WitnessError as err:
                    broken[k] = err
        opt_t = opt_per_arrival.get(out.t)
        if opt_t and (worst is None or out.snapshot.cost * worst[1] > worst[0] * opt_t):
            worst = (out.snapshot.cost, opt_t)

    ratios: dict = {}
    opt_final = opt_per_arrival.get(trace.n)
    if worst is not None:
        ratios["cost/OPT-max"] = worst[0] / worst[1]
    if opt_final:
        ratios["pinned/OPT"] = final.cost_pinned / opt_final
        ratios["forestforming/OPT"] = final.cost_forestforming / opt_final
        h = final.hierarchy
        budget = sum(
            (len(h.clustering(i).cluster_ids) - len(h.clustering(i + 1).cluster_ids))
            * level_threshold(i)
            for i in range(h.L + 1)
        )
        ratios["hierarchy-budget/OPT"] = budget / opt_final

    max_budget = None  # the largest ratio to OPT, as every level shares OPT
    for witness, err in zip(witnesses, broken):
        i = witness.level
        if err is not None:
            add("witness-invariants", i, err.t, False, str(err))
            continue
        add("witness-invariants", i, None, True, f"|X|={len(witness.final_sources)}")
        dual = grow_balls(view, witness.final_sources, radius(i))
        ok, detail = check_dual_feasibility(dual, view, final.hierarchy.top)
        add("dual-feasible", i, None, ok, detail)
        ok, d2, detail = witness_value_identity(witness, trace, dual)
        add("value-identity", i, None, ok, detail or f"D={_halves(d2)}")
        merge_budget = sum(witness.noninherited_counts) * level_threshold(i)
        add("linkage-4d", i, None, merge_budget == 2 * d2,
            f"sum*2^(i+1)={merge_budget} 4D={2 * d2}")
        if opt_final:
            ratios[f"merge-budget/OPT@L{i}"] = merge_budget / opt_final
            if max_budget is None or merge_budget > max_budget:
                max_budget = merge_budget
    if max_budget is not None:
        ratios["merge-budget/OPT-max"] = max_budget / opt_final
        ratios["D/OPT-max"] = max_budget / (4 * opt_final)

    for name in sorted(ratios):
        entries.append(CheckEntry("ratio:" + name, None, None, "info",
                                  f"{ratios[name]:.6f}"))

    return CertReport(
        instance_label=trace.instance.label,
        instance_hash=trace.instance.content_hash(),
        lam=trace.lam,
        entries=entries,
        ratios=ratios,
    )
