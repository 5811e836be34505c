"""Mechanical certification of a recorded run.

Everything here re-derives its verdicts from the trace plus the instance
metric; nothing trusts the online loop's own bookkeeping. The structural
pass re-checks feasibility, the pinned forest, refinements, cluster-gap and
co-clustering observations, per-level counting identities, and the per-edge
cost budget. The witness pass replays the dual-fitting construction level by
level: the source sets, the four invariants, the ball-growing dual, its
exact feasibility, and the value identities.

The dual radius at level i is 2^(i-1), a half at level 0, so dual values are
exact rationals (fractions.Fraction); every asserted identity stays exact.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from .clustering import (
    active_virtual_edges,
    check_refinement,
    contract_clustering,
    level_metrics,
    level_threshold,
    terminal_levels,
)
from .errors import SfonlineError
from .metric import InstanceView
from .unionfind import UnionFind


class WitnessError(SfonlineError):
    """Dual-witness invariant violation; carries the failing (arrival, level)."""

    code = "E_WITNESS"

    def __init__(self, message, t, level, dump=""):
        super().__init__(message)
        self.t = t
        self.level = level
        self.dump = dump


def check_feasible(edges, demands) -> bool:
    """True iff every demand pair is connected by the edge set."""
    uf = UnionFind()
    for a, b in edges:
        uf.union(a, b)
    return all(uf.connected(u, v) for u, v in demands)


def check_pinned_forest(edges, terminal_count: int) -> bool:
    """True iff the pin set is acyclic with at most terminal_count - 1 edges."""
    edges = list(edges)
    if len(edges) > max(terminal_count - 1, 0):
        return False
    uf = UnionFind()
    for a, b in edges:
        if not uf.union(a, b):
            return False
    return True


# ---------------------------------------------------------------------------
# Dual witness (source sets + ball growing)
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class WitnessState:
    level: int
    per_arrival: list  # (frozenset Xhat, frozenset X) per arrival
    noninherited_counts: list  # |F_i \ F_inh,i| per arrival

    @property
    def final_sources(self) -> frozenset:
        return self.per_arrival[-1][1] if self.per_arrival else frozenset()


def radius(level: int) -> Fraction:
    return Fraction(1 << level, 2)  # 2^(i-1); one half at level 0


def build_dual_witness(trace, i: int) -> WitnessState:
    """Replay the source-set construction for level i over the whole run.

    Per arrival: the new pair's endpoints join Xhat when they are the only
    high-level vertices of their inherited-contraction cluster; X gains k-1
    smallest fresh Xhat vertices per top cluster glued out of k inherited
    clusters. The four invariants are asserted after every arrival.
    """
    inst = trace.instance
    final_view = inst.view(inst.n)
    lv = terminal_levels(final_view)
    two_r = 1 << i  # 2r = 2^i, exact integer

    xhat: set = set()
    x: set = set()
    per_arrival = []
    counts = []

    def fail(msg, t):
        dump = f"Xhat={sorted(xhat)} X={sorted(x)}"
        raise WitnessError(msg, t, i, dump)

    for out in trace.arrivals:
        t = out.t
        u, v = 2 * t - 2, 2 * t - 1
        hier = out.hierarchy
        cinh_i = out.cinh.get(i)
        if lv[u] >= i:
            if cinh_i is None:
                fail("missing C_inh for a level the pair reaches", t)
            cu = cinh_i.assignment[u]
            cv = cinh_i.assignment[v]
            high_u = [k for k in cinh_i.members[cu] if lv[k] >= i]
            if cu == cv:
                if sorted(high_u) == sorted([u, v]):
                    xhat.add(u)
            else:
                high_v = [k for k in cinh_i.members[cv] if lv[k] >= i]
                if high_u == [u]:
                    xhat.add(u)
                if high_v == [v]:
                    xhat.add(v)

        cl_next = hier.clustering(i + 1)
        x_prev = frozenset(x)
        for cid in cl_next.cluster_ids:
            if cl_next.cluster_level[cid] < i:
                continue
            k = sum(1 for c2 in cinh_i.cluster_ids
                    if cinh_i.cluster_level[c2] >= i and cl_next.assignment[c2] == cid) \
                if cinh_i is not None else 0
            if k == 0:
                fail("active top cluster without active inherited subclusters", t)
            cands = sorted(z for z in xhat
                           if cl_next.assignment[z] == cid and z not in x_prev)
            if len(cands) < k:
                fail(f"cluster {cid} offers {len(cands)} fresh sources, needs {k}", t)
            x.update(cands[: k - 1])

        fi = out.forest.get(i, [])
        counts.append(sum(1 for ve in fi if not ve.inherited))

        # Candidate sources must sit inside active next-level clusters.
        for z in xhat:
            if cl_next.cluster_level[cl_next.assignment[z]] < i:
                fail(f"source {z} sits in an inactive cluster", t)
        # Candidate sources stay pairwise 2r-separated.
        xs = sorted(xhat)
        for a_idx in range(len(xs)):
            for b_idx in range(a_idx + 1, len(xs)):
                if inst.d(xs[a_idx], xs[b_idx]) < two_r:
                    fail(f"sources {xs[a_idx]},{xs[b_idx]} closer than 2r", t)
        # Grown sources stay within the candidates, and every active cluster
        # keeps at least one spare candidate outside the grown set.
        if not x <= xhat:
            fail("X escapes Xhat", t)
        for cid in cl_next.cluster_ids:
            if cl_next.cluster_level[cid] < i:
                continue
            if not any(cl_next.assignment[z] == cid and z not in x for z in xhat):
                fail(f"cluster {cid} has no Xhat vertex outside X", t)
        # The grown-source count tracks the non-inherited forest edges.
        if len(x) != sum(counts):
            fail(f"|X| = {len(x)} but non-inherited count is {sum(counts)}", t)

        per_arrival.append((frozenset(xhat), frozenset(x)))

    return WitnessState(i, per_arrival, counts)


@dataclasses.dataclass
class DualSolution:
    cuts: dict  # frozenset of terminal ids -> Fraction > 0
    sources: frozenset
    radius: Fraction

    def total(self) -> Fraction:
        return sum(self.cuts.values(), Fraction(0))


def grow_balls(view: InstanceView, sources, r) -> DualSolution:
    """Grow a radius-r ball around every source; cuts are prefix balls.

    Around v, terminals are ordered by (distance, id); each prefix whose last
    terminal is within r receives the gap to the next shell (clamped at r).
    The total equals |sources| * r exactly.
    """
    r = Fraction(r)
    src = sorted(sources)
    for a_idx in range(len(src)):
        for b_idx in range(a_idx + 1, len(src)):
            if view.d(src[a_idx], src[b_idx]) < 2 * r:
                raise SfonlineError(
                    f"sources {src[a_idx]},{src[b_idx]} closer than 2r: balls would overlap")
    cuts: dict = {}
    for v in src:
        order = sorted(range(view.num_terminals), key=lambda u: (view.d(v, u), u))
        for j, u in enumerate(order):
            d_j = view.d(v, u)
            if d_j > r:
                break
            upper = r if j + 1 >= len(order) else min(Fraction(view.d(v, order[j + 1])), r)
            inc = upper - d_j
            if inc > 0:
                key = frozenset(order[: j + 1])
                cuts[key] = cuts.get(key, Fraction(0)) + inc
    dual = DualSolution(cuts, frozenset(src), r)
    if dual.total() != len(src) * r:
        raise AssertionError("ball growing total mismatch (internal bug)")
    return dual


def check_dual_feasibility(dual: DualSolution, view: InstanceView, top_clustering):
    """(ok, detail): exact edge constraints plus the cut-domain condition.

    Every original edge may be crossed by cuts totalling at most its cost,
    and every positive cut must separate some cluster of the final top
    clustering (the dual's feasible domain).
    """
    items = [(cut, val) for cut, val in dual.cuts.items() if val > 0]
    T = view.num_terminals
    for a in range(T):
        for b in range(a + 1, T):
            load = sum(val for cut, val in items if (a in cut) != (b in cut))
            if load > view.d(a, b):
                return False, f"edge ({a},{b}) overloaded: {load} > {view.d(a, b)}"
    for cut, _ in items:
        separated = any(
            any(m in cut for m in top_clustering.members[cid])
            and any(m not in cut for m in top_clustering.members[cid])
            for cid in top_clustering.cluster_ids
        )
        if not separated:
            return False, f"cut {sorted(cut)} separates no top cluster"
    return True, ""


def witness_value_identity(witness: WitnessState, trace, dual: DualSolution | None = None):
    """(ok, D, detail): D = sum y = |X| r = sum_t |F_i \\ F_inh,i| * 2^(i-1)."""
    i = witness.level
    r = radius(i)
    if dual is None:
        dual = grow_balls(trace.instance.view(trace.n), witness.final_sources, r)
    d_val = dual.total()
    by_sources = len(witness.final_sources) * r
    by_counts = sum(witness.noninherited_counts) * r
    if d_val == by_sources == by_counts:
        return True, d_val, ""
    return False, d_val, f"D={d_val} |X|r={by_sources} counts*r={by_counts}"


# ---------------------------------------------------------------------------
# Full-run certification
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CheckEntry:
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
        for e in self.entries:
            lv = "" if e.level is None else str(e.level)
            ar = "" if e.arrival is None else str(e.arrival)
            val = e.value.replace(",", ";")
            rows.append(f"{e.check},{lv},{ar},{e.status},{val}")
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


def _structural_pass(trace, add):
    inst = trace.instance
    n = inst.n
    prev_out = None
    for out in trace.arrivals:
        t = out.t
        view = inst.view(t)
        hier = out.hierarchy

        ok = check_feasible(out.snapshot.edges, view.demands)
        add("feasible", None, t, ok)

        ok = check_pinned_forest([e for e, _ in out.pinned_after], 2 * n)
        add("pinned-forest", None, t, ok, f"|A|={len(out.pinned_after)}")
        if prev_out is not None:
            ok = out.pinned_after[: len(prev_out.pinned_after)] == prev_out.pinned_after
            add("pinned-monotone", None, t, ok)

        rebuilt = set(e for e, _ in out.pinned_after)
        for entries in out.forest.values():
            for ve in entries:
                rebuilt |= ve.eorig
        add("snapshot-consistency", None, t,
            frozenset(rebuilt) == out.snapshot.edges
            and out.snapshot.cost == sum(view.d(a, b) for a, b in out.snapshot.edges))

        top = hier.top
        add("top-coclustering", None, t,
            all(top.assignment[u] == top.assignment[v] for u, v in view.demands))

        metrics = level_metrics(view.dist_matrix(), hier.clusterings)
        for i, m in zip(range(hier.L + 1), metrics):
            cl = hier.clustering(i)
            cl_next = hier.clustering(i + 1)
            pos = {cid: k for k, cid in enumerate(m.ids)}
            _, gap = active_virtual_edges(m.D, m.ids, cl.cluster_level, i)
            add("active-cluster-gap", i, t, gap >= min(1 << i, 1 << 62))

            fi = out.forest.get(i, [])
            finh = [ve for ve in fi if ve.inherited]

            edges_ok = True
            uf = UnionFind()
            for ve in fi:
                if ve.c1 not in pos or ve.c2 not in pos or ve.c1 == ve.c2:
                    edges_ok = False
                    break
                if cl.cluster_level[ve.c1] < i or cl.cluster_level[ve.c2] < i:
                    edges_ok = False
                    break
                if int(m.D[pos[ve.c1], pos[ve.c2]]) >= level_threshold(i):
                    edges_ok = False
                    break
                if not uf.union(ve.c1, ve.c2):
                    edges_ok = False  # cycle in the chosen forest
                    break
            add("virtual-edge-valid", i, t, edges_ok)

            contracted = contract_clustering(cl, [ve.endpoints for ve in fi], i + 1,
                                             hier.term_levels)
            add("forest-contracts-to-next", i, t,
                contracted.assignment == cl_next.assignment)
            add("count-identity-forest", i, t,
                len(fi) == len(cl.cluster_ids) - len(cl_next.cluster_ids))
            cinh_i = out.cinh.get(i)
            if cinh_i is not None:
                add("count-identity-inherited", i, t,
                    len(finh) == len(cl.cluster_ids) - len(cinh_i.cluster_ids))
                rebuilt_cinh = contract_clustering(cl, [ve.endpoints for ve in finh], i,
                                                   hier.term_levels)
                add("cinh-matches-forest", i, t,
                    rebuilt_cinh.assignment == cinh_i.assignment)

            budget_ok = True
            connect_ok = True
            for ve in fi:
                cost = sum(view.d(a, b) for a, b in ve.eorig)
                if cost > level_threshold(ve.level):
                    budget_ok = False
                uf2 = UnionFind(cl.cluster_ids)
                for a, b in list(ve.eorig) + [e for e, _ in out.pinned_after]:
                    uf2.union(cl.assignment[a], cl.assignment[b])
                if uf2.find(ve.c1) != uf2.find(ve.c2):
                    connect_ok = False
            add("edge-budget", i, t, budget_ok)
            add("realization-connects", i, t, connect_ok)

            if prev_out is not None:
                ok41 = check_refinement(prev_out.hierarchy.clustering(i), cl)
                add("refine-across-arrivals", i, t, ok41)
                if cinh_i is not None:
                    ok43 = check_refinement(prev_out.hierarchy.clustering(i + 1), cinh_i)
                    add("refine-into-inherited", i, t, ok43)

                prov_ok = True
                prev_forest = {pe.endpoints: pe for pe in prev_out.forest.get(i, [])}
                for ve in finh:
                    pe = prev_forest.get(ve.parent)
                    if pe is None or pe.eorig != ve.eorig:
                        prov_ok = False
                        break
                    d1 = cl.assignment[pe.c1]
                    d2 = cl.assignment[pe.c2]
                    if {d1, d2} != {ve.c1, ve.c2} or d1 == d2:
                        prov_ok = False
                        break
                add("inheritance-provenance", i, t, prov_ok)
            # The top clustering index gets the cross-arrival check too.
            if prev_out is not None and i == hier.L:
                add("refine-across-arrivals", hier.L + 1, t,
                    check_refinement(prev_out.hierarchy.clustering(hier.L + 1),
                                     hier.clustering(hier.L + 1)))

        prev_snapshot = prev_out.snapshot.edges if prev_out is not None else frozenset()
        ins = len(out.snapshot.edges - prev_snapshot)
        dels = len(prev_snapshot - out.snapshot.edges)
        add("ledger-diff", None, t,
            (ins, dels) == (out.ledger.insertions, out.ledger.deletions),
            f"ins={ins} dels={dels}")
        add("buffer-bound", None, t, out.ledger.buffer_end < trace.lam,
            f"|B|={out.ledger.buffer_end}")
        prev_out = out

    led = trace.ledger
    bound = 2 * n + 21 * n * trace.lam
    if trace.nhat_doubling:
        add("recourse-bound", None, None, led.deletions_total <= led.insertions_total,
            f"ins={led.insertions_total} (doubling mode: 2n+21n*lam not asserted)")
    else:
        add("recourse-bound", None, None,
            led.insertions_total <= bound and led.deletions_total <= led.insertions_total,
            f"ins={led.insertions_total} bound={bound}")


def _witness_pass(trace, add, ratios, opt_final, levels=None):
    final = trace.final()
    view = trace.instance.view(trace.n)
    top = final.hierarchy.top
    max_dual_ratio = None
    if levels is None:
        levels = range(final.hierarchy.L + 1)
    for i in levels:
        try:
            witness = build_dual_witness(trace, i)
        except WitnessError as err:
            add("witness-invariants", i, err.t, False, str(err))
            continue
        add("witness-invariants", i, None, True,
            f"|X|={len(witness.final_sources)}")
        dual = grow_balls(view, witness.final_sources, radius(i))
        ok, detail = check_dual_feasibility(dual, view, top)
        add("dual-feasible", i, None, ok, detail)
        ok, d_val, detail = witness_value_identity(witness, trace, dual)
        add("value-identity", i, None, ok, detail or f"D={d_val}")
        merge_budget = sum(witness.noninherited_counts) * level_threshold(i)
        add("linkage-4d", i, None, Fraction(merge_budget) == 4 * d_val,
            f"sum*2^(i+1)={merge_budget} 4D={4 * d_val}")
        if opt_final:
            ratio = Fraction(merge_budget, opt_final)
            key = f"merge-budget/OPT@L{i}"
            ratios[key] = float(ratio)
            if max_dual_ratio is None or ratio > max_dual_ratio:
                max_dual_ratio = ratio
    if max_dual_ratio is not None:
        ratios["merge-budget/OPT-max"] = float(max_dual_ratio)
        ratios["D/OPT-max"] = float(max_dual_ratio / 4)


def check_run(trace, opt_per_arrival=None, with_witness=True,
              witness_levels=None) -> CertReport:
    """Re-verify a recorded run and measure its ratios against the oracle.

    opt_per_arrival maps t -> exact optimum cost (arrivals past the oracle
    limit simply absent). witness_levels narrows the witness pass to the
    given levels (default: all of 0..L). Ratios are reported, never asserted
    against the analysis constants; structural and witness checks are exact
    pass/fail.
    """
    entries: list[CheckEntry] = []

    def add(check, level, arrival, ok, value=""):
        entries.append(CheckEntry(check, level, arrival,
                                  "pass" if ok else "fail", value if value else ""))

    _structural_pass(trace, add)

    ratios: dict = {}
    opt_per_arrival = opt_per_arrival or {}
    opt_final = opt_per_arrival.get(trace.n)
    max_ratio = None
    for out in trace.arrivals:
        opt_t = opt_per_arrival.get(out.t)
        if opt_t:
            r = Fraction(out.snapshot.cost, opt_t)
            if max_ratio is None or r > max_ratio:
                max_ratio = r
    if max_ratio is not None:
        ratios["cost/OPT-max"] = float(max_ratio)
    if opt_final:
        final = trace.final()
        ratios["pinned/OPT"] = float(Fraction(final.cost_pinned, opt_final))
        ratios["forestforming/OPT"] = float(Fraction(final.cost_forestforming, opt_final))
        h = final.hierarchy
        budget = sum(
            (len(h.clustering(i).cluster_ids) - len(h.clustering(i + 1).cluster_ids))
            * level_threshold(i)
            for i in range(h.L + 1)
        )
        ratios["hierarchy-budget/OPT"] = float(Fraction(budget, opt_final))

    if with_witness:
        _witness_pass(trace, add, ratios, opt_final, witness_levels)

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
