"""Run driver and on-disk traces.

A run trace is everything the certifier needs to re-verify a run without
re-executing it: per arrival, the clustering hierarchy, the chosen forests
with their realized edge sets (the inherited-only clusterings follow from
these), the pin set, and the snapshot. On disk a trace is a directory of
plain-text files (instance + meta + one JSON document per arrival), so runs
and certification are decoupled and traces from other implementations can
be checked for conformance.

An arrival's clusterings and inherited forest entries are stored as a
delta against the arrival before, so the loader needs only that arrival
and rebuilds a level in O(changed members) Python steps.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import operator
import os

from .clustering import Hierarchy
from .errors import FormatError
from .forest import (
    ARRIVAL_ZERO,
    ArrivalLedger,
    ArrivalOutcome,
    OnlineState,
    PinEvent,
    Snapshot,
    VirtualEdge,
    advance,
)
from .metric import Instance, load_instance_file, save_instance_file

TRACE_FORMAT = 3


@dataclasses.dataclass
class RunTrace:
    instance: Instance
    lam: int
    arrivals: list  # ArrivalOutcome per arrival

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def insertions_total(self) -> int:
        return sum(out.ledger.insertions for out in self.arrivals)

    @property
    def deletions_total(self) -> int:
        return sum(out.ledger.deletions for out in self.arrivals)

    def final(self) -> ArrivalOutcome:
        return self.arrivals[-1]

    def with_previous(self):
        """(previous outcome, outcome) per arrival, ARRIVAL_ZERO before the first."""
        return itertools.pairwise(itertools.chain((ARRIVAL_ZERO,), self.arrivals))


def iter_online(instance: Instance, lam: int):
    """Run the online algorithm, yielding its state after each arrival.

    The state holds the latest arrival's outcome, with its hierarchy, and
    that hierarchy's virtual edges and metrics; advancing the generator
    replaces them, so a caller reads each arrival's before asking for the
    next.
    """
    state = OnlineState(instance, lam)
    for pair in instance.demands:
        advance(state, pair)
        yield state


def run_online(instance: Instance, lam: int) -> RunTrace:
    """Run the online algorithm over the full demand sequence."""
    return RunTrace(instance, lam, [state.last_outcome for state in iter_online(instance, lam)])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _edge_list(edges):
    return [list(e) for e in sorted(edges)]


_SEPARATORS = (",", ":")


def _parents(prev) -> dict | None:
    """The previous arrival's forest entries by (level, endpoints), the last
    of equal ones: where an inherited entry looks up its parent. None after
    ARRIVAL_ZERO: the first arrival's entries state all their fields."""
    return None if prev.t == 0 else {(i, (pe.c1, pe.c2)): pe for i, entries in prev.forest.items()
                                     for pe in entries}


# Stands in for the parent of an inherited entry that has none: the fields
# such an entry omits are unknown, and inheritance-provenance FAILs.
_NO_PARENT = VirtualEdge(-1, -1, -1, False, None, frozenset(), None)


def _parent_entry(parents, i, parent, inherited):
    """The entry whose omitted fields a level-i entry shares: its parent,
    `_NO_PARENT` if it has none, and None if it is fresh or the arrival is
    the first."""
    return parents.get((i, parent), _NO_PARENT) if inherited and parents is not None else None


def _forest_entry(ve, pe) -> dict:
    """A forest entry's record. An inherited entry omits `eorig` and
    `created_at` where they equal those of its parent `pe`; with `pe` None
    the entry states both."""
    rec = {"c1": ve.c1, "c2": ve.c2, "inherited": ve.inherited,
           "parent": list(ve.parent) if ve.parent else None}
    if pe is None or pe.eorig != ve.eorig:
        rec["eorig"] = _edge_list(ve.eorig)
    if pe is None or pe.created_at != ve.created_at:
        rec["created_at"] = ve.created_at
    return rec


def _delta(cl, base) -> list:
    """Member lists, in id order, of the clusters of `cl` that are not
    clusters of `base` grown by the terminals past it as singletons."""
    # A cluster differs from the grown one with its id iff it holds a
    # terminal that moved, or the id of a cluster that one left.
    a, b = cl.assignment, base.assignment + tuple(range(len(base.assignment), len(cl.assignment)))
    moved = list(itertools.compress(range(len(a)), map(operator.ne, a, b)))
    return [cl.members[cid] for cid in sorted({a[k] for k in moved}.union(a[b[k]] for k in moved))]


def _arrival_payload(out: ArrivalOutcome, prev) -> dict:
    """An arrival's JSON document; `prev` is the previous arrival's outcome,
    against which its levels and inherited forest entries are stored."""
    led = out.ledger
    parents = _parents(prev)
    return {
        "t": out.t,
        "L": out.hierarchy.L,
        "clusterings": [_delta(cl, prev.hierarchy.clustering(i))
                        for i, cl in enumerate(out.hierarchy.clusterings)],
        "forest": {
            str(i): [_forest_entry(ve, _parent_entry(parents, i, ve.parent, ve.inherited))
                     for ve in entries]
            for i, entries in sorted(out.forest.items())
        },
        "pinned": [[list(e), pt] for e, pt in out.pinned_after],
        "snapshot": _edge_list(out.snapshot.edges),
        "cost_f": out.snapshot.cost,
        "cost_pinned": out.cost_pinned,
        "cost_forestforming": out.cost_forestforming,
        "ledger": {
            "insertions": led.insertions,
            "deletions": led.deletions,
            "pins_added": led.pins_added,
            "buffer_end": led.buffer_end,
            "pin_events": [
                {
                    "kind": ev.kind,
                    "level": ev.level,
                    "edges": _edge_list(ev.edges),
                    "cost": ev.cost,
                    "source_size": ev.source_size,
                }
                for ev in led.pin_events
            ],
        },
    }


def save_trace(trace: RunTrace, dirpath) -> None:
    os.makedirs(dirpath, exist_ok=True)
    save_instance_file(trace.instance, os.path.join(dirpath, "instance.sfo"))
    meta = {
        "format": TRACE_FORMAT,
        "lam": trace.lam,
        "n": trace.n,
        "arrivals": len(trace.arrivals),
    }
    with open(os.path.join(dirpath, "meta.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, sort_keys=True, separators=_SEPARATORS)
        fh.write("\n")
    for prev, out in trace.with_previous():
        path = os.path.join(dirpath, f"arrival_{out.t:04d}.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(_arrival_payload(out, prev), sort_keys=True,
                                separators=_SEPARATORS))
            fh.write("\n")


def _hierarchy_from_payload(payload, view, prev) -> Hierarchy:
    """The stored hierarchy of arrival `view.t`, each level grown from
    `prev`'s same level (the previous arrival's hierarchy)."""
    levels = view.levels
    L = _int(payload["L"])
    if L != max(levels):
        raise ValueError(f"L={L} but the top terminal level is {max(levels)}")
    stored = payload["clusterings"]
    if len(stored) != L + 2:
        raise ValueError(f"{len(stored)} clusterings stored, want L+2 = {L + 2}")
    # JSON true and 1.0 equal 1, so members are type-checked before levels are compared.
    if set(map(type, itertools.chain(*itertools.chain(*stored)))) - {int}:
        raise TypeError("cluster members must be integers")
    # A level equal to the level below shares its object, as in a run.
    clusterings = []
    for i, delta in enumerate(stored):
        cl = prev.clustering(i).grown(levels, delta)
        if i and cl.assignment == clusterings[-1].assignment:
            cl = clusterings[-1]
        clusterings.append(cl)
    return Hierarchy(L, tuple(clusterings))


def _int(value):
    """`value` if it is an integer (not a bool), else TypeError."""
    if type(value) is not int:
        raise TypeError(f"want an integer, got {value!r}")
    return value


def _bool(value):
    """`value` if it is a JSON bool, else TypeError."""
    if type(value) is not bool:
        raise TypeError(f"want a bool, got {value!r}")
    return value


def _pin_kind(value):
    """`value` if it is a pin event kind, else ValueError."""
    if value not in ("batch", "single"):
        raise ValueError(f"want pin kind 'batch' or 'single', got {value!r}")
    return value


def _edge(value):
    """`value` as an edge: two integers, not bools (else TypeError or ValueError)."""
    a, b = value
    return _int(a), _int(b)


@contextlib.contextmanager
def _malformed(path):
    """Report an unreadable file, bad JSON (a ValueError), a missing key or a
    wrong-typed value in `path` as a FormatError naming the file."""
    try:
        yield
    except (OSError, AttributeError, KeyError, TypeError, ValueError) as err:
        raise FormatError(f"bad trace file {path}: {type(err).__name__}: {err}") from err


def _virtual_edge(i, rec, parents) -> VirtualEdge:
    """A stored level-i forest entry; an inherited one's omitted `eorig` and
    `created_at` are its parent's, the parent's frozenset reused. At the
    first arrival (`parents` None) an omitted field is a KeyError."""
    inherited = _bool(rec["inherited"])
    parent = _edge(rec["parent"]) if rec["parent"] else None
    pe = _parent_entry(parents, i, parent, inherited)
    eorig = frozenset(map(_edge, rec["eorig"])) if pe is None or "eorig" in rec else pe.eorig
    created_at = (_int(rec["created_at"]) if pe is None or "created_at" in rec
                  else pe.created_at)
    return VirtualEdge(i, _int(rec["c1"]), _int(rec["c2"]), inherited, parent, eorig, created_at)


def _outcome_from_payload(view, payload, prev) -> ArrivalOutcome:
    """Arrival `view.t` from its document and the previous arrival's outcome."""
    hier = _hierarchy_from_payload(payload, view, prev.hierarchy)
    # Level keys are canonical: "7" names level 7, "07" and "+7" name none.
    level_of = {str(i): i for i in range(hier.L + 1)}
    parents = _parents(prev)
    forest = {}
    for key, entries in payload["forest"].items():
        if key not in level_of:
            raise ValueError(f"level key {key!r} is not one of 0..{hier.L}")
        i = level_of[key]
        forest[i] = [_virtual_edge(i, rec, parents) for rec in entries]
    pinned_after = tuple((_edge(e), _int(pt)) for e, pt in payload["pinned"])
    snapshot = Snapshot(frozenset(_edge(e) for e in payload["snapshot"]),
                        _int(payload["cost_f"]))
    led = payload["ledger"]
    entry = ArrivalLedger(
        insertions=_int(led["insertions"]),
        deletions=_int(led["deletions"]),
        pins_added=_int(led["pins_added"]),
        pin_events=tuple(
            PinEvent(_pin_kind(ev["kind"]), _int(ev["level"]),
                     tuple(_edge(e) for e in ev["edges"]), _int(ev["cost"]),
                     _int(ev["source_size"]))
            for ev in led["pin_events"]
        ),
        buffer_end=_int(led["buffer_end"]),
    )
    return ArrivalOutcome(
        t=view.t,
        hierarchy=hier,
        forest=forest,
        pinned_after=pinned_after,
        snapshot=snapshot,
        ledger=entry,
        cost_pinned=_int(payload["cost_pinned"]),
        cost_forestforming=_int(payload["cost_forestforming"]),
    )


def load_trace(dirpath) -> RunTrace:
    meta_path = os.path.join(dirpath, "meta.json")
    with _malformed(meta_path):
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        if type(meta.get("format")) is not int or meta["format"] != TRACE_FORMAT:
            raise ValueError(f"unsupported trace format {meta.get('format')!r}")
        lam = _int(meta["lam"])
        if lam < 1:
            raise ValueError(f"lam={lam} is below 1")
    instance = load_instance_file(os.path.join(dirpath, "instance.sfo"))
    with _malformed(meta_path):
        for key in ("n", "arrivals"):
            if _int(meta[key]) != instance.n:
                raise ValueError(f"{key}={meta[key]} but the instance has n={instance.n}")

    outcomes, out = [], ARRIVAL_ZERO
    for t in range(1, instance.n + 1):
        path = os.path.join(dirpath, f"arrival_{t:04d}.json")
        with _malformed(path):
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            if _int(payload["t"]) != t:
                raise ValueError(f"stores t={payload['t']}")
            out = _outcome_from_payload(instance.view(t), payload, out)
        outcomes.append(out)
    return RunTrace(instance, lam, outcomes)
