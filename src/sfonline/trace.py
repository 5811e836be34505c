"""Run driver and on-disk traces.

A run trace is everything the certifier needs to re-verify a run without
re-executing it: per arrival, the clustering hierarchy, the chosen forests
with their realized edge sets (the inherited-only clusterings follow from
these), the pin set, and the snapshot. On disk a trace is a directory of
plain-text files (instance + meta + one JSON document per arrival), so runs
and certification are decoupled and traces from other implementations can
be checked for conformance.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import os

from .clustering import Clustering, Hierarchy, terminal_levels
from .errors import FormatError
from .forest import (
    ArrivalLedger,
    ArrivalOutcome,
    OnlineState,
    PinEvent,
    Snapshot,
    VirtualEdge,
    advance,
)
from .metric import Instance, load_instance_file, save_instance_file

TRACE_FORMAT = 2


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


def _arrival_payload(out: ArrivalOutcome) -> dict:
    """An arrival's JSON document, less its clusterings."""
    led = out.ledger
    return {
        "t": out.t,
        "L": out.hierarchy.L,
        "forest": {
            str(i): [
                {
                    "c1": ve.c1,
                    "c2": ve.c2,
                    "inherited": ve.inherited,
                    "parent": list(ve.parent) if ve.parent else None,
                    "eorig": _edge_list(ve.eorig),
                    "created_at": ve.created_at,
                }
                for ve in entries
            ]
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


def _arrival_json(out: ArrivalOutcome) -> str:
    """The arrival's document as `json.dumps(..., sort_keys=True)` would
    write it, with every clustering's member lists as a list per level.
    Levels share Clustering objects, so each distinct one is encoded once and
    its text spliced in wherever it occurs."""
    encoded = {}

    def members(cl):
        if cl not in encoded:
            encoded[cl] = json.dumps([cl.members[cid] for cid in cl.cluster_ids],
                                     separators=_SEPARATORS)
        return encoded[cl]

    parts = {key: json.dumps(value, sort_keys=True, separators=_SEPARATORS)
             for key, value in _arrival_payload(out).items()}
    parts["clusterings"] = "[" + ",".join(map(members, out.hierarchy.clusterings)) + "]"
    return "{" + ",".join(f'"{key}":{parts[key]}' for key in sorted(parts)) + "}"


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
    for out in trace.arrivals:
        path = os.path.join(dirpath, f"arrival_{out.t:04d}.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_arrival_json(out))
            fh.write("\n")


def _clustering_from_members(member_lists, levels):
    """A stored level's clustering, in one pass; ValueError unless its integer
    member lists are nonempty and partition the arrived terminals, one per
    entry of `levels`."""
    T = len(levels)
    lists = sorted(map(sorted, member_lists))  # a cluster's id is its least member
    if [] in lists or sorted(itertools.chain(*lists)) != list(range(T)):
        raise ValueError("cluster member lists do not partition the arrived terminals")
    assignment, level = [0] * T, {}
    for ms in lists:
        top = 0
        for k in ms:
            assignment[k] = ms[0]
            top = levels[k] if levels[k] > top else top
        level[ms[0]] = top
    return Clustering.from_parts(tuple(assignment), {ms[0]: tuple(ms) for ms in lists}, level)


def _hierarchy_from_payload(payload, levels) -> Hierarchy:
    L = _int(payload["L"])
    if L != max(levels):
        raise ValueError(f"L={L} but the top terminal level is {max(levels)}")
    stored = payload["clusterings"]
    if len(stored) != L + 2:
        raise ValueError(f"{len(stored)} clusterings stored, want L+2 = {L + 2}")
    # A level whose member lists repeat the previous level's shares its object.
    clusterings = []
    for i, member_lists in enumerate(stored):
        clusterings.append(clusterings[-1] if i and member_lists == stored[i - 1]
                           else _clustering_from_members(member_lists, levels))
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


def _outcome_from_payload(instance, t, payload) -> ArrivalOutcome:
    levels = terminal_levels(instance.view(t))
    # JSON true and 1.0 equal 1, so members are type-checked before levels are compared.
    if set(map(type, itertools.chain(*itertools.chain(*payload["clusterings"])))) - {int}:
        raise TypeError("cluster members must be integers")
    hier = _hierarchy_from_payload(payload, levels)
    # Level keys are canonical: "7" names level 7, "07" and "+7" name none.
    level_of = {str(i): i for i in range(hier.L + 1)}
    forest = {}
    for key, entries in payload["forest"].items():
        if key not in level_of:
            raise ValueError(f"level key {key!r} is not one of 0..{hier.L}")
        i = level_of[key]
        forest[i] = [
            VirtualEdge(
                level=i,
                c1=_int(rec["c1"]),
                c2=_int(rec["c2"]),
                inherited=_bool(rec["inherited"]),
                parent=_edge(rec["parent"]) if rec["parent"] else None,
                eorig=frozenset(_edge(e) for e in rec["eorig"]),
                created_at=_int(rec["created_at"]),
            )
            for rec in entries
        ]
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
        t=t,
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

    outcomes = []
    for t in range(1, instance.n + 1):
        path = os.path.join(dirpath, f"arrival_{t:04d}.json")
        with _malformed(path):
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            if _int(payload["t"]) != t:
                raise ValueError(f"stores t={payload['t']}")
            out = _outcome_from_payload(instance, t, payload)
        outcomes.append(out)
    return RunTrace(instance, lam, outcomes)
