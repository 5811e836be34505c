import dataclasses
import hashlib
import json
import operator
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfonline import clustering, metric
from sfonline.certify import check_run
from sfonline.clustering import (
    ContractedMetric,
    Hierarchy,
    active_virtual_edges,
    build_hierarchy,
    level_metrics,
)
from sfonline.cli import main
from sfonline.errors import FormatError
from sfonline.metric import GENERATOR_KINDS, GeneratorSpec, generate_instance
from sfonline.trace import load_trace, run_online, save_trace

from conftest import clustering_of, inherited_clusterings, line_instance


def _recomputed_vgraphs(view, hier):
    """H_0 .. H_L derived from a hierarchy's clusterings alone."""
    metrics = level_metrics(view.dist_matrix(), hier.clusterings)
    return tuple(active_virtual_edges(m.D, m.ids, hier.clustering(i).cluster_level, i)[0]
                 for i, m in zip(range(hier.L + 1), metrics))


def test_trace_roundtrip(tmp_path, w1):
    line = generate_instance(GeneratorSpec(kind="line-chain", n=8, seed=1))
    reused = fresh = 0
    for name, inst, lam in (("w1", w1, 1), ("line", line, 2)):
        trace = run_online(inst, lam=lam)
        d = tmp_path / name
        save_trace(trace, d)
        loaded = load_trace(d)
        assert loaded.instance == trace.instance
        assert loaded.lam == lam
        for a, b in zip(trace.arrivals, loaded.arrivals, strict=True):
            assert a.snapshot == b.snapshot
            assert a.pinned_after == b.pinned_after
            assert a.ledger == b.ledger
            assert {i: [(ve.endpoints, ve.inherited, ve.eorig) for ve in entries]
                    for i, entries in a.forest.items()} == \
                   {i: [(ve.endpoints, ve.inherited, ve.eorig) for ve in entries]
                    for i, entries in b.forest.items()}
            assert [c.assignment for c in a.hierarchy.clusterings] == \
                   [c.assignment for c in b.hierarchy.clusterings]
            # Levels whose stored member lists repeat share one loaded object.
            cls = b.hierarchy.clusterings
            for prev, cl in zip(cls, cls[1:]):
                assert (cl is prev) == (cl.assignment == prev.assignment)
            # A C_inh derived from the loaded trace is the C_i or C_{i+1}
            # object exactly when it equals that level (C_i first).
            run_cinh = inherited_clusterings(a)
            for i, cl in inherited_clusterings(b).items():
                assert cl.assignment == run_cinh[i].assignment
                same = [c for c in (cls[i], cls[i + 1]) if c.assignment == cl.assignment]
                if same:
                    assert cl is same[0]
                    reused += 1
                else:
                    assert all(cl is not c for c in cls)
                    fresh += 1
            # The loader keeps no virtual graphs; derived from the loaded
            # clusterings they are the run's.
            view = inst.view(b.t)
            assert _recomputed_vgraphs(view, b.hierarchy) == build_hierarchy(view)[1]
    assert reused and fresh
    assert sorted(os.listdir(tmp_path / "w1")) == [
        "arrival_0001.json", "arrival_0002.json", "instance.sfo", "meta.json"]


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_loaded_clusterings_equal_the_runs(tmp_path, kind):
    trace = run_online(generate_instance(GeneratorSpec(kind=kind, n=12, seed=3)), lam=2)
    save_trace(trace, tmp_path / "t")
    fields = operator.attrgetter("assignment", "members", "cluster_ids", "cluster_level")
    for run, loaded in zip(trace.arrivals, load_trace(tmp_path / "t").arrivals, strict=True):
        assert ([fields(cl) for cl in loaded.hierarchy.clusterings]
                == [fields(cl) for cl in run.hierarchy.clusterings])
        # Levels share objects as in the run, also where the stored deltas
        # of two equal levels differ (once on euclidean).
        shared = [[a is b for a, b in zip(out.hierarchy.clusterings, out.hierarchy.clusterings[1:])]
                  for out in (run, loaded)]
        assert shared[0] == shared[1]
        assert ({i: fields(cl) for i, cl in inherited_clusterings(loaded).items()}
                == {i: fields(cl) for i, cl in inherited_clusterings(run).items()})


def test_load_trace_builds_no_contracted_metric(tmp_path, monkeypatch):
    inst = generate_instance(GeneratorSpec(kind="euclidean", n=6, seed=1))
    save_trace(run_online(inst, lam=2), tmp_path / "t")

    def refuse(*args):
        raise AssertionError("load_trace built a contracted metric")

    monkeypatch.setattr(ContractedMetric, "of", refuse)
    monkeypatch.setattr(ContractedMetric, "coarsen", refuse)
    monkeypatch.setattr(ContractedMetric, "extend", refuse)
    assert len(load_trace(tmp_path / "t").arrivals) == inst.n


def test_loaded_trace_certifies(tmp_path):
    inst = generate_instance(GeneratorSpec(kind="random-metric", n=5, seed=4, scale=30))
    trace = run_online(inst, lam=2)
    save_trace(trace, tmp_path / "t")
    loaded = load_trace(tmp_path / "t")
    report = check_run(loaded)
    assert report.ok, report.failures()[:3]


def test_trace_bytes_deterministic(tmp_path):
    inst = generate_instance(GeneratorSpec(kind="euclidean", n=4, seed=6))
    for sub in ("a", "b"):
        save_trace(run_online(inst, lam=2), tmp_path / sub)
    for name in os.listdir(tmp_path / "a"):
        with open(tmp_path / "a" / name, "rb") as fa, open(tmp_path / "b" / name, "rb") as fb:
            assert fa.read() == fb.read(), name


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_arrival_files_are_canonical_and_resave_byte_for_byte(tmp_path, kind):
    # Every file is the canonical dump of its document, and a loaded trace,
    # whose arrivals the writer diffs against each other again, saves to the
    # same files.
    save_trace(run_online(generate_instance(GeneratorSpec(kind=kind, n=9, seed=2)), lam=2),
               tmp_path / "a")
    save_trace(load_trace(tmp_path / "a"), tmp_path / "b")
    for name in sorted(os.listdir(tmp_path / "a")):
        text = (tmp_path / "a" / name).read_text()
        assert (tmp_path / "b" / name).read_text() == text, name
        if name.endswith(".json"):
            doc = json.loads(text)
            assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", name


def _edited(change):
    """Arrival-file rewrite that applies `change` to the parsed payload."""
    def edit(text):
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload)
    return edit


def _set_leaf(payload, path, value):
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _setting(path, value):
    return _edited(lambda p: _set_leaf(p, path, value))


def _meta(**fields):
    return "meta.json", _edited(lambda p: p.update(fields))


def _copying(field, key, alias):
    """Store payload[field][key] again under the key `alias`."""
    return _edited(lambda p: p[field].update({alias: p[field][key]}))


def _pad_top(payload):
    payload["clusterings"].append(payload["clusterings"][-1])
    payload["L"] += 1


def _first_arrival_inherited_omitting(field):
    """Edit of arrival 1's document: its level-9 fresh entry marked inherited,
    with `field` dropped. No arrival precedes it to fill the field in."""
    def edit(payload):
        entry = payload["forest"]["9"][0]
        entry.update(inherited=True, parent=[entry["c1"], entry["c2"]])
        del entry[field]
    return "arrival_0001.json", _edited(edit)


# case -> (file, edit of its text); the trace is euclidean n=3, lambda=2.
ARRIVAL = "arrival_0002.json"
TAMPERINGS = {
    "truncated-json": (ARRIVAL, lambda text: text[: len(text) // 2]),
    "missing-forest": (ARRIVAL, _edited(lambda p: p.pop("forest"))),
    "buffer-end-str": (ARRIVAL, _edited(lambda p: p["ledger"].update(buffer_end="x"))),
    "cost-f-null": (ARRIVAL, _edited(lambda p: p.update(cost_f=None))),
    # One per edge-valued field; the untampered arrival has level-8 fresh
    # edges, an inherited level-9 edge and one single pin.
    "snapshot-endpoint-bool": (ARRIVAL, _setting(("snapshot", 0, 1), True)),
    "pinned-endpoint-str": (ARRIVAL, _setting(("pinned", 0, 0, 1), "x")),
    "pinned-arrival-float": (ARRIVAL, _setting(("pinned", 0, 1), 2.5)),
    "eorig-endpoint-float": (ARRIVAL, _setting(("forest", "8", 0, "eorig", 0, 1), 2.5)),
    "parent-endpoint-list": (ARRIVAL, _setting(("forest", "9", 0, "parent", 1), [1])),
    "pin-event-endpoint-null": (ARRIVAL,
                                _setting(("ledger", "pin_events", 0, "edges", 0, 0), None)),
    # Scalars the loader passes on: the inherited flag and the pin event.
    "inherited-str": (ARRIVAL, _setting(("forest", "9", 0, "inherited"), "x")),
    "inherited-one": (ARRIVAL, _setting(("forest", "9", 0, "inherited"), 1)),
    "inherited-zero": (ARRIVAL, _setting(("forest", "9", 0, "inherited"), 0)),
    # Only an inherited entry may omit its realization: this one is marked fresh.
    "fresh-omits-eorig": (ARRIVAL, _setting(("forest", "9", 0, "inherited"), False)),
    # Nor may one at the first arrival, which has no previous forest.
    "first-arrival-omits-eorig": _first_arrival_inherited_omitting("eorig"),
    "first-arrival-omits-created-at": _first_arrival_inherited_omitting("created_at"),
    "pin-kind-int": (ARRIVAL, _setting(("ledger", "pin_events", 0, "kind"), 7)),
    "pin-kind-unknown": (ARRIVAL, _setting(("ledger", "pin_events", 0, "kind"), "x")),
    "pin-level-null": (ARRIVAL, _setting(("ledger", "pin_events", 0, "level"), None)),
    "pin-cost-str": (ARRIVAL, _setting(("ledger", "pin_events", 0, "cost"), "x")),
    "pin-source-size-list": (ARRIVAL,
                             _setting(("ledger", "pin_events", 0, "source_size"), [1])),
    # The top clustering stored twice, with L raised to match.
    "top-level-padded": (ARRIVAL, _edited(_pad_top)),
    # ... or one clustering short of L+2.
    "clustering-missing": (ARRIVAL, _edited(lambda p: p["clusterings"].pop())),
    "meta-arrivals-short": _meta(arrivals=2),
    "meta-arrivals-long": _meta(arrivals=4),
    "meta-arrivals-float": _meta(arrivals=2.5),
    "meta-arrivals-zero": _meta(arrivals=0),
    "meta-n-wrong": _meta(n=4),
    "meta-lam-float": _meta(lam=2.9),
    "meta-lam-zero": _meta(lam=0),
    # Scalars and keys that must be canonical: the format and t are integers,
    # and a level key is str(i) for a level 0 <= i <= L (L = 10 here).
    "meta-format-bool": _meta(format=True),
    # Format 1 stored C_inh, format 2 every level whole; this loader reads
    # format 3 only.
    "meta-format-1": _meta(format=1),
    "meta-format-2": _meta(format=2),
    "t-bool": ("arrival_0001.json", _setting(("t",), True)),
    "t-float": (ARRIVAL, _setting(("t",), 2.0)),
    "forest-key-signed": (ARRIVAL, _copying("forest", "9", "+9")),
    "forest-key-zero-padded": (ARRIVAL, _copying("forest", "9", "09")),
    "forest-key-above-top": (ARRIVAL, _setting(("forest", "40"), [])),
}


@pytest.mark.parametrize("case", sorted(TAMPERINGS))
def test_malformed_arrival_is_a_format_error(tmp_path, capsys, case):
    name, edit = TAMPERINGS[case]
    d = tmp_path / "trace"
    save_trace(run_online(generate_instance(GeneratorSpec(kind="euclidean", n=3, seed=1)),
                          lam=2), d)
    path = d / name
    path.write_text(edit(path.read_text()))
    with pytest.raises(FormatError, match=name):
        load_trace(d)
    assert main(["certify", "--trace", str(d), "--out", str(tmp_path / "c"), "--quiet"]) == 3
    assert "error[E_FORMAT]" in capsys.readouterr().err


def _set_entry(out, level, index, **fields):
    """Replace `fields` of a decoded arrival's level-`level` forest entry `index`."""
    entries = out.forest[level]
    entries[index] = dataclasses.replace(entries[index], **fields)


def _mark_first_fresh_edge_inherited(out):
    level, index = next((i, k) for i, entries in sorted(out.forest.items())
                        for k, ve in enumerate(entries) if not ve.inherited)
    ve = out.forest[level][index]
    _set_entry(out, level, index, inherited=True, parent=ve.endpoints)


def _set_edge(level, endpoints, **fields):
    """Edit that replaces `fields` of a decoded arrival's level-`level` forest
    entry with these endpoints."""
    def edit(out):
        index = next(k for k, ve in enumerate(out.forest[level]) if ve.endpoints == endpoints)
        _set_entry(out, level, index, **fields)
    return edit


def _levels_as(labels, *levels):
    """Edit that sets a decoded arrival's C_i, for each i of `levels`, to one
    shared clustering of `labels`."""
    def edit(out):
        h = out.hierarchy
        c0 = h.clusterings[0]
        cl = clustering_of(labels, [c0.cluster_level[k] for k in range(len(c0.assignment))])
        out.hierarchy = Hierarchy(h.L, tuple(cl if i in levels else c
                                             for i, c in enumerate(h.clusterings)))
    return edit


def _edits(*changes):
    """Edit that applies each of `changes` in turn."""
    def edit(out):
        for change in changes:
            change(out)
    return edit


def _at(t, change):
    """Edit that applies `change` to arrival t only."""
    def edit(out):
        if out.t == t:
            change(out)
    return edit


def _drop_pin(edge):
    """Edit that drops `edge` from a decoded arrival's pinned list."""
    def edit(out):
        out.pinned_after = tuple(p for p in out.pinned_after if p[0] != edge)
    return edit


# case -> (arrival or tuple of arrivals, edit applied to each decoded arrival,
# substrings of the certify.csv FAIL rows[, generator spec of the traced
# instance, if not euclidean n=4 seed 1]). The edited trace is saved again
# with save_trace, so each case states what the trace says, not how its files
# spell it.
SEMANTIC_TAMPERINGS = {
    "costs-set-to-one": (
        4,
        lambda out: vars(out).update(cost_pinned=1, cost_forestforming=1),
        ["snapshot-consistency,,4,fail,cost_pinned=1 rederived=",
         " cost_forestforming=1 rederived="]),
    # Arrival 2's first forest entry is level 8's fresh (1,2).
    "eorig-not-arrived": (
        2,
        lambda out: _set_entry(out, 8, 0, eorig=frozenset({(0, 7)})),
        ["snapshot-consistency,,2,fail,edges ",
         "edge (0;7) has an endpoint not yet arrived",
         ",2,fail,edge (0;7) of ("]),
    "forest-edge-dropped": (
        4,
        lambda out: out.forest[7].pop(),
        ["forest-contracts-to-next,7,4,fail,terminal 7 in 7 want 3",
         "count-identity-forest,7,4,fail,|F_i|=2 |C_i|-|C_i+1|=3"]),
    "fresh-edge-marked-inherited": (
        4,
        _mark_first_fresh_edge_inherited,
        ["inheritance-provenance,7,4,fail,(1;6) has no parent in the previous forest"]),
    # Arrival 1's only entry, level 9's (0,1), marked inherited with its
    # fields stated: no forest precedes the first arrival.
    "first-arrival-edge-marked-inherited": (
        1,
        _mark_first_fresh_edge_inherited,
        ["inheritance-provenance,9,1,fail,(0;1) has no parent in the previous forest"]),
    "edge-to-itself": (
        4,
        lambda out: _set_entry(out, 7, 0, c2=out.forest[7][0].c1),
        ["virtual-edge-valid,7,4,fail,(1;1) does not join two clusters"]),
    # Level 8's fresh edge (0,3) realized by (0,1) instead, which does not
    # join clusters 0 and 3 even with the pins contracted.
    "eorig-does-not-connect": (
        4,
        lambda out: _set_entry(out, 8, 0, eorig=frozenset({(0, 1)})),
        ["realization-connects,8,4,fail,eorig of (0;3) does not join its clusters"]),
    # The pin ledger: arrival 4 pins (3,7) in one single event, and level 7
    # holds an inherited edge (1,5) created at arrival 3, then fresh (1,6).
    "pins-added-five": (
        4,
        lambda out: setattr(out, "ledger", dataclasses.replace(out.ledger, pins_added=5)),
        ["snapshot-consistency,,4,fail,pins_added=5 pin event edges=1"]),
    "inherited-created-at-huge": (
        4,
        lambda out: _set_entry(out, 7, 0, created_at=10**30),
        [f"inheritance-provenance,7,4,fail,(1;5) created_at={10**30} parent's=3"]),
    "fresh-created-at-huge": (
        4,
        lambda out: _set_entry(out, 7, 1, created_at=10**30),
        [f"snapshot-consistency,,4,fail,fresh (1;6) created_at={10**30}"]),
    "pin-stamped-earlier": (
        4,
        lambda out: setattr(out, "pinned_after",
                            out.pinned_after[:-1] + ((out.pinned_after[-1][0], 3),)),
        ["snapshot-consistency,,4,fail,pin (3;7) stamped 3"]),
    # Arrival 3's C_8 holds {1, 5} and its C_9 {1, 2, 3, 5}; arrival 4's C_8
    # is edited to leave 5 out of 1's cluster: {0} {1,6} {2} {3,7} {4} {5}.
    "clustering-splits-previous": (
        4,
        _levels_as([0, 1, 2, 3, 4, 5, 1, 3], 8),
        ["refine-across-arrivals,8,4,fail,fine cluster 1 split at terminal 5",
         "active-cluster-gap,8,4,fail,gap=192 2^i=256"]),
    # Now 1's cluster only shrinks, to {1}, and 5 joins 6: a cluster that
    # loses members and gains none is stored too.
    "clustering-shrinks-previous": (
        4,
        _levels_as([0, 1, 2, 3, 4, 5, 5, 3], 8),
        ["refine-across-arrivals,8,4,fail,fine cluster 1 split at terminal 5",
         "forest-contracts-to-next,8,4,fail,terminal 5 in 5 want 0"]),
    # Arrival 4 inherits level-8 edge (1,2); marked fresh, it leaves C_inh,8
    # splitting arrival 3's C_9 and the witness one source short.
    "inherited-edge-marked-fresh": (
        4,
        lambda out: _set_entry(out, 8, 1, inherited=False, parent=None),
        ["refine-into-inherited,8,4,fail,fine cluster 1 split at terminal 2",
         "witness-invariants,8,4,fail,cluster 0 offers 2 fresh sources; needs 3"]),
    # An inherited edge whose endpoint is no cluster id has no C_inh,8.
    "inherited-edge-endpoint-unknown": (
        4,
        lambda out: _set_entry(out, 8, 1, c1=99),
        ["virtual-edge-valid,8,4,fail,(99;2) does not join two clusters",
         "witness-invariants,8,4,fail,an inherited edge does not join two clusters"]),
    "pin-event-dropped": (
        4,
        lambda out: setattr(out, "ledger", dataclasses.replace(out.ledger, pin_events=(),
                                                               pins_added=0)),
        ["snapshot-consistency,,4,fail,pinned grew by 1 edges not the pin events' 0"]),
    # A buffer never holds fewer than zero edges.
    "buffer-end-negative": (
        2,
        lambda out: setattr(out, "ledger", dataclasses.replace(out.ledger, buffer_end=-1)),
        ["buffer-bound,,2,fail,|B|=-1"]),
    # The cases below break the facts under which a check may be carried
    # from one arrival to the next: each must still FAIL at the later arrival.
    # Level 8's fresh (2,3) of arrival 2, inherited at arrival 3, realized at
    # both by (1,2): pinned (1,2) and the edge join 1 and 2, never 3.
    "eorig-does-not-connect-twice": (
        (2, 3),
        _set_edge(8, (2, 3), eorig=frozenset({(1, 2)})),
        ["realization-connects,8,2,fail,eorig of (2;3) does not join its clusters",
         "realization-connects,8,3,fail,eorig of (2;3) does not join its clusters"]),
    # (2,3) realized by (3,5) at arrivals 3 and 4: 5 sits in cluster 1, and
    # pinned (1,2) joins 1 to 2 at arrival 3. Arrival 4 drops that pin.
    "inherited-realization-loses-its-pin": (
        (3, 4),
        _edits(_set_edge(8, (2, 3), eorig=frozenset({(3, 5)})), _at(4, _drop_pin((1, 2)))),
        ["pinned-monotone,,4,fail,",
         "realization-connects,8,4,fail,eorig of (2;3) does not join its clusters"]),
    # Level 9's (0,4) realized by (0,2) and (3,4) at arrivals 3 and 4: at
    # arrival 3, 2 and 3 share cluster 1. Arrival 4's C_9 is split to
    # {0,1,2,5,6} {3,7} {4}, which parts them.
    "inherited-realization-split-off": (
        (3, 4),
        _edits(_set_edge(9, (0, 4), eorig=frozenset({(0, 2), (3, 4)})),
               _at(4, _levels_as([0, 0, 0, 3, 4, 0, 0, 3], 9))),
        ["refine-across-arrivals,9,4,fail,fine cluster 1 split at terminal 3",
         "realization-connects,9,4,fail,eorig of (0;4) does not join its clusters"]),
    # Arrival 4's inherited (2,3) at level 8 realized by (1,2), not its
    # parent's (2,3).
    "inherited-eorig-does-not-connect": (
        4,
        _set_edge(8, (2, 3), eorig=frozenset({(1, 2)})),
        ["inheritance-provenance,8,4,fail,(2;3) realizes other edges than its parent",
         "realization-connects,8,4,fail,eorig of (2;3) does not join its clusters"]),
    # ... or moved onto cluster 4, where its parent's image is (2,3).
    "inherited-edge-moved": (
        4,
        _set_edge(8, (2, 3), c2=4),
        ["inheritance-provenance,8,4,fail,(2;4) is not its parent's image",
         "realization-connects,8,4,fail,eorig of (2;4) does not join its clusters"]),
    # Arrival 3's (0,4) at level 9 moved to unknown cluster 99, and arrival
    # 4's (0,4) naming it as its parent: an id outside C_9 maps onto nothing.
    "parent-endpoint-unknown": (
        (3, 4),
        _edits(_at(3, _set_edge(9, (0, 4), c1=99)), _at(4, _set_edge(9, (0, 4), parent=(99, 4)))),
        ["inheritance-provenance,9,4,fail,(0;4) is not its parent's image"]),
    # Arrival 4's levels 0-6 share the singletons. New terminal 6 put into
    # old cluster 1 of C_3 = C_4 leaves level 3 with no forest and C_inh,3 =
    # C_4, but C_4 is no longer arrival 3's plus the two singletons.
    "new-terminal-in-old-cluster": (
        4,
        _levels_as([0, 1, 2, 3, 4, 5, 1, 7], 3, 4),
        ["forest-contracts-to-next,2,4,fail,terminal 6 in 6 want 1",
         "forest-contracts-to-next,4,4,fail,terminal 6 in 1 want 6"]),
    # Arrival 4's C_8 and C_9 set to arrival 3's C_9, {0} {1,2,3,5} {4}, plus
    # the two singletons, and level 8's forest dropped: level 8 is left alone,
    # but 6 lies at 253 < 2^8 from source 1.
    "new-terminal-near-a-source": (
        4,
        _edits(_levels_as([0, 1, 1, 1, 4, 1, 6, 7], 8, 9), lambda out: out.forest.pop(8)),
        ["witness-invariants,8,4,fail,sources 1;6 closer than 2r"]),
    # ... and with {1,2,3,5} split into {1,2} and {3,5}: sources 1 and 2 are
    # grown, so cluster 1 is left with no spare candidate.
    "old-cluster-split-on-a-level-left-alone": (
        4,
        _edits(_levels_as([0, 1, 1, 3, 4, 3, 6, 7], 8, 9), lambda out: out.forest.pop(8)),
        ["refine-across-arrivals,9,4,fail,fine cluster 1 split at terminal 3",
         "witness-invariants,8,4,fail,cluster 1 offers 0 fresh sources; needs 1"]),
    # A fresh entry recorded on level 3, which arrival 4 leaves alone: the
    # witness grows no source for it.
    "fresh-edge-on-unchanged-level": (
        4,
        lambda out: out.forest.update(
            {3: [dataclasses.replace(out.forest[9][0], level=3, c1=0, c2=1, inherited=False,
                                     parent=None, eorig=frozenset({(0, 1)}), created_at=4)]}),
        ["witness-invariants,3,4,fail,|X| = 0 but non-inherited count is 1"]),
    # The cases below edit a level that the arrival leaves alone: its C_i and
    # C_{i+1} are the previous arrival's plus the two new singletons, and its
    # forest is the previous one, entry for entry. Arrival 2 of line-chain
    # n=3 leaves level 0 alone, whose one entry (0,1) it inherits from
    # arrival 1 with realization {(0,1)}, created at arrival 1.
    "left-alone-inherited-eorig-differs": (
        2,
        _set_edge(0, (0, 1), eorig=frozenset({(0, 2)})),
        ["snapshot-consistency,,2,fail,edges cost_forestforming=5 rederived=8",
         "edge-budget,0,2,fail,(0;1) costs 4 > 2",
         "realization-connects,0,2,fail,eorig of (0;1) does not join its clusters",
         "inheritance-provenance,0,2,fail,(0;1) realizes other edges than its parent",
         "inheritance-provenance,0,3,fail,(0;1) realizes other edges than its parent"],
        GeneratorSpec(kind="line-chain", n=3, seed=1)),
    "left-alone-inherited-created-at-differs": (
        2,
        _set_edge(0, (0, 1), created_at=2),
        ["inheritance-provenance,0,2,fail,(0;1) created_at=2 parent's=1",
         "inheritance-provenance,0,3,fail,(0;1) created_at=1 parent's=2"],
        GeneratorSpec(kind="line-chain", n=3, seed=1)),
    "left-alone-parent-not-its-endpoints": (
        2,
        _set_edge(0, (0, 1), parent=(2, 3)),
        ["inheritance-provenance,0,2,fail,(0;1) has no parent in the previous forest"],
        GeneratorSpec(kind="line-chain", n=3, seed=1)),
    # ... its flag alone flipped, its parent still named.
    "left-alone-inherited-marked-fresh": (
        2,
        _set_edge(0, (0, 1), inherited=False),
        ["snapshot-consistency,,2,fail,fresh (0;1) created_at=1",
         "refine-into-inherited,0,2,fail,fine cluster 0 split at terminal 1",
         "witness-invariants,0,2,fail,cluster 0 offers 1 fresh sources; needs 2"],
        GeneratorSpec(kind="line-chain", n=3, seed=1)),
    # Arrival 5 of line-chain n=6 gives new terminal 8, 121 from terminal 7
    # and nearest to it, an H_6 edge to cluster 7 of C_6: 2^6 <= 121 < 2^7.
    # Its C_7 is recorded as arrival 4's plus the singletons 8 and 9, and its
    # level-6 forest as arrival 4's (6,7) alone, now inherited.
    "new-terminal-left-out-of-an-h-edge": (
        5,
        _edits(_levels_as([0, 0, 2, 2, 2, 2, 6, 6, 8, 9], 7), lambda out: out.forest[6].pop()),
        ["snapshot-consistency,,5,fail,cost_forestforming=467 rederived=346",
         "forest-contracts-to-next,6,5,fail,unmerged H_i edge (7;8) at distance 121",
         "forest-contracts-to-next,7,5,fail,terminal 8 in 8 want 6",
         "count-identity-forest,7,5,fail,|F_i|=0 |C_i|-|C_i+1|=1",
         "inheritance-provenance,6,6,fail,(7;8) has no parent in the previous forest"],
        GeneratorSpec(kind="line-chain", n=6, seed=1)),
    # Arrival 4 of random-metric n=4 seed 2 leaves level 5 alone, and its
    # inherited (0,5), realized by (3,5), joins clusters 0 and 5 only through
    # the pin (0,3), which the arrival drops.
    "left-alone-realization-loses-its-pin": (
        4,
        _drop_pin((0, 3)),
        ["pinned-monotone,,4,fail,",
         "snapshot-consistency,,4,fail,edges cost_pinned=382 rederived=287 "
         "pinned grew by 0 edges not the pin events' 1",
         "realization-connects,5,4,fail,eorig of (0;5) does not join its clusters"],
        GeneratorSpec(kind="random-metric", n=4, seed=2)),
    # A line-chain trace, whose arrival 2 holds a level with both an inactive
    # cluster and a forest edge: level 2's {0,1} is inactive, and its fresh
    # edge (2,3) is moved onto it.
    "edge-on-inactive-cluster": (
        2,
        _set_edge(2, (2, 3), c1=0, c2=2),
        ["virtual-edge-valid,2,2,fail,(0;2) touches an inactive cluster"],
        GeneratorSpec(kind="line-chain", n=3, seed=1)),
}


def tampered_trace(tmp_path, case):
    """The directory of a lambda=2 trace with tampering `case` applied to its
    decoded arrivals and saved again. The trace is of the instance the case
    names after its rows, else of the euclidean n=4 one."""
    t, change, _, *spec = SEMANTIC_TAMPERINGS[case]
    spec = spec[0] if spec else GeneratorSpec(kind="euclidean", n=4, seed=1)
    save_trace(run_online(generate_instance(spec), lam=2), tmp_path / "honest")
    trace = load_trace(tmp_path / "honest")
    for k in t if isinstance(t, tuple) else (t,):
        change(trace.arrivals[k - 1])
    d = tmp_path / "trace"
    save_trace(trace, d)
    return d


@pytest.mark.parametrize("case", sorted(SEMANTIC_TAMPERINGS))
def test_tampered_trace_gets_fail_rows(tmp_path, capsys, case):
    rows = SEMANTIC_TAMPERINGS[case][2]
    d = tampered_trace(tmp_path, case)
    assert main(["certify", "--trace", str(d), "--out", str(tmp_path / "c")]) == 1
    assert "overall: FAIL" in capsys.readouterr().out
    report = (tmp_path / "c" / "certify.csv").read_text()
    for row in rows:
        assert row in report, (row, [r for r in report.splitlines() if ",fail," in r])


def test_recourse_bound_holds_whatever_meta_says(tmp_path, capsys):
    # No meta.json key turns the bound off: a trace whose insertions pass
    # 2n + 21n*lam = 176 fails it.
    d = tmp_path / "trace"
    save_trace(run_online(generate_instance(GeneratorSpec(kind="euclidean", n=4, seed=1)),
                          lam=2), d)
    path = d / "arrival_0001.json"
    path.write_text(_edited(lambda p: p["ledger"].update(insertions=177))(path.read_text()))
    assert main(["certify", "--trace", str(d), "--out", str(tmp_path / "c")]) == 1
    assert "overall: FAIL" in capsys.readouterr().out
    assert "recourse-bound,,,fail,ins=" in (tmp_path / "c" / "certify.csv").read_text()


# case -> (path in the document, its new value, a phrase of the error). At
# arrival 2 of the euclidean n=4, lambda=2 trace, C_0 .. C_8 are the four
# singletons, C_9 is {0}, {1, 2, 3} and C_10 = C_11 is {0, 1, 2, 3}. Arrival
# 1's C_9 is {0}, {1} and its C_10 = C_11 is {0, 1}, so the stored levels
# are [] for C_0 .. C_8, [[1, 2, 3]] and twice [[0, 1, 2, 3]]. JSON true
# equals 1 and 1.0 equals 1 in Python, so a level that only compares equal
# to the one below must still be type-checked.
MEMBER_TAMPERINGS = {
    "member-true": (("clusterings", 0), [[True]], "must be integers"),
    "member-false": (("clusterings", 0), [[False]], "must be integers"),
    "member-true-repeated-level": (("clusterings", 11, 0), [0, True, 2, 3],
                                   "must be integers"),
    "member-float": (("clusterings", 0), [[1.0]], "must be integers"),
    "member-float-repeated-level": (("clusterings", 11, 0), [0, 1.0, 2, 3],
                                    "must be integers"),
    "member-str": (("clusterings", 0), [["1"]], "must be integers"),
    "member-null": (("clusterings", 0), [[None]], "must be integers"),
    "member-list-int": (("clusterings", 9, 0), 1, "TypeError"),
    "member-list-empty": (("clusterings", 9, 0), [], "is empty"),
    "member-list-extra-empty": (("clusterings", 9), [[1, 2, 3], []], "is empty"),
    "member-repeated": (("clusterings", 9, 0), [1, 2, 3, 3], "overlap"),
    "member-lists-overlap": (("clusterings", 9), [[1, 2], [2, 3]], "overlap"),
    "member-out-of-range": (("clusterings", 0), [[4]], "outside 0..3"),
    "member-not-arrived": (("clusterings", 9, 0), [1, 2, 3, 4], "outside 0..3"),
    "member-negative": (("clusterings", 0), [[-1]], "outside 0..3"),
    # {1, 2, 3} replaces arrival 1's {0, 1} at level 10 but leaves 0 out.
    "previous-cluster-partly-covered": (("clusterings", 10, 0), [1, 2, 3],
                                        "cover part of cluster 0"),
}


@pytest.mark.parametrize("case", sorted(MEMBER_TAMPERINGS))
def test_bad_cluster_member_is_a_format_error(tmp_path, capsys, case):
    path, value, phrase = MEMBER_TAMPERINGS[case]
    d = tmp_path / "trace"
    save_trace(run_online(generate_instance(GeneratorSpec(kind="euclidean", n=4, seed=1)),
                          lam=2), d)
    name = "arrival_0002.json"
    (d / name).write_text(_setting(path, value)((d / name).read_text()))
    with pytest.raises(FormatError, match=name) as err:
        load_trace(d)
    assert phrase in str(err.value)
    assert main(["certify", "--trace", str(d), "--out", str(tmp_path / "c"), "--quiet"]) == 3
    assert "error[E_FORMAT]" in capsys.readouterr().err


# case -> (edit of arrival 4's document, the certify.csv FAIL row). Its
# level-7 forest holds (1,5), inherited from arrival 3's (1,5) with
# realization {(1,5)}; the document omits both fields it shares with that
# parent. An explicit field is read as given.
OMITTED_FIELD_TAMPERINGS = {
    # (1,6) is no edge of arrival 3's level-7 forest, so nothing fills the
    # omitted fields in.
    "omitted-fields-no-parent": (
        _setting(("forest", "7", 0, "parent"), [1, 6]),
        "inheritance-provenance,7,4,fail,(1;5) has no parent in the previous forest"),
    "explicit-eorig-differs": (
        _setting(("forest", "7", 0, "eorig"), [[1, 6]]),
        "inheritance-provenance,7,4,fail,(1;5) realizes other edges than its parent"),
}


@pytest.mark.parametrize("case", sorted(OMITTED_FIELD_TAMPERINGS))
def test_omitted_inherited_fields_are_checked(tmp_path, capsys, case):
    edit, row = OMITTED_FIELD_TAMPERINGS[case]
    d = tmp_path / "trace"
    save_trace(run_online(generate_instance(GeneratorSpec(kind="euclidean", n=4, seed=1)),
                          lam=2), d)
    path = d / "arrival_0004.json"
    assert "eorig" not in json.loads(path.read_text())["forest"]["7"][0]
    path.write_text(edit(path.read_text()))
    assert main(["certify", "--trace", str(d), "--out", str(tmp_path / "c")]) == 1
    assert "overall: FAIL" in capsys.readouterr().out
    report = (tmp_path / "c" / "certify.csv").read_text()
    assert row in report.splitlines(), [r for r in report.splitlines() if ",fail," in r]
    # Saved again, the loaded trace says the same.
    save_trace(load_trace(d), tmp_path / "again")
    assert json.loads((tmp_path / "again" / path.name).read_text()) == json.loads(path.read_text())


def test_trace_that_leaves_an_h_edge_unmerged_fails(tmp_path, capsys, monkeypatch):
    # Terminals at 0, 4, 9 and 13 with demands (0,1) and (2,3): at arrival 2
    # H_2 holds (0,1), (1,2) and (2,3), so all four terminals merge at level 2.
    # The recorded run drops (1,2), at distance 5 < 2^3, from H_2 and keeps
    # C_3 = {0,1},{2,3}; every other check holds on that trace.
    def without_1_2(D, ids, cluster_level, i):
        edges, gap = active_virtual_edges(D, ids, cluster_level, i)
        return tuple(e for e in edges if e != (1, 2)), gap

    monkeypatch.setattr(clustering, "active_virtual_edges", without_1_2)
    d = tmp_path / "trace"
    save_trace(run_online(line_instance([0, 4, 9, 13]), lam=1), d)
    monkeypatch.undo()
    assert main(["certify", "--trace", str(d), "--out", str(tmp_path / "c")]) == 1
    assert "overall: FAIL" in capsys.readouterr().out
    report = (tmp_path / "c" / "certify.csv").read_text()
    assert [r for r in report.splitlines() if ",fail," in r] == [
        "forest-contracts-to-next,2,2,fail,unmerged H_i edge (1;2) at distance 5"]


def _leaves(node, path=()):
    """Paths to every scalar and empty container of a parsed JSON document."""
    if isinstance(node, (dict, list)) and node:
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(child, path + (key,))
    else:
        yield path


@pytest.fixture(scope="module")
def leaf_trace(tmp_path_factory):
    d = tmp_path_factory.mktemp("leaf") / "trace"
    save_trace(run_online(generate_instance(GeneratorSpec(kind="euclidean", n=5, seed=1)),
                          lam=2), d)
    return d


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_one_bad_leaf_never_escapes_certify(leaf_trace, data):
    names = sorted(name for name in os.listdir(leaf_trace) if name.endswith(".json"))
    path = leaf_trace / data.draw(st.sampled_from(names))
    text = path.read_text()
    payload = json.loads(text)
    leaf = data.draw(st.sampled_from(list(_leaves(payload))))
    _set_leaf(payload, leaf, data.draw(st.sampled_from(
        (-1, 0, 7, 10**30, None, "x", True, 2.5, [], [1], {}))))
    path.write_text(json.dumps(payload))
    try:
        code = main(["certify", "--trace", str(leaf_trace), "--out",
                     str(leaf_trace.parent / "c"), "--quiet"])
    finally:
        path.write_text(text)
    assert code in (0, 1, 3)


# The field classes whose single edits may still certify PASS: the buffer at
# the end of an arrival and the pin events' scalars, which the ledger check
# does not compare with the pin rule yet. This set may only shrink.
CENSUS_PASS_CLASSES = {"ledger.buffer_end", "ledger.pin_events.cost",
                       "ledger.pin_events.level", "ledger.pin_events.source_size"}


def _field_class(path):
    """A leaf's path without list indices or level keys:
    ("ledger", "pin_events", 0, "cost") -> "ledger.pin_events.cost"."""
    return ".".join(k for k in path if isinstance(k, str) and not k.isdigit())


def _census_edits(payload):
    """(leaf path, new value) of every single-field edit of an arrival
    document: each integer moved by one either way, each bool flipped."""
    for path in _leaves(payload):
        node = payload
        for key in path:
            node = node[key]
        if type(node) is bool:
            yield path, not node
        elif type(node) is int:
            yield path, node - 1
            yield path, node + 1


# sha256 over every census edit and its certify.csv bytes or FormatError code.
CENSUS_DIGESTS = {
    "euclidean": "b31d9553fd3fb566f06edc8e4af6db6bc49a8dce0cd9e21164bbc6530aaba820",
    "line-chain": "ca6eb1005e7a80ed800cb6c9b43346ac5fbffa163e89cb82b64ff114bd121de6",
}


@pytest.mark.parametrize("kind", ["euclidean", "line-chain"])
def test_every_single_field_edit_fails_or_is_a_format_error(tmp_path, kind):
    # Edited one field of one arrival file at a time, a trace must not load
    # (exit 3) or must certify FAIL, outside the allowlisted classes.
    # Every edit, with its certify.csv text or its FormatError code, folds into
    # one digest per kind, so a change to the bytes of any row fails here too.
    d = tmp_path / "trace"
    save_trace(run_online(generate_instance(GeneratorSpec(kind=kind, n=4, seed=1)), lam=2), d)
    passing = set()
    digest = hashlib.sha256()
    for name in sorted(p for p in os.listdir(d) if p.startswith("arrival_")):
        text = (d / name).read_text()
        for path, value in _census_edits(json.loads(text)):
            payload = json.loads(text)
            _set_leaf(payload, path, value)
            (d / name).write_text(json.dumps(payload))
            digest.update(repr((name, path, value)).encode())
            try:
                report = check_run(load_trace(d))
            except FormatError as err:
                digest.update(err.code.encode())
                continue
            digest.update(report.to_csv().encode())
            if report.ok:
                passing.add((name, path, value))
        (d / name).write_text(text)
    assert {_field_class(path) for _, path, _ in passing} <= CENSUS_PASS_CLASSES, sorted(
        edit for edit in passing if _field_class(edit[1]) not in CENSUS_PASS_CLASSES)
    assert digest.hexdigest() == CENSUS_DIGESTS[kind]


def test_levels_are_derived_once_per_instance(tmp_path, monkeypatch):
    # A terminal's level is fixed when its pair arrives: one derivation per
    # Instance object, however many arrivals, saves, loads and checks read it.
    calls = []

    def counted(dist):
        calls.append(len(dist))
        return pair_levels(dist)

    pair_levels = metric._pair_levels
    monkeypatch.setattr(metric, "_pair_levels", counted)
    inst = generate_instance(GeneratorSpec(kind="line-chain", n=6, seed=1))
    trace = run_online(inst, 2)
    save_trace(trace, tmp_path / "t")
    loaded = load_trace(tmp_path / "t")
    assert check_run(loaded, witness_levels=None).ok
    assert loaded.instance is not inst
    assert calls == [12, 12]  # the generated instance and the loaded one
