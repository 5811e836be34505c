import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfonline.certify import check_run
from sfonline.cli import main
from sfonline.errors import FormatError
from sfonline.metric import GeneratorSpec, generate_instance
from sfonline.trace import load_trace, run_online, save_trace


def test_trace_roundtrip(tmp_path, w1):
    trace = run_online(w1, lam=1)
    d = tmp_path / "trace"
    save_trace(trace, d)
    names = sorted(os.listdir(d))
    assert names == ["arrival_0001.json", "arrival_0002.json", "instance.sfo", "meta.json"]

    loaded = load_trace(d)
    assert loaded.instance == trace.instance
    assert loaded.lam == 1
    for a, b in zip(trace.arrivals, loaded.arrivals):
        assert a.snapshot == b.snapshot
        assert a.pinned_after == b.pinned_after
        assert a.ledger == b.ledger
        assert {i: [(ve.endpoints, ve.inherited, ve.eorig) for ve in entries]
                for i, entries in a.forest.items()} == \
               {i: [(ve.endpoints, ve.inherited, ve.eorig) for ve in entries]
                for i, entries in b.forest.items()}
        for i, cl in a.cinh.items():
            assert b.cinh[i].assignment == cl.assignment
        assert [c.assignment for c in a.hierarchy.clusterings] == \
               [c.assignment for c in b.hierarchy.clusterings]
        # Levels whose stored member lists repeat share one loaded object.
        loaded_cls = b.hierarchy.clusterings
        for prev, cl in zip(loaded_cls, loaded_cls[1:]):
            assert (cl is prev) == (cl.assignment == prev.assignment)
        assert a.hierarchy.vgraphs == b.hierarchy.vgraphs


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


TAMPERINGS = {
    "truncated-json": lambda text: text[: len(text) // 2],
    "missing-forest": _edited(lambda p: p.pop("forest")),
    "buffer-end-str": _edited(lambda p: p["ledger"].update(buffer_end="x")),
    "cost-f-null": _edited(lambda p: p.update(cost_f=None)),
    # One per edge-valued field; the untampered trace has level-8 fresh edges,
    # an inherited level-9 edge and one single pin at this arrival.
    "snapshot-endpoint-bool": _setting(("snapshot", 0, 1), True),
    "pinned-endpoint-str": _setting(("pinned", 0, 0, 1), "x"),
    "pinned-arrival-float": _setting(("pinned", 0, 1), 2.5),
    "eorig-endpoint-float": _setting(("forest", "8", 0, "eorig", 0, 1), 2.5),
    "parent-endpoint-list": _setting(("forest", "9", 0, "parent", 1), [1]),
    "pin-event-endpoint-null": _setting(("ledger", "pin_events", 0, "edges", 0, 0), None),
}


@pytest.mark.parametrize("case", sorted(TAMPERINGS))
def test_malformed_arrival_is_a_format_error(tmp_path, capsys, case):
    d = tmp_path / "trace"
    save_trace(run_online(generate_instance(GeneratorSpec(kind="euclidean", n=3, seed=1)),
                          lam=2), d)
    path = d / "arrival_0002.json"
    path.write_text(TAMPERINGS[case](path.read_text()))
    with pytest.raises(FormatError, match="arrival_0002.json"):
        load_trace(d)
    assert main(["certify", "--trace", str(d), "--out", str(tmp_path / "c"), "--quiet"]) == 3
    assert "error[E_FORMAT]" in capsys.readouterr().err


def _first_virtual_edge(payload):
    level = min((k for k, entries in payload["forest"].items() if entries), key=int)
    return payload["forest"][level][0]


def _mark_first_fresh_edge_inherited(payload):
    rec = next(rec for key in sorted(payload["forest"], key=int)
               for rec in payload["forest"][key] if not rec["inherited"])
    rec.update(inherited=True, parent=[rec["c1"], rec["c2"]])


# case -> (arrival file, edit, substrings of the certify.csv FAIL rows)
SEMANTIC_TAMPERINGS = {
    "costs-set-to-one": (
        "arrival_0004.json",
        lambda p: p.update(cost_pinned=1, cost_forestforming=1),
        ["snapshot-consistency,,4,fail,cost_pinned=1 rederived=",
         " cost_forestforming=1 rederived="]),
    "eorig-not-arrived": (
        "arrival_0002.json",
        lambda p: _first_virtual_edge(p).update(eorig=[[0, 7]]),
        ["snapshot-consistency,,2,fail,edges ",
         "edge (0;7) has an endpoint not yet arrived",
         ",2,fail,edge (0;7) of ("]),
    "forest-edge-dropped": (
        "arrival_0004.json",
        lambda p: p["forest"]["7"].pop(),
        ["forest-contracts-to-next,7,4,fail,terminal 7 in 7 want 3"]),
    "fresh-edge-marked-inherited": (
        "arrival_0004.json",
        _mark_first_fresh_edge_inherited,
        ["cinh-matches-forest,7,4,fail,terminal 6 in 1 want 6"]),
    "edge-to-itself": (
        "arrival_0004.json",
        lambda p: p["forest"]["7"][0].update(c2=p["forest"]["7"][0]["c1"]),
        ["virtual-edge-valid,7,4,fail,(1;1) does not join two clusters"]),
}


@pytest.mark.parametrize("case", sorted(SEMANTIC_TAMPERINGS))
def test_tampered_trace_gets_fail_rows(tmp_path, capsys, case):
    name, change, rows = SEMANTIC_TAMPERINGS[case]
    d = tmp_path / "trace"
    save_trace(run_online(generate_instance(GeneratorSpec(kind="euclidean", n=4, seed=1)),
                          lam=2), d)
    path = d / name
    path.write_text(_edited(change)(path.read_text()))
    assert main(["certify", "--trace", str(d), "--out", str(tmp_path / "c")]) == 1
    assert "overall: FAIL" in capsys.readouterr().out
    report = (tmp_path / "c" / "certify.csv").read_text()
    for row in rows:
        assert row in report, (row, [r for r in report.splitlines() if ",fail," in r])


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
    names = sorted(name for name in os.listdir(leaf_trace) if name.startswith("arrival_"))
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
