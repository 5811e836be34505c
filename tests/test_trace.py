import json
import os

import pytest

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


TAMPERINGS = {
    "truncated-json": lambda text: text[: len(text) // 2],
    "missing-forest": _edited(lambda p: p.pop("forest")),
    "buffer-end-str": _edited(lambda p: p["ledger"].update(buffer_end="x")),
    "cost-f-null": _edited(lambda p: p.update(cost_f=None)),
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
