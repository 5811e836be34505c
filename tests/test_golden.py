"""Golden-output gate: byte-identical CLI outputs on a fixed small grid.

The algorithm is exact and deterministic, so a change that only makes it
faster must leave every output byte unchanged. Each grid cell runs `run`,
`compare` and `certify` and compares sha256 digests (first 16 hex digits) of
their outputs with the values recorded below. The oracle limit is kept small
there so the exact optimum, which no cell is about, stays cheap.

The exact oracle has its own gate at the default limit of 9: the `oracle`
stdout (cost and the chosen partition) on small-scale instances, where many
partitions tie for the optimum, and the OPT column of `per_arrival.csv`.

To re-record after an intended output change: `PYTHONPATH=src python
tests/test_golden.py` prints the tables.
"""

import contextlib
import hashlib
import io
import os

import pytest

from sfonline.cli import main

KINDS = ("euclidean", "random-metric", "line-chain")
NS = (3, 7, 12)
LAMS = (1, 2, 5)
ORACLE_LIMIT = "5"

# (kind, n, lam) -> (run: trace dir + per_arrival.csv, compare.csv, certify.csv)
GOLDEN = {
    ('euclidean', 3, 1): ('40eeb3fb05235944', '579a470ccbb6a92c', '2bd5fa7a556a1ba2'),
    ('euclidean', 3, 2): ('8d577e53563f170e', 'e57e546cb078fe19', '363ef6dfaa2e43d3'),
    ('euclidean', 3, 5): ('9e25ff22e76a8358', 'e57e546cb078fe19', 'baccf07df20d79c9'),
    ('euclidean', 7, 1): ('c83a9fe01a406db6', 'c17ada2382aa8be8', '986f17f5c7494f70'),
    ('euclidean', 7, 2): ('2bd735aa15ac2379', 'e4540863934cad72', '5387acdebf39617f'),
    ('euclidean', 7, 5): ('c147cfb33fee02c3', 'e4540863934cad72', 'cac723df047b2a5e'),
    ('euclidean', 12, 1): ('ac7085f8e3372959', 'f6d78bcd66ff5f13', '098749d46d15a302'),
    ('euclidean', 12, 2): ('152ff4177972720f', 'f3cf38cc3d191df1', '2f71c5c192fc01ca'),
    ('euclidean', 12, 5): ('e51fc1cd9c1b9bae', 'b1cb5b6d90b0c617', 'f26c55ec917a5064'),
    ('random-metric', 3, 1): ('cf1c307de348c10e', 'c84abe70c250deca', 'bf97826df6360ddd'),
    ('random-metric', 3, 2): ('dbedd5aa6912d95a', '4fb8520f9d415b7d', '008893ce076bcacb'),
    ('random-metric', 3, 5): ('1a745c6688f22bd1', '4fb8520f9d415b7d', '7b6e7cc616bf7121'),
    ('random-metric', 7, 1): ('1b646bda15fd0769', '6432cae02b72107a', '73685da4d369454a'),
    ('random-metric', 7, 2): ('c31396eb0d6963fb', 'fd934da344a1bb47', '14b5128d5f716601'),
    ('random-metric', 7, 5): ('d3f8aa640446d51d', '9aa9fe511cb4093d', '0fa428635a366955'),
    ('random-metric', 12, 1): ('5f1c27458d292768', '5353649c29787779', '226f0305741c9184'),
    ('random-metric', 12, 2): ('cec4921ee7cc8445', '91cac76b4473970e', 'dd8a47b0295b2a1c'),
    ('random-metric', 12, 5): ('792c9c6e5a632d58', '904484fedff827bf', '495cb7bbaa3b39e9'),
    ('line-chain', 3, 1): ('8807de6ecd2338cf', '037c68c97cf82c66', '2f7042e99fe8f84d'),
    ('line-chain', 3, 2): ('4ab6595314f61e84', '037c68c97cf82c66', '10cde57781781cdb'),
    ('line-chain', 3, 5): ('7e9341ef253d2a59', '037c68c97cf82c66', '07dd66dfd9aaae86'),
    ('line-chain', 7, 1): ('c6a60d8a04198098', '408dfb38386c7ec1', '44d4ee97f9095f42'),
    ('line-chain', 7, 2): ('4919ebfa57f582d0', '408dfb38386c7ec1', 'e7dbdeeaa59f4ff3'),
    ('line-chain', 7, 5): ('cacc046701521f6a', '408dfb38386c7ec1', '1d0295f794360257'),
    ('line-chain', 12, 1): ('ffaa32f059aaca50', '680ac1e2c1bbd728', '2e8022c2054b3405'),
    ('line-chain', 12, 2): ('c586e0f82c4e926c', '680ac1e2c1bbd728', '218c20141bdc7519'),
    ('line-chain', 12, 5): ('071404f2c2a02fd9', '680ac1e2c1bbd728', '6137276c51aa8e55'),
}


# (kind, t) -> `oracle --t t` stdout on `--n 9 --scale 3 --seed 1`
GOLDEN_ORACLE = {
    ('euclidean', 6): 'OPT 11\n0 1 2 3 8 9 10 11\n4 5 6 7\n',
    ('euclidean', 9): 'OPT 14\n0 1 2 3 6 7 8 9 10 11\n4 5 14 15\n12 13\n16 17\n',
    ('random-metric', 6): 'OPT 10\n0 1\n2 3 4 5 6 7 10 11\n8 9\n',
    ('random-metric', 9): 'OPT 14\n0 1 2 3 4 5\n6 7 10 11 14 15\n8 9 12 13\n16 17\n',
    ('line-chain', 6): 'OPT 1365\n0 1\n2 3\n4 5\n6 7\n8 9\n10 11\n',
    ('line-chain', 9): 'OPT 87381\n0 1\n2 3\n4 5\n6 7\n8 9\n10 11\n12 13\n14 15\n16 17\n',
}

# kind -> OPT column of `run --n 10 --seed 2` per_arrival.csv, default limit
GOLDEN_OPT_COLUMN = {
    'euclidean': ('1246', '1356', '1516', '1934', '2148', '2220', '2582', '2665', '2741', ''),
    'random-metric': ('160', '210', '305', '367', '856', '1147', '1156', '1431', '1682', ''),
    'line-chain': ('1', '5', '21', '85', '341', '1365', '5461', '21845', '87381', ''),
}


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def cell_digests(root, kind, n, lam):
    gen = ["--kind", kind, "--n", str(n), "--seed", "1", "--oracle-limit", ORACLE_LIMIT,
           "--quiet"]
    run_dir = os.path.join(root, "run")
    assert main(["run", *gen, "--lam", str(lam), "--checks", "none", "--out", run_dir]) == 0
    trace_dir = os.path.join(run_dir, "trace")
    run_files = [os.path.join(trace_dir, f) for f in sorted(os.listdir(trace_dir))]
    run_files.append(os.path.join(run_dir, "per_arrival.csv"))

    cmp_dir = os.path.join(root, "compare")
    assert main(["compare", *gen, "--lam", str(lam), "--out", cmp_dir]) == 0

    cert_dir = os.path.join(root, "certify")
    assert main(["certify", "--trace", trace_dir, "--oracle-limit", ORACLE_LIMIT,
                 "--out", cert_dir, "--quiet"]) == 0
    return (_digest(run_files), _digest([os.path.join(cmp_dir, "compare.csv")]),
            _digest([os.path.join(cert_dir, "certify.csv")]))


def oracle_stdout(root, kind, t):
    inst = os.path.join(root, f"{kind}.sfo")
    assert main(["gen", "--kind", kind, "--n", "9", "--scale", "3", "--seed", "1",
                 "--file", inst, "--quiet"]) == 0
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["oracle", "--input", inst, "--t", str(t)]) == 0
    return buf.getvalue()


def opt_column(root, kind):
    out = os.path.join(root, f"run_{kind}")
    assert main(["run", "--kind", kind, "--n", "10", "--seed", "2", "--checks", "none",
                 "--out", out, "--quiet"]) == 0
    with open(os.path.join(out, "per_arrival.csv"), encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    col = rows[0].split(",").index("OPT")
    return tuple(row.split(",")[col] for row in rows[1:])


@pytest.mark.parametrize("kind", KINDS)
def test_golden_oracle(tmp_path, kind):
    for t in (6, 9):
        assert oracle_stdout(str(tmp_path), kind, t) == GOLDEN_ORACLE[(kind, t)]
    assert opt_column(str(tmp_path), kind) == GOLDEN_OPT_COLUMN[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_golden_outputs(tmp_path, kind):
    got = {}
    for n in NS:
        for lam in LAMS:
            got[(kind, n, lam)] = cell_digests(str(tmp_path / f"n{n}_l{lam}"), kind, n, lam)
    want = {key: val for key, val in GOLDEN.items() if key[0] == kind}
    assert got == want


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for kind in KINDS:
            for n in NS:
                for lam in LAMS:
                    dig = cell_digests(os.path.join(tmp, f"{kind}_{n}_{lam}"), kind, n, lam)
                    print(f"    ({kind!r}, {n}, {lam}): {dig!r},")
        print()
        for kind in KINDS:
            for t in (6, 9):
                print(f"    ({kind!r}, {t}): {oracle_stdout(tmp, kind, t)!r},")
        print()
        for kind in KINDS:
            print(f"    {kind!r}: {opt_column(tmp, kind)!r},")
