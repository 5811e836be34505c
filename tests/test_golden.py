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
    ('euclidean', 3, 1): ('93a1455160e9daad', '579a470ccbb6a92c', 'a68b7a395c91814b'),
    ('euclidean', 3, 2): ('f3ec888204c7d89a', 'e57e546cb078fe19', 'a8e92eb3666b4b66'),
    ('euclidean', 3, 5): ('4c755d0b1f50ce7b', 'e57e546cb078fe19', 'c84f0c6d41bda10f'),
    ('euclidean', 7, 1): ('9705643c2c4c4163', 'c17ada2382aa8be8', '4639c6d063080da3'),
    ('euclidean', 7, 2): ('e6cf00a3bd6a98b0', 'e4540863934cad72', 'cc88f6f443b4e5d1'),
    ('euclidean', 7, 5): ('1df535f1595c6320', 'e4540863934cad72', '9624ec997193667e'),
    ('euclidean', 12, 1): ('42b3338e43cae6f4', 'f6d78bcd66ff5f13', 'b13bb6aad69af961'),
    ('euclidean', 12, 2): ('dda85db1788b8002', 'f3cf38cc3d191df1', '6fc97aa946015b11'),
    ('euclidean', 12, 5): ('4151d140c8937477', 'b1cb5b6d90b0c617', 'adf76fe6c29599a8'),
    ('random-metric', 3, 1): ('a6c4a9e41b3279de', 'c84abe70c250deca', '4d1841e02781026a'),
    ('random-metric', 3, 2): ('2f72e1851c0ac1d5', '4fb8520f9d415b7d', '76e693ebd5c3d76c'),
    ('random-metric', 3, 5): ('ebf2f40e7d8e0446', '4fb8520f9d415b7d', '8c4ca2513f204b66'),
    ('random-metric', 7, 1): ('3c52bdff835ceb84', '6432cae02b72107a', '5bbc75d97e245fae'),
    ('random-metric', 7, 2): ('5fc019ee16ce5590', 'fd934da344a1bb47', '514423b819f2b803'),
    ('random-metric', 7, 5): ('aee91cc5f19b098a', '9aa9fe511cb4093d', '920023425b8473bb'),
    ('random-metric', 12, 1): ('1bc050ea44ae20d0', '5353649c29787779', '9cdc8f39857fb372'),
    ('random-metric', 12, 2): ('d8c1c5b8a7130c37', '91cac76b4473970e', '9d314b80eb83115b'),
    ('random-metric', 12, 5): ('f1dedf233ffb63d7', '904484fedff827bf', '8f4150b1b3c0dbe4'),
    ('line-chain', 3, 1): ('1364a5b0653198bb', '037c68c97cf82c66', 'a76513850c9387ff'),
    ('line-chain', 3, 2): ('341e5b9cb2a56023', '037c68c97cf82c66', 'ead308c7eac1c6d6'),
    ('line-chain', 3, 5): ('906bb374e4252f8b', '037c68c97cf82c66', '413626e6694f8f63'),
    ('line-chain', 7, 1): ('596fb5c88ada1c1a', '408dfb38386c7ec1', 'a91866af5b6620a4'),
    ('line-chain', 7, 2): ('e74a8f9c0b75536f', '408dfb38386c7ec1', '88e8a379eebd8341'),
    ('line-chain', 7, 5): ('e5913039c0e64dba', '408dfb38386c7ec1', 'fbeb374ea474c65c'),
    ('line-chain', 12, 1): ('941f96706dababc7', '680ac1e2c1bbd728', '3abcf23a65167488'),
    ('line-chain', 12, 2): ('b92308ab9fa42ce8', '680ac1e2c1bbd728', '3d6d130508218bfa'),
    ('line-chain', 12, 5): ('313126bf4bf2fe83', '680ac1e2c1bbd728', 'f929aa1b3598bd8a'),
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
