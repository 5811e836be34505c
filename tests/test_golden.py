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
    ('euclidean', 3, 1): ('53ddc3fd479e9267', '579a470ccbb6a92c', 'b2288593d93fe388'),
    ('euclidean', 3, 2): ('1aab1eb38386f6ab', 'e57e546cb078fe19', '9a777846967e72a9'),
    ('euclidean', 3, 5): ('0152fb32d79da25e', 'e57e546cb078fe19', '90bd4f90f3811faa'),
    ('euclidean', 7, 1): ('3a836c566ec94607', 'c17ada2382aa8be8', '3f6c3ff8b3616d74'),
    ('euclidean', 7, 2): ('cd3708f1ea8db38f', 'e4540863934cad72', '538835b189f6aca6'),
    ('euclidean', 7, 5): ('dd44aac3d1c95d2f', 'e4540863934cad72', '547c3fd9d58110b9'),
    ('euclidean', 12, 1): ('1ae76133d35ef72c', 'f6d78bcd66ff5f13', 'b23abf6d30acb314'),
    ('euclidean', 12, 2): ('9db057d4ab4b03c4', 'f3cf38cc3d191df1', '0e25185ab3319eda'),
    ('euclidean', 12, 5): ('89ffe2747d31865f', 'b1cb5b6d90b0c617', 'fb8b6e6f1e2406fd'),
    ('random-metric', 3, 1): ('2b3284d89bee859b', 'c84abe70c250deca', '7dcf93f964099a44'),
    ('random-metric', 3, 2): ('4924e58f10cdda7c', '4fb8520f9d415b7d', '50e312b2b10aada0'),
    ('random-metric', 3, 5): ('74a50ef13aac3abe', '4fb8520f9d415b7d', '7ef4aa67d690e644'),
    ('random-metric', 7, 1): ('8d2736f228c0cf43', '6432cae02b72107a', '2435d52257db8d9a'),
    ('random-metric', 7, 2): ('2fac84ec9dfabe24', 'fd934da344a1bb47', '7242e436ba3b7106'),
    ('random-metric', 7, 5): ('5e5dfcb1b7b33284', '9aa9fe511cb4093d', '094f89e920221d22'),
    ('random-metric', 12, 1): ('d78c11bf39662145', '5353649c29787779', '80d4d37b9fcc1cf3'),
    ('random-metric', 12, 2): ('3883d854af01b172', '91cac76b4473970e', 'a9e06bdac4488485'),
    ('random-metric', 12, 5): ('368978ca39119c05', '904484fedff827bf', '38d7d46e9699a64e'),
    ('line-chain', 3, 1): ('ffdfeb77c10b9ff9', '037c68c97cf82c66', '2a0dc3e6ec54da19'),
    ('line-chain', 3, 2): ('457802963d269730', '037c68c97cf82c66', '23e9492f6bbfb1c2'),
    ('line-chain', 3, 5): ('3b001f465077140f', '037c68c97cf82c66', '09a866a52a6cb933'),
    ('line-chain', 7, 1): ('ef59481823e67e13', '408dfb38386c7ec1', '327fff2966efa1f5'),
    ('line-chain', 7, 2): ('12d78244ff9a4ccb', '408dfb38386c7ec1', '0ae2105840ba1f67'),
    ('line-chain', 7, 5): ('5e1558981405df28', '408dfb38386c7ec1', 'f94e890af6bdbd7f'),
    ('line-chain', 12, 1): ('f3565a7c20538dea', '680ac1e2c1bbd728', '858aa0333803f3c0'),
    ('line-chain', 12, 2): ('546cb0cbd8a10486', '680ac1e2c1bbd728', '64648a64cf66c91d'),
    ('line-chain', 12, 5): ('18463e5b5e3b6b46', '680ac1e2c1bbd728', 'db25ef1b9017be74'),
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
