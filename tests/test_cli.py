import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfonline import cli, forest, oracles, trace
from sfonline.certify import CheckEntry, WitnessError
from sfonline.cli import main
from sfonline.errors import (
    ConfigError,
    FormatError,
    MetricError,
    OracleLimitError,
    SfonlineError,
)
from sfonline.metric import (
    GeneratorSpec,
    generate_instance,
    load_instance_file,
    save_instance,
    save_instance_file,
)
from sfonline.oracles import exact_optimum

from conftest import line_instance


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture
def w1_file(tmp_path, w1):
    path = tmp_path / "w1.sfo"
    save_instance_file(w1, path)
    return str(path)


def test_gen_is_deterministic(tmp_path):
    a = tmp_path / "a.sfo"
    b = tmp_path / "b.sfo"
    for path in (a, b):
        rc = main(["gen", "--kind", "euclid", "--n", "20", "--seed", "1",
                   "--file", str(path), "--quiet"])
        assert rc == 0
    assert read(a) == read(b)
    inst = load_instance_file(a)
    assert inst.n == 20


def test_gen_rejects_n_zero(tmp_path):
    rc = main(["gen", "--kind", "euclid", "--n", "0", "--file",
               str(tmp_path / "x.sfo"), "--quiet"])
    assert rc == 2


def test_gen_takes_no_input_file(tmp_path, capsys):
    # gen only generates: an instance file passed to it is a usage error, not
    # an instance written under a generator name.
    source = tmp_path / "a.sfo"
    assert main(["gen", "--kind", "euclid", "--n", "3", "--seed", "1", "--file", str(source),
                 "--quiet"]) == 0
    out = tmp_path / "d"
    rc = main(["gen", "--input", str(source), "--kind", "line", "--n", "7", "--out", str(out),
               "--quiet"])
    assert rc == 2
    assert "--input" in capsys.readouterr().err
    assert not out.exists()


def test_gen_without_kind_names_only_generator_flags(tmp_path, capsys):
    # gen takes no --input, so its error must not suggest one.
    assert main(["gen", "--n", "3", "--out", str(tmp_path / "d"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "need --kind/--n generator flags" in err and "--input" not in err


def test_gen_names_its_file_after_the_canonical_kind(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["gen", "--kind", "euclid", "--n", "3", "--seed", "2", "--out", str(out)]) == 0
    path = out / "euclidean_n3_s2.sfo"
    assert capsys.readouterr().out == f"{path}\n"
    assert load_instance_file(path).n == 3
    assert main(["gen", "--kind", "euclid", "--n", "3", "--seed", "2", "--out", str(out),
                 "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_gen_defaults_to_seed_zero_and_scale_1000(tmp_path):
    # --seed and --scale have no argparse default, so GeneratorSpec's apply.
    out = tmp_path / "d"
    assert main(["gen", "--kind", "line", "--n", "3", "--out", str(out), "--quiet"]) == 0
    spec = GeneratorSpec(kind="line-chain", n=3, seed=0, scale=1000)
    assert read(out / "line-chain_n3_s0.sfo") == save_instance(generate_instance(spec)).encode()


def test_run_generator_needs_n(tmp_path, capsys):
    assert main(["run", "--kind", "euclid", "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err == "error[E_CONFIG]: generator needs --n\n"
    assert not (tmp_path / "o").exists()


def test_run_w1_report(tmp_path, w1_file, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--input", w1_file, "--lam", "1", "--checks", "structural",
               "--out", str(out)])
    assert rc == 0
    rows = read(out / "per_arrival.csv").decode().splitlines()
    assert len(rows) == 3  # header + 2 arrivals
    assert rows[0].startswith("t,cost_F,")
    r1 = rows[1].split(",")
    r2 = rows[2].split(",")
    assert r1[0] == "1" and r1[4] == "1"  # OPT after arrival 1
    assert r2[0] == "2" and r2[4] == "5"  # OPT after arrival 2
    assert (out / "summary.txt").exists()
    assert (out / "trace" / "meta.json").exists()
    assert "checks (structural): PASS" in read(out / "summary.txt").decode()


def test_run_with_a_failed_check_exits_one(tmp_path, w1_file, monkeypatch, capsys):
    # A report with twelve FAIL rows: run prints the first ten and exits 1.
    real = cli.check_run

    def failing(trace, opt, witness_levels):
        report = real(trace, opt, witness_levels=witness_levels)
        report.entries += [CheckEntry("fake-check", k, 2, "fail", f"v{k}") for k in range(12)]
        return report

    monkeypatch.setattr(cli, "check_run", failing)
    out = tmp_path / "out"
    assert main(["run", "--input", w1_file, "--lam", "1", "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"FAIL fake-check level={k} arrival=2 v{k}" for k in range(10)]
    assert "checks (structural): FAIL" in read(out / "summary.txt").decode()


def test_run_oracle_limit_zero_leaves_opt_blank(tmp_path, w1_file):
    out = tmp_path / "out"
    assert main(["run", "--input", w1_file, "--lam", "1", "--oracle-limit", "0",
                 "--out", str(out), "--quiet"]) == 0
    rows = read(out / "per_arrival.csv").decode().splitlines()[1:]
    assert [row.split(",")[4] for row in rows] == ["", ""]
    assert "OPT" not in read(out / "summary.txt").decode()


def test_run_byte_identical(tmp_path, w1_file):
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        rc = main(["run", "--input", w1_file, "--lam", "2", "--checks", "full-witness",
                   "--out", str(out), "--quiet"])
        assert rc == 0
        outs.append(out)
    for name in ("per_arrival.csv", "summary.txt"):
        assert read(outs[0] / name) == read(outs[1] / name)
    for name in sorted(os.listdir(outs[0] / "trace")):
        assert read(outs[0] / "trace" / name) == read(outs[1] / "trace" / name)


def test_run_dump_hierarchy(tmp_path, w1_file):
    out = tmp_path / "out"
    rc = main(["run", "--input", w1_file, "--lam", "1", "--out", str(out),
               "--dump-hierarchy", "--quiet"])
    assert rc == 0
    dump = read(out / "hierarchy_0002.txt").decode().splitlines()
    assert dump[0] == "0 | 0: 0 [active]"
    assert "1 | 0: 0 1 [inactive]" in dump
    assert "2 | 2: 2 [active]" in dump
    assert "3 | 2: 2 3 [inactive]" in dump  # merged cluster outlived its level


# case -> (file text, the error line run prints).
CORRUPT_FILES = {
    "malformed-header": ("SFONLINE nonsense\n",
                         "error[E_HEADER]: malformed header: 'SFONLINE nonsense'"),
    "empty": ("", "error[E_HEADER]: empty instance file"),
    "terminals-not-2n": ("SFONLINE 1 3 1\nMATRIX\n1\n1 1\nDEMANDS\n0 1\n",
                         "error[E_HEADER]: header wants T = 2n, got T=3 n=1"),
    "matrix-truncated": ("SFONLINE 1 4 2\nMATRIX\n1\n10 10\n",
                         "error[E_HEADER]: matrix section truncated"),
    "demand-lines": ("SFONLINE 1 2 1\nMATRIX\n1\nDEMANDS\n0 1\n0 1\n",
                     "error[E_HEADER]: expected 1 demand lines, got 2"),
    "terminal-in-two-pairs": ("SFONLINE 1 4 2\nMATRIX\n1\n10 10\n10 10 1\nDEMANDS\n0 1\n1 2\n",
                              "error[E_PAIR]: terminal appears in two pairs at demand 2"),
}


@pytest.mark.parametrize("case", CORRUPT_FILES)
def test_run_rejects_corrupt_file(tmp_path, capsys, case):
    text, error = CORRUPT_FILES[case]
    bad = tmp_path / "bad.sfo"
    bad.write_text(text)
    rc = main(["run", "--input", str(bad), "--lam", "1", "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 3
    assert capsys.readouterr().err.splitlines() == [error]


@pytest.fixture(scope="module")
def edit_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("edits")


# A byte edit: (kind, position, byte); the byte is unused by a deletion.
EDITS = st.tuples(
    st.sampled_from(("flip", "insert", "delete")),
    st.integers(0, 10**6),
    st.one_of(st.sampled_from(b"\xff\x00\n #-9"), st.integers(0, 255)),
)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(edits=st.lists(EDITS, min_size=1, max_size=4))
def test_byte_edits_of_an_instance_never_escape_run(edit_dir, edits):
    data = bytearray(save_instance(
        generate_instance(GeneratorSpec(kind="euclidean", n=3, seed=1))).encode())
    for kind, pos, byte in edits:
        pos %= len(data) + (kind == "insert")
        if kind == "flip" and data:
            data[pos] = byte
        elif kind == "insert":
            data.insert(pos, byte)
        elif data:
            del data[pos]
    path = edit_dir / "edited.sfo"
    path.write_bytes(bytes(data))
    rc = main(["run", "--input", str(path), "--lam", "1", "--checks", "none",
               "--out", str(edit_dir / "o"), "--quiet"])
    assert rc in (0, 2, 3, 4)


@pytest.mark.parametrize("command", ["run", "compare"])
def test_missing_or_undecodable_input_is_a_format_error(tmp_path, capsys, command):
    missing = tmp_path / "missing.sfo"
    undecodable = tmp_path / "latin.sfo"
    undecodable.write_bytes(b"# label: caf\xe9\nSFONLINE 1 2 1\nMATRIX\n1\nDEMANDS\n0 1\n")
    for path in (missing, undecodable):
        rc = main([command, "--input", str(path), "--lam", "1", "--out",
                   str(tmp_path / "o"), "--quiet"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error[E_FORMAT]: bad instance file ") and str(path) in err


def test_certify_rejects_an_undecodable_instance(tmp_path, w1_file, capsys):
    out = tmp_path / "out"
    assert main(["run", "--input", w1_file, "--lam", "1", "--checks", "none",
                 "--out", str(out), "--quiet"]) == 0
    (out / "trace" / "instance.sfo").write_bytes(b"\xff")
    assert main(["certify", "--trace", str(out / "trace"), "--quiet"]) == 3
    assert "instance.sfo" in capsys.readouterr().err


@pytest.mark.parametrize("argv, bad", [
    (["run", "--input", "{w1}", "--lam", "1", "--out", "{F}/sub"], "{F}/sub"),
    (["sweep", "--input", "{w1}", "--lams", "1", "--out", "{F}"], "{F}"),
    (["compare", "--input", "{w1}", "--lam", "1", "--out", "{F}"], "{F}"),
    (["certify", "--trace", "{trace}", "--out", "{F}/x"], "{F}/x"),
    (["gen", "--kind", "euclid", "--n", "2", "--file", "{F}/f.sfo"], "{F}"),
], ids=["run", "sweep", "compare", "certify", "gen"])
def test_an_output_path_that_cannot_be_created_is_a_config_error(tmp_path, w1_file, capsys,
                                                                  argv, bad):
    out = tmp_path / "r"
    assert main(["run", "--input", w1_file, "--lam", "1", "--out", str(out), "--quiet"]) == 0
    F = tmp_path / "F"
    F.write_text("a regular file\n")
    names = {"w1": w1_file, "trace": str(out / "trace"), "F": str(F)}
    capsys.readouterr()
    rc = main([a.format(**names) for a in argv] + ["--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error[E_CONFIG]: ") and bad.format(**names) in err
    assert F.read_text() == "a regular file\n"


@pytest.mark.parametrize("name", ["per_arrival.csv", "trace"])
def test_an_output_file_that_cannot_be_written_is_a_config_error(tmp_path, w1_file, capsys,
                                                                 name):
    # per_arrival.csv is a directory, or trace is a regular file.
    out = tmp_path / "out"
    out.mkdir()
    if name == "trace":
        (out / name).write_text("a regular file\n")
    else:
        (out / name).mkdir()
    rc = main(["run", "--input", w1_file, "--lam", "1", "--out", str(out), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error[E_CONFIG]: cannot create output ") and str(out / name) in err


# error raised inside a subcommand -> (its code, main's exit status)
RAISED = {
    "config": (ConfigError("x"), "E_CONFIG", 2),
    "format": (FormatError("x"), "E_FORMAT", 3),
    "format-header": (FormatError("x", "E_HEADER"), "E_HEADER", 3),
    "format-int": (FormatError("x", "E_INT"), "E_INT", 3),
    "format-pair": (FormatError("x", "E_PAIR"), "E_PAIR", 3),
    "format-any-code": (FormatError("x", "E_NEW"), "E_NEW", 3),
    "metric": (MetricError("x"), "E_METRIC", 4),
    "oracle-limit": (OracleLimitError("x"), "E_ORACLE_LIMIT", 5),
    "generic": (SfonlineError("x"), "E_GENERIC", 1),
    "witness": (WitnessError("x", 1), "E_WITNESS", 1),
}


@pytest.mark.parametrize("case", RAISED)
def test_the_error_type_fixes_the_exit_status(monkeypatch, capsys, case):
    err, code, status = RAISED[case]

    def raising(path):
        raise err

    monkeypatch.setattr(cli, "load_instance_file", raising)
    assert main(["oracle", "--input", "any.sfo"]) == status
    assert capsys.readouterr().err == f"error[{code}]: x\n"


def test_run_rejects_metric_violation(tmp_path):
    bad = tmp_path / "bad.sfo"
    bad.write_text("SFONLINE 1 4 2\nMATRIX\n1\n10 10\n1 1 1\nDEMANDS\n0 1\n2 3\n")
    rc = main(["run", "--input", str(bad), "--lam", "1", "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 4


def test_sweep_table(tmp_path, w1_file):
    out = tmp_path / "s"
    rc = main(["sweep", "--input", w1_file, "--lams", "2,1,2", "--out", str(out),
               "--quiet"])
    assert rc == 0
    rows = read(out / "sweep.csv").decode().splitlines()
    assert rows[0] == "lambda,final_cost,OPT,ratio,insertions,insertions_per_nlam"
    assert len(rows) == 3  # deduplicated and sorted
    assert rows[1].startswith("1,") and rows[2].startswith("2,")
    again = tmp_path / "s2"
    assert main(["sweep", "--input", w1_file, "--lams", "1,2", "--out", str(again),
                 "--quiet"]) == 0
    assert read(out / "sweep.csv") == read(again / "sweep.csv")


@pytest.mark.parametrize("command", [["run"], ["sweep", "--lams", "1,2,5"], ["compare"]])
def test_one_oracle_call_per_command(tmp_path, monkeypatch, command):
    # Every prefix's OPT comes from one call on the longest prefix, however
    # many lambdas a sweep runs.
    calls = []

    def counted(view, limit):
        calls.append(view.t)
        return exact_optimum(view, limit)

    monkeypatch.setattr(cli, "exact_optimum", counted)
    assert main([*command, "--kind", "euclid", "--n", "12", "--seed", "1",
                 "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert calls == [9]


def test_compare_builds_each_prefix_hierarchy_once(tmp_path, monkeypatch):
    # The offline forest reads the online run's hierarchies, and the online
    # loop calls sfonline.trace.advance by name once per arrival.
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(trace, "advance", counted("advance", trace.advance))
    for module in (forest, oracles):
        monkeypatch.setattr(module, "build_hierarchy",
                            counted("build_hierarchy", module.build_hierarchy))
    assert main(["compare", "--kind", "euclid", "--n", "12", "--seed", "1",
                 "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert calls.count("advance") == calls.count("build_hierarchy") == 12


def test_sweep_prints_its_table(tmp_path, w1_file, capsys):
    out = tmp_path / "s"
    assert main(["sweep", "--input", w1_file, "--lams", "1,2", "--out", str(out)]) == 0
    assert capsys.readouterr().out.encode() == read(out / "sweep.csv")


def test_sweep_needs_lams(tmp_path, w1_file):
    rc = main(["sweep", "--input", w1_file, "--lams", " ", "--out",
               str(tmp_path / "s"), "--quiet"])
    assert rc == 2


def test_compare_w1_all_methods_cost_five(tmp_path, w1_file):
    out = tmp_path / "c"
    rc = main(["compare", "--input", w1_file, "--lam", "1", "--out", str(out),
               "--quiet"])
    assert rc == 0
    rows = read(out / "compare.csv").decode().splitlines()
    last = rows[-1].split(",")
    assert last[0] == "2"
    assert last[1] == last[2] == last[3] == last[4] == "5"
    assert last[5] == "5"  # OPT
    summary = read(out / "compare_summary.txt").decode()
    assert "dels 0" in summary  # baselines never delete


def test_compare_prints_its_table_and_summary(tmp_path, w1_file, capsys):
    out = tmp_path / "c"
    assert main(["compare", "--input", w1_file, "--lam", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out.encode() == (read(out / "compare.csv")
                                                + read(out / "compare_summary.txt"))


def test_oracle_command(w1_file, capsys):
    rc = main(["oracle", "--input", w1_file, "--t", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "OPT 5"
    assert lines[1:] == ["0 1", "2 3"]


@pytest.mark.parametrize("argv", [
    ["oracle", "--input", "{w1}", "--seed", "3"],
    ["oracle", "--input", "{w1}", "--out", "{tmp}/o"],
    ["oracle", "--input", "{w1}", "--quiet"],
    ["certify", "--trace", "{tmp}/r/trace", "--seed", "3"],
])
def test_a_flag_the_command_never_reads_is_a_usage_error(tmp_path, w1_file, capsys, argv):
    assert main(["run", "--input", w1_file, "--lam", "1", "--out", str(tmp_path / "r"),
                 "--quiet"]) == 0
    capsys.readouterr()
    rc = main([a.format(w1=w1_file, tmp=tmp_path) for a in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error[E_CONFIG]" in err and "unrecognized arguments" in err
    assert not (tmp_path / "o").exists()
    assert not (tmp_path / "r" / "trace" / "certify.csv").exists()


def test_oracle_limit_exit_code(tmp_path):
    inst = line_instance(list(range(8)))  # 4 pairs
    path = tmp_path / "i.sfo"
    save_instance_file(inst, path)
    rc = main(["oracle", "--input", str(path), "--t", "4", "--oracle-limit", "2"])
    assert rc == 5


def test_certify_command(tmp_path, w1_file, capsys):
    out = tmp_path / "r"
    assert main(["run", "--input", w1_file, "--lam", "1", "--out", str(out),
                 "--quiet"]) == 0
    rc = main(["certify", "--trace", str(out / "trace")])
    assert rc == 0
    assert "overall: PASS" in capsys.readouterr().out
    csv_path = out / "trace" / "certify.csv"
    assert csv_path.exists()
    assert read(csv_path).decode().splitlines()[0] == "check,level,arrival,status,value"


def test_certify_single_level(tmp_path, w1_file, capsys):
    out = tmp_path / "r"
    main(["run", "--input", w1_file, "--lam", "1", "--out", str(out), "--quiet"])
    rc = main(["certify", "--trace", str(out / "trace"), "--levels", "2", "--quiet"])
    assert rc == 0
    body = read(out / "trace" / "certify.csv").decode()
    assert "value-identity,2," in body
    assert "value-identity,0," not in body


@pytest.mark.parametrize("levels", ["x", "-1", "", "3"])
def test_certify_rejects_bad_levels(tmp_path, w1_file, capsys, levels):
    out = tmp_path / "r"
    assert main(["run", "--input", w1_file, "--lam", "1", "--out", str(out),
                 "--quiet"]) == 0
    capsys.readouterr()
    rc = main(["certify", "--trace", str(out / "trace"), "--levels", levels])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error[E_CONFIG]" in err and "Traceback" not in err
    assert not (out / "trace" / "certify.csv").exists()


@pytest.mark.parametrize("lams", ["1,a", "1,0", "2,-1"])
def test_sweep_rejects_bad_lams(tmp_path, w1_file, capsys, lams):
    rc = main(["sweep", "--input", w1_file, "--lams", lams, "--out",
               str(tmp_path / "s"), "--quiet"])
    assert rc == 2
    assert "error[E_CONFIG]" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--lams", "1"], ["compare"]])
@pytest.mark.parametrize("flag, value", [("--kind", "line"), ("--n", "5"), ("--seed", "3"),
                                         ("--seed", "0"), ("--scale", "7")])
def test_input_excludes_the_generator_flags(tmp_path, w1_file, capsys, command, flag, value):
    # An instance file and a generator flag name two instances; neither wins.
    out = tmp_path / "o"
    rc = main([*command, "--input", w1_file, flag, value, "--out", str(out), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error[E_CONFIG]: ") and "--input" in err and flag in err
    assert not out.exists()
