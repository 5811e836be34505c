import numpy as np
import pytest

from sfonline.errors import ConfigError, FormatError, MetricError, SfonlineError
from sfonline.metric import (
    GENERATOR_KINDS,
    MAX_DIST,
    GeneratorSpec,
    Instance,
    generate_instance,
    load_instance,
    mate,
    metric_closure,
    save_instance,
    validate_metric,
)

from conftest import line_instance, uniform_instance


def test_validate_smallest_legal_metric():
    assert validate_metric([[0, 1], [1, 0]]).ok


def test_validate_flags_asymmetry():
    rep = validate_metric([[0, 1], [2, 0]])
    assert not rep.ok
    assert any(v.kind == "symmetry" and v.where == (0, 1) for v in rep.violations)


def test_validate_flags_triangle_violation():
    d = [[0, 1, 10], [1, 0, 1], [10, 1, 0]]
    rep = validate_metric(d)
    assert not rep.ok
    kinds = {v.kind for v in rep.violations}
    assert "triangle" in kinds
    trv = next(v for v in rep.violations if v.kind == "triangle")
    assert set(trv.where) == {0, 1, 2}


def test_validate_reports_at_most_ten():
    d = np.ones((8, 8), dtype=np.int64)  # nonzero diagonal everywhere
    rep = validate_metric(d)
    assert not rep.ok
    assert len(rep.violations) <= 10


def test_closure_identity_on_metric():
    d = np.array([[0, 1], [1, 0]])
    assert np.array_equal(metric_closure(d), d)


def test_closure_shortens_long_edge():
    d = np.array([[0, 1, 10], [1, 0, 1], [10, 1, 0]])
    c = metric_closure(d)
    assert c[0, 2] == 2
    assert validate_metric(c).ok


def test_closure_idempotent_and_entrywise_leq():
    rng = np.random.default_rng(3)
    raw = rng.integers(1, 50, size=(10, 10))
    d = np.triu(raw, 1)
    d = d + d.T
    c = metric_closure(d)
    assert np.all(c <= d)
    assert np.array_equal(metric_closure(c), c)
    assert validate_metric(c).ok


def test_closure_rejects_zero_off_diagonal():
    with pytest.raises(MetricError, match="zero off-diagonal"):
        metric_closure([[0, 0], [0, 0]])


def test_validate_rejects_out_of_range_distance():
    big = 2**62  # one past the cap that keeps pairwise sums inside int64
    rep = validate_metric([[0, big], [big, 0]])
    assert not rep.ok
    assert rep.violations[0].kind == "range"


def test_mate_is_an_involution():
    for k in range(100):
        assert mate(mate(k)) == k
        assert mate(k) in (k - 1, k + 1)


@pytest.mark.parametrize("kind", ["euclidean", "random-metric", "line-chain"])
def test_generators_are_deterministic_and_valid(kind):
    spec = GeneratorSpec(kind=kind, n=5, seed=7)
    a = generate_instance(spec)
    b = generate_instance(spec)
    assert a == b
    assert save_instance(a) == save_instance(b)
    assert validate_metric(a.dist).ok


def test_generator_rejects_n_zero():
    with pytest.raises(ConfigError):
        generate_instance(GeneratorSpec(kind="euclidean", n=0, seed=1))


def test_line_chain_pair_levels():
    # Spans 1 and 4 for n=2, so pair levels are ceil(log2) = 0 and 2.
    inst = generate_instance(GeneratorSpec(kind="line-chain", n=2, seed=11))
    assert inst.d(0, 1) == 1
    assert inst.d(2, 3) == 4
    assert inst.view(2).levels == (0, 0, 2, 2)


def test_view_exposes_prefix_only(w1):
    v1 = w1.view(1)
    assert v1.num_terminals == 2
    assert v1.demands == ((0, 1),)
    assert v1.d(0, 1) == w1.d(0, 1)
    with pytest.raises(ConfigError):
        v1.d(0, 2)
    with pytest.raises(ConfigError):
        v1.d(0, -1)  # numpy would read d(0, 3) through the negative index
    with pytest.raises(ConfigError):
        w1.view(3)
    # The whole instance checks its ids the same way.
    assert w1.d(2, 3) == 4
    for a, b in ((0, -1), (-4, 3), (0, 4)):
        with pytest.raises(ConfigError):
            w1.d(a, b)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_view_levels_are_ceil_log2_of_the_pair_distance(kind):
    inst = generate_instance(GeneratorSpec(kind=kind, n=20, seed=3))
    for t in (1, 7, 20):
        view = inst.view(t)
        # Exact ceil(log2 d) for integer d >= 1: the least k with 2^k >= d.
        want = tuple(next(k for k in range(64) if 1 << k >= inst.d(v, mate(v)))
                     for v in range(2 * t))
        assert view.levels == want


def test_view_levels_at_max_dist():
    assert uniform_instance(2).view(2).levels == (62, 62, 62, 62)


def test_view_cost_is_the_sum_of_the_distances():
    import random

    inst = generate_instance(GeneratorSpec(kind="random-metric", n=8, seed=5))
    rng = random.Random(1)
    for t in (1, 4, 8):
        view = inst.view(t)
        for size in (0, 1, 2, 5, 30):
            edges = [tuple(rng.sample(range(2 * t), 2)) if t > 1 else (0, 1)
                     for _ in range(size)]
            # view.d is a one-edge cost, so the reference reads the whole instance.
            assert view.cost(edges) == sum(inst.d(a, b) for a, b in edges)
            assert view.cost(frozenset(edges)) == sum(inst.d(a, b) for a, b in set(edges))
            assert [view.d(a, b) for a, b in edges] == [inst.d(a, b) for a, b in edges]
    with pytest.raises(ConfigError):
        inst.view(2).cost([(0, 1), (2, 4)])
    with pytest.raises(ConfigError):
        inst.view(2).cost([(0, 1), (-1, 2)])


def test_view_cost_is_exact_past_int64():
    cost = uniform_instance(2).view(2).cost([(0, 1), (1, 2), (2, 3)])
    assert cost == 3 * MAX_DIST > 2**63
    assert type(cost) is int


def test_view_distances_agree_with_base():
    inst = generate_instance(GeneratorSpec(kind="random-metric", n=6, seed=2))
    for t in range(1, inst.n + 1):
        sub = inst.view(t).dist_matrix()
        assert np.array_equal(sub, inst.dist[: 2 * t, : 2 * t])


def test_roundtrip_minimal_instance():
    text = "SFONLINE 1 2 1\nMATRIX\n1\nDEMANDS\n0 1\n"
    inst = load_instance(text)
    assert inst.n == 1
    assert inst.d(0, 1) == 1
    assert load_instance(save_instance(inst)) == inst


def test_roundtrip_generated_instances(w1):
    for inst in (
        w1,
        generate_instance(GeneratorSpec(kind="euclidean", n=4, seed=9)),
        generate_instance(GeneratorSpec(kind="line-chain", n=6, seed=1)),
    ):
        assert load_instance(save_instance(inst)) == inst


def test_load_rejects_bad_header():
    with pytest.raises(FormatError) as ei:
        load_instance("SFONLINE 2 2 1\nMATRIX\n1\nDEMANDS\n0 1\n")
    assert ei.value.code == "E_HEADER"


def test_load_rejects_non_integer_distance():
    with pytest.raises(FormatError) as ei:
        load_instance("SFONLINE 1 2 1\nMATRIX\n1.5\nDEMANDS\n0 1\n")
    assert ei.value.code == "E_INT"


def test_load_rejects_wrong_pair_ids():
    with pytest.raises(FormatError) as ei:
        load_instance("SFONLINE 1 4 2\nMATRIX\n1\n5 5\n5 5 1\nDEMANDS\n0 1\n3 2\n")
    assert ei.value.code == "E_PAIR"


def test_load_rejects_metric_violation():
    text = "SFONLINE 1 4 2\nMATRIX\n1\n10 10\n10 10 1\nDEMANDS\n0 1\n2 3\n"
    bad = text.replace("10 10 1", "1 1 1")  # d(3,0)=1, d(0,2)=10, d(2,3)=1 -> triangle broken
    with pytest.raises(MetricError):
        load_instance(bad)


@pytest.mark.parametrize("good", [True, False])
def test_load_validates_the_metric_once(monkeypatch, good):
    import sfonline.metric as metric_mod

    calls = []
    validate = metric_mod.validate_metric

    def counted(dist):
        calls.append(dist)
        return validate(dist)

    monkeypatch.setattr(metric_mod, "validate_metric", counted)
    text = "SFONLINE 1 4 2\nMATRIX\n1\n10 10\n10 10 1\nDEMANDS\n0 1\n2 3\n"
    if good:
        load_instance(text)
    else:
        with pytest.raises(MetricError) as ei:
            load_instance(text.replace("10 10 1", "1 1 1"))
        assert ei.value.code == "E_METRIC"
    assert len(calls) == 1


def test_comments_and_label_roundtrip():
    inst = line_instance([0, 2, 7, 9], label="commented")
    text = "# leading comment\n" + save_instance(inst) + "# trailing\n"
    again = load_instance(text)
    assert again == inst
    assert again.label == "commented"


def test_every_generated_instance_validates():
    for seed in range(5):
        for kind in ("euclidean", "random-metric", "line-chain"):
            inst = generate_instance(GeneratorSpec(kind=kind, n=3, seed=seed))
            assert validate_metric(inst.dist).ok


# ---------------------------------------------------------------------------
# The row-wise parser and writer against the token-by-token reference.
# ---------------------------------------------------------------------------

def _reference_parse_int(tok, what):
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"non-integer {what}: {tok!r}", code="E_INT") from None


def reference_load_instance(text):
    """load_instance parsing and range-checking one matrix token at a time."""
    label = ""
    rows = []
    for raw in text.splitlines():
        if raw.startswith("# label:"):
            label = raw[len("# label:"):].strip()
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise FormatError("empty instance file", code="E_HEADER")
    head = rows[0].split()
    if len(head) != 4 or head[0] != "SFONLINE" or head[1] != "1":
        raise FormatError(f"malformed header: {rows[0]!r}", code="E_HEADER")
    T = _reference_parse_int(head[2], "terminal count")
    n = _reference_parse_int(head[3], "pair count")
    if n < 1 or T != 2 * n:
        raise FormatError(f"header wants T = 2n, got T={T} n={n}", code="E_HEADER")
    if len(rows) < 2 or rows[1] != "MATRIX":
        raise FormatError("expected MATRIX section", code="E_HEADER")
    body = rows[2:]
    if len(body) < T - 1:
        raise FormatError("matrix section truncated", code="E_HEADER")
    dist = np.zeros((T, T), dtype=np.int64)
    for k in range(1, T):
        toks = body[k - 1].split()
        if len(toks) != k:
            raise FormatError(f"matrix line {k} holds {len(toks)} entries, wants {k}",
                              code="E_HEADER")
        for j, tok in enumerate(toks):
            val = _reference_parse_int(tok, "distance")
            if not 0 <= val <= MAX_DIST:
                raise MetricError(f"dist({k},{j}) = {val} outside [1, 2^62-1]")
            dist[k, j] = dist[j, k] = val
    body = body[T - 1:]
    if not body or body[0] != "DEMANDS":
        raise FormatError("expected DEMANDS section", code="E_HEADER")
    dem_rows = body[1:]
    if len(dem_rows) != n:
        raise FormatError(f"expected {n} demand lines, got {len(dem_rows)}", code="E_HEADER")
    seen = set()
    demands = []
    for t, row in enumerate(dem_rows, start=1):
        toks = row.split()
        if len(toks) != 2:
            raise FormatError(f"demand line {t} is not 'u v'", code="E_PAIR")
        u, v = (_reference_parse_int(x, "terminal id") for x in toks)
        if u in seen or v in seen:
            raise FormatError(f"terminal appears in two pairs at demand {t}", code="E_PAIR")
        seen.update((u, v))
        if (u, v) != (2 * t - 2, 2 * t - 1):
            raise FormatError(f"demand {t} must be ({2 * t - 2}, {2 * t - 1}), got ({u}, {v})",
                              code="E_PAIR")
        demands.append((u, v))
    report = validate_metric(dist)
    if not report.ok:
        raise MetricError(report.first_message())
    return Instance(n=n, dist=dist, demands=tuple(demands), label=label)


def reference_save_instance(inst):
    """save_instance formatting one numpy entry at a time."""
    T = inst.num_terminals
    lines = [f"# label: {inst.label}"] if inst.label else []
    lines += [f"SFONLINE 1 {T} {inst.n}", "MATRIX"]
    for k in range(1, T):
        lines.append(" ".join(str(int(inst.dist[k, j])) for j in range(k)))
    lines.append("DEMANDS")
    lines += [f"{u} {v}" for u, v in inst.demands]
    return "\n".join(lines) + "\n"


def parse_outcome(parse, text):
    """The parsed Instance, or (error type, code, message)."""
    try:
        return parse(text)
    except SfonlineError as err:
        return type(err), err.code, str(err)


GENERATED = [generate_instance(GeneratorSpec(kind=kind, n=n, seed=seed))
             for kind in GENERATOR_KINDS for n, seed in ((1, 0), (5, 1), (40, 2))]


@pytest.mark.parametrize("inst", GENERATED, ids=lambda inst: f"{inst.label.split()[0]}-n{inst.n}")
def test_row_parser_and_writer_match_the_token_reference(inst):
    text = save_instance(inst)
    assert text == reference_save_instance(inst)
    got = load_instance(text)
    assert got == inst and got == reference_load_instance(text)


EDITED_TOKENS = ["+5", "1_000", "x", "-1", str(2**62), str(10**30), "0", str(MAX_DIST)]


@pytest.mark.parametrize("token", EDITED_TOKENS)
def test_row_parser_errors_match_the_token_reference(token):
    # Replace one token of a matrix line (first, middle or last), alone and
    # with a second bad token after it, so the first error must win.
    lines = save_instance(generate_instance(GeneratorSpec(kind="euclidean", n=40, seed=2)))
    lines = lines.split("\n")
    start = lines.index("MATRIX") + 1
    for k in (1, 2, 7, 79):
        toks = lines[start + k - 1].split()
        for j in sorted({0, k // 2, k - 1}):
            for tail in ((), ("y",), ("-2",)):
                edited = toks[:j] + [token] + list(tail) + toks[j + 1 + len(tail):]
                if len(edited) != k:
                    continue
                text = "\n".join(lines[:start + k - 1] + [" ".join(edited)]
                                 + lines[start + k:])
                want = parse_outcome(reference_load_instance, text)
                got = parse_outcome(load_instance, text)
                assert got == want, (k, j, tail)

