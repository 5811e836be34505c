import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def validation_message(dist):
    """validate_metric's message, or "ok" for a metric."""
    try:
        validate_metric(dist)
    except MetricError as err:
        return str(err)
    return "ok"


def test_validate_smallest_legal_metric():
    assert validate_metric([[0, 1], [1, 0]]) is None


def test_validate_flags_asymmetry():
    assert validation_message([[0, 1], [2, 0]]) == "dist(0,1) = 1 but dist(1,0) = 2"


def test_validate_flags_triangle_violation():
    d = [[0, 1, 10], [1, 0, 1], [10, 1, 0]]
    assert validation_message(d) == "dist(0,2) = 10 > dist(0,1) + dist(1,2) = 2"


def test_closure_identity_on_metric():
    d = np.array([[0, 1], [1, 0]])
    assert np.array_equal(metric_closure(d), d)


def test_closure_shortens_long_edge():
    d = np.array([[0, 1, 10], [1, 0, 1], [10, 1, 0]])
    c = metric_closure(d)
    assert c[0, 2] == 2
    validate_metric(c)


def test_closure_idempotent_and_entrywise_leq():
    rng = np.random.default_rng(3)
    raw = rng.integers(1, 50, size=(10, 10))
    d = np.triu(raw, 1)
    d = d + d.T
    c = metric_closure(d)
    assert np.all(c <= d)
    assert np.array_equal(metric_closure(c), c)
    validate_metric(c)


def test_closure_rejects_zero_off_diagonal():
    with pytest.raises(MetricError, match=r"^dist\(0,1\) = 0 outside \[1, 2\^62-1\]$"):
        metric_closure([[0, 0], [0, 0]])


@pytest.mark.parametrize("dist", [[[1, 1], [1, 0]], [[0, 1], [2, 0]],
                                  [[0, 2**62], [2**62, 0]], [[0, 1, 2]], [[0, 1], [1]],
                                  [[0, 1.5], [1.5, 0]]],
                         ids=["diagonal", "asymmetric", "range", "shape", "ragged", "float"])
def test_closure_rejects_what_the_validator_rejects(dist):
    with pytest.raises(MetricError) as ei:
        metric_closure(dist)
    assert str(ei.value) == validation_message(dist)


def test_validate_rejects_ragged_rows():
    assert validation_message([[0, 1], [1]]) == "matrix is not square: shape (ragged)"


def test_validate_rejects_out_of_range_distance():
    big = 2**62  # one past the cap that keeps pairwise sums inside int64
    assert validation_message([[0, big], [big, 0]]) == f"dist(0,1) = {big} outside [1, 2^62-1]"


def reference_first_violation(dist):
    """The first violation's message, from the collector that validate_metric
    replaced: it gathered up to ten violations, and Instance raised the first.
    "ok" for a metric."""
    a = np.asarray(dist)
    found = []

    def add(detail):
        if len(found) < 10:
            found.append(detail)

    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return f"matrix is not square: shape {a.shape}"
    if not np.issubdtype(a.dtype, np.integer):
        if np.any(a != np.floor(a)):
            return "non-integer distance entry"
        a = a.astype(np.int64)
    T = a.shape[0]
    for k in np.flatnonzero(np.diagonal(a) != 0)[:10]:
        add(f"dist({k},{k}) = {int(a[k, k])} != 0")
    for i, j in np.argwhere(a != a.T)[:10]:
        if i < j:
            add(f"dist({i},{j}) = {int(a[i, j])} but dist({j},{i}) = {int(a[j, i])}")
    off = ~np.eye(T, dtype=bool)
    for i, j in np.argwhere(off & ((a < 1) | (a > MAX_DIST)))[:10]:
        if i <= j:
            add(f"dist({i},{j}) = {int(a[i, j])} outside [1, 2^62-1]")
    if not found:
        for b in range(T):
            viol = a > a[:, b, None] + a[None, b, :]
            if viol.any():
                for i, j in np.argwhere(viol)[:10]:
                    add(f"dist({i},{j}) = {int(a[i, j])} > dist({i},{b}) + dist({b},{j})"
                        f" = {int(a[i, b]) + int(a[b, j])}")
                if len(found) >= 10:
                    break
    return found[0] if found else "ok"


EDIT_VALUES = (-1, 0, 1, 2, 3, 7, 100, MAX_DIST, MAX_DIST + 1, 2**62 + 5)


@st.composite
def small_matrices(draw):
    """A small matrix, as a list or an int64 or float64 array: a metric
    (a closed random matrix) or not, with up to three entries edited, a
    float entry that is not an integer, or a column too many."""
    T = draw(st.integers(0, 5))
    raw = np.triu(np.array(draw(st.lists(st.integers(1, 12), min_size=T * T, max_size=T * T)),
                           dtype=np.int64).reshape(T, T), 1)
    a = raw + raw.T
    if T and draw(st.booleans()):
        a = metric_closure(a)
    a = a.tolist()
    for _ in range(draw(st.integers(0, 3)) if T else 0):
        i, j = draw(st.integers(0, T - 1)), draw(st.integers(0, T - 1))
        a[i][j] = draw(st.sampled_from(EDIT_VALUES))
        if draw(st.booleans()):
            a[j][i] = a[i][j]
    form = draw(st.sampled_from(("list", "int64", "float64", "fraction", "nan", "wide")))
    if form == "int64":
        return np.array(a, dtype=np.int64).reshape(T, T)
    if form == "float64" or not T:
        return np.array(a, dtype=np.float64).reshape(T, T)
    if form == "wide":
        return [row + [1] for row in a]
    if form != "list":
        i, j = draw(st.integers(0, T - 1)), draw(st.integers(0, T - 1))
        a[i][j] = 2.5 if form == "fraction" else float("nan")
    return a


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(small_matrices())
def test_validate_message_matches_the_first_violation_of_the_reference(dist):
    assert validation_message(dist) == reference_first_violation(dist)


# Arguments that Instance and metric_closure must reject with an
# SfonlineError, each with its (error type, message).
NAN, INF = float("nan"), float("inf")
MALFORMED_INSTANCES = {
    "float-entry": ((1, [[0, 1.5], [1.5, 0]], ((0, 1),)),
                    MetricError, "non-integer distance entry"),
    "str-entry": ((1, [[0, "1"], ["1", 0]], ((0, 1),)),
                  MetricError, "non-integer distance entry"),
    "nan-entry": ((1, [[0, NAN], [NAN, 0]], ((0, 1),)),
                  MetricError, "non-integer distance entry"),
    "inf-entry": ((1, [[0, INF], [INF, 0]], ((0, 1),)),
                  MetricError, "non-integer distance entry"),
    "entry-past-int64": ((1, [[0, 2**70], [2**70, 0]], ((0, 1),)),
                         MetricError, f"dist(0,1) = {2**70} outside [1, 2^62-1]"),
    "float-demand": ((1, [[0, 1], [1, 0]], ((0.5, 1),)), FormatError, "demand ids"),
    "str-demand": ((1, [[0, 1], [1, 0]], (("a", "b"),)), FormatError, "demand ids"),
    "array-demands": ((1, [[0, 1], [1, 0]], np.array([[0, 1]])), FormatError, "demand ids"),
    "array-demand": ((1, [[0, 1], [1, 0]], (np.array([0, 1]),)), FormatError, "demand ids"),
    "array-id": ((1, [[0, 1], [1, 0]], ((np.array([0, 1]), 1),)), FormatError, "demand ids"),
    "str-n": (("1", [[0, 1], [1, 0]], ((0, 1),)), ConfigError, "n >= 1"),
    "shape-not-2n": ((2, [[0, 1], [1, 0]], ((0, 1), (2, 3))), ConfigError, "does not match n=2"),
    "ragged-dist": ((1, [[0, 1], [1]], ((0, 1),)), ConfigError, "does not match n=1"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INSTANCES))
def test_instance_rejects_malformed_arguments(case):
    args, error, message = MALFORMED_INSTANCES[case]
    with pytest.raises(SfonlineError) as ei:
        Instance(*args)
    assert type(ei.value) is error and message in str(ei.value)


def test_closure_rejects_a_non_integer_matrix():
    with pytest.raises(SfonlineError, match="non-integer distance entry"):
        metric_closure([[0, 1.5, 3], [1.5, 0, 1], [3, 1, 0]])


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
    validate_metric(a.dist)


def test_generator_rejects_n_zero():
    with pytest.raises(ConfigError):
        generate_instance(GeneratorSpec(kind="euclidean", n=0, seed=1))


def test_generator_rejects_an_unknown_kind_and_scale_zero():
    with pytest.raises(ConfigError, match="unknown generator kind 'spiral'"):
        generate_instance(GeneratorSpec(kind="spiral", n=3, seed=1))
    with pytest.raises(ConfigError, match="scale >= 1"):
        generate_instance(GeneratorSpec(kind="euclidean", n=3, seed=1, scale=0))


def test_an_instance_equals_no_other_type(w1):
    assert w1.__eq__(w1.view(2)) is NotImplemented
    assert w1 != "W1" and w1 == line_instance([0, 1, 10, 14], label="W1")


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


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generate_validates_the_metric_once(monkeypatch, kind):
    # metric_closure checks its input's entries without validate_metric.
    import sfonline.metric as metric_mod

    calls = []
    validate = metric_mod.validate_metric

    def counted(dist):
        calls.append(dist)
        return validate(dist)

    monkeypatch.setattr(metric_mod, "validate_metric", counted)
    generate_instance(GeneratorSpec(kind=kind, n=3, seed=1))
    assert len(calls) == 1


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
            validate_metric(inst.dist)


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
    validate_metric(dist)
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

