"""Terminal-only metric Steiner forest instances.

An instance is an exact integer metric on 2n terminals plus an ordered list
of n demand pairs. Terminal ids are dense and arrival-ordered: pair t
(1-based) contributes ids 2t-2 and 2t-1, so the mate of id k is always
k XOR 1. Distances are nonnegative integers with dist(a,b) >= 1 for a != b
and the triangle inequality holding exactly; generators fix-point-scale and
re-close their output so this is never approximate.
"""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np

from .errors import ConfigError, FormatError, MetricError

# Distances keep one bit of int64 headroom so any two of them can be added
# without overflow inside vectorized shortest-path code.
MAX_DIST = 2**62 - 1

GENERATOR_KINDS = ("euclidean", "random-metric", "line-chain")

_KIND_ALIASES = {
    "euclidean": "euclidean",
    "euclid": "euclidean",
    "random-metric": "random-metric",
    "random": "random-metric",
    "line-chain": "line-chain",
    "line": "line-chain",
    "chain": "line-chain",
}


def mate(k: int) -> int:
    """The other endpoint of terminal k's demand pair."""
    return k ^ 1


def _checked_entries(dist) -> np.ndarray:
    """`dist` as an int64 matrix, or the MetricError of the first failed entry
    check: square shape, integer entries, zero diagonal, symmetry, and
    off-diagonal entries in [1, MAX_DIST]."""
    try:
        a = np.asarray(dist)
    except ValueError:  # rows of unequal length
        raise MetricError("matrix is not square: shape (ragged)") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MetricError(f"matrix is not square: shape {a.shape}")
    if a.dtype.kind not in "iu":
        # Exact Python ints: a float entry counts only if finite and integral.
        entries = a.ravel().tolist()
        if not all(isinstance(x, (int, np.integer)) or isinstance(x, float) and x.is_integer()
                   for x in entries):
            raise MetricError("non-integer distance entry")
        a = np.array([int(x) for x in entries], dtype=object).reshape(a.shape)
    bad = np.flatnonzero(np.diagonal(a) != 0)
    if len(bad):
        k = bad[0]
        raise MetricError(f"dist({k},{k}) = {int(a[k, k])} != 0")
    bad = np.argwhere(a != a.T)
    if len(bad):
        i, j = bad[0]  # row-major, so i < j
        raise MetricError(f"dist({i},{j}) = {int(a[i, j])} but dist({j},{i}) = {int(a[j, i])}")
    bad = np.argwhere(~np.eye(len(a), dtype=bool) & ((a < 1) | (a > MAX_DIST)))
    if len(bad):
        i, j = bad[0]
        raise MetricError(f"dist({i},{j}) = {int(a[i, j])} outside [1, 2^62-1]")
    return np.asarray(a, dtype=np.int64)


def validate_metric(dist) -> None:
    """Raise MetricError, naming the first violation, unless `dist` is a
    square matrix of integers with a zero diagonal, symmetric, its other
    entries in [1, MAX_DIST] and the triangle inequality exact. The checks
    run in that order."""
    a = _checked_entries(dist)
    # Safe to add in int64: all entries are within [0, 2^62-1] here.
    for b in range(len(a)):
        viol = a > a[:, b, None] + a[None, b, :]
        if viol.any():
            i, j = np.argwhere(viol)[0]
            raise MetricError(f"dist({i},{j}) = {int(a[i, j])} > dist({i},{b}) + dist({b},{j})"
                              f" = {int(a[i, b]) + int(a[b, j])}")


def metric_closure(dist) -> np.ndarray:
    """All-pairs shortest-path closure of a matrix that passes every check
    of validate_metric but the triangle inequality, with its messages.

    Output satisfies the triangle inequality exactly, is entrywise <= the
    input, and is idempotent.
    """
    a = np.array(_checked_entries(dist))
    for k in range(len(a)):
        np.minimum(a, a[:, k, None] + a[None, k, :], out=a)
    return a


def _pair_levels(dist) -> tuple[int, ...]:
    """ceil(log2 dist(v, mate(v))) of every terminal v, by exact bit length."""
    ids = np.arange(len(dist))
    return tuple((d - 1).bit_length() for d in dist[ids, mate(ids)].tolist())


@dataclasses.dataclass(frozen=True, eq=False)
class Instance:
    """Immutable offline instance: n pairs on a 2n-terminal integer metric.

    `levels[v]` is terminal v's level, fixed by its pair's distance and
    computed once here. The arguments are checked as given, in this order:
    n is an int >= 1 and dist is (2n, 2n), not ragged (else ConfigError), the
    demands a tuple of tuples of numbers equal to ((0, 1), (2, 3), ...) (else
    FormatError E_PAIR), and dist passes validate_metric. Only then is dist cast to int64."""

    n: int
    dist: np.ndarray  # (2n, 2n) int64, read-only
    demands: tuple[tuple[int, int], ...]
    label: str = ""
    levels: tuple[int, ...] = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:
            raise ConfigError(f"instance needs an integer n >= 1, got {self.n!r}")
        try:
            shape = (d := np.asarray(self.dist)).shape
        except ValueError:  # rows of unequal length
            shape = "(ragged)"
        if shape != (2 * self.n, 2 * self.n):
            raise ConfigError(f"distance matrix shape {shape} does not match n={self.n}")
        pairs = tuple((2 * t - 2, 2 * t - 1) for t in range(1, self.n + 1))
        ds = self.demands  # ids must be numbers, so == gives a bool: no numpy array
        if type(ds) is not tuple or any(type(p) is not tuple or not all(
                isinstance(k, (int, float, np.number)) for k in p) for p in ds) or ds != pairs:
            raise FormatError("demand ids must be (2t-2, 2t-1) in arrival order", code="E_PAIR")
        object.__setattr__(self, "demands", pairs)
        validate_metric(d)
        d = np.asarray(d, dtype=np.int64)
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "levels", _pair_levels(d))

    @property
    def num_terminals(self) -> int:
        return 2 * self.n

    def d(self, a: int, b: int) -> int:
        """d(a, b); an id outside 0 .. 2n-1 is a ConfigError, as in a view."""
        return InstanceView(self, self.n).d(a, b)

    def view(self, t: int) -> "InstanceView":
        if not 0 <= t <= self.n:
            raise ConfigError(f"arrival count t={t} outside 0..{self.n}")
        return InstanceView(self, t)

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.dist, other.dist)
                and self.demands == other.demands and self.label == other.label)

    def content_hash(self) -> str:
        import hashlib

        return hashlib.sha256(save_instance(self).encode()).hexdigest()[:16]


@dataclasses.dataclass(frozen=True)
class InstanceView:
    """Read-only prefix of an instance: terminals 0..2t-1, demands 1..t."""

    base: Instance
    t: int

    @property
    def num_terminals(self) -> int:
        return 2 * self.t

    @property
    def demands(self) -> tuple[tuple[int, int], ...]:
        return self.base.demands[: self.t]

    @property
    def levels(self) -> tuple[int, ...]:
        """The arrived terminals' levels."""
        return self.base.levels[: 2 * self.t]

    def d(self, a: int, b: int) -> int:
        return self.cost(((a, b),))

    def cost(self, edges) -> int:
        """Exact total distance of an edge set, summed in Python ints; an id
        outside the arrived terminals 0..2t-1 is a ConfigError."""
        T = 2 * self.t
        item = self.base.dist.item
        total = 0
        for a, b in edges:
            if not (0 <= a < T and 0 <= b < T):
                raise ConfigError(f"edge ({a},{b}) has a terminal not yet arrived at t={self.t}")
            total += item(a, b)
        return total

    def dist_matrix(self) -> np.ndarray:
        return self.base.dist[: 2 * self.t, : 2 * self.t]


@dataclasses.dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n: int
    seed: int = 0
    scale: int = 1000

    def canonical_kind(self) -> str:
        k = _KIND_ALIASES.get(self.kind)
        if k is None:
            raise ConfigError(f"unknown generator kind {self.kind!r}; expected one of {GENERATOR_KINDS}")
        return k


def _euclidean_matrix(n, rng, scale):
    pts = [(rng.random(), rng.random()) for _ in range(2 * n)]
    T = 2 * n
    a = np.zeros((T, T), dtype=np.int64)
    for i in range(T):
        for j in range(i + 1, T):
            d = round(scale * math.dist(pts[i], pts[j]))
            a[i, j] = a[j, i] = max(d, 1)  # coincident points perturbed to distance >= 1
    return metric_closure(a)


def _random_metric_matrix(n, rng, scale):
    T = 2 * n
    a = np.zeros((T, T), dtype=np.int64)
    for i in range(T):
        for j in range(i + 1, T):
            a[i, j] = a[j, i] = rng.randint(1, max(scale, 1))
    return metric_closure(a)


def _line_chain_matrix(n, rng):
    # Pair t spans 4^((t-1) mod 16): geometrically growing levels, capped so
    # positions stay far below the 2^62 distance bound. The seed jitters only
    # the gaps between pairs, so pair levels depend on n alone.
    spans = [4 ** ((t - 1) % 16) for t in range(1, n + 1)]
    pos = []
    x = 0
    for t in range(n):
        pos.append(x)
        pos.append(x + spans[t])
        nxt = spans[t + 1] if t + 1 < n else spans[t]
        x += spans[t] + rng.randint(1, 2 * nxt)
    p = np.array(pos, dtype=np.int64)
    return np.abs(p[:, None] - p[None, :])


def generate_instance(spec: GeneratorSpec) -> Instance:
    """Deterministic instance from a generator spec (same spec, same bytes)."""
    kind = spec.canonical_kind()
    if spec.n < 1:
        raise ConfigError("generator needs n >= 1")
    if spec.scale < 1:
        raise ConfigError("generator needs scale >= 1")
    rng = random.Random(spec.seed)
    if kind == "euclidean":
        dist = _euclidean_matrix(spec.n, rng, spec.scale)
    elif kind == "random-metric":
        dist = _random_metric_matrix(spec.n, rng, spec.scale)
    else:
        dist = _line_chain_matrix(spec.n, rng)
    demands = tuple((2 * t - 2, 2 * t - 1) for t in range(1, spec.n + 1))
    label = f"{kind} n={spec.n} seed={spec.seed} scale={spec.scale}"
    return Instance(n=spec.n, dist=dist, demands=demands, label=label)


def save_instance(inst: Instance) -> str:
    """Serialize to the SFONLINE text format (see README)."""
    T = inst.num_terminals
    lines = []
    if inst.label:
        lines.append(f"# label: {inst.label}")
    lines.append(f"SFONLINE 1 {T} {inst.n}")
    lines.append("MATRIX")
    rows = inst.dist.tolist()
    lines.extend(" ".join(map(str, rows[k][:k])) for k in range(1, T))
    lines.append("DEMANDS")
    lines.extend(f"{u} {v}" for u, v in inst.demands)
    return "\n".join(lines) + "\n"


def _parse_int(tok, what):
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"non-integer {what}: {tok!r}", code="E_INT") from None


def _matrix_row_error(k, toks):
    """Raise the error of the first bad token of matrix line k, in token order."""
    for j, tok in enumerate(toks):
        val = _parse_int(tok, "distance")
        if not 0 <= val <= MAX_DIST:
            raise MetricError(f"dist({k},{j}) = {val} outside [1, 2^62-1]")
    raise AssertionError(f"matrix line {k} has no bad token (internal bug)")


def load_instance(text: str) -> Instance:
    """Parse the SFONLINE format; `#` starts a comment, blank lines ignored."""
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
    T = _parse_int(head[2], "terminal count")
    n = _parse_int(head[3], "pair count")
    if n < 1 or T != 2 * n:
        raise FormatError(f"header wants T = 2n, got T={T} n={n}", code="E_HEADER")

    if len(rows) < 2 or rows[1] != "MATRIX":
        raise FormatError("expected MATRIX section", code="E_HEADER")
    body = rows[2:]
    if len(body) < T - 1:
        raise FormatError("matrix section truncated", code="E_HEADER")
    # Rows are parsed and range-checked whole; a row that fails is parsed
    # again token by token, for the first bad token's error.
    dist = np.zeros((T, T), dtype=np.int64)
    for k in range(1, T):
        toks = body[k - 1].split()
        if len(toks) != k:
            raise FormatError(f"matrix line {k} holds {len(toks)} entries, wants {k}",
                              code="E_HEADER")
        try:
            row = list(map(int, toks))
        except ValueError:
            _matrix_row_error(k, toks)
        if min(row) < 0 or max(row) > MAX_DIST:
            _matrix_row_error(k, toks)
        dist[k, :k] = row
    dist += dist.T  # the upper triangle is still zero

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
        u, v = (_parse_int(x, "terminal id") for x in toks)
        if u in seen or v in seen:
            raise FormatError(f"terminal appears in two pairs at demand {t}", code="E_PAIR")
        seen.update((u, v))
        if (u, v) != (2 * t - 2, 2 * t - 1):
            raise FormatError(f"demand {t} must be ({2 * t - 2}, {2 * t - 1}), got ({u}, {v})",
                              code="E_PAIR")
        demands.append((u, v))

    # Instance validates the metric (E_METRIC) once.
    return Instance(n=n, dist=dist, demands=tuple(demands), label=label)


def load_instance_file(path) -> Instance:
    """Read and parse an instance file; a file that cannot be read or is not
    UTF-8 is a FormatError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise FormatError(f"bad instance file {path}: {type(err).__name__}: {err}") from err
    return load_instance(text)


def save_instance_file(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(save_instance(inst))
