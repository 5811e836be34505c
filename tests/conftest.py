import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from sfonline.certify import _inherited_at
from sfonline.clustering import NO_TERMINALS
from sfonline.metric import MAX_DIST, Instance, metric_closure


def line_instance(positions, label="line"):
    """Instance from integer positions on a line, pairs in id order."""
    p = np.asarray(positions, dtype=np.int64)
    assert len(p) % 2 == 0
    dist = np.abs(p[:, None] - p[None, :])
    n = len(p) // 2
    demands = tuple((2 * t - 2, 2 * t - 1) for t in range(1, n + 1))
    return Instance(n=n, dist=dist, demands=demands, label=label)


def uniform_instance(n, d=MAX_DIST):
    """n pairs, every distance d: at MAX_DIST, three edges cost past 2^63."""
    dist = np.full((2 * n, 2 * n), d, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    return Instance(n=n, dist=dist, demands=tuple((2 * p, 2 * p + 1) for p in range(n)))


# Edge weights of the small graphs below: few distinct sums make exact ties
# between shortest paths, which the walk's smallest-id choice breaks.
WEIGHT_FAMILIES = {"one-two": (1, 2), "digits": tuple(range(1, 10)),
                   "powers": tuple(1 << k for k in range(8))}


@st.composite
def graph_closure_instances(draw):
    """An instance of n <= 6 pairs on the metric closure of a small random
    graph whose edge weights come from one of WEIGHT_FAMILIES. A missing
    edge weighs more than any path of present ones."""
    n = draw(st.integers(1, 6))
    T = 2 * n
    weights = WEIGHT_FAMILIES[draw(st.sampled_from(sorted(WEIGHT_FAMILIES)))]
    missing = T * max(weights)
    w = np.zeros((T, T), dtype=np.int64)
    for a, b in itertools.combinations(range(T), 2):
        w[a, b] = w[b, a] = draw(st.sampled_from((*weights, missing)))
    return Instance(n, metric_closure(w), tuple((2 * t, 2 * t + 1) for t in range(n)))


def clustering_of(labels, levels):
    """The clustering that groups terminals k with equal labels[k], one
    terminal per entry of `levels`: the trivial one with each terminal
    joined to the first of its label."""
    assert len(labels) == len(levels)
    first = {}
    return NO_TERMINALS.grown(levels).contract(
        [(first.setdefault(label, k), k) for k, label in enumerate(labels)])


def inherited_clusterings(out):
    """An arrival's C_inh,0 .. C_inh,L, as the certifier derives them."""
    return {i: _inherited_at(out, i) for i in range(out.hierarchy.L + 1)}


@pytest.fixture
def w1():
    """Worked 4-terminal example: a,b at 0,1; c,d at 10,14; pairs (a,b),(c,d).

    Hand facts used throughout the suite: pair levels 0 and 2; optimum cost
    5 = 1 + 4 (the merged single-group tree on the line costs 14); hierarchy
    at t=2 has C_1 = {ab},{c},{d} and C_3 = {ab},{cd}.
    """
    return line_instance([0, 1, 10, 14], label="W1")
