import numpy as np
import pytest

from sfonline.certify import inherited_clustering
from sfonline.clustering import NO_TERMINALS
from sfonline.metric import MAX_DIST, Instance


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


def clustering_of(labels, levels):
    """The clustering that groups terminals k with equal labels[k], one
    terminal per entry of `levels`: the trivial one with each terminal
    joined to the first of its label."""
    assert len(labels) == len(levels)
    first = {}
    return NO_TERMINALS.grown(levels).contract(
        [(first.setdefault(label, k), k) for k, label in enumerate(labels)])


def inherited_clusterings(out):
    """An arrival's C_inh,0 .. C_inh,L, each derived from C_i, C_{i+1} and
    the level's inherited forest edges."""
    h = out.hierarchy
    return {i: inherited_clustering(h.clustering(i), h.clustering(i + 1),
                                    [ve.endpoints for ve in out.forest.get(i, [])
                                     if ve.inherited])
            for i in range(h.L + 1)}


@pytest.fixture
def w1():
    """Worked 4-terminal example: a,b at 0,1; c,d at 10,14; pairs (a,b),(c,d).

    Hand facts used throughout the suite: pair levels 0 and 2; optimum cost
    5 = 1 + 4 (the merged single-group tree on the line costs 14); hierarchy
    at t=2 has C_1 = {ab},{c},{d} and C_3 = {ab},{cd}.
    """
    return line_instance([0, 1, 10, 14], label="W1")
