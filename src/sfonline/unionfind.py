"""Disjoint-set forest with path halving, keyed by arbitrary hashables."""


class UnionFind:
    """`parent` is keyed in first-touch order and a root is its set's least id."""

    def __init__(self, edges=()):
        self.parent = {}
        for a, b in edges:
            self.union(a, b)

    def find(self, x):
        """Root of x's set, halving the path on the way."""
        parent = self.parent
        x = parent.setdefault(x, x)
        while x != (p := parent[x]):
            parent[x] = x = parent[p]
        return x

    def union(self, a, b):
        """Merge the sets of a and b; the smaller root id wins (canonical).
        Both roots are walked inline, as find walks one: a union is one call."""
        parent = self.parent
        a, b = parent.setdefault(a, a), parent.setdefault(b, b)
        while a != (p := parent[a]):
            parent[a] = a = parent[p]
        while b != (p := parent[b]):
            parent[b] = b = parent[p]
        if a == b:
            return False
        if b < a:
            a, b = b, a
        parent[b] = a
        return True

    def connected(self, a, b):
        return self.find(a) == self.find(b)

    def roots(self):
        """Every touched id mapped to its root, in first-touch order: `parent`
        itself, compressed in place."""
        parent = self.parent
        for x, r in parent.items():
            while r != (p := parent[r]):
                r = p
            parent[x] = r
        return parent
