"""Undirected simple graphs: metrics, products, and graph6 serialization.

Vertices are integers 0..n-1; edges are unordered pairs stored as (u, v)
with u < v.  Each product, the join and the complement is the support_graph
of its adjacency identity, so product graphs index vertex (i, j) as
i * n2 + j, the Kronecker index.
"""

from __future__ import annotations

import json
import math
import operator
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


class MalformedGraph6(ValueError):
    """Raised on graph6 input that violates the format."""


def _label(x) -> int:
    """x as an int: numpy integers become ints; floats and bools are rejected."""
    if isinstance(x, bool):
        raise TypeError("'bool' object cannot be interpreted as an integer")
    return operator.index(x)


def _require_vertices(n: int, vertices):
    """Raise IndexError unless vertices, an array of any shape, holds integers in 0..n-1;
    a bool is not one, though np.asarray reads a bool among ints as 0 or 1."""
    v = np.asarray(vertices)
    if (v.dtype.kind not in "iu" or ((v < 0) | (v >= n)).any() or v is not vertices
            and any(isinstance(x, (bool, np.bool_)) for x in np.asarray(vertices, dtype=object).flat)):
        raise IndexError(f"vertex out of range 0..{n - 1}")


@lru_cache(maxsize=256, typed=True)  # graphs with an edge in common share its tuple
def _normalize_edge(u, v) -> tuple[int, int]:
    u, v = _label(u), _label(v)
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        # a label is an int wherever it is read (json, numpy indexing)
        n = _label(self.n)
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        edges = frozenset(_normalize_edge(u, v) for u, v in self.edges)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")

    # -- basic accessors ---------------------------------------------------

    def degrees(self) -> list:
        d = [0] * self.n
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return d

    def max_degree(self) -> int:
        return max(self.degrees())

    def is_regular(self) -> bool:
        d = self.degrees()
        return min(d) == max(d)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.int64)
        for u, v in self.edges:
            a[u, v] = a[v, u] = 1
        return a

    def is_connected(self) -> bool:
        return None not in _bfs(self, 0)

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": self.sorted_edges()})

    @staticmethod
    def from_json(text: str) -> "Graph":
        data = json.loads(text)
        return Graph(data["n"], frozenset(tuple(e) for e in data["edges"]))


# -- standard constructions ------------------------------------------------


def path_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def hypercube_graph(d: int) -> Graph:
    """d-fold Cartesian power of K2; Q0 is K1."""
    if d < 0:
        raise ValueError("hypercube dimension must be nonnegative")
    g = complete_graph(1)
    for _ in range(d):
        g = cartesian_product(g, complete_graph(2))
    return g


# -- metrics ---------------------------------------------------------------


def _bfs(g: Graph, u: int) -> list:
    """Breadth-first distance from u to every vertex; None where unreachable."""
    adj = [[] for _ in range(g.n)]
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    dist = [None] * g.n
    dist[u] = 0
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if dist[y] is None:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def distance(g: Graph, u: int, v: int):
    """Shortest-path distance by BFS; None when u and v are disconnected."""
    _require_vertices(g.n, (u, v))
    return _bfs(g, u)[v]


def diameter(g: Graph):
    """Maximum pairwise distance; None when g is disconnected."""
    best = 0
    for u in range(g.n):
        dist = _bfs(g, u)
        if None in dist:
            return None
        best = max(best, *dist)
    return best


@dataclass(frozen=True)
class BipartiteColoring:
    colors: tuple  # "R"/"B" per vertex; meaningful only when valid
    valid: bool


def bipartite_coloring(g: Graph) -> BipartiteColoring:
    """2-color by BFS depth parity; the first vertex of each component is red.

    valid is False exactly when some edge joins equal colors (odd cycle).
    """
    color = [None] * g.n
    for start in range(g.n):
        if color[start] is None:
            for v, d in enumerate(_bfs(g, start)):
                if d is not None:
                    color[v] = "RB"[d % 2]
    return BipartiteColoring(tuple(color), all(color[u] != color[v] for u, v in g.edges))


# -- products and combinations ----------------------------------------------


def support_graph(h) -> Graph:
    """Graph with an edge (u, v), u < v, wherever h[u, v] is nonzero.

    The diagonal and the lower triangle are not read.
    """
    h = np.asarray(h)
    u, v = np.nonzero(np.triu(h != 0, 1))
    return Graph(h.shape[0], frozenset(zip(u.tolist(), v.tolist())))


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """(u1,u2) ~ (v1,v2) iff one coordinate is equal and the other adjacent.

    Adjacency satisfies A = A1 (x) I + I (x) A2.
    """
    return support_graph(np.kron(g1.adjacency(), np.eye(g2.n))
                         + np.kron(np.eye(g1.n), g2.adjacency()))


def conjunction(g1: Graph, g2: Graph) -> Graph:
    """Tensor product: both coordinates adjacent.  A = A1 (x) A2."""
    return support_graph(np.kron(g1.adjacency(), g2.adjacency()))


def strong_product(g1: Graph, g2: Graph) -> Graph:
    """Union of the Cartesian and tensor product edge sets: the off-diagonal
    support of (A1 + I) (x) (A2 + I)."""
    return support_graph(np.kron(g1.adjacency() + np.eye(g1.n),
                                 g2.adjacency() + np.eye(g2.n)))


def join(g1: Graph, g2: Graph) -> tuple:
    """Disjoint union plus all cross edges: A = [[A1, J], [J^T, A2]].

    Returns (graph, square_ok).  square_ok reports whether both inputs are
    regular and (d1-d2)^2 + 4*n1*n2 is a perfect square (exact integers);
    it is False whenever either input is irregular.
    """
    cross = np.ones((g1.n, g2.n), dtype=np.int64)
    g = support_graph(np.block([[g1.adjacency(), cross], [cross.T, g2.adjacency()]]))
    square_ok = False
    if g1.is_regular() and g2.is_regular():
        d1 = g1.degrees()[0]
        d2 = g2.degrees()[0]
        val = (d1 - d2) ** 2 + 4 * g1.n * g2.n
        square_ok = math.isqrt(val) ** 2 == val
    return g, square_ok


def complement(g: Graph) -> Graph:
    """Every non-edge becomes an edge: the off-diagonal support of 1 - A."""
    return support_graph(1 - g.adjacency())


# -- graph6 ------------------------------------------------------------------

_G6_MAX = 62  # single-byte size encoding only


def _g6_pairs(n: int) -> list:
    # column-major upper triangle: (0,1), (0,2), (1,2), (0,3), ...
    return [(u, v) for v in range(1, n) for u in range(v)]


def encode_graph6(g: Graph) -> str:
    """Encode in the standard graph6 format (n < 63 only)."""
    if g.n > _G6_MAX:
        raise ValueError(f"graph6 encoding limited to n <= {_G6_MAX}")
    bits = [int(e in g.edges) for e in _g6_pairs(g.n)]
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        word = 0
        for b in bits[i : i + 6]:
            word = (word << 1) | b
        out.append(chr(word + 63))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """Parse a single graph6 line (n < 63)."""
    text = text.strip()
    if not text:
        raise MalformedGraph6("empty graph6 string")
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    for ch in text:
        if not (63 <= ord(ch) <= 126):
            raise MalformedGraph6(f"byte {ord(ch)} out of graph6 range")
    n = ord(text[0]) - 63
    if n > _G6_MAX:
        raise MalformedGraph6("multi-byte graph6 sizes not supported")
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    body = text[1:]
    if len(body) != nbytes:
        raise MalformedGraph6(
            f"expected {nbytes} data bytes for n={n}, got {len(body)}"
        )
    bits = []
    for ch in body:
        word = ord(ch) - 63
        bits.extend((word >> k) & 1 for k in range(5, -1, -1))
    if any(bits[npairs:]):
        raise MalformedGraph6("nonzero padding bits")
    return Graph(n, frozenset(e for e, bit in zip(_g6_pairs(n), bits) if bit))
