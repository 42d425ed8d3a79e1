"""Weighted graphs with an input/output vertex partition.

A graph is the blueprint of a code: the symmetric integer matrix ``gamma``
(zero diagonal) carries edge weights, ``inputs`` marks the encoded systems
and the remaining vertices are the physical outputs.  Builders for the three
well-known example graphs live here as well.
"""

from __future__ import annotations

import math

from ._frozen import Frozen, integer_list, integers

# Largest sweep, in configurations, and oracle matrix or operator, in entries.
SIZE_CAP = 2**22
# Largest vertex count a graph file may declare: n**2 = SIZE_CAP matrix entries.
MAX_VERTICES = math.isqrt(SIZE_CAP)


def symmetric_matrix(matrix, name: str = "gamma") -> tuple[tuple[int, ...], ...]:
    """The rows of a square, symmetric integer matrix with zero diagonal, as
    tuples of ints; ValueError, naming the matrix ``name``, otherwise."""
    rows = tuple(integers(row, f"{name} entries") for row in matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError(f"{name} must be square")
    for i in range(n):
        if rows[i][i] != 0:
            raise ValueError(f"{name} has a nonzero diagonal entry at {i}")
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"{name} is not symmetric at ({i},{j})")
    return rows


def vertex_set(vertices, what: str) -> tuple[int, ...]:
    """Distinct integer vertices, sorted; ValueError naming ``what`` for a
    vertex that is not an integer."""
    return tuple(sorted(set(integers(vertices, what))))


class WeightedGraph(Frozen):
    """Immutable, equal and hashed by ``gamma`` and ``inputs``; ``name``
    only labels the graph."""

    gamma: tuple[tuple[int, ...], ...]
    inputs: tuple[int, ...]
    name: str
    _fields = ("gamma", "inputs", "name")
    _compared = ("gamma", "inputs")

    def __init__(self, gamma, inputs, name: str = "") -> None:
        gamma = symmetric_matrix(gamma)
        n = len(gamma)
        inputs = vertex_set(inputs, "input vertices")
        if any(not 0 <= v < n for v in inputs):
            raise ValueError(f"input vertex out of range: {inputs}")
        if len(inputs) == n:
            raise ValueError("at least one output vertex is required")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "name", name)

    @property
    def n(self) -> int:
        return len(self.gamma)

    @property
    def outputs(self) -> tuple[int, ...]:
        taken = set(self.inputs)
        return tuple(v for v in range(self.n) if v not in taken)

    def edges(self) -> list[tuple[int, int, int]]:
        """Edges as (u, v, weight) with u < v, lexicographic."""
        return [
            (u, v, self.gamma[u][v])
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if self.gamma[u][v] != 0
        ]

    def with_inputs(self, new_inputs) -> "WeightedGraph":
        return WeightedGraph(self.gamma, tuple(new_inputs), name=self.name)

    @classmethod
    def from_edges(cls, n: int, edges, inputs, name: str = "") -> "WeightedGraph":
        """The graph on 0..n-1 with undirected (u, v, weight) edges; ValueError for a
        vertex count n not an integer >= 1, a vertex not an integer in 0..n-1, a
        self-loop or a pair's conflicting weights."""
        (n,) = integers((n,), "vertex count")
        if n < 1:
            raise ValueError(f"vertex count must be at least 1, got {n}")
        gamma = [[0] * n for _ in range(n)]
        listed: dict[tuple[int, int], int] = {}
        for u, v, w in edges:
            u, v = integers((u, v), "edge vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} out of range for {n} vertices")
            first = listed.setdefault((min(u, v), max(u, v)), w)
            if first != w:
                raise ValueError(
                    f"edge {u}-{v} listed twice with conflicting weights {first} and {w}"
                )
            gamma[u][v] = gamma[v][u] = w
        return cls(gamma, inputs, name=name)


def describe(graph: WeightedGraph) -> str:
    return graph.name or f"{graph.n}-vertex graph"


def validated_config(graph: WeightedGraph, config) -> tuple[int, ...]:
    """An error configuration as sorted distinct vertices; ValueError unless
    every vertex is an output of the graph."""
    cfg = vertex_set(config, "error configuration vertices")
    outside = [v for v in cfg if v in graph.inputs or not 0 <= v < graph.n]
    if outside:
        raise ValueError(
            f"error configuration {cfg} must be a subset of the output "
            f"vertices, offending vertices: {outside}"
        )
    return cfg


def parse_graph(text: str, name: str = "") -> WeightedGraph:
    """Parse the line-oriented graph format.

    Line 1: ``vertices: <n>``.  Line 2: ``inputs: <comma-separated 0-based
    indices>``, read by ``integer_list`` (may be empty, but no part may
    be).  Every further line is one undirected edge ``<u> <v> <w>`` with
    u < v and a nonzero integer weight; unlisted pairs have weight 0.  ``#``
    starts a comment.  A vertex count above MAX_VERTICES is refused before
    anything is allocated; the edges then go to ``WeightedGraph.from_edges``,
    which checks the rules of every graph.
    """
    lines: list[str] = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    if len(lines) < 2:
        raise ValueError("graph file needs a vertices: line and an inputs: line")
    if not lines[0].startswith("vertices:"):
        raise ValueError(f"expected 'vertices: <n>', got {lines[0]!r}")
    try:
        n = int(lines[0].split(":", 1)[1])
    except ValueError:
        raise ValueError(f"bad vertex count in {lines[0]!r}") from None
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
    if not lines[1].startswith("inputs:"):
        raise ValueError(f"expected 'inputs: <indices>', got {lines[1]!r}")
    inputs = integer_list(lines[1].split(":", 1)[1].strip(), "input list")

    edges = []
    for line in lines[2:]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"bad edge line {line!r}: expected '<u> <v> <w>'")
        try:
            u, v, w = (int(p) for p in parts)
        except ValueError:
            raise ValueError(f"bad edge line {line!r}") from None
        if u > v:
            raise ValueError(f"edge line {line!r} must list u < v")
        if w == 0:
            raise ValueError(f"edge {u}-{v} has weight 0; omit it instead")
        edges.append((u, v, w))
    return WeightedGraph.from_edges(n, edges, inputs, name=name)


def serialize_graph(graph: WeightedGraph) -> str:
    lines = [f"vertices: {graph.n}"]
    lines.append("inputs: " + ",".join(str(v) for v in graph.inputs))
    for u, v, w in graph.edges():
        lines.append(f"{u} {v} {w}")
    return "\n".join(lines) + "\n"


def wheel_code() -> WeightedGraph:
    """Hub-and-pentagon graph on 6 vertices: hub 0 is the input, the ring
    vertices 1..5 are outputs, all weights 1."""
    edges = [(0, i, 1) for i in range(1, 6)]
    ring = [1, 2, 3, 4, 5]
    edges += [(min(a, b), max(a, b), 1) for a, b in zip(ring, ring[1:] + ring[:1])]
    return WeightedGraph.from_edges(6, edges, (0,), name="wheel")


def _pair_of(v: int) -> int:
    # outputs 1..10 form pairs {1,2},{3,4},...,{9,10}; pair labels 0..4
    return (v - 1) // 2


def tenfold_code() -> WeightedGraph:
    """Doubled pentagon code: 1 input, 10 outputs in five pairs on a ring.

    Each output vertex is joined to the input 0, to its pair partner, and to
    all four vertices of the two ring-adjacent pairs; all weights are 1.
    """
    edges = [(0, v, 1) for v in range(1, 11)]
    for v in range(1, 11):
        for u in range(v + 1, 11):
            pv, pu = _pair_of(v), _pair_of(u)
            if pv == pu or (pu - pv) % 5 in (1, 4):
                edges.append((v, u, 1))
    return WeightedGraph.from_edges(11, edges, (0,), name="tenfold")


_MATRIX19 = (
    (0, 0, 1, 0, 1, 1, 1, 0),
    (0, 0, 0, 1, 1, 1, 0, 1),
    (1, 0, 0, 0, 2, 0, -1, 1),
    (0, 1, 0, 0, 0, 1, 2, -2),
    (1, 1, 2, 0, 0, 0, -2, 0),
    (1, 1, 0, 1, 0, 0, 0, -1),
    (1, 0, -1, 2, -2, 0, 0, 0),
    (0, 1, 1, -2, 0, -1, 0, 0),
)


def matrix19_code() -> WeightedGraph:
    """The 8-vertex weighted graph whose off-diagonal 4x4 block determinants
    avoid exactly the primes {2, 3, 5, 11}; vertex 0 is the input, and
    ``with_inputs`` re-partitions it."""
    return WeightedGraph(_MATRIX19, (0,), name="matrix19")


BUILTIN_GRAPHS = {
    "wheel": wheel_code,
    "tenfold": tenfold_code,
    "matrix19": matrix19_code,
}
