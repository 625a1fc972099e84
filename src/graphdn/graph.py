"""Immutable metric-graph model: weighted edges carrying lengths and potentials.

A metric graph is a combinatorial graph whose edges are identified with real
intervals of positive length.  Every edge additionally carries a positive
weight and a nonnegative constant potential ``kappa2`` (the coefficient of the
zeroth-order term in ``-u'' + kappa2 u = 0`` on that edge).  Degree-one
vertices are boundary vertices; vertices of higher degree may be marked as
boundary as well, which models the relative boundary of a truncated subgraph
of a larger ambient graph.

Graphs are immutable after construction and safe to share between callers.
Builders reject nonpositive lengths or weights, negative potentials, and
disconnected graphs; loops and parallel edges are split at midpoints rather
than rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import DomainError, ValidationError

__all__ = [
    "Edge",
    "VertexMeta",
    "GraphPoint",
    "MetricGraph",
    "GraphReport",
    "build_graph",
    "geodesic_distance",
    "graph_report",
]


@dataclass(frozen=True)
class Edge:
    """A single edge: endpoints, interval length, weight, constant potential."""

    a: int
    b: int
    length: float
    weight: float = 1.0
    kappa2: float = 0.0


@dataclass(frozen=True)
class VertexMeta:
    """Optional tree bookkeeping: combinatorial level and child-address.

    ``address`` is a string over the alphabet ``{a, b}`` naming the sequence
    of children walked from the first interior vertex; the root boundary
    vertex has no address (``None``).
    """

    level: int
    address: str | None = None


@dataclass(frozen=True)
class GraphPoint:
    """A point on a metric graph: an edge index plus offset from endpoint a."""

    edge: int
    offset: float


@dataclass(frozen=True)
class MetricGraph:
    """Validated immutable metric graph.

    Vertex identifiers are the dense integers ``0 .. n_vertices - 1``; edge
    identifiers are positions in ``edges``.  ``boundary`` holds every
    degree-one vertex plus any explicitly marked relative-boundary vertices.
    """

    n_vertices: int
    edges: tuple[Edge, ...]
    boundary: frozenset[int]
    meta: tuple[VertexMeta | None, ...] | None = None

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_vertices, dtype=np.int64)
        for e in self.edges:
            deg[e.a] += 1
            deg[e.b] += 1
        deg.flags.writeable = False
        return deg

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex, the incident ``(edge index, neighbour)`` pairs."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_vertices)]
        for i, e in enumerate(self.edges):
            adj[e.a].append((i, e.b))
            adj[e.b].append((i, e.a))
        return tuple(tuple(x) for x in adj)

    @cached_property
    def boundary_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.boundary))

    @cached_property
    def interior_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n_vertices) if v not in self.boundary)

    @cached_property
    def relative_boundary(self) -> frozenset[int]:
        """Marked boundary vertices whose degree exceeds one."""
        return frozenset(v for v in self.boundary if self.degrees[v] > 1)

    @cached_property
    def _vertex_csr(self) -> csr_matrix:
        rows, cols, vals = [], [], []
        for e in self.edges:
            rows += [e.a, e.b]
            cols += [e.b, e.a]
            vals += [e.length, e.length]
        return csr_matrix(
            (vals, (rows, cols)), shape=(self.n_vertices, self.n_vertices)
        )

    def is_boundary(self, v: int) -> bool:
        return v in self.boundary

    def vertex_meta(self, v: int) -> VertexMeta | None:
        if self.meta is None:
            return None
        return self.meta[v]


@dataclass(frozen=True)
class GraphReport:
    """Summary totals of a metric graph.

    ``diameter_bound`` is a cheap upper bound on the point-to-point diameter
    (twice an eccentricity plus the longest edge), not the exact diameter.
    ``potential_bound`` is the weighted square integral
    ``sum_e (kappa2_e / weight_e)^2 weight_e length_e``.
    """

    connected: bool
    total_weight: float
    total_volume: float
    diameter_bound: float
    potential_bound: float
    boundary_count: int


def _coerce_edges(descriptors: Iterable) -> list[Edge]:
    out = []
    for item in descriptors:
        if isinstance(item, Edge):
            out.append(item)
        else:
            out.append(Edge(*item))
    return out


def _validate_edge_fields(edges: Sequence[Edge]) -> None:
    for i, e in enumerate(edges):
        if not (isinstance(e.a, int) and isinstance(e.b, int)) or e.a < 0 or e.b < 0:
            raise ValidationError(
                f"edge {i}: endpoint ids must be nonnegative integers, "
                f"got ({e.a}, {e.b})",
                element=("edge", i),
            )
        if not (e.length > 0.0 and math.isfinite(e.length)):
            raise ValidationError(
                f"edge {i}: length must be positive and finite, got {e.length}",
                element=("edge", i),
            )
        if not (e.weight > 0.0 and math.isfinite(e.weight)):
            raise ValidationError(
                f"edge {i}: weight must be positive and finite, got {e.weight}",
                element=("edge", i),
            )
        if not (e.kappa2 >= 0.0 and math.isfinite(e.kappa2)):
            raise ValidationError(
                f"edge {i}: potential must be nonnegative and finite, "
                f"got {e.kappa2}",
                element=("edge", i),
            )


def _subdivide_conflicts(edges: list[Edge], n: int) -> tuple[list[Edge], int]:
    # Loops and parallel edges are split at midpoints until none remain.
    # A loop needs two passes: the first split leaves a parallel pair.
    while True:
        seen: dict[tuple[int, int], int] = {}
        conflicted: set[int] = set()
        for i, e in enumerate(edges):
            if e.a == e.b:
                conflicted.add(i)
                continue
            key = (min(e.a, e.b), max(e.a, e.b))
            if key in seen:
                conflicted.add(i)
                conflicted.add(seen[key])
            else:
                seen[key] = i
        if not conflicted:
            return edges, n
        out: list[Edge] = []
        for i, e in enumerate(edges):
            if i in conflicted:
                mid = n
                n += 1
                out.append(Edge(e.a, mid, e.length / 2.0, e.weight, e.kappa2))
                out.append(Edge(mid, e.b, e.length / 2.0, e.weight, e.kappa2))
            else:
                out.append(e)
        edges = out


def build_graph(
    descriptors: Iterable,
    boundary: Iterable[int] | None = None,
    meta: Mapping[int, VertexMeta] | None = None,
) -> MetricGraph:
    """Validate edge descriptors and assemble a :class:`MetricGraph`.

    ``descriptors`` is an iterable of :class:`Edge` or
    ``(a, b, length[, weight[, kappa2]])`` tuples.  ``boundary`` defaults to
    the set of degree-one vertices; when given it must contain every
    degree-one vertex and may add relative-boundary vertices of higher
    degree.  Loops and parallel edges are subdivided at midpoints; the
    inserted midpoint vertices carry no metadata and are never boundary.
    """
    edges = _coerce_edges(descriptors)
    if not edges:
        raise ValidationError("graph must have at least one edge")
    _validate_edge_fields(edges)

    n = max(max(e.a, e.b) for e in edges) + 1
    edges, n = _subdivide_conflicts(edges, n)

    deg = [0] * n
    for e in edges:
        deg[e.a] += 1
        deg[e.b] += 1
    for v in range(n):
        if deg[v] == 0:
            raise ValidationError(
                f"vertex {v} has no incident edge", element=("vertex", v)
            )

    degree_one = {v for v in range(n) if deg[v] == 1}
    if boundary is None:
        bset = frozenset(degree_one)
    else:
        bset = frozenset(boundary)
        for v in bset:
            if not (0 <= v < n):
                raise ValidationError(
                    f"boundary marker {v} is not a vertex", element=("vertex", v)
                )
        missing = degree_one - bset
        if missing:
            v = min(missing)
            raise ValidationError(
                f"degree-one vertex {v} must be in the boundary set",
                element=("vertex", v),
            )

    # Connectivity by breadth-first search.
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in edges:
        adj[e.a].append(e.b)
        adj[e.b].append(e.a)
    reached = [False] * n
    stack = [0]
    reached[0] = True
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not reached[w]:
                reached[w] = True
                stack.append(w)
    if not all(reached):
        v = reached.index(False)
        raise ValidationError(
            f"graph is not connected: vertex {v} is unreachable from vertex 0",
            element=("vertex", v),
        )

    meta_tuple: tuple[VertexMeta | None, ...] | None = None
    if meta is not None:
        for v in meta:
            if not (0 <= v < n):
                raise ValidationError(
                    f"metadata refers to unknown vertex {v}", element=("vertex", v)
                )
        meta_tuple = tuple(meta.get(v) for v in range(n))

    return MetricGraph(
        n_vertices=n, edges=tuple(edges), boundary=bset, meta=meta_tuple
    )


def _as_point(g: MetricGraph, p) -> GraphPoint:
    if isinstance(p, GraphPoint):
        if not (0 <= p.edge < len(g.edges)):
            raise DomainError(f"edge index {p.edge} out of range")
        e = g.edges[p.edge]
        if not (0.0 <= p.offset <= e.length):
            raise DomainError(
                f"offset {p.offset} outside [0, {e.length}] on edge {p.edge}"
            )
        return p
    v = int(p)
    if not (0 <= v < g.n_vertices):
        raise DomainError(f"vertex {v} out of range")
    eidx, _ = g.adjacency[v][0]
    e = g.edges[eidx]
    return GraphPoint(eidx, 0.0 if e.a == v else e.length)


def geodesic_distance(g: MetricGraph, x, y) -> float:
    """Shortest-path distance between two points of the metric graph.

    Points are :class:`GraphPoint` values or bare vertex ids.  The geodesic
    either stays inside a common edge or passes through edge endpoints, so
    the distance is the minimum over endpoint routes of a Dijkstra sweep.
    """
    px, py = _as_point(g, x), _as_point(g, y)
    ex, ey = g.edges[px.edge], g.edges[py.edge]

    best = math.inf
    if px.edge == py.edge:
        best = abs(px.offset - py.offset)

    dist = dijkstra(g._vertex_csr, directed=False, indices=[ex.a, ex.b])
    for dx, row in ((px.offset, dist[0]), (ex.length - px.offset, dist[1])):
        for dy, v in ((py.offset, ey.a), (ey.length - py.offset, ey.b)):
            best = min(best, dx + row[v] + dy)
    return float(best)


def graph_report(g: MetricGraph) -> GraphReport:
    """Compute summary totals; exact sums for edgewise-constant potentials."""
    total_weight = sum(e.weight for e in g.edges)
    total_volume = sum(e.length for e in g.edges)
    potential_bound = sum(
        (e.kappa2 / e.weight) ** 2 * e.weight * e.length for e in g.edges
    )
    ecc = dijkstra(g._vertex_csr, directed=False, indices=0)
    connected = bool(np.isfinite(ecc).all())
    max_len = max(e.length for e in g.edges)
    diameter_bound = 2.0 * float(ecc.max()) + max_len if connected else math.inf
    return GraphReport(
        connected=connected,
        total_weight=float(total_weight),
        total_volume=float(total_volume),
        diameter_bound=float(diameter_bound),
        potential_bound=float(potential_bound),
        boundary_count=len(g.boundary),
    )
