"""Immutable metric-graph model: weighted edges carrying lengths and potentials.

A metric graph is a combinatorial graph whose edges are identified with real
intervals of positive length.  Every edge additionally carries a positive
weight and a nonnegative constant potential ``kappa2`` (the coefficient of the
zeroth-order term in ``-u'' + kappa2 u = 0`` on that edge).  Degree-one
vertices are boundary vertices; vertices of higher degree may be marked as
boundary as well, which models the relative boundary of a truncated subgraph
of a larger ambient graph.

Graphs are immutable after construction and safe to share between callers.
Builders reject nonpositive lengths or weights, negative potentials,
disconnected graphs and an address shared by two vertices; loops and
parallel edges are split at midpoints rather than rejected.

``MetricGraph.edges`` holds one :class:`Edge` per edge, the form files and
callers see.  Numerical code reads ``MetricGraph.edge_table`` instead: the
endpoints, lengths and potentials as read-only arrays in edge order, built
once per graph.  Degrees and the vertex adjacency matrix come from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

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
    def edge_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only edge arrays in edge order: ``(a, b, length, kappa2)``."""
        m = len(self.edges)
        table = (
            np.fromiter((e.a for e in self.edges), np.intp, m),
            np.fromiter((e.b for e in self.edges), np.intp, m),
            np.fromiter((e.length for e in self.edges), float, m),
            np.fromiter((e.kappa2 for e in self.edges), float, m),
        )
        for column in table:
            column.flags.writeable = False
        return table

    @cached_property
    def degrees(self) -> np.ndarray:
        a, b, _, _ = self.edge_table
        deg = np.bincount(np.concatenate((a, b)), minlength=self.n_vertices)
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
        a, b, length, _ = self.edge_table
        return csr_matrix(
            (np.concatenate((length, length)),
             (np.concatenate((a, b)), np.concatenate((b, a)))),
            shape=(self.n_vertices, self.n_vertices),
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

    ends = np.array([(e.a, e.b) for e in edges], dtype=np.intp)
    deg = np.bincount(ends.ravel(), minlength=n)
    isolated = np.flatnonzero(deg == 0)
    if len(isolated):
        v = int(isolated[0])
        raise ValidationError(
            f"vertex {v} has no incident edge", element=("vertex", v)
        )

    degree_one = set(np.flatnonzero(deg == 1).tolist())
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

    # Unit weights: the connectivity of the edges themselves, whatever
    # their lengths or flux blocks.
    links = csr_matrix((np.ones(len(edges)), (ends[:, 0], ends[:, 1])), shape=(n, n))
    _, labels = connected_components(links, directed=False)
    unreached = np.flatnonzero(labels != labels[0])
    if len(unreached):
        v = int(unreached[0])
        raise ValidationError(
            f"graph is not connected: vertex {v} is unreachable from vertex 0",
            element=("vertex", v),
        )

    meta_tuple: tuple[VertexMeta | None, ...] | None = None
    if meta is not None:
        owners: dict[str, int] = {}
        for v, m in meta.items():
            if not (0 <= v < n):
                raise ValidationError(
                    f"metadata refers to unknown vertex {v}", element=("vertex", v)
                )
            if m is not None and m.address is not None:
                owner = owners.setdefault(m.address, v)
                if owner != v:
                    raise ValidationError(
                        f"vertices {owner} and {v} share the address @{m.address}",
                        element=("vertex", v),
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
