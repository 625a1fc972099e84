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

A graph is its edge table: ``MetricGraph.edge_table`` holds the endpoints,
lengths and potentials and ``MetricGraph.weights`` the weights, as read-only
arrays in edge order.  Degrees, adjacency, the vertex adjacency matrix, the
report, distances and the graph file all read them.  Every builder ends in
one table check (:func:`build_graph` from :class:`Edge` descriptors, the
tree generator and shortcut decoration from arrays); it finds bad fields,
loops and parallel edges with array operations.  ``MetricGraph.edges``
holds one :class:`Edge` per edge: the descriptors a graph was built from,
or else made from the table on first read.

scipy is imported inside the functions that use it (the table check, the
vertex adjacency matrix, :func:`geodesic_distance` and :func:`graph_report`),
so importing this module, and the tree-family exhaustion that only needs its
edge model, loads numpy alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import astuple, dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .errors import DomainError, ValidationError

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

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


@dataclass(frozen=True, eq=False)
class MetricGraph:
    """Validated immutable metric graph.

    Vertex identifiers are the dense integers ``0 .. n_vertices - 1``; edge
    identifiers are positions in the edge table.  ``edge_table`` holds the
    endpoints, lengths and potentials ``(a, b, length, kappa2)`` and
    ``weights`` the edge weights, as read-only arrays in edge order.
    ``boundary`` holds every degree-one vertex plus any explicitly marked
    relative-boundary vertices.  Two graphs are equal when their vertices,
    edges, boundary and metadata are.
    """

    n_vertices: int
    edge_table: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] = field(
        repr=False
    )
    weights: np.ndarray = field(repr=False)
    boundary: frozenset[int]
    meta: tuple[VertexMeta | None, ...] | None = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetricGraph):
            return NotImplemented
        mine = (*self.edge_table, self.weights)
        theirs = (*other.edge_table, other.weights)
        return (
            self.n_vertices == other.n_vertices
            and self.boundary == other.boundary
            and self.meta == other.meta
            and all(map(np.array_equal, mine, theirs))
        )

    def __hash__(self) -> int:
        return hash((self.n_vertices, self.n_edges, self.boundary))

    @property
    def n_edges(self) -> int:
        return len(self.weights)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """One :class:`Edge` per edge.

        These are the descriptors the graph was built from, if any were
        kept, else made from the table on first read.
        """
        a, b, length, kappa2 = self.edge_table
        return tuple(
            map(
                Edge, a.tolist(), b.tolist(), length.tolist(),
                self.weights.tolist(), kappa2.tolist(),
            )
        )

    @cached_property
    def degrees(self) -> np.ndarray:
        a, b, _, _ = self.edge_table
        deg = np.bincount(np.concatenate((a, b)), minlength=self.n_vertices)
        deg.flags.writeable = False
        return deg

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex, the incident ``(edge index, neighbour)`` pairs."""
        a, b, _, _ = self.edge_table
        # Endpoints interleaved per edge; a stable sort groups them by vertex
        # and keeps edge order within each group.
        order = np.argsort(np.column_stack((a, b)).ravel(), kind="stable")
        neighbours = np.column_stack((b, a)).ravel()[order]
        pairs = list(zip((order // 2).tolist(), neighbours.tolist()))
        ends = np.cumsum(self.degrees).tolist()
        return tuple(tuple(pairs[i:j]) for i, j in zip([0] + ends[:-1], ends))

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
        from scipy.sparse import csr_matrix

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


def _check_table(columns: tuple[np.ndarray, ...], edges: list[Edge] | None) -> None:
    """Refuse the first edge with a bad field, its fields checked in order.

    Messages show the field as given: from ``edges`` when the table was
    made from them, else from the table.
    """
    a, b, length, weight, kappa2 = columns
    fine = (
        (a >= 0) & (b >= 0),
        (length > 0.0) & np.isfinite(length),
        (weight > 0.0) & np.isfinite(weight),
        (kappa2 >= 0.0) & np.isfinite(kappa2),
    )
    good = np.logical_and.reduce(fine)
    if good.all():
        return
    i = int(np.argmin(good))
    ea, eb, el, ew, ek = (
        astuple(edges[i]) if edges is not None else (c[i].item() for c in columns)
    )
    messages = (
        f"endpoint ids must be nonnegative integers, got ({ea}, {eb})",
        f"length must be positive and finite, got {el}",
        f"weight must be positive and finite, got {ew}",
        f"potential must be nonnegative and finite, got {ek}",
    )
    first = next(k for k, ok in enumerate(fine) if not ok[i])
    raise ValidationError(f"edge {i}: {messages[first]}", element=("edge", i))


def _split_conflicts(
    columns: tuple[np.ndarray, ...], n: int
) -> tuple[tuple[np.ndarray, ...], int]:
    """Split loops and parallel edges at midpoints until none remain.

    A loop needs two passes: the first split leaves a parallel pair.  A split
    edge becomes its two halves in its place; the midpoints are numbered
    from ``n`` in edge order.
    """
    while True:
        a, b = columns[:2]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        order = np.lexsort((hi, lo))
        twin = (lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])
        split = a == b
        split[order[1:][twin]] = True
        split[order[:-1][twin]] = True
        if not split.any():
            return columns, n
        a, b, length, weight, kappa2 = (np.repeat(c, split + 1) for c in columns)
        first = np.flatnonzero(split)
        first += np.arange(len(first))
        mid = np.arange(n, n + len(first))
        b[first], a[first + 1] = mid, mid
        length[first] = length[first + 1] = length[first] / 2.0
        columns, n = (a, b, length, weight, kappa2), n + len(first)


def _graph_from_table(
    columns: tuple[np.ndarray, ...],
    boundary: Iterable[int] | None = None,
    meta: Mapping[int, VertexMeta] | None = None,
    edges: list[Edge] | None = None,
) -> MetricGraph:
    """Validate an edge table and assemble its :class:`MetricGraph`.

    ``columns`` are ``(a, b, length, weight, kappa2)`` in edge order, the
    endpoints as ``intp`` and the rest as floats; the graph owns them.  This
    is every builder's one validation path.  ``edges``, when the table was
    made from them, name bad fields as given and become ``MetricGraph.edges``
    unless a loop or parallel edge was split.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    if not len(columns[0]):
        raise ValidationError("graph must have at least one edge")
    _check_table(columns, edges)
    a, b = columns[:2]
    n = int(max(a.max(), b.max())) + 1
    columns, n = _split_conflicts(columns, n)
    if len(columns[0]) != len(a):
        edges = None
    a, b = columns[:2]

    deg = np.bincount(np.concatenate((a, b)), minlength=n)
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
    links = csr_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
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

    for column in columns:
        column.flags.writeable = False
    a, b, length, weight, kappa2 = columns
    g = MetricGraph(
        n_vertices=n,
        edge_table=(a, b, length, kappa2),
        weights=weight,
        boundary=bset,
        meta=meta_tuple,
    )
    if edges is not None:
        vars(g)["edges"] = tuple(edges)  # the cached property's value
    return g


def _int_ids(e: Edge) -> bool:
    return isinstance(e.a, int) and isinstance(e.b, int)


def _int_endpoints(e: Edge) -> Edge:
    # Numpy integer ids become Python ints, which files print alike; other
    # ids stay as given, for the table check to refuse.
    if isinstance(e.a, numbers.Integral) and isinstance(e.b, numbers.Integral):
        return replace(e, a=int(e.a), b=int(e.b))
    return e


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
    edges = [item if isinstance(item, Edge) else Edge(*item) for item in descriptors]
    edges = [e if _int_ids(e) else _int_endpoints(e) for e in edges]
    # An edge with a non-integer id enters the table with ids -1.
    ends = [(e.a, e.b) if _int_ids(e) else (-1, -1) for e in edges]
    columns = (
        *np.array(ends, dtype=np.intp).reshape(-1, 2).T.copy(),
        np.array([e.length for e in edges], dtype=float),
        np.array([e.weight for e in edges], dtype=float),
        np.array([e.kappa2 for e in edges], dtype=float),
    )
    return _graph_from_table(columns, boundary, meta, edges)


def _as_point(g: MetricGraph, p) -> GraphPoint:
    a, _, length, _ = g.edge_table
    if isinstance(p, GraphPoint):
        if not (0 <= p.edge < g.n_edges):
            raise DomainError(f"edge index {p.edge} out of range")
        if not (0.0 <= p.offset <= length[p.edge]):
            raise DomainError(
                f"offset {p.offset} outside [0, {length[p.edge]}] on edge {p.edge}"
            )
        return p
    v = int(p)
    if not (0 <= v < g.n_vertices):
        raise DomainError(f"vertex {v} out of range")
    eidx, _ = g.adjacency[v][0]
    return GraphPoint(eidx, 0.0 if a[eidx] == v else float(length[eidx]))


def geodesic_distance(g: MetricGraph, x, y) -> float:
    """Shortest-path distance between two points of the metric graph.

    Points are :class:`GraphPoint` values or bare vertex ids.  The geodesic
    either stays inside a common edge or passes through edge endpoints, so
    the distance is the minimum over endpoint routes of a Dijkstra sweep.
    """
    from scipy.sparse.csgraph import dijkstra

    a, b, length, _ = g.edge_table
    px, py = _as_point(g, x), _as_point(g, y)

    best = math.inf
    if px.edge == py.edge:
        best = abs(px.offset - py.offset)

    dist = dijkstra(g._vertex_csr, directed=False, indices=[a[px.edge], b[px.edge]])
    lx, ly = float(length[px.edge]), float(length[py.edge])
    for dx, row in ((px.offset, dist[0]), (lx - px.offset, dist[1])):
        for dy, v in ((py.offset, a[py.edge]), (ly - py.offset, b[py.edge])):
            best = min(best, dx + row[v] + dy)
    return float(best)


def graph_report(g: MetricGraph) -> GraphReport:
    """Compute summary totals; exact sums for edgewise-constant potentials."""
    from scipy.sparse.csgraph import dijkstra

    # Python sums over the columns, in edge order.
    _, _, length, kappa2 = g.edge_table
    lengths, weights = length.tolist(), g.weights.tolist()
    potential_bound = sum(
        (k / w) ** 2 * w * s for k, w, s in zip(kappa2.tolist(), weights, lengths)
    )
    ecc = dijkstra(g._vertex_csr, directed=False, indices=0)
    connected = bool(np.isfinite(ecc).all())
    diameter_bound = 2.0 * float(ecc.max()) + max(lengths) if connected else math.inf
    return GraphReport(
        connected=connected,
        total_weight=float(sum(weights)),
        total_volume=float(sum(lengths)),
        diameter_bound=float(diameter_bound),
        potential_bound=float(potential_bound),
        boundary_count=len(g.boundary),
    )
