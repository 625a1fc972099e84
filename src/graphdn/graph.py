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

Tree metadata is one int64 column, ``MetricGraph.address_codes``, of
:func:`address_code` values; ``MetricGraph.meta`` shows it as records.

A graph is its edge table: ``MetricGraph.edge_table`` holds the endpoints,
lengths and potentials and ``MetricGraph.weights`` the weights, as read-only
arrays in edge order.  Degrees, adjacency, the vertex adjacency matrix, the
report, distances, the solvers and the graph file all read them.  Every
builder ends in one table check: :func:`build_graph` and the graph-file
reader hand it five field lists, one entry per edge, and the tree generator
and shortcut decoration hand it arrays.  It finds bad fields, loops and
parallel edges with array operations.  ``MetricGraph.edges`` is a view:
one :class:`Edge` per edge, made from the table on first read.

scipy is imported inside the functions that use it (the table check, the
vertex adjacency matrix, :func:`geodesic_distance` and :func:`graph_report`),
so importing this module, and the tree-family exhaustion that only needs its
edge model, loads numpy alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .errors import DomainError, ValidationError

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

__all__ = [
    "Edge",
    "VertexMeta",
    "address_code",
    "address_of",
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


_BITS, _SYMBOLS = str.maketrans("ab", "01"), str.maketrans("01", "ab")


def address_code(address: str | None) -> int:
    """An address's code: a 1, then one bit per symbol (a = 0, b = 1).

    The root's code is 0, so a level is a code's bit length, and the parent
    of code ``c`` is ``c // 2``.
    """
    if address is None:
        return 0
    rest = address.lstrip("ab")
    if rest:
        raise DomainError(f"invalid address symbol {rest[0]!r} in {address!r}")
    return int("1" + address.translate(_BITS), 2)


def address_of(code: int) -> str | None:
    """The address of a code: ``None`` for the root's 0."""
    return bin(code)[3:].translate(_SYMBOLS) if code else None


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
    relative-boundary vertices.  ``address_codes`` holds the vertices'
    address codes, -1 for none, in graphs with tree metadata.  Two graphs
    are equal when their vertices, edges, boundary and metadata are.
    """

    n_vertices: int
    edge_table: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] = field(
        repr=False
    )
    weights: np.ndarray = field(repr=False)
    boundary: frozenset[int]
    address_codes: np.ndarray | None = field(default=None, repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetricGraph):
            return NotImplemented
        # np.array_equal holds None equal to None only.
        mine = (*self.edge_table, self.weights, self.address_codes)
        theirs = (*other.edge_table, other.weights, other.address_codes)
        return (
            self.n_vertices == other.n_vertices
            and self.boundary == other.boundary
            and all(map(np.array_equal, mine, theirs))
        )

    def __hash__(self) -> int:
        return hash((self.n_vertices, self.n_edges, self.boundary))

    @property
    def n_edges(self) -> int:
        return len(self.weights)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """One :class:`Edge` per edge: a view made from the table on first read."""
        a, b, length, kappa2 = self.edge_table
        return tuple(
            map(
                Edge, a.tolist(), b.tolist(), length.tolist(),
                self.weights.tolist(), kappa2.tolist(),
            )
        )

    @cached_property
    def meta(self) -> tuple[VertexMeta | None, ...] | None:
        """Per vertex, ``address_codes`` as a :class:`VertexMeta` or ``None``."""
        if self.address_codes is None:
            return None
        return tuple(
            None if c < 0 else VertexMeta(c.bit_length(), address_of(c))
            for c in self.address_codes.tolist()
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


def _check_table(columns: tuple[np.ndarray, ...], given: tuple | None) -> None:
    """Refuse the first edge with a bad field, its fields checked in order.

    Messages show the field as given: from the field lists ``given`` when
    the table was made from them, else from the table.
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
        (c[i] for c in given) if given is not None else (c[i].item() for c in columns)
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
    records: Mapping[int, tuple[int, int]] | None = None,
    given: tuple[list, ...] | None = None,
    codes: np.ndarray | None = None,
) -> MetricGraph:
    """Validate an edge table and assemble its :class:`MetricGraph`.

    ``columns`` are ``(a, b, length, weight, kappa2)`` in edge order, the
    endpoints as ``intp`` and the rest as floats; the graph owns them.  This
    is every builder's one validation path.  ``given``, the field lists the
    table was made from, name bad fields as given.  Tree metadata comes as
    ``records`` ``{vertex: (level, code)}``, checked here, or as the
    ``codes`` of a generated or already checked graph.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    if not len(columns[0]):
        raise ValidationError("graph must have at least one edge")
    _check_table(columns, given)
    a, b = columns[:2]
    # Degrees of ids clipped at the endpoint count: an id past it leaves a
    # vertex below it without an edge, so no array is sized by a huge id.
    # Splitting conflicts below keeps every degree and adds degree-two
    # midpoints.
    ends = np.concatenate((a, b))
    deg = np.bincount(np.minimum(ends, len(ends)))
    isolated = np.flatnonzero(deg == 0)
    if len(isolated):
        v = int(isolated[0])
        raise ValidationError(
            f"vertex {v} has no incident edge", element=("vertex", v)
        )
    columns, n = _split_conflicts(columns, len(deg))
    a, b = columns[:2]

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

    if records is not None:
        owners: dict[int, int] = {}
        for v, (level, code) in records.items():
            if not (0 <= v < len(deg)):
                raise ValidationError(
                    f"metadata refers to unknown vertex {v}", element=("vertex", v)
                )
            owner = owners.setdefault(code, v)
            fits = level == code.bit_length() <= 63  # the int64 column's bits
            if owner != v or not fits:
                token = f"@{address_of(code)}" if code else "-"
                raise ValidationError(
                    f"vertices {owner} and {v} share the address {token}" if fits else
                    f"vertex {v} has level {level} with address {token}: a level is "
                    "the address length + 1, at most 63, or 0 with -",
                    element=("vertex", v),
                )
        codes = np.full(len(deg), -1, dtype=np.int64)
        codes[list(owners.values())] = list(owners)
    if codes is not None:  # split midpoints carry no metadata
        codes = np.concatenate((codes, np.full(n - len(codes), -1)))
        codes.flags.writeable = False
    for column in columns:
        column.flags.writeable = False
    a, b, length, weight, kappa2 = columns
    return MetricGraph(
        n_vertices=n,
        edge_table=(a, b, length, kappa2),
        weights=weight,
        boundary=bset,
        address_codes=codes,
    )


def _graph_from_fields(
    fields: tuple[list, ...],
    boundary: Iterable[int] | None = None,
    records: Mapping[int, tuple[int, int]] | None = None,
) -> MetricGraph:
    """:func:`_graph_from_table` from five field lists, one entry per edge.

    ``fields`` are ``(a, b, length, weight, kappa2)`` as a graph file or
    edge descriptors give them, and messages echo them.  A non-integer id
    enters the table as -1; ids past ``intp`` clip to its largest value,
    where they still leave a vertex without an edge, and negative ones to
    -1.  All are refused.
    """
    ends = []
    for ids in fields[:2]:
        if not all(type(x) is int for x in ids):
            ids = [int(x) if isinstance(x, numbers.Integral) else -1 for x in ids]
        try:
            ends.append(np.array(ids, dtype=np.intp))
        except OverflowError:
            top = np.iinfo(np.intp).max
            ends.append(np.array([min(max(x, -1), top) for x in ids], dtype=np.intp))
    floats = (np.array(c, dtype=float) for c in fields[2:])
    return _graph_from_table((*ends, *floats), boundary, records, fields)


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
    A ``meta`` level is the address length + 1, or 0 for the root.
    """
    records = meta and {
        v: (m.level, address_code(m.address)) for v, m in meta.items() if m
    }
    rows = []
    for item in descriptors:
        e = item if isinstance(item, Edge) else Edge(*item)
        a, b = e.a, e.b
        # A pair of integer ids that are not both Python ints (numpy ints,
        # say) is shown as Python ints; any other pair as given.
        integral = isinstance(a, numbers.Integral) and isinstance(b, numbers.Integral)
        if integral and not (isinstance(a, int) and isinstance(b, int)):
            a, b = int(a), int(b)
        rows.append((a, b, e.length, e.weight, e.kappa2))
    fields = tuple(map(list, zip(*rows))) or ([],) * 5
    return _graph_from_fields(fields, boundary, records)


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
