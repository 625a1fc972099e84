"""Self-similar binary tree families, truncations, and closed-form harmonics.

The two-parameter family here is the binary tree whose root boundary vertex
hangs by a single edge from the first branching vertex; every deeper vertex
has one parent edge and two child edges whose lengths are ``alpha`` and
``beta = 1 - alpha`` times the parent edge length.  Truncating at a finite
combinatorial depth leaves the root vertex and the deepest generation as the
(relative) boundary, while leaf child-addresses over ``{a, b}`` index the
cylinder subsets of the ideal boundary.

For the potential-free equation there is an explicit harmonic family pinned
by a linear function on the root edge; it is level-constant and its
descending edge slopes obey a closed product formula, which makes it a sharp
oracle for the numerical solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .graph import Edge, MetricGraph, VertexMeta, build_graph, geodesic_distance

__all__ = [
    "AlphaBetaSpec",
    "generate_ab_tree",
    "HarmonicClosedForm",
    "closed_form_harmonic",
    "ShortcutReport",
    "add_shortcut_edges",
    "cylinder_leaves",
    "address_index",
]

_MIN_EDGE_LENGTH = 1e-300
ADDRESS_ALPHABET = ("a", "b")


@dataclass(frozen=True)
class AlphaBetaSpec:
    """Parameters of a truncated binary scaling tree.

    ``alpha`` in (0, 1) fixes the child-length split (the other child gets
    ``1 - alpha``); ``depth`` is the truncation level (>= 1); edge weights
    follow the summable geometric schedule ``weight_ratio ** level`` with
    ``weight_ratio <= 1/2`` so total weight stays finite as depth grows;
    ``kappa2_per_level`` lists the edge potential per level (level 1 is the
    root edge), zero beyond the end of the tuple.
    """

    alpha: float
    depth: int
    root_length: float = 1.0
    weight_ratio: float = 1.0 / 3.0
    kappa2_per_level: tuple[float, ...] = ()

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValidationError(f"alpha out of range (0, 1): {self.alpha}")
        if self.depth < 1:
            raise ValidationError(f"depth must be at least 1, got {self.depth}")
        if not (self.root_length > 0.0 and math.isfinite(self.root_length)):
            raise ValidationError(f"root length must be positive: {self.root_length}")
        if not (0.0 < self.weight_ratio <= 0.5):
            raise ValidationError(
                f"weight ratio must lie in (0, 1/2]: {self.weight_ratio}"
            )
        object.__setattr__(self, "kappa2_per_level", tuple(self.kappa2_per_level))
        for k, q in enumerate(self.kappa2_per_level):
            if not (q >= 0.0 and math.isfinite(q)):
                raise ValidationError(
                    f"potential at level {k + 1} must be nonnegative: {q}"
                )

    @property
    def beta(self) -> float:
        return 1.0 - self.alpha

    def kappa2_at_level(self, level: int) -> float:
        if 1 <= level <= len(self.kappa2_per_level):
            return self.kappa2_per_level[level - 1]
        return 0.0

    def family_key(self) -> tuple:
        """Identity of the infinite family, ignoring the truncation depth."""
        return (
            self.alpha,
            self.root_length,
            self.weight_ratio,
            self.kappa2_per_level,
        )


def _edge_length(spec: AlphaBetaSpec, address: str) -> float:
    # Length of the edge entering the vertex at this address ("" is the
    # first branching vertex, reached by the root edge).
    length = spec.root_length
    for ch in address:
        length *= spec.alpha if ch == "a" else spec.beta
    return length


def generate_ab_tree(spec: AlphaBetaSpec) -> MetricGraph:
    """Build the depth-``spec.depth`` truncation as a metric graph.

    Vertex 0 is the root boundary vertex, vertex 1 the first branching
    vertex; deeper vertices appear level by level in address order.  The
    boundary is the root vertex plus the deepest generation; metadata
    carries each vertex's level and address.
    """
    shortest = spec.root_length * min(spec.alpha, spec.beta) ** (spec.depth - 1)
    if shortest < _MIN_EDGE_LENGTH:
        raise ValidationError(
            f"depth {spec.depth} underflows the shortest edge length "
            f"({shortest:.3e} < {_MIN_EDGE_LENGTH:.0e})"
        )

    edges = [Edge(0, 1, spec.root_length, spec.weight_ratio, spec.kappa2_at_level(1))]
    meta = {0: VertexMeta(level=0, address=None), 1: VertexMeta(level=1, address="")}
    ids = {"": 1}
    next_id = 2
    frontier = [""]
    for level in range(2, spec.depth + 1):
        weight = spec.weight_ratio**level
        kappa2 = spec.kappa2_at_level(level)
        new_frontier = []
        for parent in frontier:
            for ch in ADDRESS_ALPHABET:
                address = parent + ch
                vid = next_id
                next_id += 1
                ids[address] = vid
                meta[vid] = VertexMeta(level=level, address=address)
                edges.append(
                    Edge(ids[parent], vid, _edge_length(spec, address), weight, kappa2)
                )
                new_frontier.append(address)
        frontier = new_frontier
    leaves = {ids[a] for a in frontier}
    return build_graph(edges, boundary={0} | leaves, meta=meta)


def address_index(g: MetricGraph) -> dict[str, int]:
    """Map each vertex address to its id; requires tree metadata."""
    if g.meta is None:
        raise DomainError("graph carries no address metadata")
    return {
        m.address: v for v, m in enumerate(g.meta) if m is not None and m.address is not None
    }


def _validate_prefix(prefix: str) -> None:
    for ch in prefix:
        if ch not in ADDRESS_ALPHABET:
            raise DomainError(f"invalid address symbol {ch!r} in {prefix!r}")


def _compatible(address: str, prefix: str) -> bool:
    return address.startswith(prefix) or prefix.startswith(address)


def cylinder_leaves(
    g: MetricGraph, prefix: str, include_root_vertex: bool = False
) -> tuple[int, ...]:
    """Truncation boundary vertices whose cells meet the prefix cylinder.

    A leaf at address ``s`` heads the cylinder of boundary paths extending
    ``s``; it belongs to the prefix cylinder when one address extends the
    other.  ``include_root_vertex`` prepends the root boundary vertex, for
    clopen sets that contain it.
    """
    _validate_prefix(prefix)
    if g.meta is None:
        raise DomainError("graph carries no address metadata")
    out = []
    root = None
    for v in g.boundary_vertices:
        m = g.meta[v]
        if m is None:
            continue
        if m.address is None:
            root = v
            continue
        if _compatible(m.address, prefix):
            out.append(v)
    if include_root_vertex:
        if root is None:
            raise DomainError("graph has no root boundary vertex")
        return tuple([root] + out)
    return tuple(out)


@dataclass(frozen=True)
class HarmonicClosedForm:
    """The explicit harmonic family pinned by ``u = c x + d`` on the root edge.

    Descending slopes (parent toward child) multiply by ``beta`` on an
    a-child and ``alpha`` on a b-child, so the slope below address ``s`` is
    ``c`` times a product over the characters of ``s``; rises per edge are
    ``c l0 (alpha beta)^level``, making values equal across each level.
    """

    spec: AlphaBetaSpec
    root_slope: float
    root_value: float

    def value_at_level(self, level: int) -> float:
        ab = self.spec.alpha * self.spec.beta
        partial = (1.0 - ab**level) / (1.0 - ab)
        return self.root_value + self.root_slope * self.spec.root_length * partial

    def limit_value(self) -> float:
        ab = self.spec.alpha * self.spec.beta
        return self.root_value + self.root_slope * self.spec.root_length / (1.0 - ab)

    def vertex_value(self, address: str) -> float:
        _validate_prefix(address)
        return self.value_at_level(len(address) + 1)

    def slope_below(self, address: str) -> float:
        """Descending slope on the edge entering the vertex at ``address``."""
        _validate_prefix(address)
        slope = self.root_slope
        for ch in address:
            slope *= self.spec.beta if ch == "a" else self.spec.alpha
        return slope

    def values_on(self, g: MetricGraph) -> np.ndarray:
        if g.meta is None:
            raise DomainError("graph carries no level metadata")
        out = np.empty(g.n_vertices)
        for v in range(g.n_vertices):
            m = g.meta[v]
            if m is None:
                raise DomainError(f"vertex {v} carries no level metadata")
            out[v] = self.root_value if m.level == 0 else self.value_at_level(m.level)
        return out

    def descending_slopes_on(self, g: MetricGraph) -> np.ndarray:
        """Per-edge descending slope, indexed like ``g.edges``."""
        if g.meta is None:
            raise DomainError("graph carries no address metadata")
        out = np.empty(len(g.edges))
        for i, e in enumerate(g.edges):
            ma, mb = g.meta[e.a], g.meta[e.b]
            if ma is None or mb is None:
                raise DomainError(f"edge {i} endpoint carries no metadata")
            child = mb if mb.level > ma.level else ma
            out[i] = self.slope_below(child.address)
        return out

    def boundary_data(self, g: MetricGraph) -> dict[int, float]:
        values = self.values_on(g)
        return {v: float(values[v]) for v in g.boundary_vertices}


def closed_form_harmonic(
    spec: AlphaBetaSpec, c: float, d: float
) -> HarmonicClosedForm:
    """Closed-form harmonic extension of ``u = c x + d`` on the root edge."""
    return HarmonicClosedForm(spec=spec, root_slope=float(c), root_value=float(d))


@dataclass(frozen=True)
class ShortcutReport:
    """Premise checks for tree-plus-shortcuts comparability.

    ``distortion_bound`` is the largest sampled ratio of tree distance to
    decorated distance; the decorated distance never exceeds the tree's, so
    the bound is at least 1.  Sampled, not exhaustive.
    """

    shortcut_count: int
    lengths_nonincreasing: bool
    distortion_bound: float
    sampled_pairs: int


def add_shortcut_edges(
    tree: MetricGraph,
    shortcuts: list[tuple[int, int, float]],
    sample_pairs: int = 64,
    seed: int = 0,
) -> tuple[MetricGraph, ShortcutReport]:
    """Decorate a tree with extra edges and report the comparability premise.

    Shortcut weights follow the deeper endpoint's level schedule when level
    metadata is present, else 1.  The report checks that shortcut lengths are
    nonincreasing in the given order and estimates the metric distortion on
    a sampled set of vertex pairs.
    """
    new_edges = list(tree.edges)
    lengths = []
    for u, v, length in shortcuts:
        if not (0 <= u < tree.n_vertices and 0 <= v < tree.n_vertices):
            raise ValidationError(f"shortcut endpoint ({u}, {v}) is not a vertex")
        if not (length > 0.0 and math.isfinite(length)):
            raise ValidationError(f"shortcut length must be positive: {length}")
        # Smallest incident weight keeps the total weight summable under the
        # generator's geometric schedule; weights never enter the equation.
        incident = [e.weight for e in tree.edges if u in (e.a, e.b) or v in (e.a, e.b)]
        weight = min(incident) if incident else 1.0
        new_edges.append(Edge(u, v, length, weight, 0.0))
        lengths.append(length)

    meta_map = None
    if tree.meta is not None:
        meta_map = {v: m for v, m in enumerate(tree.meta) if m is not None}
    decorated = build_graph(new_edges, boundary=tree.boundary, meta=meta_map)

    nonincreasing = all(
        lengths[i + 1] <= lengths[i] + 1e-15 for i in range(len(lengths) - 1)
    )

    rng = np.random.default_rng(seed)
    n = tree.n_vertices
    pairs = []
    for _ in range(sample_pairs):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            pairs.append((u, v))
    worst = 1.0
    for u, v in pairs:
        d_tree = geodesic_distance(tree, u, v)
        d_dec = geodesic_distance(decorated, u, v)
        if d_dec > 0.0:
            worst = max(worst, d_tree / d_dec)
    report = ShortcutReport(
        shortcut_count=len(shortcuts),
        lengths_nonincreasing=nonincreasing,
        distortion_bound=float(worst),
        sampled_pairs=len(pairs),
    )
    return decorated, report
