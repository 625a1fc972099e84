import math
import numbers
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphdn.edge import edge_dn_block
from graphdn.errors import DomainError, ValidationError
from graphdn.graph import (
    Edge,
    GraphPoint,
    build_graph,
    geodesic_distance,
    graph_report,
)
from graphdn.trees import AlphaBetaSpec, add_shortcut_edges, generate_ab_tree

from conftest import random_metric_graph


def star3():
    return build_graph([(3, 0, 1.0), (3, 1, 1.0), (3, 2, 1.0)])


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph([(0, 1, 1.0)], boundary={0, 1})
        assert g.n_vertices == 2
        assert g.boundary_vertices == (0, 1)

    def test_parallel_edges_subdivided(self):
        g = build_graph([(0, 1, 1.0), (0, 1, 2.0)], boundary={0, 1})
        assert g.n_vertices == 4
        assert len(g.edges) == 4
        assert g.boundary_vertices == (0, 1)
        assert sorted(e.length for e in g.edges) == [0.5, 0.5, 1.0, 1.0]

    def test_loop_subdivided(self):
        g = build_graph([(0, 1, 1.0), (1, 1, 0.8)])
        pairs = [(min(e.a, e.b), max(e.a, e.b)) for e in g.edges]
        assert len(pairs) == len(set(pairs))
        assert all(e.a != e.b for e in g.edges)
        # loop contributes its full length in quarters
        assert math.isclose(sum(e.length for e in g.edges), 1.8)

    def test_star_degrees(self):
        g = star3()
        assert g.degrees[3] == 3
        assert set(g.boundary_vertices) == {0, 1, 2}
        assert g.interior_vertices == (3,)

    def test_relative_boundary_marker(self):
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0)], boundary={0, 1, 2})
        assert g.relative_boundary == {1}

    @pytest.mark.parametrize(
        "edges,fragment",
        [
            ([(0, 1, -1.0)], "length"),
            ([(0, 1, 0.0)], "length"),
            ([(0, 1, 1.0, -2.0)], "weight"),
            ([(0, 1, 1.0, 1.0, -0.5)], "potential"),
            ([], "at least one edge"),
            ([(0, 1, 1.0), (2, 3, 1.0)], "not connected"),
            ([(0, 1, 1.0), (4, 5, 1.0), (3, 2, 1.0)], "vertex 2 is unreachable"),
        ],
    )
    def test_validation_errors(self, edges, fragment):
        with pytest.raises(ValidationError, match=fragment):
            build_graph(edges)

    def test_underflowing_block_still_connects(self):
        # kappa * l = 1000: the flux block's off entry underflows to 0, but
        # the edge still joins its endpoints.
        assert edge_dn_block(1.0, 1e6).h_ab == 0.0
        g = build_graph([(0, 1, 1.0, 1.0, 1e6), (1, 2, 1.0)])
        assert g.n_vertices == 3 and g.boundary == {0, 2}

    def test_edge_table(self):
        g = build_graph([(2, 0, 0.5, 3.0, 4.0), (0, 1, 1.5)])
        a, b, length, kappa2 = g.edge_table
        assert a.tolist() == [2, 0] and b.tolist() == [0, 1]
        assert length.tolist() == [0.5, 1.5] and kappa2.tolist() == [4.0, 0.0]
        assert not any(column.flags.writeable for column in g.edge_table)
        assert g.weights.tolist() == [3.0, 1.0] and not g.weights.flags.writeable
        assert g.degrees.tolist() == [2, 1, 1]

    def test_adjacency_matches_per_edge_loop(self):
        rng = np.random.default_rng(3)
        graphs = [random_metric_graph(rng, 30) for _ in range(10)]
        # Split loop and parallel edges: these edges are made from the table.
        graphs.append(build_graph([(0, 1, 1.0), (1, 1, 0.8), (0, 1, 2.0), (1, 2, 1.0)]))
        for g in graphs:
            adjacency = [[] for _ in range(g.n_vertices)]
            for i, e in enumerate(g.edges):
                adjacency[e.a].append((i, e.b))
                adjacency[e.b].append((i, e.a))
            assert g.adjacency == tuple(map(tuple, adjacency))

    def test_numpy_integer_endpoints(self):
        ids = np.arange(4)
        g = build_graph([(ids[0], ids[1], 1.0), (ids[1], np.int32(2), 0.5)])
        assert g == build_graph([(0, 1, 1.0), (1, 2, 0.5)])
        assert all(type(x) is int for e in g.edges for x in (e.a, e.b))
        tree = generate_ab_tree(AlphaBetaSpec(alpha=0.5, depth=3))
        decorated, _ = add_shortcut_edges(tree, [(ids[2], ids[3], 0.25)])
        (shortcut,) = decorated.edges[len(tree.edges):]
        assert (type(shortcut.a), type(shortcut.b)) == (int, int)
        with pytest.raises(ValidationError, match=r"got \(-1, 2\)"):
            build_graph([(np.int64(-1), ids[2], 1.0)])

    def test_degree_one_must_be_boundary(self):
        with pytest.raises(ValidationError, match="degree-one"):
            build_graph([(0, 1, 1.0), (1, 2, 1.0)], boundary={0})

    def test_subdivision_invariant_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            edges = []
            for _ in range(int(rng.integers(1, 12))):
                u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
                edges.append((u, v, float(rng.uniform(0.2, 2.0))))
            # connect everything through vertex 0 to avoid rejection
            for v in range(1, n):
                edges.append((0, v, 1.0))
            g = build_graph(edges)
            pairs = [(min(e.a, e.b), max(e.a, e.b)) for e in g.edges]
            assert len(pairs) == len(set(pairs))
            assert all(e.a != e.b for e in g.edges)


def _per_edge_field_error(descriptors):
    """The first bad field, checked edge by edge and field by field."""
    for i, item in enumerate(descriptors):
        e = item if isinstance(item, Edge) else Edge(*item)
        if not (isinstance(e.a, int) and isinstance(e.b, int)):
            if not all(isinstance(x, numbers.Integral) for x in (e.a, e.b)):
                return i, f"endpoint ids must be nonnegative integers, got ({e.a}, {e.b})"
            # Numpy integer ids are shown as Python ints.
            e = replace(e, a=int(e.a), b=int(e.b))
        if e.a < 0 or e.b < 0:
            return i, f"endpoint ids must be nonnegative integers, got ({e.a}, {e.b})"
        for what, value in (("length", e.length), ("weight", e.weight)):
            if not (value > 0.0 and math.isfinite(value)):
                return i, f"{what} must be positive and finite, got {value}"
        if not (e.kappa2 >= 0.0 and math.isfinite(e.kappa2)):
            return i, f"potential must be nonnegative and finite, got {e.kappa2}"
    return None


_ENDPOINTS = [0, 1, 2, 3, -1, 2.5, np.int64(2), np.int64(-3), np.int32(1), True]
_LENGTHS = [1.0, 0.5, 2, 0, 0.0, -0.0, -1.0, math.nan, math.inf]
_WEIGHTS = [1.0, 0.25, 3, 0.0, -2.0, math.nan, -math.inf]
_POTENTIALS = [0.0, 2.0, -0.0, 1e300, 4, -0.5, math.nan, math.inf]


@settings(deadline=None)  # the first graph built imports scipy
@given(
    st.lists(
        st.tuples(*map(st.sampled_from, (_ENDPOINTS, _ENDPOINTS, _LENGTHS, _WEIGHTS,
                                          _POTENTIALS))),
        min_size=1, max_size=8,
    )
)
@example([(0, 1, 1.0), (1, 2, -1.0, 0.0, -1.0), (2.5, 3, 0.0), (3, -4, math.nan)])
@example([(0, 1, 1.0), (1, 2, 1.0, math.nan, -1.0), (-1, 2, -3.0, 0.0)])
@example([(0, 1.5, -1.0, 0.0), (2, 1, 1.0, 1.0, -2.0)])
def test_field_errors_name_the_first_bad_edge(descriptors):
    # Several bad edges with several bad fields each: the table check names
    # the first bad edge and, within it, the first bad field, as given.
    expected = _per_edge_field_error(descriptors)
    if expected is None:
        try:
            build_graph(descriptors)
        except ValidationError as exc:
            assert exc.element is None or exc.element[0] == "vertex"
        return
    i, message = expected
    with pytest.raises(ValidationError) as info:
        build_graph(descriptors)
    assert str(info.value) == f"edge {i}: {message}"
    assert info.value.element == ("edge", i)


class TestGeodesic:
    def test_identity(self):
        g = star3()
        p = GraphPoint(0, 0.3)
        assert geodesic_distance(g, p, p) == 0.0

    def test_interval_interior_points(self):
        g = build_graph([(0, 1, 1.0)])
        d = geodesic_distance(g, GraphPoint(0, 0.25), GraphPoint(0, 0.75))
        assert math.isclose(d, 0.5)

    def test_star_leaf_to_leaf(self):
        g = star3()
        assert math.isclose(geodesic_distance(g, 0, 1), 2.0)

    def test_invalid_offset(self):
        g = star3()
        with pytest.raises(DomainError):
            geodesic_distance(g, GraphPoint(0, 1.5), GraphPoint(1, 0.0))

    def test_cycle_shortcut(self):
        # square cycle: opposite corners at distance 2, not 0
        g = build_graph(
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)],
            boundary={0},
        )
        assert math.isclose(geodesic_distance(g, 0, 2), 2.0)
        # 0.9 from vertex 0 on edge (0,1); 0.1 from vertex 0 on edge (3,0)
        d = geodesic_distance(g, GraphPoint(0, 0.9), GraphPoint(3, 0.9))
        assert math.isclose(d, 1.0)

    def test_metric_on_random_sample(self):
        rng = np.random.default_rng(42)
        g = random_metric_graph(rng, max_vertices=30, zero_potential=True)
        points = [
            GraphPoint(int(rng.integers(0, len(g.edges))), 0.0)
            for _ in range(1000)
        ]
        points = [
            GraphPoint(p.edge, float(rng.uniform(0, g.edges[p.edge].length)))
            for p in points
        ]
        cache: dict[tuple[int, int], float] = {}

        def dist(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                cache[key] = geodesic_distance(g, points[key[0]], points[key[1]])
            return cache[key]

        for _ in range(300):
            i, j = rng.integers(0, 1000, size=2)
            forward = geodesic_distance(g, points[i], points[j])
            backward = geodesic_distance(g, points[j], points[i])
            assert forward == backward  # symmetry exact
            assert forward >= 0.0
        for _ in range(300):
            i, j, k = rng.integers(0, 1000, size=3)
            assert dist(i, k) <= dist(i, j) + dist(j, k) + 1e-12


class TestGraphReport:
    def test_interval(self):
        rep = graph_report(build_graph([(0, 1, 1.0)]))
        assert rep.total_weight == 1.0
        assert rep.total_volume == 1.0
        assert rep.potential_bound == 0.0
        assert rep.boundary_count == 2
        assert rep.connected

    def test_potential_bound_arithmetic(self):
        g = build_graph([(0, 1, 1.0, 1.0, 4.0), (1, 2, 1.0, 1.0, 4.0)])
        rep = graph_report(g)
        assert math.isclose(rep.potential_bound, 32.0)

    def test_tree_weight_partial_sum(self):
        # brute-force summation oracle: 2^(k-1) edges of weight r^k per level
        spec = AlphaBetaSpec(alpha=0.5, depth=6, weight_ratio=1.0 / 3.0)
        g = generate_ab_tree(spec)
        rep = graph_report(g)
        brute = sum(2 ** (k - 1) * (1.0 / 3.0) ** k for k in range(1, 7))
        assert math.isclose(rep.total_weight, brute, rel_tol=1e-14)

    def test_totals_equal_bruteforce_on_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_metric_graph(rng, max_vertices=20)
            rep = graph_report(g)
            assert rep.total_volume == sum(e.length for e in g.edges)
            assert rep.total_weight == sum(e.weight for e in g.edges)
            assert rep.diameter_bound >= max(e.length for e in g.edges)
