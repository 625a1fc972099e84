import math

import numpy as np
import pytest

from graphdn.dirichlet import solve_dirichlet
from graphdn.errors import DomainError, ValidationError
from graphdn.graph import geodesic_distance
from graphdn.trees import (
    AlphaBetaSpec,
    add_shortcut_edges,
    address_index,
    closed_form_harmonic,
    cylinder_leaves,
    generate_ab_tree,
)


class TestSpecValidation:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.2, -0.1])
    def test_alpha_range(self, alpha):
        with pytest.raises(ValidationError, match="alpha"):
            AlphaBetaSpec(alpha=alpha, depth=2)

    def test_depth_and_ratio(self):
        with pytest.raises(ValidationError, match="depth"):
            AlphaBetaSpec(alpha=0.5, depth=0)
        with pytest.raises(ValidationError, match="ratio"):
            AlphaBetaSpec(alpha=0.5, depth=2, weight_ratio=0.75)

    def test_underflow_refusal(self):
        with pytest.raises(ValidationError, match="depth"):
            generate_ab_tree(AlphaBetaSpec(alpha=0.5, depth=1200))


class TestGenerate:
    def test_depth_two_counts(self):
        g = generate_ab_tree(AlphaBetaSpec(alpha=0.5, depth=2))
        assert g.n_vertices == 4
        assert len(g.edges) == 3
        assert g.boundary_vertices == (0, 2, 3)
        lengths = sorted(e.length for e in g.edges)
        assert lengths == [0.5, 0.5, 1.0]

    @pytest.mark.parametrize("depth", [1, 2, 3, 5, 8])
    def test_counts_by_enumeration(self, depth):
        g = generate_ab_tree(AlphaBetaSpec(alpha=0.4, depth=depth))
        assert g.n_vertices == 2**depth
        assert len(g.edges) == 2**depth - 1
        leaves = [v for v in g.boundary_vertices if v != 0]
        assert len(leaves) == 2 ** (depth - 1)

    def test_descending_path_lengths(self):
        g = generate_ab_tree(AlphaBetaSpec(alpha=0.4, depth=3))
        idx = address_index(g)
        assert math.isclose(geodesic_distance(g, 0, idx["aa"]), 1.56)
        assert math.isclose(geodesic_distance(g, 0, idx["bb"]), 1.96)

    def test_interior_degree_three(self):
        g = generate_ab_tree(AlphaBetaSpec(alpha=0.3, depth=5))
        for v in g.interior_vertices:
            assert g.degrees[v] == 3
        assert g.degrees[0] == 1

    def test_weight_schedule(self):
        spec = AlphaBetaSpec(alpha=0.5, depth=3, weight_ratio=0.25)
        g = generate_ab_tree(spec)
        for e in g.edges:
            level = max(g.meta[e.a].level, g.meta[e.b].level)
            assert e.weight == 0.25**level

    def test_kappa2_profile(self):
        spec = AlphaBetaSpec(alpha=0.5, depth=3, kappa2_per_level=(2.0,))
        g = generate_ab_tree(spec)
        root_edge = g.edges[0]
        assert root_edge.kappa2 == 2.0
        assert all(e.kappa2 == 0.0 for e in g.edges[1:])


class TestClosedForm:
    def test_zero_slope_constant(self):
        h = closed_form_harmonic(AlphaBetaSpec(alpha=0.4, depth=5), 0.0, 2.5)
        assert h.value_at_level(3) == 2.5
        assert h.slope_below("ab") == 0.0

    def test_level_values(self):
        h = closed_form_harmonic(AlphaBetaSpec(alpha=0.4, depth=5), 1.0, 0.0)
        assert math.isclose(h.value_at_level(1), 1.0)
        assert math.isclose(h.value_at_level(2), 1.24)
        assert math.isclose(h.limit_value(), 1.0 / (1.0 - 0.24))

    def test_slope_product(self):
        h = closed_form_harmonic(AlphaBetaSpec(alpha=0.4, depth=5), 1.0, 0.0)
        assert math.isclose(h.slope_below("aab"), 0.6 * 0.6 * 0.4, rel_tol=1e-15)
        prod = (0.24 / 0.4) * (0.24 / 0.4) * (0.24 / 0.6)
        assert math.isclose(h.slope_below("aab"), prod, rel_tol=1e-12)

    def test_level_constancy_against_recursion(self):
        # brute-force path propagation: value + slope * length edge by edge
        spec = AlphaBetaSpec(alpha=0.37, depth=7)
        h = closed_form_harmonic(spec, -0.8, 0.4)
        g = generate_ab_tree(spec)
        idx = address_index(g)
        for address, v in idx.items():
            value = 0.4 + (-0.8) * spec.root_length  # at v1
            slope = -0.8
            length = spec.root_length
            walked = value
            for ch in address:
                slope *= spec.beta if ch == "a" else spec.alpha
                length *= spec.alpha if ch == "a" else spec.beta
                walked += slope * length
            assert math.isclose(walked, h.values_on(g)[v], rel_tol=1e-12)

    def test_slope_kirchhoff(self):
        spec = AlphaBetaSpec(alpha=0.3, depth=6)
        h = closed_form_harmonic(spec, 1.0, 0.0)
        for address in ("", "a", "ab", "bba"):
            parent = h.slope_below(address)
            children = h.slope_below(address + "a") + h.slope_below(address + "b")
            assert abs(parent - children) <= 1e-12 * abs(parent)

    def test_slope_decay_bound(self):
        spec = AlphaBetaSpec(alpha=0.3, depth=9)
        h = closed_form_harmonic(spec, 2.0, 0.0)
        g = generate_ab_tree(spec)
        slopes = h.descending_slopes_on(g)
        deepest = [
            abs(slopes[i])
            for i, e in enumerate(g.edges)
            if max(g.meta[e.a].level, g.meta[e.b].level) == 9
        ]
        assert max(deepest) <= 2.0 * max(0.3, 0.7) ** 8 * (1 + 1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_solver_reproduces_closed_form(self, alpha):
        spec = AlphaBetaSpec(alpha=alpha, depth=8)
        h = closed_form_harmonic(spec, 1.0, 0.0)
        g = generate_ab_tree(spec)
        sol = solve_dirichlet(g, h.boundary_data(g))
        exact = h.values_on(g)
        scale = np.abs(exact).max()
        assert np.abs(sol.values - exact).max() <= 1e-9 * scale

    def test_solver_slopes_match_product_formula(self):
        spec = AlphaBetaSpec(alpha=0.4, depth=6)
        h = closed_form_harmonic(spec, 1.0, 0.0)
        g = generate_ab_tree(spec)
        sol = solve_dirichlet(g, h.boundary_data(g))
        formula = h.descending_slopes_on(g)
        for i, e in enumerate(g.edges):
            parent, child = (
                (e.a, e.b) if g.meta[e.b].level > g.meta[e.a].level else (e.b, e.a)
            )
            quotient = (sol.values[child] - sol.values[parent]) / e.length
            assert abs(quotient - formula[i]) <= 1e-8 * max(1.0, abs(formula[i]))


class TestShortcuts:
    def test_no_shortcuts(self):
        g = generate_ab_tree(AlphaBetaSpec(alpha=0.5, depth=3))
        decorated, report = add_shortcut_edges(g, [])
        assert decorated.n_vertices == g.n_vertices
        assert report.distortion_bound == 1.0
        assert report.lengths_nonincreasing

    def test_geodesic_duplicate(self):
        g = generate_ab_tree(AlphaBetaSpec(alpha=0.5, depth=3))
        idx = address_index(g)
        # siblings 'a' and 'b' sit at distance alpha + beta = 1 through v1
        decorated, report = add_shortcut_edges(g, [(idx["a"], idx["b"], 1.0)])
        assert math.isclose(report.distortion_bound, 1.0, rel_tol=1e-12)

    def test_sibling_shortcuts(self):
        spec = AlphaBetaSpec(alpha=0.5, depth=4)
        g = generate_ab_tree(spec)
        idx = address_index(g)
        shortcuts = []
        for level in range(2, 5):
            for address in sorted(a for a in idx if len(a) == level - 1):
                if address.endswith("a"):
                    sibling = address[:-1] + "b"
                    shortcuts.append((idx[address], idx[sibling], 0.5**level))
        decorated, report = add_shortcut_edges(g, shortcuts)
        assert report.lengths_nonincreasing
        assert report.shortcut_count == len(shortcuts)
        assert 1.0 <= report.distortion_bound < 20.0
        assert report.sampled_pairs > 0
        # tree distances never beat the decorated graph
        rng = np.random.default_rng(0)
        for _ in range(20):
            u, v = rng.integers(0, g.n_vertices, size=2)
            assert geodesic_distance(decorated, int(u), int(v)) <= (
                geodesic_distance(g, int(u), int(v)) + 1e-12
            )

    def test_bad_shortcut(self):
        g = generate_ab_tree(AlphaBetaSpec(alpha=0.5, depth=2))
        with pytest.raises(ValidationError):
            add_shortcut_edges(g, [(0, 99, 1.0)])
        with pytest.raises(ValidationError):
            add_shortcut_edges(g, [(0, 1, -1.0)])


class TestCylinderLeaves:
    def test_whole_boundary(self):
        g = generate_ab_tree(AlphaBetaSpec(alpha=0.5, depth=3))
        leaves = cylinder_leaves(g, "")
        assert len(leaves) == 4
        assert 0 not in leaves

    def test_half(self):
        g = generate_ab_tree(AlphaBetaSpec(alpha=0.5, depth=3))
        idx = address_index(g)
        assert set(cylinder_leaves(g, "a")) == {idx["aa"], idx["ab"]}

    def test_prefix_as_long_as_depth(self):
        g = generate_ab_tree(AlphaBetaSpec(alpha=0.5, depth=3))
        assert len(cylinder_leaves(g, "aba")) == 1

    def test_include_root(self):
        g = generate_ab_tree(AlphaBetaSpec(alpha=0.5, depth=3))
        leaves = cylinder_leaves(g, "", include_root_vertex=True)
        assert leaves[0] == 0

    def test_invalid_prefix(self):
        g = generate_ab_tree(AlphaBetaSpec(alpha=0.5, depth=3))
        with pytest.raises(DomainError, match="symbol"):
            cylinder_leaves(g, "ax")
