import math
import sys
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphdn import trees
from graphdn.dirichlet import solve_dirichlet
from graphdn.edge import edge_dn_blocks
from graphdn.errors import DomainError, ValidationError
from graphdn.fileio import graph_to_string
from graphdn.graph import Edge, VertexMeta, build_graph, geodesic_distance
from graphdn.measure import ClopenSet, SimpleBoundaryFunction, dn_at_depth
from graphdn.trees import (
    AlphaBetaSpec,
    add_shortcut_edges,
    address_index,
    closed_form_harmonic,
    cylinder_leaves,
    cylinder_slice,
    generate_ab_tree,
    level_lengths,
    level_sweep,
)

from conftest import random_metric_graph
from oracles import dense_solve, mp_leaf_fluxes


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


def _per_edge_tree(spec):
    """The depth-``spec.depth`` truncation built one Edge per edge."""
    lengths = level_lengths(spec)
    edges = [Edge(0, 1, spec.root_length, spec.weight_ratio, spec.kappa2_at_level(1))]
    meta = {0: VertexMeta(level=0, address=None), 1: VertexMeta(level=1, address="")}
    addresses = [""]
    for level in range(2, spec.depth + 1):
        weight = spec.weight_ratio**level
        kappa2 = spec.kappa2_at_level(level)
        addresses = [p + ch for p in addresses for ch in "ab"]
        first = 2 ** (level - 1)
        for i, (address, length) in enumerate(
            zip(addresses, lengths[level - 1].tolist())
        ):
            meta[first + i] = VertexMeta(level=level, address=address)
            edges.append(Edge((first + i) // 2, first + i, length, weight, kappa2))
    leaves = range(2 ** (spec.depth - 1), 2**spec.depth)
    return build_graph(edges, boundary={0, *leaves}, meta=meta)


class TestGenerateMatchesPerEdge:
    @pytest.mark.parametrize("alpha", [0.05, 0.3, 1 / 3, 0.5, 0.7, 0.93])
    @pytest.mark.parametrize(
        "kappa2, root_length, weight_ratio",
        [((), 1.0, 1 / 3), ((4.0, 0.0, 1e-3, -0.0, 2.5e5), 0.7, 0.25)],
    )
    def test_same_graph_and_bytes(self, alpha, kappa2, root_length, weight_ratio):
        for depth in range(1, 13):
            spec = AlphaBetaSpec(
                alpha=alpha, depth=depth, root_length=root_length,
                weight_ratio=weight_ratio, kappa2_per_level=kappa2,
            )
            g, reference = generate_ab_tree(spec), _per_edge_tree(spec)
            assert g == reference
            assert g.edges == reference.edges
            # Float reprs tell -0.0 from 0.0, which == does not.
            assert graph_to_string(g) == graph_to_string(reference)


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

    @pytest.mark.parametrize("seed", range(12))
    def test_report_matches_per_pair_loop(self, seed):
        # Odd seeds decorate random graphs, even seeds trees with potentials.
        rng = np.random.default_rng(seed)
        if seed % 2:
            g = random_metric_graph(rng, 40)
        else:
            alpha = float(rng.uniform(0.05, 0.95))
            g = generate_ab_tree(
                AlphaBetaSpec(alpha=alpha, depth=int(rng.integers(2, 9)),
                              kappa2_per_level=(1.0, 0.5))
            )
        n = g.n_vertices
        ends = rng.integers(0, n, size=(int(rng.integers(0, 6)), 2)).tolist()
        shortcuts = [(u, v, float(rng.uniform(0.01, 2.0))) for u, v in ends if u != v]
        pairs, sample_seed = int(rng.integers(1, 100)), int(rng.integers(0, 1000))
        decorated, report = add_shortcut_edges(g, shortcuts, pairs, sample_seed)

        # The per-edge decoration and the per-pair geodesic loop.
        edges = list(g.edges)
        for u, v, length in shortcuts:
            weight = min(e.weight for e in g.edges if {u, v} & {e.a, e.b})
            edges.append(Edge(u, v, length, weight, 0.0))
        meta = None if g.meta is None else {
            v: m for v, m in enumerate(g.meta) if m is not None
        }
        assert decorated == build_graph(edges, boundary=g.boundary, meta=meta)
        draw = np.random.default_rng(sample_seed)
        sample = [(int(draw.integers(0, n)), int(draw.integers(0, n)))
                  for _ in range(pairs)]
        worst = 1.0
        for u, v in sample:
            if u != v:
                d_dec = geodesic_distance(decorated, u, v)
                if d_dec > 0.0:
                    worst = max(worst, geodesic_distance(g, u, v) / d_dec)
        assert report.shortcut_count == len(shortcuts)
        assert report.sampled_pairs == sum(u != v for u, v in sample)
        assert report.lengths_nonincreasing == all(
            b[2] <= a[2] + 1e-15 for a, b in zip(shortcuts, shortcuts[1:])
        )
        # The loop took the least of four endpoint routes, each summed in
        # its own order; the report reads the path summed from the first
        # vertex, one of them.  They agree to a few ulps.
        assert math.isclose(report.distortion_bound, worst, rel_tol=4 * sys.float_info.epsilon)

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


def _leaves(g):
    return [v for v in g.boundary_vertices if v != 0]


class TestLevelArrays:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.77])
    def test_lengths_match_generated_edges(self, alpha):
        spec = AlphaBetaSpec(alpha=alpha, depth=9)
        g = generate_ab_tree(spec)
        flat = np.concatenate(level_lengths(spec))
        assert flat.tolist() == [e.length for e in g.edges]

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.45, 0.77])
    def test_one_length_per_level_and_b_count(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        spec = AlphaBetaSpec(alpha=alpha, depth=20)
        eps = np.finfo(float).eps
        with mpmath.workdps(50):
            a, b = mpmath.mpf(spec.alpha), mpmath.mpf(spec.beta)
            for k, lengths in enumerate(level_lengths(spec), start=1):
                position = np.arange(2 ** (k - 1))
                b_steps = sum(
                    ((position >> bit) & 1 for bit in range(k - 1)),
                    np.zeros_like(position),
                )
                assert len(np.unique(lengths)) <= k
                for i in range(k):
                    (length,) = np.unique(lengths[b_steps == i])
                    exact = a ** (k - 1 - i) * b**i
                    assert abs(length - exact) <= eps * exact

    @given(alpha=st.floats(min_value=0.01, max_value=0.99),
           root_length=st.floats(min_value=1e-100, max_value=1e200))
    @example(alpha=0.3, root_length=1.0)
    @example(alpha=0.1, root_length=1e200)
    @settings(max_examples=30, deadline=None)
    def test_class_lengths_round_exact_products_once(self, alpha, root_length):
        from fractions import Fraction

        # At depth 24 the numerators of most alphas pass the 1000 bits that
        # class_lengths converts with ldexp (1,267 bits for the second
        # example); float(Fraction) is the correctly rounded quotient.
        spec = AlphaBetaSpec(alpha=alpha, depth=24, root_length=root_length)
        a, b, root = Fraction(spec.alpha), Fraction(spec.beta), Fraction(root_length)
        for k, lengths in enumerate(trees.class_lengths(spec), start=1):
            exact = [root * a ** (k - 1 - i) * b**i for i in range(k)]
            assert lengths.tolist() == [float(x) for x in exact]

    def test_cylinder_slice_matches_cylinder_leaves(self):
        depth = 5
        g = generate_ab_tree(AlphaBetaSpec(alpha=0.4, depth=depth))
        leaves = _leaves(g)
        for prefix in ("", "a", "b", "ab", "bba", "abab"):
            assert leaves[cylinder_slice(prefix, depth)] == list(
                cylinder_leaves(g, prefix)
            )
        with pytest.raises(DomainError, match="deeper"):
            cylinder_slice("ababa", depth)

    def test_ceilings_name_the_limit(self):
        too_deep = trees.MAX_SWEEP_EDGES.bit_length() + 1
        with pytest.raises(ValidationError, match=str(trees.MAX_SWEEP_EDGES)):
            level_lengths(AlphaBetaSpec(alpha=0.5, depth=too_deep))
        too_deep = trees.MAX_GRAPH_EDGES.bit_length() + 1
        with pytest.raises(ValidationError, match=str(trees.MAX_GRAPH_EDGES)):
            generate_ab_tree(AlphaBetaSpec(alpha=0.5, depth=too_deep))
        with pytest.raises(ValidationError, match=str(trees.MAX_GRAPH_EDGES)):
            generate_ab_tree(AlphaBetaSpec(alpha=0.5, depth=10**9))


# Potentials that put level edges on every edge-block branch: the Taylor
# series (1e-14), the hyperbolic middle (4) and, on the unit root edge, the
# flat asymptote (2.5e5, kappa * length = 500, where the dense oracle's
# textbook cosh and sinh still hold).
KAPPA2_CHOICES = (0.0, 1e-14, 4.0, 2.5e5)
CELLS = ("aa", "ab", "ba", "bb")


class TestLevelSweep:
    """The sweep against the sparse solver and the dense oracle."""

    @given(
        alpha=st.floats(min_value=0.1, max_value=0.9),
        depth=st.integers(min_value=3, max_value=10),
        coefs=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=5,
                       max_size=5),
        kappa2=st.lists(st.sampled_from(KAPPA2_CHOICES), min_size=0, max_size=10),
    )
    @example(alpha=0.3, depth=6, coefs=[1.0, -0.5, 0.25, 2.0, -1.0],
             kappa2=[2.5e5, 4.0, 1e-14, 0.0, 4.0, 2.5e5])
    @example(alpha=0.5625, depth=10, coefs=[1.875, 1.0, 0.0, 0.0, -0.75],
             kappa2=[0.0, 4.0, 4.0] + [0.0] * 6 + [2.5e5])
    @example(alpha=0.1, depth=10, coefs=[0.0] * 4 + [4.601812968762327e-36],
             kappa2=[])
    @example(alpha=0.6850238433433579, depth=10,
             coefs=[0.0, 0.0, 0.0, 0.21062515315611607, -2.0],
             kappa2=[0.0] * 5 + [4.0, 0.0, 2.5e5])
    @example(alpha=0.5, depth=7, coefs=[0.0] * 4 + [2.2250738585072014e-308],
             kappa2=[])
    # An exact 0 at the root, 3.9e-17 from the sparse solve's root flux.
    @example(alpha=0.796875, depth=3, coefs=[0.0, 1.0, -1.0, 0.0, 0.0], kappa2=[])
    @settings(max_examples=60, deadline=None)
    def test_matches_sparse_and_dense(self, alpha, depth, coefs, kappa2):
        spec = AlphaBetaSpec(alpha=alpha, depth=depth, kappa2_per_level=tuple(kappa2))
        family = replace(spec, depth=2)
        terms = [(c, ClopenSet.cylinder(family, p)) for c, p in zip(coefs, CELLS)]
        terms.append((coefs[4], ClopenSet.root_vertex(family)))
        f = SimpleBoundaryFunction(tuple(terms))

        g = generate_ab_tree(spec)
        data = f.boundary_data(g)
        sparse = solve_dirichlet(g, data)
        dense = dense_solve(g, data)
        lengths = level_lengths(spec)
        levels_kappa2 = [spec.kappa2_at_level(k + 1) for k in range(depth)]
        leaf_values = np.array([data[v] for v in _leaves(g)])
        blocks = [edge_dn_blocks(l, q) for l, q in zip(lengths, levels_kappa2)]
        sol = level_sweep(blocks, levels_kappa2, leaf_values, data[0])
        values = np.concatenate(sol.values)
        assert np.abs(values - dense).max() <= 1e-12
        assert np.abs(values - sparse.values).max() <= 1e-12

        # Flux yardstick: 64 eps times the summed single-edge contributions
        # |d g| + |o u| (the kirchhoff_residuals scale), plus what the
        # reference's own vertex-value error carries through the leaf edge,
        # |o| |u - u_sparse|: SuperLU's error is normwise, so in a cylinder
        # whose values sit far below the solution's scale it exceeded 64 eps
        # of the cylinder's contributions (86 eps against a 50-digit solve at
        # alpha = 0.5625, depth 10, kappa2 = 2.5e5 on the leaves; the sweep
        # was within 10 eps).  The reference sums its per-vertex derivatives
        # exactly, since flux_sum's running sum over 512 leaves was itself
        # 73 eps off at alpha = 0.1, depth 10.
        #
        # Gradual underflow adds an absolute error of up to 2**-1075 to each
        # product and quotient, which no relative bound expresses: with data
        # near the smallest normal number the reference's vertex values lose
        # digits, up to a few such units per level, and the leaf edge carries
        # them out scaled by its block (|o| <= d).  At alpha = 0.5, depth 7,
        # root data 2.2e-308 and zeros elsewhere, dn_at_depth was 3.8e-321
        # off the sparse leaf sum, whose cancelling subnormal terms carry
        # that error.
        diag, off = blocks[-1]
        above = np.repeat(sol.values[-2], 2)
        contributions = np.abs(diag * leaf_values) + np.abs(off * above)
        leaf_ids = np.arange(2 ** (depth - 1), 2**depth)
        carried = np.abs(off) * np.abs(values - sparse.values)[leaf_ids // 2]
        underflow = depth * 2.0**-1074 * diag
        eps = np.finfo(float).eps

        def exact(top):
            return _exact_cell_fluxes(spec, levels_kappa2, leaf_values, data[0], top)

        for prefix in ("",) + CELLS + ("a", "b", "ab" + "a" * (depth - 3)):
            cylinder = ClopenSet.cylinder(family, prefix)
            ours = dn_at_depth(f, cylinder, depth)
            reference = math.fsum(
                sparse.derivative_at(v) for v in cylinder.resolve(g)
            )
            cells = cylinder_slice(prefix, depth)
            bound = 64 * eps * contributions[cells].sum() + carried[cells].sum()
            cell = cells.start >> depth - 1 - len(prefix)
            assert _near(ours, reference, bound + underflow[cells].sum(),
                         lambda: exact(len(prefix))[cell])
        root = ClopenSet.root_vertex(family)
        d0, o0 = blocks[0]
        scale = abs(d0[0] * data[0]) + abs(o0[0] * values[1])
        bound = 64 * eps * scale + abs(o0[0]) * abs(values[1] - sparse.values[1])
        bound += depth * 2.0**-1074 * d0[0]
        reference = sparse.flux_sum(root.resolve(g))
        assert _near(dn_at_depth(f, root, depth), reference, bound, lambda: exact(0)[-1])


class TestCellFluxes:
    """The subtree-table kernel against the level sweep and 50-digit sweeps."""

    @given(
        alpha=st.floats(min_value=0.1, max_value=0.9),
        depth=st.integers(min_value=3, max_value=12),
        top=st.integers(min_value=2, max_value=11),
        coefs=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=5,
                       max_size=5),
        kappa2=st.lists(st.sampled_from(KAPPA2_CHOICES), min_size=0, max_size=12),
    )
    @example(alpha=0.6850238433433579, depth=10, top=2,
             coefs=[0.0, 0.0, 0.0, 0.21062515315611607, -2.0],
             kappa2=[0.0] * 5 + [4.0, 0.0, 2.5e5])
    @example(alpha=0.1, depth=12, top=2, coefs=[1.0, 1.0, 0.0, 0.0, -0.5],
             kappa2=[])
    @example(alpha=0.3, depth=20, top=2, coefs=[1.0, 1.0, 0.0, 0.0, -0.5],
             kappa2=[4.0, 1e-14])
    # The level sweep is farther than its yardstick from the 50-digit fluxes.
    @example(alpha=0.41370472344369535, depth=11, top=4,
             coefs=[7.517198793937967e-08, -0.4834053406032024, 0.47241611418192564,
                    3.7780045695975555e-203, 3.7780045695975555e-203],
             kappa2=[0.0])
    # A root datum of 0 whose flux cancels: the root's terms before they
    # cancel, not the sweep's u1, bound its rounding (Hypothesis seeds 20
    # and 24).
    @example(alpha=0.6592434930680813, depth=3, top=2, coefs=[0.0, 1.0, -1.0, 0.0, 0.0],
             kappa2=[])
    @example(alpha=0.6315954510454233, depth=4, top=2,
             coefs=[0.578125, 0.0, 0.0, -0.15625, 0.0], kappa2=[0.0, 4.0])
    @settings(max_examples=80, deadline=None)
    def test_matches_level_sweep(self, alpha, depth, top, coefs, kappa2):
        top = min(top, depth - 1)
        family = AlphaBetaSpec(alpha=alpha, depth=2, kappa2_per_level=tuple(kappa2))
        depths = range(top + 1, depth + 1)
        ours, ours_root = trees.cell_fluxes(family, coefs[:4], coefs[4], depths, top)
        assert ours.shape == (len(depths), 2**top)
        # Callers sum rows and reshaped rows; numpy adds in an order that
        # follows the memory layout, so the rows must stay contiguous.
        assert ours.flags.c_contiguous
        eps = np.finfo(float).eps
        for row, root, n in zip(ours, ours_root, depths):
            spec = replace(family, depth=n)
            leaf_values = np.repeat(coefs[:4], 2 ** (n - 3))
            levels_kappa2 = [spec.kappa2_at_level(k + 1) for k in range(n)]
            blocks = [
                edge_dn_blocks(l, q)
                for l, q in zip(level_lengths(spec), levels_kappa2)
            ]
            sol = level_sweep(blocks, levels_kappa2, leaf_values, coefs[4])
            # The leaf-sum yardstick of TestLevelSweep: 64 eps times the
            # summed single-edge contributions |d g| + |o u| of the sweep,
            # plus its underflow term.
            diag, off = blocks[-1]
            above = np.repeat(sol.values[-2], 2)
            contributions = np.abs(diag * leaf_values) + np.abs(off * above)
            bound = 64 * eps * contributions + n * 2.0**-1074 * diag
            reference = sol.leaf_flux.reshape(2**top, -1).sum(axis=1)
            # The root's scale |d0 r| + |o0| u1, with u1 from the same sweep
            # of |data|: u1 sums its terms before they cancel, as the
            # cells' contributions do, where the sweep's own u1 may be
            # rounding noise.
            d0, o0 = blocks[0]
            unsigned = level_sweep(blocks, levels_kappa2, np.abs(leaf_values),
                                   abs(coefs[4]))
            scale = abs(d0[0] * coefs[4]) + abs(o0[0] * unsigned.values[1][0])
            values = np.append(row, root)
            bound = np.append(bound.reshape(2**top, -1).sum(axis=1),
                              64 * eps * scale + n * 2.0**-1074 * d0[0])
            off = np.abs(values - np.append(reference, sol.root_flux)) > bound
            if off.any():
                # The sweep's own vertex values carry rounding that its
                # yardstick leaves out, most where they cancel; there the
                # 50-digit sweep is the reference, at the same bound.
                exact = _exact_cell_fluxes(spec, levels_kappa2, leaf_values, coefs[4], top)
                assert np.all(np.abs(values - exact)[off] <= bound[off])

    @given(data=st.data(), alpha=st.floats(min_value=0.05, max_value=0.95),
           seed=st.integers(0, 2**32 - 1),
           potential=st.sampled_from(["none", "above top", "below top"]))
    @example(data=None, alpha=0.3, seed=0, potential="none")
    @settings(max_examples=150, deadline=None)
    def test_matches_table_sweep(self, data, alpha, seed, potential):
        if data is None:  # the exhaustion of cyl:a through cyl:b to depth 16
            top, depths, kappa2 = 1, list(range(2, 17)), ()
            values, root = np.array([1.0, 0.0]), 0.0
        else:
            n_max = data.draw(st.integers(2, 14), "n_max")
            top = data.draw(st.integers(0, n_max - 1), "top")
            given = data.draw(st.integers(0, min(top, 5)), "given")
            # Unsorted and repeated depths; the last level with a potential
            # lies at or above top, or below it.
            depths = data.draw(st.lists(st.integers(top + 1, n_max), min_size=1,
                                        max_size=6), "depths")
            deepest = {
                "none": 0,
                "above top": data.draw(st.integers(0, top)),
                "below top": data.draw(st.integers(top + 1, n_max + 2)),
            }[potential]
            kappa2 = tuple(data.draw(st.lists(st.sampled_from(KAPPA2_CHOICES),
                                              min_size=deepest, max_size=deepest)))
            if deepest:
                kappa2 = kappa2[:-1] + (4.0,)
            distinct = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=1,
                                          max_size=16, unique=True), "values")
            values = np.random.default_rng(seed).choice(distinct, 2**given)
            root = data.draw(st.floats(-4.0, 4.0), "root")
        family = AlphaBetaSpec(alpha=alpha, depth=2, kappa2_per_level=kappa2)
        _check_against_table_sweep(family, values, root, depths, top)

    # The seams of the table's seed level max(top, P), P the deepest level
    # with a potential: rows at or above P enter as leaves, deeper ones at
    # level P + 1 from the admittance recurrence.
    @pytest.mark.parametrize(
        "alpha, root_length, kappa2, values, root, depths, top",
        [
            (0.3, 1.0, (4.0,), [1.0, -0.5], 0.25, [7, 4, 4, 5], 3),  # P < top
            (0.3, 1.0, (0.0, 4.0), [1.0, 0.0], -0.5, [3, 9, 3], 2),  # P = top
            (0.3, 1.0, (0.0, 0.0, 4.0), [1.0, 0.0], 0.0, [10, 3, 4], 2),  # P = top + 1
            # P > top + 1, with rows above, at and below P.
            (0.45, 1.0, (4.0, 0.0, 2.5e5, 0.0, 4.0), [2.0, -1.0, 0.5, 0.0], 1.0,
             [5, 3, 8, 3, 5, 4], 2),
            (0.7, 0.7, (0.0, 1e-14, 4.0, 0.0, 0.0, 4.0), [1.0, 3.0], -2.0,
             [6, 6, 12, 2], 1),
            (0.3, 3.5, (), [1.0, -1.0, 0.5, 0.25], 0.5, [12, 3, 5], 2),
            (0.05, 1.0, (), [1.0, 0.0], -0.5, [9, 2, 16], 1),
            (0.95, 1.0, (4.0, 0.0, 4.0), [1.0, 0.0, -1.0, 2.0], 0.5, [4, 14, 7], 2),
            (0.3, 1.0, (), [-0.0, -0.0], -0.0, [2, 5], 1),
            (0.3, 1.0, (0.0, 4.0, 4.0), [-0.0, 1.0], -0.0, [3, 6], 1),
            # Zero levels between and above potential levels take the
            # conductance block; the cells lie above and below P.
            (0.3, 0.7, (0.0, 4.0, 0.0, 1.0), [1.0, -0.5, 0.0, 2.0], 0.25,
             [8, 4, 3, 7, 3], 2),
            (0.3, 0.7, (0.0, 4.0, 0.0, 1.0), [1.0, -0.5], 0.25, [9, 6, 5], 4),
            (0.3, 0.7, (0.0, 4.0, 0.0, 1.0), [2.0, 0.0], -1.0, [7, 12], 6),
            (0.3, 1.0, (4.0,), [1.0], -0.5, [6, 1, 3, 1], 0),
            (0.3, 1.0, (4.0,), [1.0, 0.0, -1.0, 2.0], -0.5, [7, 3, 5], 2),
            (0.45, 1.0, (0.0, 0.0, 0.0, 0.0, 2.0), [1.0, 0.0, -1.0, 2.0], 0.5,
             [9, 3, 5, 6, 3], 2),
            (0.45, 1.0, (0.0, 0.0, 0.0, 0.0, 2.0), [2.0, -1.0], 0.5, [8, 7, 11], 6),
        ],
    )
    def test_seams_match_table_sweep(self, alpha, root_length, kappa2, values, root,
                                     depths, top):
        family = AlphaBetaSpec(alpha=alpha, depth=2, root_length=root_length,
                               kappa2_per_level=kappa2)
        _check_against_table_sweep(family, np.array(values), root, depths, top)

    @pytest.mark.parametrize("alpha", [0.05, 0.25, 0.3, 0.45, 0.95])
    def test_admittances_tend_to_the_stretched_leaf_closure(self, alpha):
        # y(m) - (1 - ab) starts at ab and shrinks by at most ab per level,
        # to the fixed point's rounding.
        ab = alpha * (1.0 - alpha)
        y = np.array(trees._admittances(alpha, 1.0 - alpha, 80))
        assert y[0] == 1.0
        m = np.arange(1, len(y) + 1)
        assert np.all(np.abs(y - (1.0 - ab)) <= ab**m + 2 * np.finfo(float).eps)

    @pytest.mark.parametrize("alpha", [0.25, 0.3, 0.45])
    @pytest.mark.parametrize("root_length", [1.0, 0.7])
    @pytest.mark.parametrize("top", [1, 2, 3])
    def test_limits_tend_to_resistance_oracle(self, alpha, root_length, top):
        # Below the cells the truncations' subtrees draw y(n - top) where the
        # infinite tree's draw 1 - ab: every depth is within about
        # (ab)**(n - top) of resistance_flux, down to rounding.
        from oracles import resistance_flux

        rng = np.random.default_rng(top)
        values, root = rng.uniform(-2.0, 2.0, 2**top), float(rng.uniform(-2.0, 2.0))
        cells = ["".join("ab"[int(b)] for b in format(i, f"0{top}b"))
                 for i in range(2**top)]
        exact = resistance_flux(alpha, dict(zip(cells, values)), root, root_length)
        exact = np.array([exact[c] for c in cells] + [exact["v0"]])
        family = AlphaBetaSpec(alpha=alpha, depth=2, root_length=root_length)
        depths = np.arange(top + 1, trees.MAX_SWEEP_EDGES.bit_length() + 1)
        rows, roots = trees.cell_fluxes(family, values, root, depths, top)
        errors = np.abs(np.column_stack((rows, roots)) - exact).max(axis=1)
        ab = alpha * (1.0 - alpha)
        assert np.all(errors <= (2 * ab ** (depths - top) + 1e-13) * np.abs(exact).max())

    # A cell's flux carries the rounding of the value above its top edge
    # times the subtree's admittance, about 1 / (top-edge length): reading
    # the alpha = 0.1 truncation on its depth-3 cells, whose shortest top
    # edge is 1e-3 long, is 5.9e-14 off the 50-digit values.  The leaf sum
    # of level_sweep is 2.9e-5 off at alpha = 0.1, depth 13.
    @pytest.mark.parametrize(
        "alpha, depth, kappa2, top",
        [
            (0.1, 13, (), 1),
            (0.3, 12, (4.0, 2.0, 1.0, 0.5), 3),
            (0.45, 11, (2.5e5, 4.0), 2),
        ],
    )
    def test_matches_50_digit_sweep(self, alpha, depth, kappa2, top):
        mpmath = pytest.importorskip("mpmath")
        from oracles import mp_leaf_fluxes

        spec = AlphaBetaSpec(alpha=alpha, depth=depth, kappa2_per_level=kappa2)
        # F = 1 on cyl:a and -0.5 at v0, read on the depth-top cells.
        (ours,), (ours_root,) = trees.cell_fluxes(spec, [1.0, 0.0], -0.5, [depth], top)
        leaf_values = np.repeat([1.0, 0.0], 2 ** (depth - 2))
        lengths = level_lengths(spec)
        kappa2_n = [spec.kappa2_at_level(k + 1) for k in range(depth)]
        flux, root = mp_leaf_fluxes(lengths, kappa2_n, leaf_values, -0.5)
        per_cell = 2 ** (depth - 1 - top)
        with mpmath.workdps(50):
            exact = [mpmath.fsum(flux[i:i + per_cell])
                     for i in range(0, len(flux), per_cell)]
            for value, x in zip(list(ours) + [ours_root], exact + [root]):
                assert abs(value - x) <= 1e-14 * abs(x)

    def test_rejects_bad_input(self):
        family = AlphaBetaSpec(alpha=0.3, depth=2)
        with pytest.raises(ValidationError, match="non-finite"):
            trees.cell_fluxes(family, [1.0, np.nan], 0.0, [3], 1)
        with pytest.raises(ValidationError, match="non-finite"):
            trees.cell_fluxes(family, [1.0, 0.0], np.inf, [3], 1)
        with pytest.raises(ValidationError, match="one value per cell"):
            trees.cell_fluxes(family, [1.0, 0.0, 2.0], 0.0, [3], 2)
        with pytest.raises(DomainError, match="no truncation depths"):
            trees.cell_fluxes(family, [1.0, 0.0], 0.0, [], 1)
        with pytest.raises(DomainError, match="does not resolve"):
            trees.cell_fluxes(family, [1.0, 0.0], 0.0, [2, 3], 2)
        with pytest.raises(DomainError, match="coarser"):
            trees.cell_fluxes(family, [1.0, 0.0, 2.0, 3.0], 0.0, [3], 1)
        too_deep = trees.MAX_SWEEP_EDGES.bit_length() + 1
        with pytest.raises(ValidationError, match=str(trees.MAX_SWEEP_EDGES)):
            trees.cell_fluxes(family, [1.0, 0.0], 0.0, [too_deep], 1)

    def test_refuses_overflow(self):
        # The data are scaled exactly to below 1 and the fluxes back: the
        # a-cell's flux leaves the float range then and is refused, with no
        # warning, while the b-cell's, -1.557e308, is read.
        family = AlphaBetaSpec(alpha=0.3, depth=2)
        data = ([1e308, -1e308], 0.0, [3], 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows the float range"):
                trees.cell_fluxes(family, *data)
            with pytest.raises(DomainError, match="overflows the float range"):
                trees._prefix_fluxes(family, *data, [(0, 1)], False)
            (b,) = trees._prefix_fluxes(family, *data, [(1, 1)], False)
        assert -1.56e308 < b < -1.55e308


def _near(ours, reference, bound, exact):
    """Whether ``ours`` lies within ``bound`` of the reference or, where the
    reference's own rounding is more than its yardstick holds (a flux that
    cancels to about 0 at a root datum of 0), of the 50-digit ``exact()``."""
    return abs(ours - reference) <= bound or abs(ours - exact()) <= bound


def _exact_cell_fluxes(spec, kappa2, leaf_values, root_value, top):
    """50-digit fluxes through the depth-``top`` cells, then the root."""
    flux, root = mp_leaf_fluxes(level_lengths(spec), kappa2, leaf_values, root_value)
    per_cell = len(flux) >> top
    with mpmath.workdps(50):
        cells = [mpmath.fsum(flux[i:i + per_cell]) for i in range(0, len(flux), per_cell)]
        return np.array([float(x) for x in cells + [root]])


def _check_against_table_sweep(family, values, root, depths, top):
    """cell_fluxes against the frozen table sweep, `table_cell_fluxes`.

    Both read a cell's flux from the value above its top edge, whose
    rounding the subtree's admittance carries out; it is below that edge's
    block diagonal ``d``, so each flux is held within 16 eps of its value
    plus ``d`` times the largest datum, and of an underflow term for data
    near the smallest normal number.
    """
    from oracles import table_cell_fluxes

    ours, ours_root = trees.cell_fluxes(family, values, root, depths, top)
    reference, reference_root = table_cell_fluxes(family, values, root, depths, top)
    assert ours.shape == reference.shape and ours_root.shape == reference_root.shape
    assert ours.flags.c_contiguous
    spec = replace(family, depth=top + 1)
    diag, _ = edge_dn_blocks(level_lengths(spec)[top], spec.kappa2_at_level(top + 1))
    d0, _ = edge_dn_blocks(spec.root_length, spec.kappa2_at_level(1))
    scale = max(np.abs(values).max(), abs(root))
    eps, n_max = np.finfo(float).eps, max(depths)
    for x, y, d in ((ours, reference, diag), (ours_root, reference_root, d0)):
        bound = 16 * eps * (np.abs(y) + d * scale) + n_max * 2.0**-1074 * d
        assert np.all(np.abs(x - y) <= bound)
