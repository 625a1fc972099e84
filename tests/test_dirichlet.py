import dataclasses
import math

import numpy as np
import pytest

from graphdn import dirichlet, edge
from graphdn.dirichlet import (
    InteriorSystem,
    assemble,
    current_balance,
    dirichlet_lower_bound,
    dn_matrix,
    energy_identity,
    max_principle_check,
    solve_dirichlet,
)
from graphdn.edge import edge_energy
from graphdn.errors import SingularInteriorError, ValidationError
from graphdn.graph import build_graph
from graphdn.trees import (
    AlphaBetaSpec,
    add_shortcut_edges,
    address_index,
    cylinder_leaves,
    generate_ab_tree,
)

from conftest import graph_corpus
from oracles import dense_dn, dense_solve

COTH1 = 1.3130352854993312
CSCH1 = 0.8509181282393216


def interval(kappa2=0.0, length=1.0):
    return build_graph([(0, 1, length, 1.0, kappa2)])


def star3():
    return build_graph([(3, 0, 1.0), (3, 1, 1.0), (3, 2, 1.0)])


class TestAssemble:
    def test_interval(self):
        a = assemble(interval()).toarray()
        assert np.allclose(a, [[1, -1], [-1, 1]], atol=0)

    def test_path_of_two(self):
        g = build_graph([(0, 2, 1.0), (2, 1, 1.0)])
        a = assemble(g).toarray()
        # vertex order 0, 1, 2 with 2 the midpoint
        expected = np.array([[1, 0, -1], [0, 1, -1], [-1, -1, 2]])
        assert np.allclose(a, expected, atol=0)

    def test_star(self):
        a = assemble(star3()).toarray()
        assert a[3, 3] == 3.0
        assert all(a[v, v] == 1.0 for v in range(3))
        assert all(a[3, v] == -1.0 for v in range(3))


class TestSolve:
    def test_star_center_third(self):
        sol = solve_dirichlet(star3(), {0: 1.0, 1: 0.0, 2: 0.0})
        assert math.isclose(sol.values[3], 1.0 / 3.0, rel_tol=1e-14)

    def test_constants_are_harmonic(self):
        g = build_graph([(0, 2, 1.0), (2, 3, 0.5), (3, 1, 2.0), (2, 1, 1.5)])
        sol = solve_dirichlet(g, {v: 4.2 for v in g.boundary_vertices})
        assert np.allclose(sol.values, 4.2, rtol=1e-13)
        assert sol.energy <= 1e-20

    def test_interval_hyperbolic(self):
        sol = solve_dirichlet(interval(kappa2=1.0), {0: 0.0, 1: 1.0})
        s = sol.edge_solutions[0]
        exact = math.sinh(0.25) / math.sinh(1.0)
        assert math.isclose(s(0.25), exact, rel_tol=1e-12)

    def test_sequence_data(self):
        sol = solve_dirichlet(star3(), [1.0, 0.0, 0.0])
        assert math.isclose(sol.values[3], 1.0 / 3.0, rel_tol=1e-14)

    def test_data_validation(self):
        with pytest.raises(ValidationError, match="no boundary value"):
            solve_dirichlet(star3(), {0: 1.0})
        with pytest.raises(ValidationError, match="non-boundary"):
            solve_dirichlet(star3(), {0: 1.0, 1: 0.0, 2: 0.0, 3: 0.5})
        with pytest.raises(ValidationError, match="non-finite"):
            solve_dirichlet(star3(), {0: 1.0, 1: float("nan"), 2: 0.0})
        with pytest.raises(ValidationError, match="non-finite"):
            solve_dirichlet(star3(), [0.0, float("inf"), 0.5])

    def test_no_boundary_is_singular(self):
        cycle = build_graph(
            [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)], boundary=set()
        )
        with pytest.raises(SingularInteriorError):
            solve_dirichlet(cycle, {})

    def test_derivative_extraction_matches_dense(self):
        for g in graph_corpus(8, seed=77, max_vertices=12):
            data = {v: float(i % 3) for i, v in enumerate(g.boundary_vertices)}
            sol = solve_dirichlet(g, data)
            dense = dense_solve(g, data)
            scale = max(1.0, np.abs(dense).max())
            assert np.abs(sol.values - dense).max() <= 1e-9 * scale

    def test_flux_sum_is_exactly_rounded(self):
        # Deep alpha = 0.1 leaves carry large derivatives of both signs, so
        # a running sum over a cylinder's 256 leaves drifts visibly.
        g = generate_ab_tree(AlphaBetaSpec(alpha=0.1, depth=10))
        rng = np.random.default_rng(0)
        sol = solve_dirichlet(g, rng.uniform(0.0, 1.0, len(g.boundary_vertices)))
        for prefix in ("a", "b", "ab"):
            leaves = cylinder_leaves(g, prefix)
            exact = math.fsum(sol.derivative_at(v) for v in leaves)
            assert sol.flux_sum(leaves) == exact


class TestDNMatrix:
    def test_interval_scaling(self):
        dn = dn_matrix(interval(length=0.5))
        assert np.allclose(dn.matrix, [[2, -2], [-2, 2]], atol=0)

    def test_star_closed_form(self):
        dn = dn_matrix(star3())
        expected = (np.full((3, 3), -1.0) + 3 * np.eye(3)) / 3.0
        assert np.abs(dn.matrix - expected).max() < 1e-14

    def test_interval_hyperbolic(self):
        dn = dn_matrix(interval(kappa2=1.0))
        expected = np.array([[COTH1, -CSCH1], [-CSCH1, COTH1]])
        assert np.abs(dn.matrix - expected).max() < 1e-13

    def test_corpus_structure(self):
        for g in graph_corpus(40, seed=5):
            dn = dn_matrix(g)
            scale = max(1.0, np.abs(dn.matrix).max())
            assert dn.symmetry_residual() <= 1e-10 * scale
            assert dn.min_eigenvalue() >= -1e-10 * scale
            if all(e.kappa2 == 0.0 for e in g.edges):
                assert dn.constant_residual() <= 1e-10 * scale
            else:
                assert dn.min_eigenvalue() > 0.0
            oracle = dense_dn(g)
            assert np.abs(dn.matrix - oracle).max() <= 1e-9 * scale

    def test_refuses_boundary_past_ceiling(self, monkeypatch):
        monkeypatch.setattr(dirichlet, "MAX_DN_BOUNDARY", 2)
        assert dn_matrix(interval()).matrix.shape == (2, 2)
        monkeypatch.setattr(dirichlet, "InteriorSystem", _refuse)
        with pytest.raises(ValidationError, match="limit of 2"):
            dn_matrix(star3())


def _refuse(*args, **kwargs):
    raise AssertionError("dense or factorizing work was started")


class TestIdentities:
    def test_current_balance_zero_potential(self):
        sol = solve_dirichlet(star3(), {0: 1.0, 1: 0.0, 2: 0.0})
        expected = np.array([2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0])
        assert np.abs(sol.boundary_derivatives - expected).max() < 1e-13
        cb = current_balance(sol)
        assert abs(cb.flux_sum) <= 1e-10
        assert cb.potential_integral == 0.0

    def test_current_balance_interval(self):
        sol = solve_dirichlet(interval(kappa2=1.0), {0: 0.0, 1: 1.0})
        cb = current_balance(sol)
        expected = (math.cosh(1.0) - 1.0) / math.sinh(1.0)
        assert math.isclose(cb.flux_sum, expected, rel_tol=1e-12)
        assert abs(cb.residual) <= 1e-12

    def test_energy_identity_examples(self):
        sol = solve_dirichlet(interval(), {0: 0.0, 1: 1.0})
        ei = energy_identity(sol)
        assert math.isclose(ei.form_value, 1.0, rel_tol=1e-14)
        assert math.isclose(ei.energy, 1.0, rel_tol=1e-14)

        sol = solve_dirichlet(star3(), {0: 1.0, 1: 0.0, 2: 0.0})
        ei = energy_identity(sol)
        assert math.isclose(ei.energy, 2.0 / 3.0, rel_tol=1e-13)

        sol = solve_dirichlet(interval(kappa2=1.0), {0: 0.0, 1: 1.0})
        ei = energy_identity(sol)
        assert math.isclose(ei.energy, COTH1, rel_tol=1e-12)
        assert abs(ei.residual) <= 1e-12

    def test_energy_identity_reads_the_solution(self, monkeypatch):
        g = generate_ab_tree(AlphaBetaSpec(alpha=0.3, depth=6, kappa2_per_level=(2.0,)))
        data = {v: float(v % 3) - 1.0 for v in g.boundary_vertices}
        sol = solve_dirichlet(g, data)
        reference = float(dn_matrix(g).quadratic(sol.boundary_values))
        monkeypatch.setattr(dirichlet, "InteriorSystem", _refuse)
        monkeypatch.setattr(dirichlet, "dn_matrix", _refuse)
        ei = energy_identity(sol)
        assert math.isclose(ei.form_value, reference, rel_tol=1e-12)
        assert abs(ei.residual) <= 1e-12 * ei.energy

    def test_energy_identity_sees_a_wrong_block(self, monkeypatch):
        # The edge energies never read the flux block, so a wrong diagonal,
        # which the solve and its boundary derivatives share, shows in the
        # residual instead of cancelling.  The block is skewed where the
        # energies would look it up too.
        g = generate_ab_tree(
            AlphaBetaSpec(alpha=0.3, depth=6, kappa2_per_level=(2.0, 1.0))
        )
        data = {v: float(v % 3) - 1.0 for v in g.boundary_vertices}
        honest = energy_identity(solve_dirichlet(g, data))
        assert abs(honest.residual) <= 1e-12 * honest.energy
        blocks = dirichlet.edge_dn_blocks

        def skewed(lengths, kappa2):
            diag, off = blocks(lengths, kappa2)
            return diag * (1.0 + 1e-3), off

        monkeypatch.setattr(dirichlet, "edge_dn_blocks", skewed)
        monkeypatch.setattr(edge, "edge_dn_blocks", skewed)
        ei = energy_identity(solve_dirichlet(g, data))
        assert abs(ei.residual) / ei.energy > 1e-4

    def test_identity_residuals_on_corpus(self):
        rng = np.random.default_rng(17)
        for g in graph_corpus(30, seed=9):
            data = {
                v: float(rng.uniform(-1, 1)) for v in g.boundary_vertices
            }
            sol = solve_dirichlet(g, data)
            ei = energy_identity(sol)
            scale = max(abs(ei.form_value), abs(ei.energy), 1e-12)
            assert abs(ei.residual) <= 1e-8 * scale
            cb = current_balance(sol)
            flux_scale = max(
                np.abs(sol.boundary_derivatives).sum(),
                abs(cb.potential_integral),
                1e-12,
            )
            assert abs(cb.residual) <= 1e-8 * flux_scale

    def test_solution_invariants_on_corpus(self):
        rng = np.random.default_rng(23)
        for g in graph_corpus(20, seed=31):
            data = {v: float(rng.uniform(0, 1)) for v in g.boundary_vertices}
            sol = solve_dirichlet(g, data)
            norm = max(1e-30, np.abs(sol.values).max())
            assert sol.continuity_residual() <= 1e-10 * norm
            residuals, scales = sol.kirchhoff_residuals()
            assert np.all(residuals <= 1e-8 * np.maximum(scales, 1.0))
            assert sol.energy >= 0.0
            # Pairwise array sum against the exactly rounded sum of the
            # scalar edge energies.
            exact = math.fsum(edge_energy(s) for s in sol.edge_solutions)
            assert abs(sol.energy - exact) <= 64 * np.finfo(float).eps * exact


class TestMaxPrinciple:
    def test_star_passes(self):
        sol = solve_dirichlet(star3(), {0: 1.0, 1: 0.0, 2: 0.0})
        report = max_principle_check(sol)
        assert report.passed
        assert report.checked_vertices == 1

    def test_constant_skipped(self):
        sol = solve_dirichlet(star3(), {0: 1.0, 1: 1.0, 2: 1.0})
        report = max_principle_check(sol)
        assert report.skipped_constant

    def test_tree_random_01_data(self):
        rng = np.random.default_rng(2)
        spec = AlphaBetaSpec(alpha=0.35, depth=6, kappa2_per_level=(1.0, 0.5))
        g = generate_ab_tree(spec)
        for _ in range(5):
            data = {v: float(rng.integers(0, 2)) for v in g.boundary_vertices}
            if len(set(data.values())) < 2:
                continue
            report = max_principle_check(solve_dirichlet(g, data))
            assert report.passed
            assert report.checked_edges == len(g.edges)

    def test_non_finite_values_are_violations(self):
        spec = AlphaBetaSpec(alpha=0.35, depth=4, kappa2_per_level=(1.0,))
        g = generate_ab_tree(spec)
        data = {v: float(v % 2) for v in g.boundary_vertices}
        sol = solve_dirichlet(g, data)
        assert max_principle_check(sol).passed
        values = sol.values.copy()
        values[g.interior_vertices[0]] = math.nan
        report = max_principle_check(dataclasses.replace(sol, values=values))
        assert not report.passed
        assert [(v.kind, v.index) for v in report.violations] == [
            ("vertex", g.interior_vertices[0])
        ]
        edges = list(sol.edge_solutions)
        edges[0] = dataclasses.replace(edges[0], c1=math.nan)
        broken = dataclasses.replace(sol, edge_solutions=tuple(edges))
        report = max_principle_check(broken)
        assert [(v.kind, v.index) for v in report.violations] == [("edge", 0)]


    def test_potential_widens_bounds_to_zero(self):
        # -u'' + u = 0 on [0, 3] sags to 0.296 between data 1 and 0.5.
        g = build_graph([(0, 1, 3.0, 1.0, 1.0)])
        for sign in (1.0, -1.0):
            sol = solve_dirichlet(g, {0: sign, 1: 0.5 * sign})
            report = max_principle_check(sol)
            assert report.passed, report.violations
            assert (report.lower, report.upper) == tuple(sorted((0.0, sign)))
            assert math.isclose(
                abs(sol.edge_solutions[0].interior_extremum()[1]), 0.2964156423319081,
                rel_tol=1e-12,
            )

    def test_potential_tree_signed_data(self):
        g = generate_ab_tree(
            AlphaBetaSpec(alpha=0.3, depth=5, kappa2_per_level=(4.0,))
        )
        for sign in (1.0, -1.0):
            data = {v: sign * (1.0 if v == 0 else 0.5) for v in g.boundary_vertices}
            report = max_principle_check(solve_dirichlet(g, data))
            assert report.passed, report.violations
            assert report.checked_edges == len(g.edges)

    def test_potential_constant_data_is_checked(self):
        g = generate_ab_tree(AlphaBetaSpec(alpha=0.3, depth=4, kappa2_per_level=(1.0,)))
        sol = solve_dirichlet(g, {v: -2.0 for v in g.boundary_vertices})
        report = max_principle_check(sol)
        assert not report.skipped_constant and report.passed
        # A value on the wrong side of 0 is still caught.
        values = sol.values.copy()
        values[g.interior_vertices[0]] = 0.25
        report = max_principle_check(dataclasses.replace(sol, values=values))
        assert [(v.kind, v.index) for v in report.violations] == [
            ("vertex", g.interior_vertices[0])
        ]

    def test_no_potential_keeps_boundary_range(self):
        sol = solve_dirichlet(star3(), {0: 1.0, 1: 0.5, 2: 0.5})
        values = sol.values.copy()
        values[3] = 0.25
        report = max_principle_check(dataclasses.replace(sol, values=values))
        assert (report.lower, report.upper) == (0.5, 1.0)
        assert [(v.kind, v.index) for v in report.violations] == [("vertex", 3)]


class TestLowerBound:
    def test_path_of_two(self):
        g = build_graph([(0, 2, 1.0), (2, 1, 1.0)])
        assert math.isclose(dirichlet_lower_bound(g), 2.0, rel_tol=1e-14)

    def test_star(self):
        assert math.isclose(dirichlet_lower_bound(star3()), 3.0, rel_tol=1e-14)

    def test_empty_interior(self):
        assert dirichlet_lower_bound(interval()) == math.inf

    def test_deep_truncation_positive(self):
        g = generate_ab_tree(AlphaBetaSpec(alpha=0.3, depth=8))
        assert dirichlet_lower_bound(g) > 0.0


class TestInteriorSystem:
    def test_condition_estimate_reasonable(self):
        g = generate_ab_tree(AlphaBetaSpec(alpha=0.3, depth=7))
        system = InteriorSystem(g)
        assert 1.0 <= system.condition_estimate < 1e8

    def test_condition_estimate_ignores_global_seed(self):
        # 127 interior vertices, past the dense cutoff of 64; with sibling
        # shortcuts a randomised estimate varies with the global seed.
        tree = generate_ab_tree(
            AlphaBetaSpec(alpha=0.3, depth=8, kappa2_per_level=(1.0, 0.5))
        )
        index = address_index(tree)
        siblings = [
            (v, index[p[:-1] + "b"], 0.5 ** len(p))
            for p, v in index.items() if p.endswith("a")
        ]
        g, _ = add_shortcut_edges(tree, siblings)
        estimates = set()
        for seed in range(5):
            np.random.seed(seed)
            estimates.add(InteriorSystem(g).condition_estimate)
        (estimate,) = estimates
        # A lower bound: ||A||_1 exact, ||A^-1||_1 estimated from below.
        exact = np.linalg.cond(InteriorSystem(g)._scaled.toarray(), 1)
        assert exact / 2 <= estimate <= exact * (1 + 1e-12)

    def test_empty_interior(self):
        # Every vertex is a boundary vertex: nothing is factored, and the
        # general path solves to empty arrays.
        g = interval(kappa2=2.0)
        system = InteriorSystem(g)
        for rhs in (np.zeros(0), np.zeros((0, 3))):
            x = system.solve(rhs)
            assert x.shape == rhs.shape and not x.any()
        rhs = system.rhs_for(np.array([1.0, -2.0]))
        assert rhs.shape == (0,) and rhs.dtype == float
        assert system.condition_estimate == 1.0
        a_bb = assemble(g).toarray()
        assert dn_matrix(g, system).matrix.tobytes() == a_bb.tobytes()

    def test_shared_factorization(self):
        g = star3()
        system = InteriorSystem(g)
        a = solve_dirichlet(g, {0: 1.0, 1: 0.0, 2: 0.0}, system=system)
        b = solve_dirichlet(g, {0: 0.0, 1: 1.0, 2: 0.0}, system=system)
        assert math.isclose(a.values[3], b.values[3], rel_tol=1e-14)


def _haar_dn(alpha, depth, root_length):
    """The DN matrix of a potential-free family truncation in closed form.

    Root first, then the leaves in address order.  With ``mu`` the current
    shares (``beta`` to an a-child, ``alpha`` to a b-child), the root mode
    ``v = (1, -mu)`` has eigenvalue ``y(n) / root_length``, and the Haar
    function of a depth-k vertex ``w``, ``alpha`` on its a-subtree and
    ``-beta`` on its b-subtree, is an eigenfunction with eigenvalue
    ``y(n - k - 1) / (root_length (alpha beta)**(k + 1))``: ``w`` stays at 0,
    as its two subtrees draw opposite currents.  ``y`` is the admittance
    recurrence ``y(1) = 1``, ``y(m + 1) = y(m) / (y(m) + alpha beta)``.
    """
    beta = 1.0 - alpha
    ab = alpha * beta
    y = [1.0]
    for _ in range(depth):
        y.append(y[-1] / (y[-1] + ab))
    leaves = depth - 1
    mu = np.ones(1)
    for _ in range(leaves):
        mu = np.multiply.outer(mu, (beta, alpha)).ravel()
    v = np.concatenate(([1.0], -mu))
    dn = y[depth - 1] / root_length * np.outer(v, v)
    for k in range(leaves):
        width = 2 ** (leaves - k)
        haar = np.where(np.arange(2**leaves) % width < width // 2, alpha, -beta) * mu
        lam = y[depth - k - 2] / (root_length * ab ** (k + 1))
        for w, rows in enumerate(haar.reshape(2**k, width)):
            block = slice(1 + w * width, 1 + (w + 1) * width)
            dn[block, block] += lam / (ab * mu[w * width:(w + 1) * width].sum()) * np.outer(
                rows, rows)
    return dn


@pytest.mark.parametrize("alpha", [1e-6, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.95, 0.999, 0.999999])
def test_dn_matrix_matches_haar_closed_form(alpha):
    # Each row of dn_matrix is within a few eps / min(alpha, beta) of its
    # absolute sum: a b-leaf's diagonal entry is beta times its terms, so
    # their rounding is 1 / beta times larger than the row (measured: at
    # most 1.03 of eps / min(alpha, beta) over these cases).  This is the
    # 1e-10 that `dn --alpha 0.999999` reads, and no fault of dn_matrix.
    eps = np.finfo(float).eps
    for depth in range(2, 9):
        for root_length in (1.0, 0.7):
            spec = AlphaBetaSpec(alpha=alpha, depth=depth, root_length=root_length)
            got = dn_matrix(generate_ab_tree(spec)).matrix
            reference = _haar_dn(alpha, depth, root_length)
            scale = np.abs(reference).sum(axis=1)
            bound = 8 * eps / min(alpha, 1.0 - alpha) * scale
            assert np.all(np.abs(got - reference).max(axis=1) <= bound)
