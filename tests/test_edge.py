import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphdn.edge import (
    ASYMPTOTIC_PRODUCT,
    SERIES_PRODUCT,
    edge_dn_block,
    edge_dn_blocks,
    edge_energies,
    edge_energy,
    edge_potential_weights,
    solve_edge,
)
from graphdn.errors import DomainError

from oracles import (
    fd_edge_block,
    fd_edge_midpoint,
    quad_energy,
    quad_potential_integral,
)

COTH1 = 1.3130352854993312
CSCH1 = 0.8509181282393216


class TestBlock:
    def test_zero_potential(self):
        b = edge_dn_block(1.0, 0.0)
        assert b.as_rows() == ((1.0, -1.0), (-1.0, 1.0))
        b2 = edge_dn_block(0.5, 0.0)
        assert b2.h_aa == 2.0 and b2.h_ab == -2.0

    def test_unit_potential_closed_form(self):
        b = edge_dn_block(1.0, 1.0)
        assert math.isclose(b.h_aa, COTH1, rel_tol=1e-14)
        assert math.isclose(b.h_ab, -CSCH1, rel_tol=1e-14)
        assert b.h_ab == b.h_ba

    def test_huge_product_no_overflow(self):
        b = edge_dn_block(1.0, 490000.0)  # kappa * l = 700
        assert b.h_aa == 700.0
        assert abs(b.h_ab) < 1e-300

    def test_series_branch_continuity(self):
        base = edge_dn_block(1.0, 0.0)
        near = edge_dn_block(1.0, 1e-9)
        assert abs(near.h_aa - base.h_aa) < 1e-7
        assert abs(near.h_ab - base.h_ab) < 1e-7

    @pytest.mark.parametrize("z", [SERIES_PRODUCT, ASYMPTOTIC_PRODUCT])
    def test_branch_crossover_agreement(self, z):
        length = 1.3
        kappa = z / length
        below = edge_dn_block(length, (kappa * (1 - 1e-12)) ** 2)
        above = edge_dn_block(length, (kappa * (1 + 1e-12)) ** 2)
        assert math.isclose(below.h_aa, above.h_aa, rel_tol=1e-11)
        assert abs(below.h_ab - above.h_ab) <= 1e-11 * abs(below.h_aa)

    def test_errors(self):
        with pytest.raises(DomainError):
            edge_dn_block(0.0, 1.0)
        with pytest.raises(DomainError):
            edge_dn_block(1.0, -1.0)

    @given(st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=1,
                    max_size=40))
    @example([1e-300, 1e300, 1.0, 0.3, 3.5e-11])
    @settings(max_examples=300, deadline=None)
    def test_zero_potential_is_the_conductance_bit_for_bit(self, lengths):
        # The series branch's numerators are exactly 1.0 at z = 0, so the
        # block is (1 / l, -(1 / l)); trees.cell_fluxes builds
        # potential-free blocks so.
        lengths = np.array(lengths)
        diag, off = edge_dn_blocks(lengths, 0.0)
        assert diag.tobytes() == (1.0 / lengths).tobytes()
        assert off.tobytes() == (-(1.0 / lengths)).tobytes()

    @given(
        st.floats(min_value=1e-4, max_value=10.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_symmetry_and_psd(self, length, kappa2):
        b = edge_dn_block(length, kappa2)
        assert b.h_ab == b.h_ba
        arr = np.array(b.as_rows())
        eig = np.linalg.eigvalsh(arr)
        assert eig.min() >= -1e-12 * max(1.0, abs(arr).max())
        if kappa2 == 0.0:
            assert abs(arr.sum(axis=1)).max() < 1e-12
        elif kappa2 * length * length > 1e-10:
            # strict definiteness is visible once z^2 clears roundoff
            assert eig.min() > 0.0

    def test_gradient_in_length(self):
        # guards the stable-branch algebra against sign slips
        h = 1e-6
        up = edge_dn_block(1.0 + h, 1.0).h_aa
        down = edge_dn_block(1.0 - h, 1.0).h_aa
        fd = (up - down) / (2 * h)
        # d/dl [k coth(k l)] = -k^2 csch^2(k l)
        exact = -1.0 / math.sinh(1.0) ** 2
        assert math.isclose(fd, exact, rel_tol=1e-6)

    def test_against_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            length = float(rng.uniform(0.5, 2.0))
            kappa2 = float(rng.uniform(0.0, 10.0))
            oracle = fd_edge_block(length, kappa2, n=40_000)
            ours = np.array(edge_dn_block(length, kappa2).as_rows())
            assert np.abs(oracle - ours).max() < 1e-6


class TestSolution:
    def test_linear(self):
        s = solve_edge(1.0, 0.0, 0.0, 1.0)
        assert s(0.5) == 0.5
        assert s.c0 == 0.0 and s.c1 == 1.0
        assert s.derivative(0.3) == 1.0

    def test_constant(self):
        s = solve_edge(1.0, 0.0, 3.0, 3.0)
        assert s(0.7) == 3.0
        assert edge_energy(s) == 0.0

    def test_hyperbolic_midpoint(self):
        s = solve_edge(1.0, 1.0, 0.0, 1.0)
        exact = math.sinh(0.5) / math.sinh(1.0)
        assert math.isclose(s(0.5), exact, rel_tol=1e-12)
        oracle = fd_edge_midpoint(1.0, 1.0, 0.0, 1.0, n=40_000)
        assert math.isclose(s(0.5), oracle, rel_tol=1e-7)

    @given(
        st.floats(min_value=1e-4, max_value=10.0),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_endpoint_reproduction(self, length, kappa2, ua, ub):
        s = solve_edge(length, kappa2, ua, ub)
        scale = max(1e-30, abs(ua), abs(ub))
        assert abs(s(0.0) - ua) <= 1e-13 * scale
        assert abs(s(length) - ub) <= 1e-13 * scale

    def test_endpoint_reproduction_extreme(self):
        s = solve_edge(1.0, 490000.0, 2.0, -3.0)
        assert s(0.0) == 2.0
        assert s(1.0) == -3.0
        assert abs(s(0.5)) < 1e-70  # deep interior decays

    def test_out_of_range(self):
        s = solve_edge(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            s(1.5)


class TestEnergy:
    def test_linear_unit(self):
        assert edge_energy(solve_edge(1.0, 0.0, 0.0, 1.0)) == 1.0

    def test_hyperbolic_equals_coth(self):
        s = solve_edge(1.0, 1.0, 0.0, 1.0)
        assert math.isclose(edge_energy(s), COTH1, rel_tol=1e-12)
        assert math.isclose(edge_energy(s), quad_energy(s), rel_tol=1e-9)

    def test_greens_identity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            length = float(rng.uniform(1e-3, 5.0))
            kappa2 = float(rng.uniform(0.0, 50.0))
            ua, ub = rng.uniform(-3, 3, size=2)
            s = solve_edge(length, kappa2, float(ua), float(ub))
            b = edge_dn_block(length, kappa2)
            form = (
                b.h_aa * ua * ua + 2.0 * b.h_ab * ua * ub + b.h_bb * ub * ub
            )
            energy = edge_energy(s)
            scale = max(abs(form), abs(energy), 1e-30)
            assert abs(form - energy) <= 1e-10 * scale
            assert energy >= 0.0

    def test_quadrature_oracle_random(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            length = float(rng.uniform(0.2, 3.0))
            kappa2 = float(rng.uniform(0.0, 8.0))
            ua, ub = rng.uniform(-2, 2, size=2)
            s = solve_edge(length, kappa2, float(ua), float(ub))
            assert math.isclose(
                edge_energy(s), quad_energy(s), rel_tol=1e-8, abs_tol=1e-12
            )


    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_series_branch_against_mpmath(self, sign):
        # Endpoint values nearly equal (sign 1) or nearly opposite (sign -1)
        # just below SERIES_PRODUCT: the energy is almost all tanh (or coth)
        # term, whose z**2 / 12 correction is about 1e-13 of it.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        worst = 0.0
        with mpmath.workdps(50):
            for _ in range(300):
                length = float(rng.uniform(0.1, 10.0))
                z = float(rng.uniform(1e-7, 1e-6))
                kappa2 = (z / length) ** 2
                ua = float(rng.uniform(-3.0, 3.0))
                ub = sign * ua * (1.0 + 1e-9)
                k, half = mpmath.sqrt(kappa2), mpmath.sqrt(kappa2) * length / 2
                exact = (
                    (mpmath.mpf(ua) - ub) ** 2 * k * mpmath.coth(half)
                    + (mpmath.mpf(ua) + ub) ** 2 * k * mpmath.tanh(half)
                ) / 2
                ours = edge_energy(solve_edge(length, kappa2, ua, ub))
                worst = max(worst, float(abs(ours - exact) / exact))
        assert worst <= 8 * np.finfo(float).eps

    def test_array_matches_scalar_on_every_branch(self):
        # kappa2 0 and 1e-14: series; 4: hyperbolic; 2.5e5 at length 2:
        # beyond ASYMPTOTIC_PRODUCT, where the block's off entry underflows.
        lengths = np.repeat([[0.5, 1.0, 2.0]], 4, axis=0).ravel()
        kappa2 = np.repeat([0.0, 1e-14, 4.0, 2.5e5], 3)
        rng = np.random.default_rng(12)
        ua, ub = rng.uniform(-2.0, 2.0, size=(2, len(lengths)))
        energies = edge_energies(lengths, kappa2, ua, ub)
        for i in range(len(lengths)):
            s = solve_edge(float(lengths[i]), float(kappa2[i]), ua[i], ub[i])
            assert energies[i] == edge_energy(s)


class TestExtremum:
    def test_linear_has_none(self):
        assert solve_edge(1.0, 0.0, 0.0, 1.0).interior_extremum() is None

    def test_symmetric_dip(self):
        s = solve_edge(2.0, 4.0, 1.0, 1.0)
        x_star, value = s.interior_extremum()
        assert math.isclose(x_star, 1.0, rel_tol=1e-12)
        assert math.isclose(value, 1.0 / math.cosh(2.0), rel_tol=1e-12)

    def test_monotone_has_none(self):
        s = solve_edge(1.0, 1.0, 0.0, 1.0)
        assert s.interior_extremum() is None


class TestPotentialWeights:
    @pytest.mark.parametrize(
        "length, kappa2",
        [(1.0, 1e-14), (0.3, 2e-13), (1.0, 4.0), (0.05, 9.0), (2.0, 30.0)],
    )
    def test_against_quadrature(self, length, kappa2):
        # int kappa2 u = w (uA + uB), here for uA = 1, uB = 0.5.
        w = float(edge_potential_weights(length, kappa2))
        exact = quad_potential_integral(solve_edge(length, kappa2, 1.0, 0.5))
        assert math.isclose(w * 1.5, exact, rel_tol=1e-10)

    def test_block_sum_and_branches(self):
        lengths = np.array([1.0, 0.5, 2.0, 1.0])
        kappa2 = np.array([0.0, 4.0, 9.0, 490000.0])
        w = edge_potential_weights(lengths, kappa2)
        diag, off = edge_dn_blocks(lengths, kappa2)
        assert w[0] == 0.0
        assert np.allclose(w[1:3], diag[1:3] + off[1:3], rtol=1e-14)
        assert w[3] == 700.0

    def test_each_branch_on_its_own_edges(self):
        # z = 1e154: the series, evaluated on this edge too, would overflow.
        assert float(edge_potential_weights(1.0, 1e308)) == math.sqrt(1e308)

    def test_series_branch_continuity(self):
        below = float(edge_potential_weights(1.0, (SERIES_PRODUCT * 0.999) ** 2))
        above = float(edge_potential_weights(1.0, (SERIES_PRODUCT * 1.001) ** 2))
        assert math.isclose(above / below, (1.001 / 0.999) ** 2, rel_tol=1e-12)


@pytest.mark.parametrize(
    "kappa2",
    [[1.0, 1e6], [0.0, 1e6], [0.0, 1.0], []],
    ids=["no-series", "no-middle", "no-flat", "no-edges"],
)
def test_blocks_with_an_empty_branch(kappa2):
    # Each branch is evaluated on its own edges, an empty one on none: every
    # edge's block is the one it has alone, bit for bit, with no warning.
    diag, off = edge_dn_blocks(np.ones(len(kappa2)), kappa2)
    assert diag.shape == off.shape == (len(kappa2),)
    for i, q in enumerate(kappa2):
        block = edge_dn_block(1.0, q)
        assert (diag[i], off[i]) == (block.h_aa, block.h_ab)


def test_overflowing_product_takes_the_flat_branch_quietly():
    # kappa * length overflows to inf, the flat branch's own input; the
    # suite turns the RuntimeWarning numpy would print into an error.
    diag, off = edge_dn_blocks(1e308, 1e308)
    assert (diag, off) == (1e154, 0.0) and math.copysign(1.0, off) == -1.0
    assert edge_potential_weights(1e308, 1e308) == 1e154
    assert edge_energies(1e308, 1e308, 1.0, 1.0) == 2e154
