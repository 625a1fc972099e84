import itertools
import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphdn import measure
from graphdn.dirichlet import current_balance, solve_dirichlet
from graphdn.errors import DomainError, ValidationError
from graphdn.graph import VertexMeta, address_of, build_graph
from graphdn.measure import (
    ClopenSet,
    SimpleBoundaryFunction,
    combine,
    dn_at_depth,
    dn_function,
    measure_table,
    quadratic_form,
    symmetry_residual,
)
from graphdn.trees import AlphaBetaSpec, cell_fluxes, generate_ab_tree

from oracles import resistance_flux

FAM5 = AlphaBetaSpec(alpha=0.5, depth=2)
FAM3 = AlphaBetaSpec(alpha=0.3, depth=2)

# Frozen from the resistance-network oracle (exact decimals for the
# potential-free problem with data 1 on the a-cylinder, 0 elsewhere):
#   alpha = 0.5: flux(a) = 0.9375,  flux(b) = -0.5625, flux(v0) = -0.375
#   alpha = 0.3: flux(a) = 1.1771,  flux(b) = -0.6241, flux(v0) = -0.553
EXACT = {
    0.5: {"a": 0.9375, "b": -0.5625, "v0": -0.375},
    0.3: {"a": 1.1771, "b": -0.6241, "v0": -0.553},
}


def indicator(family, prefix=None, include_root=False):
    if prefix is None:
        s = ClopenSet.root_vertex(family)
    else:
        s = ClopenSet(family, (prefix,), include_root)
    return SimpleBoundaryFunction.indicator(s)


class TestClopenSet:
    def test_sibling_merge(self):
        s = ClopenSet(FAM5, ("aa", "ab"))
        assert s.prefixes == ("a",)

    def test_nested_dropped(self):
        s = ClopenSet(FAM5, ("a", "ab"))
        assert s.prefixes == ("a",)

    def test_cascading_merge_to_whole(self):
        s = ClopenSet(FAM5, ("a", "ba", "bb"))
        assert s.prefixes == ("",)

    def test_equality_ignores_depth_field(self):
        deep = AlphaBetaSpec(alpha=0.5, depth=9)
        assert ClopenSet.cylinder(FAM5, "a") == ClopenSet.cylinder(deep, "a")
        assert hash(ClopenSet.cylinder(FAM5, "a")) == hash(
            ClopenSet.cylinder(deep, "a")
        )

    def test_complement(self):
        assert ClopenSet.cylinder(FAM5, "a").complement().prefixes == ("b",)
        comp = ClopenSet.cylinder(FAM5, "ab").complement()
        assert comp.prefixes == ("aa", "b")
        assert comp.include_root
        assert ClopenSet.whole_boundary(FAM5).complement().is_empty

    def test_disjointness(self):
        a = ClopenSet.cylinder(FAM5, "a")
        assert a.disjoint_from(ClopenSet.cylinder(FAM5, "b"))
        assert not a.disjoint_from(ClopenSet.cylinder(FAM5, "ab"))
        assert a.disjoint_from(ClopenSet.root_vertex(FAM5))

    def test_contains_cell(self):
        a = ClopenSet.cylinder(FAM5, "a")
        assert a.contains_cell("ab")
        assert not a.contains_cell("b")
        with pytest.raises(DomainError, match="straddles"):
            ClopenSet.cylinder(FAM5, "ab").contains_cell("a")

    def test_invalid_symbol(self):
        with pytest.raises(DomainError, match="symbol"):
            ClopenSet.cylinder(FAM5, "ac")

    def test_resolve(self):
        g = generate_ab_tree(AlphaBetaSpec(alpha=0.5, depth=3))
        whole = ClopenSet.whole_boundary(FAM5)
        assert whole.resolve(g) == g.boundary_vertices
        assert ClopenSet.root_vertex(FAM5).resolve(g) == (0,)

    def test_resolve_refuses_an_unaddressed_boundary_vertex(self):
        # Vertex 4 is a leaf with no metadata: resolve refuses it as
        # boundary_data does, rather than leave it out of the flux sum.
        meta = {0: VertexMeta(0), 1: VertexMeta(1, ""), 2: VertexMeta(2, "a"),
                3: VertexMeta(2, "b")}
        g = build_graph([(0, 1, 1.0), (1, 2, 0.5), (1, 3, 0.5), (1, 4, 0.5)], meta=meta)
        whole = ClopenSet.whole_boundary(FAM5)
        message = "^boundary vertex 4 carries no address$"
        with pytest.raises(DomainError, match=message):
            whole.resolve(g)
        with pytest.raises(DomainError, match=message):
            SimpleBoundaryFunction.indicator(whole).boundary_data(g)

    def test_flux_sums_cells(self):
        cells = np.array([1.0, 2.0, 4.0, 8.0])  # the depth-2 cells aa .. bb
        assert ClopenSet.cylinder(FAM3, "b").flux(cells, 16.0) == 12.0
        assert ClopenSet.cylinder(FAM3, "ab").flux(cells, 16.0) == 2.0
        assert ClopenSet.whole_boundary(FAM3).flux(cells, 16.0) == 31.0
        assert ClopenSet.root_vertex(FAM3).flux(cells[:1], 16.0) == 16.0

    @pytest.mark.parametrize("n", [0, 3, 5, 6])
    @pytest.mark.parametrize("prefixes", [("b",), ("",), ()])
    def test_flux_refuses_cells_not_of_one_depth(self, n, prefixes):
        s = ClopenSet(FAM3, prefixes, include_root=True)
        message = rf"^{n} cell fluxes .* depth M >= {s.cell_depth}, the set's"
        with pytest.raises(DomainError, match=message):
            s.flux(np.arange(1.0, n + 1.0), 5.0)

    def test_flux_refuses_cells_above_the_set(self):
        with pytest.raises(DomainError, match="^2 cell fluxes .* depth M >= 2"):
            ClopenSet.cylinder(FAM3, "ab").flux(np.ones(2), 0.0)


class TestSimpleBoundaryFunction:
    def test_overlap_rejected(self):
        with pytest.raises(ValidationError, match="overlap"):
            SimpleBoundaryFunction(
                (
                    (1.0, ClopenSet.cylinder(FAM5, "a")),
                    (2.0, ClopenSet.cylinder(FAM5, "aa")),
                )
            )

    def test_family_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="families"):
            SimpleBoundaryFunction(
                (
                    (1.0, ClopenSet.cylinder(FAM5, "a")),
                    (1.0, ClopenSet.cylinder(FAM3, "b")),
                )
            )

    def test_values(self):
        f = SimpleBoundaryFunction(
            (
                (2.0, ClopenSet.cylinder(FAM5, "a", include_root=True)),
                (-1.0, ClopenSet.cylinder(FAM5, "ba")),
            )
        )
        assert f.value_at_cell("aa") == 2.0
        assert f.value_at_cell("bab") == -1.0
        assert f.value_at_cell("bb") == 0.0
        assert f.root_value() == 2.0
        assert f.min_truncation_depth == 3

    def test_combine_refines_overlaps(self):
        f = indicator(FAM5, "a")
        g = indicator(FAM5, "")  # whole Cantor part
        h = combine([(1.0, f), (1.0, g)])
        assert h.value_at_cell("ab") == 2.0
        assert h.value_at_cell("bb") == 1.0
        assert h.root_value() == 0.0

    def test_boundary_data(self):
        graph = generate_ab_tree(AlphaBetaSpec(alpha=0.5, depth=3))
        f = indicator(FAM5, "a")
        data = f.boundary_data(graph)
        assert data[0] == 0.0
        assert sum(data.values()) == 2.0  # two depth-3 leaves under 'a'


class TestDnFunction:
    def test_constant_one_no_potential_vanishes(self):
        f = SimpleBoundaryFunction.indicator(ClopenSet.whole_boundary(FAM5))
        rep = dn_function(f, ClopenSet.cylinder(FAM5, "b"), tol=1e-9, n_max=7)
        assert all(abs(v) <= 1e-12 for v in rep.values)
        assert rep.converged

    def test_constant_one_with_potential_gives_charge(self):
        fam = AlphaBetaSpec(alpha=0.5, depth=2, kappa2_per_level=(1.0, 0.5))
        f = SimpleBoundaryFunction.indicator(ClopenSet.whole_boundary(fam))
        whole = ClopenSet.whole_boundary(fam)
        rep = dn_function(f, whole, tol=1e-7, n_max=10)
        assert all(v > 0.0 for v in rep.values)
        # flux through the whole boundary is the potential integral of u
        for depth, value in zip(rep.depths, rep.values):
            g = generate_ab_tree(
                AlphaBetaSpec(alpha=0.5, depth=depth, kappa2_per_level=(1.0, 0.5))
            )
            sol = solve_dirichlet(g, f.boundary_data(g))
            cb = current_balance(sol)
            assert math.isclose(value, cb.potential_integral, rel_tol=1e-9)

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_limits_match_resistance_oracle(self, alpha):
        fam = AlphaBetaSpec(alpha=alpha, depth=2)
        f = indicator(fam, "a")
        for key, target in (
            ("a", ClopenSet.cylinder(fam, "a")),
            ("b", ClopenSet.cylinder(fam, "b")),
            ("v0", ClopenSet.root_vertex(fam)),
        ):
            rep = dn_function(f, target, tol=1e-7, n_max=13)
            assert abs(rep.limit - EXACT[alpha][key]) < 5e-8
            assert abs(rep.extrapolated - EXACT[alpha][key]) < 1e-8

    def test_oracle_self_check(self):
        flux = resistance_flux(0.5, {"a": 1.0, "b": 0.0}, 0.0)
        assert math.isclose(flux["a"], 0.9375, abs_tol=1e-14)
        assert math.isclose(flux["b"], -0.5625, abs_tol=1e-12)
        assert math.isclose(flux["v0"], -0.375, abs_tol=1e-14)
        flux = resistance_flux(0.3, {"a": 1.0, "b": 0.0}, 0.0)
        assert math.isclose(flux["a"], 1.1771, abs_tol=1e-12)
        assert math.isclose(flux["b"], -0.6241, abs_tol=1e-12)
        assert math.isclose(flux["v0"], -0.553, abs_tol=1e-12)

    def test_linearity(self):
        f = indicator(FAM5, "a")
        g = indicator(FAM5, "b")
        fg = combine([(2.0, f), (-3.0, g)])
        e = ClopenSet.cylinder(FAM5, "ab")
        depth = 7
        left = dn_at_depth(fg, e, depth)
        right = 2.0 * dn_at_depth(f, e, depth) - 3.0 * dn_at_depth(g, e, depth)
        assert abs(left - right) <= 1e-10 * max(1.0, abs(left))

    def test_family_mismatch(self):
        with pytest.raises(ValidationError, match="families"):
            dn_function(
                indicator(FAM5, "a"), ClopenSet.cylinder(FAM3, "b"),
                tol=1e-6, n_max=6,
            )

    def test_empty_set_reads_zero(self):
        rep = dn_function(indicator(FAM5, "a"), ClopenSet(FAM5, ()), tol=1e-6, n_max=5)
        assert rep.values == (0.0,) * 4 and rep.converged

    def test_nonconvergence_is_data(self):
        rep = dn_function(
            indicator(FAM5, "a"), ClopenSet.cylinder(FAM5, "b"),
            tol=1e-300, n_max=6,
        )
        assert not rep.converged
        assert len(rep.residuals) == len(rep.values) - 1

    @staticmethod
    def _traced_peak(family):
        # 2**10 distinct values on the depth-10 cells, read to depth 16.
        import tracemalloc

        cells = np.arange(2**10)
        f = measure.combine([(1.0 + i / len(cells), SimpleBoundaryFunction.indicator(
            ClopenSet(family, (address_of(1024 + i),)))) for i in cells])
        assert len(np.unique(f.cell_values())) == len(cells)
        e = ClopenSet.cylinder(family, "a")
        tracemalloc.start()
        try:
            dn_function(f, e, tol=1e-8, n_max=16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_distinct_values_need_no_row_each(self):
        # Without a potential F enters through its Haar modes: 0.04 MB
        # traced, where a row per distinct value traced 4.5 MB.
        assert self._traced_peak(FAM5) <= 2**20

    def test_distinct_values_over_a_potential_need_no_row_each(self):
        # With a potential on level 12, below the cells, each cell's transfer
        # is swept on its own subtree's classes: 0.5 MB traced, where a row
        # per distinct value traced 3.1 MB.
        family = AlphaBetaSpec(alpha=0.5, depth=2, kappa2_per_level=(0.0,) * 11 + (4.0,))
        assert self._traced_peak(family) <= 2**20

    def test_depth_guards(self):
        f = indicator(FAM5, "ab")
        with pytest.raises(DomainError, match="n_max"):
            dn_function(f, ClopenSet.cylinder(FAM5, "b"), tol=1e-6, n_max=2)
        with pytest.raises(DomainError, match="shallow"):
            dn_at_depth(f, ClopenSet.cylinder(FAM5, "b"), 2)
        with pytest.raises(DomainError, match="tolerance"):
            dn_function(f, ClopenSet.cylinder(FAM5, "b"), tol=math.inf, n_max=6)
        with pytest.raises(DomainError, match="tolerance"):
            measure_table(f, partition_depth=1, tol=math.nan, n_max=6)


class TestSymmetry:
    def test_identical_sets_exact_zero(self):
        a = ClopenSet.cylinder(FAM5, "a")
        assert symmetry_residual(a, a, 6) == 0.0

    @pytest.mark.parametrize("depth", [3, 5, 8])
    def test_disjoint_cylinders(self, depth):
        a = ClopenSet.cylinder(FAM5, "a")
        b = ClopenSet.cylinder(FAM5, "b")
        scale = abs(dn_at_depth(SimpleBoundaryFunction.indicator(a), b, depth))
        assert symmetry_residual(a, b, depth) <= 1e-9 * max(1.0, scale)

    def test_complement_pair(self):
        a = ClopenSet.cylinder(FAM3, "ab")
        c = a.complement()
        assert symmetry_residual(a, c, 8) <= 1e-9

    def test_overlapping_sets(self):
        a = ClopenSet.cylinder(FAM5, "a")
        deep = ClopenSet.cylinder(FAM5, "ab", include_root=True)
        assert symmetry_residual(a, deep, 7) <= 1e-9


class TestMeasureTable:
    def test_one_solve_per_depth(self, monkeypatch):
        calls = []

        def counting_kernel(family, cell_values, root_value, depths, cell_depth):
            calls.append((len(cell_values), cell_depth, list(depths)))
            return cell_fluxes(family, cell_values, root_value, depths, cell_depth)

        monkeypatch.setattr(measure, "cell_fluxes", counting_kernel)
        measure_table(indicator(FAM3, "a"), partition_depth=2, tol=1e-6, n_max=7)
        assert calls == [(2, 2, [3, 4, 5, 6, 7])]

    def test_depths_checked_before_cells_are_built(self, monkeypatch):
        # A partition too deep for n_max is refused before its 2**16 cells
        # are enumerated.
        def refuse(family, k, depth):
            raise AssertionError(f"depth-{depth} cells enumerated")

        monkeypatch.setattr(measure, "_cell", refuse)
        with pytest.raises(DomainError, match="below the starting depth 17"):
            measure_table(indicator(FAM3, "a"), partition_depth=16, tol=1e-6, n_max=12)
        with pytest.raises(DomainError, match="n_min 4 too shallow"):
            measure_table(indicator(FAM3, "a"), partition_depth=5, tol=1e-6, n_max=12,
                          n_min=4)

    @pytest.mark.parametrize("partition_depth", range(1, 11))
    def test_cells_are_their_cylinders(self, partition_depth):
        # Each cell is built from its index, not parsed from its prefix.
        table = measure_table(indicator(FAM3, "a"), partition_depth, tol=1e-6,
                              n_max=partition_depth + 1)
        *cells, root = table.cells
        assert len(cells) == 2**partition_depth
        assert root == ClopenSet.root_vertex(FAM3) and root.label() == "v0"
        for k, cell in enumerate(cells):
            bits = format(k, f"0{partition_depth}b")
            expected = ClopenSet.cylinder(FAM3, bits.translate(str.maketrans("01", "ab")))
            assert cell == expected and hash(cell) == hash(expected)
            assert (cell.prefixes, cell.spans, cell.cell_depth, cell.include_root,
                    cell.label()) == (expected.prefixes, expected.spans,
                                      expected.cell_depth, expected.include_root,
                                      expected.label())

    def test_zero_function_gives_zero_cells(self):
        f = SimpleBoundaryFunction.indicator(ClopenSet.whole_boundary(FAM5))
        table = measure_table(f, partition_depth=2, tol=1e-8, n_max=8)
        assert all(abs(v) <= 1e-12 for v in table.values)

    @pytest.mark.parametrize("partition_depth", [1, 2, 3])
    def test_additivity(self, partition_depth):
        f = indicator(FAM3, "a")
        table = measure_table(f, partition_depth, tol=1e-6, n_max=10)
        scale = max(1.0, max(abs(v) for v in table.values))
        assert table.additivity_residual <= 1e-9 * scale
        assert math.isclose(
            table.signed_total,
            table.positive_total + table.negative_total,
            rel_tol=1e-12,
            abs_tol=1e-12,
        )

    def test_sign_pattern(self):
        f = indicator(FAM5, "a")
        table = measure_table(f, partition_depth=2, tol=1e-6, n_max=10)
        for cell, value in zip(table.cells, table.values):
            inside = cell.prefixes and all(p.startswith("a") for p in cell.prefixes)
            if inside:
                assert value > 0.0
            else:
                assert value < 0.0  # potential vanishes near the boundary

    def test_cell_values_match_refined_oracle(self):
        f = indicator(FAM5, "a")
        table = measure_table(f, partition_depth=2, tol=1e-6, n_max=13)
        oracle = resistance_flux(
            0.5, {"aa": 1.0, "ab": 1.0, "ba": 0.0, "bb": 0.0}, 0.0
        )
        got = dict(zip(table.labels(), table.values))
        assert abs(got["@aa"] - oracle["aa"]) < 1e-7
        assert abs(got["@ba"] - oracle["ba"]) < 1e-7
        assert abs(got["v0"] - oracle["v0"]) < 1e-7

    @pytest.mark.parametrize("alpha", [0.25, 0.35, 0.45])
    def test_depth_14_cells_match_oracle(self, alpha):
        # Depth-14 truncation error is about 1.3e-9 on these cells; summing
        # leaf fluxes instead put them up to 3.8e-8 off.
        fam = AlphaBetaSpec(alpha=alpha, depth=2)
        table = measure_table(indicator(fam, "a"), partition_depth=5, tol=1e-6,
                              n_max=14)
        cells = [c.prefixes[0] for c in table.cells[:-1]]
        oracle = resistance_flux(
            alpha, {c: 1.0 if c.startswith("a") else 0.0 for c in cells}, 0.0
        )
        for key, value in zip(cells + ["v0"], table.values):
            assert abs(value - oracle[key]) < 5e-9

    def test_refinement_consistency(self):
        f = indicator(FAM3, "a")
        depth = 9
        parent = dn_at_depth(f, ClopenSet.cylinder(FAM3, "b"), depth)
        kids = dn_at_depth(f, ClopenSet.cylinder(FAM3, "ba"), depth) + dn_at_depth(
            f, ClopenSet.cylinder(FAM3, "bb"), depth
        )
        assert abs(parent - kids) <= 1e-8 * max(1.0, abs(parent))


class TestQuadraticForm:
    def test_constant_no_potential(self):
        f = SimpleBoundaryFunction.indicator(ClopenSet.whole_boundary(FAM5))
        assert abs(quadratic_form(f, 6)) <= 1e-12

    def test_scaling(self):
        f = indicator(FAM5, "a")
        f2 = combine([(2.0, f)])
        assert math.isclose(
            quadratic_form(f2, 7), 4.0 * quadratic_form(f, 7), rel_tol=1e-12
        )

    def test_equals_energy_and_double_sum(self):
        f = combine([(1.0, indicator(FAM5, "a")), (-1.0, indicator(FAM5, "b"))])
        depth = 8
        value = quadratic_form(f, depth)
        g = generate_ab_tree(AlphaBetaSpec(alpha=0.5, depth=depth))
        sol = solve_dirichlet(g, f.boundary_data(g))
        assert math.isclose(value, sol.energy, rel_tol=1e-8)
        double = 0.0
        for ci, si in f.terms:
            for cj, sj in f.terms:
                double += ci * cj * dn_at_depth(
                    SimpleBoundaryFunction.indicator(si), sj, depth
                )
        assert math.isclose(value, double, rel_tol=1e-10)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            coefs = rng.uniform(-2, 2, size=4)
            cells = ["aa", "ab", "ba", "bb"]
            terms = tuple(
                (float(c), ClopenSet.cylinder(FAM3, cell))
                for c, cell in zip(coefs, cells)
            )
            f = SimpleBoundaryFunction(terms)
            value = quadratic_form(f, 6)
            assert value >= -1e-10 * max(1.0, abs(value))


# Brute-force reference for the clopen-set algebra: a set is its frozenset
# of depth-REF_DEPTH cells (indices in address order) plus the root flag.
REF_DEPTH = 8
REF_ADDRESSES = ["".join(t) for t in itertools.product("ab", repeat=REF_DEPTH)]
REF_PREFIXES = [
    "".join(t) for k in range(REF_DEPTH + 1) for t in itertools.product("ab", repeat=k)
]
REF_CYLINDER = {
    q: frozenset(i for i, a in enumerate(REF_ADDRESSES) if a.startswith(q))
    for q in REF_PREFIXES
}
REF_ALL = REF_CYLINDER[""]

PREFIX_LISTS = st.lists(st.text("ab", max_size=REF_DEPTH), max_size=6)
REF_SETS = st.tuples(PREFIX_LISTS, st.booleans())
COEFFICIENTS = st.sampled_from(
    [1.0, -1.0, 0.5, 2.0, -0.0, 0.0, 0.1, 0.2, 0.3, -0.3, 1e-3, 3.0]
)


def ref_cells(prefixes):
    return frozenset().union(*(REF_CYLINDER[p] for p in prefixes))


def ref_canonical(cells):
    """The maximal cylinders inside the cells, in string order."""
    return tuple(sorted(
        q for q in REF_PREFIXES
        if REF_CYLINDER[q] <= cells and not (q and REF_CYLINDER[q[:-1]] <= cells)
    ))


def ref_label(prefixes, root):
    parts = [f"@{p}" for p in prefixes] + (["v0"] if root else [])
    return "+".join(parts) if parts else "empty"


def ref_combine(pairs):
    """Terms of the linear combination of (values, root) functions.

    Each cell's value is a scalar sum over the pairs in order; the terms are
    the nonzero values in ascending order, the root joining the term of its
    own value.
    """
    values = [sum(a * f[0][k] for a, f in pairs) for k in range(len(REF_ALL))]
    root = whole_root = sum(a * f[1] for a, f in pairs)
    by_value = {}
    for k, value in enumerate(values):
        if value != 0.0:
            by_value.setdefault(value, set()).add(k)
    terms = []
    for value in sorted(by_value):
        with_root = value == root and root != 0.0
        terms.append((value, ref_canonical(frozenset(by_value[value])), with_root))
        if with_root:
            root = 0.0
    if root != 0.0:
        terms.append((root, (), True))
    if not terms:
        terms.append((0.0, ("",), False))
    return terms, (values, whole_root)


# Truncations of depths 1 .. REF_DEPTH + 1: their leaves head the cells of
# depths 0 .. REF_DEPTH.
REF_TREES = {
    n: generate_ab_tree(AlphaBetaSpec(alpha=0.3, depth=n)) for n in range(1, REF_DEPTH + 2)
}


def ref_leaves(depth):
    """The depth's boundary vertices with their addresses, None for the root."""
    g = REF_TREES[depth]
    codes = g.address_codes[list(g.boundary_vertices)].tolist()
    return [(v, address_of(c)) for v, c in zip(g.boundary_vertices, codes)]


def ref_holds(cells, address):
    """Whether the address's cell lies in the cells; a straddle's message."""
    cell = REF_CYLINDER[address]
    if cell <= cells or not cell & cells:
        return cell <= cells
    first = next(q for q in ref_canonical(cells) if q.startswith(address))
    return f"cell {address!r} straddles prefix {first!r}; refine the truncation"


def ref_indicator(cells, root):
    return [1.0 if k in cells else 0.0 for k in range(len(REF_ALL))], 1.0 if root else 0


def terms_of(f):
    return [(c, s.prefixes, s.include_root) for c, s in f.terms]


def as_reprs(terms):
    return [(repr(c), prefixes, root) for c, prefixes, root in terms]


class TestAgainstBruteForce:
    @given(first=REF_SETS, second=REF_SETS)
    @settings(max_examples=150, deadline=None)
    def test_sets(self, first, second):
        (p, root), (q, other_root) = first, second
        s, t = ClopenSet(FAM3, p, root), ClopenSet(FAM3, q, other_root)
        cells, other = ref_cells(p), ref_cells(q)
        assert s.prefixes == ref_canonical(cells)
        assert s.label() == ref_label(s.prefixes, root)
        c = s.complement()
        assert (c.prefixes, c.include_root) == (ref_canonical(REF_ALL - cells), not root)
        disjoint = not (cells & other) and not (root and other_root)
        assert s.disjoint_from(t) == t.disjoint_from(s) == disjoint
        # The same cells given cell by cell make an equal set.
        by_cell = ClopenSet(FAM3, [REF_ADDRESSES[k] for k in cells], root)
        assert by_cell == s and hash(by_cell) == hash(s)
        assert (s == t) == (cells == other and root == other_root)

    @given(terms=st.lists(st.tuples(COEFFICIENTS, REF_SETS), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_functions(self, terms):
        sets = [(ref_cells(p), root) for _, (p, root) in terms]
        clashes = [
            (i, j)
            for i, j in itertools.combinations(range(len(sets)), 2)
            if sets[i][0] & sets[j][0] or sets[i][1] and sets[j][1]
        ]
        built = [(c, ClopenSet(FAM3, p, root)) for c, (p, root) in terms]
        if clashes:
            i, j = clashes[0]
            with pytest.raises(ValidationError, match=f"^terms {i} and {j} overlap: "):
                SimpleBoundaryFunction(built)
            return
        f = SimpleBoundaryFunction(built)
        depth = f.cell_depth
        coefficients = [c for c, _ in terms]
        expected = [
            sum(c for c, (cells, _) in zip(coefficients, sets)
                if (k << (REF_DEPTH - depth)) in cells)
            for k in range(2**depth)
        ]
        # Bit for bit: a -0.0 coefficient gives 0.0, as a scalar sum does.
        assert [repr(x) for x in f.cell_values().tolist()] == [
            repr(float(x)) for x in expected
        ]

    @given(
        pairs=st.lists(st.tuples(COEFFICIENTS, REF_SETS), min_size=1, max_size=4),
        outer=st.tuples(COEFFICIENTS, COEFFICIENTS, REF_SETS),
    )
    @settings(max_examples=150, deadline=None)
    def test_combine(self, pairs, outer):
        functions = [
            (a, SimpleBoundaryFunction.indicator(ClopenSet(FAM3, p, root)),
             ref_indicator(ref_cells(p), root))
            for a, (p, root) in pairs
        ]
        f = combine([(a, g) for a, g, _ in functions])
        expected, ref_f = ref_combine([(a, r) for a, _, r in functions])
        assert as_reprs(terms_of(f)) == as_reprs(expected)
        assert f.label() == " + ".join(
            f"{c:g}*{ref_label(p, root)}" for c, p, root in expected
        )
        # Combining a combination refines it again.
        b, c, (p, root) = outer
        extra = SimpleBoundaryFunction.indicator(ClopenSet(FAM3, p, root))
        g = combine([(b, f), (c, extra)])
        expected, _ = ref_combine([(b, ref_f), (c, ref_indicator(ref_cells(p), root))])
        assert as_reprs(terms_of(g)) == as_reprs(expected)


    @given(first=REF_SETS, depth=st.integers(1, REF_DEPTH + 1))
    @example(first=(["ab"], False), depth=2)  # the leaf @a straddles @ab
    @settings(max_examples=150, deadline=None)
    def test_graph_readers(self, first, depth):
        p, root = first
        s, cells = ClopenSet(FAM3, p, root), ref_cells(p)
        inside, straddles = [], []
        for v, address in ref_leaves(depth):
            held = root if address is None else ref_holds(cells, address)
            if isinstance(held, str):
                straddles.append(held)
                with pytest.raises(DomainError, match=f"^{re.escape(held)}$"):
                    s.contains_cell(address)
                continue
            if address is not None:
                assert s.contains_cell(address) is held
            if held:
                inside.append(v)
        if straddles:
            with pytest.raises(DomainError, match=f"^{re.escape(straddles[0])}$"):
                s.resolve(REF_TREES[depth])
        else:
            assert s.resolve(REF_TREES[depth]) == tuple(inside)

    @given(terms=st.lists(st.tuples(COEFFICIENTS, REF_SETS), min_size=1, max_size=4),
           depth=st.integers(1, REF_DEPTH + 1))
    @settings(max_examples=150, deadline=None)
    def test_function_readers(self, terms, depth):
        # Each term keeps only the cells no earlier term holds, so the terms
        # are disjoint; each is given cell by cell.
        taken, taken_root, built = frozenset(), False, []
        for c, (p, root) in terms:
            cells, root = ref_cells(p) - taken, root and not taken_root
            taken, taken_root = taken | cells, taken_root or root
            built.append((c, cells, root))
        f = SimpleBoundaryFunction(tuple(
            (c, ClopenSet(FAM3, [REF_ADDRESSES[k] for k in cells], root))
            for c, cells, root in built
        ))
        root_value = sum((c for c, _, root in built if root), 0.0)
        assert repr(f.root_value()) == repr(root_value)
        data, refusal = {}, None
        for v, address in ref_leaves(depth):
            if address is None:
                data[v] = root_value
                continue
            held = [ref_holds(cells, address) for _, cells, _ in built]
            message = next((h for h in held if isinstance(h, str)), None)
            if message is not None:
                refusal = refusal or message
                with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                    f.value_at_cell(address)
                continue
            # Bit for bit, and a float where no term holds the cell.
            data[v] = sum((c for (c, _, _), h in zip(built, held) if h), 0.0)
            assert repr(f.value_at_cell(address)) == repr(data[v])
        if refusal is not None:
            with pytest.raises(DomainError, match=f"^{re.escape(refusal)}$"):
                f.boundary_data(REF_TREES[depth])
        else:
            got = f.boundary_data(REF_TREES[depth])
            assert {v: repr(x) for v, x in got.items()} == {v: repr(x) for v, x in data.items()}


class TestAddressCost:
    def test_many_cell_set_budget(self):
        cells = ["b" + "".join(t) for t in itertools.product("ab", repeat=15)]
        start = time.perf_counter()
        s = ClopenSet(FAM3, cells)
        assert time.perf_counter() - start < 1.0
        assert s.prefixes == ("b",)


class TestNonFiniteCoefficients:
    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_refused_and_named(self, c):
        a = ClopenSet.cylinder(FAM3, "a")
        with pytest.raises(ValidationError, match=f"non-finite coefficient {c!r} in term 1"):
            SimpleBoundaryFunction(((1.0, ClopenSet.cylinder(FAM3, "b")), (c, a)))
        with pytest.raises(ValidationError, match=f"non-finite coefficient {c!r} in term 1"):
            combine([(2.0, indicator(FAM3, "b")), (c, indicator(FAM3, "a"))])
