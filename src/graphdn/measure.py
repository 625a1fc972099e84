"""Boundary flux functionals on clopen sets of the ideal tree boundary.

The ideal boundary of an infinite binary scaling tree is a Cantor set of
descending paths together with the isolated root boundary vertex.  Its
clopen subsets are finite unions of address-prefix cylinders, optionally
including the root vertex.  For a simple boundary function F (a finite
linear combination of clopen indicators) and a clopen set E, the flux
functional is approximated by exhaustion: solve the Dirichlet problem on
the depth-n truncation with boundary data read off from F, sum the outward
boundary derivatives over the vertices whose cells lie in E, and track the
sequence over n.  Convergence of the sequence is reported as data, never
raised.  Every truncation depth of one call is solved at once by the
exhaustion kernel of :mod:`graphdn.trees`, with no truncation built as a
metric graph and no leaf visited: :func:`dn_function` and
:func:`dn_at_depth` read E per canonical prefix, from F's Haar modes and
its ``mu`` share of the flux through the coarse cell that holds it, so
E's depth costs nothing; :func:`measure_table` and :func:`quadratic_form`
read the cells of :func:`graphdn.trees.cell_fluxes` the same way.

A set is its spans: the sorted, merged ``[lo, hi)`` index intervals of its
cells of depth d, the coarsest that holds every bound, built once from the
given prefixes (each one :func:`graphdn.trees.cylinder_slice`,
O(P log P + P*d) for P of them) or from cells.  Every read works on them:
the canonical prefixes are their maximal aligned dyadic blocks, the
complement their gaps, disjointness one sweep, and a cell lies in, outside
or across a set by one bisection.  :func:`combine` adds its pairs' terms
into the 2^d cells and groups them by value with one stable sort,
O(2^d log 2^d); no address string is parsed.

Finite truncations satisfy the structural identities exactly up to solver
error: the functional is symmetric in (F-set, E), additive over partitions
of E, and its diagonal quadratic form is the solution energy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, combinations, groupby
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .graph import address_of
from .trees import (
    MAX_SWEEP_EDGES,
    AlphaBetaSpec,
    _address_codes,
    _check_cell_depth,
    _exhaustion,
    cell_fluxes,
    cylinder_slice,
)

__all__ = [
    "ClopenSet",
    "SimpleBoundaryFunction",
    "ConvergenceReport",
    "MeasureTable",
    "combine",
    "dn_at_depth",
    "dn_function",
    "measure_table",
    "symmetry_residual",
    "quadratic_form",
]

# Convergence is declared once this many trailing first differences sit
# below the tolerance.  Tunable in one place.
CONSECUTIVE_BELOW_TOL = 3


def _intervals(prefixes: Iterable[str], depth: int) -> list[list[int]]:
    """The prefixes' depth-``depth`` cells as sorted, merged ``[lo, hi)``."""
    merged: list[list[int]] = []
    for lo, hi in sorted((s.start, s.stop) for p in prefixes
                         for s in [cylinder_slice(p, depth + 1)]):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return merged


def _blocks(intervals: Iterable[Sequence[int]], depth: int):
    """The maximal cylinders inside the intervals, in address order, each as
    ``(index, length)``: the cell ``index`` of depth ``length``."""
    for lo, hi in intervals:
        while lo < hi:
            # The largest block that starts aligned at lo and ends by hi.
            align = (lo & -lo or 1 << depth).bit_length()
            shift = min(align, (hi - lo).bit_length()) - 1
            yield lo >> shift, depth - shift
            lo += 1 << shift


def _prefixes(intervals: Iterable[Sequence[int]], depth: int) -> tuple[str, ...]:
    """The maximal cylinders inside the intervals, in address order."""
    # An address code is a marker bit, then one bit per symbol.
    return tuple(address_of(i | 1 << n) for i, n in _blocks(intervals, depth))


def _overlap(sets: Sequence["ClopenSet"]) -> bool:
    """Whether two of these sets meet, by one sweep over their spans."""
    if sum(s.include_root for s in sets) > 1:
        return True
    depth = max(s.cell_depth for s in sets)
    # A set's own spans never meet, so only neighbours in order can.
    spans = sorted((lo << k, hi << k) for s in sets for k in [depth - s.cell_depth]
                   for lo, hi in s.spans)
    return any(lo < end for (_, end), (lo, _) in zip(spans, spans[1:]))


@dataclass(frozen=True, eq=False)
class ClopenSet:
    """A clopen subset of the ideal boundary of one tree family.

    Held as ``spans``, the merged ``[lo, hi)`` intervals of its cells of the
    coarsest depth ``cell_depth``, plus a flag for the isolated root boundary
    vertex; ``prefixes`` is the canonical antichain made from them.  Equality
    and hashing use the cells and the family identity, not truncation depth.
    """

    family: AlphaBetaSpec
    prefixes: tuple[str, ...]
    include_root: bool = False
    cell_depth: int = field(init=False)
    spans: tuple[tuple[int, int], ...] = field(init=False, repr=False)

    def __post_init__(self):
        given = tuple(self.prefixes)
        depth = max(map(len, given), default=0)
        self._hold(_intervals(given, depth), depth)

    def _hold(self, spans: Sequence[Sequence[int]], depth: int) -> None:
        """Keep sorted, merged depth-``depth`` spans at the coarsest depth."""
        # 2**shift, the largest power of two dividing every bound, is how many
        # of these cells make one of the coarsest.
        shift = math.gcd(1 << depth, *chain.from_iterable(spans)).bit_length() - 1
        spans = tuple((lo >> shift, hi >> shift) for lo, hi in spans)
        object.__setattr__(self, "cell_depth", depth - shift)
        object.__setattr__(self, "spans", spans)
        object.__setattr__(self, "prefixes", _prefixes(spans, depth - shift))

    @classmethod
    def cylinder(
        cls, family: AlphaBetaSpec, prefix: str, include_root: bool = False
    ) -> "ClopenSet":
        return cls(family, (prefix,), include_root)

    @classmethod
    def whole_boundary(cls, family: AlphaBetaSpec) -> "ClopenSet":
        return cls(family, ("",), include_root=True)

    @classmethod
    def cantor_part(cls, family: AlphaBetaSpec) -> "ClopenSet":
        """All descending paths, without the root boundary vertex."""
        return cls(family, ("",), include_root=False)

    @classmethod
    def root_vertex(cls, family: AlphaBetaSpec) -> "ClopenSet":
        return cls(family, (), include_root=True)

    def _key(self) -> tuple:
        return (self.family.family_key(), self.cell_depth, self.spans,
                self.include_root)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClopenSet):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def is_empty(self) -> bool:
        return not self.spans and not self.include_root

    def complement(self) -> "ClopenSet":
        bounds = [0, *chain.from_iterable(self.spans), 2**self.cell_depth]
        gaps = [(lo, hi) for lo, hi in zip(bounds[::2], bounds[1::2]) if lo < hi]
        return _of_cells(self.family, gaps, self.cell_depth, not self.include_root)

    def disjoint_from(self, other: "ClopenSet") -> bool:
        return not _overlap((self, other))

    def contains_cell(self, address: str) -> bool:
        """Whether the depth cell headed by ``address`` lies in the set.

        Raises when a set prefix strictly extends the address, i.e. the cell
        straddles the set and a deeper truncation is required.
        """
        depth = max(len(address), self.cell_depth)
        cell, shift = cylinder_slice(address, depth + 1), depth - self.cell_depth
        # The first span that ends after the cell starts, at the cell's depth.
        i = bisect_right(self.spans, cell.start >> shift, key=lambda span: span[1])
        lo, hi = (b << shift for b in self.spans[i]) if i < len(self.spans) else (0, 0)
        if lo <= cell.start and cell.stop <= hi:
            return True
        if cell.start < hi and lo < cell.stop:
            inside = _prefixes([(max(lo, cell.start), min(hi, cell.stop))], depth)
            raise DomainError(
                f"cell {address!r} straddles prefix {inside[0]!r}; "
                "refine the truncation"
            )
        return False

    @property
    def min_truncation_depth(self) -> int:
        return max(2, self.cell_depth + 1)

    def resolve(self, graph) -> tuple[int, ...]:
        """Boundary vertices of a truncation graph whose cells lie in the set.

        The root boundary vertex is one when ``include_root`` is set; a cell
        that straddles the set is refused, as :meth:`contains_cell` does.
        """
        ends = graph.boundary_vertices
        codes = _address_codes(graph)[list(ends)].tolist()
        for v, c in zip(ends, codes):
            if c < 0:
                raise DomainError(f"boundary vertex {v} carries no address")
        if self.include_root and 0 not in codes:
            raise DomainError("graph has no root boundary vertex")
        return tuple(v for v, c in zip(ends, codes)
                     if (self.include_root if c == 0 else
                         self.contains_cell(address_of(c))))

    def flux(self, cells: np.ndarray, root: float) -> float:
        """Outward flux of one truncation through the set.

        ``cells`` are the fluxes through the depth-``M`` cells in address
        order, ``M >= cell_depth`` (a row of :func:`graphdn.trees.cell_fluxes`,
        or a level solution's ``leaf_flux``), and ``root`` the root flux.
        Refuses any other number of cells.
        """
        cells = np.asarray(cells)
        n = cells.shape[-1]
        if n & (n - 1) or n < 1 << self.cell_depth:
            raise DomainError(
                f"{n} cell fluxes are not the 2**M cells of a depth M >= "
                f"{self.cell_depth}, the set's cell depth"
            )
        depth = n.bit_length()
        total = root if self.include_root else 0.0
        # One sum per canonical block: a sum per span would round differently.
        for p in self.prefixes:
            total = total + cells[cylinder_slice(p, depth)].sum()
        return float(total)

    def label(self) -> str:
        parts = [f"@{p}" for p in self.prefixes]
        if self.include_root:
            parts.append("v0")
        return "+".join(parts) if parts else "empty"


def _of_cells(family, spans, depth: int, include_root: bool = False) -> ClopenSet:
    """The set of sorted, merged depth-``depth`` spans; no prefix is parsed."""
    s = object.__new__(ClopenSet)
    object.__setattr__(s, "family", family)
    object.__setattr__(s, "include_root", include_root)
    s._hold(spans, depth)
    return s


def _cell(family, k: int, depth: int) -> ClopenSet:
    """The depth-``depth`` cylinder of cell ``k``, built from its index."""
    s = object.__new__(ClopenSet)
    for name, value in (("family", family), ("include_root", False),
                        ("cell_depth", depth), ("spans", ((k, k + 1),)),
                        ("prefixes", (address_of(k | 1 << depth),))):
        object.__setattr__(s, name, value)
    return s


def _check_coefficient(c: float, where: str) -> None:
    if not math.isfinite(c):
        raise ValidationError(f"non-finite coefficient {c!r} in {where}")


def _check_same_family(a: AlphaBetaSpec, b: AlphaBetaSpec) -> None:
    if a.family_key() != b.family_key():
        raise ValidationError(
            "clopen sets belong to different tree families: "
            f"{a.family_key()} vs {b.family_key()}"
        )


@dataclass(frozen=True)
class SimpleBoundaryFunction:
    """Finite linear combination of indicators of pairwise disjoint sets."""

    terms: tuple[tuple[float, ClopenSet], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "terms", tuple((float(c), s) for c, s in self.terms)
        )
        if not self.terms:
            raise ValidationError("a simple boundary function needs >= 1 term")
        for i, (c, _) in enumerate(self.terms):
            _check_coefficient(c, f"term {i}")
        family = self.terms[0][1].family
        for _, s in self.terms[1:]:
            _check_same_family(family, s.family)
        sets = [s for _, s in self.terms]
        if _overlap(sets):
            for i, j in combinations(range(len(sets)), 2):
                if not sets[i].disjoint_from(sets[j]):
                    raise ValidationError(f"terms {i} and {j} overlap: "
                                          f"{sets[i].label()} vs {sets[j].label()}")

    @classmethod
    def indicator(cls, s: ClopenSet) -> "SimpleBoundaryFunction":
        return cls(((1.0, s),))

    @property
    def family(self) -> AlphaBetaSpec:
        return self.terms[0][1].family

    @property
    def min_truncation_depth(self) -> int:
        return max(s.min_truncation_depth for _, s in self.terms)

    @property
    def cell_depth(self) -> int:
        """The deepest term's cell depth: F is constant on cells this deep."""
        return max(s.cell_depth for _, s in self.terms)

    def value_at_cell(self, address: str) -> float:
        return sum((c for c, s in self.terms if s.contains_cell(address)), 0.0)

    def cell_values(self) -> np.ndarray:
        """F on each of its depth-``cell_depth`` cells, in address order."""
        return _cell_sums(self.terms, self.cell_depth)

    def root_value(self) -> float:
        return sum((c for c, s in self.terms if s.include_root), 0.0)

    def boundary_data(self, graph) -> dict[int, float]:
        """Dirichlet data on a truncation: each cell's value of F."""
        ends, data = graph.boundary_vertices, {}
        for v, c in zip(ends, _address_codes(graph)[list(ends)].tolist()):
            if c < 0:
                raise DomainError(f"boundary vertex {v} carries no address")
            data[v] = self.value_at_cell(address_of(c)) if c else self.root_value()
        return data

    def label(self) -> str:
        return " + ".join(f"{c:g}*{s.label()}" for c, s in self.terms)


def _cell_sums(terms, depth: int) -> np.ndarray:
    """Each depth-``depth`` cell's sum of its terms' coefficients, in order."""
    _check_cell_depth(depth)
    total = np.zeros(2**depth)
    for c, s in terms:
        shift = depth - s.cell_depth
        for lo, hi in s.spans:
            total[lo << shift:hi << shift] += c
    return total


def combine(
    pairs: Sequence[tuple[float, SimpleBoundaryFunction]],
) -> SimpleBoundaryFunction:
    """Linear combination of simple functions, refined to disjoint cells."""
    if not pairs:
        raise ValidationError("nothing to combine")
    for i, (a, _) in enumerate(pairs):
        _check_coefficient(a, f"term {i}")
    family = pairs[0][1].family
    for _, f in pairs[1:]:
        _check_same_family(family, f.family)
    depth = max(f.cell_depth for _, f in pairs)
    # Each cell adds its terms' products in pair order, as a scalar sum would.
    total = _cell_sums([(a * c, s) for a, f in pairs for c, s in f.terms], depth)
    # Runs of one value in address order, stably sorted by value: each
    # value's intervals come together, in address order.
    starts = np.flatnonzero(np.r_[True, total[1:] != total[:-1]])
    spans = np.column_stack((starts, np.r_[starts[1:], len(total)]))
    order = np.argsort(total[starts], kind="stable")
    runs = zip(total[starts][order].tolist(), spans[order].tolist())
    root = sum(a * f.root_value() for a, f in pairs)

    terms: list[tuple[float, ClopenSet]] = []
    for value, group in groupby(runs, lambda run: run[0]):
        if value == 0.0:
            continue
        with_root = value == root and root != 0.0
        cells = _of_cells(family, [run for _, run in group], depth, with_root)
        terms.append((value, cells))
        if with_root:
            root = 0.0
    if root != 0.0:
        terms.append((root, ClopenSet.root_vertex(family)))
    if not terms:
        # The zero function: one zero-weighted cylinder keeps the type total.
        terms.append((0.0, ClopenSet.cantor_part(family)))
    return SimpleBoundaryFunction(tuple(terms))


def _cell_fluxes(
    f: SimpleBoundaryFunction, depths: Sequence[int], cell_depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fluxes of F's truncations through cells fine enough for F and E.

    One :func:`cell_fluxes` call over ``depths``, read on the cells of
    depth ``max(f.cell_depth, cell_depth)``.  Refuses data so large that a
    flux overflows, with no floating-point warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cells, root = cell_fluxes(
            f.family, f.cell_values(), f.root_value(), depths,
            max(f.cell_depth, cell_depth),
        )
    _check_range(cells, root)
    return cells, root


def _check_range(*fluxes) -> None:
    if not all(np.isfinite(x).all() for x in fluxes):
        raise DomainError("a cell flux overflows the float range")


def _set_fluxes(f: SimpleBoundaryFunction, e: ClopenSet, depths) -> np.ndarray:
    """E's flux in each depth's truncation of F, read per canonical prefix.

    A prefix at or below the coarse cells of :func:`graphdn.trees._exhaustion`
    draws its ``mu`` share of its coarse cell's flux plus its Haar terms,
    one ``lam @ coef`` product; a shallower one draws the coarse cells it
    holds.  Refuses a flux out of the float range, with no floating-point
    warnings.
    """
    alpha, beta = f.family.alpha, f.family.beta
    with np.errstate(over="ignore", invalid="ignore"):
        coarse, root, lam, details, scale = _exhaustion(
            f.family, f.cell_values(), f.root_value(), depths,
            max(f.cell_depth, e.cell_depth),
        )
        top = coarse.shape[1].bit_length() - 1
        weights, coef = np.zeros(1 << top), [0.0] * len(details)
        for i, length in _blocks(e.spans, e.cell_depth):
            below = length - top
            if below < 0:
                weights[i << -below:i + 1 << -below] = 1.0
                continue
            # mu of w in its coarse cell, then in the whole Cantor part.
            b = (i & (1 << below) - 1).bit_count()
            weights[i >> below] += beta ** (below - b) * alpha**b
            mass = beta ** (length - i.bit_count()) * alpha ** i.bit_count()
            for k, delta in enumerate(details[:below]):
                coef[k] += mass * delta[i >> below - k - 1]
        # A non-finite coarse flux reaches the sum even at weight 0.
        flux = coarse @ weights + lam @ coef
        if e.include_root:
            flux += root
        flux = np.ldexp(flux, scale)
    _check_range(flux)
    return flux


def dn_at_depth(f: SimpleBoundaryFunction, e: ClopenSet, depth: int) -> float:
    """Boundary flux of the depth-``depth`` truncation solve through E."""
    _check_same_family(f.family, e.family)
    needed = max(f.min_truncation_depth, e.min_truncation_depth)
    if depth < needed:
        raise DomainError(
            f"depth {depth} too shallow; these sets need depth >= {needed}"
        )
    return float(_set_fluxes(f, e, [depth])[0])


@dataclass(frozen=True)
class ConvergenceReport:
    """Exhaustion values per depth with first differences and a verdict.

    ``converged`` means the trailing ``CONSECUTIVE_BELOW_TOL`` residuals all
    sit below the tolerance; ``limit`` is the finest value and
    ``extrapolated`` a geometric extrapolation from the observed ratio,
    reported for information only.
    """

    depths: tuple[int, ...]
    values: tuple[float, ...]
    residuals: tuple[float, ...]
    tolerance: float
    converged: bool
    limit: float
    extrapolated: float | None
    ratio: float | None


def _reports(depths, columns, tol) -> list[ConvergenceReport]:
    """One report per column of values, each read in one pass of Python
    floats."""
    depths, reports = tuple(depths), []
    for values in columns:
        residuals = tuple(abs(b - a) for a, b in zip(values, values[1:]))
        tail = residuals[-CONSECUTIVE_BELOW_TOL:]
        converged = len(tail) >= CONSECUTIVE_BELOW_TOL and all(r <= tol for r in tail)
        # The ratio needs three values and d0 != 0, the extrapolation |ratio| < 1.
        ratio = extrapolated = None
        if len(values) >= 3:
            d1, d0 = values[-1] - values[-2], values[-2] - values[-3]
            if d0 != 0.0:
                ratio = d1 / d0
                if abs(ratio) < 1.0:
                    extrapolated = values[-1] + d1 * ratio / (1.0 - ratio)
        reports.append(ConvergenceReport(depths, tuple(values), residuals, tol,
                                         converged, values[-1], extrapolated, ratio))
    return reports


def _check_tolerance(tol: float) -> None:
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tolerance must be positive and finite, got {tol}")


def _depth_range(lowest: int, n_min: int | None, n_max: int) -> range:
    """Truncation depths ``n_min`` (default ``lowest``) through ``n_max``."""
    start = lowest if n_min is None else n_min
    if start < lowest:
        raise DomainError(f"n_min {start} too shallow; need >= {lowest}", "n_min")
    if n_max < start:
        raise DomainError(f"n_max {n_max} below the starting depth {start}", "n_max")
    if n_max > (deepest := MAX_SWEEP_EDGES.bit_length()):
        raise DomainError(f"n_max {n_max} exceeds the level-array limit of "
                          f"{MAX_SWEEP_EDGES} edges (largest depth {deepest})", "n_max")
    return range(start, n_max + 1)


def dn_function(
    f: SimpleBoundaryFunction,
    e: ClopenSet,
    tol: float,
    n_max: int,
    n_min: int | None = None,
) -> ConvergenceReport:
    """Exhaustion approximation of the boundary flux functional.

    Solves every truncation from ``n_min`` (default: the shallowest depth
    at which both F and E resolve) through ``n_max`` and reports the value
    sequence.  Non-convergence is reported, not raised.
    """
    _check_tolerance(tol)
    if n_max < 2:
        raise DomainError(f"n_max must be at least 2, got {n_max}", "n_max")
    _check_same_family(f.family, e.family)
    lowest = max(f.min_truncation_depth, e.min_truncation_depth)
    depths = _depth_range(lowest, n_min, n_max)
    return _reports(depths, [_set_fluxes(f, e, depths).tolist()], tol)[0]


@dataclass(frozen=True)
class MeasureTable:
    """Flux values of F over a clopen partition of the whole ideal boundary.

    Cells are the depth-``partition_depth`` cylinders plus the root vertex;
    per-cell exhaustion reports are kept alongside the final values.  The
    additivity residual is the largest gap, over all solved depths, between
    the cell sum and the whole-boundary value.
    """

    partition_depth: int
    cells: tuple[ClopenSet, ...]
    reports: tuple[ConvergenceReport, ...]
    values: tuple[float, ...]
    additivity_residual: float
    positive_total: float
    negative_total: float
    signed_total: float
    converged: bool

    def labels(self) -> tuple[str, ...]:
        return tuple(c.label() for c in self.cells)


def measure_table(
    f: SimpleBoundaryFunction,
    partition_depth: int,
    tol: float,
    n_max: int,
    n_min: int | None = None,
) -> MeasureTable:
    """Evaluate the flux functional of F on a full cylinder partition.

    All truncations are solved by one :func:`cell_fluxes` call; the
    whole-boundary flux and every cell's flux are read from its rows.
    """
    _check_tolerance(tol)
    if partition_depth < 1:
        raise DomainError(f"partition depth must be >= 1, got {partition_depth}")
    # Every check comes before the 2**partition_depth cells are built.
    _check_cell_depth(partition_depth)
    depths = _depth_range(
        max(f.min_truncation_depth, partition_depth + 1), n_min, n_max
    )
    family = f.family
    cells = [_cell(family, k, partition_depth) for k in range(2**partition_depth)]
    cells.append(ClopenSet.root_vertex(family))

    rows, roots = _cell_fluxes(f, depths, partition_depth)
    # The partition's cylinders are equal runs of the (as fine or finer)
    # cells of the rows; the root vertex comes last, as in ``cells``.
    per_cell = np.column_stack(
        (rows.reshape(len(depths), 2**partition_depth, -1).sum(axis=2), roots)
    )
    # The whole boundary's flux, as its set's one block sums it.  Cells in
    # range can sum past it; fsum raises OverflowError then.
    with np.errstate(over="ignore", invalid="ignore"):
        whole = roots + rows.sum(axis=-1)
        additivity = np.abs(per_cell.sum(axis=1) - whole).max()

    reports = tuple(_reports(depths, per_cell.T.tolist(), tol))
    values = tuple(r.limit for r in reports)
    try:
        totals = [math.fsum(v for v in values if v > 0.0),
                  math.fsum(v for v in values if v < 0.0), math.fsum(values)]
    except OverflowError:
        raise DomainError("a measure total overflows the float range") from None
    _check_range(additivity)
    return MeasureTable(
        partition_depth=partition_depth,
        cells=tuple(cells),
        reports=reports,
        values=values,
        additivity_residual=float(additivity),
        positive_total=totals[0],
        negative_total=totals[1],
        signed_total=totals[2],
        converged=all(r.converged for r in reports),
    )


def symmetry_residual(first: ClopenSet, second: ClopenSet, depth: int) -> float:
    """|flux(1_first through second) - flux(1_second through first)|."""
    forward = dn_at_depth(SimpleBoundaryFunction.indicator(first), second, depth)
    backward = dn_at_depth(SimpleBoundaryFunction.indicator(second), first, depth)
    return abs(forward - backward)


def quadratic_form(f: SimpleBoundaryFunction, depth: int) -> float:
    """The diagonal form <flux(F), F> at one truncation depth.

    Computed as the boundary sum of data times outward derivative, which by
    linearity of the solve equals the double sum of pairwise cylinder fluxes
    weighted by the coefficients of F, and equals the truncation energy.
    """
    if depth < f.min_truncation_depth:
        raise DomainError(
            f"depth {depth} too shallow; F needs >= {f.min_truncation_depth}"
        )
    (cells,), (root,) = _cell_fluxes(f, [depth], 0)
    return float(f.root_value() * root + f.cell_values() @ cells)
