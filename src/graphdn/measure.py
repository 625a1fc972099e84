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
raised.  Every truncation depth of one call is solved at once by
:func:`graphdn.trees.cell_fluxes`, which reads the flux through each cell
fine enough for F and E from that cell's top edge; no truncation is built
as a metric graph and no leaf is visited.

Set algebra runs on the cells of depth d, the deepest prefix involved.  A
set's prefixes are sorted, merged cell-index intervals ``[lo, hi)``, each
prefix one :func:`graphdn.trees.cylinder_slice`; its canonical prefixes
are the maximal aligned dyadic blocks of those intervals, its complement
their gaps.  Normalizing, complementing and testing disjointness cost
O(P log P + P*d) for P prefixes.  :func:`combine` adds its pairs' terms
into the 2^d cells and groups the cells by value with one stable sort,
O(2^d log 2^d); no address string is made per cell.

Finite truncations satisfy the structural identities exactly up to solver
error: the functional is symmetric in (F-set, E), additive over partitions
of E, and its diagonal quadratic form is the solution energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    cell_fluxes,
    cylinder_leaves,
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


def _addresses(depth: int) -> list[str]:
    """All addresses of this length, in address order.

    Refuses, before enumerating them, cells that no truncation within
    ``MAX_SWEEP_EDGES`` resolves.
    """
    _check_cell_depth(depth)
    return list(map(address_of, range(1 << depth, 2 << depth)))


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


def _prefixes(intervals: Iterable[Sequence[int]], depth: int) -> tuple[str, ...]:
    """The maximal cylinders inside the intervals, in address order."""
    out = []
    for lo, hi in intervals:
        while lo < hi:
            # The largest block that starts aligned at lo and ends by hi.
            align = (lo & -lo or 1 << depth).bit_length()
            shift = min(align, (hi - lo).bit_length()) - 1
            # Its address code: a marker bit, then the bits of lo above the shift.
            out.append(address_of((lo >> shift) | (1 << (depth - shift))))
            lo += 1 << shift
    return tuple(out)


def _overlap(sets: Sequence["ClopenSet"]) -> bool:
    """Whether two of these sets meet, by one sweep over their intervals."""
    if sum(s.include_root for s in sets) > 1:
        return True
    depth = max(s.cell_depth for s in sets)
    # A set's own intervals never meet, so only neighbours in order can.
    spans = sorted(span for s in sets for span in _intervals(s.prefixes, depth))
    return any(lo < end for (_, end), (lo, _) in zip(spans, spans[1:]))


@dataclass(frozen=True, eq=False)
class ClopenSet:
    """A clopen subset of the ideal boundary of one tree family.

    Held as a canonical antichain of address prefixes (sibling pairs merged,
    nested prefixes dropped) plus a flag for the isolated root boundary
    vertex.  Equality and hashing use the canonical form and the family
    identity, ignoring truncation depth.
    """

    family: AlphaBetaSpec
    prefixes: tuple[str, ...]
    include_root: bool = False

    def __post_init__(self):
        given = tuple(self.prefixes)
        depth = max(map(len, given), default=0)
        object.__setattr__(self, "prefixes", _prefixes(_intervals(given, depth), depth))

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
        return (self.family.family_key(), self.prefixes, self.include_root)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClopenSet):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def is_empty(self) -> bool:
        return not self.prefixes and not self.include_root

    def complement(self) -> "ClopenSet":
        depth = self.cell_depth
        bounds = [0, *chain.from_iterable(_intervals(self.prefixes, depth)), 2**depth]
        gaps = zip(bounds[::2], bounds[1::2])
        return ClopenSet(self.family, _prefixes(gaps, depth), not self.include_root)

    def disjoint_from(self, other: "ClopenSet") -> bool:
        return not _overlap((self, other))

    def contains_cell(self, address: str) -> bool:
        """Whether the depth cell headed by ``address`` lies in the set.

        Raises when a set prefix strictly extends the address, i.e. the cell
        straddles the set and a deeper truncation is required.
        """
        for p in self.prefixes:
            if address.startswith(p):
                return True
            if p.startswith(address) and p != address:
                raise DomainError(
                    f"cell {address!r} straddles prefix {p!r}; "
                    "refine the truncation"
                )
        return False

    @property
    def cell_depth(self) -> int:
        """Length of the longest prefix: the set is a union of such cells."""
        return max((len(p) for p in self.prefixes), default=0)

    @property
    def min_truncation_depth(self) -> int:
        return max(2, self.cell_depth + 1)

    def resolve(self, graph) -> tuple[int, ...]:
        """Boundary vertices of a truncation graph carrying this set's cells.

        The ascending union of :func:`cylinder_leaves` over the prefixes,
        plus the root boundary vertex when ``include_root`` is set.
        """
        _address_codes(graph)  # refuses a graph without metadata
        verts = set()
        for p in self.prefixes:
            verts.update(cylinder_leaves(graph, p))
        if self.include_root:
            verts.add(cylinder_leaves(graph, "", include_root_vertex=True)[0])
        return tuple(sorted(verts))

    def flux(self, cells: np.ndarray, root: float) -> float:
        """Outward flux of one truncation through the set.

        ``cells`` are the fluxes through the depth-``M`` cells in address
        order, ``M >= cell_depth`` (a row of :func:`graphdn.trees.cell_fluxes`,
        or a level solution's ``leaf_flux``), and ``root`` the root flux.
        Refuses any other number of cells.
        """
        n = len(cells)
        if n & (n - 1) or n < 1 << self.cell_depth:
            raise DomainError(
                f"{n} cell fluxes are not the 2**M cells of a depth M >= "
                f"{self.cell_depth}, the set's cell depth"
            )
        depth = n.bit_length()
        total = root if self.include_root else 0.0
        for p in self.prefixes:
            total += cells[cylinder_slice(p, depth)].sum()
        return float(total)

    def label(self) -> str:
        parts = [f"@{p}" for p in self.prefixes]
        if self.include_root:
            parts.append("v0")
        return "+".join(parts) if parts else "empty"


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
        """Length of the longest prefix: F is constant on cells this deep."""
        return max((len(p) for _, s in self.terms for p in s.prefixes), default=0)

    def value_at_cell(self, address: str) -> float:
        return sum(c for c, s in self.terms if s.contains_cell(address))

    def cell_values(self) -> np.ndarray:
        """F on each of its depth-``cell_depth`` cells, in address order."""
        return _cell_sums(self.terms, self.cell_depth)

    def root_value(self) -> float:
        return sum(c for c, s in self.terms if s.include_root)

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
        for p in s.prefixes:
            total[cylinder_slice(p, depth + 1)] += c
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
        prefixes = _prefixes((run for _, run in group), depth)
        with_root = value == root and root != 0.0
        terms.append((value, ClopenSet(family, prefixes, include_root=with_root)))
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
    if not (np.isfinite(cells).all() and np.isfinite(root).all()):
        raise DomainError("a cell flux overflows the float range")
    return cells, root


def dn_at_depth(f: SimpleBoundaryFunction, e: ClopenSet, depth: int) -> float:
    """Boundary flux of the depth-``depth`` truncation solve through E."""
    _check_same_family(f.family, e.family)
    needed = max(f.min_truncation_depth, e.min_truncation_depth)
    if depth < needed:
        raise DomainError(
            f"depth {depth} too shallow; these sets need depth >= {needed}"
        )
    (cells,), (root,) = _cell_fluxes(f, [depth], e.cell_depth)
    return e.flux(cells, root)


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


def _report(depths, values, tol) -> ConvergenceReport:
    residuals = tuple(
        abs(values[i] - values[i - 1]) for i in range(1, len(values))
    )
    tail = residuals[-CONSECUTIVE_BELOW_TOL:]
    converged = len(tail) >= CONSECUTIVE_BELOW_TOL and all(r <= tol for r in tail)
    ratio = None
    extrapolated = None
    if len(values) >= 3:
        d1 = values[-1] - values[-2]
        d0 = values[-2] - values[-3]
        if d0 != 0.0:
            ratio = d1 / d0
            if abs(ratio) < 1.0:
                extrapolated = values[-1] + d1 * ratio / (1.0 - ratio)
    return ConvergenceReport(
        depths=tuple(depths),
        values=tuple(values),
        residuals=residuals,
        tolerance=tol,
        converged=converged,
        limit=values[-1],
        extrapolated=extrapolated,
        ratio=ratio,
    )


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
    cells, root = _cell_fluxes(f, depths, e.cell_depth)
    values = [e.flux(c, r) for c, r in zip(cells, root)]
    return _report(depths, values, tol)


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
    cells = [ClopenSet.cylinder(family, a) for a in _addresses(partition_depth)]
    cells.append(ClopenSet.root_vertex(family))

    rows, roots = _cell_fluxes(f, depths, partition_depth)
    # The partition's cylinders are equal runs of the (as fine or finer)
    # cells of the rows; the root vertex comes last, as in ``cells``.
    per_cell = np.column_stack(
        (rows.reshape(len(depths), 2**partition_depth, -1).sum(axis=2), roots)
    )
    whole = ClopenSet.whole_boundary(family)
    totals = [whole.flux(row, root) for row, root in zip(rows, roots)]
    additivity = np.abs(per_cell.sum(axis=1) - totals).max()

    reports = tuple(_report(depths, column.tolist(), tol) for column in per_cell.T)
    values = tuple(r.limit for r in reports)
    return MeasureTable(
        partition_depth=partition_depth,
        cells=tuple(cells),
        reports=reports,
        values=values,
        additivity_residual=float(additivity),
        positive_total=float(sum(v for v in values if v > 0.0)),
        negative_total=float(sum(v for v in values if v < 0.0)),
        signed_total=float(sum(values)),
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
