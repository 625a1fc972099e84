"""Vertex systems, Dirichlet solves, and Dirichlet-to-Neumann matrices.

Scattering every edge flux block to its endpoints yields a sparse symmetric
system over all vertices.  Rows at interior vertices express the derivative
matching (Kirchhoff) condition; rows at boundary vertices evaluate outward
boundary derivatives.  A Dirichlet solve eliminates the boundary rows and
solves the interior block, which is symmetric positive definite whenever the
graph is connected and has a boundary vertex.

Deep self-similar truncations produce edge lengths spanning many orders of
magnitude, so the interior block is symmetrically Jacobi-equilibrated before
factorization; a condition estimate of the scaled block is available on the
factorization object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix, diags
from scipy.sparse.linalg import LinearOperator, eigsh, onenormest, splu

from .edge import EdgeSolution, edge_dn_blocks, edge_energies, edge_potential_weights
from .errors import DomainError, SingularInteriorError, ValidationError
from .graph import GraphPoint, MetricGraph

__all__ = [
    "assemble",
    "InteriorSystem",
    "DirichletSolution",
    "solve_dirichlet",
    "DNMatrix",
    "dn_matrix",
    "MAX_DN_BOUNDARY",
    "CurrentBalance",
    "current_balance",
    "EnergyIdentity",
    "energy_identity",
    "MaxPrincipleReport",
    "max_principle_check",
    "dirichlet_lower_bound",
]

_DENSE_EIG_LIMIT = 1200

# Boundary-vertex ceiling of the dense DN build (depth 13 of a tree family).
# Measured peak RSS of `graphdn dn` (alpha = 0.3, 2-core x86-64 VM): 106 MB
# at 1,025 and 228 MB at 2,049 boundary vertices, i.e. about 65 MB plus 39
# bytes per matrix entry; that predicts 0.72 GB at this ceiling and 2.7 GB
# at the next depth's 8,193.
MAX_DN_BOUNDARY = 2**12 + 1


def _edge_blocks(g: MetricGraph):
    """Per edge, in edge order: endpoints ``a``, ``b`` and the block ``(diag, off)``."""
    a, b, lengths, kappa2 = g.edge_table
    diag, off = edge_dn_blocks(lengths, kappa2)
    return a, b, diag, off


def _outward(g: MetricGraph, values: np.ndarray):
    """Endpoint ids and outward edge derivatives, interleaved per edge (a, b)."""
    a, b, diag, off = _edge_blocks(g)
    va, vb = values[a], values[b]
    ends = np.stack([a, b], axis=1).ravel()
    return ends, np.stack([diag * va + off * vb, off * va + diag * vb], axis=1).ravel()


def assemble(g: MetricGraph) -> csr_matrix:
    """Sparse symmetric vertex system: the sum of scattered edge blocks."""
    a, b, diag, off = _edge_blocks(g)
    rows = np.stack([a, b, a, b], axis=1).ravel()
    cols = np.stack([a, b, b, a], axis=1).ravel()
    vals = np.stack([diag, diag, off, off], axis=1).ravel()
    n = g.n_vertices
    return csr_matrix((vals, (rows, cols)), shape=(n, n))


class InteriorSystem:
    """Equilibrated factorization of the interior block of a vertex system.

    Immutable after construction; one factorization may serve many
    right-hand sides, including matrix-valued ones, concurrently.
    """

    def __init__(self, g: MetricGraph):
        # build_graph refuses disconnected graphs, so once there is a
        # boundary vertex every interior component touches the boundary and
        # the interior block is positive definite: only an empty boundary
        # makes it singular.
        if not g.boundary:
            raise SingularInteriorError(
                "graph has no boundary vertex; the Dirichlet problem is "
                "undetermined",
                component=tuple(range(g.n_vertices)),
            )
        self.graph = g
        self.matrix = assemble(g)
        self.boundary = g.boundary_vertices
        self.interior = g.interior_vertices
        ii = np.asarray(self.interior, dtype=np.intp)
        bb = np.asarray(self.boundary, dtype=np.intp)
        self._a_ib = self.matrix[ii][:, bb].tocsr() if len(ii) else None
        if len(ii):
            a_ii = self.matrix[ii][:, ii].tocsc()
            d = a_ii.diagonal()
            scale = 1.0 / np.sqrt(d)
            s = diags(scale)
            self._scale = scale
            self._scaled = csc_matrix(s @ a_ii @ s)
            # SuperLU in symmetric mode: no partial pivoting, symmetric
            # fill-reducing order; the SPD-exploiting configuration.
            self._lu = splu(
                self._scaled,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        else:
            self._scale = np.zeros(0)
            self._scaled = None
            self._lu = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the interior block against one or many right-hand sides."""
        if self._lu is None:
            return np.zeros_like(rhs)
        if rhs.ndim == 1:
            return self._scale * self._lu.solve(self._scale * rhs)
        scaled = self._scale[:, None] * rhs
        return self._scale[:, None] * self._lu.solve(scaled)

    def rhs_for(self, boundary_values: np.ndarray) -> np.ndarray:
        if self._a_ib is None:
            return np.zeros(0)
        return -self._a_ib @ boundary_values

    @cached_property
    def condition_estimate(self) -> float:
        """One-norm condition estimate of the equilibrated interior block."""
        n = len(self.interior)
        if n <= 1:
            return 1.0
        if n <= 64:
            return float(np.linalg.cond(self._scaled.toarray(), 1))
        # ||A||_1 exactly, from column sums; ||A^-1||_1 estimated with one
        # column (t = 1), which starts from the ones vector and draws no
        # random vectors, so the estimate does not depend on numpy's RNG.
        norm_a = abs(self._scaled).sum(axis=0).max()
        inv = LinearOperator(
            (n, n), matvec=self._lu.solve, rmatvec=self._lu.solve
        )
        norm_inv = onenormest(inv, t=1)
        return float(norm_a * norm_inv)


@dataclass(frozen=True)
class DirichletSolution:
    """A solved Dirichlet problem: vertex values plus per-edge closed forms.

    ``boundary_values`` and ``boundary_derivatives`` follow the sorted
    boundary-vertex order; derivatives are outward (away from the graph) and
    sum the contributions of every incident edge at relative-boundary
    vertices.
    """

    graph: MetricGraph
    values: np.ndarray
    boundary_values: np.ndarray
    boundary_derivatives: np.ndarray
    edge_solutions: tuple[EdgeSolution, ...]
    energy: float

    @cached_property
    def _boundary_pos(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.graph.boundary_vertices)}

    def derivative_at(self, v: int) -> float:
        """Outward boundary derivative at boundary vertex ``v``."""
        try:
            return float(self.boundary_derivatives[self._boundary_pos[v]])
        except KeyError:
            raise DomainError(f"vertex {v} is not a boundary vertex") from None

    def flux_sum(self, vertices: Sequence[int] | None = None) -> float:
        if vertices is None:
            return float(self.boundary_derivatives.sum())
        return math.fsum(self.derivative_at(v) for v in vertices)

    def value_at(self, point: GraphPoint) -> float:
        return self.edge_solutions[point.edge](point.offset)

    def continuity_residual(self) -> float:
        """Largest gap between edge-endpoint evaluations and vertex values."""
        a, b, _, _ = self.graph.edge_table
        worst = 0.0
        ends = zip(self.values[a].tolist(), self.values[b].tolist())
        for s, (ua, ub) in zip(self.edge_solutions, ends):
            worst = max(worst, abs(s(0.0) - ua), abs(s(s.length) - ub))
        return worst

    def kirchhoff_residuals(self) -> tuple[np.ndarray, np.ndarray]:
        """Per interior vertex: |sum of outward edge derivatives| and scale.

        The scale is the sum of the absolute single-edge contributions, the
        natural yardstick for the cancellation the condition demands.
        """
        g = self.graph
        ends, outward = _outward(g, self.values)
        sums = np.bincount(ends, outward, minlength=g.n_vertices)
        scales = np.bincount(ends, np.abs(outward), minlength=g.n_vertices)
        idx = np.asarray(g.interior_vertices, dtype=np.intp)
        return np.abs(sums[idx]), scales[idx]


def _coerce_boundary_values(g: MetricGraph, data) -> np.ndarray:
    bverts = g.boundary_vertices
    if isinstance(data, Mapping):
        extra = set(data) - set(bverts)
        if extra:
            raise ValidationError(
                f"data given for non-boundary vertex {min(extra)}",
                element=("vertex", min(extra)),
            )
        missing = set(bverts) - set(data)
        if missing:
            raise ValidationError(
                f"no boundary value for vertex {min(missing)}",
                element=("vertex", min(missing)),
            )
        arr = np.array([float(data[v]) for v in bverts])
    else:
        arr = np.array(data, dtype=float)
        if arr.shape != (len(bverts),):
            raise ValidationError(
                f"expected {len(bverts)} boundary values, got shape {arr.shape}"
            )
    bad = np.flatnonzero(~np.isfinite(arr))
    if len(bad):
        v = bverts[bad[0]]
        raise ValidationError(
            f"non-finite boundary value {arr[bad[0]]} at vertex {v}",
            element=("vertex", v),
        )
    return arr


def solve_dirichlet(
    g: MetricGraph, data, system: InteriorSystem | None = None
) -> DirichletSolution:
    """Solve the Dirichlet problem with the given boundary values.

    ``data`` is a mapping from boundary vertex id to value, or a sequence
    in sorted boundary-vertex order.  A prebuilt :class:`InteriorSystem`
    may be passed to reuse its factorization.
    """
    ub = _coerce_boundary_values(g, data)
    sys_ = InteriorSystem(g) if system is None else system

    values = np.zeros(g.n_vertices)
    values[np.asarray(sys_.boundary, dtype=np.intp)] = ub
    if sys_.interior:
        ui = sys_.solve(sys_.rhs_for(ub))
        values[np.asarray(sys_.interior, dtype=np.intp)] = ui

    # Outward derivatives from the closed form, not matrix residuals.
    ends, outward = _outward(g, values)
    flux = np.bincount(ends, outward, minlength=g.n_vertices)
    a, b, lengths, kappa2 = g.edge_table
    va, vb = values[a], values[b]
    solutions = tuple(
        EdgeSolution(length=s, kappa2=k, value_a=x, value_b=y, c0=x, c1=c)
        for s, k, x, y, c in zip(
            lengths.tolist(), kappa2.tolist(), va.tolist(), vb.tolist(),
            (-outward[::2]).tolist(),
        )
    )
    energy = edge_energies(lengths, kappa2, va, vb).sum()

    bidx = np.asarray(sys_.boundary, dtype=np.intp)
    values.flags.writeable = False
    ub.flags.writeable = False
    bder = flux[bidx]
    bder.flags.writeable = False
    return DirichletSolution(
        graph=g,
        values=values,
        boundary_values=ub,
        boundary_derivatives=bder,
        edge_solutions=solutions,
        energy=float(energy),
    )


@dataclass(frozen=True)
class DNMatrix:
    """Dense Dirichlet-to-Neumann matrix over the sorted boundary vertices."""

    boundary: tuple[int, ...]
    matrix: np.ndarray

    def symmetry_residual(self) -> float:
        return float(np.abs(self.matrix - self.matrix.T).max())

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.T))[0])

    def constant_residual(self) -> float:
        """Max |row sum|; near zero exactly when the potential vanishes."""
        return float(np.abs(self.matrix.sum(axis=1)).max())

    def quadratic(self, boundary_values: Sequence[float]) -> float:
        u = np.asarray(boundary_values, dtype=float)
        return float(u @ self.matrix @ u)


def dn_matrix(g: MetricGraph, system: InteriorSystem | None = None) -> DNMatrix:
    """Dirichlet-to-Neumann matrix: boundary values to outward derivatives.

    Column ``j`` holds the boundary derivatives of the solve with indicator
    data at the j-th sorted boundary vertex; algebraically the Schur
    complement of the interior block.  Refuses graphs with more than
    ``MAX_DN_BOUNDARY`` boundary vertices before allocating anything.
    """
    n_boundary = len(g.boundary_vertices)
    if n_boundary > MAX_DN_BOUNDARY:
        raise ValidationError(
            f"{n_boundary} boundary vertices exceed the dense DN matrix "
            f"limit of {MAX_DN_BOUNDARY}"
        )
    sys_ = InteriorSystem(g) if system is None else system
    bb = np.asarray(sys_.boundary, dtype=np.intp)
    a_bb = sys_.matrix[bb][:, bb].toarray()
    if not sys_.interior:
        matrix = a_bb
    else:
        rhs = -sys_._a_ib.toarray()
        x = sys_.solve(rhs)
        matrix = a_bb + sys_._a_ib.T @ x
    matrix = np.asarray(matrix)
    matrix.flags.writeable = False
    return DNMatrix(boundary=tuple(sys_.boundary), matrix=matrix)


@dataclass(frozen=True)
class CurrentBalance:
    """Total outward boundary flux against the potential integral of u."""

    flux_sum: float
    potential_integral: float
    residual: float
    scale: float  # the sum of the terms' absolute values, for a relative residual


def current_balance(sol: DirichletSolution) -> CurrentBalance:
    """Conservation of current: boundary flux equals ``int u * kappa2``."""
    flux = sol.flux_sum()
    a, b, lengths, kappa2 = sol.graph.edge_table
    weights = edge_potential_weights(lengths, kappa2)
    ends = sol.values[a] + sol.values[b]
    integral = weights @ ends
    return CurrentBalance(
        flux_sum=float(flux),
        potential_integral=float(integral),
        residual=float(flux - integral),
        # The edge weights are nonnegative.
        scale=float(np.abs(sol.boundary_derivatives).sum() + weights @ np.abs(ends)),
    )


@dataclass(frozen=True)
class EnergyIdentity:
    """Boundary quadratic form against the edgewise energy sum."""

    form_value: float
    energy: float
    residual: float
    scale: float  # the sum of the terms' absolute values, for a relative residual


def energy_identity(sol: DirichletSolution) -> EnergyIdentity:
    """Compare <DN u, u> on the boundary with the edgewise energy.

    The two sides are computed independently from this solution: the left
    as the boundary sum of data times outward derivative (the derivatives
    are the closed-form edge derivatives at the boundary endpoints), the
    right from the closed-form edge energies.  No DN matrix is built.
    """
    form = float(sol.boundary_values @ sol.boundary_derivatives)
    return EnergyIdentity(
        form_value=form,
        energy=sol.energy,
        residual=float(form - sol.energy),
        # The edge energies are nonnegative.
        scale=float(np.abs(sol.boundary_values) @ np.abs(sol.boundary_derivatives))
        + sol.energy,
    )


@dataclass(frozen=True)
class MaxPrincipleViolation:
    kind: str  # "vertex" or "edge"
    index: int
    value: float


@dataclass(frozen=True)
class MaxPrincipleReport:
    violations: tuple[MaxPrincipleViolation, ...]
    lower: float
    upper: float
    checked_vertices: int
    checked_edges: int
    skipped_constant: bool

    @property
    def passed(self) -> bool:
        return not self.violations


def max_principle_check(
    sol: DirichletSolution, slack: float = 1e-12
) -> MaxPrincipleReport:
    """Check that interior values stay strictly between the boundary extremes.

    When any edge carries a potential, solutions sag toward 0, so the
    bounds are widened to ``min(lo, 0)`` and ``max(hi, 0)``.  Inspects every
    interior vertex value and the single interior extremum of every
    hyperbolic edge solution (linear solutions are monotone); a non-finite
    value or edge solution is a violation.  The check is skipped only when
    the (widened) interval is empty, i.e. for constant data without
    potentials or zero data.  Report-only: violations are returned, never
    raised.
    """
    lo = float(sol.boundary_values.min())
    hi = float(sol.boundary_values.max())
    if sol.graph.edge_table[3].any():
        lo, hi = min(lo, 0.0), max(hi, 0.0)
    if hi == lo:
        return MaxPrincipleReport(
            violations=(),
            lower=lo,
            upper=hi,
            checked_vertices=0,
            checked_edges=0,
            skipped_constant=True,
        )
    tol = slack * max(1.0, abs(lo), abs(hi))

    def outside(value: float) -> bool:
        # Written as a negation so that NaN counts as outside.
        return not (lo - tol < value < hi + tol)

    violations = []
    n_v = 0
    for v in sol.graph.interior_vertices:
        n_v += 1
        value = float(sol.values[v])
        if outside(value):
            violations.append(MaxPrincipleViolation("vertex", v, value))
    n_e = 0
    for i, s in enumerate(sol.edge_solutions):
        n_e += 1
        if not math.isfinite(s.c0 + s.c1):
            # A non-finite solution has no meaningful extremum to locate.
            violations.append(MaxPrincipleViolation("edge", i, s.c0 + s.c1))
            continue
        extremum = s.interior_extremum()
        if extremum is not None and outside(extremum[1]):
            violations.append(MaxPrincipleViolation("edge", i, extremum[1]))
    return MaxPrincipleReport(
        violations=tuple(violations),
        lower=lo,
        upper=hi,
        checked_vertices=n_v,
        checked_edges=n_e,
        skipped_constant=False,
    )


def dirichlet_lower_bound(g: MetricGraph) -> float:
    """Smallest eigenvalue of the raw interior block; positive by theory.

    This is a Galerkin restriction to the span of edgewise closed-form
    shapes, so only positivity is meaningful, not the magnitude.  An empty
    interior returns ``inf``.
    """
    if not g.boundary:
        raise SingularInteriorError(
            "graph has no boundary vertex", component=tuple(range(g.n_vertices))
        )
    interior = np.asarray(g.interior_vertices, dtype=np.intp)
    if len(interior) == 0:
        return math.inf
    a = assemble(g)
    a_ii = a[interior][:, interior]
    if len(interior) <= _DENSE_EIG_LIMIT:
        return float(np.linalg.eigvalsh(a_ii.toarray())[0])
    vals = eigsh(a_ii.tocsc(), k=1, sigma=0, which="LM", return_eigenvectors=False)
    return float(vals[0])
