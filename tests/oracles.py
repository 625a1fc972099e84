"""Independent oracles used by the test suite.

Every oracle here deliberately avoids the package's own closed forms and
solver path: finite differences for single-edge problems, dense numpy
linear algebra for whole-graph problems, resistor-network algebra with the
self-similar tail resistance for infinite-tree fluxes, and adaptive
quadrature for integrals.  The one exception is ``table_cell_fluxes``, a
frozen copy of an earlier exhaustion kernel that the current one is held
to within rounding.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_banded

from graphdn.graph import MetricGraph


def fd_edge_block(length: float, kappa2: float, n: int = 100_000) -> np.ndarray:
    """Finite-difference Dirichlet-to-Neumann block of one edge.

    Solves -u'' + kappa2 u = 0 on an n-point grid for both indicator data
    sets and extracts one-sided second-order endpoint derivatives.
    """
    h = length / n
    m = n - 1  # interior unknowns
    main = np.full(m, 2.0 / h**2 + kappa2)
    off = np.full(m - 1, -1.0 / h**2)
    ab = np.zeros((3, m))
    ab[0, 1:] = off
    ab[1, :] = main
    ab[2, :-1] = off
    rhs = np.zeros((m, 2))
    rhs[0, 0] = 1.0 / h**2  # u(0) = 1, u(l) = 0
    rhs[-1, 1] = 1.0 / h**2  # u(0) = 0, u(l) = 1
    interior = solve_banded((1, 1), ab, rhs)

    block = np.zeros((2, 2))
    for col, (ua, ub) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        u = np.concatenate(([ua], interior[:, col], [ub]))
        d0 = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
        dl = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
        block[0, col] = -d0
        block[1, col] = dl
    return block


def fd_edge_midpoint(length: float, kappa2: float, ua: float, ub: float,
                     n: int = 100_000) -> float:
    """Finite-difference value of the edge solution at the midpoint."""
    h = length / n
    m = n - 1
    main = np.full(m, 2.0 / h**2 + kappa2)
    off = np.full(m - 1, -1.0 / h**2)
    ab = np.zeros((3, m))
    ab[0, 1:] = off
    ab[1, :] = main
    ab[2, :-1] = off
    rhs = np.zeros(m)
    rhs[0] = ua / h**2
    rhs[-1] = ub / h**2
    u = solve_banded((1, 1), ab, rhs)
    full = np.concatenate(([ua], u, [ub]))
    return float(np.interp(length / 2.0, np.linspace(0.0, length, n + 1), full))


def quad_energy(sol) -> float:
    """Adaptive-quadrature energy of an edge solution."""
    val, _ = quad(
        lambda x: sol.derivative(x) ** 2 + sol.kappa2 * sol(x) ** 2,
        0.0,
        sol.length,
        limit=200,
    )
    return val


def quad_potential_integral(sol) -> float:
    val, _ = quad(lambda x: sol.kappa2 * sol(x), 0.0, sol.length, limit=200)
    return val


def _naive_block(length: float, kappa2: float) -> np.ndarray:
    # Textbook hyperbolic formulas; fine for the moderate products in tests.
    if kappa2 == 0.0:
        return np.array([[1.0, -1.0], [-1.0, 1.0]]) / length
    k = math.sqrt(kappa2)
    z = k * length
    coth = math.cosh(z) / math.sinh(z)
    csch = 1.0 / math.sinh(z)
    return k * np.array([[coth, -csch], [-csch, coth]])


def dense_vertex_matrix(g: MetricGraph) -> np.ndarray:
    n = g.n_vertices
    a = np.zeros((n, n))
    for e in g.edges:
        block = _naive_block(e.length, e.kappa2)
        a[e.a, e.a] += block[0, 0]
        a[e.b, e.b] += block[1, 1]
        a[e.a, e.b] += block[0, 1]
        a[e.b, e.a] += block[1, 0]
    return a


def dense_solve(g: MetricGraph, data: dict[int, float]) -> np.ndarray:
    """Dense full-system Dirichlet solve with numpy only."""
    a = dense_vertex_matrix(g)
    bidx = list(g.boundary_vertices)
    iidx = list(g.interior_vertices)
    u = np.zeros(g.n_vertices)
    u[bidx] = [data[v] for v in bidx]
    if iidx:
        a_ii = a[np.ix_(iidx, iidx)]
        a_ib = a[np.ix_(iidx, bidx)]
        u[iidx] = np.linalg.solve(a_ii, -a_ib @ u[bidx])
    return u


def dense_dn(g: MetricGraph) -> np.ndarray:
    """Dense Dirichlet-to-Neumann matrix in sorted boundary order."""
    a = dense_vertex_matrix(g)
    bidx = list(g.boundary_vertices)
    iidx = list(g.interior_vertices)
    a_bb = a[np.ix_(bidx, bidx)]
    if not iidx:
        return a_bb
    a_bi = a[np.ix_(bidx, iidx)]
    a_ib = a[np.ix_(iidx, bidx)]
    a_ii = a[np.ix_(iidx, iidx)]
    return a_bb - a_bi @ np.linalg.solve(a_ii, a_ib)


def resistance_flux(
    alpha: float,
    cell_values: dict[str, float],
    v0_value: float,
    root_length: float = 1.0,
) -> dict[str, float]:
    """Exact infinite-tree boundary fluxes for the potential-free problem.

    The boundary data is constant on each depth-d cylinder (d = common
    address length of ``cell_values``).  Below a depth-d vertex the
    self-similar subtree acts as a pure resistance s * m toward its cell,
    where m is the parent-edge length and s = alpha*beta/(1 - alpha*beta).
    Returns the flux through every cell and through 'v0'.
    """
    beta = 1.0 - alpha
    s = alpha * beta / (1.0 - alpha * beta)
    cells = sorted(cell_values)
    d = len(cells[0])
    assert all(len(c) == d for c in cells) and len(cells) == 2**d

    def edge_len(address: str) -> float:
        out = root_length
        for ch in address:
            out *= alpha if ch == "a" else beta
        return out

    # Unknown potentials at internal vertices: addresses of length 0..d.
    internal = [""]
    frontier = [""]
    for _ in range(d):
        frontier = [a + ch for a in frontier for ch in "ab"]
        internal += frontier
    index = {a: i for i, a in enumerate(internal)}
    n = len(internal)
    mat = np.zeros((n, n))
    rhs = np.zeros(n)

    def couple(i: int, conductance: float, j: int | None, fixed: float | None):
        mat[i, i] += conductance
        if j is not None:
            mat[i, j] -= conductance
        else:
            rhs[i] += conductance * fixed

    for a in internal:
        i = index[a]
        if a == "":
            couple(i, 1.0 / root_length, None, v0_value)
        else:
            couple(i, 1.0 / edge_len(a), index[a[:-1]], None)
        if len(a) < d:
            for ch in "ab":
                child = a + ch
                couple(i, 1.0 / edge_len(child), index[child], None)
        else:
            tail = s * edge_len(a)
            couple(i, 1.0 / tail, None, cell_values[a])

    u = np.linalg.solve(mat, rhs)
    flux = {"v0": (v0_value - u[index[""]]) / root_length}
    for a in cells:
        tail = s * edge_len(a)
        flux[a] = (cell_values[a] - u[index[a]]) / tail
    return flux


def mp_leaf_fluxes(
    lengths: list[np.ndarray],
    kappa2: list[float],
    leaf_values: np.ndarray,
    root_value: float,
    dps: int = 50,
) -> tuple[list, object]:
    """High-precision leaf fluxes and root flux of a tree truncation.

    ``lengths[k]`` are the level-``k + 1`` edge lengths in address order
    (converted exactly), ``kappa2[k]`` that level's potential.  Eliminates
    vertex by vertex with textbook ``coth``/``csch`` blocks in ``dps``-digit
    arithmetic and returns the leaf fluxes ``d g + o u_parent`` as mpmath
    numbers, whose cancellation is harmless at this precision.  Needs mpmath.
    """
    import mpmath

    with mpmath.workdps(dps):
        blocks = []
        for level, q in zip(lengths, kappa2):
            k = mpmath.sqrt(mpmath.mpf(q))
            if q == 0.0:
                blocks.append([(1 / mpmath.mpf(l), -1 / mpmath.mpf(l)) for l in level])
            else:
                blocks.append(
                    [(k * mpmath.coth(k * mpmath.mpf(l)),
                      -k * mpmath.csch(k * mpmath.mpf(l))) for l in level]
                )
        leaves = [mpmath.mpf(x) for x in leaf_values]
        y = [d for d, _ in blocks[-1]]
        j = [o * g for (_, o), g in zip(blocks[-1], leaves)]
        pivots = []
        for level, q in zip(reversed(blocks[:-1]), reversed(kappa2[:-1])):
            y_v = [y[2 * i] + y[2 * i + 1] for i in range(len(level))]
            j_v = [j[2 * i] + j[2 * i + 1] for i in range(len(level))]
            piv = [d + yv for (d, _), yv in zip(level, y_v)]
            pivots.append((piv, j_v))
            y = [(q + d * yv) / p for (d, _), yv, p in zip(level, y_v, piv)]
            j = [-o * jv / p for (_, o), jv, p in zip(level, j_v, piv)]
        pivots.reverse()
        values = [[mpmath.mpf(root_value)]]
        for level, (piv, j_v) in zip(blocks, pivots):
            above = values[-1] if len(level) == 1 else [
                values[-1][i // 2] for i in range(len(level))
            ]
            values.append(
                [-(o * u + jv) / p for (_, o), u, jv, p in zip(level, above, j_v, piv)]
            )
        above = values[-1] if len(blocks) == 1 else [
            values[-1][i // 2] for i in range(len(leaves))
        ]
        flux = [d * g + o * u for (d, o), g, u in zip(blocks[-1], leaves, above)]
        d0, o0 = blocks[0][0]
        second = values[1][0] if len(values) > 1 else leaves[0]
        return flux, d0 * values[0][0] + o0 * second


def table_cell_fluxes(family, cell_values, root_value, depths, cell_depth):
    """The subtree-table sweep of ``graphdn.trees.cell_fluxes``, frozen.

    A verbatim copy of the kernel as it stood before its sweep ran in place
    on one table: one ``_eliminate`` call, two concatenations and a repeat
    per level, with every subtree swept from its leaves and the potential
    integrals carried on every level.  It reuses the package's edge blocks
    and top sweep, so it is a reference for differential tests of the
    kernel's table, not an independent oracle.
    """
    from dataclasses import replace

    from graphdn.edge import edge_dn_blocks, edge_potential_weights
    from graphdn.errors import DomainError, ValidationError
    from graphdn.trees import (
        _b_counts,
        _check_finite,
        _eliminate,
        _reduce,
        class_lengths,
    )

    depths = np.asarray(depths, dtype=int)
    if not len(depths):
        raise DomainError("no truncation depths given")
    n_max = int(depths.max())
    levels = class_lengths(replace(family, depth=n_max))
    cell_values = np.asarray(cell_values, dtype=float)
    given = len(cell_values).bit_length() - 1
    if len(cell_values) != 1 << given:
        raise ValidationError(
            f"need one value per cell of a level, got {len(cell_values)}"
        )
    top = cell_depth
    if top < given:
        raise DomainError(f"depth-{top} cells are coarser than the data's")
    if depths.min() <= top:
        raise DomainError(
            f"depth {depths.min()} does not resolve the depth-{top} cells"
        )
    _check_finite(cell_values, root_value, "cell")
    kappa2 = [family.kappa2_at_level(k + 1) for k in range(n_max)]

    # Level k's classes sit at flat[k (k - 1) / 2 : k (k + 1) / 2]; every
    # edge of levels 1 .. top + 1 (the last are the cells' top edges) reads
    # its class by its b-count.
    flat = np.concatenate(levels)
    potentials = np.repeat(kappa2, range(1, n_max + 1))
    d, o = edge_dn_blocks(flat, potentials)
    w = edge_potential_weights(flat, potentials)
    spans = [slice(k * (k - 1) // 2, k * (k + 1) // 2) for k in range(1, n_max + 1)]
    counts = _b_counts(top + 1)

    def block(k):
        # Level k + 1's edge block, gathered when the sweep reaches it.
        return d[spans[k]][counts[k]], o[spans[k]][counts[k]]

    # Leaf to level top + 1.  The table stacks Y, A and, per distinct data
    # value c, J and B c, so T is J at c = 1.  Its rows are the depths whose
    # leaves lie at or below the current level, deepest first; each starts
    # from leaf values at its own level.
    data, index = np.unique(np.append(cell_values, 1.0), return_inverse=True)
    v = len(data)
    leaves = np.concatenate(([d, w], o * data[:, None], w * data[:, None]))
    rows = np.bincount(depths, minlength=n_max + 1).tolist()
    table = np.empty((2 + 2 * v, 0, n_max))
    for k in range(n_max, top, -1):
        s = spans[k - 1]
        if k < n_max:
            table = table[..., :-1] + table[..., 1:]
            y, a, j, b = table[0], table[1], table[2:2 + v], table[2 + v:]
            pivot, y, j_k = _eliminate(d[s], o[s], kappa2[k - 1], y, j)
            lift = (w[s] + a) / pivot
            table = np.concatenate(([y, w[s] - o[s] * lift], j_k, b - j * lift))
        start = leaves[:, None, s].repeat(rows[k], axis=1)
        table = np.concatenate((table, start), axis=1)
    table = table[:, np.argsort(np.argsort(-depths, kind="stable"))]

    # Each cell reads its class's Y and T, and J and B c at its data value:
    # the cells below data cell g are a run of 2**(top - given), so the data
    # index broadcasts over the run and no per-cell index is built.
    cell = counts[top]
    runs = cell.reshape(len(index) - 1, -1)

    def per_cell(by_value):
        return by_value[index[:-1, None], :, runs].reshape(1 << top, -1).T

    # _reduce gets the only references to the per-cell Y and J, and frees
    # them before it gathers the first block.
    values, y_root, j_root = _reduce(
        block, kappa2[:top], table[0][:, cell], per_cell(table[2:2 + v]), root_value
    )
    # T u + (B c - J), in place, with u the value above each cell's top
    # edge.  B c - J is subtracted per class before the gather, the same
    # operation on the same operands.  `take` returns the rows contiguous:
    # numpy's summation order follows the memory layout, and callers sum
    # over rows and across cells.
    cells = table[2 + index[-1]].take(cell, axis=1)
    cells *= np.repeat(values[-1], (1 << top) // values[-1].shape[-1], axis=-1)
    cells += per_cell(table[2 + v:] - table[2:2 + v])
    return cells, y_root[:, 0] * root_value + j_root[:, 0]
