"""Monte Carlo oracle for harmonic measure on potential-free graphs.

A simple random walk on an equal-step lattice refinement of the graph has
boundary hitting probabilities equal to the harmonic measure of the walk's
start, provided every edge is an integer number of steps.  This gives an
estimator that is independent of the linear-algebra solve path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .graph import GraphPoint, MetricGraph

__all__ = ["WalkEstimate", "random_walk_oracle"]

_COMMENSURATE_TOL = 1e-9


@dataclass(frozen=True)
class WalkEstimate:
    """Hitting-probability estimates per sorted boundary vertex."""

    boundary: tuple[int, ...]
    probabilities: np.ndarray
    standard_errors: np.ndarray
    walkers: int
    step: float

    def probability_at(self, v: int) -> float:
        return float(self.probabilities[self.boundary.index(v)])


def _lattice(g: MetricGraph, step: float):
    """Nodes: graph vertices first, then chains of interior lattice points."""
    neighbours: list[list[int]] = [[] for _ in range(g.n_vertices)]
    next_id = g.n_vertices
    edge_nodes: list[tuple[int, ...]] = []
    a, b, lengths, _ = g.edge_table
    for i, (x, y, length) in enumerate(zip(a.tolist(), b.tolist(), lengths.tolist())):
        ratio = length / step
        k = int(round(ratio))
        if k < 1 or abs(ratio - k) > _COMMENSURATE_TOL * max(1.0, ratio):
            raise DomainError(
                f"step {step} does not evenly divide edge {i} "
                f"of length {length}"
            )
        chain = [x] + list(range(next_id, next_id + k - 1)) + [y]
        next_id += k - 1
        neighbours.extend([] for _ in range(k - 1))
        for u, v in zip(chain, chain[1:]):
            neighbours[u].append(v)
            neighbours[v].append(u)
        edge_nodes.append(tuple(chain))
    max_deg = max(len(nb) for nb in neighbours)
    nbr = np.zeros((next_id, max_deg), dtype=np.int64)
    deg = np.zeros(next_id, dtype=np.int64)
    for u, nb in enumerate(neighbours):
        deg[u] = len(nb)
        nbr[u, : len(nb)] = nb
    return nbr, deg, edge_nodes


def _start_node(g, step, edge_nodes, start) -> int:
    if isinstance(start, GraphPoint):
        if not (0 <= start.edge < g.n_edges):
            raise DomainError(f"edge index {start.edge} out of range")
        chain = edge_nodes[start.edge]
        j = int(round(start.offset / step))
        if abs(start.offset - j * step) > _COMMENSURATE_TOL * max(1.0, start.offset):
            raise DomainError(
                f"start offset {start.offset} is not a lattice point of "
                f"step {step}"
            )
        if not (0 <= j < len(chain)):
            raise DomainError(f"start offset {start.offset} outside edge")
        return chain[j]
    v = int(start)
    if not (0 <= v < g.n_vertices):
        raise DomainError(f"start vertex {v} out of range")
    return v


def random_walk_oracle(
    g: MetricGraph,
    start,
    step: float,
    walkers: int,
    seed: int = 0,
) -> WalkEstimate:
    """Estimate boundary hitting probabilities of the walk from ``start``.

    Requires a potential-free graph and a ``step`` that divides every edge
    length.  Returns unbiased estimates with their binomial standard errors.
    """
    if g.edge_table[3].any():
        raise DomainError("random walk oracle requires kappa2 = 0 on every edge")
    if walkers < 1:
        raise DomainError(f"walker count must be positive, got {walkers}")
    if not step > 0.0:
        raise DomainError(f"step must be positive, got {step}")
    if not g.boundary:
        raise DomainError("graph has no boundary vertex to absorb walkers")

    nbr, deg, edge_nodes = _lattice(g, step)
    start_node = _start_node(g, step, edge_nodes, start)

    boundary = g.boundary_vertices
    absorbing = np.zeros(nbr.shape[0], dtype=bool)
    b_index = np.full(nbr.shape[0], -1, dtype=np.int64)
    for i, v in enumerate(boundary):
        absorbing[v] = True
        b_index[v] = i

    rng = np.random.default_rng(seed)
    pos = np.full(walkers, start_node, dtype=np.int64)
    counts = np.zeros(len(boundary), dtype=np.int64)
    while pos.size:
        hit = absorbing[pos]
        if hit.any():
            counts += np.bincount(b_index[pos[hit]], minlength=len(boundary))
            pos = pos[~hit]
            if not pos.size:
                break
        choice = rng.integers(0, deg[pos])
        pos = nbr[pos, choice]

    p = counts / float(walkers)
    se = np.sqrt(p * (1.0 - p) / float(walkers))
    p.flags.writeable = False
    se.flags.writeable = False
    return WalkEstimate(
        boundary=boundary,
        probabilities=p,
        standard_errors=se,
        walkers=walkers,
        step=step,
    )
