"""Self-similar binary tree families, truncations, and closed-form harmonics.

The two-parameter family here is the binary tree whose root boundary vertex
hangs by a single edge from the first branching vertex; every deeper vertex
has one parent edge and two child edges whose lengths are ``alpha`` and
``beta = 1 - alpha`` times the parent edge length.  Truncating at a finite
combinatorial depth leaves the root vertex and the deepest generation as the
(relative) boundary, while leaf child-addresses over ``{a, b}`` index the
cylinder subsets of the ideal boundary.

For the potential-free equation there is an explicit harmonic family pinned
by a linear function on the root edge; it is level-constant and its
descending edge slopes obey a closed product formula, which makes it a sharp
oracle for the numerical solver.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .edge import edge_dn_blocks, edge_potential_weights
from .errors import DomainError, ValidationError
from .graph import MetricGraph, _graph_from_table, address_code, address_of

__all__ = [
    "AlphaBetaSpec",
    "MAX_GRAPH_EDGES",
    "MAX_SWEEP_EDGES",
    "class_lengths",
    "level_lengths",
    "LevelSolution",
    "level_sweep",
    "cell_fluxes",
    "cylinder_slice",
    "generate_ab_tree",
    "HarmonicClosedForm",
    "closed_form_harmonic",
    "ShortcutReport",
    "add_shortcut_edges",
    "cylinder_leaves",
    "address_index",
]

_MIN_EDGE_LENGTH = 1e-300

# Size ceilings, in edges, checked before anything is allocated.  Peak RSS
# above the import baseline, measured for one alpha = 0.3 call on a 7 GB,
# 2-core x86-64 VM (CPython 3.11, numpy 2.4): generate_ab_tree took 6 MB at
# depth 15, 26 MB at depth 17 and 105 MB at depth 19 (about 0.2 KB per
# edge: the table check's scratch arrays, over a 40 B per edge table and an
# 8 B per vertex address-code column); a level sweep took 56 MB at depth 20
# and 227 MB at depth 22 (about 57 B per edge).
# MAX_SWEEP_EDGES bounds the truncation depth n of level_sweep and of
# exhaustion, and so the depth M < n of the cells read.  Exhaustion sweeps
# only its 2**C coarse cells and reads E per prefix: through a depth-23 cell
# dn_function peaks at the interpreter's own 60 MB; cell_fluxes returns 8 B
# per cell and depth.  Each ceiling keeps one call under about 1 GB: depth
# 20 (0.2 GB predicted) for the graph, depth 24 for the sweeps.
MAX_GRAPH_EDGES = 2**20 - 1
MAX_SWEEP_EDGES = 2**24 - 1


@dataclass(frozen=True)
class AlphaBetaSpec:
    """Parameters of a truncated binary scaling tree.

    ``alpha`` in (0, 1) fixes the child-length split (the other child gets
    ``1 - alpha``); ``depth`` is the truncation level (>= 1); edge weights
    follow the summable geometric schedule ``weight_ratio ** level`` with
    ``weight_ratio <= 1/2`` so total weight stays finite as depth grows;
    ``kappa2_per_level`` lists the edge potential per level (level 1 is the
    root edge), zero beyond the end of the tuple.
    """

    alpha: float
    depth: int
    root_length: float = 1.0
    weight_ratio: float = 1.0 / 3.0
    kappa2_per_level: tuple[float, ...] = ()

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValidationError(f"alpha out of range (0, 1): {self.alpha}")
        if self.depth < 1:
            raise ValidationError(f"depth must be at least 1, got {self.depth}")
        if not (self.root_length > 0.0 and math.isfinite(self.root_length)):
            raise ValidationError(f"root length must be positive: {self.root_length}")
        if not (0.0 < self.weight_ratio <= 0.5):
            raise ValidationError(
                f"weight ratio must lie in (0, 1/2]: {self.weight_ratio}"
            )
        object.__setattr__(self, "kappa2_per_level", tuple(self.kappa2_per_level))
        for k, q in enumerate(self.kappa2_per_level):
            if not (q >= 0.0 and math.isfinite(q)):
                raise ValidationError(
                    f"potential at level {k + 1} must be nonnegative: {q}"
                )

    @property
    def beta(self) -> float:
        return 1.0 - self.alpha

    def kappa2_at_level(self, level: int) -> float:
        if 1 <= level <= len(self.kappa2_per_level):
            return self.kappa2_per_level[level - 1]
        return 0.0

    def family_key(self) -> tuple:
        """Identity of the infinite family, ignoring the truncation depth."""
        return (
            self.alpha,
            self.root_length,
            self.weight_ratio,
            self.kappa2_per_level,
        )


def _check_depth(
    family: AlphaBetaSpec, depth: int, max_edges: int, what: str
) -> None:
    """Refuse a depth-``depth`` truncation of the family as a spec of that
    depth would, or as the ``max_edges`` ceiling and the shortest edge do."""
    if depth < 1:
        raise ValidationError(f"depth must be at least 1, got {depth}")
    # A depth-n truncation has 2**n - 1 edges; compare depths, so that a
    # huge depth is refused without computing its edge count.
    largest = (max_edges + 1).bit_length() - 1
    if depth > largest:
        raise ValidationError(
            f"depth {depth} exceeds the {what} limit of {max_edges} edges "
            f"(largest depth {largest})"
        )
    shortest = family.root_length * min(family.alpha, family.beta) ** (depth - 1)
    if shortest < _MIN_EDGE_LENGTH:
        raise ValidationError(
            f"depth {depth} underflows the shortest edge length "
            f"({shortest:.3e} < {_MIN_EDGE_LENGTH:.0e})"
        )


def _check_cell_depth(depth: int) -> None:
    """Refuse cells too deep for any truncation under ``MAX_SWEEP_EDGES``.

    Depth-``M`` cells resolve from depth ``M + 1`` on; callers check this
    before they enumerate the ``2**M`` cells.
    """
    largest = (MAX_SWEEP_EDGES + 1).bit_length() - 1
    if depth >= largest:
        raise ValidationError(
            f"depth-{depth} cells need a truncation past the level-array limit "
            f"of {MAX_SWEEP_EDGES} edges (deepest cells {largest - 1})"
        )


def class_lengths(spec: AlphaBetaSpec) -> list[np.ndarray]:
    """Edge lengths of the truncation per level and b-count.

    This is the family's one length formula.  Entry ``k - 1`` holds the
    ``k`` class lengths of level ``k``: an edge reached from the root edge
    by ``i`` b-steps and ``k - 1 - i`` a-steps has length
    ``root_length * alpha**(k - 1 - i) * beta**i``, so the edges of a class,
    and the subtrees below them, are equal.  Each length is that product of
    the three floats, exact as a ratio of integers and rounded once (within
    half an ulp).  The entries are read-only views of one array.  Refuses
    depths beyond ``MAX_SWEEP_EDGES``.
    """
    _check_depth(spec, spec.depth, MAX_SWEEP_EDGES, "level-array")
    flat = _class_lengths(spec, spec.depth)
    flat.flags.writeable = False
    return [flat[k * (k - 1) // 2:k * (k + 1) // 2] for k in range(1, spec.depth + 1)]


def _class_lengths(family: AlphaBetaSpec, depth: int) -> np.ndarray:
    """:func:`class_lengths` of levels ``1 .. depth`` as one flat array, level
    ``k``'s classes at ``[k (k - 1) / 2, k (k + 1) / 2)``; the depth is
    not checked."""
    # Each product is an exact Python int over 2**e, held as (int, e):
    # float(n) rounds once and ldexp scales the normal lengths _check_depth
    # admits exactly; from 1000 bits, where float(n) nears overflow, the int
    # true division rounds once instead.
    (an, ad), (bn, bd) = family.alpha.as_integer_ratio(), family.beta.as_integer_ratio()
    ea, eb = ad.bit_length() - 1, bd.bit_length() - 1
    rn, rd = family.root_length.as_integer_ratio()
    ratios, lengths = [(rn, rd.bit_length() - 1)], []
    for _ in range(depth):
        lengths += [math.ldexp(float(n), -e) if n.bit_length() < 1000
                    else n / (1 << e) for n, e in ratios]
        # Class i one level down: an a-step from class i, or for the last
        # class a b-step from the class above it.
        last_n, last_e = ratios[-1]
        ratios = [(n * an, e + ea) for n, e in ratios] + [(last_n * bn, last_e + eb)]
    return np.array(lengths)


def _b_counts(depth: int) -> list[np.ndarray]:
    """Per level, each edge's number of b-steps (its class), in address order."""
    counts = [np.zeros(1, dtype=np.uint8)]
    step = np.array([0, 1], dtype=np.uint8)
    for _ in range(depth - 1):
        counts.append((counts[-1][:, None] + step).ravel())
    return counts


def level_lengths(spec: AlphaBetaSpec) -> list[np.ndarray]:
    """Edge lengths of the truncation, one array per level.

    Entry ``k`` holds the level-``k + 1`` edges in address order (entry 0
    is the root edge), each its class's length from :func:`class_lengths`.
    Refuses depths beyond ``MAX_SWEEP_EDGES``.
    """
    return [x[i] for x, i in zip(class_lengths(spec), _b_counts(spec.depth))]


def generate_ab_tree(spec: AlphaBetaSpec) -> MetricGraph:
    """Build the depth-``spec.depth`` truncation as a metric graph.

    Vertex 0 is the root boundary vertex, vertex 1 the first branching
    vertex; deeper vertices appear level by level in address order, so the
    parent of vertex ``v >= 2`` is ``v // 2`` and each vertex id is its
    address code.  The boundary is the root vertex plus the deepest
    generation.  Refuses depths beyond ``MAX_GRAPH_EDGES``.
    """
    _check_depth(spec, spec.depth, MAX_GRAPH_EDGES, "metric-graph")
    # Edge i enters vertex i + 1 from its parent; level k holds 2**(k - 1)
    # edges, whose weight is the Python float weight_ratio**k.
    heads = np.arange(1, 2**spec.depth, dtype=np.intp)
    per_level = 2 ** np.arange(spec.depth)
    levels = range(1, spec.depth + 1)
    weights = np.array([spec.weight_ratio**k for k in levels])
    kappa2 = np.array([spec.kappa2_at_level(k) for k in levels], dtype=float)
    columns = (
        heads // 2,
        heads,
        np.concatenate(level_lengths(spec)),
        np.repeat(weights, per_level),
        np.repeat(kappa2, per_level),
    )
    leaves = range(2 ** (spec.depth - 1), 2**spec.depth)
    codes = np.arange(2**spec.depth, dtype=np.int64)
    return _graph_from_table(columns, boundary={0, *leaves}, codes=codes)


@dataclass(frozen=True)
class LevelSolution:
    """A truncation's Dirichlet solution, held per level.

    ``values[k]`` are the vertex values at level ``k`` in address order:
    level 0 is the root boundary vertex and the last level the leaves, so
    the concatenation follows :func:`generate_ab_tree`'s vertex ids.
    ``leaf_flux`` and ``root_flux`` are the outward boundary derivatives.
    """

    values: tuple[np.ndarray, ...]
    leaf_flux: np.ndarray
    root_flux: float

    @property
    def depth(self) -> int:
        return len(self.values) - 1


def _check_finite(values: np.ndarray, root_value: float, what: str) -> None:
    if not math.isfinite(root_value):
        raise ValidationError(f"non-finite boundary value {root_value} at the root")
    if np.isfinite(values).all():
        return
    bad = np.flatnonzero(~np.isfinite(values))[0]
    raise ValidationError(f"non-finite boundary value {values[bad]} at {what} {bad}")


def _eliminate(d, o, kappa2, y_v, j_v):
    """Kron-eliminate the lower vertex of edges with blocks ``(d, o)``.

    ``Y_v u_v + J_v`` is what the subtrees below the lower vertex draw at
    it; the edge together with them then draws ``Y u + J`` at its upper
    vertex ``u``.  Returns the pivot ``d + Y_v`` and ``(Y, J)``, using
    ``d**2 - o**2 = kappa2`` to avoid cancellation; kappa2 is added only
    where it is not 0, as adding 0 to a positive ``d Y_v`` changes nothing.
    """
    pivot, y = d + y_v, d * y_v
    if kappa2:
        y += kappa2
    y /= pivot  # in place: no second level-wide array is held
    return pivot, y, -o * j_v / pivot


def _reduce(block, kappa2, y, j, root_value):
    """Sweep levels up, then their vertex values down.

    ``block(k)`` returns the level-``k + 1`` edge block for the
    ``len(kappa2)`` levels swept, and ``y``, ``j`` are the admittance and
    transfer of the edges one level below the last of them (address order
    on the last axis; leading axes batch problems with the same root
    value).  Returns the vertex values of levels 0 through ``len(kappa2)``
    and the ``(Y, J)`` drawn through the top edge.

    Each level's block is asked for when the sweep reaches it, going up and
    again coming down, and dropped after.  Going up, a level's sums over
    child pairs are formed before its block is asked for, and the level
    below is dropped then; coming down, each pivot is dropped once used.  A
    caller that keeps no reference to ``y`` and ``j`` thus lets the widest
    level go before any block is gathered.
    """
    pivots = []
    for k in reversed(range(len(kappa2))):
        y_v, j_v = y[..., 0::2] + y[..., 1::2], j[..., 0::2] + j[..., 1::2]
        del y, j  # the level below goes before this level's blocks come
        d, o = block(k)
        pivot, y, j = _eliminate(d, o, kappa2[k], y_v, j_v)
        pivots.append((pivot, j_v))
    values = [np.full(y.shape[:-1] + (1,), float(root_value))]
    for k in range(len(kappa2)):
        _, o = block(k)
        pivot, j_v = pivots.pop()
        above = values[-1].repeat(o.shape[-1] // values[-1].shape[-1], axis=-1)
        values.append(-(o * above + j_v) / pivot)
    return values, y, j


def level_sweep(
    blocks: list[tuple[np.ndarray, np.ndarray]],
    kappa2: list[float],
    leaf_values: np.ndarray,
    root_value: float,
) -> LevelSolution:
    """Solve a truncation by eliminating the tree level by level.

    ``blocks[k]`` is the level-``k + 1`` edge block ``(diag, off)`` from
    :func:`graphdn.edge.edge_dn_blocks` over that level's lengths (as from
    :func:`level_lengths`) and potential ``kappa2[k]``; the Dirichlet data
    are ``leaf_values`` in address order and ``root_value``.  This is Kron
    reduction on a tree, O(edges) and with no matrix.  Leaf to root, the
    subtree hanging from each edge draws the outward flux ``Y u + J`` at
    the edge's upper vertex ``u``; with ``d``, ``o`` the edge block entries
    and ``Y_v``, ``J_v`` the sums over the lower vertex's children,

        Y = (kappa2 + d Y_v) / (d + Y_v),    J = -o J_v / (d + Y_v),

    which uses ``d**2 - o**2 = kappa2`` to avoid cancellation.  Root to
    leaf, Kirchhoff at each interior vertex gives
    ``u_v = -(o u_parent + J_v) / (d + Y_v)``; boundary fluxes come from
    the edge closed forms.  This is the explicit reference: each leaf flux
    ``d g + o u_parent`` carries a rounding error of about ``eps |u| / l``
    of its short leaf edge, so a cylinder's leaf sum is noisy on deep
    truncations; :func:`cell_fluxes` reads it on the cylinder's top edge.
    """
    leaf_values = np.asarray(leaf_values, dtype=float)
    _check_finite(leaf_values, root_value, "leaf")
    d, o = blocks[-1]
    values, _, _ = _reduce(
        blocks.__getitem__, kappa2[:-1], d, o * leaf_values, root_value
    )
    above = np.repeat(values[-1], len(d) // len(values[-1]))
    leaf_flux = d * leaf_values + o * above
    values.append(leaf_values)
    d, o = blocks[0]
    root_flux = float(d[0] * values[0][0] + o[0] * values[1][0])
    return LevelSolution(values=tuple(values), leaf_flux=leaf_flux, root_flux=root_flux)


def _admittances(alpha: float, beta: float, count: int) -> list[float]:
    """Scaled admittances ``y(1), ..., y(count)`` of potential-free subtrees.

    Under constant data ``c``, the potential-free subtree of a truncation
    that hangs from an edge of length ``l`` and is ``m`` levels deep,
    counting the edge, draws ``y(m) / l * (u - c)`` through it.  A leaf
    edge has ``y(1) = 1``; an edge in series with its two children, whose
    lengths ``alpha l`` and ``beta l`` put their subtrees in parallel, has
    ``y(m + 1) = y(m) / (y(m) + alpha beta)``.  The sequence tends to the
    infinite subtree's fixed point ``1 - alpha beta``, its error shrinking
    by a factor of about ``alpha beta`` per level.
    """
    ab, y = alpha * beta, [1.0]
    for _ in range(count - 1):
        y.append(y[-1] / (y[-1] + ab))
    return y


def _coarse_fluxes(family, kappa2, deepest, depths, data, root_value, top):
    """:func:`_exhaustion`'s ``(coarse, root)`` read on the top edges of the
    depth-``top`` coarse cells, with data ``data`` and a potential on level
    ``P = deepest`` and none below it.

    Below level ``top`` every subtree has constant data ``c``, and its
    edges follow from its top edge's class, the level and b-count that fix
    its length in :func:`class_lengths`; a class's children are its own and
    the next class one level down.  With ``u`` the value above its top
    edge, a subtree draws ``Y u + J``, ``J = T c``, through that edge and
    holds the potential integral ``A u + B c``.  Every subtree below level
    ``S = max(top, P)`` is a scaled copy of one potential-free subtree,
    whose admittance one recurrence gives (:func:`_admittances`):
    ``T = -Y`` and ``A = B = 0``.  One table, one row per depth, starts
    there at level ``S + 1`` and is swept in place by the elimination step
    of :func:`level_sweep` over the potential levels ``top + 1 .. P``
    only; shallower rows enter as leaves at their own level.  Only the top
    levels are swept edge by edge.  By current balance a coarse cell's
    flux is ``A u + B c - (Y u + J)`` on its top edge, which the symmetry
    of the subtree's two-terminal map turns into the cancellation-free
    ``T u + (B c - J)``; no leaf flux is summed.
    """
    listed = depths.tolist()
    n_max, seed = max(listed), max(top, deepest)
    # Class lengths for levels 1 .. seed + 1, level k's at flat[k (k - 1) / 2
    # : k (k + 1) / 2]; an edge of levels 1 .. top + 1 (the last are the
    # coarse cells' top edges) reads its class by its b-count.  Below level
    # P an edge is a conductance, (1 / l, -1 / l), as edge_dn_blocks gives
    # bit for bit at z = 0, and holds no potential integral.
    levels = min(n_max, seed + 1)
    kappa2 += (0.0,) * (levels - len(kappa2))
    flat = _class_lengths(family, levels)
    d = 1.0 / flat
    o, w = -d, np.zeros(len(flat))
    hot = slice(deepest * (deepest + 1) // 2)
    potentials = np.repeat(kappa2[:deepest], range(1, deepest + 1))
    d[hot], o[hot] = edge_dn_blocks(flat[hot], potentials)
    w[hot] = edge_potential_weights(flat[hot], potentials)

    # The table (Y, T, A, B) x depths x classes starts at level seed + 1,
    # and a shallower depth holds these finite values until it enters as a
    # leaf at its level.  It is swept in place over the levels top + 1 ..
    # seed, and each coarse cell's J at its own datum beside it on its
    # subtree's classes: the level sweep's own operations on the same
    # operands.  y[n] is y(n - seed) for a depth n below the seed level.
    y = _admittances(family.alpha, family.beta, n_max - seed)
    y = y[:1] * (seed + 1) + y
    table = np.empty((4, len(listed), levels))
    np.divide.outer([y[n] for n in listed], -flat[-levels:], out=table[1])
    np.negative(table[1], out=table[0])
    table[2:] = 0.0
    counts = _b_counts(top + 1)
    cell = counts[top]
    subtree = np.add.outer(cell, range(levels - top))
    j = table[1][:, subtree] * data[:, None]
    for k in range(levels, top, -1):
        s, offsets = slice(k * (k - 1) // 2, k * (k + 1) // 2), subtree[:, :k - top]
        if k < levels:
            table[..., :k] += table[..., 1:k + 1]
            y_v, t_v, a_v, b_v = table[..., :k]
            pivot = d[s] + y_v
            lift = (w[s] + a_v) / pivot
            b_v -= t_v * lift
            a_v[...] = w[s] - o[s] * lift
            y_v *= d[s]
            if kappa2[k - 1]:
                y_v += kappa2[k - 1]
            y_v /= pivot
            t_v *= -o[s]
            t_v /= pivot
            j[..., :k - top] += j[..., 1:k - top + 1]
            j[..., :k - top] *= -o[s][offsets]
            j[..., :k - top] /= pivot[:, offsets]
        if k <= deepest:
            entering = depths == k
            table[:, entering, :k] = np.array((d[s], o[s], w[s], w[s]))[:, None]
            j[entering, :, :k - top] = o[s][offsets] * data[:, None]
    y_c, t, b_j = table[[0, 1, 3]][..., cell]
    j = j[..., 0]
    b_j *= data
    b_j -= j

    # The top levels are swept edge by edge, each level's blocks gathered by
    # b-count when the sweep reaches it.
    spans = [slice(k * (k - 1) // 2, k * (k + 1) // 2) for k in range(1, top + 1)]

    def block(k):
        return d[spans[k]][counts[k]], o[spans[k]][counts[k]]

    if top:
        values, y_c, j = _reduce(block, kappa2[:top], y_c, j, root_value)
        t *= values[-1].repeat(2, axis=-1)
    else:
        t *= root_value
    t += b_j
    return t, y_c[:, 0] * root_value + j[:, 0]


def _exhaustion(family, cell_values, root_value, depths, cell_depth):
    """The exhaustion kernel: ``(coarse, root, lam, details, scale)``, the
    data-linear ones for the data times ``2**-scale``.

    With ``g`` the data's depth, ``M = cell_depth`` and ``P`` the deepest
    level with a potential, ``coarse[i]`` and ``root[i]`` are the
    depth-``depths[i]`` fluxes through the coarse cells, of depth ``C``,
    and the root for F's means on the coarse cells, which are constant on
    each.  No edge below a coarse cell has a potential, so its current
    splits among the cells below it by their ``mu`` share, and each of F's
    Haar modes below the coarse cells adds ``mu(w) lam_k Delta_k(w)`` to a
    cell ``w`` under its vertex.

    Without a potential ``C = 0``, and F enters through its Haar modes: a
    depth-``k`` vertex's Haar function, ``alpha`` on its a-subtree and
    ``-beta`` on its b-subtree, has ``mu``-mean 0, so the vertex stays at
    0 and the function is an eigenfunction of every truncation.
    ``details[k]`` is ``Delta_k`` on the depth-``k + 1`` vertices,
    ``alpha D`` on an a-child and ``-beta D`` on a b-child with ``D`` the
    difference of the children's means, and ``lam[i, k] = y(n - k - 1) /
    (root_length (alpha beta)**(k + 1))``; the root mode draws ``y(n) /
    root_length (r - E_0 f)`` through the root edge.  With a potential,
    the modes of a cell it shields cancel far below their size, so the
    coarse cells are F's own cells or deeper, ``C = min(M, max(g, P -
    1))``, read on their top edges by :func:`_coarse_fluxes`, and there
    are no modes.
    """
    depths = np.asarray(depths, dtype=int)
    listed = depths.tolist()
    if not listed:
        raise DomainError("no truncation depths given")
    n_max = max(listed)
    _check_depth(family, n_max, MAX_SWEEP_EDGES, "level-array")
    cell_values = np.asarray(cell_values, dtype=float)
    given = len(cell_values).bit_length() - 1
    if len(cell_values) != 1 << given:
        raise ValidationError(
            f"need one value per cell of a level, got {len(cell_values)}"
        )
    if cell_depth < given:
        raise DomainError(f"depth-{cell_depth} cells are coarser than the data's")
    if min(listed) <= cell_depth:
        raise DomainError(
            f"depth {min(listed)} does not resolve the depth-{cell_depth} cells"
        )
    _check_finite(cell_values, root_value, "cell")
    alpha, beta = family.alpha, family.beta
    kappa2 = family.kappa2_per_level[:n_max]
    deepest = max((k + 1 for k, q in enumerate(kappa2) if q), default=0)
    top = min(cell_depth, max(deepest - 1, given)) if deepest else 0
    # The fluxes are linear in the data: they are computed for the data
    # scaled exactly by 2**-scale to below 1 in size, so no value in between
    # overflows or loses digits below the normal range.
    _, scale = math.frexp(max(np.abs(cell_values).max(), abs(root_value)))
    root_value = math.ldexp(root_value, -scale)

    # The detail pyramid, finest first: E_k f(w) = beta E_(k+1) f(wa) +
    # alpha E_(k+1) f(wb), down to the means on the coarse cells.
    data, details = np.ldexp(cell_values, -scale), []
    while len(data) > 1 << top:
        diff = data[0::2] - data[1::2]
        details.append(np.multiply.outer(diff, (alpha, -beta)).ravel())
        data = beta * data[0::2] + alpha * data[1::2]
    details.reverse()

    if deepest:
        coarse, root = _coarse_fluxes(
            family, kappa2, deepest, depths, data.repeat(1 << top - given),
            root_value, top,
        )
        return coarse, root, np.zeros((len(listed), 0)), details, scale
    # Mode k's eigenvalue in the depth-n truncation, y(n - k) / (root_length
    # (alpha beta)**k), the root mode's at k = 0.
    y = _admittances(alpha, beta, n_max)
    lam = np.array([[y[n - k - 1] for k in range(given + 1)] for n in listed])
    lam /= [family.root_length * alpha**k * beta**k for k in range(given + 1)]
    root = lam[:, 0] * (root_value - data[0])
    return -root[:, None], root, lam[:, 1:], details, scale


def cell_fluxes(
    family: AlphaBetaSpec,
    cell_values: np.ndarray,
    root_value: float,
    depths: Sequence[int],
    cell_depth: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Outward fluxes of several truncations through depth-``M`` cells.

    The Dirichlet data are ``cell_values`` on the cells of one level, in
    address order, and ``root_value`` at the root; ``M = cell_depth`` is
    at least as deep as that level.  Returns ``(cells, root)``:
    row ``i`` of ``cells`` holds the depth-``depths[i]`` truncation's flux
    through each depth-``M`` cell (the sum of its leaves' outward
    derivatives) and ``root[i]`` its root flux.

    Each cell takes its ``mu`` share of its coarse cell's flux from
    :func:`_exhaustion`, plus its Haar terms: ``mu`` gives ``beta`` to an
    a-child and ``alpha`` to a b-child.  Rows are C-contiguous: numpy's
    summation order follows the memory layout, and callers sum over rows
    and across cells.
    """
    coarse, root, lam, details, scale = _exhaustion(
        family, cell_values, root_value, depths, cell_depth
    )
    top = coarse.shape[1].bit_length() - 1
    cells = coarse.repeat(1 << cell_depth - top, axis=1)
    cells *= np.tile(_masses(family, cell_depth - top), 1 << top)
    # Each mode adds mu(cell) lam_k Delta_k to the cells under its vertex.
    if details:
        mass = _masses(family, cell_depth)
        for k, delta in enumerate(details):
            cells += np.multiply.outer(lam[:, k], mass * delta.repeat(len(mass) // len(delta)))
    return np.ldexp(cells, scale), np.ldexp(root, scale)


def _masses(family: AlphaBetaSpec, depth: int) -> np.ndarray:
    """``mu`` of each depth-``depth`` cell, in address order: a cell ``i``
    b-steps down has ``beta**(depth - i) * alpha**i``."""
    i = np.arange(depth + 1)
    return (family.beta ** (depth - i) * family.alpha**i)[_b_counts(depth + 1)[depth]]


def cylinder_slice(prefix: str, depth: int) -> slice:
    """Leaf positions (address order) of a prefix cylinder at this depth.

    The depth-``depth`` leaves are the ``2**(depth - 1)`` addresses of
    length ``depth - 1``; those extending ``prefix`` are contiguous.
    """
    code = address_code(prefix)
    shift = depth - 1 - len(prefix)
    if shift < 0:
        raise DomainError(f"prefix {prefix!r} is deeper than the depth-{depth} leaves")
    # A leaf's position is its code less the first leaf's, 1 << (depth - 1).
    first = (code << shift) - (1 << (depth - 1))
    return slice(first, first + (1 << shift))


def _address_codes(g: MetricGraph, what: str = "address") -> np.ndarray:
    if g.address_codes is None:
        raise DomainError(f"graph carries no {what} metadata")
    return g.address_codes


def address_index(g: MetricGraph) -> dict[str, int]:
    """Map each vertex address to its id; requires tree metadata."""
    codes = _address_codes(g)
    (tagged,) = np.nonzero(codes > 0)
    return dict(zip(map(address_of, codes[tagged].tolist()), tagged.tolist()))


def cylinder_leaves(
    g: MetricGraph, prefix: str, include_root_vertex: bool = False
) -> tuple[int, ...]:
    """Truncation boundary vertices whose cells meet the prefix cylinder.

    A leaf at address ``s`` heads the cylinder of boundary paths extending
    ``s``; it belongs to the prefix cylinder when one address extends the
    other.  ``include_root_vertex`` prepends the root boundary vertex, for
    clopen sets that contain it.
    """
    # Only a prefix's first 62 symbols can meet a code of the column.
    code = address_code(prefix) >> max(len(prefix) - 62, 0)
    ends = np.array(g.boundary_vertices, dtype=np.intp)
    codes = _address_codes(g)[ends]
    # One address extends the other when the longer code, cut to the
    # shorter one's bit length, equals it.
    bits, top = np.searchsorted(1 << np.arange(63), codes, "right"), code.bit_length()
    common = np.minimum(bits, top)
    meets = (codes > 0) & (codes >> (bits - common) == code >> (top - common))
    out = ends[meets].tolist()
    if include_root_vertex:
        roots = ends[codes == 0]
        if not len(roots):
            raise DomainError("graph has no root boundary vertex")
        return (int(roots[0]), *out)
    return tuple(out)


@dataclass(frozen=True)
class HarmonicClosedForm:
    """The explicit harmonic family pinned by ``u = c x + d`` on the root edge.

    Descending slopes (parent toward child) multiply by ``beta`` on an
    a-child and ``alpha`` on a b-child, so the slope below address ``s`` is
    ``c`` times a product over the characters of ``s``; rises per edge are
    ``c l0 (alpha beta)^level``, making values equal across each level.
    """

    spec: AlphaBetaSpec
    root_slope: float
    root_value: float

    def value_at_level(self, level: int) -> float:
        ab = self.spec.alpha * self.spec.beta
        partial = (1.0 - ab**level) / (1.0 - ab)
        return self.root_value + self.root_slope * self.spec.root_length * partial

    def limit_value(self) -> float:
        ab = self.spec.alpha * self.spec.beta
        return self.root_value + self.root_slope * self.spec.root_length / (1.0 - ab)

    def vertex_value(self, address: str) -> float:
        address_code(address)  # refuses a bad symbol
        return self.value_at_level(len(address) + 1)

    def slope_below(self, address: str) -> float:
        """Descending slope on the edge entering the vertex at ``address``."""
        address_code(address)  # refuses a bad symbol
        slope = self.root_slope
        for ch in address:
            slope *= self.spec.beta if ch == "a" else self.spec.alpha
        return slope

    def values_on(self, g: MetricGraph) -> np.ndarray:
        out = []
        for v, code in enumerate(_address_codes(g, "level").tolist()):
            if code < 0:
                raise DomainError(f"vertex {v} carries no level metadata")
            level = code.bit_length()
            out.append(self.value_at_level(level) if level else self.root_value)
        return np.array(out)

    def descending_slopes_on(self, g: MetricGraph) -> np.ndarray:
        """Per-edge descending slope, in edge order."""
        codes, out = _address_codes(g), []
        a, b, _, _ = g.edge_table
        for i, ends in enumerate(zip(codes[a].tolist(), codes[b].tolist())):
            if min(ends) < 0:
                raise DomainError(f"edge {i} endpoint carries no metadata")
            # The deeper endpoint is the child, the a-endpoint on a tie.
            out.append(self.slope_below(address_of(max(ends, key=int.bit_length))))
        return np.array(out)

    def boundary_data(self, g: MetricGraph) -> dict[int, float]:
        values = self.values_on(g)
        return {v: float(values[v]) for v in g.boundary_vertices}


def closed_form_harmonic(
    spec: AlphaBetaSpec, c: float, d: float
) -> HarmonicClosedForm:
    """Closed-form harmonic extension of ``u = c x + d`` on the root edge."""
    return HarmonicClosedForm(spec=spec, root_slope=float(c), root_value=float(d))


@dataclass(frozen=True)
class ShortcutReport:
    """Premise checks for tree-plus-shortcuts comparability.

    ``distortion_bound`` is the largest sampled ratio of tree distance to
    decorated distance; the decorated distance never exceeds the tree's, so
    the bound is at least 1.  Sampled, not exhaustive.
    """

    shortcut_count: int
    lengths_nonincreasing: bool
    distortion_bound: float
    sampled_pairs: int


def add_shortcut_edges(
    tree: MetricGraph,
    shortcuts: list[tuple[int, int, float]],
    sample_pairs: int = 64,
    seed: int = 0,
) -> tuple[MetricGraph, ShortcutReport]:
    """Decorate a tree with extra edges and report the comparability premise.

    A shortcut's weight is the smallest weight among the edges at its
    endpoints.  The report checks that shortcut lengths are nonincreasing in
    the given order and estimates the metric distortion on a sampled set of
    vertex pairs.
    """
    from scipy.sparse.csgraph import dijkstra

    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValidationError(f"seed must be a nonnegative integer, got {seed}")
    a, b, length, kappa2 = tree.edge_table
    ends, sizes, weights = [], [], []
    for u, v, size in shortcuts:
        if not all(
            isinstance(x, numbers.Integral) and 0 <= x < tree.n_vertices for x in (u, v)
        ):
            raise ValidationError(f"shortcut endpoint ({u}, {v}) is not a vertex")
        if not (size > 0.0 and math.isfinite(size)):
            raise ValidationError(f"shortcut length must be positive: {size}")
        # Smallest incident weight keeps the total weight summable under the
        # generator's geometric schedule; weights never enter the equation.
        incident = (a == u) | (b == u) | (a == v) | (b == v)
        weights.append(float(tree.weights[incident].min()))
        ends.append((int(u), int(v)))
        sizes.append(float(size))
    ends = np.array(ends, dtype=np.intp).reshape(-1, 2)
    columns = (
        np.concatenate((a, ends[:, 0])),
        np.concatenate((b, ends[:, 1])),
        np.concatenate((length, sizes)),
        np.concatenate((tree.weights, weights)),
        np.concatenate((kappa2, np.zeros(len(sizes)))),
    )
    decorated = _graph_from_table(columns, tree.boundary, codes=tree.address_codes)

    nonincreasing = all(
        sizes[i + 1] <= sizes[i] + 1e-15 for i in range(len(sizes) - 1)
    )

    # Each pair's distance is read from its first vertex's row of one
    # Dijkstra sweep per graph over the sample's distinct first vertices.
    rng = np.random.default_rng(seed)
    u, v = rng.integers(0, tree.n_vertices, size=(sample_pairs, 2)).T
    u, v = u[u != v], v[u != v]
    sources, row = np.unique(u, return_inverse=True)
    d_tree, d_dec = (
        dijkstra(g._vertex_csr, directed=False, indices=sources)[row, v]
        for g in (tree, decorated)
    )
    ratios = d_tree[d_dec > 0.0] / d_dec[d_dec > 0.0]
    report = ShortcutReport(
        shortcut_count=len(shortcuts),
        lengths_nonincreasing=nonincreasing,
        distortion_bound=float(ratios.max(initial=1.0)),
        sampled_pairs=len(u),
    )
    return decorated, report
