"""Dirichlet problems, Dirichlet-to-Neumann maps, and boundary measures on
metric graphs with self-similar binary tree families.

Importing the package loads numpy only.  The Dirichlet solver needs
scipy.sparse, so its names below, and the ``graphdn.dirichlet`` module
itself, are imported on first access (PEP 562).  Tree-family exhaustion
(``dn_function``, ``measure_table``, ``quadratic_form``) never loads scipy;
graph construction and Dirichlet solves do.
"""

from importlib import import_module as _import_module

from .edge import EdgeDNBlock, EdgeSolution, edge_dn_block, edge_energy, solve_edge
from .errors import DomainError, SingularInteriorError, ValidationError
from .graph import (
    Edge,
    GraphPoint,
    GraphReport,
    MetricGraph,
    VertexMeta,
    build_graph,
    geodesic_distance,
    graph_report,
)
from .measure import (
    ClopenSet,
    ConvergenceReport,
    MeasureTable,
    SimpleBoundaryFunction,
    dn_at_depth,
    dn_function,
    measure_table,
    quadratic_form,
    symmetry_residual,
)
from .randomwalk import WalkEstimate, random_walk_oracle
from .trees import (
    AlphaBetaSpec,
    HarmonicClosedForm,
    add_shortcut_edges,
    closed_form_harmonic,
    cylinder_leaves,
    generate_ab_tree,
)

_DIRICHLET_NAMES = frozenset({
    "DirichletSolution",
    "DNMatrix",
    "assemble",
    "current_balance",
    "dirichlet_lower_bound",
    "dn_matrix",
    "energy_identity",
    "max_principle_check",
    "solve_dirichlet",
})

# The public names bound above, submodules included, and the lazy ones.
__all__ = sorted(
    {name for name in globals() if not name.startswith("_")}
    | _DIRICHLET_NAMES
    | {"dirichlet"}
)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name != "dirichlet" and name not in _DIRICHLET_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Importing the submodule also binds ``graphdn.dirichlet``; the solver
    # names are bound here, so each lookup runs at most once.
    module = _import_module(".dirichlet", __name__)
    value = module if name == "dirichlet" else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
