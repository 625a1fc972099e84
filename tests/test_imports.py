"""Import hygiene: ``import graphdn``, ``graphdn.fileio`` and tree-family
exhaustion load no scipy.

The Dirichlet solver's names are imported on first access, so each check
runs in a fresh child interpreter, where nothing has loaded scipy yet.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import graphdn

# Every public name of the package, by the module that defines it; the
# module names themselves are public too.
PUBLIC = {
    "dirichlet": (
        "DNMatrix", "DirichletSolution", "assemble", "current_balance",
        "dirichlet_lower_bound", "dn_matrix", "energy_identity",
        "max_principle_check", "solve_dirichlet",
    ),
    "edge": ("EdgeDNBlock", "EdgeSolution", "edge_dn_block", "edge_energy", "solve_edge"),
    "errors": ("DomainError", "SingularInteriorError", "ValidationError"),
    "graph": (
        "Edge", "GraphPoint", "GraphReport", "MetricGraph", "VertexMeta",
        "build_graph", "geodesic_distance", "graph_report",
    ),
    "measure": (
        "ClopenSet", "ConvergenceReport", "MeasureTable", "SimpleBoundaryFunction",
        "dn_at_depth", "dn_function", "measure_table", "quadratic_form",
        "symmetry_residual",
    ),
    "randomwalk": ("WalkEstimate", "random_walk_oracle"),
    "trees": (
        "AlphaBetaSpec", "HarmonicClosedForm", "add_shortcut_edges",
        "closed_form_harmonic", "cylinder_leaves", "generate_ab_tree",
    ),
}
ALL_NAMES = sorted({*PUBLIC, *(n for names in PUBLIC.values() for n in names)})

TREE_PATH = """
import json, sys
import numpy as np
import graphdn
import graphdn.fileio  # names the solver's types in annotations only
from graphdn.edge import edge_dn_blocks
from graphdn.trees import level_lengths, level_sweep

fam = graphdn.AlphaBetaSpec(alpha=0.3, depth=2, kappa2_per_level=(4.0, 1.0))
f = graphdn.SimpleBoundaryFunction.indicator(graphdn.ClopenSet.cylinder(fam, "a"))
report = graphdn.dn_function(f, graphdn.ClopenSet.cylinder(fam, "b"), 1e-6, 10)
table = graphdn.measure_table(f, 2, 1e-6, 10)
form = graphdn.quadratic_form(f, 8)
spec = graphdn.AlphaBetaSpec(alpha=0.3, depth=8, kappa2_per_level=(4.0, 1.0))
kappa2 = [spec.kappa2_at_level(k + 1) for k in range(8)]
blocks = [edge_dn_blocks(l, q) for l, q in zip(level_lengths(spec), kappa2)]
sol = level_sweep(blocks, kappa2, np.repeat([1.0, 0.0], 64), 0.0)
print(json.dumps({
    "finite": all(map(np.isfinite, [report.limit, *table.values, form, sol.root_flux])),
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""

NAMES = """
import importlib, json, sys
import graphdn

public = json.loads(sys.argv[1])
# Each name is read on the package before its module is imported, so the
# solver names go through the package's lazy lookup.
wrong = [
    name for mod, names in public.items() for name in names
    if getattr(graphdn, name) is not getattr(importlib.import_module("graphdn." + mod), name)
]
wrong += [mod for mod in public if getattr(graphdn, mod) is not sys.modules["graphdn." + mod]]
star = {}
exec("from graphdn import *", star)
try:
    graphdn.solve_dirichlets
    unknown = "no error"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "wrong": wrong,
    "star": sorted(set(star) - {"__builtins__"}),
    "dir": sorted(n for n in dir(graphdn) if not n.startswith("_")),
    "unknown": unknown,
}))
"""


def _run_child(code, *args):
    path = (str(Path(graphdn.__file__).parents[1]), os.environ.get("PYTHONPATH", ""))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_tree_exhaustion_loads_no_scipy():
    result = _run_child(TREE_PATH)
    assert result["finite"]
    assert result["scipy"] == []


def test_public_names_resolve_as_defined():
    result = _run_child(NAMES, json.dumps(PUBLIC))
    assert result["wrong"] == []
    assert result["star"] == ALL_NAMES
    assert result["dir"] == ALL_NAMES
    assert result["unknown"] == "module 'graphdn' has no attribute 'solve_dirichlets'"
