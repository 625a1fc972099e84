"""The benchmark's workloads: seeded inputs, the timed call, and its oracle.

Each workload is a closed loop with one client and no think time.  Every
operation gets fresh inputs drawn from the run's seed: the tree workloads
draw a distinct ``alpha`` per operation, so no operation can reuse another
one's trees or solves through the package's memoisation, and the benchmark
never clears those caches itself.  ``setup`` imports the package, so the
set-up time it is measured under includes the import.

Correctness is checked after the timed loop against the independent
oracles in ``tests/oracles.py``, with tolerances pinned below.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field

# Tree-workload alphas: the paper's scaling trees, away from the symmetric
# case alpha = 1/2 where the two children coincide.
ALPHA_RANGE = (0.25, 0.45)

# Oracle tolerances, pinned.  The per-size limit tolerances sit with the
# sizes at the bottom: at full size the depth-16 exhaustion limit is within
# 5.7e-10 of the infinite-tree value for every alpha in ALPHA_RANGE (the
# error grows with alpha*(1-alpha), so alpha = 0.45 is the worst case), and
# depth-14 measure cells were within 6.6e-8 on a 0.0005-step alpha scan
# (worst near alpha = 0.2565) and within 7.6e-8 over 489 seeded operations.
# Additivity and the dense solve hold at any size.
ADDITIVITY_TOL = 1e-12
SOLUTION_REL_TOL = 1e-9


def _truncation_edges(depths) -> int:
    # A depth-n truncation of the binary scaling tree has 2**n - 1 edges.
    return sum(2**n - 1 for n in depths)


@dataclass
class Op:
    """One operation's input, output and checked error."""

    params: dict
    seconds: float = 0.0
    edges: int = 0
    output: object = None
    error: str | None = None
    oracle_err: float | None = None
    traced: bool = False


@dataclass
class Workload:
    name: str
    root_span: str
    sizes: dict
    smoke_sizes: dict
    state: dict = field(default_factory=dict)

    def size(self, smoke: bool) -> dict:
        return self.smoke_sizes if smoke else self.sizes


class ExhaustDeep(Workload):
    """dn_function(1_cyl:a through cyl:b) over every depth up to n_max."""

    def setup(self, rng, workdir, smoke):
        import graphdn

        self.state = {"G": graphdn, **self.size(smoke)}

    def make_input(self, rng) -> dict:
        return {"alpha": rng.uniform(*ALPHA_RANGE)}

    def prepare(self, params):
        G = self.state["G"]
        fam = G.AlphaBetaSpec(alpha=params["alpha"], depth=2)
        f = G.SimpleBoundaryFunction.indicator(G.ClopenSet.cylinder(fam, "a"))
        return f, G.ClopenSet.cylinder(fam, "b")

    def run(self, prepared):
        f, e = prepared
        return self.state["G"].dn_function(
            f, e, tol=self.state["dn_tol"], n_max=self.state["n_max"]
        )

    def digest(self, op: Op, report) -> None:
        op.edges = _truncation_edges(report.depths)
        op.output = {"limit": report.limit, "converged": report.converged}

    def check(self, ops, oracles) -> None:
        for op in ops:
            exact = oracles.resistance_flux(
                op.params["alpha"], {"a": 1.0, "b": 0.0}, 0.0
            )["b"]
            op.oracle_err = abs(op.output["limit"] - exact)
            if not op.output["converged"]:
                op.error = "did not converge"
            elif not op.oracle_err <= self.state["limit_tol"]:
                op.error = f"limit off the resistance oracle by {op.oracle_err:.3g}"


class MeasurePartition(ExhaustDeep):
    """measure_table of 1_cyl:a over all depth-k cylinders and the root."""

    def run(self, prepared):
        f, _ = prepared
        return self.state["G"].measure_table(
            f,
            partition_depth=self.state["partition_depth"],
            tol=self.state["dn_tol"],
            n_max=self.state["n_max"],
        )

    def digest(self, op: Op, table) -> None:
        op.edges = _truncation_edges(table.reports[0].depths)
        op.output = {
            "cells": [c.prefixes[0] if c.prefixes else "v0" for c in table.cells],
            "values": list(table.values),
            "additivity": table.additivity_residual,
            "converged": table.converged,
        }

    def check(self, ops, oracles) -> None:
        for op in ops:
            out = op.output
            cells = [c for c in out["cells"] if c != "v0"]
            exact = oracles.resistance_flux(
                op.params["alpha"],
                {c: 1.0 if c.startswith("a") else 0.0 for c in cells},
                0.0,
            )
            op.oracle_err = max(
                abs(v - exact[c]) for c, v in zip(out["cells"], out["values"])
            )
            if not out["converged"]:
                op.error = "did not converge"
            elif not op.oracle_err <= self.state["limit_tol"]:
                op.error = f"cell off the resistance oracle by {op.oracle_err:.3g}"
            elif not out["additivity"] <= ADDITIVITY_TOL:
                op.error = f"additivity residual {out['additivity']:.3g}"


class SolveFile(Workload):
    """In-process ``graphdn solve`` on a tree-plus-shortcuts graph file.

    The graph is not a tree and carries potentials, so the solve takes the
    general sparse path and the hyperbolic edge branches, and never touches
    tree generation.
    """

    def setup(self, rng, workdir, smoke):
        import graphdn
        from graphdn import cli, fileio

        size = self.size(smoke)
        tree = graphdn.generate_ab_tree(
            graphdn.AlphaBetaSpec(
                alpha=0.3, depth=size["depth"], kappa2_per_level=(4.0, 2.0, 1.0, 0.5)
            )
        )
        interior = tree.interior_vertices
        shortcuts, length = [], 0.5
        while len(shortcuts) < 3:
            u, v = rng.choice(interior), rng.choice(interior)
            taken = {(a, b) for a, b, _ in shortcuts} | {(b, a) for a, b, _ in shortcuts}
            if u == v or (u, v) in taken or any(w == v for _, w in tree.adjacency[u]):
                continue
            shortcuts.append((u, v, length))
            length /= 2.0
        graph, _ = graphdn.add_shortcut_edges(tree, shortcuts, seed=0)
        path = os.path.join(workdir, "graph.txt")
        fileio.write_graph(graph, path)
        root = next(
            v for v in graph.boundary_vertices
            if graph.meta[v] is not None and graph.meta[v].level == 0
        )
        self.state = {
            "cli": cli,
            "graph_file": path,
            "solution_file": os.path.join(workdir, "solution.txt"),
            "root": root,
            "edges": len(graph.edges),
        }

    def make_input(self, rng) -> dict:
        return {
            "root_value": rng.uniform(0.5, 2.0),
            "default": rng.uniform(-1.0, 1.0),
        }

    def prepare(self, params):
        data = f"v0={params['root_value']!r},default={params['default']!r}"
        return [
            "solve",
            "--graph", self.state["graph_file"],
            "--data", data,
            "--solution-out", self.state["solution_file"],
        ]

    def run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.state["cli"].main(argv)
        return code, out.getvalue()

    def digest(self, op: Op, result) -> None:
        code, text = result
        op.edges = self.state["edges"]
        values = []
        if code == 0:
            with open(self.state["solution_file"], encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("vertex "):
                        values.append(float(line.split()[2]))
            os.remove(self.state["solution_file"])
        op.output = {"code": code, "values": values, "printed_energy": "energy " in text}

    def check(self, ops, oracles) -> None:
        import numpy as np

        from graphdn import fileio

        graph = fileio.read_graph(self.state["graph_file"])
        root = self.state["root"]
        # The solve is linear in its data, so two dense solves, one per
        # basis datum, give the oracle for every operation's data.
        at_root = oracles.dense_solve(
            graph, {v: float(v == root) for v in graph.boundary_vertices}
        )
        elsewhere = oracles.dense_solve(
            graph, {v: float(v != root) for v in graph.boundary_vertices}
        )
        for op in ops:
            out = op.output
            if out["code"] != 0:
                op.error = f"exit code {out['code']}"
                continue
            exact = op.params["root_value"] * at_root + op.params["default"] * elsewhere
            scale = max(1.0, float(np.abs(exact).max()))
            got = np.asarray(out["values"])
            if got.shape != exact.shape:
                op.error = f"solution has {got.size} vertices, expected {exact.size}"
                continue
            op.oracle_err = float(np.abs(got - exact).max()) / scale
            if not op.oracle_err <= SOLUTION_REL_TOL:
                op.error = f"vertex values off the dense oracle by {op.oracle_err:.3g}"
            elif not out["printed_energy"]:
                op.error = "solve summary not printed"


WORKLOADS = {
    "exhaust-deep": ExhaustDeep(
        name="exhaust-deep",
        root_span="measure.dn_function",
        sizes={"n_max": 16, "dn_tol": 1e-6, "limit_tol": 1e-9},
        smoke_sizes={"n_max": 8, "dn_tol": 1e-2, "limit_tol": 1e-2},
    ),
    "measure-partition": MeasurePartition(
        name="measure-partition",
        root_span="measure.measure_table",
        sizes={"partition_depth": 5, "n_max": 14, "dn_tol": 1e-6, "limit_tol": 2e-7},
        smoke_sizes={"partition_depth": 2, "n_max": 8, "dn_tol": 1e-2, "limit_tol": 1e-2},
    ),
    "solve-file": SolveFile(
        name="solve-file",
        root_span="cli.main",
        sizes={"depth": 13},
        smoke_sizes={"depth": 5},
    ),
}
