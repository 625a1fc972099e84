"""Canonical text formats for graphs, solutions, matrices, and tables.

Graph file grammar (one record per line, fields space-separated, floats in
``repr`` form so files round-trip bit-exactly and are byte-comparable):

    graphdn-graph 1
    vertices <n>
    edge <a> <b> <length> <weight> <kappa2>      # one per edge, index order
    boundary [<id> ...]                          # sorted ascending
    meta <vertex> <level> <@address|->           # optional, ascending vertex

Addresses are written with a leading ``@`` so the empty address stays
visible; ``-`` marks a vertex with a level but no address (the tree root).
The reader refuses a record with the wrong number of fields, an address
outside ``{a, b}``, a second ``vertices`` or ``boundary`` record, and a
second ``meta`` record for one vertex.
Solution, Dirichlet-to-Neumann, convergence, and measure-table writers emit
similar fixed-order records and are documented by example in the README.
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .dirichlet import DirichletSolution, DNMatrix
from .errors import ValidationError
from .graph import Edge, MetricGraph, VertexMeta, build_graph
from .measure import ConvergenceReport, MeasureTable
from .trees import _validate_prefix

__all__ = [
    "write_graph",
    "read_graph",
    "write_solution",
    "write_dn_matrix",
    "write_convergence",
    "write_plot_data",
    "write_measure_table",
]

GRAPH_MAGIC = "graphdn-graph 1"
# Field count of each graph record, its name included; None: any count.
_RECORD_FIELDS = {"vertices": 2, "edge": 6, "boundary": None, "meta": 4}


@contextmanager
def _writable(target):
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    else:
        yield target


def _fmt_address(address: str | None) -> str:
    return "-" if address is None else "@" + address


def _parse_address(token: str) -> str | None:
    if token == "-":
        return None
    if not token.startswith("@"):
        raise ValueError(f"address {token!r} lacks its '@'")
    _validate_prefix(token[1:])  # a DomainError is a ValueError
    return token[1:]


def _reprs(column: np.ndarray) -> list[str]:
    """The ``repr`` of each float, formatted once per distinct value.

    A tree's lengths, weights and potentials take few distinct values.  Bit
    patterns are compared, so ``-0.0`` keeps its sign.
    """
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = np.array([repr(x) for x in bits.view(float).tolist()], dtype=object)
    return text[inverse].tolist()


def write_graph(g: MetricGraph, target) -> None:
    with _writable(target) as fh:
        fh.write(GRAPH_MAGIC + "\n")
        fh.write(f"vertices {g.n_vertices}\n")
        a, b, length, kappa2 = g.edge_table
        floats = map(_reprs, (length, g.weights, kappa2))
        fh.writelines(
            f"edge {x} {y} {s} {w} {k}\n"
            for x, y, s, w, k in zip(a.tolist(), b.tolist(), *floats)
        )
        fh.write("boundary" + "".join(f" {v}" for v in g.boundary_vertices) + "\n")
        if g.meta is not None:
            for v, m in enumerate(g.meta):
                if m is not None:
                    fh.write(f"meta {v} {m.level} {_fmt_address(m.address)}\n")


def read_graph(source) -> MetricGraph:
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != GRAPH_MAGIC:
        raise ValidationError(f"not a graph file (expected '{GRAPH_MAGIC}' header)")
    edges: list[Edge] = []
    boundary: list[int] | None = None
    meta: dict[int, VertexMeta] = {}
    declared = None
    for ln in lines[1:]:
        fields = ln.split()
        kind = fields[0]
        if kind not in _RECORD_FIELDS:
            raise ValidationError(f"unknown record {kind!r} in graph file")
        if _RECORD_FIELDS[kind] not in (None, len(fields)):
            raise ValidationError(f"malformed graph record: {ln!r}")
        try:
            if kind == "vertices":
                if declared is not None:
                    raise ValidationError("graph file has two vertices records")
                declared = int(fields[1])
            elif kind == "edge":
                edges.append(
                    Edge(
                        int(fields[1]),
                        int(fields[2]),
                        float(fields[3]),
                        float(fields[4]),
                        float(fields[5]),
                    )
                )
            elif kind == "boundary":
                if boundary is not None:
                    raise ValidationError("graph file has two boundary records")
                boundary = [int(x) for x in fields[1:]]
            else:
                v = int(fields[1])
                if v in meta:
                    raise ValidationError(f"vertex {v} has two meta records")
                meta[v] = VertexMeta(int(fields[2]), _parse_address(fields[3]))
        except ValueError as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ValidationError(f"malformed graph record: {ln!r}") from exc
    if boundary is None:
        raise ValidationError("graph file has no boundary record")
    g = build_graph(edges, boundary=boundary, meta=meta or None)
    if declared is not None and declared != g.n_vertices:
        raise ValidationError(
            f"graph file declares {declared} vertices but edges span "
            f"{g.n_vertices}"
        )
    return g


def write_solution(sol: DirichletSolution, target) -> None:
    with _writable(target) as fh:
        fh.write("graphdn-solution 1\n")
        fh.write(f"vertices {sol.graph.n_vertices}\n")
        for v, value in enumerate(sol.values):
            fh.write(f"vertex {v} {float(value)!r}\n")
        for i, s in enumerate(sol.edge_solutions):
            fh.write(f"edge {i} {s.c0!r} {s.c1!r}\n")
        fh.write(f"energy {sol.energy!r}\n")


def write_dn_matrix(dn: DNMatrix, target) -> None:
    with _writable(target) as fh:
        fh.write("graphdn-dn 1\n")
        fh.write("boundary" + "".join(f" {v}" for v in dn.boundary) + "\n")
        for v, row in zip(dn.boundary, np.asarray(dn.matrix)):
            fh.write(f"row {v}" + "".join(f" {float(x)!r}" for x in row) + "\n")


def write_convergence(report: ConvergenceReport, target) -> None:
    with _writable(target) as fh:
        fh.write("graphdn-convergence 1\n")
        fh.write(f"tolerance {report.tolerance!r}\n")
        fh.write(f"converged {'yes' if report.converged else 'no'}\n")
        fh.write(f"limit {report.limit!r}\n")
        extr = "-" if report.extrapolated is None else repr(report.extrapolated)
        fh.write(f"extrapolated {extr}\n")
        fh.write("depth value residual\n")
        for i, (n, v) in enumerate(zip(report.depths, report.values)):
            res = "-" if i == 0 else repr(report.residuals[i - 1])
            fh.write(f"{n} {v!r} {res}\n")


def write_plot_data(report: ConvergenceReport, target) -> None:
    """Bare (depth, value) columns for external plotting."""
    with _writable(target) as fh:
        for n, v in zip(report.depths, report.values):
            fh.write(f"{n} {v!r}\n")


def write_measure_table(table: MeasureTable, target) -> None:
    with _writable(target) as fh:
        fh.write("graphdn-measure 1\n")
        fh.write(f"partition-depth {table.partition_depth}\n")
        fh.write(f"additivity-residual {table.additivity_residual!r}\n")
        fh.write(f"positive-total {table.positive_total!r}\n")
        fh.write(f"negative-total {table.negative_total!r}\n")
        fh.write(f"signed-total {table.signed_total!r}\n")
        fh.write("cell value residual converged\n")
        for cell, report in zip(table.cells, table.reports):
            last = report.residuals[-1] if report.residuals else float("nan")
            fh.write(
                f"{cell.label()} {report.limit!r} {last!r} "
                f"{'yes' if report.converged else 'no'}\n"
            )


def graph_to_string(g: MetricGraph) -> str:
    buf = io.StringIO()
    write_graph(g, buf)
    return buf.getvalue()
