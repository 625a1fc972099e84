"""Canonical text formats for graphs, solutions, matrices, and tables.

Graph file grammar (one record per line, fields space-separated, floats in
``repr`` form so files round-trip bit-exactly and are byte-comparable):

    graphdn-graph 1
    vertices <n>
    edge <a> <b> <length> <weight> <kappa2>      # one per edge, index order
    boundary [<id> ...]                          # sorted ascending
    meta <vertex> <level> <@address|->           # optional, ascending vertex

Addresses are written with a leading ``@`` so the empty address stays
visible; ``-`` marks the root, at level 0, and other levels are the address
length + 1.  The reader refuses a record with the wrong number of fields,
an address outside ``{a, b}`` or of 63 symbols or more, a level that does
not match its address, a second ``vertices`` or ``boundary`` record, and a
second ``meta`` record for one vertex.
Solution, Dirichlet-to-Neumann, convergence, and measure-table writers emit
similar fixed-order records and are documented by example in the README.
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError
from .graph import MetricGraph, _graph_from_fields, address_code, address_of

if TYPE_CHECKING:  # annotations only: importing fileio loads no solver
    from .dirichlet import DirichletSolution, DNMatrix
    from .measure import ConvergenceReport, MeasureTable

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
        if g.address_codes is not None:
            (tagged,) = np.nonzero(g.address_codes >= 0)
            fh.writelines(
                f"meta {v} {c.bit_length()} {'@' + address_of(c) if c else '-'}\n"
                for v, c in zip(tagged.tolist(), g.address_codes[tagged].tolist())
            )


def read_graph(source) -> MetricGraph:
    try:
        if isinstance(source, (str, Path)):
            text = Path(source).read_text(encoding="utf-8")
        else:
            text = source.read()
    except UnicodeDecodeError:
        raise ValidationError(f"graph file {source} is not UTF-8 text") from None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != GRAPH_MAGIC:
        raise ValidationError(f"not a graph file (expected '{GRAPH_MAGIC}' header)")
    edges: tuple[list, ...] = ([], [], [], [], [])  # a, b, length, weight, kappa2
    boundary: list[int] | None = None
    meta: dict[int, tuple[int, int]] = {}
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
                row = (int(fields[1]), int(fields[2]), *map(float, fields[3:]))
                for column, x in zip(edges, row):
                    column.append(x)
            elif kind == "boundary":
                if boundary is not None:
                    raise ValidationError("graph file has two boundary records")
                boundary = [int(x) for x in fields[1:]]
            else:
                v = int(fields[1])
                if v in meta:
                    raise ValidationError(f"vertex {v} has two meta records")
                level, token = int(fields[2]), fields[3]
                if token != "-" and token[0] != "@":
                    raise ValueError(f"address {token!r} lacks its '@'")
                # A bad symbol's DomainError is a ValueError.
                meta[v] = (level, address_code(None if token == "-" else token[1:]))
        except ValueError as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ValidationError(f"malformed graph record: {ln!r}") from exc
    if boundary is None:
        raise ValidationError("graph file has no boundary record")
    g = _graph_from_fields(edges, boundary=boundary, records=meta or None)
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
