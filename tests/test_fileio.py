import hashlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdn.cli import main
from graphdn.dirichlet import dn_matrix, solve_dirichlet
from graphdn.errors import ValidationError
from graphdn.fileio import (
    graph_to_string,
    read_graph,
    write_convergence,
    write_dn_matrix,
    write_graph,
    write_measure_table,
    write_plot_data,
    write_solution,
)
from graphdn.graph import VertexMeta, build_graph
from graphdn.measure import ClopenSet, SimpleBoundaryFunction, dn_function, measure_table
from graphdn.trees import AlphaBetaSpec, address_index, generate_ab_tree

from conftest import random_metric_graph

import numpy as np


def test_graph_round_trip_interval(tmp_path):
    g = build_graph([(0, 1, 0.1 + 0.2)])  # awkward float survives repr
    path = tmp_path / "g.txt"
    write_graph(g, path)
    back = read_graph(path)
    assert back == g


def test_graph_round_trip_tree_with_meta():
    g = generate_ab_tree(AlphaBetaSpec(alpha=0.3, depth=4, kappa2_per_level=(2.0,)))
    buf = io.StringIO(graph_to_string(g))
    back = read_graph(buf)
    assert back == g
    assert back.meta == g.meta
    assert back.boundary == g.boundary


def test_graph_round_trip_random():
    rng = np.random.default_rng(19)
    for _ in range(10):
        g = random_metric_graph(rng, max_vertices=15)
        assert read_graph(io.StringIO(graph_to_string(g))) == g


def test_writer_keeps_float_reprs():
    # Each distinct value is formatted once: -0.0 and 0.0 stay apart.
    g = build_graph([(0, 1, 0.1 + 0.2, 1.0, -0.0), (1, 2, 0.3, 1.0, 0.0)])
    edges = [ln for ln in graph_to_string(g).splitlines() if ln.startswith("edge")]
    assert edges == ["edge 0 1 0.30000000000000004 1.0 -0.0", "edge 1 2 0.3 1.0 0.0"]


def test_writer_is_canonical():
    g = generate_ab_tree(AlphaBetaSpec(alpha=0.5, depth=3))
    assert graph_to_string(g) == graph_to_string(g)


# SHA-256 digests of the graph file and the stdout of `graphdn generate`,
# as written when trees were built one Edge per edge: a tree with
# potentials, trees with shortcuts, and a shortcut parallel to a tree edge
# (split at its midpoint).
GENERATED = [
    (
        ["--alpha", "0.3", "--depth", "9", "--kappa2", "4,2,1,0.5",
         "--weight-ratio", "0.25"],
        "12062b945843590b674b67fd2ed1280c696c0ff6d48fe7d4ebb8a9082fc8cc9b",
        "9e63a0b2f8797754cf5efa6f68e100ed996b71f4771b14049c259baf10fa0955",
    ),
    (
        ["--alpha", "0.5", "--depth", "9", "--shortcut", "@a,@b,0.5",
         "--shortcut", "2,3,0.25", "--shortcut", "@aa,@bb,0.125"],
        "39de0ae5869103afd68c0366d67c71c3f775582b41532327ae6423fd8e6def41",
        "9e3d12145837438177a322ff4de12217a34afef61a932df3d6d2a2ed21ee9a84",
    ),
    (
        ["--alpha", "0.3", "--depth", "13", "--kappa2", "4,2,1,0.5",
         "--shortcut", "@a,@ba,0.5", "--shortcut", "1,5,0.4", "--seed", "7"],
        "0b26d199e860870b941e6a10e3034e542c9768d7344573039f1832e7d711a8e0",
        "0eab52cc757f27526aece75bcd64f647076ad0cd318179ac1dc42d5e6411a752",
    ),
    (
        ["--alpha", "0.3", "--depth", "4", "--shortcut", "1,2,0.3",
         "--shortcut", "0,3,2"],
        "03e4ffb28e1613f79142bc48d3de4f1c060338e1a3acdd73934d449c2d6bf825",
        "eede62b5cb251c8da0a97dde70cca3f5897cf9511678d65507f5d6ab0e4a9170",
    ),
]


@pytest.mark.parametrize("flags, file_digest, stdout_digest", GENERATED)
def test_generate_bytes_pinned(flags, file_digest, stdout_digest, tmp_path, capsys):
    path = tmp_path / "g.txt"
    assert main(["generate", *flags, "-o", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(path.read_bytes()).hexdigest() == file_digest
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("nonsense\n", "header"),
        ("graphdn-graph 1\nedge 0 1 1.0 1.0 0.0\n", "boundary"),
        ("graphdn-graph 1\nedge 0 x 1.0 1.0 0.0\nboundary 0 1\n", "malformed"),
        (
            "graphdn-graph 1\nvertices 5\nedge 0 1 1.0 1.0 0.0\nboundary 0 1\n",
            "declares",
        ),
        ("graphdn-graph 1\nwat 1 2\nboundary\n", "unknown record"),
    ],
)
def test_read_errors(text, fragment):
    with pytest.raises(ValidationError, match=fragment):
        read_graph(io.StringIO(text))


DEPTH3 = graph_to_string(generate_ab_tree(AlphaBetaSpec(alpha=0.5, depth=3)))


@pytest.mark.parametrize(
    "old, new, fragment",
    [
        ("meta 2 2 @a", "meta 2 2 xa", "malformed graph record: 'meta 2 2 xa'"),
        ("meta 4 3 @aa", "meta 4 3 @zz", "malformed graph record: 'meta 4 3 @zz'"),
        ("boundary 0 4 5 6 7", "boundary 0 4 5 6 7\nboundary 0 4 5 6 7 1",
         "two boundary records"),
        ("meta 3 2 @b", "meta 3 2 @b\nmeta 3 2 @ba", "vertex 3 has two meta"),
        ("meta 5 3 @ab", "meta 5 3 @aa", "vertices 4 and 5 share the address @aa"),
        ("edge 0 1 1.0 0.3333333333333333 0.0",
         "edge 0 1 1.0 0.3333333333333333 0.0 extra", "malformed graph record"),
        ("vertices 8", "vertices 8\nvertices 8", "two vertices records"),
        ("meta 5 3 @ab", "meta 5 7 @ab", "vertex 5 has level 7 with address @ab"),
        ("meta 6 3 @ba", "meta 6 3 -", "vertex 6 has level 3 with address -"),
        ("meta 0 0 -", "meta 0 1 -", "vertex 0 has level 1 with address -"),
        ("meta 6 3 @ba", "meta 6 0 -", "vertices 0 and 6 share the address -"),
        ("meta 6 3 @ba", "meta 6 64 @" + "b" * 63, "vertex 6 has level 64 with address @b"),
    ],
    ids=[
        "address-without-at", "address-symbol", "second-boundary", "second-meta",
        "shared-address", "edge-extra-field", "second-vertices", "level-off-address",
        "unaddressed-leaf", "root-level", "second-root", "address-past-column",
    ],
)
def test_malformed_graph_file_exits_2(old, new, fragment, tmp_path, capsys):
    assert old in DEPTH3
    text = DEPTH3.replace(old, new)
    with pytest.raises(ValidationError, match=re.escape(fragment)):
        read_graph(io.StringIO(text))
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert main(["solve", "--graph", str(path), "--data", "default=0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert "Traceback" not in err


# Addresses short and as long as the code column holds (62 symbols).
ADDRESSES = st.text("ab", max_size=6) | st.text("ab", min_size=58, max_size=62)


@given(n=st.integers(2, 9), root=st.booleans(),
       addresses=st.lists(ADDRESSES, unique=True, max_size=8),
       order=st.permutations(range(9)))
@settings(max_examples=60, deadline=None)
def test_tree_metadata_round_trip(n, root, addresses, order):
    # A path graph whose vertices carry the root mark, an address or nothing.
    records = [VertexMeta(0, None)] * root + [VertexMeta(len(a) + 1, a) for a in addresses]
    meta = dict(zip((v for v in order if v < n), records))
    g = build_graph([(v, v + 1, 1.0) for v in range(n - 1)], meta=meta or None)
    assert g.meta == (tuple(meta.get(v) for v in range(n)) if meta else None)
    if meta:
        assert address_index(g) == {
            m.address: v for v, m in meta.items() if m.address is not None
        }
    back = read_graph(io.StringIO(graph_to_string(g)))
    assert back == g and back.meta == g.meta


def test_solution_records():
    g = build_graph([(0, 1, 1.0)])
    sol = solve_dirichlet(g, {0: 0.0, 1: 1.0})
    buf = io.StringIO()
    write_solution(sol, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "graphdn-solution 1"
    assert "vertex 0 0.0" in lines
    assert "edge 0 0.0 1.0" in lines
    assert lines[-1] == "energy 1.0"


def test_dn_matrix_records():
    g = build_graph([(0, 1, 0.5)])
    buf = io.StringIO()
    write_dn_matrix(dn_matrix(g), buf)
    lines = buf.getvalue().splitlines()
    assert lines[1] == "boundary 0 1"
    assert lines[2] == "row 0 2.0 -2.0"


def test_convergence_and_plot_data():
    fam = AlphaBetaSpec(alpha=0.5, depth=2)
    f = SimpleBoundaryFunction.indicator(ClopenSet.cylinder(fam, "a"))
    rep = dn_function(f, ClopenSet.cylinder(fam, "b"), tol=1e-2, n_max=8)
    buf = io.StringIO()
    write_convergence(rep, buf)
    text = buf.getvalue()
    assert text.startswith("graphdn-convergence 1")
    assert "converged yes" in text

    buf = io.StringIO()
    write_plot_data(rep, buf)
    rows = [ln.split() for ln in buf.getvalue().splitlines()]
    assert [int(r[0]) for r in rows] == list(rep.depths)
    assert [float(r[1]) for r in rows] == list(rep.values)


def test_measure_table_records():
    fam = AlphaBetaSpec(alpha=0.5, depth=2)
    f = SimpleBoundaryFunction.indicator(ClopenSet.cylinder(fam, "a"))
    table = measure_table(f, partition_depth=1, tol=1e-4, n_max=9)
    buf = io.StringIO()
    write_measure_table(table, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "graphdn-measure 1"
    assert lines[1] == "partition-depth 1"
    assert lines[6] == "cell value residual converged"
    cells = [ln.split()[0] for ln in lines[7:]]
    assert cells == ["@a", "@b", "v0"]


@pytest.mark.parametrize("big", [10**15, 10**20])
def test_huge_vertex_ids_refused_before_allocating(big):
    # Ids past the endpoint count leave vertex 2 without an edge; a table
    # sized by the largest id would need petabytes.
    text = f"graphdn-graph 1\nedge 0 1 1.0 1.0 0.0\nedge 1 {big} 1.0 1.0 0.0\nboundary 0\n"
    with pytest.raises(ValidationError, match="^vertex 2 has no incident edge$"):
        read_graph(io.StringIO(text))
    with pytest.raises(ValidationError, match="^vertex 2 has no incident edge$"):
        build_graph([(0, 1, 1.0), (big, 1, 1.0)])
    with pytest.raises(ValidationError, match=r"endpoint ids must be nonnegative integers, "
                                              rf"got \(1, -{big}\)"):
        build_graph([(0, 1, 1.0), (1, -big, 1.0)])
