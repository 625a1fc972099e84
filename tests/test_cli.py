import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdn import cli, dirichlet, fileio, trees
from graphdn.cli import main
from graphdn.fileio import read_graph
from graphdn.graph import Edge, MetricGraph, VertexMeta

from conftest import random_metric_graph
from oracles import resistance_flux


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_counts_and_report(tmp_path, capsys):
    out_file = tmp_path / "tree.txt"
    code, out, _ = run(
        capsys, "generate", "--alpha", "0.5", "--depth", "4", "-o", str(out_file)
    )
    assert code == 0
    g = read_graph(out_file)
    assert len(g.edges) == 2**4 - 1 == 15
    assert "vertices 16" in out
    assert "edges 15" in out
    assert "connected yes" in out


def test_generate_alpha_out_of_range(tmp_path, capsys):
    code, _, err = run(
        capsys, "generate", "--alpha", "1.2", "--depth", "3",
        "-o", str(tmp_path / "g.txt"),
    )
    assert code == 2
    assert "alpha out of range" in err


def test_generate_deterministic_bytes(tmp_path, capsys):
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    for target in (first, second):
        code, _, _ = run(
            capsys, "generate", "--alpha", "0.4", "--depth", "5",
            "--kappa2", "1.0,0.5", "-o", str(target),
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_generate_with_shortcuts(tmp_path, capsys):
    code, out, _ = run(
        capsys, "generate", "--alpha", "0.4", "--depth", "3",
        "--shortcut", "@a,@b,1.0", "-o", str(tmp_path / "g.txt"),
    )
    assert code == 0
    assert "shortcuts 1" in out
    assert "distortion-bound" in out
    assert "shortcut-lengths-nonincreasing yes" in out


def _no_edge_objects(*args, **kwargs):
    raise AssertionError("an Edge was built")


def test_generate_builds_no_edge_objects(tmp_path, monkeypatch, capsys):
    # Tree generation, shortcut decoration, the report and the file all read
    # the edge table.
    monkeypatch.setattr(MetricGraph, "edges", property(_no_edge_objects))
    monkeypatch.setattr(Edge, "__init__", _no_edge_objects)
    g = trees.generate_ab_tree(trees.AlphaBetaSpec(alpha=0.3, depth=6))
    fileio.write_graph(g, io.StringIO())
    code, out, err = run(
        capsys, "generate", "--alpha", "0.3", "--depth", "6", "--kappa2", "1,2",
        "--shortcut", "@a,@b,0.5", "--shortcut", "1,2,0.25",
        "-o", str(tmp_path / "g.txt"),
    )
    assert code == 0, err
    assert "shortcuts 2" in out


def test_solve_graph_file_builds_no_edge_objects(tmp_path, monkeypatch, capsys):
    # The graph file parses into the edge table, and the solve, its summary
    # and the solution file read the table.
    path = tmp_path / "g.txt"
    code, _, err = run(
        capsys, "generate", "--alpha", "0.3", "--depth", "6", "--kappa2", "4,1",
        "--shortcut", "@a,@bb,0.5", "--shortcut", "1,2,0.25", "-o", str(path),
    )
    assert code == 0, err
    monkeypatch.setattr(MetricGraph, "edges", property(_no_edge_objects))
    monkeypatch.setattr(Edge, "__init__", _no_edge_objects)
    solution = tmp_path / "s.txt"
    code, out, err = run(
        capsys, "solve", "--graph", str(path), "--data", "v0=1.3,default=-0.4",
        "--solution-out", str(solution),
    )
    assert code == 0, err
    assert "max-principle pass" in out
    assert solution.read_text().startswith("graphdn-solution 1")


def _residual_lines(out: str) -> dict[str, float]:
    names = ("current-balance-residual", "energy-identity-residual",
             "dn-symmetry-residual")
    pairs = (line.split() for line in out.splitlines())
    return {name: float(value) for name, value in pairs if name in names}


@pytest.mark.parametrize("kappa2", ["0", "4"])
def test_solve_residuals_are_relative(kappa2, capsys):
    # Scaling the data scales every term of an identity alike, so a residual
    # relative to its terms stays at rounding level.  Absolute residuals
    # read up to 1e285 at data 1e150, and down to 1e-315 at data 1e-150,
    # where even a wrong solve would look exact.
    lines = []
    for scale in ("1", "1e150", "1e-150"):
        code, out, err = run(
            capsys, "solve", "--alpha", "0.3", "--depth", "4", "--kappa2", kappa2,
            "--data", f"0={scale},default=-{scale}",
        )
        assert code == 0, err
        lines.append(_residual_lines(out))
    eps = np.finfo(float).eps
    for name in lines[0]:
        values = [found[name] for found in lines]
        assert max(map(abs, values)) <= 16 * eps, (name, values)
        assert max(values) - min(values) <= 16 * eps, (name, values)


def _shortcut_solve(tmp_path, capsys) -> str:
    """``solve`` output on a depth-12 tree with potentials and shortcuts."""
    path = tmp_path / "g.txt"
    code, _, err = run(
        capsys, "generate", "--alpha", "0.3", "--depth", "12", "--kappa2", "4,2,1,0.5",
        "--shortcut", "@ab,@bba,0.5", "--shortcut", "@b,@aab,0.25",
        "--shortcut", "7,100,0.125", "-o", str(path),
    )
    assert code == 0, err
    code, out, err = run(capsys, "solve", "--graph", str(path),
                         "--data", "v0=1.3,default=-0.4")
    assert code == 0, err
    return out


def test_kirchhoff_residual_scaled_by_its_terms(tmp_path, capsys):
    # Deep vertices, where u is nearly constant and edges are about 1e-4
    # long, sum derivatives that are themselves cancelled differences;
    # scaled by those differences this correct solve read 1.86e-9.
    out = _shortcut_solve(tmp_path, capsys)
    (line,) = [line for line in out.splitlines() if line.startswith("kirchhoff-residual ")]
    assert float(line.split()[1]) <= 1e-14


def test_boundary_identities_scaled_by_their_terms(tmp_path, capsys):
    # The same cancelled boundary derivatives: scaled by them, this correct
    # solve read a current-balance residual of -3.23e-11 and an
    # energy-identity residual of 1.11e-11.
    residuals = _residual_lines(_shortcut_solve(tmp_path, capsys))
    assert abs(residuals["current-balance-residual"]) <= 1e-14
    assert abs(residuals["energy-identity-residual"]) <= 1e-14


@pytest.mark.parametrize("spec, plain", [
    (".5e-3*cyl:a", "0.0005*cyl:a"),
    ("+.5E+1*v0-cyl:b", "5*v0-cyl:b"),
])
def test_float_coefficients_parse(spec, plain, capsys):
    # Any mantissa float() takes keeps its exponent sign, as 1e-3 does.
    argv = ["converge", "--alpha", "0.3", "--E", "cyl:a", "--max-depth", "8"]
    assert run(capsys, *argv, f"--F={spec}") == run(capsys, *argv, f"--F={plain}")


def _no_vertex_meta(*args, **kwargs):
    raise AssertionError("a VertexMeta was built")


def test_graph_path_builds_no_vertex_meta(tmp_path, monkeypatch, capsys):
    # Generation, decoration, the graph file and the v0 and @ADDRESS data
    # keys all read the address-code column.
    monkeypatch.setattr(VertexMeta, "__init__", _no_vertex_meta)
    path = tmp_path / "g.txt"
    code, _, err = run(
        capsys, "generate", "--alpha", "0.3", "--depth", "6", "--kappa2", "1,2",
        "--shortcut", "@a,@bb,0.5", "--shortcut", "1,2,0.25", "-o", str(path),
    )
    assert code == 0, err
    code, out, err = run(capsys, "solve", "--graph", str(path),
                         "--data", "v0=1.5,@abbab=-1,default=0.25")
    assert code == 0, err
    assert "energy" in out


def test_dn_on_unit_interval(tmp_path, capsys):
    path = tmp_path / "interval.txt"
    path.write_text(
        "graphdn-graph 1\nvertices 2\nedge 0 1 1.0 1.0 0.0\nboundary 0 1\n"
    )
    code, out, _ = run(capsys, "dn", "--graph", str(path))
    assert code == 0
    assert "row 0 1 -1" in out
    assert "row 1 -1 1" in out
    assert "constant-nullspace-residual" in out


def test_solve_summary_lines(tmp_path, capsys):
    code, out, _ = run(
        capsys, "solve", "--alpha", "0.5", "--depth", "3",
        "--data", "0=0,default=1",
        "--solution-out", str(tmp_path / "sol.txt"),
    )
    assert code == 0
    for key in (
        "energy",
        "kirchhoff-residual",
        "current-balance-residual",
        "energy-identity-residual",
        "dn-symmetry-residual",
        "max-principle pass",
        "condition-estimate",
    ):
        assert key in out
    assert (tmp_path / "sol.txt").read_text().startswith("graphdn-solution 1")


def test_solve_factors_once(monkeypatch, capsys):
    factorizations = []
    real_splu = dirichlet.splu

    def counting_splu(*args, **kwargs):
        factorizations.append(args[0].shape)
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(dirichlet, "splu", counting_splu)
    monkeypatch.setattr(cli, "dn_matrix", _refuse)
    code, out, _ = run(
        capsys, "solve", "--alpha", "0.3", "--depth", "5", "--kappa2", "4",
        "--data", "v0=1,default=0.5",
    )
    assert code == 0
    assert "dn-symmetry-residual" in out
    # The potential pulls interior values below 0.5 toward 0: no failure.
    assert "max-principle pass" in out
    assert len(factorizations) == 1


def test_solve_out_of_range_data_still_reports(capsys):
    # max principle is report-only, data outside [0, 1] is fine
    code, out, _ = run(
        capsys, "solve", "--alpha", "0.5", "--depth", "3",
        "--data", "0=-2,default=5",
    )
    assert code == 0
    assert "max-principle" in out


def test_converge_exit_codes(tmp_path, capsys):
    args = [
        "converge", "--alpha", "0.5", "--F", "cyl:a", "--E", "cyl:b",
        "--max-depth", "9",
    ]
    code, out, _ = run(capsys, *args, "--tol", "1e-2")
    assert code == 0
    assert "converged yes" in out

    code, out, _ = run(capsys, *args, "--tol", "1e-12")
    assert code == 3
    assert "converged no" in out

    code, _, err = run(capsys, *args, "--tol", "inf")
    assert code == 2
    assert "tolerance" in err


def test_converge_plot_data(tmp_path, capsys):
    plot = tmp_path / "plot.dat"
    code, out, _ = run(
        capsys, "converge", "--alpha", "0.3", "--F", "cyl:a", "--E", "v0",
        "--tol", "1e-2", "--max-depth", "8", "--plot-data", str(plot),
    )
    assert code == 0
    rows = plot.read_text().splitlines()
    assert all(len(r.split()) == 2 for r in rows)
    assert [int(r.split()[0]) for r in rows] == list(range(2, 9))


def test_converge_function_expression(capsys):
    code, out, _ = run(
        capsys, "converge", "--alpha", "0.5", "--F", "cyl:a-cyl:b",
        "--E", "all", "--tol", "1e-2", "--max-depth", "8",
    )
    assert code == 0


def test_measure_table_output(tmp_path, capsys):
    out_file = tmp_path / "table.txt"
    code, out, _ = run(
        capsys, "measure", "--alpha", "0.5", "--F", "cyl:a",
        "--partition-depth", "1", "--tol", "1e-3", "--max-depth", "11",
        "-o", str(out_file),
    )
    assert code == 0
    assert "@a" in out and "@b" in out and "v0" in out
    assert "additivity-residual" in out
    assert out_file.read_text().startswith("graphdn-measure 1")


def test_missing_graph_file(capsys):
    code, _, err = run(capsys, "dn", "--graph", "/nonexistent/file.txt")
    assert code == 2
    assert "error" in err


def test_bad_function_spec(capsys):
    code, _, err = run(
        capsys, "converge", "--alpha", "0.5", "--F", "wat:a", "--E", "v0",
        "--tol", "1e-3", "--max-depth", "6",
    )
    assert code == 2
    assert "cannot parse" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# tree family\nalpha 0.4\ndepth 4\nweight_ratio 0.25\n"
        "kappa2_per_level 1.0,0.5\n"
    )
    code, _, _ = run(
        capsys, "generate", "--config", str(cfg), "-o", str(tmp_path / "a.txt")
    )
    assert code == 0
    code, _, _ = run(
        capsys, "generate", "--config", str(cfg), "--depth", "3",
        "-o", str(tmp_path / "b.txt"),
    )
    assert code == 0
    assert len(read_graph(tmp_path / "a.txt").edges) == 15
    assert len(read_graph(tmp_path / "b.txt").edges) == 7


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("alpha\n")
    code, _, err = run(
        capsys, "generate", "--config", str(bad), "-o", str(tmp_path / "x.txt")
    )
    assert code == 2
    assert "malformed config" in err


@pytest.mark.parametrize(
    "argv, token",
    [
        (["solve", "--alpha", "0.5", "--depth", "3", "--data", "foo=1"], "'foo'"),
        (["solve", "--alpha", "0.5", "--depth", "3", "--data", "0=abc"], "'abc'"),
        (["solve", "--alpha", "0.5", "--depth", "3", "--kappa2", "1,x",
          "--data", "default=0"], "'x'"),
        (["generate", "--alpha", "0.4", "--depth", "3",
          "--shortcut", "2,3,x", "-o", "g.txt"], "'x'"),
        (["converge", "--alpha", "0.5", "--F", "x*cyl:a", "--E", "v0"], "'x'"),
        (["solve", "--alpha", "0.5", "--depth", "3",
          "--data", "0=nan,default=0"], "nan"),
        (["converge", "--alpha", "0.5", "--F", "nan*cyl:a", "--E", "v0"], "nan"),
        (["measure", "--alpha", "0.5", "--F", "inf*cyl:a"], "non-finite"),
        (["converge", "--alpha", "0.5", "--F", "cyl:a", "--E", "cyl:b",
          "--min-depth", "10", "--max-depth", "8"], "below the starting depth 10"),
        (["measure", "--alpha", "0.5", "--F", "cyl:a", "--tol", "nan"],
         "tolerance must be positive and finite, got nan"),
    ],
)
def test_malformed_input_exits_2(argv, token, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and token in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["measure", "--alpha", "0.3", "--F", "cyl:a", "--partition-depth", "16"],
         "--max-depth 12 below the starting depth 17"),
        (["converge", "--alpha", "0.5", "--F", "cyl:a", "--E", "cyl:b",
          "--min-depth", "10", "--max-depth", "8"],
         "--max-depth 8 below the starting depth 10"),
        (["converge", "--alpha", "0.5", "--F", "cyl:a", "--E", "cyl:b",
          "--max-depth", "1"],
         "--max-depth must be at least 2, got 1"),
    ],
)
def test_depth_errors_name_the_flags(argv, message, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "data, named",
    [
        ("v0=nan,0=1,default=0", "vertex 0 given twice ('v0' and '0')"),
        ("@aaa=1,8=2,default=0", "vertex 8 given twice ('@aaa' and '8')"),
        ("0=1,default=0,default=1", "'default' given twice"),
    ],
)
def test_duplicate_boundary_key_exits_2(data, named, capsys):
    code, out, err = run(
        capsys, "solve", "--alpha", "0.3", "--depth", "4", "--data", data
    )
    assert code == 2
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err
    assert out == ""


def test_converge_reaches_oracle_at_depth_24(tmp_path, capsys):
    out_file = tmp_path / "c.txt"
    code, out, _ = run(
        capsys, "converge", "--alpha", "0.3", "--F", "cyl:a-0.5*v0",
        "--E", "cyl:a", "--max-depth", "24", "-o", str(out_file),
    )
    assert code == 0 and "converged yes" in out
    lines = out_file.read_text().splitlines()
    rows = lines[lines.index("depth value residual") + 1:]
    values = dict((int(n), float(v)) for n, v, _ in (r.split() for r in rows))
    exact = resistance_flux(0.3, {"a": 1.0, "b": 0.0}, -0.5)["a"]
    assert abs(values[24] - exact) <= 1e-13
    # Residuals fall by alpha * (1 - alpha) = 0.21 per level until rounding.
    residuals = [abs(values[n] - values[n - 1]) for n in range(3, 25)]
    ratios = [r / r0 for r0, r in zip(residuals, residuals[1:]) if r > 1e-13]
    assert len(ratios) >= 15
    assert all(0.15 < q < 0.3 for q in ratios)


def _refuse(*args, **kwargs):
    raise AssertionError("work started past a size ceiling")


def test_generate_refuses_depth_past_ceiling(tmp_path, monkeypatch, capsys):
    depth = trees.MAX_GRAPH_EDGES.bit_length() + 1
    monkeypatch.setattr(trees, "level_lengths", _refuse)
    out_file = tmp_path / "g.txt"
    code, _, err = run(
        capsys, "generate", "--alpha", "0.5", "--depth", str(depth),
        "-o", str(out_file),
    )
    assert code == 2
    assert err.startswith("error:") and str(trees.MAX_GRAPH_EDGES) in err
    assert "Traceback" not in err
    assert not out_file.exists()


def test_converge_refuses_depth_past_ceiling(monkeypatch, capsys):
    depth = trees.MAX_SWEEP_EDGES.bit_length() + 1
    # The exhaustion kernel refuses before it computes any edge block.
    monkeypatch.setattr(trees, "edge_dn_blocks", _refuse)
    code, out, err = run(
        capsys, "converge", "--alpha", "0.5", "--F", "cyl:a", "--E", "cyl:b",
        "--max-depth", str(depth),
    )
    assert code == 2
    assert err.startswith("error:") and str(trees.MAX_SWEEP_EDGES) in err
    assert "Traceback" not in err
    assert out == ""


def _child_env():
    """The environment of a child interpreter that imports this graphdn."""
    path = (str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", ""))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--alpha", "0.3", "--F", "cyl:a", "--partition-depth", "24"],
        ["converge", "--alpha", "0.3", "--F", "cyl:" + "a" * 39, "--E", "cyl:b",
         "--max-depth", "50"],
    ],
)
def test_deep_cells_refused_before_enumeration(argv):
    # Depth-M cells need a depth-(M + 1) truncation, past the sweep ceiling
    # from M = 24 on.  The refusal must come before the 2**M cells are
    # enumerated: in a child limited to 1 GiB of address space, enumerating
    # them ends in a MemoryError.
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    done = subprocess.run(
        [sys.executable, "-m", "graphdn.cli", *argv], env=_child_env(),
        preexec_fn=limit, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error:")
    assert str(trees.MAX_SWEEP_EDGES) in done.stderr
    assert "Traceback" not in done.stderr


LINUX_RSS = pytest.mark.skipif(not sys.platform.startswith("linux"),
                               reason="VmHWM is read from /proc on Linux only")


def _run_child(*argv):
    """Run ``graphdn`` in a child interpreter; return it and its peak RSS in MB.

    The peak includes the interpreter and scipy, about 60 MB.  The child
    reads its own ``VmHWM``: Linux carries the ``ru_maxrss`` of the forked
    test process, which can be far larger, across ``exec``.
    """
    child = (
        "import sys\n"
        "from graphdn.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "with open('/proc/self/status') as status:\n"
        "    peak = next(line.split()[1] for line in status\n"
        "                if line.startswith('VmHWM:'))\n"
        "print(f'peak-kib {peak}', file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", child, *argv], env=_child_env(),
        capture_output=True, text=True, timeout=300,
    )
    return done, int(done.stderr.split()[-1]) / 1024


@LINUX_RSS
def test_deepest_cell_exhaustion_peak_rss():
    # E at depth 23 is read as one prefix, its mu share of F's coarse flux;
    # no cell of it is built.  The child's peak RSS measured 60 MB
    # on x86-64 Linux (CPython 3.11, numpy 2.4), the interpreter's own, and
    # 361 MB when the 2**23 cells of the depth-24 truncation were swept.
    done, peak_mb = _run_child(
        "converge", "--alpha", "0.3", "--F", "cyl:a", "--E", "cyl:" + "a" * 23,
        "--max-depth", "24",
    )
    # One depth gives no residuals, so the run cannot converge.
    assert done.returncode == 3, done.stderr
    assert "converged no" in done.stdout
    assert peak_mb <= 100


def _written(path, key):
    return float(next(line.split()[1] for line in path.read_text().splitlines()
                      if line.startswith(key + " ")))


def test_deepest_cell_flux_matches_ladder(tmp_path, capsys):
    # The depth-23 cell of cyl:a at alpha 0.3 draws its mu share
    # 0.7**23 (y / 0.21 * 0.3 + y * 0.7) with y = 1 - 0.21 in the limit,
    # 4.6022503562870369e-4 by a 60-digit ladder.  Read from the value above
    # its 9.4e-13 long top edge it printed 2**-11.
    path = tmp_path / "report"
    code, _, _ = run(capsys, "converge", "--alpha", "0.3", "--F", "cyl:a", "--E",
                     "cyl:" + "a" * 23, "--max-depth", "24", "-o", str(path))
    assert code == 3
    assert abs(_written(path, "limit") / 4.6022503562870369e-4 - 1.0) <= 1e-14


def test_deep_partition_balances(tmp_path, capsys):
    # Without a potential the fluxes of a partition sum to 0.  Read from the
    # values above their top edges, the 2**16 depth-16 cells summed to
    # -1.71e-6.
    path = tmp_path / "table"
    code, _, _ = run(capsys, "measure", "--alpha", "0.3", "--F", "cyl:a",
                     "--partition-depth", "16", "--max-depth", "24", "-o", str(path))
    assert code == 0
    signed, positive = _written(path, "signed-total"), _written(path, "positive-total")
    assert abs(signed) <= 1e-14 * positive


@LINUX_RSS
def test_generate_depth_18_peak_rss(tmp_path):
    # Vertex metadata is one int64 code per vertex.  Measured on x86-64
    # Linux (CPython 3.11, numpy 2.4): 134 MB, and 186 MB with one
    # VertexMeta object per vertex.
    done, peak_mb = _run_child("generate", "--alpha", "0.3", "--depth", "18",
                               "-o", str(tmp_path / "g.txt"))
    assert done.returncode == 0, done.stderr
    assert "edges 262143" in done.stdout
    assert peak_mb <= 160


@LINUX_RSS
@pytest.mark.parametrize("command", [["converge", "--E", "cyl:b"], ["measure"]])
def test_max_depth_refused_before_depths_exist(command):
    # Enumerating 10**7 depths takes about 519 MB; the refusal needs no
    # more than the child's 60 MB.
    done, peak_mb = _run_child(*command, "--alpha", "0.3", "--F", "cyl:a",
                               "--max-depth", "10000000")
    assert done.returncode == 2
    assert done.stderr.startswith(
        f"error: --max-depth 10000000 exceeds the level-array limit of "
        f"{trees.MAX_SWEEP_EDGES} edges"
    )
    assert peak_mb <= 150


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--alpha", "0.3", "--depth", "2", "--data", "default=1e308"],
        ["solve", "--alpha", "0.3", "--depth", "2", "--data", "default=1e300"],
        # A flux of 1.80e308 at every depth.
        ["converge", "--alpha", "0.3", "--F", "1e308*cyl:a-1e308*cyl:b", "--E", "cyl:a",
         "--max-depth", "6"],
        ["converge", "--alpha", "0.3", "--kappa2", "1e10", "--F", "1e308*all", "--E", "all",
         "--max-depth", "6"],
        ["measure", "--alpha", "0.3", "--F", "1e308*cyl:a-1e308*cyl:b", "--max-depth", "6"],
    ],
)
def test_overflow_exits_2(argv, capsys):
    # Finite data whose solution, derivatives, energy or cell fluxes leave
    # the float range; the suite turns any leaked RuntimeWarning into an
    # error.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "overflows the float range" in err


@pytest.mark.parametrize(
    "command, f, exit_code, labels",
    [
        (["converge", "--E", "cyl:b"], "cyl:a", 3, ["2", "3", "4", "5", "6"]),
        (["measure"], "cyl:a", 3, ["@aa", "@ab", "@ba", "@bb", "v0"]),
        (["converge", "--E", "all"], "cyl:a-cyl:b", 0, ["2", "3", "4", "5", "6"]),
    ],
)
def test_huge_data_reads_scaled_values(command, f, exit_code, labels, capsys):
    # The exhaustion of 1e308*F is 1e308 times that of F: through cyl:b
    # from -8.26e307 to -6.24e307 and up to 8.24e307 through a depth-2 cell
    # for F = cyl:a, and 0 through the whole boundary for cyl:a-cyl:b, whose
    # flux through cyl:a, 1.80e308, is never formed.
    argv = [*command, "--alpha", "0.3", "--max-depth", "6"]
    code, out, err = run(capsys, *argv, "--F", "1e308*" + f.replace("-", "-1e308*"))
    assert code == exit_code and err == ""
    _, unit, _ = run(capsys, *argv, "--F", f)
    rows = [line.split()[:2] for line in out.splitlines()[1:len(labels) + 1]]
    unit_rows = [line.split()[:2] for line in unit.splitlines()[1:len(labels) + 1]]
    assert [k for k, _ in rows] == [k for k, _ in unit_rows] == labels
    for (_, big), (_, one) in zip(rows, unit_rows):
        assert float(big) == pytest.approx(1e308 * float(one), rel=1e-11)


def test_overflowing_edge_product_solves_quietly(capsys):
    code, out, err = run(capsys, "solve", "--alpha", "0.3", "--depth", "3",
                         "--root-length", "1e308", "--kappa2", "1e308",
                         "--data", "default=1")
    assert code == 0 and err == ""
    assert "energy 1e+154" in out


def test_dn_refuses_boundary_past_ceiling(monkeypatch, capsys):
    # A depth-d truncation has 2**(d - 1) + 1 boundary vertices.
    depth = (dirichlet.MAX_DN_BOUNDARY - 1).bit_length() + 1
    monkeypatch.setattr(dirichlet, "splu", _refuse)
    code, out, err = run(capsys, "dn", "--alpha", "0.3", "--depth", str(depth))
    assert code == 2
    assert err.startswith("error:") and str(dirichlet.MAX_DN_BOUNDARY) in err
    assert "Traceback" not in err
    assert out == ""


MALFORMED_DATA = ("{v}=abc", "{v}=nan", "{v}=inf", "{v}", "{unknown}=1")


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(
    seed=st.integers(0, 2**32 - 1),
    default=st.floats(-10.0, 10.0),
    malformed=st.none() | st.sampled_from(MALFORMED_DATA),
    position=st.integers(0, 3),
)
@settings(max_examples=40, deadline=None)
def test_solve_contract_on_random_graphs(seed, default, malformed, position):
    rng = np.random.default_rng(seed)
    g = random_metric_graph(rng, max_vertices=20)
    boundary = g.boundary_vertices
    # The malformed token names the last boundary vertex, which no valid
    # item repeats, so a later datum cannot override it.
    values = rng.uniform(-2.0, 2.0, 2).tolist()
    items = [f"{v}={x!r}" for v, x in zip(boundary[:-1], values)]
    items.append(f"default={default!r}")
    if malformed is not None:
        token = malformed.format(v=boundary[-1], unknown=g.n_vertices + 5)
        items.insert(min(position, len(items)), token)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.txt"
        fileio.write_graph(g, path)
        argv = ["solve", "--graph", str(path), "--data", ",".join(items)]
        first = _run_main(argv)
        second = _run_main(argv)
    code, out, err = first
    assert code in (0, 2)
    if code != 0:
        assert err.startswith("error:") and "Traceback" not in err
    else:
        assert malformed is None and "dn-symmetry-residual" in out
    assert out.encode() == second[1].encode()
    assert code == second[0]


# Valid flags of the tree commands.  Values are passed as --flag=value, so
# that argparse takes a leading "-" as part of the value.  A max depth of 1,
# or a min depth above the max depth, is malformed too.
ALPHAS = st.floats(0.05, 0.95).map(repr)
KAPPA2 = st.sampled_from(["", "4,1", "0,0,2.5e5"])
TOLS = st.sampled_from(["1e-1", "1e-2", "1e-3", "1e-6", "1e-12"])
SETS = st.text("ab", max_size=3).map("cyl:".__add__) | st.sampled_from(["v0", "all", "cantor"])
FUNCTIONS = st.lists(
    st.tuples(st.sampled_from(["", "2*", "-0.5*", "1e-3*", ".5e-3*", "+.5E+1*"]), SETS),
    min_size=1, max_size=3,
).map(lambda terms: "+".join(coef + term for coef, term in terms))
MAX_DEPTHS = st.integers(1, 12)
# At most one malformed flag per run, placed last, where argparse lets it
# override the valid one.
MALFORMED_TREE_FLAGS = (
    "--alpha=1.5", "--alpha=nan", "--kappa2=1,x", "--kappa2=-1", "--tol=nan",
    "--tol=-1e-3", "--tol=0", "--tol=inf", "--F=", "--F=cyl:ax", "--F=cyl:aB",
    "--F=cyl", "--F=x*cyl:a", "--F=nan*cyl:a", "--F=cyl:a+root",
)


def _check_tree_contract(argv, output_flags):
    """Run twice, each time writing every output flag to a fresh file.

    The exit code is 0, 2 or 3; exit 2 prints ``error:`` and nothing else,
    with no traceback; both runs print and write the same bytes.
    """
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(2):
            paths = [Path(tmp) / f"{k}{flag.strip('-')}" for flag in output_flags]
            extra = [f"{flag}={path}" for flag, path in zip(output_flags, paths)]
            code, out, err = _run_main(argv + extra)
            written = [p.read_bytes() if p.exists() else None for p in paths]
            runs.append((code, out.encode(), err.encode(), written))
    code, out, err, written = runs[0]
    assert code in (0, 2, 3)
    assert b"Traceback" not in err
    if code == 2:
        assert err.startswith(b"error:") and out == b""
        assert written == [None] * len(output_flags)
    else:
        assert err == b"" and None not in written
    assert runs[1] == runs[0]
    return code


@given(alpha=ALPHAS, kappa2=KAPPA2, f=FUNCTIONS, e=SETS, tol=TOLS,
       max_depth=MAX_DEPTHS, min_depth=st.none() | st.integers(1, 14),
       malformed=st.none() | st.sampled_from(
           MALFORMED_TREE_FLAGS + ("--E=cyl:x", "--E=cyl", "--E=root")))
@settings(max_examples=60, deadline=None)
def test_converge_contract(alpha, kappa2, f, e, tol, max_depth, min_depth, malformed):
    argv = ["converge", f"--alpha={alpha}", f"--kappa2={kappa2}", f"--F={f}",
            f"--E={e}", f"--tol={tol}", f"--max-depth={max_depth}"]
    if min_depth is not None:
        argv.append(f"--min-depth={min_depth}")
    if malformed is not None:
        argv.append(malformed)
    code = _check_tree_contract(argv, ("-o", "--plot-data"))
    assert code == 2 or malformed is None


@given(alpha=ALPHAS, kappa2=KAPPA2, f=FUNCTIONS, partition_depth=st.integers(1, 4),
       tol=TOLS, max_depth=MAX_DEPTHS,
       malformed=st.none() | st.sampled_from(
           MALFORMED_TREE_FLAGS + ("--partition-depth=0", "--partition-depth=-2")))
@settings(max_examples=60, deadline=None)
def test_measure_contract(alpha, kappa2, f, partition_depth, tol, max_depth, malformed):
    argv = ["measure", f"--alpha={alpha}", f"--kappa2={kappa2}", f"--F={f}",
            f"--partition-depth={partition_depth}", f"--tol={tol}",
            f"--max-depth={max_depth}"]
    if malformed is not None:
        argv.append(malformed)
    code = _check_tree_contract(argv, ("-o",))
    assert code == 2 or malformed is None


def test_solve_requires_single_source(tmp_path, capsys):
    path = tmp_path / "interval.txt"
    path.write_text(
        "graphdn-graph 1\nvertices 2\nedge 0 1 1.0 1.0 0.0\nboundary 0 1\n"
    )
    code, _, err = run(
        capsys, "solve", "--graph", str(path), "--alpha", "0.5",
        "--data", "default=0",
    )
    assert code == 2
    assert "either" in err


# Digests of stdout, -o and --plot-data for functions of several prefixes,
# pinned so that no change to the clopen-set algebra moves a byte.
PINNED_RUNS = [
    ("converge --alpha 0.45 --F 2*cyl:ab-cyl:ba+0.25*cyl:bbb --E cyl:b --max-depth 10", 3,
     "65ca2e322a7aefcd1e9fdd690188dde8234713bc1a1f9aa0720d1bc7cd736502",
     "827d198e14e816043203153093ae8351d7d8450b7449be464ef1cdc46d94d288",
     "f4fe0cce847d61583e1d0306a936fe1555ab70baf6250d2e74c5d407f572c002"),
    ("converge --alpha 0.3 --kappa2 4,1 --F cyl:aa+cyl:ab+cyl:b-v0 --E all --max-depth 9", 3,
     "0d956a8897413b7108f78c24d77820b8fdc329a6c1c331e9028567d2cf270e83",
     "0c5d6e6f6cf42811315533584e1f253abce15ff5874cbd78728976dd2dacf210",
     "c197ec4f468d4b22577de6e14736f97d085197db1a7c34a477a81e0d148f2a9f"),
    ("converge --alpha 0.3 --F cyl:aaaa+cyl:b --E cyl:b --max-depth 11", 3,
     "650e0746412731837523456b2c3fc9803dea50eec7ec39bfb20c44e3cc691fd7",
     "154dc4775a0383214415ccdaee67aea5a5ec7cd490533d952b40781afbb1f705",
     "351f38a2ad513aaddefd65067dfd89f48a9c69b3310061e52533ca7868dbc4ed"),
    ("converge --alpha 0.7 --F cyl:aab+cyl:aba+cyl:abb-0.5*cantor+0.1*cyl:b --E cyl:ab "
     "--max-depth 10", 3,
     "20e998f90b1fd470f62f48ce5adb6caa022eceb00c38e48002a266b59d1c2cfd",
     "0e8e96e4ab5cd95f9bad4144fe1f263317e13c59ce60ae2cbf6c7bd740184c0f",
     "406d460c797a0f08794d231233c5049ce0ac5f91623a9221d9b046583a2a26da"),
    ("converge --alpha 0.3 --F 0.1*cyl:a+0.2*cyl:a-0.3*cyl:aa --E cyl:ab --tol 1e-3 "
     "--max-depth 9", 3,
     "cd65cf3abc6bd07704b8f049291dc47930bac6d2963130ae0421a9c1ee0e92e2",
     "eae34f88a24b320a0c6428ac407657cfb38d8d5e9c48936ed9b4c186edcb3493",
     "33db2f6fec7ee5d40c33d41f22cac0b0bd3a3e92f596a0e078b9a7af75eff73a"),
    ("measure --alpha 0.3 --F cyl:a+2*cyl:bab-1e-3*v0 --partition-depth 3 --max-depth 10", 3,
     "51f31f36ebad6f7dd70de156e1ef47fba15dbf00a6fd783f9c540b17325c3ca7",
     "2eeb62e47ed84fb42a793b00b4d5a8aac1754a53f790498e13fc7d22ee2a0863"),
    ("measure --alpha 0.6 --F cyl:aab+cyl:aba+cyl:abb-0.5*cantor --partition-depth 2 "
     "--max-depth 9", 3,
     "2bfcf6ac9447f8261044736b9561c1ec5f269c68a94d6be1be968fc0b806f2f5",
     "8ca372d9ff261910f62d9da4a6f2cb98a5bd2378fffdf9e35a2742def10cc9ef"),
    ("measure --alpha 0.35 --kappa2 0,2 --F 0.3*all-0.3*cyl:ba+cyl:bba --partition-depth 4 "
     "--max-depth 9", 3,
     "f4b35edfda8226670ac008ad5ffb1c04ee612b3050daeec04cdeba359707bd01",
     "8a3ef1be2bf82183c9f751a77f81839e2b12f69fa578ec513634b6bdb06c73f4"),
]


@pytest.mark.parametrize(
    "spec, exit_code, stdout_digest, file_digests",
    [(spec, code, out, files) for spec, code, out, *files in PINNED_RUNS],
)
def test_multi_prefix_runs_pinned(spec, exit_code, stdout_digest, file_digests, tmp_path,
                                  capsys):
    argv = spec.split()
    flags = ["-o", "--plot-data"][: len(file_digests)]
    paths = [tmp_path / f"out{k}" for k in range(len(flags))]
    code, out, _ = run(capsys, *argv, *(x for f, p in zip(flags, paths) for x in (f, str(p))))
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
    assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths] == file_digests


def test_deep_prefix_converge_budget(capsys):
    # F has 2**14 cells; its set algebra must not visit them one by one.
    start = time.perf_counter()
    code, out, _ = run(capsys, "converge", "--alpha", "0.3", "--F", f"cyl:{'a' * 14}+cyl:b",
                       "--E", "cyl:b", "--max-depth", "17")
    assert time.perf_counter() - start < 2.0
    assert code == 3 and out.startswith("depth value residual\n15 ")


@pytest.mark.parametrize("command", [["solve", "--data", "default=0"], ["dn"]])
def test_undecodable_graph_file_exits_2(command, tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_bytes(b"graphdn-graph 1\n\xff\xfe\n")
    code, out, err = run(capsys, command[0], "--graph", str(path), *command[1:])
    assert code == 2 and out == ""
    assert err == f"error: graph file {path} is not UTF-8 text\n"


def test_undecodable_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"alpha 0.3\n\xff\n")
    code, out, err = run(capsys, "converge", "--config", str(path), "--F", "cyl:a",
                         "--E", "cyl:a")
    assert code == 2 and out == ""
    assert err == f"error: config file {path} is not UTF-8 text\n"


def test_negative_seed_exits_2(tmp_path, capsys):
    target = tmp_path / "g.txt"
    code, out, err = run(capsys, "generate", "--alpha", "0.3", "--depth", "4",
                         "--shortcut", "@a,@bb,0.2", "--seed", "-1", "-o", str(target))
    assert code == 2 and out == ""
    assert err == "error: --seed must be nonnegative, got -1\n"
    assert not target.exists()


def test_non_finite_coefficient_is_named(capsys):
    code, _, err = run(capsys, "converge", "--alpha", "0.3", "--F", "cyl:b+nan*cyl:a",
                       "--E", "cyl:a")
    assert code == 2
    assert err == "error: non-finite coefficient nan in term 1\n"


SHORTCUTS = st.sampled_from(
    ["@a,@bb,0.2", "@aab,@ba,0.05", "0,3,1.5", "@a,@a,0.1", "v0,@b,1e-3"]
)
MALFORMED_GENERATE_FLAGS = (
    "--alpha=0", "--alpha=nan", "--depth=0", "--depth=-3", "--kappa2=1,x",
    "--root-length=-1", "--weight-ratio=inf", "--seed=-1", "--seed=-99999",
    "--shortcut=@a,@zz,0.2", "--shortcut=@a,@b", "--shortcut=@a,@b,0",
    "--shortcut=@a,@b,nan", "--shortcut=1000000000000000,0,1.0", "--shortcut=x,0,1",
)


@given(alpha=ALPHAS, depth=st.integers(1, 6), kappa2=KAPPA2,
       shortcuts=st.lists(SHORTCUTS, max_size=3), seed=st.integers(0, 2**40),
       malformed=st.none() | st.sampled_from(MALFORMED_GENERATE_FLAGS))
@settings(max_examples=60, deadline=None)
def test_generate_contract(alpha, depth, kappa2, shortcuts, seed, malformed):
    argv = ["generate", f"--alpha={alpha}", f"--depth={depth}", f"--kappa2={kappa2}",
            f"--seed={seed}", *(f"--shortcut={s}" for s in shortcuts)]
    if malformed is not None:
        argv.append(malformed)
    _check_tree_contract(argv, ("-o",))


# Token replacements for a graph file's records: malformed numbers, ids
# far past any vertex count, and bytes that are not UTF-8.
GRAPH_FILE_TOKENS = st.sampled_from(
    ["x", "-1", "0", "nan", "inf", "-0.5", "1e15", "1000000000000000",
     "100000000000000000000", "@zz", "@a", "-", "2.5", "\udcff"]
)


@given(
    seed=st.integers(0, 2**32 - 1),
    edits=st.lists(
        st.tuples(st.sampled_from(["replace", "drop", "repeat"]), st.integers(0, 10**6),
                  st.integers(0, 10), GRAPH_FILE_TOKENS),
        max_size=3,
    ),
    command=st.sampled_from(["solve", "dn"]),
)
@settings(max_examples=60, deadline=None)
def test_graph_file_contract(seed, edits, command):
    g = random_metric_graph(np.random.default_rng(seed), max_vertices=12)
    lines = fileio.graph_to_string(g).splitlines()
    for kind, at, field, token in edits:
        k = at % len(lines)
        fields = lines[k].split()
        if kind == "replace" and fields:
            fields[field % len(fields)] = token
            lines[k] = " ".join(fields)
        elif kind == "drop":
            del lines[k]
        else:
            lines.insert(k, lines[k])
        if not lines:
            break
    text = "\n".join(lines) + "\n"
    extra = ["--data", "default=0.5"] if command == "solve" else []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.txt"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        first = _run_main([command, "--graph", str(path), *extra])
        second = _run_main([command, "--graph", str(path), *extra])
    code, out, err = first
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error:") and out == ""
    assert second == first


# Family flags of `dn`, extremes included.  Depths stay at 8 or less: one
# depth-12 run alone takes seconds.
MALFORMED_DN_FLAGS = (
    "--alpha=0", "--alpha=1", "--alpha=nan", "--depth=0", "--kappa2=1,x",
    "--kappa2=-1", "--kappa2=inf", "--root-length=0", "--root-length=inf",
    "--weight-ratio=0.6", "--weight-ratio=nan",
)


@given(alpha=st.sampled_from(["1e-6", "0.3", "0.5", "0.999999"]) | ALPHAS,
       depth=st.integers(1, 8),
       kappa2=KAPPA2 | st.sampled_from(["1e300", "1e308", "0,1e308", "1e-300,0,4"]),
       root_length=st.sampled_from(["1e-300", "1e-200", "0.7", "1", "1e200", "1e308"]),
       weight_ratio=st.sampled_from(["1e-300", "1e-3", "0.25", "0.5"]),
       malformed=st.none() | st.sampled_from(MALFORMED_DN_FLAGS))
@settings(max_examples=60, deadline=None)
def test_dn_contract(alpha, depth, kappa2, root_length, weight_ratio, malformed):
    argv = ["dn", f"--alpha={alpha}", f"--depth={depth}", f"--kappa2={kappa2}",
            f"--root-length={root_length}", f"--weight-ratio={weight_ratio}"]
    if malformed is not None:
        argv.append(malformed)
    code = _check_tree_contract(argv, ("-o",))
    assert code == 2 or (malformed is None and code == 0)
    if code == 0:
        # The checks are relative, so a matrix whose entries span 1e-316 to
        # 1e154 reads as sound.  The scaled eigenvalue and the row sums carry
        # an entry error near 1e-10 at alpha 0.999999 (up to 1.7e-10 seen):
        # the conditioning eps / min(alpha, beta), which
        # test_dn_matrix_matches_haar_closed_form holds dn_matrix to; the
        # bounds leave room for it.
        _, out, _ = _run_main(argv)
        report = dict(line.split(" ", 1) for line in out.splitlines()
                      if not line.startswith("row "))
        assert float(report["symmetry-residual"]) <= 1e-13
        assert float(report["min-eigenvalue"]) >= -1e-8
        assert float(report.get("constant-nullspace-residual", 0.0)) <= 1e-8
