import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdn import cli, dirichlet, fileio, trees
from graphdn.cli import main
from graphdn.fileio import read_graph
from graphdn.graph import Edge, MetricGraph

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


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux only")
def test_deepest_cell_exhaustion_peak_rss():
    # E at depth 23 is read on the 2**23 cells of the depth-24 truncation.
    # The child's peak RSS, interpreter and scipy included (about 60 MB),
    # measured 361 MB on x86-64 Linux (CPython 3.11, numpy 2.4).
    child = (
        "import resource, sys\n"
        "from graphdn.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(f'peak-kib {peak}', file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    argv = ["converge", "--alpha", "0.3", "--F", "cyl:a", "--E", "cyl:" + "a" * 23,
            "--max-depth", "24"]
    done = subprocess.run(
        [sys.executable, "-c", child, *argv], env=_child_env(),
        capture_output=True, text=True, timeout=300,
    )
    # One depth gives no residuals, so the run cannot converge.
    assert done.returncode == 3, done.stderr
    assert "converged no" in done.stdout
    peak_mb = int(done.stderr.split()[-1]) / 1024
    assert peak_mb <= 450


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
    st.tuples(st.sampled_from(["", "2*", "-0.5*", "1e-3*"]), SETS), min_size=1, max_size=3,
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
