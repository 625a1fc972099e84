import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdn import cli, dirichlet, fileio, trees
from graphdn.cli import main
from graphdn.fileio import read_graph

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
    monkeypatch.setattr(trees, "Edge", _refuse)
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


def _run_solve(argv):
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
        first = _run_solve(argv)
        second = _run_solve(argv)
    code, out, err = first
    assert code in (0, 2)
    if code != 0:
        assert err.startswith("error:") and "Traceback" not in err
    else:
        assert malformed is None and "dn-symmetry-residual" in out
    assert out.encode() == second[1].encode()
    assert code == second[0]


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
