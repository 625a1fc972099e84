"""Oracle-checked benchmark of graphdn.

Run one workload, or all of them one after another, each in a process of
its own so that one workload's memory high-water mark never shows in
another's:

    python3 perfbench/run.py --workload exhaust-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 1 --smoke

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it alternates untraced and traced
operations and reports per-layer self times, counts and the tracing
overhead, and writes every span to ``.perfbench_out/``.  ``--smoke`` shrinks
every input so the benchmark's own tests run in seconds.

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import os
import sys

# One process, one thread: pin the BLAS and OpenMP pools before numpy can
# load, and leave the package's own thread default in force.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GRAPHDN_THREADS", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from spans import Recorder, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
OUT = ROOT / ".perfbench_out"

# Set-up is measured this many times per untraced run, each in a fresh
# interpreter, and reported as the median.
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120

# Layer entry points, wrapped at the attribute their callers look up:
# (target, span name, kind, annotate), where annotate(args, result) returns
# counters to store on the span.
PROBES = [
    ("graphdn.measure:generate_ab_tree", "trees.generate", "generate", None),
    ("graphdn.trees:build_graph", "graph.build", "span", None),
    ("graphdn.fileio:build_graph", "graph.build", "span", None),
    ("graphdn.dirichlet:edge_dn_block", "edge.block", "leaf", None),
    ("graphdn.dirichlet:assemble", "dirichlet.assemble", "span", None),
    ("graphdn.dirichlet:InteriorSystem.__init__", "dirichlet.system", "span", None),
    ("graphdn.dirichlet:splu", "dirichlet.factor", "span",
     lambda args, lu: {"lu_fill": int(lu.L.nnz + lu.U.nnz)}),
    ("graphdn.measure:solve_dirichlet", "dirichlet.solve", "span",
     lambda args, sol: {"truncation": True}),
    ("graphdn.cli:solve_dirichlet", "dirichlet.solve", "span", None),
    ("graphdn.dirichlet:dn_matrix", "dirichlet.dn_matrix", "span", None),
    ("graphdn.cli:dn_matrix", "dirichlet.dn_matrix", "span", None),
    ("graphdn.cli:energy_identity", "dirichlet.energy_identity", "span", None),
    ("graphdn.cli:current_balance", "dirichlet.checks", "span", None),
    ("graphdn.cli:max_principle_check", "dirichlet.checks", "span", None),
    ("graphdn.dirichlet:DirichletSolution.kirchhoff_residuals",
     "dirichlet.checks", "span", None),
    ("graphdn.dirichlet:InteriorSystem.condition_estimate",
     "dirichlet.checks", "span", None),
    ("graphdn.measure:ClopenSet.resolve", "measure.resolve", "span", None),
    ("graphdn.measure:SimpleBoundaryFunction.boundary_data",
     "measure.boundary_data", "span", None),
    ("graphdn.dirichlet:DirichletSolution.flux_sum", "measure.flux", "span", None),
    ("graphdn.fileio:read_graph", "fileio.read", "span",
     lambda args, g: {"bytes_read": os.path.getsize(args[0])}),
    ("graphdn.fileio:write_solution", "fileio.write", "span", None),
]
LAYERS = ("trees", "graph", "edge", "dirichlet", "measure", "fileio", "cli")

# Self-time metrics: metric name -> span names whose self time it sums.
SELF_TIME_METRICS = {
    "trees.generate_s": ("trees.generate",),
    "graph.build_s": ("graph.build",),
    "dirichlet.assemble_s": ("dirichlet.assemble",),
    "dirichlet.system_s": ("dirichlet.system",),
    "dirichlet.factor_s": ("dirichlet.factor",),
    "dirichlet.solve_s": ("dirichlet.solve",),
    "dirichlet.dn_matrix_s": ("dirichlet.dn_matrix",),
    "dirichlet.energy_identity_s": ("dirichlet.energy_identity",),
    "dirichlet.checks_s": ("dirichlet.checks",),
    "measure.resolve_s": ("measure.resolve",),
    "measure.boundary_data_s": ("measure.boundary_data",),
    "measure.flux_s": ("measure.flux",),
    "measure.self_s": ("measure.dn_function", "measure.measure_table"),
    "fileio.read_s": ("fileio.read",),
    "fileio.write_s": ("fileio.write",),
    "cli.self_s": ("cli.main",),
}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _load_oracles():
    spec = importlib.util.spec_from_file_location("graphdn_bench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _setup(wl, seed: int, workdir: Path, smoke: bool) -> float:
    t0 = perf_counter()
    wl.setup(random.Random(f"{seed}/setup"), str(workdir), smoke)
    elapsed = perf_counter() - t0
    import graphdn

    if not Path(graphdn.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"graphdn imported from {graphdn.__file__}, not {SRC}")
    return elapsed


def _probe_setup(args) -> float:
    """Set-up time of a fresh interpreter: import plus building the inputs."""
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _run_ops(wl, seed: int, seconds: float, tracer: Tracer | None) -> list[Op]:
    """Closed loop: one operation at a time until ``seconds`` have passed.

    With a tracer, odd-numbered operations are traced and even-numbered
    ones are not, so both sides see the same conditions.
    """
    rng = random.Random(f"{seed}/ops")
    ops: list[Op] = []
    start = perf_counter()
    while True:
        op = Op(params=wl.make_input(rng), traced=tracer is not None and len(ops) % 2 == 1)
        try:
            prepared = wl.prepare(op.params)
            gc.collect()
            if op.traced:
                tracer.install()
                tracer.rec.op_id = len(ops)
                root = tracer.rec.open(wl.root_span)
            t0 = perf_counter()
            try:
                result = wl.run(prepared)
            finally:
                op.seconds = perf_counter() - t0
                if op.traced:
                    tracer.rec.close(root)
                    tracer.uninstall()
            wl.digest(op, result)
        except Exception as exc:  # an operation that raises counts as failed
            op.error = f"{type(exc).__name__}: {exc}"
        ops.append(op)
        enough = tracer is None or len(ops) >= 2
        if enough and perf_counter() - start >= seconds:
            return ops


def _totals(rec: Recorder) -> tuple[dict[str, float], dict[str, int]]:
    """Self time and call count per span name, aggregated leaves included."""
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, own in zip(rec.spans, self_times(rec)):
        seconds[span["name"]] = seconds.get(span["name"], 0.0) + own
        calls[span["name"]] = calls.get(span["name"], 0) + 1
    for (_, name), (count, total) in rec.leaves.items():
        seconds[name] = seconds.get(name, 0.0) + total
        calls[name] = calls.get(name, 0) + count
    return seconds, calls


def _layer_metrics(rec: Recorder, ops: list[Op], absent: list[str]) -> dict:
    traced_p50 = statistics.median(op.seconds for op in ops if op.traced)
    plain_p50 = statistics.median(op.seconds for op in ops if not op.traced)
    n = sum(op.traced for op in ops)
    seconds, calls = _totals(rec)

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in rec.spans if s["name"] == name)

    generate_calls = calls.get("trees.generate", 0)
    truncation_solves = attr_sum("dirichlet.solve", "truncation")
    m = {
        metric: (sum(seconds.get(x, 0.0) for x in names) / n, "s/op")
        for metric, names in SELF_TIME_METRICS.items()
    }
    m.update({
        "trees.generate_calls": (generate_calls / n, "count/op"),
        "trees.edges_built": (attr_sum("trees.generate", "edges_built") / n, "count/op"),
        "trees.generate_cache_hit_ratio": (
            attr_sum("trees.generate", "hit") / generate_calls if generate_calls else 0.0,
            "ratio"),
        "edge.block_calls": (calls.get("edge.block", 0) / n, "count/op"),
        "edge.block_s": (seconds.get("edge.block", 0.0) / n, "s/op"),
        "dirichlet.lu_fill": (attr_sum("dirichlet.factor", "lu_fill") / n, "nnz/op"),
        "dirichlet.dn_matrix_calls": (calls.get("dirichlet.dn_matrix", 0) / n, "count/op"),
        "measure.truncation_solves": (truncation_solves / n, "count/op"),
        "measure.solve_reuse_ratio": (
            calls.get("measure.flux", 0) / truncation_solves if truncation_solves else 0.0,
            "ratio"),
        "measure.resolve_calls": (calls.get("measure.resolve", 0) / n, "count/op"),
        "fileio.bytes_read": (attr_sum("fileio.read", "bytes_read") / n, "B/op"),
        "trace.op_s_p50": (traced_p50, "s"),
        "trace.overhead_s": (traced_p50 - plain_p50, "s"),
        "trace.absent_wraps": (len(absent), "count"),
    })
    return m


def _layer_shares(rec: Recorder) -> dict[str, float]:
    """Each layer's self time as a share of the traced operations' time."""
    total = sum(s["end"] - s["start"] for s in rec.spans if s["parent"] is None)
    shares = dict.fromkeys(LAYERS, 0.0)
    for name, own in _totals(rec)[0].items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + own / total
    return shares


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup = [_setup(wl, args.seed, workdir, args.smoke)]
        if args.setup_probe:
            print(json.dumps({"setup_s": setup[0]}))
            return 0
        if not args.trace:
            setup += [_probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        oracles = _load_oracles()
        tracer = Tracer(Recorder(), PROBES) if args.trace else None
        ops = _run_ops(wl, args.seed, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wl.check([op for op in ops if op.error is None], oracles)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [op for op in ops if op.error is not None]
    plain = [op for op in ops if not op.traced]
    op_seconds = sum(op.seconds for op in plain)
    errs = [op.oracle_err for op in ops if op.oracle_err is not None]
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops "
          f"({len(plain)} untraced) in {sum(op.seconds for op in ops):.2f} s")
    print("op_seconds " + " ".join(
        f"{op.seconds:.4f}{'t' if op.traced else ''}" for op in ops))
    if args.trace:
        absent = tracer.absent
        metrics = _layer_metrics(tracer.rec, ops, absent)
        for layer, share in _layer_shares(tracer.rec).items():
            print(f"share {layer} {share:.4f}")
        for target in absent:
            print(f"absent {target}")
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.rec.write(str(trace_file))
        print(f"spans {trace_file.relative_to(ROOT)}")
    else:
        metrics = {
            "op_s_p50": (statistics.median(op.seconds for op in plain), "s"),
            "edges_per_s": (sum(op.edges for op in plain if op.error is None)
                            / op_seconds, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
        print(f"op_samples {len(plain)}")
        print(f"setup_samples {len(setup)}")
    max_err = max(errs) if errs else float("nan")
    if args.trace:
        metrics["oracle.max_err"] = (max_err, "1")
    else:
        # Shown, not bounded: the truncation error is a property of the seed.
        label = "solution_rel_err" if args.workload == "solve-file" else "limit_err"
        print(f"{label} {max_err:.6g}")
    print(f"failed_frac {len(failed) / len(ops):.6g} ({len(failed)}/{len(ops)})")
    for op in failed[:5]:
        print(f"failed op {op.params}: {op.error}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return _fail(f"workload {name} exited with code {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "graphdn" / "__init__.py").is_file():
        return _fail(f"no graphdn sources under {SRC}")
    if not ORACLES.is_file():
        return _fail(f"no oracles at {ORACLES}")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
