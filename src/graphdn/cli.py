"""Command-line front end: generate, solve, dn, converge, measure.

Exit codes: 0 success, 2 validation or hard error, 3 a measure or
convergence run finished without meeting its tolerance (soft failure).
All output is deterministic for a fixed command line and seed.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import fileio, measure
from .dirichlet import (
    InteriorSystem,
    current_balance,
    dn_matrix,
    energy_identity,
    max_principle_check,
    solve_dirichlet,
)
from .errors import DomainError, SingularInteriorError, ValidationError
from .graph import MetricGraph, address_code, graph_report
from .measure import ClopenSet, SimpleBoundaryFunction, combine
from .trees import AlphaBetaSpec, add_shortcut_edges, generate_ab_tree

__all__ = ["main"]


def _parse_float(token: str, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValidationError(f"cannot parse {what} {token!r} as a number") from None


def _family_from_args(args) -> AlphaBetaSpec:
    kappa2 = ()
    if args.kappa2:
        kappa2 = tuple(_parse_float(x, "kappa2") for x in args.kappa2.split(","))
    return AlphaBetaSpec(
        alpha=args.alpha,
        depth=getattr(args, "depth", 2),
        root_length=args.root_length,
        weight_ratio=args.weight_ratio,
        kappa2_per_level=kappa2,
    )


def _parse_set(family: AlphaBetaSpec, token: str) -> ClopenSet:
    token = token.strip()
    if token == "v0":
        return ClopenSet.root_vertex(family)
    if token == "all":
        return ClopenSet.whole_boundary(family)
    if token == "cantor":
        return ClopenSet.cantor_part(family)
    if token.startswith("cyl:"):
        return ClopenSet.cylinder(family, token[4:])
    raise ValidationError(
        f"cannot parse boundary set {token!r} "
        "(expected cyl:PREFIX, v0, cantor, or all)"
    )


def _parse_function(family: AlphaBetaSpec, spec: str) -> SimpleBoundaryFunction:
    """Parse terms like ``cyl:a``, ``cyl:a-cyl:b``, ``0.5*cyl:a+2*v0``."""
    text = spec.replace(" ", "")
    if not text:
        raise ValidationError("empty boundary function")
    terms: list[tuple[float, SimpleBoundaryFunction]] = []
    sign = 1.0
    token = ""
    for ch in text + "+":
        if ch in "+-":
            # Keep exponent signs inside coefficients like 1e-3 or .5E+1: no
            # set ends in e, and float() judges the coefficient.
            if token[-1:] in ("e", "E") and "*" not in token:
                token += ch
                continue
            if token:
                coef = sign
                if "*" in token:
                    raw, token = token.split("*", 1)
                    coef = sign * _parse_float(raw, "coefficient")
                terms.append(
                    (coef, SimpleBoundaryFunction.indicator(_parse_set(family, token)))
                )
                token = ""
            sign = 1.0 if ch == "+" else -1.0
        else:
            token += ch
    if not terms:
        raise ValidationError(f"no terms in boundary function {spec!r}")
    return combine(terms)


def _resolve_vertex(g: MetricGraph, token: str) -> int:
    token = token.strip()
    if token == "v0" or token.startswith("@"):
        code = 0 if token == "v0" else address_code(token[1:])
        codes = g.address_codes
        found = () if codes is None else np.flatnonzero(codes == code)
        if len(found):
            return int(found[0])
        if token == "v0":
            raise ValidationError("graph has no designated root vertex")
        if codes is None:
            raise DomainError("graph carries no address metadata")
        raise ValidationError(f"no vertex at address {token!r}")
    try:
        return int(token)
    except ValueError:
        raise ValidationError(
            f"cannot parse vertex {token!r} (expected an id, v0, or @ADDRESS)"
        ) from None


def _parse_boundary_data(g: MetricGraph, spec: str) -> dict[int, float]:
    data: dict[int, float] = {}
    keys: dict[int, str] = {}
    default = None
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, raw = item.partition("=")
        key = key.strip()
        if not raw:
            raise ValidationError(f"malformed boundary datum {item!r}")
        if key == "default":
            if default is not None:
                raise ValidationError("boundary datum 'default' given twice")
            default = _parse_float(raw, "boundary value")
            continue
        v = _resolve_vertex(g, key)
        if v in keys:
            raise ValidationError(
                f"boundary vertex {v} given twice ({keys[v]!r} and {key!r})"
            )
        keys[v] = key
        data[v] = _parse_float(raw, "boundary value")
    if default is not None:
        for v in g.boundary_vertices:
            data.setdefault(v, default)
    return data


def _load_graph(args) -> MetricGraph:
    if args.graph and args.alpha is not None:
        raise ValidationError("give either --graph or family flags, not both")
    if args.graph is not None:
        return fileio.read_graph(args.graph)
    return generate_ab_tree(_family_from_args(args))


def _print_report(g: MetricGraph) -> None:
    rep = graph_report(g)
    print(f"vertices {g.n_vertices}")
    print(f"edges {g.n_edges}")
    print(f"boundary-vertices {rep.boundary_count}")
    print(f"connected {'yes' if rep.connected else 'no'}")
    print(f"total-weight {rep.total_weight:.12g}")
    print(f"total-volume {rep.total_volume:.12g}")
    print(f"diameter-bound {rep.diameter_bound:.12g}")
    print(f"potential-bound {rep.potential_bound:.12g}")


def _cmd_generate(args) -> int:
    if args.seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {args.seed}")
    g = generate_ab_tree(_family_from_args(args))
    if args.shortcut:
        parsed = []
        for spec in args.shortcut:
            fields = spec.split(",")
            if len(fields) != 3:
                raise ValidationError(
                    f"shortcut {spec!r} must be ENDPOINT,ENDPOINT,LENGTH"
                )
            parsed.append(
                (
                    _resolve_vertex(g, fields[0]),
                    _resolve_vertex(g, fields[1]),
                    _parse_float(fields[2], "shortcut length"),
                )
            )
        g, short_report = add_shortcut_edges(g, parsed, seed=args.seed)
        print(f"shortcuts {short_report.shortcut_count}")
        print(
            "shortcut-lengths-nonincreasing "
            f"{'yes' if short_report.lengths_nonincreasing else 'no'}"
        )
        print(f"distortion-bound {short_report.distortion_bound:.12g}")
        print(f"sampled-pairs {short_report.sampled_pairs}")
    fileio.write_graph(g, args.output)
    _print_report(g)
    return 0


def _summarize_solution(g, sol, system) -> None:
    kirchhoff, scales = sol.kirchhoff_residuals()
    worst = float((kirchhoff / (scales + (scales == 0))).max(initial=0.0))
    balance = current_balance(sol)
    identity = energy_identity(sol)
    # Reciprocity <DN u, q> = <u, DN q> against one fixed-seed probe solve
    # through the same factorization.
    q = np.random.default_rng(0).standard_normal(len(sol.boundary_values))
    probe = solve_dirichlet(g, q, system=system)
    u, du = sol.boundary_values, sol.boundary_derivatives
    dq = probe.boundary_derivatives
    reciprocity = abs(u @ dq - q @ du)
    reciprocity_scale = np.abs(u) @ np.abs(dq) + np.abs(q) @ np.abs(du)
    principle = max_principle_check(sol)
    # Each identity residual is relative to the sum of the absolute values
    # of its terms, so it reads the same whatever the scale of the data.
    print(f"energy {sol.energy:.12g}")
    print(f"kirchhoff-residual {worst:.6g}")
    print(f"current-balance-residual {balance.residual / (balance.scale or 1.0):.6g}")
    print(f"energy-identity-residual {identity.residual / (identity.scale or 1.0):.6g}")
    print(f"dn-symmetry-residual {reciprocity / (reciprocity_scale or 1.0):.6g}")
    if principle.skipped_constant:
        print("max-principle skipped-constant-data")
    elif principle.passed:
        print("max-principle pass")
    else:
        print(f"max-principle fail ({len(principle.violations)} violations)")


def _cmd_solve(args) -> int:
    g = _load_graph(args)
    data = _parse_boundary_data(g, args.data)
    system = InteriorSystem(g)
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_dirichlet(g, data, system=system)
    checked = (sol.values, sol.boundary_derivatives, sol.energy)
    if not all(np.isfinite(x).all() for x in checked):
        raise DomainError("the solve overflows the float range")
    print(f"condition-estimate {system.condition_estimate:.6g}")
    _summarize_solution(g, sol, system)
    if args.solution_out:
        fileio.write_solution(sol, args.solution_out)
    return 0


def _cmd_dn(args) -> int:
    g = _load_graph(args)
    dn = dn_matrix(g)
    m = dn.matrix
    for v, row in zip(dn.boundary, m):
        print(f"row {v}" + "".join(f" {x:.12g}" for x in row))
    # Relative, so they read the same at any scale.  S = D^-1/2 L D^-1/2, D
    # the diagonal, has L's signs and, as L is semidefinite, |S_ij| <= 1:
    # its largest asymmetry and its least eigenvalue are printed.
    root = np.sqrt(np.abs(np.diag(m)))
    root += root == 0
    scaled = m / root[:, None] / root
    print(f"symmetry-residual {np.abs(scaled - scaled.T).max():.6g}")
    print(f"min-eigenvalue {np.linalg.eigvalsh(0.5 * (scaled + scaled.T))[0]:.12g}")
    if not g.edge_table[3].any():
        # Each row sum, relative to the row's absolute sum.
        rows = np.abs(m).sum(axis=1)
        residual = np.abs(m.sum(axis=1)) / (rows + (rows == 0))
        print(f"constant-nullspace-residual {residual.max():.6g}")
    if args.output:
        fileio.write_dn_matrix(dn, args.output)
    return 0


def _cmd_converge(args) -> int:
    family = _family_from_args(args)
    f = _parse_function(family, args.boundary_function)
    e = _parse_set(family, args.target_set)
    start = max(args.min_depth or 2, f.min_truncation_depth, e.min_truncation_depth)
    report = measure.dn_function(
        f, e, tol=args.tol, n_max=args.max_depth, n_min=start
    )
    print("depth value residual")
    for i, (n, v) in enumerate(zip(report.depths, report.values)):
        res = "-" if i == 0 else f"{report.residuals[i - 1]:.6g}"
        print(f"{n} {v:.12g} {res}")
    print(f"converged {'yes' if report.converged else 'no'}")
    print(f"limit {report.limit:.12g}")
    if report.extrapolated is not None:
        print(f"extrapolated {report.extrapolated:.12g}")
    if args.output:
        fileio.write_convergence(report, args.output)
    if args.plot_data:
        fileio.write_plot_data(report, args.plot_data)
    return 0 if report.converged else 3


def _cmd_measure(args) -> int:
    f = _parse_function(_family_from_args(args), args.boundary_function)
    table = measure.measure_table(
        f, partition_depth=args.partition_depth, tol=args.tol, n_max=args.max_depth
    )
    print("cell value residual converged")
    for cell, report in zip(table.cells, table.reports):
        last = report.residuals[-1] if report.residuals else float("nan")
        print(
            f"{cell.label()} {report.limit:.12g} {last:.6g} "
            f"{'yes' if report.converged else 'no'}"
        )
    print(f"additivity-residual {table.additivity_residual:.6g}")
    print(f"positive-total {table.positive_total:.12g}")
    print(f"negative-total {table.negative_total:.12g}")
    print(f"signed-total {table.signed_total:.12g}")
    if args.output:
        fileio.write_measure_table(table, args.output)
    return 0 if table.converged else 3


def _add_family_flags(p: argparse.ArgumentParser, with_depth: bool) -> None:
    p.add_argument("--alpha", type=float, required=False)
    if with_depth:
        p.add_argument("--depth", type=int, default=4)
    p.add_argument("--root-length", type=float, default=1.0)
    p.add_argument("--weight-ratio", type=float, default=1.0 / 3.0)
    p.add_argument("--kappa2", "--kappa2-per-level", type=str, default="",
                   help="comma-separated potential per level")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphdn",
        description="Dirichlet problems and boundary flux maps on metric graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a tree-family graph file")
    _add_family_flags(p, with_depth=True)
    p.add_argument("--shortcut", action="append",
                   help="extra edge ENDPOINT,ENDPOINT,LENGTH (repeatable)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="solve a Dirichlet problem")
    p.add_argument("--graph")
    _add_family_flags(p, with_depth=True)
    p.add_argument("--data", required=True,
                   help="boundary data, e.g. '0=1,@aa=0,default=0'")
    p.add_argument("--solution-out")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("dn", help="print the Dirichlet-to-Neumann matrix")
    p.add_argument("--graph")
    _add_family_flags(p, with_depth=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_dn)

    p = sub.add_parser("converge", help="exhaustion study of one flux value")
    _add_family_flags(p, with_depth=False)
    p.add_argument("--F", dest="boundary_function", required=True)
    p.add_argument("--E", dest="target_set", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--min-depth", type=int)
    p.add_argument("--plot-data")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("measure", help="flux table over a cylinder partition")
    _add_family_flags(p, with_depth=False)
    p.add_argument("--F", dest="boundary_function", required=True)
    p.add_argument("--partition-depth", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_measure)

    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Expand ``--config FILE`` into flags placed before the explicit ones.

    The file holds one ``key value`` pair per line (``#`` comments allowed),
    keys matching long flag names without the dashes, e.g. ``alpha 0.5`` or
    ``shortcut @a,@b,1.0``.  Explicit command-line flags override the file
    because argparse keeps the last occurrence.
    """
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        raise ValidationError("--config needs a file path")
    path = argv[at + 1]
    rest = argv[:at] + argv[at + 2:]
    if not rest:
        raise ValidationError("--config requires a subcommand")
    injected: list[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ValidationError(f"config file {path} is not UTF-8 text") from None
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition(" ")
        if not value.strip():
            raise ValidationError(f"malformed config line {raw.strip()!r}")
        injected += [f"--{key.replace('_', '-')}", value.strip()]
    return [rest[0]] + injected + rest[1:]


# Library parameters set from CLI flags: errors name the flag as typed.
_FLAGS = {"n_max": "--max-depth", "n_min": "--min-depth"}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _apply_config(list(argv))
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "alpha", None) is None and getattr(args, "graph", None) is None:
        print("error: --alpha (or --graph) is required", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValidationError, DomainError, SingularInteriorError, OSError) as exc:
        message = str(exc)
        flag = _FLAGS.get(getattr(exc, "argument", None))
        if flag is not None:
            message = flag + message[len(exc.argument):]
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
