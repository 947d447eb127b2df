"""Command-line entry point.

Subcommands expose the laboratory's operations with machine-readable
output: JSON records for single-result commands, CSV for sweeps.  Exit
codes: 0 success, 1 usage error, 2 numerical failure, 3 when a requested
sufficient condition is inapplicable (s1 >= 0).  Identical arguments
produce byte-identical output files.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import asdict, dataclass, fields, replace

from .closed_forms import envelope_indicator_image, majorant_integral, powerlaw_weighted_norm
from .conditions import BoundednessQuery, check_boundedness, family_from_index
from .corner import CornerSystem, solve_corner
from .errors import DomainError, NumericalError, PlanError
from .grids import parse_grid
from .kernels import parse_kernel
from .operators import (POWER_MAX_ITER, POWER_TOL, assemble, apply_operator,
                        operator_norm_pq)
from .spaces import SpaceSpec, parse_space, sample_spec, weighted_norm
from .sweeps import (DEFAULT_R_SCHEDULE, MAX_NODES, GridPolicy, SweepPlan,
                     run_boundedness_sweep, sweep_csv_text)


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Every default the CLI relies on, echoed as provenance in each report.

    Flags named after a field override it.  The provenance follows the
    fields with three constants that no run setting changes: the sweep's
    node budget, ``max_nodes`` (``sweeps.MAX_NODES``), and the power
    method's stop rule, ``power_tol`` and ``power_max_iter``
    (``operators.POWER_TOL`` and ``POWER_MAX_ITER``).
    """

    grid: str = f"grid(10000,40,{GridPolicy.grading:g},{GridPolicy.panel_order})"
    r_schedule: tuple[float, ...] = DEFAULT_R_SCHEDULE
    panels_per_side: int = GridPolicy.panels_per_side
    grading: float = GridPolicy.grading
    panel_order: int = GridPolicy.panel_order
    extra_panels: int = GridPolicy.extra_panels

    def to_dict(self) -> dict:
        return {**asdict(self), "r_schedule": list(self.r_schedule), "max_nodes": MAX_NODES,
                "power_tol": POWER_TOL, "power_max_iter": POWER_MAX_ITER}


EXIT_CODES = ("exit codes: 0 success, 1 usage error, 2 numerical failure, "
              "3 requested condition inapplicable (s1 >= 0)")


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kw):  # subparsers are built with this class too
        kw.setdefault("epilog", EXIT_CODES)
        super().__init__(**kw)
        # argparse's own pattern takes "-2" and "-.5" as values but "-1e-3" as
        # an option name; take every negative float literal as a value
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):  # exit code 1 for usage problems, not argparse's 2
        raise UsageError(message)


def _schedule(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad schedule {text!r}") from None


def _command(sub, name: str, handler, **kw) -> _Parser:
    """Add one subcommand with the flags every report shares."""
    parser = sub.add_parser(name, **kw)
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.set_defaults(handler=handler)
    return parser


@functools.cache  # parsing keeps no state in the parser, so one serves every call
def build_parser() -> _Parser:
    parser = _Parser(prog="opnormlab",
                     description="weighted-space integral operator laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "check", _cmd_check, help="evaluate a sufficient boundedness condition",
                 description="Exit 0 when applicable (s1 < 0), 3 when not; "
                             "the JSON report carries thresholds, margin and verdict.")
    p.add_argument("--thm", type=int, required=True, choices=(1, 2, 3),
                   help="mapping variant: 1 classic, 2 scaled weight, 3 fixed weight")
    p.add_argument("--s1", type=float, required=True)
    p.add_argument("--s2", type=float, required=True)
    p.add_argument("--p1", type=float, default=BoundednessQuery.p1)
    p.add_argument("--p2", type=float, default=BoundednessQuery.p2)
    p.add_argument("--kappa", type=float, required=True, help="kernel decay exponent")

    p = _command(sub, "norm", _cmd_norm, help="weighted norm of a mini-language function")
    p.add_argument("--function", required=True, help="e.g. powerlaw(1.5), gauss(1)")
    p.add_argument("--space", required=True, help="H(s), Hsp(s,p) or Hps(p,s)")
    p.add_argument("--grid", help="grid(R,panels,grading,order)")

    p = _command(sub, "apply", _cmd_apply, help="evaluate (Kf)(x) by quadrature")
    p.add_argument("--kernel", required=True, help="envelope(k[,c]), cosmod(k,w), altmod(k)")
    p.add_argument("--function", required=True)
    p.add_argument("--grid", help="grid(R,panels,grading,order)")
    p.add_argument("--x", type=float, required=True)

    p = _command(sub, "opnorm", _cmd_opnorm, help="discretized weighted-operator norm")
    p.add_argument("--kernel", required=True)
    p.add_argument("--source", required=True, help="source space spec")
    p.add_argument("--target", required=True, help="target space spec")
    p.add_argument("--grid", help=f"grid spec of both spaces (default {RunConfig.grid})")

    p = _command(sub, "sweep", _cmd_sweep, help="boundedness sweep over the truncation schedule")
    p.add_argument("--query", action="append", required=True,
                   help="e.g. thm=1,s1=-0.25,s2=-0.25,kappa=1.5[,p1=2,p2=2]; repeatable")
    p.add_argument("--kernel", help="kernel for all queries (default: envelope per query kappa)")
    p.add_argument("--r-schedule", type=_schedule,
                   help="comma-separated strictly increasing radii (default "
                        + ",".join(f"{R:g}" for R in DEFAULT_R_SCHEDULE) + ")")
    p.add_argument("--panels", dest="panels_per_side", metavar="PANELS", type=int,
                   help="base panels per side")
    p.add_argument("--grading", type=float)
    p.add_argument("--order", dest="panel_order", metavar="ORDER", type=int,
                   help="panel quadrature order")
    p.add_argument("--extra-panels", type=int)

    p = _command(sub, "corner", _cmd_corner,
                 help="solve the coupled two-unknown integral system")
    p.add_argument("--kernel1", required=True, help="coupling kernel of the first equation")
    p.add_argument("--kernel2", required=True, help="coupling kernel of the second equation")
    p.add_argument("--f", required=True, help="data of the first equation (on grid2)")
    p.add_argument("--g", required=True, help="data of the second equation (on grid1)")
    p.add_argument("--grid1", required=True)
    p.add_argument("--grid2", required=True)
    p.add_argument("--s", type=float, default=-0.25, help="data space smoothness (s < 0)")
    p.add_argument("--dump-csv", help="also write C, D samples as CSV")

    p = sub.add_parser("oracle", help="closed-form utilities (no quadrature)")
    osub = p.add_subparsers(dest="kind", required=True)
    o = _command(osub, "majorant", _cmd_oracle_majorant,
                 help="integral of (1+|x|+|y|)^(-a) dy")
    o.add_argument("--x", type=float, required=True)
    o.add_argument("--a", type=float, required=True)
    o.add_argument("--R", type=float, help="truncate to [-R, R] (default: whole line)")
    o = _command(osub, "powerlaw-norm", _cmd_oracle_powerlaw,
                 help="weighted norm of (1+|x|)^(-t)")
    o.add_argument("--t", type=float, required=True)
    o.add_argument("--space", required=True)
    o.add_argument("--R", type=float, help="truncate to [-R, R] (default: whole line)")
    o = _command(osub, "indicator-image", _cmd_oracle_indicator,
                 help="envelope kernel applied to an indicator")
    o.add_argument("--kappa", type=float, required=True)
    o.add_argument("--x", type=float, required=True)
    o.add_argument("--lo", type=float, default=0.0)
    o.add_argument("--hi", type=float, default=1.0)

    return parser


def _load_config(args) -> RunConfig:
    """The defaults, overridden by the flags named after their fields."""
    return replace(RunConfig(), **{f.name: getattr(args, f.name) for f in fields(RunConfig)
                                   if getattr(args, f.name, None) is not None})


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write output file: {exc}") from exc
    else:
        sys.stdout.write(text)


def _report(args, config: RunConfig, payload: dict, code: int = 0) -> int:
    """Write one JSON report framed by its command and provenance; return the exit code."""
    record = {"command": args.command, **payload, "provenance": config.to_dict()}
    _emit(json.dumps(record, indent=2) + "\n", args.out)
    return code


# --- handlers ---------------------------------------------------------------

def _cmd_check(args, config: RunConfig) -> int:
    query = BoundednessQuery(family_from_index(args.thm), args.s1, args.s2,
                             args.kappa, args.p1, args.p2)
    report = check_boundedness(query)
    return _report(args, config, {"thm": args.thm, **report.to_dict()},
                   0 if report.applicable else 3)


def _cmd_norm(args, config: RunConfig) -> int:
    grid = parse_grid(config.grid)
    value = weighted_norm(sample_spec(grid, args.function), parse_space(args.space))
    return _report(args, config, {"function": args.function, "space": args.space,
                                  "grid_nodes": grid.size, "value": value})


def _cmd_apply(args, config: RunConfig) -> int:
    grid = parse_grid(config.grid)
    kernel = parse_kernel(args.kernel)
    value = apply_operator(kernel, sample_spec(grid, args.function), grid, args.x)
    return _report(args, config, {"kernel": args.kernel, "function": args.function,
                                  "x": args.x, "grid_nodes": grid.size, "value": value})


def _cmd_opnorm(args, config: RunConfig) -> int:
    grid = parse_grid(config.grid)
    kernel = parse_kernel(args.kernel)
    source = parse_space(args.source)
    target = parse_space(args.target)
    op = assemble(kernel, source, target, grid)
    estimate = operator_norm_pq(op)
    return _report(args, config, {
        "kernel": args.kernel, "source": args.source, "target": args.target,
        "grid_nodes": grid.size, "value": estimate.value, "certified": estimate.certified,
        "converged": estimate.converged, "iterations": estimate.iterations})


def _parse_query(text: str) -> BoundednessQuery:
    values: dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise UsageError(f"query field {part!r} is not key=value")
        key = key.strip().lower()
        if key in values:
            raise UsageError(f"query field {key!r} is given twice in {text!r}")
        values[key] = value.strip()
    if "thm" not in values:
        raise UsageError(f"query {text!r} needs thm=")
    family = family_from_index(values.pop("thm"))
    known = {"s1", "s2", "kappa", "p1", "p2"}
    unknown = set(values) - known
    if unknown:
        raise UsageError(f"unknown query fields: {sorted(unknown)}")
    missing = {"s1", "s2", "kappa"} - set(values)
    if missing:
        raise UsageError(f"query {text!r} is missing {sorted(missing)}")
    try:
        numbers = {key: float(value) for key, value in values.items()}
    except ValueError:
        raise UsageError(f"query {text!r} has a non-numeric value") from None
    return BoundednessQuery(family, **numbers)


def _cmd_sweep(args, config: RunConfig) -> int:
    queries = tuple(_parse_query(text) for text in args.query)
    kernel = parse_kernel(args.kernel) if args.kernel else None
    policy = GridPolicy(**{f.name: getattr(config, f.name) for f in fields(GridPolicy)})
    plan = SweepPlan(queries=queries, kernel=kernel, R_schedule=config.r_schedule,
                     grid=policy)
    result = run_boundedness_sweep(plan)
    provenance = {"command": args.command,
                  "power_tol": repr(POWER_TOL), "power_max_iter": POWER_MAX_ITER}
    if args.kernel:
        provenance["kernel"] = args.kernel  # the user's spelling, as in the JSON reports
    _emit(sweep_csv_text(result, provenance), args.out)
    return 0


def _cmd_corner(args, config: RunConfig) -> int:
    grid1 = parse_grid(args.grid1)
    grid2 = parse_grid(args.grid2)
    system = CornerSystem(
        kernel_1=parse_kernel(args.kernel1),
        kernel_2=parse_kernel(args.kernel2),
        f_data=sample_spec(grid2, args.f),
        g_data=sample_spec(grid1, args.g),
        space=SpaceSpec.h(args.s),
    )
    solution = solve_corner(system, grid1, grid2)
    if args.dump_csv:
        lines = ["unknown,node,value"]
        for name, part in (("C", solution.c), ("D", solution.d)):
            for node, value in zip(part.grid.nodes, part.values):
                lines.append(f"{name},{float(node)!r},{float(value)!r}")
        _emit("\n".join(lines) + "\n", args.dump_csv)
    return _report(args, config, {
        "kernel1": args.kernel1, "kernel2": args.kernel2, "f": args.f, "g": args.g,
        "grid1_nodes": grid1.size, "grid2_nodes": grid2.size, "s": args.s,
        "residual_1": solution.residual_1, "residual_2": solution.residual_2,
        # the estimate is good to a small factor and its last digits can move with
        # the BLAS build and thread count, so the report keeps 6 significant digits
        "condition_estimate": float(f"{solution.condition_estimate:.6g}"),
        "c_norm": weighted_norm(solution.c, system.space),
        "d_norm": weighted_norm(solution.d, system.space)})


def _cmd_oracle_majorant(args, config: RunConfig) -> int:
    value = majorant_integral(args.x, args.a, args.R)
    return _report(args, config, {"kind": args.kind, "x": args.x, "a": args.a,
                                  "R": args.R, "value": value})


def _cmd_oracle_powerlaw(args, config: RunConfig) -> int:
    value = powerlaw_weighted_norm(args.t, parse_space(args.space), args.R)
    return _report(args, config, {"kind": args.kind, "t": args.t, "space": args.space,
                                  "R": args.R, "value": value})


def _cmd_oracle_indicator(args, config: RunConfig) -> int:
    value = envelope_indicator_image(args.kappa, args.x, args.lo, args.hi)
    return _report(args, config, {"kind": args.kind, "kappa": args.kappa, "x": args.x,
                                  "lo": args.lo, "hi": args.hi, "value": value})


def run_cli(argv) -> int:
    """Dispatch one command line; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        config = _load_config(args)
        return args.handler(args, config)
    except (UsageError, DomainError, PlanError) as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: numerical: out of memory: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run_cli(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
