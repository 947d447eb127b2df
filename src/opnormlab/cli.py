"""Command-line entry point.

Subcommands expose the laboratory's operations with machine-readable
output: JSON records for single-result commands, CSV for sweeps.  Exit
codes: 0 success, 1 usage error, 2 numerical failure, 3 when a requested
sufficient condition is inapplicable (s1 >= 0).  Identical arguments and
seed produce byte-identical output files.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields, replace

from .closed_forms import envelope_indicator_image, powerlaw_weighted_norm
from .conditions import BoundednessQuery, check_boundedness, family_from_index
from .corner import CornerSystem, solve_corner
from .errors import DomainError, NumericalError, PlanError
from .grids import parse_grid
from .kernels import majorant_integral, parse_kernel
from .operators import (POWER_MAX_ITER, POWER_TOL, assemble, apply_operator,
                        operator_norm_pq)
from .spaces import SpaceSpec, parse_space, sample_spec, weighted_norm
from .sweeps import (DEFAULT_R_SCHEDULE, GridPolicy, SweepPlan,
                     run_boundedness_sweep, sweep_csv_text)


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Every default the CLI relies on, echoed as provenance in each report."""

    grid: str = f"grid(10000,40,{GridPolicy.grading:g},{GridPolicy.panel_order})"
    r_schedule: tuple[float, ...] = DEFAULT_R_SCHEDULE
    panels_per_side: int = GridPolicy.panels_per_side
    grading: float = GridPolicy.grading
    panel_order: int = GridPolicy.panel_order
    extra_panels: int = GridPolicy.extra_panels
    max_nodes: int = GridPolicy.max_nodes
    power_tol: float = POWER_TOL
    power_max_iter: int = POWER_MAX_ITER
    seed: int = 0

    def to_dict(self) -> dict:
        out = asdict(self)
        out["r_schedule"] = list(self.r_schedule)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        merged = dict(data)
        if "r_schedule" in merged:
            merged["r_schedule"] = tuple(float(R) for R in merged["r_schedule"])
        return cls(**merged)


EXIT_CODES = ("exit codes: 0 success, 1 usage error, 2 numerical failure, "
              "3 requested condition inapplicable (s1 >= 0)")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage problems, not argparse's 2
        raise UsageError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file of RunConfig overrides")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--seed", type=int, help="seed recorded in provenance")


def build_parser() -> _Parser:
    parser = _Parser(prog="opnormlab",
                     description="weighted-space integral operator laboratory",
                     epilog=EXIT_CODES)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: _Parser(epilog=EXIT_CODES, **kw))

    p = sub.add_parser("check", parents=[], help="evaluate a sufficient boundedness condition",
                       description="Exit 0 when applicable (s1 < 0), 3 when not; "
                                   "the JSON report carries thresholds, margin and verdict.")
    p.add_argument("--thm", type=int, required=True, choices=(1, 2, 3),
                   help="mapping variant: 1 classic, 2 scaled weight, 3 fixed weight")
    p.add_argument("--s1", type=float, required=True)
    p.add_argument("--s2", type=float, required=True)
    p.add_argument("--p1", type=float, default=2.0)
    p.add_argument("--p2", type=float, default=2.0)
    p.add_argument("--kappa", type=float, required=True, help="kernel decay exponent")
    _add_common(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("norm", help="weighted norm of a mini-language function")
    p.add_argument("--function", required=True, help="e.g. powerlaw(1.5), gauss(1)")
    p.add_argument("--space", required=True, help="H(s), Hsp(s,p) or Hps(p,s)")
    p.add_argument("--grid", help="grid(R,panels,grading,order)")
    _add_common(p)
    p.set_defaults(handler=_cmd_norm)

    p = sub.add_parser("apply", help="evaluate (Kf)(x) by quadrature")
    p.add_argument("--kernel", required=True, help="envelope(k[,c]), cosmod(k,w), altmod(k)")
    p.add_argument("--function", required=True)
    p.add_argument("--grid", help="grid(R,panels,grading,order)")
    p.add_argument("--x", type=float, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser("opnorm", help="discretized weighted-operator norm")
    p.add_argument("--kernel", required=True)
    p.add_argument("--source", required=True, help="source space spec")
    p.add_argument("--target", required=True, help="target space spec")
    p.add_argument("--grid", help="source grid spec (default from config)")
    p.add_argument("--target-grid", dest="target_grid", help="target grid spec (default: source grid)")
    _add_common(p)
    p.set_defaults(handler=_cmd_opnorm)

    p = sub.add_parser("sweep", help="boundedness sweep over the truncation schedule",
                       description="CSV columns are fixed; elapsed_ms stays empty "
                                   "unless --timing is given so runs are byte-reproducible.")
    p.add_argument("--query", action="append", required=True,
                   help="e.g. thm=1,s1=-0.25,s2=-0.25,kappa=1.5[,p1=2,p2=2]; repeatable")
    p.add_argument("--kernel", help="kernel for all queries (default: envelope per query kappa)")
    p.add_argument("--r-schedule", dest="r_schedule",
                   help="comma-separated radii, fixed multiple apart (default 10,40,160,640)")
    p.add_argument("--panels", type=int, help="base panels per side")
    p.add_argument("--grading", type=float)
    p.add_argument("--order", type=int, help="panel quadrature order")
    p.add_argument("--extra-panels", dest="extra_panels", type=int)
    p.add_argument("--max-nodes", dest="max_nodes", type=int)
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock per cell: its restriction and norm, plus the "
                        "query's one assembly at the largest radius (breaks byte "
                        "reproducibility)")
    _add_common(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("corner", help="solve the coupled two-unknown integral system")
    p.add_argument("--kernel1", required=True, help="coupling kernel of the first equation")
    p.add_argument("--kernel2", required=True, help="coupling kernel of the second equation")
    p.add_argument("--f", required=True, help="data of the first equation (on grid2)")
    p.add_argument("--g", required=True, help="data of the second equation (on grid1)")
    p.add_argument("--grid1", required=True)
    p.add_argument("--grid2", required=True)
    p.add_argument("--s", type=float, default=-0.25, help="data space smoothness (s < 0)")
    p.add_argument("--dump-csv", dest="dump_csv", help="also write C, D samples as CSV")
    _add_common(p)
    p.set_defaults(handler=_cmd_corner)

    p = sub.add_parser("oracle", help="closed-form utilities (no quadrature)")
    osub = p.add_subparsers(dest="kind", required=True,
                            parser_class=lambda **kw: _Parser(epilog=EXIT_CODES, **kw))
    o = osub.add_parser("majorant", help="integral of (1+|x|+|y|)^(-a) dy")
    o.add_argument("--x", type=float, required=True)
    o.add_argument("--a", type=float, required=True)
    o.add_argument("--R", type=float, help="truncate to [-R, R] (default: whole line)")
    _add_common(o)
    o.set_defaults(handler=_cmd_oracle_majorant)
    o = osub.add_parser("powerlaw-norm", help="weighted norm of (1+|x|)^(-t)")
    o.add_argument("--t", type=float, required=True)
    o.add_argument("--space", required=True)
    o.add_argument("--R", type=float, help="truncate to [-R, R] (default: whole line)")
    _add_common(o)
    o.set_defaults(handler=_cmd_oracle_powerlaw)
    o = osub.add_parser("indicator-image", help="envelope kernel applied to an indicator")
    o.add_argument("--kappa", type=float, required=True)
    o.add_argument("--x", type=float, required=True)
    o.add_argument("--lo", type=float, default=0.0)
    o.add_argument("--hi", type=float, default=1.0)
    _add_common(o)
    o.set_defaults(handler=_cmd_oracle_indicator)

    return parser


def _load_config(args) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise UsageError("config file must hold a JSON object")
        config = RunConfig.from_dict(data)
    overrides = {}
    for name in ("seed",):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    flag_map = {
        "grid": "grid", "panels": "panels_per_side", "grading": "grading",
        "order": "panel_order", "extra_panels": "extra_panels",
        "max_nodes": "max_nodes",
    }
    for flag, key in flag_map.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides[key] = value
    schedule = getattr(args, "r_schedule", None)
    if schedule is not None:
        try:
            overrides["r_schedule"] = tuple(float(tok) for tok in schedule.split(","))
        except ValueError as exc:
            raise UsageError(f"bad schedule {schedule!r}") from exc
    return replace(config, **overrides) if overrides else config


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out: str | None) -> None:
    _emit(json.dumps(payload, indent=2) + "\n", out)


def _grid_from(args, config: RunConfig):
    return parse_grid(getattr(args, "grid", None) or config.grid)


# --- handlers ---------------------------------------------------------------

def _cmd_check(args, config: RunConfig) -> int:
    query = BoundednessQuery(family_from_index(args.thm), args.s1, args.s2,
                             args.kappa, args.p1, args.p2)
    report = check_boundedness(query)
    payload = {"command": "check", "thm": args.thm, **report.to_dict(),
               "provenance": config.to_dict()}
    _emit_json(payload, args.out)
    return 0 if report.applicable else 3


def _cmd_norm(args, config: RunConfig) -> int:
    grid = _grid_from(args, config)
    space = parse_space(args.space)
    value = weighted_norm(sample_spec(grid, args.function), space)
    payload = {"command": "norm", "function": args.function, "space": args.space,
               "grid_nodes": grid.size, "value": value, "provenance": config.to_dict()}
    _emit_json(payload, args.out)
    return 0


def _cmd_apply(args, config: RunConfig) -> int:
    grid = _grid_from(args, config)
    kernel = parse_kernel(args.kernel)
    value = apply_operator(kernel, sample_spec(grid, args.function), grid, args.x)
    payload = {"command": "apply", "kernel": args.kernel, "function": args.function,
               "x": args.x, "grid_nodes": grid.size, "value": value,
               "provenance": config.to_dict()}
    _emit_json(payload, args.out)
    return 0


def _cmd_opnorm(args, config: RunConfig) -> int:
    source_grid = _grid_from(args, config)
    target_grid = parse_grid(args.target_grid) if args.target_grid else source_grid
    kernel = parse_kernel(args.kernel)
    source = parse_space(args.source)
    target = parse_space(args.target)
    op = assemble(kernel, source, target, source_grid, target_grid)
    estimate = operator_norm_pq(op, tol=config.power_tol, max_iter=config.power_max_iter)
    payload = {"command": "opnorm", "kernel": args.kernel, "source": args.source,
               "target": args.target, "source_nodes": source_grid.size,
               "target_nodes": target_grid.size, "value": estimate.value,
               "certified": estimate.certified, "converged": estimate.converged,
               "iterations": estimate.iterations, "provenance": config.to_dict()}
    _emit_json(payload, args.out)
    return 0


def _parse_query(text: str) -> BoundednessQuery:
    values: dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise UsageError(f"query field {part!r} is not key=value")
        values[key.strip().lower()] = value.strip()
    if "thm" in values:
        family = family_from_index(int(values.pop("thm")))
    elif "family" in values:
        family = values.pop("family")
    else:
        raise UsageError(f"query {text!r} needs thm= or family=")
    known = {"s1", "s2", "kappa", "p1", "p2"}
    unknown = set(values) - known
    if unknown:
        raise UsageError(f"unknown query fields: {sorted(unknown)}")
    missing = {"s1", "s2", "kappa"} - set(values)
    if missing:
        raise UsageError(f"query {text!r} is missing {sorted(missing)}")
    numbers = {key: float(value) for key, value in values.items()}
    return BoundednessQuery(family, numbers["s1"], numbers["s2"], numbers["kappa"],
                            numbers.get("p1", 2.0), numbers.get("p2", 2.0))


def _cmd_sweep(args, config: RunConfig) -> int:
    queries = tuple(_parse_query(text) for text in args.query)
    kernel = parse_kernel(args.kernel) if args.kernel else None
    policy = GridPolicy(panels_per_side=config.panels_per_side, grading=config.grading,
                        panel_order=config.panel_order, extra_panels=config.extra_panels,
                        max_nodes=config.max_nodes)
    plan = SweepPlan(queries=queries, kernel=kernel, R_schedule=config.r_schedule,
                     grid=policy, seed=config.seed)
    result = run_boundedness_sweep(plan, timing=args.timing,
                                   tol=config.power_tol, max_iter=config.power_max_iter)
    provenance = {"command": "sweep", "power_tol": repr(config.power_tol),
                  "power_max_iter": config.power_max_iter}
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
    payload = {
        "command": "corner", "kernel1": args.kernel1, "kernel2": args.kernel2,
        "f": args.f, "g": args.g, "grid1_nodes": grid1.size, "grid2_nodes": grid2.size,
        "s": args.s,
        "residual_1": solution.residual_1, "residual_2": solution.residual_2,
        "condition_estimate": solution.condition_estimate,
        "c_norm": weighted_norm(solution.c, system.space),
        "d_norm": weighted_norm(solution.d, system.space),
        "provenance": config.to_dict(),
    }
    _emit_json(payload, args.out)
    if args.dump_csv:
        lines = ["unknown,node,value"]
        for name, part in (("C", solution.c), ("D", solution.d)):
            for node, value in zip(part.grid.nodes, part.values):
                lines.append(f"{name},{float(node)!r},{float(value)!r}")
        with open(args.dump_csv, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
    return 0


def _cmd_oracle_majorant(args, config: RunConfig) -> int:
    value = majorant_integral(args.x, args.a, args.R)
    payload = {"command": "oracle", "kind": "majorant", "x": args.x, "a": args.a,
               "R": args.R, "value": value, "provenance": config.to_dict()}
    _emit_json(payload, args.out)
    return 0


def _cmd_oracle_powerlaw(args, config: RunConfig) -> int:
    value = powerlaw_weighted_norm(args.t, parse_space(args.space), args.R)
    payload = {"command": "oracle", "kind": "powerlaw-norm", "t": args.t,
               "space": args.space, "R": args.R, "value": value,
               "provenance": config.to_dict()}
    _emit_json(payload, args.out)
    return 0


def _cmd_oracle_indicator(args, config: RunConfig) -> int:
    value = envelope_indicator_image(args.kappa, args.x, args.lo, args.hi)
    payload = {"command": "oracle", "kind": "indicator-image", "kappa": args.kappa,
               "x": args.x, "lo": args.lo, "hi": args.hi, "value": value,
               "provenance": config.to_dict()}
    _emit_json(payload, args.out)
    return 0


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


def main() -> int:
    return run_cli(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
