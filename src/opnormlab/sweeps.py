"""Empirical boundedness laboratory: truncation sweeps, growth fits,
proof-step inequality checks and below-threshold probes.

A sweep discretizes the same operator on a nested family of truncated
grids (slices of the largest; ``grids.nested_slice`` tests each radius's
nesting once, by panel edges) and watches the norm estimates along the
truncation schedule.  Each radius starts the power method from the previous
one's maximizer and reuses its image, so those estimates can only grow with
the radius, and a log-log growth exponent near zero is evidence of
saturation, i.e. of a bounded operator.  Growth verdicts are reported but
only asserted for pre-derived witness cases: the conditions checked here
are sufficient, not necessary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .closed_forms import _integrable_exponent, majorant_integral
from .conditions import BoundednessQuery, ConditionReport, check_boundedness, query_spaces
from .errors import DomainError, PlanError
from .grids import (DEFAULT_EXTRA_PANELS, DEFAULT_GRADING, DEFAULT_PANEL_ORDER, Grid,
                    nested_grids)
from .kernels import KernelSpec
from .operators import apply_operator, assemble, empirical_ratio, operator_norm_pq
from .spaces import SampledFunction, conjugate_exponent, sample, weighted_norm

DEFAULT_R_SCHEDULE = (10.0, 40.0, 160.0, 640.0)
MAX_NODES = 4000
GAMMA_SATURATING = 0.05
GAMMA_GROWING = 0.1

SWEEP_CSV_COLUMNS = (
    "row", "query", "family", "s1", "s2", "p1", "p2", "kappa",
    "R", "nodes", "norm", "certified", "converged", "gamma", "verdict",
)


@dataclass(frozen=True)
class GridPolicy:
    """How sweep grids are built."""

    panels_per_side: int = 12
    grading: float = DEFAULT_GRADING
    panel_order: int = DEFAULT_PANEL_ORDER
    extra_panels: int = DEFAULT_EXTRA_PANELS

    def final_node_count(self, schedule_length: int) -> int:
        panels = self.panels_per_side + self.extra_panels * (schedule_length - 1)
        return 2 * panels * self.panel_order

    def build(self, schedule) -> list[Grid]:
        return nested_grids(schedule, self.panels_per_side, self.grading,
                            self.panel_order, self.extra_panels)


@dataclass(frozen=True)
class SweepPlan:
    """Queries, kernel and truncation schedule of one sweep.

    ``kernel`` = None means each query runs against the pure envelope
    kernel with its own decay exponent.  Schedule radii must be positive,
    finite and strictly increasing; any such schedule nests its grids, and
    the largest grid holds at most ``MAX_NODES`` nodes.
    """

    queries: tuple[BoundednessQuery, ...]
    kernel: KernelSpec | None = None
    R_schedule: tuple[float, ...] = DEFAULT_R_SCHEDULE
    grid: GridPolicy = field(default_factory=GridPolicy)

    def __post_init__(self):
        object.__setattr__(self, "queries", tuple(self.queries))
        object.__setattr__(self, "R_schedule", tuple(float(R) for R in self.R_schedule))
        schedule = self.R_schedule
        if not schedule:
            raise PlanError("empty truncation schedule")
        if any(R <= 0 or not math.isfinite(R) for R in schedule):
            raise PlanError("schedule radii must be positive and finite")
        if any(b <= a for a, b in zip(schedule, schedule[1:])):
            raise PlanError("truncation schedule must be strictly increasing")
        final = self.grid.final_node_count(len(schedule))
        if final > MAX_NODES:
            raise PlanError(
                f"node budget exceeded: {final} nodes at R = {schedule[-1]}, budget {MAX_NODES}"
            )


@dataclass(frozen=True)
class SweepCell:
    """Norm estimate for one (query, R) pair."""

    query_index: int
    R: float
    nodes: int
    value: float
    certified: bool
    converged: bool


@dataclass(frozen=True)
class QuerySummary:
    """Fitted growth exponent and verdict for one query."""

    query_index: int
    gamma: float | None
    verdict: str


@dataclass(frozen=True)
class SweepResult:
    plan: SweepPlan
    cells: tuple[SweepCell, ...]
    summaries: tuple[QuerySummary, ...]
    reports: tuple[ConditionReport, ...]


def fit_growth_exponent(points) -> float:
    """Least-squares slope of log(value) against log(R)."""
    pts = [(float(R), float(v)) for R, v in points]
    if len(pts) < 2:
        raise DomainError("need at least two points to fit a growth exponent")
    radii = np.array([R for R, _ in pts])
    values = np.array([v for _, v in pts])
    if np.any(np.diff(radii) <= 0):
        raise DomainError("radii must be strictly increasing")
    if np.any(values <= 0) or not np.all(np.isfinite(values)):
        raise DomainError("values must be positive and finite")
    return float(np.polyfit(np.log(radii), np.log(values), 1)[0])


def verdict_for(gamma: float | None) -> str:
    if gamma is None:
        return "inconclusive"
    if abs(gamma) < GAMMA_SATURATING:
        return "saturating"
    if gamma > GAMMA_GROWING:
        return "growing"
    return "inconclusive"


def run_boundedness_sweep(plan: SweepPlan) -> SweepResult:
    """Estimate each query's operator norm on nested grids and fit norm growth.

    Each query is assembled once, on the largest grid; every radius runs
    the power method on the block of that core its grid keeps (a view, see
    ``DiscretizedOperator.restrict``: the centred block of a full core, the
    leading one of a mirrored quadrant), which is bitwise the core the
    smaller grid would assemble.  The radii run in increasing order: the
    first starts from the all-ones vector, every later one from the
    previous radius's maximizer zero-padded (``operator_norm_pq``) onto the
    new nodes.  The previous core is a block of the new one, so the first
    warm iterate already reaches the previous value and the norms cannot
    decrease along the schedule (up to rounding), whatever the kernel's
    signs.  That iterate's image is the previous image in the kept rows, so
    only the new rows are multiplied; a zero core has no image, and the
    next radius computes its product in full.  For a nonnegative kernel
    the values agree with a cold start per radius to the stop rule's
    tolerance, ``operators.POWER_TOL``, not bitwise; a sign-changing kernel
    may have local maxima that the two starts reach separately.  Cells whose
    norm iteration did not converge are flagged and excluded from the fit,
    as are cells whose value is not positive (a zero kernel, or entries
    that underflow), which have no logarithm; with fewer than two points
    left the verdict is inconclusive.  Deterministic given the plan, and a
    result holds no wall-clock time, so reports are reproducible byte for byte.
    """
    grids = plan.grid.build(plan.R_schedule)
    cells: list[SweepCell] = []
    summaries: list[QuerySummary] = []
    reports: list[ConditionReport] = []
    for index, query in enumerate(plan.queries):
        source, target = query_spaces(query)
        kernel = plan.kernel if plan.kernel is not None else KernelSpec(kappa=query.kappa)
        reports.append(check_boundedness(query))
        full = assemble(kernel, source, target, grids[-1])
        fit_points = []
        estimate = None
        for R, grid in zip(plan.R_schedule, grids):
            op = full.restrict(grid)
            estimate = operator_norm_pq(op, estimate)
            cells.append(SweepCell(index, R, grid.size, estimate.value, estimate.certified,
                                   estimate.converged))
            if estimate.converged and estimate.value > 0.0:
                fit_points.append((R, estimate.value))
        del full, op  # free this query's matrix before the next query assembles its own
        gamma = fit_growth_exponent(fit_points) if len(fit_points) >= 2 else None
        summaries.append(QuerySummary(index, gamma, verdict_for(gamma)))
    return SweepResult(plan, tuple(cells), tuple(summaries), tuple(reports))


@dataclass(frozen=True)
class HolderCheck:
    lhs: float
    rhs: float
    holds: bool


def verify_holder_step(k: KernelSpec, f: SampledFunction, query: BoundednessQuery,
                       x: float, grid: Grid) -> HolderCheck:
    """Check the factor-splitting estimate behind every boundedness proof.

    Left side: ``apply_operator`` on |f|.  Right side: the source norm of f
    times the dual-exponent majorant integral raised to 1/q1.  Requires the
    pure envelope kernel with c_upper = 1 and a query whose inner condition
    holds (otherwise the majorant diverges: DivergenceError).
    """
    if k.modulation != "none":
        raise DomainError("the proof-step check requires an unmodulated kernel")
    if k.c_upper != 1.0:
        raise DomainError("the proof-step check requires c_upper = 1")
    if k.kappa != query.kappa:
        raise DomainError("kernel decay and query decay disagree")
    lhs = apply_operator(k, SampledFunction(f.grid, np.abs(f.values)), grid, x)
    source, _ = query_spaces(query)
    majorant = majorant_integral(float(x), _integrable_exponent(source, query.kappa))
    rhs = weighted_norm(f, source) * majorant ** (1.0 / conjugate_exponent(source.p))
    return HolderCheck(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs * (1.0 + 1e-8)))


@dataclass(frozen=True)
class ProbeCell:
    R: float
    ratio: float | None
    error: str | None = None


def sharpness_probe(query: BoundednessQuery, kernel: KernelSpec,
                    witness_exponent: float, R_schedule,
                    grid: GridPolicy | None = None) -> list[ProbeCell]:
    """Norm ratios of the power-law witness (1+|y|)^(-t) along a schedule.

    Used to exhibit growth when the sufficient conditions fail; bounded
    ratios prove nothing.  A single radius yields a single ratio and no fit.
    The schedule and grid policy obey the sweep's rules (see ``SweepPlan``),
    else PlanError.  As in a sweep, one assembly on the largest grid serves
    every radius through ``restrict``; its error is reported on every cell.
    """
    plan = SweepPlan((query,), kernel, R_schedule, grid if grid is not None else GridPolicy())
    source, target = query_spaces(query)
    grids = plan.grid.build(plan.R_schedule)
    try:
        full = assemble(kernel, source, target, grids[-1])
    except (DomainError, ArithmeticError) as exc:
        return [ProbeCell(R, None, error=str(exc)) for R in plan.R_schedule]
    cells: list[ProbeCell] = []
    for R, g in zip(plan.R_schedule, grids):
        try:
            witness = sample(g, lambda x: (1.0 + np.abs(x)) ** (-witness_exponent))
            cells.append(ProbeCell(R, empirical_ratio(full.restrict(g), witness)))
        except (DomainError, ArithmeticError) as exc:
            cells.append(ProbeCell(R, None, error=str(exc)))
    return cells


# --- CSV serialization -----------------------------------------------------

def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # plain repr even for numpy scalars
    return str(value)


def sweep_csv_text(result: SweepResult, provenance: dict | None = None) -> str:
    """Serialize a sweep result as CSV text.

    Column order is fixed (see SWEEP_CSV_COLUMNS): cell rows fill the
    R/nodes/norm/certified/converged columns, and each query's
    summary row fills gamma/verdict.  Header lines start with '#' and carry
    the provenance of every default that shaped the run; an entry of
    ``provenance`` replaces the plan's entry of the same key in place (the CLI
    echoes its user's ``--kernel`` string) or follows the plan's entries.
    """
    plan = result.plan
    lines = ["# opnormlab sweep report"]
    header = {
        "queries": len(plan.queries),
        "kernel": repr(plan.kernel) if plan.kernel is not None else "envelope(per-query-kappa)",
        "R_schedule": ":".join(repr(R) for R in plan.R_schedule),
        **{f.name: getattr(plan.grid, f.name) for f in fields(GridPolicy)},
        "max_nodes": MAX_NODES,
        "gamma_saturating": repr(GAMMA_SATURATING),
        "gamma_growing": repr(GAMMA_GROWING),
    }
    if provenance:
        header.update(provenance)
    lines += [f"# {key}={value}" for key, value in header.items()]
    lines.append(",".join(SWEEP_CSV_COLUMNS))
    for index, query in enumerate(plan.queries):
        echo = (index, query.family, query.s1, query.s2, query.p1, query.p2, query.kappa)
        records = [("cell", *echo, cell.R, cell.nodes, cell.value, cell.certified,
                    cell.converged, None, None)
                   for cell in result.cells if cell.query_index == index]
        summary = result.summaries[index]
        records.append(("summary", *echo, None, None, None, None, None,
                        summary.gamma, summary.verdict))
        lines += [",".join(map(_csv_value, record)) for record in records]
    return "\n".join(lines) + "\n"
