"""Sweep machinery: growth fits, verdicts, proof-step checks, probes, CSV."""
import math
import tracemalloc

import numpy as np
import pytest

import opnormlab.operators
import opnormlab.sweeps
from opnormlab import (BoundednessQuery, DivergenceError, DomainError, GridPolicy,
                       KernelSpec, PlanError, SweepPlan, assemble, build_grid,
                       fit_growth_exponent, operator_norm_pq, query_spaces,
                       run_boundedness_sweep, sample, sample_spec, sharpness_probe,
                       sweep_csv_text, verify_holder_step)
from opnormlab.sweeps import DEFAULT_R_SCHEDULE, SWEEP_CSV_COLUMNS, QuerySummary, verdict_for
from test_acceptance import SATURATION_QUERIES

FAST_GRID = GridPolicy(panels_per_side=8, panel_order=6)
COSMOD = KernelSpec(kappa=2.0, modulation="cosine", omega=1.5)
ALTMOD = KernelSpec(kappa=2.0, modulation="alternating")


def test_fit_exact_power_law():
    c = 0.37
    points = [(10.0, c * 10.0 ** 0.5), (100.0, c * 100.0 ** 0.5)]
    assert fit_growth_exponent(points) == pytest.approx(0.5, rel=1e-12)


def test_fit_constant_values():
    assert fit_growth_exponent([(10.0, 3.0), (40.0, 3.0), (160.0, 3.0)]) == pytest.approx(
        0.0, abs=1e-14)


def test_fit_doubling_per_decade():
    points = [(10.0, 2.0), (100.0, 4.0), (1000.0, 8.0)]
    assert fit_growth_exponent(points) == pytest.approx(math.log10(2.0), rel=1e-12)


def test_fit_rejects_bad_input():
    with pytest.raises(DomainError):
        fit_growth_exponent([(10.0, 1.0)])
    with pytest.raises(DomainError):
        fit_growth_exponent([(10.0, 1.0), (5.0, 2.0)])
    with pytest.raises(DomainError):
        fit_growth_exponent([(10.0, 0.0), (20.0, 1.0)])


def test_verdicts():
    assert verdict_for(0.01) == "saturating"
    assert verdict_for(-0.02) == "saturating"
    assert verdict_for(0.5) == "growing"
    assert verdict_for(0.07) == "inconclusive"
    assert verdict_for(None) == "inconclusive"


# --- plan validation ---------------------------------------------------------

def query_thm1(kappa: float = 1.5) -> BoundednessQuery:
    return BoundednessQuery("h", -0.25, -0.25, kappa)


def test_plan_rejects_bad_schedules():
    with pytest.raises(PlanError):
        SweepPlan(queries=(query_thm1(),), R_schedule=())
    with pytest.raises(PlanError):
        SweepPlan(queries=(query_thm1(),), R_schedule=(10.0, 5.0))
    for radius in (-10.0, 0.0, math.inf, math.nan):
        with pytest.raises(PlanError):
            SweepPlan(queries=(query_thm1(),), R_schedule=(radius, 40.0))
        with pytest.raises(PlanError):
            SweepPlan(queries=(query_thm1(),), R_schedule=(1.0, radius))


def test_sweep_on_a_schedule_that_is_not_geometric_nests():
    # any strictly increasing schedule chains its panel edges, so the grids
    # nest and the warm-started estimates cannot decrease
    plan = SweepPlan(queries=(query_thm1(1.5),), R_schedule=(10.0, 30.0, 160.0),
                     grid=FAST_GRID)
    result = run_boundedness_sweep(plan)
    assert [cell.R for cell in result.cells] == [10.0, 30.0, 160.0]
    assert [cell.nodes for cell in result.cells] == [96, 120, 144]
    values = [cell.value for cell in result.cells]
    assert all(b >= a * (1 - 1e-12) for a, b in zip(values, values[1:]))
    assert result.summaries[0].verdict == "saturating"


def test_plan_rejects_node_budget():
    policy = GridPolicy(panels_per_side=300)
    with pytest.raises(PlanError):
        SweepPlan(queries=(query_thm1(),), R_schedule=(10.0, 40.0), grid=policy)


def test_empty_query_list():
    plan = SweepPlan(queries=(), R_schedule=(10.0, 40.0), grid=FAST_GRID)
    result = run_boundedness_sweep(plan)
    assert result.cells == () and result.summaries == ()


# --- sweeps ------------------------------------------------------------------

def test_sweep_above_threshold_saturates():
    plan = SweepPlan(queries=(query_thm1(1.5),), R_schedule=(10.0, 40.0),
                     grid=FAST_GRID)
    result = run_boundedness_sweep(plan)
    assert len(result.cells) == 2
    assert all(cell.certified for cell in result.cells)
    values = [cell.value for cell in result.cells]
    assert values[1] >= values[0] - 1e-10
    assert result.summaries[0].verdict == "saturating"
    assert result.reports[0].satisfied


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_radii_below_the_kernel_length_scale_do_not_read_growing():
    # the sufficient condition holds, but for R << 1 the norm is about
    # 2 R K(0, 0), so a fit over 1e-300 and 1 reads gamma = 0.9987
    plan = SweepPlan(queries=(query_thm1(1.5),), R_schedule=(1e-300, 1.0),
                     grid=GridPolicy(panels_per_side=4, panel_order=4))
    result = run_boundedness_sweep(plan)
    assert result.reports[0].satisfied
    assert result.summaries[0].verdict != "growing"


def test_sweep_no_decay_grows():
    # kernel without decay: the discrete operator is rank one with norm ~ sqrt(R)
    query = BoundednessQuery("h", -1.0, 0.0, 0.0)
    plan = SweepPlan(queries=(query,), R_schedule=(10.0, 40.0, 160.0),
                     grid=FAST_GRID)
    result = run_boundedness_sweep(plan)
    assert result.summaries[0].verdict == "growing"
    assert result.summaries[0].gamma > 0.4


def test_sweep_deterministic_csv():
    plan = SweepPlan(queries=(query_thm1(), BoundednessQuery("hps", -1.0, -1.0, 2.0, 2.0, 4.0)),
                     R_schedule=(10.0, 40.0), grid=FAST_GRID)
    first = sweep_csv_text(run_boundedness_sweep(plan))
    second = sweep_csv_text(run_boundedness_sweep(plan))
    assert first == second


def test_sweep_csv_shape():
    plan = SweepPlan(queries=(query_thm1(),), R_schedule=(10.0, 40.0), grid=FAST_GRID)
    text = sweep_csv_text(run_boundedness_sweep(plan), provenance={"command": "test"})
    lines = text.strip().split("\n")
    comments = [line for line in lines if line.startswith("#")]
    rows = [line for line in lines if not line.startswith("#")]
    assert any("command=test" in line for line in comments)
    assert rows[0] == ",".join(SWEEP_CSV_COLUMNS)
    cells = [row for row in rows[1:] if row.startswith("cell,")]
    summaries = [row for row in rows[1:] if row.startswith("summary,")]
    assert len(cells) == 2 and len(summaries) == 1
    # no wall-clock column: a cell row ends in converged and two empty summary columns
    assert rows[0] == ("row,query,family,s1,s2,p1,p2,kappa,R,nodes,norm,certified,converged,"
                       "gamma,verdict")
    assert all(row.split(",")[-3:] == ["true", "", ""] for row in cells)


@pytest.mark.parametrize("kernel", [None, KernelSpec(kappa=2.0, modulation="cosine",
                                                     omega=1.5)])
def test_sweep_assembles_once_per_query(monkeypatch, kernel):
    queries = (query_thm1(1.5), BoundednessQuery("hps", -1.0, -1.0, 2.0, 2.0, 4.0),
               BoundednessQuery("hsp", -0.5, 0.0, 2.5, 3.0, 2.0))
    plan = SweepPlan(queries=queries, kernel=kernel, R_schedule=(10.0, 40.0, 160.0),
                     grid=FAST_GRID)
    calls, normed = [], []

    def counting_assemble(*args):
        calls.append(args)
        return assemble(*args)

    def recording_norm(op, previous=None):
        normed.append(op)
        return operator_norm_pq(op, previous)

    monkeypatch.setattr(opnormlab.sweeps, "assemble", counting_assemble)
    monkeypatch.setattr(opnormlab.sweeps, "operator_norm_pq", recording_norm)
    result = run_boundedness_sweep(plan)
    grids = FAST_GRID.build(plan.R_schedule)
    assert len(calls) == len(queries)
    assert all(args[3].size == grids[-1].size for args in calls)
    assert len(normed) == len(result.cells)
    for cell, op in zip(result.cells, normed):
        query = queries[cell.query_index]
        grid = grids[plan.R_schedule.index(cell.R)]
        source, target = query_spaces(query)
        k = kernel if kernel is not None else KernelSpec(kappa=query.kappa)
        own = assemble(k, source, target, grid)
        # the restricted matrix is bitwise the one assembled per radius
        assert op.mirrored == own.mirrored and np.array_equal(op.core, own.core)
        reference = operator_norm_pq(own)
        assert (cell.certified, cell.converged) == (reference.certified, reference.converged)
        # the warm start may reach a different local maximum of a
        # sign-changing matrix: cosmod's hsp 3 -> 2 cells beyond the first
        # radius differ from a cold start by 3.5e-7 and 5.3e-7
        rel = 1e-6 if kernel is not None and query.family == "hsp" and cell.R > 10.0 else 1e-12
        assert cell.value == pytest.approx(reference.value, rel=rel, abs=0.0)


@pytest.mark.parametrize("kernel", [KernelSpec(kappa=2.0, modulation="cosine", omega=1.5),
                                    KernelSpec(kappa=2.0, modulation="alternating")])
def test_warm_sweep_values_never_decrease_along_R(kernel):
    # cosmod's core is a mirrored quadrant (leading-block padding), altmod's
    # the full matrix (centred padding); both change sign, so monotonicity
    # comes from the zero-padded warm start, not from nonnegativity
    queries = (query_thm1(1.5), BoundednessQuery("hps", -1.0, -1.0, 2.0, 2.0, 4.0),
               BoundednessQuery("hsp", -0.5, 0.0, 2.5, 3.0, 2.0))
    plan = SweepPlan(queries=queries, kernel=kernel, R_schedule=(10.0, 40.0, 160.0, 640.0),
                     grid=FAST_GRID)
    result = run_boundedness_sweep(plan)
    for index in range(len(queries)):
        values = [cell.value for cell in result.cells if cell.query_index == index]
        assert all(b >= a * (1.0 - 1e-14) for a, b in zip(values, values[1:])), values


def test_warm_starts_take_fewer_iterations_than_cold_starts(monkeypatch):
    warm, cold = [], []

    def counting_norm(op, previous=None):
        estimate = operator_norm_pq(op, previous)
        warm.append(estimate.iterations)
        cold.append(operator_norm_pq(op).iterations)
        return estimate

    monkeypatch.setattr(opnormlab.sweeps, "operator_norm_pq", counting_norm)
    for queries in SATURATION_QUERIES.values():
        run_boundedness_sweep(SweepPlan(queries=queries, R_schedule=DEFAULT_R_SCHEDULE))
    assert len(warm) == 9 * len(DEFAULT_R_SCHEDULE)
    assert sum(warm) < sum(cold)


def record_images(monkeypatch) -> list:
    """Patch the power method to record, per call, None without an image, else
    the largest deviation of the image from diag(rows) B diag(cols) @ start
    relative to its largest entry."""
    gaps = []
    real = opnormlab.operators._power_method

    def recording(B, p1, p2, nonnegative, mirrored=False, start=None, image=None, rows=None,
                  cols=None):
        if image is None:
            gaps.append(None)
        else:
            want = (rows[:, None] * B * cols[None, :]) @ start
            gaps.append(float(np.max(np.abs(image - want)) / np.max(np.abs(want))))
        return real(B, p1, p2, nonnegative, mirrored, start, image, rows, cols)

    monkeypatch.setattr(opnormlab.operators, "_power_method", recording)
    return gaps


@pytest.mark.parametrize("kernel", [None, COSMOD, ALTMOD], ids=["envelope", "cosmod", "altmod"])
def test_sweep_hands_each_warm_radius_the_image_of_its_start(monkeypatch, kernel):
    # envelope and cosmod cores are mirrored quadrants (new rows at the end),
    # altmod's the full matrix (new rows at both ends)
    gaps = record_images(monkeypatch)
    queries = (query_thm1(1.5), BoundednessQuery("hps", -1.0, -1.0, 2.0, 2.0, 4.0),
               BoundednessQuery("hsp", -0.5, 0.0, 2.5, 3.0, 2.0))
    run_boundedness_sweep(SweepPlan(queries=queries, kernel=kernel,
                                    R_schedule=(10.0, 40.0, 160.0), grid=FAST_GRID))
    assert [gap is None for gap in gaps] == [True, False, False] * len(queries)
    assert max(gap for gap in gaps if gap is not None) <= 1e-14


@pytest.mark.parametrize("kernel", [None, ALTMOD], ids=["mirrored", "full"])
def test_sweep_checks_the_nesting_once_per_step(monkeypatch, kernel):
    # restrict tests each radius's nesting once, and the warm step places the
    # previous estimate by its length alone: K lookups per query, where the
    # parent made 2K - 1 (15 on the eight radii of a sweep-saturation job)
    lookups = []
    real = opnormlab.operators.nested_slice

    def counting(outer, inner):
        lookups.append((outer.size, inner.size))
        return real(outer, inner)

    monkeypatch.setattr(opnormlab.operators, "nested_slice", counting)
    schedule = tuple(10.0 * 4.0 ** k for k in range(8))
    queries = (query_thm1(1.5), query_thm1(2.0))
    run_boundedness_sweep(SweepPlan(queries=queries, kernel=kernel, R_schedule=schedule,
                                    grid=FAST_GRID))
    sizes = [grid.size for grid in FAST_GRID.build(schedule)]
    assert lookups == [(sizes[-1], size) for size in sizes] * len(queries)


@pytest.mark.parametrize("kernel", [None, ALTMOD], ids=["envelope", "altmod"])
def test_warm_state_stays_within_its_query(kernel):
    # each query of a three-query sweep gives the cells of a sweep of that
    # query alone, bitwise: no estimate carries over from one query to the next
    queries = (query_thm1(1.5), BoundednessQuery("hps", -1.0, -1.0, 2.0, 2.0, 4.0),
               BoundednessQuery("hsp", -0.5, 0.0, 2.5, 3.0, 2.0))

    def cells(result, index):
        return [(cell.R, cell.nodes, cell.value, cell.certified, cell.converged)
                for cell in result.cells if cell.query_index == index]

    def sweep(chosen):
        return run_boundedness_sweep(SweepPlan(queries=chosen, kernel=kernel,
                                               R_schedule=(10.0, 40.0, 160.0), grid=FAST_GRID))

    together = sweep(queries)
    for index, query in enumerate(queries):
        alone = sweep((query,))
        assert cells(together, index) == cells(alone, 0)
        assert together.summaries[index].gamma == alone.summaries[0].gamma


def test_image_keeps_the_iteration_count_of_every_criterion_6_cell(monkeypatch):
    pairs = []
    real = opnormlab.operators._power_method

    def with_and_without_image(op, previous=None):
        estimate = operator_norm_pq(op, previous)
        start, image = (None, None) if previous is None else op._warm_start(previous)
        without = real(op.core, op.source_space.p, op.target_space.p, op.nonnegative,
                       op.mirrored, start, None, op.rows, op.cols)
        pairs.append((image is not None, estimate, without))
        return estimate

    monkeypatch.setattr(opnormlab.sweeps, "operator_norm_pq", with_and_without_image)
    for queries in SATURATION_QUERIES.values():
        run_boundedness_sweep(SweepPlan(queries=queries, R_schedule=DEFAULT_R_SCHEDULE))
    assert sum(imaged for imaged, _, _ in pairs) == 9 * (len(DEFAULT_R_SCHEDULE) - 1)
    for _, estimate, without in pairs:
        assert estimate.iterations == without.iterations
        assert estimate.value == pytest.approx(without.value, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("kernel, schedule", [
    (KernelSpec(kappa=1.5, c_upper=0.0), (10.0, 40.0)),  # the zero kernel
    (None, (1e250, 4e250)),  # every kernel entry underflows to 0
], ids=["zero-kernel", "underflow"])
def test_zero_norm_cells_are_left_out_of_the_fit(monkeypatch, kernel, schedule):
    gaps = record_images(monkeypatch)
    plan = SweepPlan(queries=(query_thm1(1.5),), kernel=kernel, R_schedule=schedule,
                     grid=FAST_GRID)
    result = run_boundedness_sweep(plan)
    assert [(cell.value, cell.converged) for cell in result.cells] == [(0.0, True)] * 2
    assert result.summaries == (QuerySummary(0, None, "inconclusive"),)
    # a zero core has no image, so the second radius computes its first product
    assert gaps == [None, None]
    rows = [line for line in sweep_csv_text(result).splitlines() if not line.startswith("#")]
    assert [row.split(",")[0] for row in rows[1:]] == ["cell", "cell", "summary"]


@pytest.mark.parametrize("kernel", [None, ALTMOD], ids=["mirrored", "full"])
def test_sweep_leaves_no_core_image_or_grid_behind(kernel):
    queries = (query_thm1(1.5), BoundednessQuery("hps", -1.0, -1.0, 2.0, 2.0, 4.0))
    plan = SweepPlan(queries=queries, kernel=kernel, R_schedule=(10.0, 40.0, 160.0, 640.0),
                     grid=GridPolicy(panels_per_side=40, extra_panels=6))
    run_boundedness_sweep(plan)  # fills the quadrature-rule cache
    vector = plan.grid.final_node_count(len(plan.R_schedule)) * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_boundedness_sweep(plan)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the result itself takes about 6 KB; one grid is two vectors, a core
    # at least n^2 / 4 entries, and so is an image that keeps its core alive
    assert len(result.cells) == 8 and kept < 2 * vector


def test_sweep_doubly_critical_margin_is_boundary_behavior():
    # With both the inner and the outer margin exactly 0.5, saturation over
    # the default schedule is measurably slower: the fitted exponent lands
    # just above the saturating tolerance.  Sets with one comfortable margin
    # (see the acceptance suite) stay well below it.
    query = BoundednessQuery("hps", -0.5, -0.5, 1.5, 4.0, 4.0)
    plan = SweepPlan(queries=(query,), R_schedule=(10.0, 40.0, 160.0, 640.0))
    result = run_boundedness_sweep(plan)
    gamma = result.summaries[0].gamma
    assert 0.04 < gamma < 0.07
    assert result.summaries[0].verdict == "inconclusive"
    values = [c.value for c in result.cells]
    assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))


def test_sweep_per_query_envelope_kernel():
    # kernel=None: each query runs against the envelope with its own kappa
    plan = SweepPlan(queries=(query_thm1(1.5), query_thm1(2.5)),
                     R_schedule=(10.0, 40.0), grid=FAST_GRID)
    result = run_boundedness_sweep(plan)
    first = [c.value for c in result.cells if c.query_index == 0]
    second = [c.value for c in result.cells if c.query_index == 1]
    assert first[0] > second[0]  # faster decay means smaller norm


# --- proof-step inequality -----------------------------------------------------

def test_holder_step_zero_function():
    grid = build_grid(10.0, 8, 1.3, 6)
    f = sample(grid, lambda x: np.zeros_like(x))
    check = verify_holder_step(KernelSpec(kappa=2.0), f,
                               BoundednessQuery("h", -1.0, -1.0, 2.0), 0.0, grid)
    assert check.lhs == 0.0 and check.rhs == 0.0 and check.holds


def test_holder_step_near_tight_witness():
    grid = build_grid(100.0, 14, 1.3, 8)
    query = BoundednessQuery("h", -1.0, -1.0, 2.0)
    f = sample_spec(grid, "powerlaw(1)")  # t = -s1
    check = verify_holder_step(KernelSpec(kappa=2.0), f, query, 1.0, grid)
    assert check.holds and 0 < check.lhs < check.rhs


def test_holder_step_random_bumps():
    rng = np.random.default_rng(100)
    grid = build_grid(100.0, 14, 1.3, 8)
    queries = (BoundednessQuery("h", -1.0, -0.5, 2.0),
               BoundednessQuery("hsp", -0.5, -0.5, 1.75, 4.0, 4.0),
               BoundednessQuery("hps", -1.0, -1.0, 2.0, 4.0, 4.0))
    for query in queries:
        kernel = KernelSpec(kappa=query.kappa)
        for _ in range(30):
            center = float(rng.uniform(-20, 20))
            width = float(rng.uniform(0.5, 5.0))
            scale = float(rng.uniform(-3.0, 3.0))
            f = sample(grid, lambda x: scale * np.exp(-((x - center) / width) ** 2))
            x = float(rng.choice([0.0, 1.0, 10.0]))
            check = verify_holder_step(kernel, f, query, x, grid)
            assert check.holds


def test_holder_step_preconditions():
    grid = build_grid(10.0, 8, 1.3, 6)
    f = sample_spec(grid, "gauss(1)")
    query = BoundednessQuery("h", -1.0, -1.0, 2.0)
    with pytest.raises(DomainError):
        verify_holder_step(KernelSpec(kappa=2.0, modulation="cosine", omega=1.0),
                           f, query, 0.0, grid)
    with pytest.raises(DomainError):
        verify_holder_step(KernelSpec(kappa=2.0, c_upper=2.0),
                           f, query, 0.0, grid)
    with pytest.raises(DomainError):
        verify_holder_step(KernelSpec(kappa=3.0), f, query, 0.0, grid)


def test_holder_step_inner_violation_diverges():
    grid = build_grid(10.0, 8, 1.3, 6)
    f = sample_spec(grid, "gauss(1)")
    # kappa = 1.5, s1 = -1: dual exponent 2*(kappa+s1) = 1, not integrable
    query = BoundednessQuery("h", -1.0, -1.0, 1.5)
    with pytest.raises(DivergenceError):
        verify_holder_step(KernelSpec(kappa=1.5), f, query, 0.0, grid)


def test_holder_step_at_the_inner_threshold_diverges():
    # h(-0.6), kappa = 1.1 sits on the inner threshold 1/2 - s1, where the
    # dual exponent rounds to just above 1; the threshold check must refuse
    # it, as tail_bound does, rather than report a huge finite majorant
    grid = build_grid(10.0, 8, 1.3, 6)
    f = sample_spec(grid, "gauss(1)")
    query = BoundednessQuery("h", -0.6, -0.6, 1.1)
    with pytest.raises(DivergenceError):
        verify_holder_step(KernelSpec(kappa=1.1), f, query, 0.0, grid)


# --- sharpness probe -----------------------------------------------------------

def test_probe_bounded_above_threshold():
    query = query_thm1(2.5)
    cells = sharpness_probe(query, KernelSpec(kappa=2.5), 1.0,
                            (10.0, 40.0, 160.0), FAST_GRID)
    ratios = [(c.R, c.ratio) for c in cells]
    assert all(r is not None for _, r in ratios)
    assert abs(fit_growth_exponent(ratios)) < 0.05


def test_probe_below_threshold_grows():
    query = BoundednessQuery("h", -1.0, 0.0, 0.0)
    cells = sharpness_probe(query, KernelSpec(kappa=0.0), 0.6,
                            (10.0, 40.0, 160.0), FAST_GRID)
    ratios = [c.ratio for c in cells]
    assert ratios[0] < ratios[1] < ratios[2]


def test_probe_single_radius():
    cells = sharpness_probe(query_thm1(2.0), KernelSpec(kappa=2.0), 1.0,
                            (10.0,), FAST_GRID)
    assert len(cells) == 1 and cells[0].ratio is not None


@pytest.mark.parametrize("schedule, policy", [
    (tuple(10.0 * 1.1 ** k for k in range(200)), GridPolicy()),  # 6560 nodes > 4000
], ids=["over-budget"])
def test_probe_schedule_follows_the_sweep_rules(schedule, policy):
    with pytest.raises(PlanError):
        sharpness_probe(query_thm1(2.0), KernelSpec(kappa=2.0), 1.0, schedule, policy)


def test_probe_zero_norm_witness_is_an_error_cell():
    # no node sits at the origin, so (1+|y|)^(-1e6) underflows to 0 at every node
    cells = sharpness_probe(query_thm1(2.0), KernelSpec(kappa=2.0), 1e6, (10.0,), FAST_GRID)
    assert cells == [opnormlab.sweeps.ProbeCell(10.0, None, "test function has zero source norm")]


def test_probe_assembles_once_on_the_largest_grid(monkeypatch):
    sizes = []
    real = opnormlab.sweeps.assemble

    def counting(kernel, source, target, grid):
        sizes.append(grid.size)
        return real(kernel, source, target, grid)

    monkeypatch.setattr(opnormlab.sweeps, "assemble", counting)
    cells = sharpness_probe(query_thm1(2.5), KernelSpec(kappa=2.5), 1.0,
                            (10.0, 40.0, 160.0), FAST_GRID)
    assert all(cell.ratio is not None for cell in cells)
    assert sizes == [FAST_GRID.final_node_count(3)]


def test_probe_assembly_error_is_reported_on_every_cell():
    # (1 + 2 * 160)^400 overflows, so the one assembly fails
    cells = sharpness_probe(query_thm1(2.0), KernelSpec(kappa=-400.0), 1.0,
                            (10.0, 40.0, 160.0), FAST_GRID)
    assert [(cell.R, cell.ratio) for cell in cells] == [(10.0, None), (40.0, None),
                                                        (160.0, None)]
    assert len({cell.error for cell in cells}) == 1
    assert cells[0].error.startswith("non-finite operator entry at (")


def test_probe_overflowing_witness_is_an_error_cell():
    # (1 + |y|)^400 overflows on the outer nodes of both radii
    cells = sharpness_probe(BoundednessQuery("h", -0.25, -0.25, 2.0), KernelSpec(kappa=2.0),
                            -400.0, (10.0, 40.0), FAST_GRID)
    assert [(cell.R, cell.ratio) for cell in cells] == [(10.0, None), (40.0, None)]
    assert all(cell.error.startswith("non-finite sample at node ") for cell in cells)
