"""The coupled two-unknown integral system: assembly, solve, manufactured data."""
import tracemalloc

import numpy as np
import pytest

import opnormlab.corner
from opnormlab import (CornerSystem, DomainError, Grid, IllConditionedError, KernelSpec,
                       NumericalError, SpaceSpec, build_grid, coupling_blocks,
                       kernel_eval, manufactured_case, parse_kernel, sample,
                       sample_spec, solve_corner, weighted_norm)
from opnormlab.grids import is_mirror

from _dense import stacked_corner_matrix

SPACE = SpaceSpec.h(-0.25)


def grids(n1_panels=8, n2_panels=6):
    return (build_grid(20.0, n1_panels, 1.3, 6), build_grid(15.0, n2_panels, 1.3, 6))


def zero_system(grid1, grid2) -> CornerSystem:
    return CornerSystem(
        kernel_1=KernelSpec.zero(), kernel_2=KernelSpec.zero(),
        f_data=sample_spec(grid2, "gauss(2)"),
        g_data=sample_spec(grid1, "powerlaw(1)"),
        space=SPACE,
    )


def test_zero_kernels_give_identity_matrix():
    grid1, grid2 = grids()
    matrix = stacked_corner_matrix(zero_system(grid1, grid2), grid1, grid2)
    assert np.array_equal(matrix, np.eye(grid1.size + grid2.size))


def test_block_dimensions():
    grid1, grid2 = grids()
    matrix = stacked_corner_matrix(zero_system(grid1, grid2), grid1, grid2)
    n = grid1.size + grid2.size
    assert matrix.shape == (n, n)


def test_coupling_entries_are_weight_times_kernel():
    grid1, grid2 = grids()
    k1 = KernelSpec(kappa=2.0)
    k2 = KernelSpec(kappa=1.5, c_upper=0.5, c_lower=0.5)
    a1, a2 = coupling_blocks(k1, k2, grid1, grid2)
    rng = np.random.default_rng(8)
    for _ in range(10):
        i = int(rng.integers(grid2.size))
        j = int(rng.integers(grid1.size))
        expected = grid1.weights[j] * kernel_eval(k1, grid1.nodes[j], grid2.nodes[i])
        assert a1[i, j] == pytest.approx(expected, rel=1e-15)
        i = int(rng.integers(grid1.size))
        j = int(rng.integers(grid2.size))
        expected = grid2.weights[j] * kernel_eval(k2, grid1.nodes[i], grid2.nodes[j])
        assert a2[i, j] == pytest.approx(expected, rel=1e-15)


def test_block_placement():
    grid1, grid2 = grids()
    system = CornerSystem(KernelSpec(kappa=2.0), KernelSpec(kappa=3.0),
                          sample_spec(grid2, "gauss(1)"),
                          sample_spec(grid1, "gauss(1)"), SPACE)
    matrix = stacked_corner_matrix(system, grid1, grid2)
    a1, a2 = coupling_blocks(system.kernel_1, system.kernel_2, grid1, grid2)
    n1 = grid1.size
    assert np.array_equal(matrix[:n1, n1:], a2)
    assert np.array_equal(matrix[n1:, :n1], a1)
    assert np.array_equal(matrix[:n1, :n1], np.eye(n1))


def test_zero_kernels_solve_exactly():
    grid1, grid2 = grids()
    system = zero_system(grid1, grid2)
    solution = solve_corner(system, grid1, grid2)
    assert np.array_equal(solution.c.values, system.g_data.values)
    assert np.array_equal(solution.d.values, system.f_data.values)
    assert solution.residual_1 == 0.0 and solution.residual_2 == 0.0


def test_zero_data_zero_solution():
    grid1, grid2 = grids()
    system = CornerSystem(KernelSpec(kappa=2.0), KernelSpec(kappa=2.0),
                          sample(grid2, lambda x: np.zeros_like(x)),
                          sample(grid1, lambda x: np.zeros_like(x)), SPACE)
    solution = solve_corner(system, grid1, grid2)
    assert np.allclose(solution.c.values, 0.0, atol=1e-300)
    assert np.allclose(solution.d.values, 0.0, atol=1e-300)


def test_manufactured_trivial_cases():
    grid1, grid2 = grids()
    zero1 = sample(grid1, lambda x: np.zeros_like(x))
    zero2 = sample(grid2, lambda x: np.zeros_like(x))
    f, g = manufactured_case(zero1, zero2, KernelSpec(kappa=2.0),
                             KernelSpec(kappa=2.0), grid1, grid2)
    assert not f.values.any() and not g.values.any()
    c_star = sample_spec(grid1, "powerlaw(1)")
    d_star = sample_spec(grid2, "gauss(1)")
    f, g = manufactured_case(c_star, d_star, KernelSpec.zero(), KernelSpec.zero(),
                             grid1, grid2)
    assert np.array_equal(f.values, d_star.values)
    assert np.array_equal(g.values, c_star.values)


def test_manufactured_case_rejects_swapped_grids():
    # equal sizes, so the products would go through on the wrong grids
    grid1, grid2 = build_grid(20.0, 8, 1.3, 6), build_grid(15.0, 8, 1.3, 6)
    assert grid1.size == grid2.size
    k = KernelSpec(kappa=2.0)
    c_star = sample_spec(grid1, "powerlaw(1)")
    d_star = sample_spec(grid2, "gauss(1)")
    with pytest.raises(DomainError, match="c_star"):
        manufactured_case(sample_spec(grid2, "powerlaw(1)"), d_star, k, k, grid1, grid2)
    with pytest.raises(DomainError, match="d_star"):
        manufactured_case(c_star, sample_spec(grid1, "gauss(1)"), k, k, grid1, grid2)
    with pytest.raises(DomainError):
        manufactured_case(d_star, c_star, k, k, grid1, grid2)


def test_manufactured_round_trip():
    grid1, grid2 = grids()
    k1 = k2 = KernelSpec(kappa=2.0)
    c_star = sample_spec(grid1, "powerlaw(1.5)")
    d_star = sample_spec(grid2, "gauss(1)")
    f, g = manufactured_case(c_star, d_star, k1, k2, grid1, grid2)
    system = CornerSystem(k1, k2, f, g, SPACE)
    solution = solve_corner(system, grid1, grid2)
    assert solution.condition_estimate < 1e8
    err_c = sample(grid1, solution.c.values - c_star.values)
    err_d = sample(grid2, solution.d.values - d_star.values)
    assert (weighted_norm(err_c, SPACE)
            <= 1e-8 * weighted_norm(c_star, SPACE))
    assert (weighted_norm(err_d, SPACE)
            <= 1e-8 * weighted_norm(d_star, SPACE))


def test_solution_depends_linearly_on_data():
    grid1, grid2 = grids()
    k1, k2 = KernelSpec(kappa=2.0), KernelSpec(kappa=1.5)
    rng = np.random.default_rng(21)

    def solve_with(f_vals, g_vals):
        system = CornerSystem(k1, k2, sample(grid2, f_vals), sample(grid1, g_vals), SPACE)
        solution = solve_corner(system, grid1, grid2)
        return solution.c.values, solution.d.values

    f1, g1 = rng.normal(size=grid2.size), rng.normal(size=grid1.size)
    f2, g2 = rng.normal(size=grid2.size), rng.normal(size=grid1.size)
    alpha, beta = 0.7, -1.9
    c1, d1 = solve_with(f1, g1)
    c2, d2 = solve_with(f2, g2)
    c12, d12 = solve_with(alpha * f1 + beta * f2, alpha * g1 + beta * g2)
    assert np.allclose(c12, alpha * c1 + beta * c2, atol=1e-10)
    assert np.allclose(d12, alpha * d1 + beta * d2, atol=1e-10)


def test_contraction_bound_on_condition():
    # equal small kernels on equal grids: ||A1|| = ||A2|| and the Neumann
    # bound (1+a)(1+b)/(1-ab) must dominate the 1-norm condition estimate
    grid = build_grid(20.0, 8, 1.3, 6)
    k = KernelSpec(kappa=2.0, c_lower=0.25, c_upper=0.25)
    a1, a2 = coupling_blocks(k, k, grid, grid)
    a = float(np.linalg.norm(a1, 1))
    b = float(np.linalg.norm(a2, 1))
    assert a * b < 1
    system = CornerSystem(k, k, sample_spec(grid, "gauss(1)"),
                          sample_spec(grid, "gauss(1)"), SPACE)
    solution = solve_corner(system, grid, grid)
    bound = (1 + a) * (1 + b) / (1 - a * b)
    assert solution.condition_estimate <= bound


def test_singular_system_rejected():
    # constant kernels on [-R, R] with 4*R1*R2 = 1 make I - A1 A2 singular
    grid = build_grid(0.5, 4, 1.3, 6)
    k = KernelSpec(kappa=0.0)
    system = CornerSystem(k, k, sample_spec(grid, "gauss(1)"),
                          sample_spec(grid, "gauss(1)"), SPACE)
    with pytest.raises(IllConditionedError) as err:
        solve_corner(system, grid, grid)
    assert err.value.estimate >= 1e12


def test_exact_zero_pivot_rejected_without_a_warning():
    # one node per side: S = 1 - (2 R1)(2 R2) = 0 exactly
    grid = Grid(R=0.5, nodes=[-0.25, 0.25], weights=[0.5, 0.5], grading=1.0,
                panel_order=2, breakpoints=[0.0, 0.5])
    k = KernelSpec(kappa=0.0)
    system = CornerSystem(k, k, sample_spec(grid, "gauss(1)"),
                          sample_spec(grid, "gauss(1)"), SPACE)
    with pytest.raises(IllConditionedError) as err:
        solve_corner(system, grid, grid)
    assert err.value.estimate == np.inf


def test_singular_system_rejected_on_the_full_path():
    # the same singular system as above, with one node moved one ulp off its
    # mirror image: the constant kernels ignore the nodes, but the solve takes
    # the full path
    grid = build_grid(0.5, 4, 1.3, 6)
    nodes = grid.nodes.copy()
    nodes[0] = np.nextafter(nodes[0], 0.0)
    moved = Grid(R=grid.R, nodes=nodes, weights=grid.weights, grading=grid.grading,
                 panel_order=grid.panel_order, breakpoints=grid.breakpoints)
    k = KernelSpec(kappa=0.0)
    system = CornerSystem(k, k, sample_spec(moved, "gauss(1)"),
                          sample_spec(moved, "gauss(1)"), SPACE)
    assert not is_mirror(moved)
    with pytest.raises(IllConditionedError) as err:
        solve_corner(system, moved, moved)
    assert err.value.estimate >= 1e12


def test_overflowing_schur_complement_rejected():
    # every block entry is finite, but B1 B2 overflows
    grid1, grid2 = grids()
    system = CornerSystem(parse_kernel("envelope(2,1e308)"), KernelSpec(kappa=2.0),
                          sample_spec(grid2, "gauss(1)"), sample_spec(grid1, "gauss(1)"),
                          SPACE)
    with pytest.raises(IllConditionedError) as err:
        solve_corner(system, grid1, grid2)
    assert err.value.estimate == np.inf


def test_non_finite_coupling_entry_named():
    grid1, grid2 = grids()
    k1, k2 = parse_kernel("envelope(-400)"), KernelSpec(kappa=2.0)
    with np.errstate(over="ignore"):
        full = kernel_eval(k1, grid1.nodes[None, :], grid2.nodes[:, None])
    for quadrant in (False, True):
        with pytest.raises(NumericalError, match="coupling block A1") as err:
            coupling_blocks(k1, k2, grid1, grid2, quadrant=quadrant)
        i, j = (int(v) for v in str(err.value).rsplit("(", 1)[1].rstrip(")").split(","))
        assert not np.isfinite(full[i, j])


def test_quadrant_blocks_are_slices_of_the_full_blocks():
    grid1, grid2 = grids(8, 6)
    k1, k2 = parse_kernel("cosmod(2,1.5)"), parse_kernel("envelope(2.5)")
    a1, a2 = coupling_blocks(k1, k2, grid1, grid2)
    q1, q2 = coupling_blocks(k1, k2, grid1, grid2, quadrant=True)
    h1, h2 = grid1.size // 2, grid2.size // 2
    assert np.array_equal(q1, a1[h2:, h1:]) and np.array_equal(q2, a2[h1:, h2:])


def test_coupling_blocks_allocate_one_array_each():
    # each block is one fresh kernel_eval array, weighted in place; the rest
    # is O(n) vectors, within 0.25 of the two blocks' bytes
    grid1, grid2 = build_grid(640.0, 50, 1.3, 8), build_grid(160.0, 40, 1.3, 8)
    k = KernelSpec(kappa=1.5)
    tracemalloc.start()
    try:
        a1, a2 = coupling_blocks(k, k, grid1, grid2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (a1.shape, a2.shape) == ((640, 800), (800, 640))
    assert peak <= 1.25 * (a1.nbytes + a2.nbytes)


def test_repeat_solves_are_bitwise_equal():
    grid1, grid2 = grids(8, 6)
    for specs in (PAIRS[0], PAIRS[3]):
        k1, k2 = (parse_kernel(spec) for spec in specs)
        system = CornerSystem(k1, k2, sample_spec(grid2, "gauss(1)"),
                              sample_spec(grid1, "powerlaw(1.5)"), SPACE)
        first, second = (solve_corner(system, grid1, grid2) for _ in range(2))
        assert np.array_equal(first.c.values, second.c.values)
        assert np.array_equal(first.d.values, second.d.values)
        assert first.condition_estimate == second.condition_estimate


def test_data_grid_mismatch_rejected():
    grid1, grid2 = grids()
    system = CornerSystem(KernelSpec(kappa=2.0), KernelSpec(kappa=2.0),
                          sample_spec(grid2, "gauss(1)"),
                          sample_spec(grid1, "gauss(1)"), SPACE)
    with pytest.raises(DomainError):
        solve_corner(system, grid2, grid1)  # grids swapped


def test_space_validation():
    grid1, grid2 = grids()
    with pytest.raises(DomainError):
        CornerSystem(KernelSpec(kappa=2.0), KernelSpec(kappa=2.0),
                     sample_spec(grid2, "gauss(1)"), sample_spec(grid1, "gauss(1)"),
                     SpaceSpec.h(0.25))
    with pytest.raises(DomainError):
        CornerSystem(KernelSpec(kappa=2.0), KernelSpec(kappa=2.0),
                     sample_spec(grid2, "gauss(1)"), sample_spec(grid1, "gauss(1)"),
                     SpaceSpec.hsp(-0.25, 3.0))


def _unmirrored(grid: Grid) -> Grid:
    """The grid with one weight moved off its mirror image by a relative 1e-12."""
    weights = grid.weights.copy()
    weights[0] *= 1.0 + 1e-12
    return Grid(R=grid.R, nodes=grid.nodes, weights=weights, grading=grid.grading,
                panel_order=grid.panel_order, breakpoints=grid.breakpoints)


PAIRS = [("envelope(2)", "envelope(2.5)"), ("cosmod(2,1.5)", "envelope(1.5)"),
         ("cosmod(2.5,3)", "cosmod(2,0.5)"), ("altmod(2)", "envelope(2)"),
         ("envelope(2)", "altmod(2.5)"), ("altmod(2)", "altmod(1.5)")]
GRID_PAIRS = {"equal": lambda: grids(8, 8), "larger-first": lambda: grids(8, 6),
              "larger-second": lambda: grids(5, 9),
              "unmirrored": lambda: (grids()[0], _unmirrored(grids()[1]))}


@pytest.mark.parametrize("grid_pair", GRID_PAIRS)
@pytest.mark.parametrize("specs", PAIRS)
def test_solve_matches_dense_reference(monkeypatch, specs, grid_pair):
    grid1, grid2 = GRID_PAIRS[grid_pair]()
    k1, k2 = (parse_kernel(spec) for spec in specs)
    rng = np.random.default_rng(4)
    system = CornerSystem(k1, k2, sample(grid2, rng.normal(size=grid2.size)),
                          sample(grid1, rng.normal(size=grid1.size)), SPACE)
    sizes = []
    real = opnormlab.corner.lu_factor
    monkeypatch.setattr(opnormlab.corner, "lu_factor",
                        lambda matrix: sizes.append(matrix.shape) or real(matrix))
    solution = solve_corner(system, grid1, grid2)
    n1, n2 = grid1.size, grid2.size
    halved = k1.even and k2.even and grid_pair != "unmirrored"
    # the Schur complement lives on the smaller unknown of the system solved
    schur_size = min(n1, n2) // 2 if halved else min(n1, n2)
    assert sizes == [(schur_size, schur_size)]
    matrix = stacked_corner_matrix(system, grid1, grid2)
    reference = np.linalg.solve(matrix, np.concatenate([system.g_data.values,
                                                        system.f_data.values]))
    got = np.concatenate([solution.c.values, solution.d.values])
    assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(np.abs(reference))
    assert solution.condition_estimate <= np.linalg.cond(matrix, 1) * (1 + 1e-12)
    solved = matrix
    if halved:  # E = [[I, 2 Q2], [2 Q1, I]] from the quadrants of the stacked blocks
        h1, h2 = n1 // 2, n2 // 2
        solved = np.block([[np.eye(h1), 2.0 * matrix[h1:n1, n1 + h2:]],
                           [2.0 * matrix[n1 + h2:, h1:n1], np.eye(h2)]])
    assert solution.condition_estimate >= np.linalg.cond(solved, 1) / 2


@pytest.mark.parametrize("specs", PAIRS[:3])
def test_odd_data_pass_through(specs):
    # even kernels annihilate odd data, so C = G and D = F exactly
    grid1, grid2 = grids(8, 6)
    k1, k2 = (parse_kernel(spec) for spec in specs)
    rng = np.random.default_rng(13)
    half_g, half_f = rng.normal(size=grid1.size // 2), rng.normal(size=grid2.size // 2)
    g = sample(grid1, np.concatenate([-half_g[::-1], half_g]))
    f = sample(grid2, np.concatenate([-half_f[::-1], half_f]))
    solution = solve_corner(CornerSystem(k1, k2, f, g, SPACE), grid1, grid2)
    assert np.array_equal(solution.c.values, g.values)
    assert np.array_equal(solution.d.values, f.values)


@pytest.mark.parametrize("grid_pair", ["larger-first", "larger-second", "unmirrored"])
@pytest.mark.parametrize("specs", [PAIRS[1], PAIRS[3]])
def test_kernel_entries_per_solve(monkeypatch, specs, grid_pair):
    # the solve and the residuals each evaluate the quadrants on the half
    # path, the full blocks otherwise
    grid1, grid2 = GRID_PAIRS[grid_pair]()
    k1, k2 = (parse_kernel(spec) for spec in specs)
    system = CornerSystem(k1, k2, sample_spec(grid2, "gauss(1)"),
                          sample_spec(grid1, "powerlaw(1.5)"), SPACE)
    entries = []
    real = opnormlab.corner.kernel_eval

    def counting(*args):
        values = real(*args)
        entries.append(values.size)
        return values

    monkeypatch.setattr(opnormlab.corner, "kernel_eval", counting)
    solve_corner(system, grid1, grid2)
    n1, n2 = grid1.size, grid2.size
    halved = k1.even and k2.even and grid_pair != "unmirrored"
    solve_entries = 2 * (n1 // 2) * (n2 // 2) if halved else 2 * n1 * n2
    assert sum(entries) == 2 * solve_entries


@pytest.mark.parametrize("grid_pair", ["larger-first", "larger-second"])
@pytest.mark.parametrize("specs", PAIRS[:3])
def test_mirror_apply_matches_the_full_block(specs, grid_pair):
    # A v = [J; I] Q [J, I] v holds for every vector, odd part included
    grid1, grid2 = GRID_PAIRS[grid_pair]()
    k1, k2 = (parse_kernel(spec) for spec in specs)
    a1, a2 = coupling_blocks(k1, k2, grid1, grid2)
    q1, q2 = coupling_blocks(k1, k2, grid1, grid2, quadrant=True)
    rng = np.random.default_rng(21)
    for full, quadrant in ((a1, q1), (a2, q2)):
        v = rng.normal(size=full.shape[1])
        want = full @ v
        got = opnormlab.corner._mirror_apply(quadrant, v)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("part", ["even", "odd"])
@pytest.mark.parametrize("specs", [PAIRS[0], PAIRS[1]])
def test_residuals_see_a_perturbed_solution(monkeypatch, specs, part):
    # a solution off by 1e-6 in its even or in its odd part, which the half
    # solve never computes, gives the residuals of the full blocks
    grid1, grid2 = GRID_PAIRS["larger-first"]()
    k1, k2 = (parse_kernel(spec) for spec in specs)
    system = CornerSystem(k1, k2, sample_spec(grid2, "gauss(1)"),
                          sample_spec(grid1, "powerlaw(1.5)"), SPACE)
    rng = np.random.default_rng(8)
    sign = 1.0 if part == "even" else -1.0

    def perturbation(size):
        half = rng.normal(size=size // 2)
        return 1e-6 * np.concatenate([sign * half[::-1], half])

    real = opnormlab.corner._solve_unknowns

    def perturbed(*args):
        c, d, condition = real(*args)
        return c + perturbation(c.size), d + perturbation(d.size), condition

    monkeypatch.setattr(opnormlab.corner, "_solve_unknowns", perturbed)
    solution = solve_corner(system, grid1, grid2)
    c, d = solution.c.values, solution.d.values
    a1, a2 = coupling_blocks(k1, k2, grid1, grid2)
    want_1 = weighted_norm(sample(grid2, a1 @ c + d - system.f_data.values), SPACE)
    want_2 = weighted_norm(sample(grid1, c + a2 @ d - system.g_data.values), SPACE)
    assert min(want_1, want_2) > 1e-8
    assert solution.residual_1 == pytest.approx(want_1, rel=1e-10)
    assert solution.residual_2 == pytest.approx(want_2, rel=1e-10)


def test_half_path_solve_keeps_two_quadrants_and_the_schur_complement():
    # S is factored in place, ||E||_1 takes no |B| temporary, and the
    # residuals apply fresh quadrants: besides the two quadrant blocks and S
    # the solve holds only O(n) vectors, at most 14 doubles per node of
    # n1 + n2 (about 9.6 measured; a |B| temporary adds about 9)
    grid1, grid2 = build_grid(640.0, 50, 1.3, 8), build_grid(160.0, 40, 1.3, 8)
    k = KernelSpec(kappa=1.5)
    system = CornerSystem(k, k, sample_spec(grid2, "gauss(1)"),
                          sample_spec(grid1, "powerlaw(1.5)"), SPACE)
    solve_corner(system, grid1, grid2)  # imports scipy outside the trace
    tracemalloc.start()
    try:
        solve_corner(system, grid1, grid2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    h1, h2 = grid1.size // 2, grid2.size // 2
    assert (h1, h2) == (400, 320)
    blocks = 8 * (2 * h1 * h2 + min(h1, h2) ** 2)
    assert peak - blocks <= 14 * 8 * (grid1.size + grid2.size)
