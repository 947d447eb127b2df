"""Nystrom assembly and the norm estimators against dense oracles."""
import ast
import collections
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import opnormlab
from opnormlab import (ConvergenceError, DiscretizedOperator, DomainError, Grid,
                       KernelSpec, NumericalError, SampledFunction, SpaceSpec,
                       apply_operator, assemble, build_grid, empirical_ratio,
                       envelope_indicator_image, extend_grid, kernel_eval,
                       largest_singular_value, matrix_pq_norm, nested_grids,
                       operator_norm_pq, sample, sample_spec, weighted_norm)
from opnormlab.conditions import BoundednessQuery, query_spaces
from opnormlab.operators import POWER_MAX_ITER, POWER_TOL, _pq_norm, _power_method
from opnormlab.spaces import conjugate_exponent, weight_exponent

from _dense import full_matrix


def single_node_grid(weight: float = 2.0) -> Grid:
    # one node at the origin carrying the full measure of [-R, R]
    R = weight / 2.0
    return Grid(R=R, nodes=np.array([0.0]), weights=np.array([weight]),
                grading=1.0, panel_order=2, breakpoints=np.array([0.0, R]))


def pair_grid() -> Grid:
    # nodes at -1 and 1 with unit weights
    return Grid(R=1.0, nodes=np.array([-1.0, 1.0]), weights=np.array([1.0, 1.0]),
                grading=1.0, panel_order=2, breakpoints=np.array([0.0, 1.0]))


def test_assemble_single_entry():
    grid = single_node_grid(weight=2.0)
    space = SpaceSpec.hsp(0.0, 4.0)
    op = assemble(KernelSpec(kappa=2.0), space, space, grid, grid)
    q1 = 4.0 / 3.0
    assert full_matrix(op).shape == (1, 1)
    assert full_matrix(op)[0, 0] == pytest.approx(2.0 ** (1 / 4.0) * 1.0 * 2.0 ** (1 / q1),
                                                  rel=1e-15)


def test_assemble_flattened_entry():
    grid = pair_grid()
    # entry at x = 1, y = 1 with unit weights:
    # (1+1)^(w2/p2) * c * (1+2)^-2 * (1+1)^(-w1/p1)
    cases = (
        (KernelSpec(kappa=2.0), SpaceSpec.h(-1.0), SpaceSpec.h(0.0), 2.0 / 9.0),
        (KernelSpec(kappa=2.0, c_lower=0.5, c_upper=0.5), SpaceSpec.h(0.0),
         SpaceSpec.h(0.0), 0.5 / 9.0),
        (KernelSpec(kappa=2.0), SpaceSpec.hsp(-0.5, 4.0), SpaceSpec.hps(3.0, 0.5),
         2.0 ** (1 / 3) / 9.0 * 2.0 ** 0.5),
    )
    for k, source, target, expected in cases:
        op = assemble(k, source, target, grid, grid)
        assert full_matrix(op)[1, 1] == pytest.approx(expected, rel=1e-15)


def test_assemble_peak_memory():
    # at most the scaled matrix and the operator's frozen copy of it are
    # alive at once; the finiteness check is a sum, with no n x n mask
    grid = build_grid(640.0, 82, 1.3, 8)
    n = grid.size
    tracemalloc.start()
    try:
        assemble(KernelSpec(kappa=1.5), SpaceSpec.hps(4.0, -0.5), SpaceSpec.hps(2.0, 0.25),
                 grid, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * n * 8


def test_assemble_mirrored_peak_memory():
    # one quadrant of kernel values and its scaled copy, and no n x n array:
    # the operator keeps the quadrant and builds the full matrix only on read
    grid = build_grid(640.0, 82, 1.3, 8)
    n = grid.size
    tracemalloc.start()
    try:
        assemble(KernelSpec(kappa=1.5), SpaceSpec.hps(4.0, -0.5), SpaceSpec.hps(2.0, 0.25),
                 grid, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * n * n * 8


def test_assemble_full_path_peak_memory():
    # graded nodes with two weights swapped: not a bitwise mirror, so the
    # full matrix is assembled.  The envelope keeps one n x n array alive
    # (kernel values, scaled in place); a modulation adds its factor as a
    # second
    grid = build_grid(640.0, 82, 1.3, 8)
    weights = grid.weights.copy()
    weights[[0, 1]] = weights[[1, 0]]
    grid = Grid(R=grid.R, nodes=grid.nodes, weights=weights, grading=grid.grading,
                panel_order=grid.panel_order, breakpoints=grid.breakpoints)
    n = grid.size
    assert n == 1312
    for kernel, bound in ((KernelSpec(kappa=1.5), 1.25), (COSMOD, 2.25),
                          (KernelSpec(kappa=1.5, modulation="alternating"), 2.25)):
        tracemalloc.start()
        try:
            op = assemble(kernel, SpaceSpec.hps(4.0, -0.5), SpaceSpec.hps(2.0, 0.25),
                          grid, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not op.mirrored
        assert peak < bound * n * n * 8, kernel
        del op


@pytest.mark.parametrize("kernel, bound", [
    (KernelSpec(kappa=1.5), 1.25),
    (KernelSpec(kappa=1.5, modulation="cosine", omega=1.5), 2.25),
    (KernelSpec(kappa=1.5, modulation="alternating"), 2.25),
], ids=["envelope", "cosmod", "altmod"])
def test_assemble_allocates_one_block(kernel, bound):
    # kernel_eval returns one fresh array, a modulation adds one scratch
    # array of the same size, and assemble scales the result in place: 1 or
    # 2 blocks, plus 0.25 of a block for the O(n) vectors (scalings, mirror
    # test).  The core is the quadrant for the even kernels, the full matrix
    # for altmod
    grid = build_grid(640.0, 50, 1.3, 8)
    assert grid.size == 800
    tracemalloc.start()
    try:
        op = assemble(kernel, SpaceSpec.hps(4.0, -0.5), SpaceSpec.hps(2.0, 0.25), grid, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.mirrored == kernel.even
    assert peak <= bound * op.core.nbytes


def test_assemble_nonnegative_for_pure_envelope():
    grid = build_grid(20.0, 6, 1.3, 6)
    op = assemble(KernelSpec(kappa=1.5), SpaceSpec.h(-1.0), SpaceSpec.h(-0.5),
                  grid, grid)
    assert np.all(full_matrix(op) >= 0)


def test_assemble_sign_changing_for_modulated():
    grid = build_grid(20.0, 6, 1.3, 6)
    op = assemble(KernelSpec(kappa=1.5, modulation="cosine", omega=2.0),
                  SpaceSpec.h(-1.0), SpaceSpec.h(-0.5), grid, grid)
    assert np.any(full_matrix(op) < 0)


def test_assemble_overflow_names_entry():
    grid = build_grid(1e4, 10, 1.5, 4)
    with pytest.raises(NumericalError, match=r"\(\d+, \d+\)"):
        assemble(KernelSpec(kappa=-400.0), SpaceSpec.h(0.0), SpaceSpec.h(0.0),
                 grid, grid)


def test_finite_entries_with_overflowing_sum_accepted():
    space = SpaceSpec.h(0.0)
    op = DiscretizedOperator(np.array([[1e308, 1e308]]), space, space,
                             pair_grid(), single_node_grid())
    assert np.array_equal(full_matrix(op), [[1e308, 1e308]])


def test_constructor_rejects_shape_mismatch():
    # the public constructor takes only the full matrix, never a quadrant
    space = SpaceSpec.h(0.0)
    grid = NESTED[0]
    full = assemble(KernelSpec(kappa=2.0), space, space, grid, grid)
    assert full.mirrored
    for matrix in (full.core, full_matrix(full)[:, :-1], np.ones(grid.size)):
        with pytest.raises(DomainError, match="does not match grids"):
            DiscretizedOperator(matrix, space, space, grid, grid)
    with pytest.raises(DomainError, match="does not match grids"):
        DiscretizedOperator(full_matrix(full), space, space, grid, NESTED[1])


@pytest.mark.parametrize("matrix, entry", [
    ([[np.inf, -np.inf]], r"\(0, 0\)"),  # the sum is NaN, not infinite
    ([[1.0, 2.0], [3.0, np.nan]], r"\(1, 1\)"),
])
def test_non_finite_entry_named(matrix, entry):
    with pytest.raises(NumericalError, match=entry):
        matrix_pq_norm(matrix, 2.0, 2.0)


# --- restriction to nested grids -----------------------------------------------

NESTED = nested_grids((10.0, 40.0, 160.0), 6, 1.3, 4, extra_panels=2)


@pytest.mark.parametrize("kernel, source, target", [
    (KernelSpec(kappa=1.5), SpaceSpec.h(-0.25), SpaceSpec.h(-0.25)),
    (KernelSpec(kappa=2.0, modulation="cosine", omega=1.5), SpaceSpec.h(-1.0),
     SpaceSpec.h(-0.5)),
    (KernelSpec(kappa=2.0, modulation="alternating"), SpaceSpec.hps(4.0, -0.5),
     SpaceSpec.hps(4.0, -0.5)),
    (KernelSpec(kappa=2.5), SpaceSpec.hsp(-0.5, 3.0), SpaceSpec.hps(2.0, 0.0)),
])
def test_restrict_equals_assembly_on_nested_grid(kernel, source, target):
    full = assemble(kernel, source, target, NESTED[-1], NESTED[-1])
    for grid in NESTED:
        block = full.restrict(grid, grid)
        assert block.source_grid is grid and block.target_grid is grid
        assert block.source_space == source and block.target_space == target
        assert np.array_equal(full_matrix(block),
                              full_matrix(assemble(kernel, source, target, grid, grid)))


def test_restrict_distinct_source_and_target_grids():
    full = assemble(KernelSpec(kappa=2.0), SpaceSpec.h(-1.0), SpaceSpec.h(-0.5),
                    NESTED[-1], NESTED[-1])
    block = full.restrict(NESTED[0], NESTED[1])
    assert full_matrix(block).shape == (NESTED[1].size, NESTED[0].size)
    assert np.array_equal(full_matrix(block),
                          full_matrix(assemble(KernelSpec(kappa=2.0), SpaceSpec.h(-1.0),
                                               SpaceSpec.h(-0.5), NESTED[0], NESTED[1])))


def test_restrict_is_a_read_only_view():
    full = assemble(KernelSpec(kappa=1.5), SpaceSpec.h(-0.25), SpaceSpec.h(-0.25),
                    NESTED[-1], NESTED[-1])
    block = full.restrict(NESTED[0], NESTED[0])
    assert np.shares_memory(block.core, full.core)
    for array in (block.core, block.matrix):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1.0


def test_restrict_rejects_grid_outside_the_family():
    full = assemble(KernelSpec(kappa=1.5), SpaceSpec.h(-0.25), SpaceSpec.h(-0.25),
                    NESTED[1], NESTED[1])
    other = build_grid(10.0, 6, 1.5, 4)  # same size as NESTED[0], other grading
    assert other.size == NESTED[0].size
    for source, target in ((other, NESTED[0]), (NESTED[0], other), (NESTED[2], NESTED[2])):
        with pytest.raises(DomainError):
            full.restrict(source, target)


# --- apply_operator ----------------------------------------------------------

def aligned_indicator_grid() -> Grid:
    # panel edge at 1 keeps the indicator jump out of every panel interior
    return extend_grid(build_grid(1.0, 6, 1.2, 8), 16.0, extra_panels=6)


def test_apply_zero_function():
    grid = build_grid(5.0, 4, 1.3, 6)
    f = sample(grid, lambda x: np.zeros_like(x))
    assert apply_operator(KernelSpec(kappa=2.0), f, grid, 0.3) == 0.0


@pytest.mark.parametrize("x,expected", [(0.0, 0.5), (1.0, 1.0 / 6.0)])
def test_apply_indicator_closed_form(x, expected):
    grid = aligned_indicator_grid()
    f = sample_spec(grid, "indicator(0,1)")
    got = apply_operator(KernelSpec(kappa=2.0), f, grid, x)
    assert got == pytest.approx(expected, rel=1e-10)
    assert expected == pytest.approx(envelope_indicator_image(2.0, x), rel=1e-15)


@pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan])
def test_apply_rejects_non_finite_point(x):
    grid = build_grid(5.0, 4, 1.3, 6)
    f = sample(grid, lambda y: np.ones_like(y))
    with pytest.raises(DomainError, match="finite"):
        apply_operator(KernelSpec(kappa=2.0), f, grid, x)


def test_apply_requires_matching_grid():
    grid = build_grid(5.0, 4, 1.3, 6)
    other = build_grid(6.0, 4, 1.3, 6)
    f = sample(grid, lambda x: np.ones_like(x))
    with pytest.raises(DomainError):
        apply_operator(KernelSpec(kappa=2.0), f, other, 0.0)


# --- largest singular value --------------------------------------------------

def test_singular_value_scalar_and_diagonal():
    assert largest_singular_value(np.array([[-3.0]])) == pytest.approx(3.0, rel=1e-12)
    assert largest_singular_value(np.diag([1.0, 2.0])) == pytest.approx(2.0, rel=1e-10)


def test_singular_value_zero_matrix():
    assert largest_singular_value(np.zeros((3, 4))) == 0.0


def test_singular_value_matches_dense_svd():
    rng = np.random.default_rng(123)
    for _ in range(5):
        matrix = rng.normal(size=(50, 50))
        got = largest_singular_value(matrix)
        expected = float(np.linalg.svd(matrix, compute_uv=False)[0])
        assert got == pytest.approx(expected, rel=1e-8)


def test_singular_value_nonconvergence_raises():
    # a small matrix raises too: no dense decomposition absorbs it
    for seed, shape, max_iter in ((5, (501, 502), 1), (5, (501, 502), 3), (6, (40, 40), 1)):
        matrix = np.random.default_rng(seed).normal(size=shape)
        with pytest.raises(ConvergenceError) as info:
            largest_singular_value(matrix, max_iter=max_iter)
        error = info.value
        assert error.iterations == max_iter
        # the change that failed the stop test
        assert error.last_delta > POWER_TOL * max(1.0, error.last_value)


# --- p -> q norms ------------------------------------------------------------

def test_pq_norm_single_entry_any_exponents():
    for p1, p2 in ((2.0, 2.0), (1.5, 3.0), (4.0, 2.5)):
        estimate = matrix_pq_norm(np.array([[-2.5]]), p1, p2)
        assert estimate.value == pytest.approx(2.5, rel=1e-12)
        assert estimate.converged


def test_pq_norm_matches_p2():
    rng = np.random.default_rng(321)
    for _ in range(5):
        matrix = rng.uniform(0.0, 1.0, size=(30, 40))
        estimate = matrix_pq_norm(matrix, 2.0, 2.0)
        assert estimate.certified
        assert estimate.value == pytest.approx(largest_singular_value(matrix), rel=1e-8)


def test_pq_norm_rank_one_holder_equality():
    rng = np.random.default_rng(17)
    for p1, p2 in ((1.5, 3.0), (2.0, 2.0), (4.0, 1.5), (2.5, 2.5)):
        a = rng.uniform(0.1, 1.0, size=25)
        b = rng.uniform(0.1, 1.0, size=35)
        q1 = p1 / (p1 - 1.0)
        expected = (np.sum(a ** p2) ** (1 / p2)) * (np.sum(b ** q1) ** (1 / q1))
        estimate = matrix_pq_norm(np.outer(a, b), p1, p2)
        assert estimate.certified
        assert estimate.value == pytest.approx(expected, rel=1e-10)


def test_pq_norm_zero_matrix():
    estimate = matrix_pq_norm(np.zeros((3, 3)), 2.5, 1.5)
    assert estimate.value == 0.0 and estimate.certified


@pytest.mark.parametrize("tol, max_iter", [
    (POWER_TOL, 0), (POWER_TOL, -1), (-1e-3, POWER_MAX_ITER),
    (np.nan, POWER_MAX_ITER), (np.inf, POWER_MAX_ITER),
])
def test_pq_norm_rejects_bad_iteration_limits(tol, max_iter):
    # with no iteration the value would be a bare 0.0, and a negative
    # tolerance would spend the whole budget on every call
    with pytest.raises(DomainError):
        matrix_pq_norm(np.eye(2), 2.0, 3.0, tol=tol, max_iter=max_iter)
    with pytest.raises(DomainError):
        largest_singular_value(np.eye(2), tol=tol, max_iter=max_iter)


def test_pq_norm_accepts_zero_tolerance_and_one_iteration():
    estimate = matrix_pq_norm(np.eye(2), 2.0, 2.0, tol=0.0, max_iter=1)
    assert estimate.iterations == 1 and not estimate.converged


def test_pq_norm_start_in_nullspace():
    # the all-ones start is mapped to zero; the restart finds the norm
    estimate = matrix_pq_norm([[1.0, -1.0]], 2.0, 2.0)
    assert estimate.value == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert estimate.converged and not estimate.certified


def test_pq_norm_rescales_an_overflowing_power_sum():
    # |u|^4 overflows for u = B 1 although ||B||_{2->4} = sqrt(2) 1e200 is finite
    estimate = matrix_pq_norm([[1e200, 1e200]], 2.0, 4.0)
    assert estimate.value == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
    assert estimate.converged and estimate.certified


def test_mirror_factor_that_overflows_raises():
    # the quadrant's norm 1e308 is finite; the full matrix's, twice that, is not
    with pytest.raises(NumericalError, match="overflows"):
        _pq_norm(np.array([[1e308]]), 2, 2, POWER_TOL, 10, nonnegative=True, mirrored=True)


@pytest.mark.parametrize("matrix, scale, p1, p2", [
    ([[1.0, 3.0], [2.0, 1.0]], 1e-8, 1.5, 3.0),  # an absolute stop test ended early
    ([[1.0, 2.0], [3.0, 1.0]], 1e-200, 2.0, 2.0),  # |u|^2 underflowed to a value of 0
])
def test_pq_norm_is_scale_invariant_for_small_matrices(matrix, scale, p1, p2):
    matrix = np.array(matrix)
    small, unit = matrix_pq_norm(scale * matrix, p1, p2), matrix_pq_norm(matrix, p1, p2)
    assert small.value / scale == pytest.approx(unit.value, rel=1e-15, abs=0.0)
    assert (small.iterations, small.converged, small.certified) == (
        unit.iterations, unit.converged, unit.certified)


@pytest.mark.parametrize("matrix, p2", [
    ([[1.7e308, 1.7e308]], 4.0),  # B 1 itself overflows
    ([[1.7e308], [1.7e308]], 2.0),  # B 1 is finite, its norm is not
])
def test_pq_norm_overflowing_value_is_a_numerical_error(matrix, p2):
    with pytest.raises(NumericalError):
        matrix_pq_norm(matrix, 2.0, p2)


@pytest.mark.parametrize("start", [
    np.ones(7), np.ones(16), np.ones((2, 4)),  # the core has 8 columns, the grid 16 nodes
    np.array([1.0, np.nan, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
    np.array([1.0, np.inf, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
    np.zeros(8),
])
def test_operator_norm_rejects_a_bad_start(start):
    grid = build_grid(4.0, 2, 1.3, 4)
    op = assemble(KernelSpec(kappa=2.0), SpaceSpec.h(-0.5), SpaceSpec.h(-0.5), grid, grid)
    assert op.mirrored and op.core.shape == (8, 8)
    with pytest.raises(DomainError, match="start"):
        operator_norm_pq(op, start=start)


def test_pq_norm_sign_changing_not_certified():
    rng = np.random.default_rng(9)
    matrix = rng.normal(size=(20, 20))
    estimate = matrix_pq_norm(matrix, 3.0, 1.5)
    assert not estimate.certified
    # still a valid lower bound on the (here unknown) true norm: positive
    assert estimate.value > 0


def test_pq_norm_is_lower_bound_at_p2():
    # for p = 2 the true norm is computable: the estimate never exceeds it
    rng = np.random.default_rng(10)
    matrix = rng.normal(size=(25, 25))
    estimate = matrix_pq_norm(matrix, 2.0, 2.0)
    truth = float(np.linalg.svd(matrix, compute_uv=False)[0])
    assert estimate.value <= truth * (1 + 1e-10)


# --- operator-level norms ----------------------------------------------------

def test_operator_norm_at_p2_is_the_largest_singular_value():
    grid = build_grid(40.0, 10, 1.3, 8)
    op = assemble(KernelSpec(kappa=2.0), SpaceSpec.h(-1.0), SpaceSpec.h(-1.0),
                  grid, grid)
    expected = float(np.linalg.svd(full_matrix(op), compute_uv=False)[0])
    assert operator_norm_pq(op).value == pytest.approx(expected, rel=1e-8)


def test_norm_scales_with_envelope_constant():
    grid = build_grid(40.0, 10, 1.3, 8)
    source, target = SpaceSpec.h(-1.0), SpaceSpec.h(-0.5)
    one = operator_norm_pq(assemble(KernelSpec(kappa=2.0), source, target, grid, grid))
    two = operator_norm_pq(assemble(KernelSpec(kappa=2.0, c_lower=2.0, c_upper=2.0),
                                    source, target, grid, grid))
    assert two.value == pytest.approx(2.0 * one.value, rel=1e-12)


def test_monotone_truncation_nested_grids():
    base = build_grid(10.0, 12, 1.3, 8)
    bigger = extend_grid(base, 40.0, extra_panels=2)
    source, target = SpaceSpec.hsp(-0.5, 4.0), SpaceSpec.hsp(-0.5, 4.0)
    k = KernelSpec(kappa=1.75)
    small = operator_norm_pq(assemble(k, source, target, base, base)).value
    large = operator_norm_pq(assemble(k, source, target, bigger, bigger)).value
    assert large >= small - 1e-10


def test_transpose_duality_at_p2():
    grid = build_grid(20.0, 8, 1.3, 8)
    op = assemble(KernelSpec(kappa=2.0), SpaceSpec.h(-1.0), SpaceSpec.h(-0.5),
                  grid, grid)
    assert largest_singular_value(full_matrix(op).T) == pytest.approx(
        largest_singular_value(full_matrix(op)), abs=1e-10)


# --- empirical ratios --------------------------------------------------------

def bare_kernel_image(k, f, target_grid):
    # (Kf) on the target nodes written out on the bare kernel over the full
    # grids, without an operator
    source_grid = f.grid
    return (kernel_eval(k, target_grid.nodes[:, None], source_grid.nodes[None, :])
            @ (source_grid.weights * f.values))


def bare_kernel_ratio(k, f, source, target, target_grid):
    image = SampledFunction(target_grid, bare_kernel_image(k, f, target_grid))
    return weighted_norm(image, target) / weighted_norm(f, source)


def test_bare_kernel_image_matches_pointwise_application():
    grid = build_grid(10.0, 6, 1.3, 6)
    target = build_grid(10.0, 4, 1.3, 4)
    k = KernelSpec(kappa=1.5)
    f = sample_spec(grid, "gauss(2)")
    image = bare_kernel_image(k, f, target)
    for i in (0, 7, target.size - 1):
        assert image[i] == pytest.approx(
            apply_operator(k, f, grid, float(target.nodes[i])), rel=1e-14)


@pytest.mark.parametrize("kernel", [
    KernelSpec(kappa=1.5),
    KernelSpec(kappa=2.0, modulation="cosine", omega=1.5),
    KernelSpec(kappa=2.0, modulation="alternating"),
], ids=["envelope", "cosmod", "altmod"])
@pytest.mark.parametrize("source, target", [
    (SpaceSpec.h(-1.0), SpaceSpec.h(-0.5)),
    (SpaceSpec.hsp(-0.5, 3.0), SpaceSpec.hps(1.5, -0.25)),
], ids=["h", "p-not-2"])
@pytest.mark.parametrize("source_grid, target_grid", [(NESTED[-1], NESTED[-1]),
                                                      (NESTED[0], NESTED[1])],
                         ids=["square", "two-grids"])
def test_empirical_ratio_matches_the_bare_kernel(kernel, source, target, source_grid,
                                                  target_grid):
    op = assemble(kernel, source, target, source_grid, target_grid)
    assert op.mirrored == kernel.even
    for spec in ("gauss(1)", "powerlaw(0.75)", "bump(3,2)"):
        f = sample_spec(source_grid, spec)
        expected = bare_kernel_ratio(kernel, f, source, target, target_grid)
        for operator in (op, full_path(op)):
            assert empirical_ratio(operator, f) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_empirical_ratio_below_norm():
    grid = build_grid(40.0, 10, 1.3, 8)
    source, target = SpaceSpec.h(-1.0), SpaceSpec.h(-1.0)
    op = assemble(KernelSpec(kappa=2.0), source, target, grid, grid)
    norm = operator_norm_pq(op).value
    for spec in ("gauss(1)", "powerlaw(2)", "bump(3,1)"):
        f = sample_spec(grid, spec)
        assert empirical_ratio(op, f) <= norm * (1 + 1e-6)


def test_empirical_ratio_top_singular_vector_attains_norm():
    grid = build_grid(40.0, 10, 1.3, 8)
    source = target = SpaceSpec.h(-1.0)
    op = assemble(KernelSpec(kappa=2.0), source, target, grid, grid)
    assert op.mirrored
    _, sigma, vt = np.linalg.svd(full_matrix(op))
    # map the top right-singular vector back to function samples
    v = vt[0]
    w1 = -2.0  # weight exponent of the source space
    f_vals = v / (grid.weights ** 0.5 * (1 + np.abs(grid.nodes)) ** (w1 / 2.0))
    f = sample(grid, f_vals)
    assert empirical_ratio(op, f) == pytest.approx(float(sigma[0]), rel=1e-8)


def test_empirical_ratio_far_field_function_is_suboptimal():
    grid = build_grid(40.0, 10, 1.3, 8)
    source = target = SpaceSpec.h(-1.0)
    op = assemble(KernelSpec(kappa=2.0), source, target, grid, grid)
    norm = operator_norm_pq(op).value
    f = sample_spec(grid, "bump(35,2)")  # mass far from the kernel's bulk
    assert empirical_ratio(op, f) < 0.9 * norm


def test_empirical_ratio_zero_function_rejected():
    grid = build_grid(10.0, 5, 1.3, 6)
    f = sample(grid, lambda x: np.zeros_like(x))
    op = assemble(KernelSpec(kappa=2.0), SpaceSpec.h(-1.0), SpaceSpec.h(-1.0), grid, grid)
    with pytest.raises(DomainError, match="zero source norm"):
        empirical_ratio(op, f)


def test_empirical_ratio_requires_the_source_grid():
    op = assemble(KernelSpec(kappa=2.0), SpaceSpec.h(-1.0), SpaceSpec.h(-1.0),
                  NESTED[0], NESTED[1])
    with pytest.raises(DomainError, match="not sampled on the given grid"):
        empirical_ratio(op, sample_spec(NESTED[1], "gauss(1)"))


def test_empirical_ratio_rescales_an_overflowing_power_sum():
    # the image 2e200 is finite, its fourth power is not
    op = DiscretizedOperator(np.array([[1e200, 1e200]]), SpaceSpec.h(0.0),
                             SpaceSpec.hps(4.0, 0.0), pair_grid(), single_node_grid())
    f = sample(pair_grid(), np.ones(2))
    assert empirical_ratio(op, f) == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)


def test_empirical_ratio_overflowing_image_is_a_numerical_error():
    # every entry and the source norm are finite, the image 2e308 is not
    op = DiscretizedOperator(np.array([[1e308, 1e308]]), SpaceSpec.h(0.0), SpaceSpec.h(0.0),
                             pair_grid(), single_node_grid())
    with pytest.raises(NumericalError, match="not finite"):
        empirical_ratio(op, sample(pair_grid(), np.ones(2)))


class _KernelEvalCalls(ast.NodeVisitor):
    # counts calls to kernel_eval, by name or as an attribute, per
    # (module, innermost enclosing function)
    def __init__(self, module: str):
        self.module, self.scope, self.sites = module, "<module>", collections.Counter()

    def visit_FunctionDef(self, node):
        outer, self.scope = self.scope, node.name
        self.generic_visit(node)
        self.scope = outer

    def visit_Call(self, node):
        if "kernel_eval" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            self.sites[(self.module, self.scope)] += 1
        self.generic_visit(node)


def test_kernel_eval_has_one_call_site_per_consumer():
    # every kernel-to-number path goes through assembly, the pointwise
    # application, the corner blocks or the envelope check; a second
    # assembly path would add a site here
    sites = collections.Counter()
    for path in Path(opnormlab.__file__).parent.glob("*.py"):
        calls = _KernelEvalCalls(path.stem)
        calls.visit(ast.parse(path.read_text(encoding="utf-8")))
        sites += calls.sites
    assert sites == {
        ("operators", "assemble"): 1,
        ("operators", "apply_operator"): 1,
        ("corner", "coupling_blocks"): 2,
        ("kernels", "envelope_check"): 1,
    }


# --- mirror symmetry ---------------------------------------------------------

def direct_matrix(k, source, target, source_grid, target_grid):
    # diag(r) K diag(c) written out on the full grids, without assemble
    x, y = target_grid.nodes, source_grid.nodes
    rows = (target_grid.weights ** (1.0 / target.p)
            * (1.0 + np.abs(x)) ** (weight_exponent(target) / target.p))
    cols = (source_grid.weights ** (1.0 / conjugate_exponent(source.p))
            * (1.0 + np.abs(y)) ** (-weight_exponent(source) / source.p))
    return rows[:, None] * kernel_eval(k, x[:, None], y[None, :]) * cols[None, :]


def full_path(op):
    # the public constructor keeps the whole matrix as the core: the power
    # method runs on all of it
    return DiscretizedOperator(full_matrix(op), op.source_space, op.target_space,
                               op.source_grid, op.target_grid)


# the nine query sets of acceptance criterion 6, with their decay exponents
CRITERION_6 = (
    BoundednessQuery("h", -0.25, -0.25, 1.5), BoundednessQuery("h", -1.0, -1.0, 2.25),
    BoundednessQuery("h", -0.5, 0.5, 2.5),
    BoundednessQuery("hsp", -1.0, -1.0, 2.0, 1.5, 1.5),
    BoundednessQuery("hsp", -0.5, 0.0, 2.25, 3.0, 2.0),
    BoundednessQuery("hsp", -0.3, 0.2, 2.0, 3.0, 3.0),
    BoundednessQuery("hps", -0.5, -0.5, 1.75, 4.0, 4.0),
    BoundednessQuery("hps", -1.0, -1.0, 2.0, 2.0, 4.0),
    BoundednessQuery("hps", -1.0, 0.0, 2.5, 2.0, 2.0),
)
SPACE_PAIRS = tuple(query_spaces(query) for query in CRITERION_6) + (
    (SpaceSpec.hps(1.5, -0.5), SpaceSpec.hps(3.0, -0.25)),
    (SpaceSpec.hsp(-0.5, 3.0), SpaceSpec.hsp(-0.25, 1.5)),
)
COSMOD = KernelSpec(kappa=2.0, modulation="cosine", omega=1.5)


@pytest.mark.parametrize("kernel, exact", [(KernelSpec(kappa=2.5), True), (COSMOD, False)])
@pytest.mark.parametrize("source_grid, target_grid", [(NESTED[-1], NESTED[-1]),
                                                      (NESTED[0], NESTED[1])])
def test_mirrored_assembly_equals_direct_formula(kernel, exact, source_grid, target_grid):
    for source, target in SPACE_PAIRS:
        op = assemble(kernel, source, target, source_grid, target_grid)
        assert op.mirrored
        assert not op.matrix.flags.writeable
        expected = direct_matrix(kernel, source, target, source_grid, target_grid)
        if exact:
            assert np.array_equal(full_matrix(op), expected)
        else:
            error = np.max(np.abs(full_matrix(op) - expected))
            assert error <= 1e-15 * np.max(np.abs(expected))


def test_mirrored_matrix_built_on_first_read():
    op = assemble(KernelSpec(kappa=2.5), *SPACE_PAIRS[4], NESTED[0], NESTED[1])
    assert op.mirrored
    assert op.core.shape == (NESTED[1].size // 2, NESTED[0].size // 2)
    assert "matrix" not in vars(op)
    first = op.matrix
    assert op.matrix is first
    assert first.shape == (NESTED[1].size, NESTED[0].size)
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 1.0
    h, w = op.core.shape
    assert np.array_equal(first[h:, w:], op.core)
    assert np.array_equal(first, first[::-1, ::-1])


@pytest.mark.parametrize("kernel", [KernelSpec(kappa=2.5), COSMOD])
def test_mirrored_norm_matches_full_matrix_run(kernel):
    for source, target in SPACE_PAIRS:
        for source_grid, target_grid in ((NESTED[-1], NESTED[-1]), (NESTED[0], NESTED[1])):
            op = assemble(kernel, source, target, source_grid, target_grid)
            got, want = operator_norm_pq(op), operator_norm_pq(full_path(op))
            assert got.value == pytest.approx(want.value, rel=1e-14, abs=0.0)
            assert (got.iterations, got.converged, got.certified) == (
                want.iterations, want.converged, want.certified)


def test_mirrored_restriction_keeps_the_quadrant_path():
    source, target = SPACE_PAIRS[7]  # hps 2 -> 4
    full = assemble(KernelSpec(kappa=2.0), source, target, NESTED[-1], NESTED[-1])
    for grid in NESTED:
        block = full.restrict(grid, grid)
        assert block.mirrored
        assert block.core.shape == (grid.size // 2, grid.size // 2)
        assert np.shares_memory(block.core, full.core)
        assert not block.core.flags.writeable and not block.matrix.flags.writeable
        got, want = operator_norm_pq(block), operator_norm_pq(full_path(block))
        assert got.value == pytest.approx(want.value, rel=1e-14, abs=0.0)
        assert got.iterations == want.iterations


def odd_grid() -> Grid:
    # Gauss-Legendre order 5 on [-1, 1]: a node at 0, so no even split
    nodes, weights = np.polynomial.legendre.leggauss(5)
    return Grid(R=1.0, nodes=nodes, weights=weights, grading=1.0, panel_order=5,
                breakpoints=np.array([0.0, 1.0]))


def lopsided_grid() -> Grid:
    # mirrored nodes, weights that are not a palindrome
    return Grid(R=2.0, nodes=np.array([-1.5, -0.5, 0.5, 1.5]),
                weights=np.array([0.9, 1.1, 1.0, 1.0]), grading=1.0, panel_order=2,
                breakpoints=np.array([0.0, 2.0]))


@pytest.mark.parametrize("kernel, grid", [
    (KernelSpec(kappa=2.0, modulation="alternating"), NESTED[1]),
    (KernelSpec(kappa=2.0), odd_grid()),
    (KernelSpec(kappa=2.0), lopsided_grid()),
    (COSMOD, lopsided_grid()),
])
def test_full_path_when_not_mirror_symmetric(kernel, grid):
    source, target = SpaceSpec.hsp(-0.5, 3.0), SpaceSpec.hsp(-0.25, 1.5)
    op = assemble(kernel, source, target, grid, grid)
    assert not op.mirrored and op.core is op.matrix
    assert np.array_equal(full_matrix(op), direct_matrix(kernel, source, target, grid, grid))
    mixed = assemble(kernel, source, target, grid, NESTED[0])  # one side mirrored
    assert not mixed.mirrored


def _power_method_two_norms(B, p1, p2, tol, max_iter):
    # the loop before the norm of u was passed to the dual map: ||u||_p2
    # computed once for the value and again inside the dual map
    def dual_map(u, r):
        norm = np.sum(np.abs(u) ** r) ** (1.0 / r)
        return np.abs(u) ** (r - 1.0) * np.sign(u) / norm ** (r - 1.0)

    q1 = p1 / (p1 - 1.0)
    n = B.shape[1]
    v = np.full(n, n ** (-1.0 / p1))
    best, gamma_prev, delta = 0.0, -np.inf, np.inf
    for iteration in range(1, max_iter + 1):
        u = B @ v
        gamma = float(np.sum(np.abs(u) ** p2) ** (1.0 / p2))
        best = max(best, gamma)
        delta = abs(gamma - gamma_prev)
        if delta <= tol * max(1.0, gamma):
            return best, True, iteration, delta
        gamma_prev = gamma
        v = dual_map(B.T @ dual_map(u, p2), q1)
    return best, False, max_iter, delta


@pytest.mark.parametrize("p1, p2", [(2.0, 2.0), (1.5, 3.0), (3.0, 1.5), (4.0, 4.0)])
def test_power_method_one_norm_per_iteration_is_bitwise(p1, p2):
    rng = np.random.default_rng(41)
    for shape in ((30, 40), (64, 64)):
        for matrix in (rng.uniform(0.0, 1.0, size=shape), rng.normal(size=shape)):
            for max_iter in (7, POWER_MAX_ITER):
                assert _power_method(matrix, p1, p2, POWER_TOL, max_iter)[:4] == \
                    _power_method_two_norms(matrix, p1, p2, POWER_TOL, max_iter)


@pytest.mark.parametrize("kernel", [KernelSpec(kappa=2.0), COSMOD,
                                    KernelSpec(kappa=2.0, modulation="alternating")])
def test_zero_padded_maximizer_reaches_the_smaller_value_at_once(kernel):
    # the smaller core is a block of the larger, so B_large [v; 0] holds B_small v
    source, target = SPACE_PAIRS[4]  # hsp 3 -> 2
    full = assemble(kernel, source, target, NESTED[-1], NESTED[-1])
    assert full.mirrored == kernel.even
    small = operator_norm_pq(full.restrict(NESTED[0], NESTED[0]))
    v = small.maximizer
    assert np.sum(np.abs(v) ** source.p) == pytest.approx(1.0, rel=1e-14)
    start = full.zero_padded(v, NESTED[0])
    assert start.size == full.core.shape[1] and np.count_nonzero(start) == np.count_nonzero(v)
    first = operator_norm_pq(full, tol=0.0, max_iter=1, start=start)
    assert first.value >= small.value * (1.0 - 1e-14)
    with pytest.raises(DomainError, match="length"):
        full.zero_padded(v[1:], NESTED[0])


def test_restrict_passes_nonnegativity_down_and_rescans_otherwise():
    envelope = assemble(KernelSpec(kappa=2.0), *SPACE_PAIRS[0], NESTED[-1], NESTED[-1])
    block = envelope.restrict(NESTED[0], NESTED[0])
    assert vars(block)["nonnegative"] is True  # set by restrict, not scanned
    # a parent with a negative entry outside the block: the block is rescanned
    # and its norm is certified, the parent's is not
    core = full_matrix(envelope).copy()
    core[0, 0] = -core[0, 0]
    parent = DiscretizedOperator(core, *SPACE_PAIRS[0], NESTED[-1], NESTED[-1])
    block = parent.restrict(NESTED[0], NESTED[0])
    assert not parent.nonnegative and "nonnegative" not in vars(block)
    assert block.nonnegative
    assert operator_norm_pq(block).certified and not operator_norm_pq(parent).certified
