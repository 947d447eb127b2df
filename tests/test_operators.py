"""Nystrom assembly and the norm estimators against dense oracles."""
import ast
import collections
import inspect
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import opnormlab
from opnormlab import (ConvergenceError, DiscretizedOperator, DomainError, Grid,
                       KernelSpec, NumericalError, SampledFunction, SpaceSpec,
                       apply_operator, assemble, build_grid, empirical_ratio,
                       envelope_indicator_image, kernel_eval,
                       largest_singular_value, matrix_pq_norm, nested_grids,
                       operator_norm_pq, sample, sample_spec, weighted_norm)
from opnormlab.conditions import BoundednessQuery, query_spaces
from opnormlab.operators import (_BLOCK_ENTRIES, _STRIP_ROWS, POWER_MAX_ITER, POWER_TOL,
                                 PqNormEstimate, _apply, _power_method)
from opnormlab.spaces import conjugate_exponent, weight_exponent

from _dense import full_matrix, kernel_matrix, scaled_core


def pair_grid() -> Grid:
    # one panel [0, 2] of order 2: nodes -+(1 -+ 1/sqrt(3)), each of weight 1
    grid = Grid([0.0, 2.0], 2)
    assert np.array_equal(grid.weights, np.ones(4))
    return grid


def test_assemble_single_entry():
    # one panel [0, 4] of order 2: nodes -+(2 -+ 2/sqrt(3)), each of weight 2
    grid = Grid([0.0, 4.0], 2)
    assert np.array_equal(grid.weights, np.full(4, 2.0))
    x = float(grid.nodes[2])  # the inner positive node
    assert x == pytest.approx(2.0 - 2.0 / np.sqrt(3.0), rel=1e-15)
    space = SpaceSpec.hsp(0.0, 4.0)
    op = assemble(KernelSpec(kappa=2.0), space, space, grid)
    q1 = 4.0 / 3.0
    assert full_matrix(op).shape == (4, 4)
    assert full_matrix(op)[2, 2] == pytest.approx(
        2.0 ** (1 / 4.0) * (1.0 + 2.0 * x) ** -2.0 * 2.0 ** (1 / q1), rel=1e-15)


def test_assemble_flattened_entry():
    grid = pair_grid()
    x = float(grid.nodes[3])  # the outer positive node
    assert x == pytest.approx(1.0 + 1.0 / np.sqrt(3.0), rel=1e-15)
    # entry at x = y = 1 + 1/sqrt(3) with unit weights:
    # (1+x)^(w2/p2) * c * (1+2x)^-2 * (1+x)^(-w1/p1)
    kernel = (1.0 + 2.0 * x) ** -2.0
    cases = (
        (KernelSpec(kappa=2.0), SpaceSpec.h(-1.0), SpaceSpec.h(0.0), kernel * (1.0 + x)),
        (KernelSpec(kappa=2.0, c_upper=0.5), SpaceSpec.h(0.0),
         SpaceSpec.h(0.0), 0.5 * kernel),
        (KernelSpec(kappa=2.0), SpaceSpec.hsp(-0.5, 4.0), SpaceSpec.hps(3.0, 0.5),
         (1.0 + x) ** (1 / 3) * kernel * (1.0 + x) ** 0.5),
    )
    for k, source, target, expected in cases:
        op = assemble(k, source, target, grid)
        assert full_matrix(op)[3, 3] == pytest.approx(expected, rel=1e-15)


def test_assemble_peak_memory():
    # at most the scaled matrix and the operator's frozen copy of it are
    # alive at once; the finiteness check is a sum, with no n x n mask
    grid = build_grid(640.0, 82, 1.3, 8)
    n = grid.size
    tracemalloc.start()
    try:
        assemble(KernelSpec(kappa=1.5), SpaceSpec.hps(4.0, -0.5), SpaceSpec.hps(2.0, 0.25), grid)
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
        assemble(KernelSpec(kappa=1.5), SpaceSpec.hps(4.0, -0.5), SpaceSpec.hps(2.0, 0.25), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * n * n * 8


# the scratch of one assembly block: kernel_eval's result, a modulation's
# factor and numpy's two buffers for the broadcast 1+|x|+|y| (as large as
# the block at this size), beside the core, plus a few O(n) vectors
BLOCK_BYTES = 8 * _BLOCK_ENTRIES


def test_assemble_full_path_peak_memory():
    # altmod is not even, so the full K is assembled: the core is the one
    # n x n array, and the scratch is one block's
    grid = build_grid(640.0, 82, 1.3, 8)
    n = grid.size
    assert n == 1312
    tracemalloc.start()
    try:
        op = assemble(KernelSpec(kappa=1.5, modulation="alternating"),
                      SpaceSpec.hps(4.0, -0.5), SpaceSpec.hps(2.0, 0.25), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not op.mirrored and op.core.nbytes == n * n * 8
    assert peak <= op.core.nbytes + 4 * BLOCK_BYTES + 4 * n * 8


@pytest.mark.parametrize("kernel, blocks", [
    (KernelSpec(kappa=1.5), 3),
    (KernelSpec(kappa=1.5, modulation="cosine", omega=1.5), 4),
    (KernelSpec(kappa=1.5, modulation="alternating"), 4),
], ids=["envelope", "cosmod", "altmod"])
def test_assemble_allocates_one_block(kernel, blocks):
    # kernel_eval returns one fresh block of values, a modulation adds one
    # scratch factor of the same size, and numpy buffers both broadcast
    # operands of 1+|x|+|y|: 3 or 4 blocks beside the core, which is the
    # quadrant for the even kernels and the full K for altmod.  The
    # scalings and the bound on the entries are O(n)
    grid = build_grid(640.0, 50, 1.3, 8)
    assert grid.size == 800
    tracemalloc.start()
    try:
        op = assemble(kernel, SpaceSpec.hps(4.0, -0.5), SpaceSpec.hps(2.0, 0.25), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.mirrored == kernel.even
    assert peak <= op.core.nbytes + blocks * BLOCK_BYTES + 4 * grid.size * 8


def test_assemble_nonnegative_for_pure_envelope():
    grid = build_grid(20.0, 6, 1.3, 6)
    op = assemble(KernelSpec(kappa=1.5), SpaceSpec.h(-1.0), SpaceSpec.h(-0.5), grid)
    assert np.all(full_matrix(op) >= 0)


def test_assemble_sign_changing_for_modulated():
    grid = build_grid(20.0, 6, 1.3, 6)
    op = assemble(KernelSpec(kappa=1.5, modulation="cosine", omega=2.0),
                  SpaceSpec.h(-1.0), SpaceSpec.h(-0.5), grid)
    assert np.any(full_matrix(op) < 0)


def test_assemble_overflow_names_entry():
    grid = build_grid(1e4, 10, 1.5, 4)
    with pytest.raises(NumericalError, match=r"\(\d+, \d+\)"):
        assemble(KernelSpec(kappa=-400.0), SpaceSpec.h(0.0), SpaceSpec.h(0.0), grid)


def test_assemble_names_an_entry_whose_product_overflows():
    # r ~ c ~ 1e200 at the outer nodes and K is finite everywhere, but
    # r_i K_ij c_j is not: the entry named is one of the test's own matrix
    grid = build_grid(1e4, 10, 1.5, 4)
    kernel, source, target = KernelSpec(kappa=0.5), SpaceSpec.h(-50.0), SpaceSpec.h(50.0)
    with np.errstate(over="ignore"):
        dense = direct_matrix(kernel, source, target, grid)
    assert np.all(np.isfinite(kernel_matrix(kernel, grid))) and not np.all(np.isfinite(dense))
    with pytest.raises(NumericalError, match=r"non-finite operator entry") as info:
        assemble(kernel, source, target, grid)
    i, j = map(int, info.value.args[0].split("(")[1].rstrip(")").split(", "))
    assert not np.isfinite(dense[i, j])


def test_assemble_accepts_finite_entries_under_an_overflowing_bound():
    # max r * max K * max c overflows, but the largest K sits where r and c
    # are small: every entry is finite, and the scan that follows says so
    grid = build_grid(1e4, 10, 1.5, 4)
    op = assemble(KernelSpec(kappa=30.0), SpaceSpec.h(-50.0), SpaceSpec.h(50.0), grid)
    with np.errstate(over="ignore"):
        assert not np.isfinite(op.rows.max() * op.core.max() * op.cols.max())
    assert np.all(np.isfinite(full_matrix(op)))


def two_entry_matrix(value: float) -> np.ndarray:
    # a 4 x 4 matrix for pair_grid() whose first row starts with two ``value``s
    matrix = np.zeros((4, 4))
    matrix[0, :2] = value
    return matrix


def unit_operator(core, source, target, grid, nonnegative) -> DiscretizedOperator:
    # ``core`` between unit scalings: the operator's matrix is ``core`` itself
    ones = np.ones(core.shape[0])
    return DiscretizedOperator(core, ones, ones, source, target, grid, nonnegative)


def test_finite_entries_with_overflowing_sum_accepted():
    # the entries are finite, their sum is not: the one-pass check rescans them
    estimate = matrix_pq_norm(two_entry_matrix(1e308), 2.0, 2.0)
    assert estimate.value == pytest.approx(np.sqrt(2.0) * 1e308, rel=1e-15)


def test_constructor_rejects_shape_mismatch():
    # a square core of the grid's size or half of it, scalings of its side
    space = SpaceSpec.h(0.0)
    grid = NESTED[0]
    quadrant = assemble(KernelSpec(kappa=2.0), space, space, grid)
    assert quadrant.mirrored
    core, rows, cols = quadrant.core, quadrant.rows, quadrant.cols
    again = DiscretizedOperator(core, rows, cols, space, space, grid, True)
    assert again.mirrored and again.core is core and again.rows is rows
    assert not unit_operator(full_matrix(quadrant), space, space, grid, True).mirrored
    bad = (
        (core[:-1, :-1], rows[:-1], cols[:-1]),  # another size
        (full_matrix(quadrant)[:, :-1], np.ones(grid.size), np.ones(grid.size)),  # not square
        (np.ones(grid.size), np.ones(grid.size), np.ones(grid.size)),  # not 2-d
        (core, rows[:-1], cols), (core, rows, np.ones(grid.size)),  # scalings of another length
    )
    for args in bad:
        with pytest.raises(DomainError, match="needs a square core"):
            DiscretizedOperator(*args, space, space, grid, True)
    # an operator has one grid: a matrix between two grids fits neither
    rectangular = np.ones((grid.size, NESTED[1].size))
    for either in (grid, NESTED[1]):
        with pytest.raises(DomainError, match="needs a square core"):
            DiscretizedOperator(rectangular, np.ones(grid.size), np.ones(grid.size),
                                space, space, either, True)


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
    # a signed parent whose smallest block is nonnegative: cos(0.01 x y) turns
    # negative only past x y = 50 pi, and x y <= 100 at R = 10
    (KernelSpec(kappa=2.0, modulation="cosine", omega=0.01), SpaceSpec.h(-0.25),
     SpaceSpec.h(-0.25)),
])
def test_restrict_equals_assembly_on_nested_grid(kernel, source, target):
    full = assemble(kernel, source, target, NESTED[-1])
    for grid in NESTED:
        block = full.restrict(grid)
        assert block.grid is grid
        assert block.source_space == source and block.target_space == target
        own = assemble(kernel, source, target, grid)
        for name in ("core", "rows", "cols"):
            assert np.array_equal(getattr(block, name), getattr(own, name))
        assert np.array_equal(full_matrix(block), full_matrix(own))
        assert block.nonnegative == own.nonnegative and block.mirrored == own.mirrored


# large enough that the upper triangle takes several blocks and the lower
# one several strips, whose edges differ between the members of the family
WIDE = nested_grids((10.0, 40.0, 160.0), 24, 1.3, 8, extra_panels=2)


@pytest.mark.parametrize("kernel", [
    KernelSpec(kappa=1.5),
    KernelSpec(kappa=2.0, modulation="cosine", omega=1.5),
    KernelSpec(kappa=2.0, modulation="alternating"),
], ids=["envelope", "cosmod", "altmod"])
def test_restrict_keeps_core_and_scalings_bitwise_across_blocks(kernel):
    source, target = SpaceSpec.hsp(-0.5, 3.0), SpaceSpec.hps(1.5, -0.25)
    full = assemble(kernel, source, target, WIDE[-1])
    n = full.core.shape[0]
    assert n > _STRIP_ROWS and _BLOCK_ENTRIES // n < n // 4
    for grid in WIDE[:-1]:
        block, own = full.restrict(grid), assemble(kernel, source, target, grid)
        for name in ("core", "rows", "cols"):
            assert np.array_equal(getattr(block, name), getattr(own, name))


def test_restrict_is_a_read_only_view():
    full = assemble(KernelSpec(kappa=1.5), SpaceSpec.h(-0.25), SpaceSpec.h(-0.25), NESTED[-1])
    block = full.restrict(NESTED[0])
    for name in ("core", "rows", "cols"):
        assert np.shares_memory(getattr(block, name), getattr(full, name))
    for array in (block.core, block.rows, block.cols, block.matrix):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1.0


def test_restrict_rejects_grid_outside_the_family():
    full = assemble(KernelSpec(kappa=1.5), SpaceSpec.h(-0.25), SpaceSpec.h(-0.25), NESTED[1])
    other = build_grid(10.0, 6, 1.5, 4)  # same size as NESTED[0], other grading
    edges = NESTED[0].breakpoints.copy()
    edges[-2] = np.nextafter(edges[-2], 0.0)  # one interior edge moved by one ulp
    moved = Grid(edges, NESTED[0].panel_order)
    reordered = Grid(NESTED[0].breakpoints, 2)  # the same edges, another order
    assert other.size == moved.size == NESTED[0].size
    for grid in (other, moved, reordered, NESTED[2]):
        with pytest.raises(DomainError, match="panel edges or order"):
            full.restrict(grid)


# --- apply_operator ----------------------------------------------------------

def aligned_indicator_grid() -> Grid:
    # panel edge at 1 keeps the indicator jump out of every panel interior
    return nested_grids((1.0, 16.0), 6, 1.2, 8, extra_panels=6)[-1]


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


def test_singular_value_nonconvergence_raises(monkeypatch):
    # a small matrix raises too: no dense decomposition absorbs it
    for seed, shape, max_iter in ((5, (501, 502), 1), (5, (501, 502), 3), (6, (40, 40), 1)):
        matrix = np.random.default_rng(seed).normal(size=shape)
        monkeypatch.setattr(opnormlab.operators, "POWER_MAX_ITER", max_iter)
        with pytest.raises(ConvergenceError) as info:
            largest_singular_value(matrix)
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
    assert estimate.image is None  # no iterate reached a positive value


@pytest.mark.parametrize("call, message", [
    (lambda: matrix_pq_norm(np.ones(3), 2.0, 2.0), "need a non-empty 2-d matrix"),
    (lambda: largest_singular_value(np.zeros((0, 2))), "need a non-empty 2-d matrix"),
    (lambda: matrix_pq_norm(np.eye(2), 1.0, 2.0), "matrix norm exponents must lie in (1, inf)"),
], ids=["one-d", "empty", "p1-one"])
def test_matrix_norms_name_bad_input(call, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        call()


def test_no_public_callable_takes_a_stop_rule():
    # POWER_TOL and POWER_MAX_ITER are the one stop rule, which the power
    # method reads itself; no caller passes another, not even a private one.
    # A start and its image come only from a previous estimate, so no public
    # callable takes either (PqNormEstimate's ``image`` is not an init field)
    takes = []
    public = [(name, getattr(opnormlab, name)) for name in dir(opnormlab)
              if not name.startswith("_")]
    for name, obj in public + [("_power_method", _power_method)]:
        if not callable(obj):
            continue
        try:
            parameters = inspect.signature(obj).parameters
        except ValueError:  # an exception class with the builtin constructor
            assert issubclass(obj, Exception)
            continue
        refused = ("tol", "max_iter") + (("start", "image") if name != "_power_method" else ())
        takes += [(name, key) for key in refused if key in parameters]
    assert takes == []


def test_pq_norm_accepts_zero_tolerance_and_one_iteration(monkeypatch):
    monkeypatch.setattr(opnormlab.operators, "POWER_TOL", 0.0)
    monkeypatch.setattr(opnormlab.operators, "POWER_MAX_ITER", 1)
    estimate = matrix_pq_norm(np.eye(2), 2.0, 2.0)
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
        _power_method(np.array([[1e308]]), 2, 2, nonnegative=True, mirrored=True)


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
    np.ones(9), np.ones(16), np.ones((2, 4)),  # the core has 8 columns, the grid 16 nodes
    np.array([1.0, np.nan, 1.0]), np.array([1.0, np.inf]), np.zeros(6), None,
])
def test_operator_norm_rejects_a_bad_start(start):
    # a start comes only from a previous estimate, whose maximizer it pads:
    # too long, 2-d, not finite, zero or missing raises before any product
    grid = build_grid(4.0, 2, 1.3, 4)
    op = assemble(KernelSpec(kappa=2.0), SpaceSpec.h(-0.5), SpaceSpec.h(-0.5), grid)
    assert op.mirrored and op.core.shape == (8, 8)
    previous = PqNormEstimate(1.0, True, True, 1, start)
    with pytest.raises(DomainError, match="maximizer"):
        operator_norm_pq(op, previous)


def test_pq_norm_sign_changing_not_certified():
    rng = np.random.default_rng(9)
    matrix = rng.normal(size=(20, 20))
    estimate = matrix_pq_norm(matrix, 3.0, 1.5)
    assert not estimate.certified
    # still a valid lower bound on the (here unknown) true norm: positive
    assert estimate.value > 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_pq_norm_certified_value_reaches_a_column():
    # nonnegative, p1 < p2: from the all-ones start the power method settles at
    # 0.849 although ||A e1||_4 = 1.0000000025, and still calls that certified
    estimate = matrix_pq_norm([[1.0, 0.01], [0.01, 1.0]], 2.0, 4.0)
    assert not estimate.certified or estimate.value >= 1.0


def test_pq_norm_is_lower_bound_at_p2():
    # for p = 2 the true norm is computable: the estimate never exceeds it
    rng = np.random.default_rng(10)
    matrix = rng.normal(size=(25, 25))
    estimate = matrix_pq_norm(matrix, 2.0, 2.0)
    truth = float(np.linalg.svd(matrix, compute_uv=False)[0])
    assert estimate.value <= truth * (1 + 1e-10)


SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 6))
POSITIVE = st.floats(0.01, 100.0)
MATRICES = SHAPES.flatmap(lambda shape: arrays(float, shape, elements=POSITIVE))
# a positive matrix and an entrywise growth of it
GROWN = SHAPES.flatmap(lambda shape: st.tuples(
    arrays(float, shape, elements=POSITIVE), arrays(float, shape, elements=st.floats(0.0, 100.0))))
# p1 >= p2, where the power method on a positive matrix converges to the norm
EXPONENTS = st.tuples(st.floats(1.1, 8.0), st.floats(1.1, 8.0)).map(
    lambda pair: (max(pair), min(pair)))
# derandomized, so a run finds no new case; the one case known to fail is pinned below
PROPERTY = settings(deadline=None, max_examples=50, derandomize=True)


@PROPERTY
@given(MATRICES, EXPONENTS, st.floats(1e-3, 1e3))
def test_pq_norm_is_homogeneous(matrix, exponents, c):
    base, scaled = matrix_pq_norm(matrix, *exponents), matrix_pq_norm(c * matrix, *exponents)
    assert base.certified and scaled.certified
    assert scaled.value == pytest.approx(c * base.value, rel=1e-9, abs=0.0)


@PROPERTY
@given(MATRICES, EXPONENTS)
@example(np.array([[5.0, 0.125, 0.03125], [0.03125, 0.03125, 5.0]]), (1.5, 1.5)).xfail(
    reason="ROADMAP item 1: the primal iteration contracts slowly and stops 1.9e-9 "
           "below the norm, certified, although tol is 1e-10", raises=AssertionError)
def test_pq_norm_equals_the_dual_norm_of_the_transpose(matrix, exponents):
    # ||A||_{p1 -> p2} = ||A^T||_{q2 -> q1}, and q2 >= q1 as p1 >= p2
    p1, p2 = exponents
    primal = matrix_pq_norm(matrix, p1, p2)
    dual = matrix_pq_norm(matrix.T, conjugate_exponent(p2), conjugate_exponent(p1))
    assert primal.certified and dual.certified
    assert dual.value == pytest.approx(primal.value, rel=1e-9, abs=0.0)


@PROPERTY
@given(GROWN, EXPONENTS)
def test_pq_norm_grows_with_the_entries(matrices, exponents):
    matrix, growth = matrices
    small, large = matrix_pq_norm(matrix, *exponents), matrix_pq_norm(matrix + growth, *exponents)
    assert small.certified and large.certified
    assert large.value >= small.value * (1 - 1e-9)


SIGNED = SHAPES.flatmap(lambda shape: arrays(float, shape, elements=st.floats(-100.0, 100.0)))
# every exponent pair, p1 < p2 included
PAIRS = st.tuples(st.floats(1.1, 8.0), st.floats(1.1, 8.0))


@PROPERTY
@given(SIGNED, PAIRS)
def test_pq_norm_lies_below_both_holder_mixed_norms(matrix, exponents):
    # Hoelder on each row: ||A x||_p2 <= M(A) ||x||_p1, with M(A) the p2-norm
    # of the rows' q1-norms; on A^T as a map l^q2 -> l^q1, whose norm is the
    # same, M*(A^T) is the q1-norm of the columns' p2-norms.  Both hold for
    # signed entries and any exponents; the matrix is scaled by its largest
    # entry first, so no power underflows
    p1, p2 = exponents
    q1 = conjugate_exponent(p1)
    peak = float(np.abs(matrix).max()) or 1.0  # a zero matrix: norm and bounds are 0
    magnitude = np.abs(matrix) / peak
    rows = np.sum(np.sum(magnitude ** q1, axis=1) ** (p2 / q1)) ** (1.0 / p2)
    cols = np.sum(np.sum(magnitude ** p2, axis=0) ** (q1 / p2)) ** (1.0 / q1)
    bound = peak * min(rows, cols)
    assert matrix_pq_norm(matrix, p1, p2).value <= bound * (1.0 + 1e-12)


def schur_bound(matrix: np.ndarray, v: np.ndarray, p: float) -> float:
    # Schur's test: for A >= 0 and v > 0, Hoelder on each row with the weights
    # v gives ||A||_{p -> p} <= U(v) = max_j ((A^T (A v)^(p-1))_j / v_j^(p-1))^(1/p),
    # an upper bound at every positive v, equal to the norm at the maximizer
    return float(np.max(matrix.T @ (matrix @ v) ** (p - 1.0) / v ** (p - 1.0)) ** (1.0 / p))


# a positive matrix and a positive vector on its columns
WITH_VECTOR = SHAPES.flatmap(lambda shape: st.tuples(
    arrays(float, shape, elements=POSITIVE), arrays(float, shape[1], elements=POSITIVE)))


@PROPERTY
@given(WITH_VECTOR, st.floats(1.1, 8.0))
def test_pq_norm_lies_below_the_schur_bound(pair, p):
    matrix, v = pair
    estimate = matrix_pq_norm(matrix, p, p)
    for vector in (estimate.maximizer, v):
        assert estimate.value <= schur_bound(matrix, vector, p) * (1.0 + 1e-12)


# --- operator-level norms ----------------------------------------------------

def test_operator_norm_at_p2_is_the_largest_singular_value():
    grid = build_grid(40.0, 10, 1.3, 8)
    op = assemble(KernelSpec(kappa=2.0), SpaceSpec.h(-1.0), SpaceSpec.h(-1.0), grid)
    expected = float(np.linalg.svd(full_matrix(op), compute_uv=False)[0])
    assert operator_norm_pq(op).value == pytest.approx(expected, rel=1e-8)


def test_norm_scales_with_envelope_constant():
    grid = build_grid(40.0, 10, 1.3, 8)
    source, target = SpaceSpec.h(-1.0), SpaceSpec.h(-0.5)
    one = operator_norm_pq(assemble(KernelSpec(kappa=2.0), source, target, grid))
    two = operator_norm_pq(assemble(KernelSpec(kappa=2.0, c_upper=2.0),
                                    source, target, grid))
    assert two.value == pytest.approx(2.0 * one.value, rel=1e-12)


def test_monotone_truncation_nested_grids():
    base = build_grid(10.0, 12, 1.3, 8)
    bigger = nested_grids((10.0, 40.0), 12, 1.3, 8, extra_panels=2)[-1]
    source, target = SpaceSpec.hsp(-0.5, 4.0), SpaceSpec.hsp(-0.5, 4.0)
    k = KernelSpec(kappa=1.75)
    small = operator_norm_pq(assemble(k, source, target, base)).value
    large = operator_norm_pq(assemble(k, source, target, bigger)).value
    assert large >= small - 1e-10


def test_transpose_duality_at_p2():
    grid = build_grid(20.0, 8, 1.3, 8)
    op = assemble(KernelSpec(kappa=2.0), SpaceSpec.h(-1.0), SpaceSpec.h(-0.5), grid)
    assert largest_singular_value(full_matrix(op).T) == pytest.approx(
        largest_singular_value(full_matrix(op)), abs=1e-10)


# --- empirical ratios --------------------------------------------------------

def bare_kernel_image(k, f, target_grid):
    # (Kf) on the target nodes written out on the bare kernel over the full
    # grids, without an operator
    source_grid = f.grid
    return (kernel_eval(k, target_grid.nodes[:, None], source_grid.nodes[None, :])
            @ (source_grid.weights * f.values))


def bare_kernel_ratio(k, f, source, target):
    image = SampledFunction(f.grid, bare_kernel_image(k, f, f.grid))
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
@pytest.mark.parametrize("grid", [NESTED[-1], NESTED[0]], ids=["square", "small-square"])
def test_empirical_ratio_matches_the_bare_kernel(kernel, source, target, grid):
    op = assemble(kernel, source, target, grid)
    assert op.mirrored == kernel.even
    for spec in ("gauss(1)", "powerlaw(0.75)", "bump(3,2)"):
        f = sample_spec(grid, spec)
        expected = bare_kernel_ratio(kernel, f, source, target)
        assert empirical_ratio(op, f) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_empirical_ratio_below_norm():
    grid = build_grid(40.0, 10, 1.3, 8)
    source, target = SpaceSpec.h(-1.0), SpaceSpec.h(-1.0)
    op = assemble(KernelSpec(kappa=2.0), source, target, grid)
    norm = operator_norm_pq(op).value
    for spec in ("gauss(1)", "powerlaw(2)", "bump(3,1)"):
        f = sample_spec(grid, spec)
        assert empirical_ratio(op, f) <= norm * (1 + 1e-6)


def test_empirical_ratio_top_singular_vector_attains_norm():
    grid = build_grid(40.0, 10, 1.3, 8)
    source = target = SpaceSpec.h(-1.0)
    op = assemble(KernelSpec(kappa=2.0), source, target, grid)
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
    op = assemble(KernelSpec(kappa=2.0), source, target, grid)
    norm = operator_norm_pq(op).value
    f = sample_spec(grid, "bump(35,2)")  # mass far from the kernel's bulk
    assert empirical_ratio(op, f) < 0.9 * norm


def test_empirical_ratio_zero_function_rejected():
    grid = build_grid(10.0, 5, 1.3, 6)
    f = sample(grid, lambda x: np.zeros_like(x))
    op = assemble(KernelSpec(kappa=2.0), SpaceSpec.h(-1.0), SpaceSpec.h(-1.0), grid)
    with pytest.raises(DomainError, match="zero source norm"):
        empirical_ratio(op, f)


def test_empirical_ratio_requires_the_source_grid():
    op = assemble(KernelSpec(kappa=2.0), SpaceSpec.h(-1.0), SpaceSpec.h(-1.0), NESTED[0])
    with pytest.raises(DomainError, match="not sampled on the given grid"):
        empirical_ratio(op, sample_spec(NESTED[1], "gauss(1)"))


def test_empirical_ratio_rescales_an_overflowing_power_sum():
    # the image 2e200 is finite, its fourth power is not; ||1|| = 2 on four
    # unit weights
    op = unit_operator(two_entry_matrix(1e200), SpaceSpec.h(0.0), SpaceSpec.hps(4.0, 0.0),
                       pair_grid(), True)
    f = sample(pair_grid(), np.ones(4))
    assert empirical_ratio(op, f) == pytest.approx(1e200, rel=1e-15)


def test_empirical_ratio_overflowing_image_is_a_numerical_error():
    # every entry and the source norm are finite, the image 2e308 is not
    op = unit_operator(two_entry_matrix(1e308), SpaceSpec.h(0.0), SpaceSpec.h(0.0),
                       pair_grid(), True)
    with pytest.raises(NumericalError, match="not finite"):
        empirical_ratio(op, sample(pair_grid(), np.ones(4)))


class _CallSites(ast.NodeVisitor):
    # counts calls to ``callee``, by name or as an attribute, per
    # (module, innermost enclosing function)
    def __init__(self, module: str, callee: str):
        self.module, self.callee = module, callee
        self.scope, self.sites = "<module>", collections.Counter()

    def visit_FunctionDef(self, node):
        outer, self.scope = self.scope, node.name
        self.generic_visit(node)
        self.scope = outer

    def visit_Call(self, node):
        if self.callee in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            self.sites[(self.module, self.scope)] += 1
        self.generic_visit(node)


def call_sites(callee: str) -> collections.Counter:
    # the calls to ``callee`` in every module of the package
    sites = collections.Counter()
    for path in Path(opnormlab.__file__).parent.glob("*.py"):
        calls = _CallSites(path.stem, callee)
        calls.visit(ast.parse(path.read_text(encoding="utf-8")))
        sites += calls.sites
    return sites


def test_kernel_eval_has_one_call_site_per_consumer():
    # every kernel-to-number path goes through assembly, the pointwise
    # application, the corner blocks or the envelope check; a second
    # assembly path would add a site here
    assert call_sites("kernel_eval") == {
        ("operators", "assemble"): 1,
        ("operators", "apply_operator"): 1,
        ("corner", "coupling_blocks"): 2,
    }


def test_operators_are_made_in_assemble_and_restrict_only():
    # one construction path: assemble builds an operator from the kernel,
    # restrict views one on a nested grid; each decides ``nonnegative``
    assert call_sites("DiscretizedOperator") == {
        ("operators", "assemble"): 1,
        ("operators", "restrict"): 1,
    }


def test_estimates_are_made_in_the_power_method_only():
    # one norm routine: the loop, the mirror factor and ``certified`` live in
    # _power_method, which alone builds an estimate and sets its image
    assert call_sites("PqNormEstimate") == {("operators", "_power_method"): 1}


# --- mirror symmetry ---------------------------------------------------------

def direct_scalings(source, target, grid):
    # r and c written out on the full grid, without assemble
    x, w = grid.nodes, grid.weights
    rows = w ** (1.0 / target.p) * (1.0 + np.abs(x)) ** (weight_exponent(target) / target.p)
    cols = (w ** (1.0 / conjugate_exponent(source.p))
            * (1.0 + np.abs(x)) ** (-weight_exponent(source) / source.p))
    return rows, cols


def direct_matrix(k, source, target, grid):
    # diag(r) K diag(c) written out on the full grid, without assemble
    rows, cols = direct_scalings(source, target, grid)
    return rows[:, None] * kernel_matrix(k, grid) * cols[None, :]


def full_matrix_norm(op):
    # the power method on the whole scaled matrix, formed by the test
    return matrix_pq_norm(full_matrix(op), op.source_space.p, op.target_space.p)


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


def test_criterion_6_norms_meet_the_schur_bound_at_their_maximizer():
    # the p1 = p2 operators of criterion 6: the value is a lower bound on the
    # norm, Schur's test at the maximizer's even extension an upper one, on
    # the full matrix the test forms itself; the two close to 1e-5
    grid = build_grid(640.0, 18, 1.3, 8)
    queries = [query for query in CRITERION_6 if query.p1 == query.p2]
    assert len(queries) == 7
    for query in queries:
        op = assemble(KernelSpec(kappa=query.kappa), *query_spaces(query), grid)
        estimate = operator_norm_pq(op)
        assert op.mirrored and estimate.certified
        v = np.concatenate([estimate.maximizer[::-1], estimate.maximizer])
        bound = schur_bound(full_matrix(op), v, query.p1)
        assert estimate.value <= bound * (1.0 + 1e-12)
        assert bound / estimate.value - 1.0 < 1e-5


@pytest.mark.parametrize("kernel, exact", [(KernelSpec(kappa=2.5), True), (COSMOD, False)])
# the ids are those of the (source grid, target grid) pairs these cases once were
@pytest.mark.parametrize("grid", [NESTED[-1], NESTED[0]],
                         ids=["source_grid0-target_grid0", "source_grid1-target_grid1"])
def test_mirrored_assembly_equals_direct_formula(kernel, exact, grid):
    h = grid.size // 2
    for source, target in SPACE_PAIRS:
        op = assemble(kernel, source, target, grid)
        assert op.mirrored
        assert not op.matrix.flags.writeable
        # the core is bare K on the quadrant, the scalings r and c on the half line
        assert np.array_equal(op.core, kernel_matrix(kernel, grid)[h:, h:])
        rows, cols = direct_scalings(source, target, grid)
        assert np.array_equal(op.rows, rows[h:]) and np.array_equal(op.cols, cols[h:])
        expected = direct_matrix(kernel, source, target, grid)
        if exact:
            assert np.array_equal(full_matrix(op), expected)
        else:
            error = np.max(np.abs(full_matrix(op) - expected))
            assert error <= 1e-15 * np.max(np.abs(expected))


def test_mirrored_matrix_built_on_first_read():
    op = assemble(KernelSpec(kappa=2.5), *SPACE_PAIRS[4], NESTED[1])
    assert op.mirrored
    assert op.core.shape == (NESTED[1].size // 2, NESTED[1].size // 2)
    assert "matrix" not in vars(op)
    first = op.matrix
    assert op.matrix is first
    assert first.shape == (NESTED[1].size, NESTED[1].size)
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 1.0
    assert np.array_equal(first, full_matrix(op))
    assert np.array_equal(first, first[::-1, ::-1])


@pytest.mark.parametrize("kernel", [KernelSpec(kappa=2.5), COSMOD])
def test_mirrored_norm_matches_full_matrix_run(kernel):
    for source, target in SPACE_PAIRS:
        for grid in (NESTED[-1], NESTED[0]):
            op = assemble(kernel, source, target, grid)
            got, want = operator_norm_pq(op), full_matrix_norm(op)
            assert got.value == pytest.approx(want.value, rel=1e-14, abs=0.0)
            assert (got.iterations, got.converged, got.certified) == (
                want.iterations, want.converged, want.certified)


def test_mirrored_restriction_keeps_the_quadrant_path():
    source, target = SPACE_PAIRS[7]  # hps 2 -> 4
    full = assemble(KernelSpec(kappa=2.0), source, target, NESTED[-1])
    for grid in NESTED:
        block = full.restrict(grid)
        assert block.mirrored
        assert block.core.shape == (grid.size // 2, grid.size // 2)
        assert np.shares_memory(block.core, full.core)
        assert not block.core.flags.writeable and not block.matrix.flags.writeable
        got, want = operator_norm_pq(block), full_matrix_norm(block)
        assert got.value == pytest.approx(want.value, rel=1e-14, abs=0.0)
        assert got.iterations == want.iterations


ALTMOD = KernelSpec(kappa=2.0, modulation="alternating")


@pytest.mark.parametrize("kernel, grid", [
    (ALTMOD, NESTED[1]),
    (ALTMOD, pair_grid()),
    (KernelSpec(kappa=1.5, c_upper=0.5, modulation="alternating"),
     Grid([0.0, 0.5, 1.0, 2.0, 4.0], 5)),
    (KernelSpec(kappa=3.0, modulation="alternating"), build_grid(7.0, 5, 1.7, 3)),
])
def test_full_path_when_not_mirror_symmetric(kernel, grid):
    # the alternating modulation is not even: its core is the full matrix
    source, target = SpaceSpec.hsp(-0.5, 3.0), SpaceSpec.hsp(-0.25, 1.5)
    op = assemble(kernel, source, target, grid)
    assert not op.mirrored and op.core.shape == (grid.size, grid.size)
    assert np.array_equal(op.core, kernel_matrix(kernel, grid))
    assert np.array_equal(op.matrix, full_matrix(op))
    assert np.array_equal(full_matrix(op), direct_matrix(kernel, source, target, grid))


@pytest.mark.parametrize("kernel", [KernelSpec(kappa=2.5), COSMOD, ALTMOD],
                         ids=["envelope", "cosmod", "altmod"])
def test_core_is_the_exactly_symmetric_bare_kernel(kernel):
    # K(x, y) = K(y, x) for every kernel: the lower triangle is a copy of the upper
    grid = WIDE[-1]
    op = assemble(kernel, *SPACE_PAIRS[4], grid)
    assert op.mirrored == kernel.even
    assert np.array_equal(op.core, op.core.T)
    h = grid.size // 2 if kernel.even else 0
    assert np.array_equal(op.core, kernel_matrix(kernel, grid)[h:, h:])
    # set at assembly, from the one pass over K; an unmodulated kernel is positive
    assert op.nonnegative is (kernel.modulation == "none")


@pytest.mark.parametrize("kernel", [KernelSpec(kappa=2.5), COSMOD, ALTMOD],
                         ids=["mirrored-envelope", "mirrored-cosmod", "full-altmod"])
def test_both_products_match_the_dense_scaled_core(kernel):
    # r * (K (c * v)) and c * (K^T (r * u)) against diag(r) K diag(c) formed
    # from the test's own scalings and kernel values
    grid = WIDE[-1]
    h = grid.size // 2 if kernel.even else 0
    rng = np.random.default_rng(7)
    for source, target in SPACE_PAIRS:
        op = assemble(kernel, source, target, grid)
        rows, cols = direct_scalings(source, target, grid)
        dense = rows[h:, None] * kernel_matrix(kernel, grid)[h:, h:] * cols[None, h:]
        v, u = rng.uniform(0.5, 1.5, size=(2, op.core.shape[0]))
        assert relative_gap(_apply(op.core, op.rows, op.cols, v), dense @ v) <= 1e-14
        assert relative_gap(_apply(op.core.T, op.cols, op.rows, u), dense.T @ u) <= 1e-14


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
def test_power_method_one_norm_per_iteration_is_bitwise(monkeypatch, p1, p2):
    rng = np.random.default_rng(41)
    for shape in ((30, 40), (64, 64)):
        for matrix in (rng.uniform(0.0, 1.0, size=shape), rng.normal(size=shape)):
            for max_iter in (7, POWER_MAX_ITER):
                monkeypatch.setattr(opnormlab.operators, "POWER_MAX_ITER", max_iter)
                estimate = _power_method(matrix, p1, p2, nonnegative=False)
                assert (estimate.value, estimate.converged, estimate.iterations,
                        estimate.last_change) == \
                    _power_method_two_norms(matrix, p1, p2, POWER_TOL, max_iter)


@pytest.mark.parametrize("kernel", [KernelSpec(kappa=2.0), COSMOD,
                                    KernelSpec(kappa=2.0, modulation="alternating")])
def test_zero_padded_maximizer_reaches_the_smaller_value_at_once(monkeypatch, kernel):
    # the smaller core is a block of the larger, so B_large [v; 0] holds B_small v
    source, target = SPACE_PAIRS[4]  # hsp 3 -> 2
    full = assemble(kernel, source, target, NESTED[-1])
    assert full.mirrored == kernel.even
    small = operator_norm_pq(full.restrict(NESTED[0]))
    v = small.maximizer
    assert np.sum(np.abs(v) ** source.p) == pytest.approx(1.0, rel=1e-14)
    start, _ = full._warm_start(small)
    assert start.size == full.core.shape[1] and np.count_nonzero(start) == np.count_nonzero(v)
    monkeypatch.setattr(opnormlab.operators, "POWER_TOL", 0.0)
    monkeypatch.setattr(opnormlab.operators, "POWER_MAX_ITER", 1)
    # with the padded image and without it
    first, first_without = operator_norm_pq(full, small), norm_of_core(full, start)
    assert first.iterations == first_without.iterations == 1
    for estimate in (first, first_without):
        assert estimate.value >= small.value * (1.0 - 1e-14)


def edge_family() -> tuple[Grid, Grid]:
    # pair_grid() as the centred slice of a grid with one more panel [2, 3]:
    # an altmod core is the full matrix, with new rows at both ends
    return pair_grid(), Grid([0.0, 2.0, 3.0], 2)


def relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def norm_of_core(op: DiscretizedOperator, start: np.ndarray, image=None) -> PqNormEstimate:
    # the run operator_norm_pq makes, from a start of the test's choosing
    return _power_method(op.core, op.source_space.p, op.target_space.p, op.nonnegative,
                         op.mirrored, start, image, op.rows, op.cols)


@pytest.mark.parametrize("kernel, small, large", [
    (KernelSpec(kappa=2.0), NESTED[0], NESTED[-1]),
    (COSMOD, NESTED[0], NESTED[-1]),
    (KernelSpec(kappa=2.0, modulation="alternating"), NESTED[0], NESTED[-1]),
    (ALTMOD, *edge_family()),
], ids=["envelope", "cosmod", "altmod", "altmod-edges"])
def test_padded_image_is_handed_to_the_power_method_as_core_times_start(
        monkeypatch, kernel, small, large):
    source, target = SPACE_PAIRS[4]  # hsp 3 -> 2
    full = assemble(kernel, source, target, large)
    assert full.mirrored == kernel.even
    block = full.restrict(small)
    estimate = operator_norm_pq(block)
    assert relative_gap(estimate.image, scaled_core(block) @ estimate.maximizer) <= 1e-14
    handed = []

    def recording(B, p1, p2, nonnegative, mirrored=False, start=None, image=None, rows=None,
                  cols=None):
        handed.append((B, mirrored, start, image, rows, cols))
        return _power_method(B, p1, p2, nonnegative, mirrored, start, image, rows, cols)

    monkeypatch.setattr(opnormlab.operators, "_power_method", recording)
    warm = operator_norm_pq(full, estimate)
    B, mirrored, start, image, rows, cols = handed[0]
    assert B is full.core and rows is full.rows and cols is full.cols
    assert mirrored == full.mirrored
    assert all(map(np.array_equal, (start, image), full._warm_start(estimate)))
    assert relative_gap(image, scaled_core(full) @ start) <= 1e-14
    without = norm_of_core(full, start)
    assert warm.iterations == without.iterations
    assert warm.value == pytest.approx(without.value, rel=1e-14, abs=0.0)
    # the image is scaled with the start: one iteration from 3 * start
    monkeypatch.setattr(opnormlab.operators, "POWER_TOL", 0.0)
    monkeypatch.setattr(opnormlab.operators, "POWER_MAX_ITER", 1)
    first, first_without = (norm_of_core(full, 3.0 * start, scaled)
                            for scaled in (3.0 * image, None))
    assert first.value == pytest.approx(first_without.value, rel=1e-14, abs=0.0)


def test_warm_start_of_a_zero_core_has_no_image():
    zero = KernelSpec(kappa=2.0, c_upper=0.0)
    full = assemble(zero, *SPACE_PAIRS[0], NESTED[-1])
    estimate = operator_norm_pq(full.restrict(NESTED[0]))
    assert (estimate.value, estimate.image) == (0.0, None)
    start, image = full._warm_start(estimate)
    assert image is None
    assert start.size == full.core.shape[1]
    assert np.array_equal(start[:estimate.maximizer.size], estimate.maximizer)
    assert not start[estimate.maximizer.size:].any()


def test_no_caller_hands_in_an_image():
    # an image that is not A @ start overstates the norm, so only the power
    # method's own run may hand one on
    op = assemble(KernelSpec(kappa=2.0), SpaceSpec.h(-0.5), SpaceSpec.h(-0.5),
                  build_grid(40.0, 10, 1.3, 8))
    ones = np.ones(op.core.shape[0])
    forged = norm_of_core(op, ones, 1e3 * ones)
    assert forged.certified and forged.value == pytest.approx(2000.0, rel=1e-12)
    with pytest.raises(TypeError):
        operator_norm_pq(op, start=ones, image=1e3 * ones)
    with pytest.raises(TypeError):
        PqNormEstimate(2000.0, True, True, 1, ones, image=1e3 * ones)
    # a hand-built previous estimate has no image: its maximizer is only a start
    cold = operator_norm_pq(op)
    assert cold.value == pytest.approx(0.8658, abs=5e-5)
    warm = operator_norm_pq(op, PqNormEstimate(2000.0, True, True, 1, ones))
    assert warm.value == pytest.approx(cold.value, rel=1e-9)


def test_restrict_passes_nonnegativity_down_and_rescans_otherwise():
    envelope = assemble(KernelSpec(kappa=2.0), *SPACE_PAIRS[0], NESTED[-1])
    assert envelope.restrict(NESTED[0]).nonnegative is True
    # a parent with a negative entry outside the block: the block is rescanned
    # and its norm is certified, the parent's is not
    core = full_matrix(envelope).copy()
    core[0, 0] = -core[0, 0]
    parent = unit_operator(core, *SPACE_PAIRS[0], NESTED[-1], False)
    block = parent.restrict(NESTED[0])
    assert not parent.nonnegative and block.nonnegative is True
    assert operator_norm_pq(block).certified and not operator_norm_pq(parent).certified
    # a parent said to be nonnegative hands that down unscanned: restrict
    # trusts the value its parent was made with
    assert unit_operator(core, *SPACE_PAIRS[0], NESTED[-1], True).restrict(NESTED[-1]).nonnegative
