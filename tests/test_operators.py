"""Nystrom assembly and the norm estimators against dense oracles."""
import tracemalloc

import numpy as np
import pytest

from opnormlab import (ConvergenceError, DomainError, Grid, KernelSpec,
                       NumericalError, SpaceSpec, apply_operator,
                       apply_operator_samples, assemble, build_grid,
                       empirical_ratio, envelope_indicator_image, extend_grid,
                       largest_singular_value, matrix_pq_norm, operator_norm_22,
                       operator_norm_pq, sample, sample_spec)
from opnormlab.operators import POWER_TOL


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
    assert op.matrix.shape == (1, 1)
    assert op.matrix[0, 0] == pytest.approx(2.0 ** (1 / 4.0) * 1.0 * 2.0 ** (1 / q1),
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
        assert op.matrix[1, 1] == pytest.approx(expected, rel=1e-15)


def test_assemble_peak_memory():
    # at most the scaled matrix, the operator's frozen copy of it and a
    # boolean finiteness mask are alive at once
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


def test_assemble_nonnegative_for_pure_envelope():
    grid = build_grid(20.0, 6, 1.3, 6)
    op = assemble(KernelSpec(kappa=1.5), SpaceSpec.h(-1.0), SpaceSpec.h(-0.5),
                  grid, grid)
    assert np.all(op.matrix >= 0)


def test_assemble_sign_changing_for_modulated():
    grid = build_grid(20.0, 6, 1.3, 6)
    op = assemble(KernelSpec(kappa=1.5, modulation="cosine", omega=2.0),
                  SpaceSpec.h(-1.0), SpaceSpec.h(-0.5), grid, grid)
    assert np.any(op.matrix < 0)


def test_assemble_overflow_names_entry():
    grid = build_grid(1e4, 10, 1.5, 4)
    with pytest.raises(NumericalError, match=r"\(\d+, \d+\)"):
        assemble(KernelSpec(kappa=-400.0), SpaceSpec.h(0.0), SpaceSpec.h(0.0),
                 grid, grid)


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


def test_singular_value_nonconvergence_raises_beyond_fallback():
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(501, 502))
    for max_iter in (1, 3):
        with pytest.raises(ConvergenceError) as info:
            largest_singular_value(matrix, max_iter=max_iter)
        error = info.value
        assert error.iterations == max_iter
        # the change that failed the stop test
        assert error.last_delta > POWER_TOL * max(1.0, error.last_value)


def test_singular_value_fallback_small_matrix():
    rng = np.random.default_rng(6)
    matrix = rng.normal(size=(40, 40))
    got = largest_singular_value(matrix, max_iter=1)  # forces the dense fallback
    assert got == pytest.approx(np.linalg.svd(matrix, compute_uv=False)[0], rel=1e-12)


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

def test_operator_norm_22_requires_p2():
    grid = build_grid(10.0, 5, 1.3, 6)
    op = assemble(KernelSpec(kappa=2.0), SpaceSpec.hsp(-1.0, 3.0),
                  SpaceSpec.hsp(-1.0, 3.0), grid, grid)
    with pytest.raises(DomainError):
        operator_norm_22(op)


def test_operator_norms_agree_at_p2():
    grid = build_grid(40.0, 10, 1.3, 8)
    op = assemble(KernelSpec(kappa=2.0), SpaceSpec.h(-1.0), SpaceSpec.h(-1.0),
                  grid, grid)
    assert operator_norm_pq(op).value == pytest.approx(operator_norm_22(op), rel=1e-8)


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
    assert largest_singular_value(op.matrix.T) == pytest.approx(
        largest_singular_value(op.matrix), abs=1e-10)


# --- empirical ratios --------------------------------------------------------

def test_empirical_ratio_below_norm():
    grid = build_grid(40.0, 10, 1.3, 8)
    source, target = SpaceSpec.h(-1.0), SpaceSpec.h(-1.0)
    k = KernelSpec(kappa=2.0)
    norm = operator_norm_pq(assemble(k, source, target, grid, grid)).value
    for spec in ("gauss(1)", "powerlaw(2)", "bump(3,1)"):
        f = sample_spec(grid, spec)
        ratio = empirical_ratio(k, f, source, target, grid, grid)
        assert ratio <= norm * (1 + 1e-6)


def test_empirical_ratio_top_singular_vector_attains_norm():
    grid = build_grid(40.0, 10, 1.3, 8)
    source = target = SpaceSpec.h(-1.0)
    k = KernelSpec(kappa=2.0)
    op = assemble(k, source, target, grid, grid)
    _, sigma, vt = np.linalg.svd(op.matrix)
    # map the top right-singular vector back to function samples
    v = vt[0]
    w1 = -2.0  # weight exponent of the source space
    f_vals = v / (grid.weights ** 0.5 * (1 + np.abs(grid.nodes)) ** (w1 / 2.0))
    f = sample(grid, f_vals)
    ratio = empirical_ratio(k, f, source, target, grid, grid)
    assert ratio == pytest.approx(float(sigma[0]), rel=1e-8)


def test_empirical_ratio_far_field_function_is_suboptimal():
    grid = build_grid(40.0, 10, 1.3, 8)
    source = target = SpaceSpec.h(-1.0)
    k = KernelSpec(kappa=2.0)
    norm = operator_norm_pq(assemble(k, source, target, grid, grid)).value
    f = sample_spec(grid, "bump(35,2)")  # mass far from the kernel's bulk
    ratio = empirical_ratio(k, f, source, target, grid, grid)
    assert ratio < 0.9 * norm


def test_empirical_ratio_zero_function_rejected():
    grid = build_grid(10.0, 5, 1.3, 6)
    f = sample(grid, lambda x: np.zeros_like(x))
    with pytest.raises(DomainError):
        empirical_ratio(KernelSpec(kappa=2.0), f, SpaceSpec.h(-1.0),
                        SpaceSpec.h(-1.0), grid, grid)


def test_apply_operator_samples_matches_pointwise():
    grid = build_grid(10.0, 6, 1.3, 6)
    target = build_grid(10.0, 4, 1.3, 4)
    k = KernelSpec(kappa=1.5)
    f = sample_spec(grid, "gauss(2)")
    image = apply_operator_samples(k, f, grid, target)
    for i in (0, 7, target.size - 1):
        assert image.values[i] == pytest.approx(
            apply_operator(k, f, grid, float(target.nodes[i])), rel=1e-14)
