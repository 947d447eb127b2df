"""Kernel families, weight scaling and the majorant."""
import re

import numpy as np
import pytest
from scipy.integrate import quad

from opnormlab import (DivergenceError, DomainError, Grid, KernelSpec, SpaceSpec, assemble,
                       build_grid, integrate, kernel_eval,
                       majorant_integral, parse_kernel, tail_bound)

from _dense import full_matrix, kernel_matrix


def test_kernel_eval_values():
    k = KernelSpec(kappa=2.0)
    assert kernel_eval(k, 0.0, 0.0) == 1.0
    assert kernel_eval(k, 1.0, 1.0) == pytest.approx(1.0 / 9.0, rel=1e-15)


def test_cosine_modulation_at_zero():
    k = KernelSpec(kappa=2.0, modulation="cosine", omega=7.3)
    y = np.array([0.5, 2.0, -3.0])
    assert np.allclose(kernel_eval(k, 0.0, y), (1.0 + np.abs(y)) ** -2.0, rtol=1e-15)


def test_alternating_modulation_changes_sign():
    k = KernelSpec(kappa=1.0, modulation="alternating")
    values = kernel_eval(k, 0.0, np.array([1.0, 4.0]))  # sin(1) > 0 > sin(4)
    assert values[0] > 0 > values[1]


def test_unmodulated_kernel_symmetric():
    k = KernelSpec(kappa=1.7, c_upper=2.5)
    rng = np.random.default_rng(1)
    x, y = rng.uniform(-50, 50, size=(2, 100))
    assert np.array_equal(kernel_eval(k, x, y), kernel_eval(k, y, x))


def written_out_kernel(k: KernelSpec, x, y) -> np.ndarray:
    # the kernel formula in plain numpy, one expression per modulation
    envelope = k.c_upper * (1.0 + np.abs(x) + np.abs(y)) ** (-k.kappa)
    if k.modulation == "cosine":
        return envelope * np.cos(k.omega * x * y)
    if k.modulation == "alternating":
        return envelope * np.sign(np.sin(x + y))
    return envelope


EVAL_SPECS = ["envelope(1.7)", "envelope(2.3,2.5)", "cosmod(1.3,1.9)", "altmod(0.8)"]


@pytest.mark.parametrize("spec", EVAL_SPECS)
def test_kernel_eval_is_bitwise_the_written_out_formula(spec):
    k = parse_kernel(spec)
    rng = np.random.default_rng(7)
    x, y = rng.uniform(-60.0, 60.0, size=(2, 50))
    # a scalar goes through the same ufunc loops as an array, so it equals the
    # formula on one-element arrays (numpy's scalar power may round differently)
    for xs, ys in zip(x[:10], y[:10]):
        value = kernel_eval(k, float(xs), float(ys))
        assert type(value) is float
        assert value == written_out_kernel(k, np.array([xs]), np.array([ys]))[0]
    assert np.array_equal(kernel_eval(k, float(x[0]), y), written_out_kernel(k, x[0], y))
    assert np.array_equal(kernel_eval(k, x[:, None], y[None, :]),
                          written_out_kernel(k, x[:, None], y[None, :]))


@pytest.mark.parametrize("spec", EVAL_SPECS)
def test_kernel_eval_reads_its_inputs_and_returns_a_fresh_array(spec):
    k = parse_kernel(spec)
    nodes = build_grid(20.0, 4, 1.3, 4).nodes  # read-only
    x, y = nodes[:, None], nodes[None, ::-1]
    before = nodes.copy()
    value = kernel_eval(k, x, y)
    assert np.array_equal(nodes, before)
    assert value.shape == (nodes.size, nodes.size) and value.flags.writeable
    assert not np.shares_memory(value, nodes)
    assert np.array_equal(value, written_out_kernel(k, x, y))
    row = kernel_eval(k, 0.5, nodes)
    assert row.flags.writeable and not np.shares_memory(row, nodes)
    assert np.array_equal(nodes, before)


def test_kernel_validation():
    with pytest.raises(DomainError):
        KernelSpec(kappa=float("nan"))
    for bad in (float("nan"), float("inf"), -1.0):  # a NaN must fail the check, not slip past it
        with pytest.raises(DomainError):
            KernelSpec(kappa=1.0, c_upper=bad)
    with pytest.raises(DomainError):
        KernelSpec(kappa=1.0, modulation="square")


@pytest.mark.parametrize("modulation", ["none", "alternating"])
def test_frequency_needs_cosine_modulation(modulation):
    # an omega that changes no value would still change equality and the echo
    for omega in (3.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="needs cosine modulation"):
            KernelSpec(2.0, modulation=modulation, omega=omega)
    assert KernelSpec(2.0, modulation=modulation, omega=0.0) == KernelSpec(
        2.0, modulation=modulation)
    assert parse_kernel("cosmod(2,0)") == KernelSpec(2.0, modulation="cosine", omega=0.0)


# --- space weights scaled into the assembled matrix ---------------------------
# On a unit-weight grid the quadrature factors are 1, so entry (i, j) is
# (1+|x_i|)^(w2/p2) * K(x_i, y_j) * (1+|y_j|)^(-w1/p1).

def unit_weight_grid(m: int) -> Grid:
    # m panels of width 2 on each side, two Gauss nodes of weight 1 on each
    grid = Grid(np.arange(0.0, 2 * m + 1, 2.0), 2)
    assert np.array_equal(grid.weights, np.ones(4 * m))
    return grid


def scaled_entries(x_power: float, y_power: float, k: KernelSpec, grid: Grid) -> np.ndarray:
    x, y = grid.nodes[:, None], grid.nodes[None, :]
    return ((1 + np.abs(x)) ** x_power
            * k.c_upper * (1 + np.abs(x) + np.abs(y)) ** (-k.kappa)
            * (1 + np.abs(y)) ** y_power)


def test_flatten_weights_identity_at_s0():
    k = KernelSpec(kappa=2.0)
    grid = unit_weight_grid(4)
    space = SpaceSpec.h(0.0)
    op = assemble(k, space, space, grid)
    assert np.array_equal(full_matrix(op), kernel_matrix(k, grid))


def test_flatten_weights_classic_exponents():
    k = KernelSpec(kappa=2.0)
    grid = unit_weight_grid(4)
    op = assemble(k, SpaceSpec.h(-1.0), SpaceSpec.h(0.5), grid)
    # target exponent s2 = 0.5, source exponent -s1 = 1
    assert np.allclose(full_matrix(op), scaled_entries(0.5, 1.0, k, grid), rtol=1e-15, atol=0)


def test_flatten_weights_fixed_weight_source():
    k = KernelSpec(kappa=2.0)
    grid = unit_weight_grid(4)
    space = SpaceSpec.hps(4.0, -1.0)
    op = assemble(k, space, space, grid)
    # target exponent 2*s2/p2 = -0.5, source exponent -2*s1/p1 = 0.5
    assert np.allclose(full_matrix(op), scaled_entries(-0.5, 0.5, k, grid), rtol=1e-15, atol=0)


def test_flatten_weights_pointwise_product():
    rng = np.random.default_rng(2)
    k = KernelSpec(kappa=1.3, c_upper=0.7)
    source = SpaceSpec.hsp(-0.8, 3.0)
    target = SpaceSpec.hps(2.5, 0.4)
    grid = Grid(np.concatenate([[0.0], np.cumsum(rng.uniform(1, 20, 10))]), 3)
    op = assemble(k, source, target, grid)
    # rows: w^(1/p2) (1+|x|)^(2*s2/p2); columns: w^(1/q1) (1+|y|)^(-s1)
    rows = grid.weights ** (1 / 2.5) * (1 + np.abs(grid.nodes)) ** (0.8 / 2.5)
    cols = grid.weights ** (2 / 3) * (1 + np.abs(grid.nodes)) ** 0.8
    x, y = grid.nodes[:, None], grid.nodes[None, :]
    expected = rows[:, None] * 0.7 * (1 + np.abs(x) + np.abs(y)) ** (-1.3) * cols[None, :]
    assert np.allclose(full_matrix(op), expected, rtol=1e-14, atol=0)


# --- majorant integral -------------------------------------------------------

def test_majorant_values():
    assert majorant_integral(0.0, 2.0) == pytest.approx(2.0, rel=1e-15)
    assert majorant_integral(1.0, 2.0) == pytest.approx(1.0, rel=1e-15)
    assert majorant_integral(0.0, 3.0) == pytest.approx(1.0, rel=1e-15)


def test_majorant_divergence():
    with pytest.raises(DivergenceError):
        majorant_integral(0.0, 1.0)
    with pytest.raises(DivergenceError):
        majorant_integral(2.0, 0.5)


@pytest.mark.parametrize("x", [0.0, 1.0, 10.0, 100.0])
@pytest.mark.parametrize("a", [1.1, 1.5, 2.0, 3.5, 5.0])
def test_majorant_against_adaptive_quadrature(x, a):
    got = majorant_integral(x, a)
    # pure relative tolerance: the integrand magnitude varies over 9 decades
    half, _ = quad(lambda y: (1.0 + x + y) ** -a, 0.0, np.inf,
                   epsabs=0.0, epsrel=1e-11, limit=200)
    assert got == pytest.approx(2.0 * half, rel=1e-8)


def test_majorant_truncated_matches_grid_quadrature():
    grid = build_grid(1e4, 40, 1.3, 8)
    for x in (0.0, 10.0):
        for a in (1.1, 2.0, 4.0):
            got = majorant_integral(x, a, R=1e4)
            quadrature = integrate(grid, lambda y: (1.0 + x + np.abs(y)) ** -a)
            assert got == pytest.approx(quadrature, rel=1e-9)


# --- tail bound --------------------------------------------------------------

def test_tail_bound_value():
    # classic source with s1 = -1, kappa = 3: dual exponent a = 2*(kappa+s1) = 4
    bound = tail_bound(KernelSpec(kappa=3.0), SpaceSpec.h(-1.0), R=10.0)
    assert bound == pytest.approx(2.0 * 11.0 ** -3.0 / 3.0, rel=1e-15)


def test_tail_bound_shrinks_by_eight_asymptotically():
    k = KernelSpec(kappa=3.0)
    space = SpaceSpec.h(-1.0)
    R = 1e4
    ratio = tail_bound(k, space, R) / tail_bound(k, space, 2 * R)
    assert ratio == pytest.approx(8.0, rel=1e-3)


def test_tail_bound_divergence():
    with pytest.raises(DivergenceError):
        tail_bound(KernelSpec(kappa=1.5), SpaceSpec.h(-1.0), R=10.0)  # a = 1


def test_tail_bound_fixed_weight_family():
    # hps source: a1 = 2s/p = -0.5, q1 = 4/3, a = (4/3)*(2.5 - 0.5) = 8/3
    bound = tail_bound(KernelSpec(kappa=2.5), SpaceSpec.hps(4.0, -1.0), R=10.0)
    a = (4.0 / 3.0) * 2.0
    assert bound == pytest.approx(2.0 * 11.0 ** (1 - a) / (a - 1), rel=1e-12)


# --- parsing -----------------------------------------------------------------

def test_parse_kernel():
    assert parse_kernel("envelope(2)") == KernelSpec(kappa=2.0)
    assert parse_kernel("envelope(2,0.5)") == KernelSpec(2.0, c_upper=0.5)
    assert parse_kernel("cosmod(2,3)") == KernelSpec(2.0, modulation="cosine", omega=3.0)
    assert parse_kernel("altmod(1.5)") == KernelSpec(1.5, modulation="alternating")
    for bad in ("envelope()", "cosmod(2)", "box(1)"):
        with pytest.raises(DomainError):
            parse_kernel(bad)


@pytest.mark.parametrize("spec, message", [
    ("envelope", "cannot parse 'envelope'; expected name(arg,...)"),
    ("cosmod(2,inf)", "cosine modulation needs a finite frequency"),
], ids=["no-call", "cosmod-omega-inf"])
def test_parse_kernel_names_what_is_wrong(spec, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        parse_kernel(spec)
