"""Graded-mesh construction, quadrature exactness and nesting."""
import numpy as np
import pytest

from opnormlab import (DomainError, NumericalError, build_grid, extend_grid,
                       grid_from_breakpoints, integrate, nested_grids, parse_grid)
from opnormlab.closed_forms import powerlaw_integral


def test_minimal_grid_structure():
    grid = build_grid(1.0, 1, 1.0, 2)
    assert grid.size == 4  # two nodes per side
    assert grid.panels_per_side == 1


def test_weights_integrate_constants_exactly():
    grid = build_grid(5.0, 7, 1.3, 6)
    assert integrate(grid, lambda x: np.ones_like(x)) == pytest.approx(10.0, rel=1e-12)


def test_odd_function_integrates_to_zero():
    grid = build_grid(50.0, 9, 1.4, 8)
    assert integrate(grid, lambda x: x) == pytest.approx(0.0, abs=1e-12 * 50)


def test_zero_integrand():
    grid = build_grid(2.0, 3, 1.3, 4)
    assert integrate(grid, lambda x: np.zeros_like(x)) == 0.0


def test_integrate_accepts_node_values():
    grid = build_grid(2.0, 3, 1.3, 4)
    values = np.ones(grid.size)
    assert integrate(grid, values) == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(DomainError):
        integrate(grid, values[:-1])


def test_powerlaw_quadrature_matches_antiderivative():
    grid = build_grid(1e4, 40, 1.3, 8)
    got = integrate(grid, lambda x: (1.0 + np.abs(x)) ** -2.0)
    exact = powerlaw_integral(2.0, R=1e4)  # 2*(1 - 1/(1+1e4))
    assert exact == pytest.approx(2.0 * (1.0 - 1.0 / (1.0 + 1e4)), rel=1e-15)
    assert got == pytest.approx(exact, rel=1e-10)


def test_powerlaw_quadrature_on_r100_grid():
    grid = build_grid(100.0, 20, 1.3, 8)
    got = integrate(grid, lambda x: (1.0 + np.abs(x)) ** -4.0)
    assert got == pytest.approx(powerlaw_integral(4.0, R=100.0), rel=1e-8)


def test_grid_invariants():
    grid = build_grid(30.0, 11, 1.25, 5)
    assert np.all(np.diff(grid.nodes) > 0)
    assert np.all(grid.weights > 0)
    assert np.sum(grid.weights) == pytest.approx(2 * grid.R, rel=1e-12)
    assert np.array_equal(grid.nodes, -grid.nodes[::-1])


@pytest.mark.parametrize("a", [2.0, 3.0, 4.0])
def test_refinement_convergence(a):
    # doubling panels_per_side reduces quadrature error monotonically
    exact = powerlaw_integral(a, R=1000.0)
    errors = []
    for panels in (1, 2, 4, 8):
        grid = build_grid(1000.0, panels, 1.0, 4)
        got = integrate(grid, lambda x: (1.0 + np.abs(x)) ** -a)
        errors.append(abs(got - exact))
    assert errors[0] > errors[1] > errors[2] > errors[3]


def test_extend_grid_nests_bitwise():
    base = build_grid(10.0, 12, 1.3, 8)
    bigger = extend_grid(base, 40.0, extra_panels=2)
    assert bigger.R == 40.0
    assert bigger.panels_per_side == 14
    inner = slice(bigger.size // 2 - base.size // 2, bigger.size // 2 + base.size // 2)
    assert np.array_equal(bigger.nodes[inner], base.nodes)
    assert np.array_equal(bigger.weights[inner], base.weights)


def test_nested_grids_family():
    schedule = (10.0, 40.0, 160.0, 640.0)
    grids = nested_grids(schedule, 12, 1.3, 8, extra_panels=2)
    assert [g.R for g in grids] == list(schedule)
    for small, large in zip(grids, grids[1:]):
        inner = slice(large.size // 2 - small.size // 2, large.size // 2 + small.size // 2)
        assert np.array_equal(large.nodes[inner], small.nodes)
        assert np.array_equal(large.weights[inner], small.weights)


def test_panel_rule_matches_per_panel_loop():
    # the eight radii of a long nested sweep, and two low orders
    families = [nested_grids([10.0 * 4.0 ** k for k in range(8)], 40, 1.3, 8, 6),
                nested_grids((1.0, 3.0), 3, 1.0, 2), [build_grid(7.0, 5, 1.7, 5)]]
    for grid in (g for family in families for g in family):
        ref_x, ref_w = np.polynomial.legendre.leggauss(grid.panel_order)
        nodes, weights = [], []
        for a, b in zip(grid.breakpoints[:-1], grid.breakpoints[1:]):
            half = (b - a) / 2.0
            nodes.append((a + b) / 2.0 + ref_x * half)
            weights.append(ref_w * half)
        positive = slice(grid.size // 2, None)
        assert np.array_equal(grid.nodes[positive], np.concatenate(nodes))
        assert np.array_equal(grid.weights[positive], np.concatenate(weights))


def test_extended_grid_still_accurate():
    grids = nested_grids((10.0, 40.0, 160.0, 640.0), 12, 1.3, 8)
    got = integrate(grids[-1], lambda x: (1.0 + np.abs(x)) ** -2.0)
    assert got == pytest.approx(powerlaw_integral(2.0, R=640.0), rel=1e-9)


def test_breakpoint_alignment_constructor():
    grid = grid_from_breakpoints([0.0, 0.5, 1.0, 2.0, 4.0], panel_order=6)
    assert grid.R == 4.0
    assert 1.0 in grid.breakpoints
    # indicator of [0, 1] is panel-aligned, so its weight sum is exact
    mask = (grid.nodes >= 0) & (grid.nodes <= 1)
    assert np.sum(grid.weights[mask]) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("bad", [
    lambda: build_grid(-1.0, 3, 1.3, 8),
    lambda: build_grid(5.0, 0, 1.3, 8),
    lambda: build_grid(5.0, 3, 0.9, 8),
    lambda: build_grid(5.0, 3, 1.3, 1),
    lambda: grid_from_breakpoints([0.5, 1.0]),
    lambda: grid_from_breakpoints([0.0, 1.0, 1.0]),
    lambda: extend_grid(build_grid(5.0, 3), 4.0),
])
def test_invalid_parameters_raise(bad):
    with pytest.raises(DomainError):
        bad()


def test_non_finite_integrand_raises():
    grid = build_grid(2.0, 3, 1.3, 4)
    with np.errstate(divide="ignore"), pytest.raises(NumericalError):
        integrate(grid, lambda x: 1.0 / (x - x))


def test_parse_grid():
    grid = parse_grid("grid(100,10,1.3,8)")
    assert grid.R == 100.0
    assert grid.panels_per_side == 10
    assert grid.panel_order == 8
    with pytest.raises(DomainError):
        parse_grid("grid(100,10)")
    with pytest.raises(DomainError):
        parse_grid("mesh(100,10,1.3,8)")
    with pytest.raises(DomainError):
        parse_grid("grid(100,10.5,1.3,8)")
