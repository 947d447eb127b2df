"""Graded-mesh construction, quadrature exactness and nesting."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnormlab import (DomainError, Grid, GridPolicy, NumericalError, build_grid, integrate,
                       nested_grids, parse_grid)
from opnormlab.closed_forms import powerlaw_integral
from opnormlab.grids import _reference_rule, nested_slice


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


def test_integrate_names_a_non_finite_node_as_a_plain_float():
    grid = build_grid(2.0, 3, 1.3, 4)
    values = np.ones(grid.size)
    values[1] = np.inf
    with pytest.raises(NumericalError) as err:
        integrate(grid, values)
    assert str(err.value) == f"non-finite integrand value at node {float(grid.nodes[1])!r}"


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


def test_nested_grid_extends_build_grid_bitwise():
    base = build_grid(10.0, 12, 1.3, 8)
    bigger = nested_grids((10.0, 40.0), 12, 1.3, 8, extra_panels=2)[-1]
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


def assert_bitwise_mirror(grid: Grid):
    h, odd = divmod(grid.size, 2)
    assert not odd
    assert np.array_equal(grid.nodes[:h], -grid.nodes[h:][::-1])
    assert np.array_equal(grid.weights, grid.weights[::-1])
    assert abs(float(np.sum(grid.weights)) - 2.0 * grid.R) <= 1e-12 * 2.0 * grid.R


ORDERS = st.integers(2, 8)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=12), ORDERS)
def test_every_grid_is_a_bitwise_mirror(widths, order):
    grid = Grid(np.concatenate([[0.0], np.cumsum(widths)]), order)
    assert grid.panels_per_side == len(widths)
    assert_bitwise_mirror(grid)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.floats(0.5, 100.0), st.lists(st.floats(1.05, 10.0), max_size=4),
       st.integers(1, 10), st.floats(1.0, 2.0), ORDERS, st.integers(1, 4))
def test_nested_members_are_centred_slices_of_the_largest(first, ratios, panels, grading,
                                                          order, extra):
    # nested_slice tests this guarantee by panel edges, and
    # DiscretizedOperator.restrict takes a member's block of the largest core
    # on it
    schedule = list(first * np.cumprod([1.0] + ratios))
    family = nested_grids(schedule, panels, grading, order, extra)
    largest = family[-1]
    assert [grid.R for grid in family] == schedule
    for grid in family:
        assert_bitwise_mirror(grid)
        start = (largest.size - grid.size) // 2
        block = slice(start, start + grid.size)
        assert nested_slice(largest, grid) == block
        assert np.array_equal(largest.nodes[block], grid.nodes)
        assert np.array_equal(largest.weights[block], grid.weights)
        assert np.array_equal(largest.breakpoints[:grid.breakpoints.size], grid.breakpoints)


@pytest.mark.parametrize("schedule, panels, grading, order, extra", [
    ((10.0, 40.0, 160.0, 640.0), 12, 1.3, 8, 2),
    (tuple(10.0 * 4.0 ** k for k in range(8)), 40, 1.3, 8, 6),
    ((0.5, 1.5, 4.5), 5, 1.0, 3, 1),
    ((7.0,), 5, 1.7, 5, 2),
])
def test_nested_grids_are_the_build_and_extend_chain_bitwise(schedule, panels, grading,
                                                             order, extra):
    def fill(lo, hi, m):
        # right edges of m geometric panels of ratio `grading` on (lo, hi]
        if grading == 1.0:
            first = (hi - lo) / m
        else:
            first = (hi - lo) * (grading - 1.0) / (grading ** m - 1.0)
        edges = lo + np.cumsum(first * grading ** np.arange(m))
        edges[-1] = hi
        return edges

    parts = [np.zeros(1), fill(0.0, schedule[0], panels)]
    parts += [fill(lo, hi, extra) for lo, hi in zip(schedule, schedule[1:])]
    family = nested_grids(schedule, panels, grading, order, extra)
    assert len(family) == len(schedule)
    for k, got in enumerate(family):
        want = Grid(np.concatenate(parts[:k + 2]), order)
        assert type(got.R) is float and got.R == schedule[k] == want.R
        assert got.panel_order == want.panel_order == order
        for name in ("nodes", "weights", "breakpoints"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
            assert not getattr(got, name).flags.writeable
    first = build_grid(schedule[0], panels, grading, order)
    for name in ("nodes", "weights", "breakpoints"):
        assert np.array_equal(getattr(family[0], name), getattr(first, name))


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


def test_reference_rule_is_built_once_per_order():
    for order in (2, 5, 8):
        nodes, weights = _reference_rule(order)
        assert _reference_rule(order)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable
        expected = np.polynomial.legendre.leggauss(order)
        assert np.array_equal(nodes, expected[0]) and np.array_equal(weights, expected[1])


def test_extended_grid_still_accurate():
    grids = nested_grids((10.0, 40.0, 160.0, 640.0), 12, 1.3, 8)
    got = integrate(grids[-1], lambda x: (1.0 + np.abs(x)) ** -2.0)
    assert got == pytest.approx(powerlaw_integral(2.0, R=640.0), rel=1e-9)


def test_breakpoint_alignment_constructor():
    grid = Grid([0.0, 0.5, 1.0, 2.0, 4.0], 6)
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
    lambda: Grid([0.5, 1.0]),
    lambda: Grid([0.0, 1.0, 1.0]),
    # a radius not above the one before it
    lambda: nested_grids((5.0, 4.0), 3),
    # grading ** panels overflows a float
    lambda: build_grid(10.0, 4, 1e300, 4),
    lambda: nested_grids((10.0, 20.0), 1, 1e300, 4),
    # counts and orders that are not whole numbers
    lambda: build_grid(10.0, 2.5, 1.3, 4),
    lambda: build_grid(10.0, 4, 1.3, 4.5),
    lambda: build_grid(10.0, float("inf"), 1.3, 4),
    lambda: build_grid(10.0, 4, 1.3, float("nan")),
    lambda: Grid([0.0, 1.0], 4.5),
    lambda: nested_grids((5.0, 10.0), 3, extra_panels=1.5),
    lambda: nested_grids((10.0, 40.0), 2.5, 1.3, 4),
    lambda: nested_grids((10.0, 40.0), 4, 1.3, 4, extra_panels=1.5),
    lambda: GridPolicy(panels_per_side=2.5).build((10.0, 40.0)),
    lambda: GridPolicy(panel_order=4.5).build((10.0, 40.0)),
    lambda: Grid(BASE.breakpoints, 2.5),
    # 2R overflows: rejected before any node is computed, without a numpy warning
    lambda: Grid([0.0, 1.0, float("inf")]),
    lambda: Grid([0.0, 1.0, 1.7e308]),
    lambda: build_grid(1.7976931348623157e308, 40, 1.0, 4),
])
def test_invalid_parameters_raise(bad):
    with pytest.raises(DomainError):
        bad()


def test_whole_float_counts_build_the_int_grid():
    want = build_grid(10.0, 4, 1.3, 4)
    got = build_grid(10.0, 4.0, 1.3, 4.0)
    assert type(got.panel_order) is int
    for name in ("nodes", "weights", "breakpoints"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_int_grading_builds_the_float_grading_grid():
    # a library caller may pass an int grading; powered as an int64, 3 ** 44 wraps
    for panels in (12, 45):
        want = nested_grids((10.0, 40.0), panels, 3.0, 8)
        got = nested_grids((10.0, 40.0), panels, 3, 8)
        for small, large in zip(got, want):
            for name in ("nodes", "weights", "breakpoints"):
                assert np.array_equal(getattr(small, name), getattr(large, name))


NAN, INF = float("nan"), float("inf")
BASE = build_grid(5.0, 3, 1.3, 4)


NON_FINITE_GRIDS = {
    "spec-grading-nan": lambda: parse_grid("grid(10,4,nan,4)"),
    "spec-grading-inf": lambda: parse_grid("grid(10,4,inf,4)"),
    "spec-panels-nan": lambda: parse_grid("grid(10,nan,1.3,4)"),
    "spec-panels-inf": lambda: parse_grid("grid(10,inf,1.3,4)"),
    "spec-order-nan": lambda: parse_grid("grid(10,4,1.3,nan)"),
    "build-grading-nan": lambda: build_grid(5.0, 3, NAN, 8),
    "first-edge-nan": lambda: Grid([NAN, 1.0]),
    "inner-edge-nan": lambda: Grid([0.0, NAN, 1.0]),
    "outer-edge-nan": lambda: Grid([0.0, 1.0, NAN]),
    # the radius and panel count of an annulus past the first radius
    "extend-radius-nan": lambda: nested_grids((5.0, NAN), 3),
    "extend-panels-nan": lambda: nested_grids((5.0, 10.0), 3, extra_panels=NAN),
    "grading-nan": lambda: nested_grids((5.0, 10.0), 3, NAN, 4),
    "grading-inf": lambda: build_grid(5.0, 3, INF, 4),
    "order-nan": lambda: Grid(BASE.breakpoints, NAN),
}


@pytest.mark.parametrize("bad", NON_FINITE_GRIDS.values(), ids=NON_FINITE_GRIDS.keys())
def test_nan_fails_every_grid_check(bad):
    # each check is a comparison that a NaN makes False, so it must be
    # written to fail rather than pass on NaN
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
