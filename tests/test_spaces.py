"""Weighted-space norms against antiderivative oracles, plus norm axioms."""
import math
import warnings

import numpy as np
import pytest

from opnormlab import (DomainError, NumericalError, SampledFunction, SpaceSpec,
                       build_grid, conjugate_exponent, function_from_spec, gauss,
                       parse_space, sample, sample_spec, weight_exponent,
                       weighted_norm)

BIG_GRID = build_grid(1e4, 40, 1.3, 8)


def test_conjugate_exponent_values():
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(4.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert conjugate_exponent(1.5) == pytest.approx(3.0, rel=1e-15)


@pytest.mark.parametrize("p", [1.0, 0.5, -2.0, float("inf")])
def test_conjugate_exponent_domain(p):
    with pytest.raises(DomainError):
        conjugate_exponent(p)


def test_weight_exponents():
    assert weight_exponent(SpaceSpec.hsp(-0.5, 4.0)) == -2.0
    assert weight_exponent(SpaceSpec.hps(4.0, -0.5)) == -1.0
    assert weight_exponent(SpaceSpec.h(-0.25)) == -0.5


def test_classic_family_fixes_p():
    with pytest.raises(DomainError):
        SpaceSpec("h", -1.0, 3.0)


# --- weighted norms against the antiderivative oracle -----------------------
# For f = (1+|x|)^(-t): |f|^p (1+|x|)^w = (1+|x|)^(w - p t); the oracle is
# 2 * integral over (0, inf) of (1+u)^(-a) du = 2/(a-1).

def test_norm_powerlaw_classic():
    f = sample_spec(BIG_GRID, "powerlaw(1)")
    got = weighted_norm(f, SpaceSpec.h(-1.0))
    assert got == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-8)


def test_norm_powerlaw_scaled_weight():
    f = sample_spec(BIG_GRID, "powerlaw(1)")
    got = weighted_norm(f, SpaceSpec.hsp(-1.0, 4.0))
    assert got == pytest.approx((2.0 / 7.0) ** 0.25, rel=1e-8)


def test_norm_powerlaw_fixed_weight():
    f = sample_spec(BIG_GRID, "powerlaw(1)")
    got = weighted_norm(f, SpaceSpec.hps(4.0, -1.0))
    assert got == pytest.approx((2.0 / 5.0) ** 0.25, rel=1e-8)


def test_norm_indicator_unweighted():
    # panel edge at 1 so the jump never lands inside a panel
    from opnormlab import extend_grid
    grid = extend_grid(build_grid(1.0, 4, 1.3, 8), 16.0, extra_panels=4)
    f = sample_spec(grid, "indicator(0,1)")
    assert weighted_norm(f, SpaceSpec.h(0.0)) == pytest.approx(1.0, rel=1e-12)


def test_norm_zero_iff_zero():
    grid = build_grid(10.0, 8, 1.3, 6)
    zero = sample(grid, lambda x: np.zeros_like(x))
    assert weighted_norm(zero, SpaceSpec.h(-0.5)) == 0.0
    one_node = np.zeros(grid.size)
    one_node[3] = 1e-3
    assert weighted_norm(SampledFunction(grid, one_node), SpaceSpec.h(-0.5)) > 0.0


def test_norm_equivalence_at_p2():
    rng = np.random.default_rng(7)
    grid = build_grid(100.0, 15, 1.3, 8)
    for s in (-1.5, -0.25, 0.5):
        f = sample(grid, lambda x: rng.normal(size=x.shape))
        norms = [weighted_norm(f, space) for space in
                 (SpaceSpec.h(s), SpaceSpec.hsp(s, 2.0), SpaceSpec.hps(2.0, s))]
        assert norms[0] == pytest.approx(norms[1], rel=1e-12)
        assert norms[0] == pytest.approx(norms[2], rel=1e-12)


def test_homogeneity_and_triangle():
    rng = np.random.default_rng(11)
    grid = build_grid(50.0, 10, 1.3, 6)
    space = SpaceSpec.hsp(-0.7, 3.0)
    for _ in range(25):
        f_vals = rng.normal(size=grid.size)
        g_vals = rng.normal(size=grid.size)
        c = float(rng.normal())
        f = SampledFunction(grid, f_vals)
        g = SampledFunction(grid, g_vals)
        fg = SampledFunction(grid, f_vals + g_vals)
        cf = SampledFunction(grid, c * f_vals)
        assert weighted_norm(cf, space) == pytest.approx(
            abs(c) * weighted_norm(f, space), rel=1e-12, abs=1e-300)
        assert (weighted_norm(fg, space)
                <= weighted_norm(f, space) + weighted_norm(g, space) + 1e-12)


# --- sampled functions and the mini-language --------------------------------

def test_sampled_function_validation():
    grid = build_grid(2.0, 2, 1.3, 4)
    with pytest.raises(DomainError):
        SampledFunction(grid, np.ones(grid.size + 1))
    bad = np.ones(grid.size)
    bad[0] = np.inf
    with pytest.raises(NumericalError):
        SampledFunction(grid, bad)


def test_function_specs():
    x = np.array([-2.0, 0.0, 0.5, 3.0])
    powerlaw = function_from_spec("powerlaw(2)")
    assert np.allclose(powerlaw(x), (1 + np.abs(x)) ** -2.0)
    ind = function_from_spec("indicator(0,1)")
    assert list(ind(x)) == [0.0, 1.0, 1.0, 0.0]
    half_line = function_from_spec("indicator(0,inf)")  # infinite endpoints stay allowed
    assert list(half_line(x)) == [0.0, 1.0, 1.0, 1.0]
    gauss = function_from_spec("gauss(2)")
    assert gauss(np.array([0.0]))[0] == 1.0
    bump = function_from_spec("bump(1,0.5)")
    vals = bump(np.array([1.0, 1.5, 2.0, 0.4]))
    assert vals[0] == 1.0 and vals[1] == 0.0 and vals[2] == 0.0 and vals[3] == 0.0


def test_function_spec_errors():
    for spec in ("powerlaw(1,2)", "nope(1)", "gauss(0)", "bump(0,-1)",
                 "indicator(2,1)", "powerlaw(x)",
                 # NaN arguments, which the builders' own checks let through
                 "indicator(nan,1)", "indicator(0,nan)", "bump(nan,1)", "powerlaw(nan)"):
        with pytest.raises(DomainError):
            function_from_spec(spec)


def test_gauss_width_range():
    # 2 sigma^2 must be a finite positive normal float: 1e154 overflows it,
    # 1e-154 makes it subnormal and 1e-300 makes it zero
    for sigma in (1e200, 1e154, 1e-154, 1e-300, float("inf"), float("nan")):
        with pytest.raises(DomainError, match="gauss width"):
            gauss(sigma)
    # an exponent that overflows gives the exact limit 0, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert list(gauss(1e-150)(np.array([0.0, 1e-140, 1e200]))) == [1.0, 0.0, 0.0]
        assert list(gauss(1e150)(np.array([0.0, 1e300]))) == [1.0, 0.0]


def test_parse_space():
    assert parse_space("H(-0.5)") == SpaceSpec.h(-0.5)
    assert parse_space("Hsp(-1,4)") == SpaceSpec.hsp(-1.0, 4.0)
    assert parse_space("Hps(4,-1)") == SpaceSpec.hps(4.0, -1.0)
    for bad in ("H(1,2)", "Hsp(1)", "X(1)"):
        with pytest.raises(DomainError):
            parse_space(bad)
