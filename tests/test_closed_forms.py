"""The closed-form oracle family against adaptive quadrature."""
import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import opnormlab.closed_forms
import opnormlab.kernels
from opnormlab import (DivergenceError, DomainError, KernelSpec, NumericalError, SpaceSpec,
                       envelope_indicator_image, majorant_exponent, majorant_integral,
                       powerlaw_integral, powerlaw_weighted_norm, tail_bound)


@pytest.mark.parametrize("a", [1.2, 2.0, 3.7])
def test_powerlaw_integral_whole_line(a):
    expected, _ = quad(lambda x: (1.0 + abs(x)) ** -a, -np.inf, np.inf)
    assert powerlaw_integral(a) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("a,R", [(1.0, 50.0), (0.5, 20.0), (2.5, 100.0)])
def test_powerlaw_integral_truncated(a, R):
    expected, _ = quad(lambda x: (1.0 + abs(x)) ** -a, -R, R)
    assert powerlaw_integral(a, R) == pytest.approx(expected, rel=1e-9)


def test_powerlaw_integral_divergence():
    with pytest.raises(DivergenceError):
        powerlaw_integral(1.0)
    with pytest.raises(DomainError):
        powerlaw_integral(2.0, R=-1.0)


def test_tail_plus_truncation_is_total():
    # with c_upper = 1 the tail bound is the tail of (1+|y|)^(-a) beyond R
    source, k, R = SpaceSpec.hsp(-0.5, 3.0), KernelSpec(kappa=2.0), 37.0
    a = majorant_exponent(source, k.kappa)
    total = powerlaw_integral(a)
    assert powerlaw_integral(a, R) + tail_bound(k, source, R) == pytest.approx(total, rel=1e-14)


def test_powerlaw_weighted_norm_values():
    assert powerlaw_weighted_norm(1.0, SpaceSpec.h(-1.0)) == pytest.approx(
        math.sqrt(2.0 / 3.0), rel=1e-15)
    assert powerlaw_weighted_norm(1.0, SpaceSpec.hsp(-1.0, 4.0)) == pytest.approx(
        (2.0 / 7.0) ** 0.25, rel=1e-15)
    assert powerlaw_weighted_norm(1.0, SpaceSpec.hps(4.0, -1.0)) == pytest.approx(
        (2.0 / 5.0) ** 0.25, rel=1e-15)


def test_powerlaw_weighted_norm_divergence():
    with pytest.raises(DivergenceError):
        powerlaw_weighted_norm(0.2, SpaceSpec.h(0.0))  # a = 0.4 <= 1


def test_indicator_image_values():
    assert envelope_indicator_image(2.0, 0.0) == pytest.approx(0.5, rel=1e-15)
    assert envelope_indicator_image(2.0, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-15)


@pytest.mark.parametrize("kappa,x", [(1.0, 0.0), (2.0, 5.0), (3.5, 0.7)])
def test_indicator_image_against_quadrature(kappa, x):
    expected, _ = quad(lambda y: (1.0 + abs(x) + y) ** -kappa, 0.0, 1.0)
    assert envelope_indicator_image(kappa, x) == pytest.approx(expected, rel=1e-10)


def test_indicator_image_validation():
    with pytest.raises(DomainError):
        envelope_indicator_image(2.0, 0.0, lo=-1.0)
    with pytest.raises(DomainError):
        envelope_indicator_image(2.0, 0.0, lo=2.0, hi=1.0)


# --- one antiderivative behind every closed form -----------------------------

def test_powerlaw_integral_is_the_majorant_at_the_origin():
    for a, R in ((0.5, 20.0), (1.0, 50.0), (2.5, 100.0), (3.0, None)):
        assert powerlaw_integral(a, R) == majorant_integral(0.0, a, R)


def test_log_branch_keeps_short_intervals_accurate():
    # the integral of 1/(1+y) over [0, h] is log1p(h); the quotient form
    # log((1+h)/1) loses every digit once h is below the float spacing at 1
    h = 1e-17
    assert powerlaw_integral(1.0, h) == 2.0 * h
    assert envelope_indicator_image(1.0, 0.0, lo=0.0, hi=h) == h
    assert majorant_integral(1e6, 1.0, 1.0) == pytest.approx(2.0 / (1e6 + 1.0), rel=1e-6)


def test_empty_indicator_interval_gives_zero():
    assert envelope_indicator_image(2.0, 0.5, lo=0.3, hi=0.3) == 0.0
    assert envelope_indicator_image(1.0, 0.5, lo=0.3, hi=0.3) == 0.0


def test_majorant_exponent_values():
    # h source: w1 = 2*s1, p1 = q1 = 2, so a = 2*(s1 + kappa)
    assert majorant_exponent(SpaceSpec.h(-1.0), 3.0) == 4.0
    assert majorant_exponent(SpaceSpec.hps(4.0, -1.0), 2.5) == pytest.approx(8.0 / 3.0)


def test_tail_bound_is_the_scaled_powerlaw_tail():
    source = SpaceSpec.hsp(-0.5, 3.0)
    k = KernelSpec(kappa=2.0, c_upper=0.5)
    a = majorant_exponent(source, 2.0)
    expected = 0.5 ** 1.5 * 2.0 * 11.0 ** (1.0 - a) / (a - 1.0)
    assert tail_bound(k, source, 10.0) == pytest.approx(expected, rel=1e-15)


def test_tail_bound_checks_the_inner_threshold_itself():
    # h source, s1 = -0.6: the inner threshold is 1/2 - s1 = 1.1, where the
    # dual exponent 2*(s1 + kappa) rounds to just above 1, so only the
    # threshold check refuses the kernel
    source, k = SpaceSpec.h(-0.6), KernelSpec(kappa=1.1)
    assert majorant_exponent(source, k.kappa) > 1.0
    with pytest.raises(DivergenceError):
        tail_bound(k, source, 10.0)


NON_FINITE = {
    "majorant-x-nan": lambda: majorant_integral(math.nan, 2.0),
    "majorant-a-nan": lambda: majorant_integral(0.0, math.nan, 5.0),
    "majorant-R-inf": lambda: majorant_integral(0.0, 0.5, math.inf),
    "majorant-R-nan": lambda: majorant_integral(0.0, 2.0, math.nan),
    "powerlaw-a-inf": lambda: powerlaw_integral(math.inf),
    "tail-R-inf": lambda: tail_bound(KernelSpec(kappa=2.0), SpaceSpec.hsp(-0.5, 3.0), math.inf),
    "norm-t-nan": lambda: powerlaw_weighted_norm(math.nan, SpaceSpec.h(-1.0)),
    "indicator-kappa-nan": lambda: envelope_indicator_image(math.nan, 1.0),
    "indicator-x-inf": lambda: envelope_indicator_image(2.0, math.inf),
    "indicator-hi-inf": lambda: envelope_indicator_image(2.0, 0.0, hi=math.inf),
}


@pytest.mark.parametrize("call", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_arguments_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()


def test_indicator_image_is_the_pure_envelope_only():
    # a scaled envelope has no caller; the majorant and tail bound keep their scale
    assert list(inspect.signature(envelope_indicator_image).parameters) == ["kappa", "x", "lo",
                                                                           "hi"]


@pytest.mark.parametrize("call", [
    lambda: majorant_integral(0.0, -400.0, 1e300),
    lambda: powerlaw_integral(-2.0, 1e200),
    lambda: envelope_indicator_image(-300.0, 0.0, hi=1e300),
    # (1+R)^2 = 1.44e308 is finite, twice it is not: float * gives inf, not an error
    lambda: majorant_integral(0.0, -1.0, 1.2e154),
    # c_upper^q1: float ** raises for 1e300^1.5; 1e308^(1 + 1e-7) is finite, twice it is not
    lambda: tail_bound(KernelSpec(2.0, c_upper=1e300), SpaceSpec.hsp(-0.5, 3.0), 10.0),
    lambda: tail_bound(KernelSpec(2.0, c_upper=1e308), SpaceSpec.hsp(-0.5, 1e7), 10.0),
    # finite arguments whose exponent a overflows
    lambda: powerlaw_weighted_norm(1e308, SpaceSpec.hsp(-1.0, 3.0)),
    lambda: powerlaw_weighted_norm(-1e308, SpaceSpec.hsp(-1.0, 3.0)),
    lambda: majorant_exponent(SpaceSpec.h(-1.0), 1.7e308),
], ids=["majorant", "powerlaw", "indicator", "factor-two", "tail-bound-power",
        "tail-bound-factor-two", "powerlaw-norm-exponent", "powerlaw-norm-exponent-minus",
        "majorant-exponent"])
def test_overflow_is_a_numerical_error(call):
    with pytest.raises(NumericalError):
        call()


def _imports(module) -> set[str]:
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.add("." * node.level + (node.module or ""))
    return names


def test_oracles_stay_independent_of_quadrature():
    # the closed forms check grids, quadrature and operators, so they must
    # not be built on them; kernels must not reach back into the oracles
    assert _imports(opnormlab.closed_forms) <= {"math", ".errors", ".spaces", ".conditions"}
    assert not _imports(opnormlab.kernels) & {".conditions", ".closed_forms", ".spaces"}
