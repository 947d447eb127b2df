"""Threshold formulas, reduction identities and condition reports."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnormlab import (BoundednessQuery, DomainError, NumericalError, SpaceSpec,
                       check_boundedness, family_from_index, index_from_family,
                       majorant_exponent, query_spaces, threshold_h, threshold_hps,
                       threshold_hsp)
from opnormlab.conditions import space_thresholds


def test_threshold_h_values():
    assert threshold_h(-0.25, -0.25) == (0.75, 1.0)
    assert threshold_h(-1.0, -1.0) == (1.5, 1.0)
    assert threshold_h(-0.5, 0.5) == (1.0, 2.0)


def test_threshold_hsp_values():
    inner, outer = threshold_hsp(-0.5, -0.5, 4.0, 4.0)
    assert inner == pytest.approx(1.25, rel=1e-15)
    assert outer == pytest.approx(1.0, rel=1e-15)
    # same-parameter reduced form: max{1/q - s, 1}
    assert max(inner, outer) == pytest.approx(1.25, rel=1e-15)


def test_threshold_hps_values():
    inner, outer = threshold_hps(-1.0, -1.0, 4.0, 2.0)
    assert inner == pytest.approx(1.25, rel=1e-15)
    assert outer == pytest.approx(0.75, rel=1e-15)


def test_reduction_to_classic_at_p2():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        s1 = float(rng.uniform(-3.0, 0.0))
        s2 = float(rng.uniform(-3.0, 3.0))
        base = threshold_h(s1, s2)
        for variant in (threshold_hsp, threshold_hps):
            inner, outer = variant(s1, s2, 2.0, 2.0)
            assert inner == pytest.approx(base[0], abs=1e-12)
            assert outer == pytest.approx(base[1], abs=1e-12)


@pytest.mark.parametrize("p", [Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4)])
@pytest.mark.parametrize("s", [Fraction(-2), Fraction(-1), Fraction(-1, 4)])
def test_same_parameter_reduction_exact_rationals(p, s):
    # the formulas are plain arithmetic, so rational inputs stay rational
    q = p / (p - 1)
    inner, outer = threshold_hsp(s, s, p, p)
    assert outer == 1
    assert max(inner, outer) == max(1 / q - s, Fraction(1))
    inner, outer = threshold_hps(s, s, p, p)
    assert outer == 1
    assert max(inner, outer) == max(1 / q - 2 * s / p, Fraction(1))


def test_monotone_in_s1():
    # a unit step down in s1 raises classic/scaled thresholds by 1,
    # fixed-weight thresholds by 2/p1
    for s1, s2 in ((-0.5, 0.3), (-2.0, -1.0)):
        for fn, bump in ((threshold_h, 1.0), (threshold_hsp, 1.0)):
            args = (s1, s2) if fn is threshold_h else (s1, s2, 3.0, 2.0)
            args_down = (s1 - 1.0, s2) if fn is threshold_h else (s1 - 1.0, s2, 3.0, 2.0)
            hi = fn(*args_down)
            lo = fn(*args)
            assert hi[0] - lo[0] == pytest.approx(bump, rel=1e-12)
            assert hi[1] - lo[1] == pytest.approx(bump, rel=1e-12)
        hi = threshold_hps(s1 - 1.0, s2, 3.0, 2.0)
        lo = threshold_hps(s1, s2, 3.0, 2.0)
        assert hi[0] - lo[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert hi[1] - lo[1] == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_check_boundedness_satisfied():
    report = check_boundedness(BoundednessQuery("h", -0.25, -0.25, 1.5))
    assert report.applicable and report.satisfied
    assert report.threshold == 1.0
    assert report.margin == pytest.approx(0.5, rel=1e-15)
    assert report.binding == "outer"


def test_check_boundedness_inapplicable():
    report = check_boundedness(BoundednessQuery("h", 0.5, 0.0, 9.0))
    assert not report.applicable
    assert not report.satisfied


def test_zero_margin_not_satisfied():
    report = check_boundedness(BoundednessQuery("hsp", -0.5, -0.5, 1.25, 4.0, 4.0))
    assert report.applicable
    assert report.margin == 0.0
    assert not report.satisfied


def test_report_invariants_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        family = ("h", "hsp", "hps")[rng.integers(3)]
        p1, p2 = (2.0, 2.0) if family == "h" else tuple(rng.uniform(1.1, 5.0, 2))
        query = BoundednessQuery(family, float(rng.uniform(-3, 1)),
                                 float(rng.uniform(-3, 3)), float(rng.uniform(0, 4)),
                                 float(p1), float(p2))
        report = check_boundedness(query)
        assert report.threshold == max(report.inner_threshold, report.outer_threshold)
        assert report.satisfied == (report.applicable and report.margin > 0)
        assert report.binding in ("inner", "outer")


def test_report_to_dict_flat():
    report = check_boundedness(BoundednessQuery("hps", -1.0, -1.0, 2.0, 2.0, 4.0))
    record = report.to_dict()
    assert record["family"] == "hps"
    assert record["variant_index"] == 3
    assert "note" in record  # fixed-weight family documents its inner form
    assert all(not isinstance(v, dict) for v in record.values())


def test_query_validation():
    with pytest.raises(DomainError):
        BoundednessQuery("h", -1.0, 0.0, 2.0, p1=3.0)
    with pytest.raises(DomainError):
        BoundednessQuery("hsp", -1.0, 0.0, 2.0, p1=1.0)
    with pytest.raises(DomainError):
        BoundednessQuery("nope", -1.0, 0.0, 2.0)


@pytest.mark.parametrize("kappa", [math.inf, -math.inf, math.nan])
def test_query_rejects_a_non_finite_kappa(kappa):
    with pytest.raises(DomainError, match="kappa must be finite"):
        BoundednessQuery("h", -0.25, -0.25, kappa)


def test_family_index_round_trip():
    for index in (1, 2, 3):
        assert index_from_family(family_from_index(index)) == index
        assert family_from_index(str(index)) == family_from_index(index)  # a CLI string
    for bad in (0, 4, -1, "x", None, 2.9, 2.0, True):
        with pytest.raises(DomainError):
            family_from_index(bad)
    with pytest.raises(DomainError):
        index_from_family("nope")


def test_query_spaces():
    src, tgt = query_spaces(BoundednessQuery("h", -1.0, -0.5, 2.0))
    assert src == SpaceSpec.h(-1.0) and tgt == SpaceSpec.h(-0.5)
    src, tgt = query_spaces(BoundednessQuery("hsp", -1.0, -0.5, 2.0, 3.0, 4.0))
    assert src == SpaceSpec.hsp(-1.0, 3.0) and tgt == SpaceSpec.hsp(-0.5, 4.0)
    src, tgt = query_spaces(BoundednessQuery("hps", -1.0, -0.5, 2.0, 3.0, 4.0))
    assert src == SpaceSpec.hps(3.0, -1.0) and tgt == SpaceSpec.hps(4.0, -0.5)


def test_check_boundedness_rejects_an_overflowing_margin():
    # the thresholds are finite, only kappa - threshold overflows
    source, target = SpaceSpec.h(-8e307), SpaceSpec.h(-8e307)
    assert all(map(math.isfinite, space_thresholds(source, target)))
    with pytest.raises(NumericalError):
        check_boundedness(BoundednessQuery("h", -8e307, -8e307, -1.7e308))


# --- the one formula against the three per-family formulas ----------------------
# Written out per family, as in the paper: classic (p = 2, w = 2s), p-scaled
# weight (w = p*s) and fixed weight (w = 2s).

def _h_formula(s1, s2):
    return 1 / 2 - s1, 1 + s2 - s1


def _hsp_formula(s1, s2, p1, p2):
    q1 = p1 / (p1 - 1)
    return 1 / q1 - s1, 1 / p2 + 1 / q1 + s2 - s1


def _hps_formula(s1, s2, p1, p2):
    q1 = p1 / (p1 - 1)
    return 1 / q1 - 2 * s1 / p1, 1 / p2 + 1 / q1 + 2 * s2 / p2 - 2 * s1 / p1


PROPERTY = settings(max_examples=300, derandomize=True)
SMOOTHNESS = st.floats(-1e6, 1e6, allow_nan=False)
EXPONENT = st.floats(1.0, 1e3, exclude_min=True, allow_nan=False)
RATIONAL_S = st.fractions(-20, 20, max_denominator=60)
RATIONAL_P = st.fractions(Fraction(61, 60), 20, max_denominator=60)


@PROPERTY
@given(SMOOTHNESS, SMOOTHNESS)
def test_one_formula_is_the_classic_formula_bitwise(s1, s2):
    assert threshold_h(s1, s2) == _h_formula(s1, s2)


@PROPERTY
@given(SMOOTHNESS, SMOOTHNESS, EXPONENT, EXPONENT)
def test_one_formula_is_the_fixed_weight_formula_bitwise(s1, s2, p1, p2):
    assert threshold_hps(s1, s2, p1, p2) == _hps_formula(s1, s2, p1, p2)


@PROPERTY
@given(SMOOTHNESS, SMOOTHNESS, EXPONENT, EXPONENT)
def test_one_formula_is_the_scaled_weight_formula_to_a_few_ulps(s1, s2, p1, p2):
    # (p*s)/p stands in for s, which may move the last bit of each term
    scale = math.ulp(2.0 + abs(s1) + abs(s2))
    for got, want in zip(threshold_hsp(s1, s2, p1, p2), _hsp_formula(s1, s2, p1, p2)):
        assert abs(got - want) <= 8 * scale


@PROPERTY
@given(RATIONAL_S, RATIONAL_S, RATIONAL_P, RATIONAL_P)
def test_one_formula_is_exact_on_rationals(s1, s2, p1, p2):
    assert threshold_hsp(s1, s2, p1, p2) == _hsp_formula(s1, s2, p1, p2)
    assert threshold_hps(s1, s2, p1, p2) == _hps_formula(s1, s2, p1, p2)


@PROPERTY
@given(st.sampled_from(("h", "hsp", "hps")), st.floats(-10.0, 10.0),
       st.floats(1.1, 10.0))
def test_majorant_exponent_is_one_at_the_inner_threshold(family, s, p):
    source = SpaceSpec(family, s, 2.0 if family == "h" else p)
    inner, _ = space_thresholds(source, source)
    assert majorant_exponent(source, inner) == pytest.approx(1.0, abs=1e-12)
