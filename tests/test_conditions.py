"""Threshold formulas, reduction identities and condition reports."""
from fractions import Fraction

import numpy as np
import pytest

from opnormlab import (BoundednessQuery, DomainError, SpaceSpec, check_boundedness,
                       family_from_index, index_from_family, query_spaces,
                       threshold_h, threshold_hps, threshold_hsp)


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
