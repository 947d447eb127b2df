"""Closed-form antiderivative values used as quadrature-independent oracles.

Every value here is one antiderivative of (base + y)^(-a), evaluated by
:func:`_power_integral`; no grids or quadrature rules are involved, so these
values can legitimately check the quadrature code paths.  The same integral
closes the Holder factor split behind the sufficient boundedness conditions.
The `oracle` CLI subcommand exposes them.
"""
from __future__ import annotations

import math

from .conditions import space_thresholds
from .errors import DivergenceError, DomainError, NumericalError
from .spaces import SpaceSpec, conjugate_exponent, weight_exponent


def _power_integral(base: float, a: float, lo: float, hi: float | None,
                    scale: float = 1.0) -> float:
    """``scale`` times the integral of (base + y)^(-a) dy over [lo, hi] (base + lo > 0).

    ``hi`` = None means [lo, inf), which needs a > 1.  a = 1 is the log1p
    form, accurate on short intervals.  Non-finite arguments raise
    DomainError, an overflowing value NumericalError.
    """
    finite = (base, a, lo, scale) if hi is None else (base, a, lo, hi, scale)
    if not all(map(math.isfinite, finite)):
        raise DomainError("closed forms need finite arguments")
    if hi is None and a <= 1:
        raise DivergenceError(f"integral of ({base!r} + y)^(-{a!r}) over [{lo!r}, inf) diverges")
    try:
        if a == 1.0:
            value = scale * math.log1p((hi - lo) / (base + lo))
        else:
            far = 0.0 if hi is None else (base + hi) ** (1.0 - a)
            value = scale * ((base + lo) ** (1.0 - a) - far) / (a - 1.0)
    except OverflowError:  # float ** raises where * and / return inf
        value = math.inf
    if not math.isfinite(value):
        raise NumericalError(f"closed form overflows for a = {a!r}")
    return value


def _radius(R: float) -> float:
    if not R > 0:
        raise DomainError("truncation radius must be positive")
    return R


def majorant_integral(x: float, a: float, R: float | None = None) -> float:
    """Closed-form integral of (1+|x|+|y|)^(-a) in y.

    ``R`` = None integrates over the whole line, which requires a > 1; a
    finite ``R`` truncates to [-R, R] and is defined for every a.
    """
    return _power_integral(1.0 + abs(x), a, 0.0, None if R is None else _radius(R), 2.0)


def powerlaw_integral(a: float, R: float | None = None) -> float:
    """Integral of (1+|x|)^(-a) over [-R, R], or over the line when R is None."""
    return majorant_integral(0.0, a, R)


def powerlaw_weighted_norm(t: float, space: SpaceSpec, R: float | None = None) -> float:
    """Weighted norm of x -> (1+|x|)^(-t), truncated to [-R, R] if R is given.

    |f|^p (1+|x|)^w collapses to (1+|x|)^(w - p*t), so the norm is a power
    of :func:`powerlaw_integral`.
    """
    a = space.p * t - weight_exponent(space)
    if math.isfinite(t) and not math.isfinite(a):  # a non-finite t is a DomainError below
        raise NumericalError(f"exponent p*t - w overflows for t = {t!r}")
    return powerlaw_integral(a, R) ** (1.0 / space.p)


def envelope_indicator_image(kappa: float, x: float, lo: float = 0.0,
                             hi: float = 1.0) -> float:
    """Image of the indicator of [lo, hi] (0 <= lo <= hi) under the pure envelope kernel.

    Integral of (1+|x|+y)^(-kappa) dy over [lo, hi]; for kappa = 2 and
    [0, 1] this is (1+|x|)^(-1) - (2+|x|)^(-1).
    """
    if not (0 <= lo <= hi):
        raise DomainError("indicator endpoints must satisfy 0 <= lo <= hi")
    return _power_integral(1.0 + abs(x), kappa, lo, hi)


def majorant_exponent(source: SpaceSpec, kappa: float) -> float:
    """Exponent a = q1*(w1/p1 + kappa) of the dual-exponent majorant (1+|x|+|y|)^(-a).

    NumericalError if a finite kappa gives a non-finite a.
    """
    a = conjugate_exponent(source.p) * (weight_exponent(source) / source.p + kappa)
    if math.isfinite(kappa) and not math.isfinite(a):
        raise NumericalError(f"majorant exponent overflows for kappa = {kappa!r}")
    return a


def _integrable_exponent(source: SpaceSpec, kappa: float) -> float:
    """:func:`majorant_exponent`, or DivergenceError unless kappa exceeds the inner threshold.

    The threshold is checked itself since a = 1 there can round to either side.
    """
    if not kappa > space_thresholds(source, source)[0]:
        raise DivergenceError(f"majorant not integrable: kappa = {kappa!r} <= inner threshold")
    return majorant_exponent(source, kappa)


def tail_bound(k, source: SpaceSpec, R: float) -> float:
    """Bound on the |y| > R remainder of the dual-exponent majorant integral.

    The tail beyond R of (1+|y|)^(-a), a from :func:`majorant_exponent`,
    times c_upper^q1 of the KernelSpec ``k``.  Kappa at or below the inner
    threshold diverges.
    """
    a = _integrable_exponent(source, k.kappa)
    try:  # float ** raises where * returns inf; _power_integral takes a finite scale only
        scale = k.c_upper ** conjugate_exponent(source.p) * 2.0
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise NumericalError(f"tail bound overflows for c_upper = {k.c_upper!r}")
    return _power_integral(1.0, a, _radius(R), None, scale)
