"""Weighted power-integrability spaces on the line.

Every family here measures a function through (integral of |f|^p (1+|x|)^w dx)^(1/p);
the families differ only in how the weight exponent w couples to the
smoothness parameter s:

* ``h``   -- p fixed to 2, w = 2s (the classic Hilbert-space family);
* ``hsp`` -- general p, w = p*s (weight scales with the integrability index);
* ``hps`` -- general p, w = 2s (weight frozen at its p = 2 value).

At p = 2 the three definitions coincide.  Norms are always evaluated
against an explicit :class:`~opnormlab.grids.Grid`; the truncation radius
is part of the experiment, never hidden inside the norm.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._parse import parse_call
from .errors import DomainError, NumericalError
from .grids import Grid

VARIANTS = ("h", "hsp", "hps")


def conjugate_exponent(p):
    """Dual exponent q with 1/p + 1/q = 1.

    Plain arithmetic, so exact types (e.g. fractions.Fraction) pass through.
    """
    if not (p > 1):
        raise DomainError(f"integrability exponent must exceed 1, got {p!r}")
    if not (p < math.inf):
        raise DomainError("integrability exponent must be finite")
    return p / (p - 1)


@dataclass(frozen=True)
class SpaceSpec:
    """One of the three weighted families, with its exponents."""

    variant: str
    s: float
    p: float

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown space variant {self.variant!r}")
        if not math.isfinite(self.s):
            raise DomainError("smoothness exponent must be finite")
        if not (1 < self.p < math.inf):
            raise DomainError("integrability exponent must lie in (1, inf)")
        if self.variant == "h" and self.p != 2.0:
            raise DomainError("the classic family fixes p = 2")

    @classmethod
    def h(cls, s: float) -> "SpaceSpec":
        """Classic p = 2 family with weight (1+|x|)^(2s)."""
        return cls("h", float(s), 2.0)

    @classmethod
    def hsp(cls, s: float, p: float) -> "SpaceSpec":
        """General-p family with weight (1+|x|)^(p*s)."""
        return cls("hsp", float(s), float(p))

    @classmethod
    def hps(cls, p: float, s: float) -> "SpaceSpec":
        """General-p family with weight (1+|x|)^(2s)."""
        return cls("hps", float(s), float(p))


def weight_exponent(space: SpaceSpec) -> float:
    """Exponent w of the weight (1+|x|)^w in the p-th power integral; exact types stay exact."""
    if space.variant == "hsp":
        return space.p * space.s
    return 2 * space.s


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Function samples on a grid: read-only, finite, one value per node."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if vals.shape != self.grid.nodes.shape:
            raise DomainError(
                f"{vals.size} values for a grid of {self.grid.size} nodes"
            )
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise NumericalError(f"non-finite sample at node {float(self.grid.nodes[bad])!r}")


def sample(grid: Grid, f) -> SampledFunction:
    """Sample a vectorized callable (or accept a value array) on a grid.

    An overflowing callable is reported by the non-finite check, not as a warning.
    """
    with np.errstate(over="ignore"):
        values = f(grid.nodes) if callable(f) else f
    return SampledFunction(grid, np.broadcast_to(values, grid.nodes.shape))


def weighted_norm(f: SampledFunction, space: SpaceSpec) -> float:
    """Grid approximation of (integral |f|^p (1+|x|)^w dx)^(1/p)."""
    w = weight_exponent(space)
    x = f.grid.nodes
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite total raises
        integrand = np.abs(f.values) ** space.p * (1.0 + np.abs(x)) ** w
        total = float(np.dot(f.grid.weights, integrand))
    if not math.isfinite(total):
        raise NumericalError("weighted norm integrand overflowed")
    return total ** (1.0 / space.p)


# --- function mini-language ---------------------------------------------

def powerlaw(t: float):
    """x -> (1+|x|)^(-t)."""
    def f(x):
        return (1.0 + np.abs(x)) ** (-t)
    return f


def indicator(a: float, b: float):
    """Indicator of [a, b]."""
    if b < a:
        raise DomainError("indicator endpoints must satisfy a <= b")
    def f(x):
        x = np.asarray(x, dtype=float)
        return ((x >= a) & (x <= b)).astype(float)
    return f


def gauss(sigma: float):
    """x -> exp(-x^2 / (2 sigma^2)).

    The width must keep 2 sigma^2 a finite positive normal float.  An
    exponent that overflows is -inf, and exp(-inf) = 0 is the exact limit.
    """
    if sigma <= 0:
        raise DomainError("gauss width must be positive")
    two_variance = 2.0 * (sigma * sigma)  # unlike sigma ** 2, overflows to inf, never raises
    if not sys.float_info.min <= two_variance < math.inf:
        raise DomainError(f"gauss width {sigma!r} out of range: 2 sigma^2 must be "
                          f"a finite positive normal float")
    def f(x):
        with np.errstate(over="ignore"):
            return np.exp(-np.asarray(x, dtype=float) ** 2 / two_variance)
    return f


def bump(c: float, w: float):
    """Smooth bump supported on [c-w, c+w], peak value 1 at c."""
    if w <= 0:
        raise DomainError("bump width must be positive")
    def f(x):
        u = (np.asarray(x, dtype=float) - c) / w
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
        return out
    return f


_FUNCTION_BUILDERS = {
    "powerlaw": (powerlaw, 1),
    "indicator": (indicator, 2),
    "gauss": (gauss, 1),
    "bump": (bump, 2),
}


def function_from_spec(spec: str):
    """Parse a function spec string into a vectorized callable."""
    name, args = parse_call(spec)
    try:
        builder, arity = _FUNCTION_BUILDERS[name]
    except KeyError:
        raise DomainError(f"unknown function {name!r} in {spec!r}") from None
    if len(args) != arity:
        raise DomainError(f"{name} takes {arity} argument(s), got {len(args)}")
    if any(math.isnan(arg) for arg in args):
        raise DomainError(f"{name} arguments must not be NaN in {spec!r}")
    return builder(*args)


def sample_spec(grid: Grid, spec: str) -> SampledFunction:
    """Sample a mini-language function on a grid."""
    return sample(grid, function_from_spec(spec))


def parse_space(spec: str) -> SpaceSpec:
    """Parse ``H(s)``, ``Hsp(s,p)`` or ``Hps(p,s)`` into a SpaceSpec."""
    name, args = parse_call(spec)
    if name == "h" and len(args) == 1:
        return SpaceSpec.h(args[0])
    if name == "hsp" and len(args) == 2:
        return SpaceSpec.hsp(args[0], args[1])
    if name == "hps" and len(args) == 2:
        return SpaceSpec.hps(args[0], args[1])
    raise DomainError(f"unknown space spec {spec!r}; expected H(s), Hsp(s,p) or Hps(p,s)")
