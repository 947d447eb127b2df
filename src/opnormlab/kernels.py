"""Power-envelope kernel families and the closed-form majorant integral.

A kernel here is dominated by c_upper * (1+|x|+|y|)^(-kappa); unmodulated
kernels equal that envelope (so they are positive and also satisfy the
matching lower bound), while cosine- or sign-modulated kernels keep only
the upper bound.  Boundedness experiments need only the upper bound, which
is why modulated kernels are allowed to participate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parse import parse_call
from .conditions import family_thresholds
from .errors import DivergenceError, DomainError, NumericalError
from .spaces import SpaceSpec, conjugate_exponent, weight_exponent

MODULATIONS = ("none", "cosine", "alternating")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family with decay exponent kappa and envelope constants.

    ``c_upper`` = 0 (forcing ``c_lower`` = 0) denotes the degenerate zero
    kernel, which the coupled-system solver accepts as a decoupled case.
    """

    kappa: float
    c_lower: float = 1.0
    c_upper: float = 1.0
    modulation: str = "none"
    omega: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.kappa):
            raise DomainError("decay exponent must be finite")
        if self.c_lower < 0 or self.c_upper < 0:
            raise DomainError("envelope constants cannot be negative")
        if self.c_lower > self.c_upper:
            raise DomainError("lower envelope constant cannot exceed the upper one")
        if self.modulation not in MODULATIONS:
            raise DomainError(f"unknown modulation {self.modulation!r}")
        if self.modulation == "cosine" and not math.isfinite(self.omega):
            raise DomainError("cosine modulation needs a finite frequency")

    @property
    def even(self) -> bool:
        """K(-x, y) = K(x, -y) = K(x, y): the envelope and its cosine modulation."""
        return self.modulation != "alternating"

    @classmethod
    def zero(cls) -> "KernelSpec":
        return cls(kappa=0.0, c_lower=0.0, c_upper=0.0)

    def spec_string(self) -> str:
        if self.modulation == "cosine":
            return f"cosmod({self.kappa:g},{self.omega:g})"
        if self.modulation == "alternating":
            return f"altmod({self.kappa:g})"
        if self.c_upper != 1.0:
            return f"envelope({self.kappa:g},{self.c_upper:g})"
        return f"envelope({self.kappa:g})"


def kernel_eval(k: KernelSpec, x, y):
    """Evaluate K(x, y); broadcasts over array arguments.

    Unmodulated kernels return the positive envelope c_upper*(1+|x|+|y|)^(-kappa);
    cosine modulation multiplies by cos(omega*x*y), alternating by sign(sin(x+y)).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):
        value = k.c_upper * (1.0 + np.abs(x) + np.abs(y)) ** (-k.kappa)
        if k.modulation == "cosine":
            value = value * np.cos(k.omega * x * y)
        elif k.modulation == "alternating":
            value = value * np.sign(np.sin(x + y))
    return float(value) if value.ndim == 0 else value


def majorant_integral(x: float, a: float, R: float | None = None) -> float:
    """Closed-form integral of (1+|x|+|y|)^(-a) in y.

    ``R`` = None integrates over the whole line, which requires a > 1 and
    equals 2(1+|x|)^(1-a)/(a-1); a finite ``R`` truncates to [-R, R] and is
    defined for every a (a = 1 gives the logarithmic form).  No quadrature
    is involved: this is the antiderivative evaluated exactly.
    """
    base = 1.0 + abs(x)
    if R is None:
        if a <= 1:
            raise DivergenceError(f"majorant integral diverges for a = {a!r} <= 1")
        return 2.0 * base ** (1.0 - a) / (a - 1.0)
    if R <= 0:
        raise DomainError("truncation radius must be positive")
    if a == 1.0:
        return 2.0 * math.log((base + R) / base)
    return 2.0 * (base ** (1.0 - a) - (base + R) ** (1.0 - a)) / (a - 1.0)


def _inner_threshold(source: SpaceSpec) -> float:
    """Inner decay threshold of the family the source space belongs to."""
    return family_thresholds(source.variant, source.s, source.s, source.p, source.p)[0]


def tail_bound(k: KernelSpec, source: SpaceSpec, R: float) -> float:
    """Bound on the |y| > R remainder of the dual-exponent majorant integral.

    The remainder of integral (1+|y|)^(-q1*(a1+kappa)) dy beyond R, where a1
    is the source Holder exponent w/p and q1 the source dual exponent,
    scaled by c_upper^q1.  Divergence (kappa at or below the inner
    threshold) signals the experiment is outside the sufficient condition.
    """
    if R <= 0:
        raise DomainError("truncation radius must be positive")
    q1 = conjugate_exponent(source.p)
    a1 = weight_exponent(source) / source.p
    a = q1 * (a1 + k.kappa)
    if k.kappa <= _inner_threshold(source) or a <= 1:
        raise DivergenceError(
            f"tail not integrable: kappa = {k.kappa!r} at or below the inner threshold"
        )
    return k.c_upper ** q1 * 2.0 * (1.0 + R) ** (1.0 - a) / (a - 1.0)


@dataclass(frozen=True)
class EnvelopeReport:
    """Sampled check of the two-sided envelope comparison."""

    upper_ok: bool
    lower_ok: bool
    worst_upper_ratio: float
    worst_upper_point: tuple[float, float]
    worst_lower_ratio: float
    worst_lower_point: tuple[float, float]
    samples: int


def _sample_points(sample_count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    # Heavy-tailed draws |x| = tan(pi*u/2), u uniform on [0, 0.9999], plus a
    # fixed lattice of extreme magnitudes up to 1e6 where decay violations show.
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 0.9999, size=(2, sample_count))
    magnitudes = np.tan(np.pi * u / 2.0)
    signs = rng.choice([-1.0, 1.0], size=(2, sample_count))
    xs, ys = magnitudes * signs
    lattice = np.array([0.0, 1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6])
    lattice = np.concatenate([-lattice[:0:-1], lattice])
    lx, ly = np.meshgrid(lattice, lattice)
    return (np.concatenate([xs, lx.ravel()]), np.concatenate([ys, ly.ravel()]))


def envelope_check(kernel, kappa_claimed: float, c_lower: float = 1.0,
                   c_upper: float = 1.0, sample_count: int = 2000,
                   seed: int = 0) -> EnvelopeReport:
    """Check |K| against both sides of the claimed power envelope by sampling.

    ``kernel`` is a KernelSpec or a callable (x, y) -> value.  Ratios are
    |K| / (c * envelope); the upper bound asks for ratios <= 1 against
    c_upper, the lower bound for ratios >= 1 against c_lower, both with a
    1e-9 slack so exact-equality kernels pass.
    """
    if sample_count < 1:
        raise DomainError("need at least one sample")
    xs, ys = _sample_points(sample_count, seed)
    if isinstance(kernel, KernelSpec):
        values = kernel_eval(kernel, xs, ys)
    else:
        try:
            values = np.asarray(kernel(xs, ys), dtype=float)
            if values.shape != xs.shape:
                raise TypeError
        except Exception:
            values = np.array([float(kernel(x, y)) for x, y in zip(xs, ys)])
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise NumericalError(
            f"non-finite kernel value at ({xs[bad]!r}, {ys[bad]!r})"
        )
    envelope = (1.0 + np.abs(xs) + np.abs(ys)) ** (-kappa_claimed)
    upper_ratio = np.abs(values) / (c_upper * envelope)
    lower_ratio = np.abs(values) / (c_lower * envelope)
    hi = int(np.argmax(upper_ratio))
    lo = int(np.argmin(lower_ratio))
    return EnvelopeReport(
        upper_ok=bool(upper_ratio[hi] <= 1.0 + 1e-9),
        lower_ok=bool(lower_ratio[lo] >= 1.0 - 1e-9),
        worst_upper_ratio=float(upper_ratio[hi]),
        worst_upper_point=(float(xs[hi]), float(ys[hi])),
        worst_lower_ratio=float(lower_ratio[lo]),
        worst_lower_point=(float(xs[lo]), float(ys[lo])),
        samples=int(xs.size),
    )


def parse_kernel(spec: str) -> KernelSpec:
    """Parse ``envelope(kappa[,c])``, ``cosmod(kappa,omega)`` or ``altmod(kappa)``."""
    name, args = parse_call(spec)
    if name == "envelope" and len(args) in (1, 2):
        c = args[1] if len(args) == 2 else 1.0
        return KernelSpec(kappa=args[0], c_lower=c, c_upper=c)
    if name == "cosmod" and len(args) == 2:
        return KernelSpec(kappa=args[0], modulation="cosine", omega=args[1])
    if name == "altmod" and len(args) == 1:
        return KernelSpec(kappa=args[0], modulation="alternating")
    raise DomainError(f"unknown kernel spec {spec!r}")
