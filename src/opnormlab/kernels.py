"""Power-envelope kernel families: specs, evaluation, envelope checks, parsing.

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
from .errors import DomainError, NumericalError

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
        if not (0 <= self.c_lower <= self.c_upper < math.inf):  # NaN fails too
            raise DomainError("envelope constants must satisfy 0 <= c_lower <= c_upper < inf")
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


def kernel_eval(k: KernelSpec, x, y):
    """Evaluate K(x, y); broadcasts over array arguments.

    Unmodulated kernels return the positive envelope c_upper*(1+|x|+|y|)^(-kappa);
    cosine modulation multiplies by cos(omega*x*y), alternating by sign(sin(x+y)).
    The result is one fresh array, computed in place, plus one scratch array
    of the same size for a modulation; ``x`` and ``y`` are only read.
    Overflow and invalid values are left in the result for the caller's
    finiteness check to report.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.asarray(1.0 + np.abs(x) + np.abs(y))
        np.power(value, -k.kappa, out=value)
        value *= k.c_upper
        if k.modulation == "cosine":
            phase = np.asarray(k.omega * x * y)
            value *= np.cos(phase, out=phase)
        elif k.modulation == "alternating":
            phase = np.asarray(x + y)
            np.sin(phase, out=phase)
            value *= np.sign(phase, out=phase)
    return float(value) if value.ndim == 0 else value


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


def envelope_check(kernel, kappa_claimed: float, c_lower: float | None = None,
                   c_upper: float | None = None, sample_count: int = 2000,
                   seed: int = 0) -> EnvelopeReport:
    """Check |K| against both sides of the claimed power envelope by sampling.

    ``kernel`` is a KernelSpec or a callable (x, y) -> value, called once per
    sample; constants not given are the KernelSpec's own, or 1.  Ratios are
    |K| / (c * envelope), 1 where both are 0; the upper bound asks for ratios
    <= 1 against c_upper, the lower bound for ratios >= 1 against c_lower,
    both with a 1e-9 slack so exact-equality kernels pass.
    """
    if sample_count < 1:
        raise DomainError("need at least one sample")
    xs, ys = _sample_points(sample_count, seed)
    if isinstance(kernel, KernelSpec):
        values = kernel_eval(kernel, xs, ys)
        c_lower = kernel.c_lower if c_lower is None else c_lower
        c_upper = kernel.c_upper if c_upper is None else c_upper
    else:
        values = np.vectorize(kernel, otypes=[float])(xs, ys)
        c_lower = 1.0 if c_lower is None else c_lower
        c_upper = 1.0 if c_upper is None else c_upper
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise NumericalError(
            f"non-finite kernel value at ({xs[bad]!r}, {ys[bad]!r})"
        )
    envelope = (1.0 + np.abs(xs) + np.abs(ys)) ** (-kappa_claimed)
    magnitude = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):  # x / 0 = inf; 0 / 0 is replaced
        upper_ratio, lower_ratio = (np.where(magnitude == bound, 1.0, magnitude / bound)
                                    for bound in (c_upper * envelope, c_lower * envelope))
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
