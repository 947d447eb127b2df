"""Power-envelope kernel families: specs, evaluation, parsing.

A kernel here is dominated by c_upper * (1+|x|+|y|)^(-kappa); unmodulated
kernels equal that envelope (so they are positive), while cosine- or
sign-modulated kernels change sign and only stay below it in magnitude.
The boundedness conditions need only this upper bound, which is why
modulated kernels are allowed to participate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parse import parse_call
from .errors import DomainError

MODULATIONS = ("none", "cosine", "alternating")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family with decay exponent kappa and envelope constant c_upper.

    ``c_upper`` = 0 denotes the degenerate zero kernel, which the
    coupled-system solver accepts as a decoupled case.  ``omega`` is the
    frequency of the cosine modulation and must be 0 for the others.
    """

    kappa: float
    c_upper: float = 1.0
    modulation: str = "none"
    omega: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.kappa):
            raise DomainError("decay exponent must be finite")
        if not (0 <= self.c_upper < math.inf):  # NaN fails too
            raise DomainError("envelope constant must satisfy 0 <= c_upper < inf")
        if self.modulation not in MODULATIONS:
            raise DomainError(f"unknown modulation {self.modulation!r}")
        if self.modulation == "cosine" and not math.isfinite(self.omega):
            raise DomainError("cosine modulation needs a finite frequency")
        if self.modulation != "cosine" and self.omega != 0.0:  # NaN fails too
            raise DomainError(f"frequency omega = {self.omega!r} needs cosine modulation")

    @property
    def even(self) -> bool:
        """K(-x, y) = K(x, -y) = K(x, y): the envelope and its cosine modulation."""
        return self.modulation != "alternating"

    @classmethod
    def zero(cls) -> "KernelSpec":
        return cls(kappa=0.0, c_upper=0.0)


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
        if k.c_upper != 1.0:  # x * 1.0 is x: skip the pass
            value *= k.c_upper
        if k.modulation == "cosine":
            phase = np.asarray(k.omega * x * y)
            value *= np.cos(phase, out=phase)
        elif k.modulation == "alternating":
            phase = np.asarray(x + y)
            np.sin(phase, out=phase)
            value *= np.sign(phase, out=phase)
    return float(value) if value.ndim == 0 else value


def parse_kernel(spec: str) -> KernelSpec:
    """Parse ``envelope(kappa[,c])``, ``cosmod(kappa,omega)`` or ``altmod(kappa)``."""
    name, args = parse_call(spec)
    if name == "envelope" and len(args) in (1, 2):
        c = args[1] if len(args) == 2 else 1.0
        return KernelSpec(kappa=args[0], c_upper=c)
    if name == "cosmod" and len(args) == 2:
        return KernelSpec(kappa=args[0], modulation="cosine", omega=args[1])
    if name == "altmod" and len(args) == 1:
        return KernelSpec(kappa=args[0], modulation="alternating")
    raise DomainError(f"unknown kernel spec {spec!r}")
