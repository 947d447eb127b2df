"""Sufficient boundedness thresholds for power-envelope kernels.

For each mapping family the kernel decay exponent kappa must strictly
exceed two lower bounds: an *inner* one that makes the dual-exponent
majorant integral in y converge, and an *outer* one that makes the
weighted x-integral converge.  The binding threshold is the larger of the
two, and applicability additionally requires s1 < 0.

Threshold arithmetic is plain Python, so exact inputs (e.g.
``fractions.Fraction``) pass through all formulas unchanged; tests use
that for exact rational cross-checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .spaces import VARIANTS, SpaceSpec, conjugate_exponent

# The inner bound for the hps family is derived from the source-side
# Holder factor (1+|y|)^(-2*s1/p1); it involves p1, not p2.
HPS_INNER_NOTE = "hps inner threshold uses the source exponent 2*s1/p1"


def family_from_index(index) -> str:
    """Map the CLI's numeric mapping-variant index (1, 2, 3) to a family tag."""
    try:
        position = int(index)
    except (TypeError, ValueError):
        position = 0
    if not 1 <= position <= len(VARIANTS):
        raise DomainError(f"unknown mapping variant {index}; expected 1, 2 or 3")
    return VARIANTS[position - 1]


def index_from_family(family: str) -> int:
    if family not in VARIANTS:
        raise DomainError(f"unknown family {family!r}")
    return VARIANTS.index(family) + 1


@dataclass(frozen=True)
class BoundednessQuery:
    """Parameters of one boundedness question: which family, which exponents."""

    family: str
    s1: float
    s2: float
    kappa: float
    p1: float = 2.0
    p2: float = 2.0

    def __post_init__(self):
        if self.family not in VARIANTS:
            raise DomainError(f"unknown family {self.family!r}")
        for name in ("s1", "s2", "kappa"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        for name in ("p1", "p2"):
            value = getattr(self, name)
            if not (1 < value < math.inf):
                raise DomainError(f"{name} must lie in (1, inf)")
        if self.family == "h" and (self.p1 != 2.0 or self.p2 != 2.0):
            raise DomainError("the classic family fixes p1 = p2 = 2")


@dataclass(frozen=True)
class ConditionReport:
    """Thresholds, margin and verdict for one boundedness query."""

    query: BoundednessQuery
    inner_threshold: float
    outer_threshold: float
    threshold: float
    margin: float
    applicable: bool
    satisfied: bool
    binding: str
    note: str | None = None

    def to_dict(self) -> dict:
        """Flat JSON-ready record: report fields plus an echo of the query."""
        out = {
            "family": self.query.family,
            "variant_index": index_from_family(self.query.family),
            "s1": self.query.s1,
            "s2": self.query.s2,
            "p1": self.query.p1,
            "p2": self.query.p2,
            "kappa": self.query.kappa,
            "inner_threshold": self.inner_threshold,
            "outer_threshold": self.outer_threshold,
            "threshold": self.threshold,
            "margin": self.margin,
            "applicable": self.applicable,
            "satisfied": self.satisfied,
            "binding": self.binding,
        }
        if self.note is not None:
            out["note"] = self.note
        return out


def threshold_h(s1, s2):
    """Inner/outer decay thresholds for the classic p = 2 family."""
    inner = 1 / 2 - s1
    outer = 1 + s2 - s1
    return inner, outer


def threshold_hsp(s1, s2, p1, p2):
    """Inner/outer decay thresholds for the p-scaled-weight family."""
    q1 = conjugate_exponent(p1)
    conjugate_exponent(p2)  # validates p2
    inner = 1 / q1 - s1
    outer = 1 / p2 + 1 / q1 + s2 - s1
    return inner, outer


def threshold_hps(s1, s2, p1, p2):
    """Inner/outer decay thresholds for the fixed-weight family.

    The inner bound comes from convergence of the dual-exponent majorant
    integral with the source factor 2*s1/p1 (see HPS_INNER_NOTE).
    """
    q1 = conjugate_exponent(p1)
    conjugate_exponent(p2)  # validates p2
    inner = 1 / q1 - 2 * s1 / p1
    outer = 1 / p2 + 1 / q1 + 2 * s2 / p2 - 2 * s1 / p1
    return inner, outer


def family_thresholds(family: str, s1, s2, p1, p2):
    """Dispatch to the threshold formula of one family."""
    if family == "h":
        return threshold_h(s1, s2)
    if family == "hsp":
        return threshold_hsp(s1, s2, p1, p2)
    return threshold_hps(s1, s2, p1, p2)


def thresholds_for(query: BoundednessQuery):
    """Inner/outer thresholds of the query's family."""
    return family_thresholds(query.family, query.s1, query.s2, query.p1, query.p2)


def check_boundedness(query: BoundednessQuery) -> ConditionReport:
    """Evaluate the sufficient condition for a query.

    Inapplicability (s1 >= 0) is reported, not raised.  The condition is a
    strict inequality, so a zero margin is not satisfied.
    """
    inner, outer = thresholds_for(query)
    threshold = max(inner, outer)
    margin = query.kappa - threshold
    applicable = query.s1 < 0
    return ConditionReport(
        query=query,
        inner_threshold=float(inner),
        outer_threshold=float(outer),
        threshold=float(threshold),
        margin=float(margin),
        applicable=applicable,
        satisfied=bool(applicable and margin > 0),
        binding="inner" if inner >= outer else "outer",
        note=HPS_INNER_NOTE if query.family == "hps" else None,
    )


def query_spaces(query: BoundednessQuery) -> tuple[SpaceSpec, SpaceSpec]:
    """Source and target spaces of the mapping the query asks about."""
    return (SpaceSpec(query.family, float(query.s1), float(query.p1)),
            SpaceSpec(query.family, float(query.s2), float(query.p2)))
