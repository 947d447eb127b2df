"""Sufficient boundedness thresholds for power-envelope kernels.

The kernel decay exponent kappa must strictly exceed two lower bounds,
both one formula in the spaces' weight exponents: an *inner* one that makes
the dual-exponent majorant integral in y converge, and an *outer* one that
makes the weighted x-integral converge.  The binding threshold is the
larger of the two, and applicability additionally requires s1 < 0.

Threshold arithmetic is plain Python, so exact inputs (e.g.
``fractions.Fraction``) pass through the formula unchanged; tests use
that for exact rational cross-checks.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import DomainError, NumericalError
from .spaces import VARIANTS, SpaceSpec, conjugate_exponent, weight_exponent

# The inner bound for the hps family is derived from the source-side
# Holder factor (1+|y|)^(-2*s1/p1); it involves p1, not p2.
HPS_INNER_NOTE = "hps inner threshold uses the source exponent 2*s1/p1"


def family_from_index(index) -> str:
    """Map the CLI's mapping-variant index (1, 2, 3, or its string) to a family name."""
    try:
        position = int(index) if isinstance(index, str) else operator.index(index)
    except (TypeError, ValueError):
        position = 0
    if isinstance(index, bool) or not 1 <= position <= len(VARIANTS):
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
        if not math.isfinite(self.kappa):
            raise DomainError("kappa must be finite")
        query_spaces(self)  # the two SpaceSpecs check family, s and p


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


def space_thresholds(source: SpaceSpec, target: SpaceSpec):
    """Inner and outer decay thresholds of a mapping from ``source`` to ``target``.

    inner = 1/q1 - w1/p1 (source only), outer = 1/p2 + 1/q1 + w2/p2 - w1/p1,
    with w each space's weight exponent.
    """
    q1 = conjugate_exponent(source.p)
    source_decay = weight_exponent(source) / source.p
    inner = 1 / q1 - source_decay
    outer = 1 / target.p + 1 / q1 + weight_exponent(target) / target.p - source_decay
    return inner, outer


def threshold_h(s1, s2):
    """Inner/outer decay thresholds for the classic p = 2 family."""
    return space_thresholds(SpaceSpec("h", s1, 2.0), SpaceSpec("h", s2, 2.0))


def threshold_hsp(s1, s2, p1, p2):
    """Inner/outer decay thresholds for the p-scaled-weight family."""
    return space_thresholds(SpaceSpec("hsp", s1, p1), SpaceSpec("hsp", s2, p2))


def threshold_hps(s1, s2, p1, p2):
    """Inner/outer decay thresholds for the fixed-weight family (see HPS_INNER_NOTE)."""
    return space_thresholds(SpaceSpec("hps", s1, p1), SpaceSpec("hps", s2, p2))


def query_spaces(query: BoundednessQuery) -> tuple[SpaceSpec, SpaceSpec]:
    """Source and target spaces of the mapping the query asks about."""
    return (SpaceSpec(query.family, float(query.s1), float(query.p1)),
            SpaceSpec(query.family, float(query.s2), float(query.p2)))


def check_boundedness(query: BoundednessQuery) -> ConditionReport:
    """Evaluate the sufficient condition for a query.

    Inapplicability (s1 >= 0) is reported, not raised.  The condition is a
    strict inequality, so a zero margin is not satisfied.
    """
    inner, outer = space_thresholds(*query_spaces(query))
    threshold = max(inner, outer)
    margin = query.kappa - threshold
    if not all(map(math.isfinite, (inner, outer, margin))):
        raise NumericalError(f"threshold {threshold!r} or margin {margin!r} overflows")
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

