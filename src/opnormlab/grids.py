"""Truncated graded quadrature meshes on [-R, R].

The integrands of interest are smooth power laws, so a mesh is built from
panels that grow geometrically away from the origin, each carrying a
fixed-order Gauss-Legendre rule.  A grid is built from its panel edges on
[0, R] alone and mirrored, so every grid is a bitwise mirror about zero.
Extending a mesh outward reuses its panel breakpoints, which keeps node
sets nested across truncation radii; truncation studies rely on that
nesting.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from ._parse import parse_call
from .errors import DomainError, NumericalError

DEFAULT_GRADING = 1.3
DEFAULT_PANEL_ORDER = 8


def _frozen_array(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Grid:
    """Symmetric quadrature mesh on [-R, R], built from its panel edges.

    ``breakpoints`` are the panel edges on [0, R]: the first is 0, they
    strictly increase and 2R is finite.  Each panel carries the
    ``panel_order``-point Gauss-Legendre rule, and the negative side is the
    mirror image of the positive one, so the grid is a bitwise mirror: an
    even number of nodes, ``nodes[:h] == -nodes[h:][::-1]`` and palindromic
    weights.  The weights integrate the constant function exactly, so they
    sum to 2R.  ``grading`` (>= 1) is the growth ratio ``extend_grid`` gives
    new panels; it does not enter the nodes.  Pass edges that align with
    features of the integrand (e.g. the endpoints of an indicator function)
    to keep them out of every panel's interior.
    """

    breakpoints: np.ndarray
    panel_order: int = DEFAULT_PANEL_ORDER
    grading: float = 1.0
    nodes: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        edges = _frozen_array(self.breakpoints)
        if edges.ndim != 1 or edges.size < 2:
            raise DomainError("need at least two panel edges")
        if edges[0] != 0.0:
            raise DomainError("first panel edge must be 0")
        if not np.all(edges[1:] > edges[:-1]):  # a NaN fails this
            raise DomainError("panel edges must be strictly increasing")
        R = float(edges[-1])
        if not math.isfinite(2.0 * R):  # a Python float overflows without a warning
            raise DomainError(f"truncation radius {R!r} is too large: 2R overflows")
        order = _whole(self.panel_order, 2, "panel order")
        if not (1 <= self.grading < np.inf):
            raise DomainError("panel grading must be finite and >= 1")
        pos_nodes, pos_weights = _panel_rule(edges, order)
        nodes = np.concatenate([-pos_nodes[::-1], pos_nodes])
        weights = np.concatenate([pos_weights[::-1], pos_weights])
        nodes.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "breakpoints", edges)
        object.__setattr__(self, "panel_order", order)
        object.__setattr__(self, "grading", float(self.grading))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def R(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    @property
    def panels_per_side(self) -> int:
        return int(self.breakpoints.size - 1)


def fold(values: np.ndarray) -> np.ndarray:
    """values[h:] + values[:h][::-1], h = size // 2: for samples on a mirrored grid,
    twice their even part, by its values on the positive nodes."""
    h = values.size // 2
    return values[h:] + values[:h][::-1]


def unfold(half: np.ndarray, axis: int = 0) -> np.ndarray:
    """The reversal of ``half`` along ``axis``, then ``half``: the even samples on a
    mirrored grid whose values on the positive nodes are ``half``."""
    return np.concatenate([np.flip(half, axis), half], axis=axis)


@functools.cache
def _reference_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only (shared by every call)."""
    return tuple(_frozen_array(values) for values in np.polynomial.legendre.leggauss(order))


def _panel_rule(breakpoints: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on each panel of [0, R]."""
    ref_x, ref_w = _reference_rule(order)
    a, b = breakpoints[:-1, None], breakpoints[1:, None]  # one row per panel
    half = (b - a) / 2.0
    return ((a + b) / 2.0 + ref_x * half).ravel(), (ref_w * half).ravel()


def _whole(value, least: int, what: str) -> int:
    """``value`` as an int; DomainError unless it is a whole number >= ``least``."""
    if not (value >= least and float(value).is_integer()):  # NaN fails too
        raise DomainError(f"{what} must be a whole number >= {least}")
    return int(value)


def _geometric_fill(lo: float, hi: float, panels: int, grading: float) -> np.ndarray:
    """Right edges of m = ``panels`` panels of ratio g = ``grading`` filling (lo, hi].

    The first panel has width (hi-lo)(g-1)/(g^m - 1); g = 1 is uniform.
    """
    span = hi - lo
    if grading == 1.0:
        first = span / panels
    else:
        try:
            first = span * (grading - 1.0) / (grading ** panels - 1.0)
        except OverflowError:  # float ** raises where numpy would warn
            raise DomainError(f"panel grading {grading!r} overflows over {panels} panels") from None
    with np.errstate(over="ignore"):  # only past 2R = inf, which Grid rejects
        edges = lo + np.cumsum(first * grading ** np.arange(panels))
    edges[-1] = hi
    return edges


def half_line_breakpoints(R: float, panels: int, grading: float) -> np.ndarray:
    """Geometric panel edges on [0, R] with growth ratio ``grading``."""
    if not (np.isfinite(R) and R > 0):
        raise DomainError("truncation radius must be positive and finite")
    panels = _whole(panels, 1, "panels per side")
    if not (1 <= grading < np.inf):
        raise DomainError("panel grading must be finite and >= 1")
    return np.concatenate([[0.0], _geometric_fill(0.0, R, panels, grading)])


def build_grid(R: float, panels_per_side: int, grading: float = DEFAULT_GRADING,
               panel_order: int = DEFAULT_PANEL_ORDER) -> Grid:
    """Graded Gauss-Legendre mesh on [-R, R]."""
    edges = half_line_breakpoints(R, panels_per_side, grading)
    return Grid(edges, panel_order, grading)


def extend_grid(grid: Grid, R_new: float, extra_panels: int = 2) -> Grid:
    """Enlarge a grid to [-R_new, R_new], reusing all existing breakpoints.

    The annulus (R, R_new] gets ``extra_panels`` new geometric panels with
    the grid's own growth ratio.  Because the inner breakpoints are reused
    verbatim, the inner nodes and weights of the result coincide bitwise
    with the original grid's: the grids nest.
    """
    edges = np.concatenate([grid.breakpoints,
                            _extension_edges(grid.R, R_new, extra_panels, grid.grading)])
    return Grid(edges, grid.panel_order, grid.grading)


def _extension_edges(R: float, R_new: float, extra_panels: int, grading: float) -> np.ndarray:
    """The panel edges ``extend_grid`` adds on (R, R_new]."""
    if not (np.isfinite(R_new) and R_new > R):
        raise DomainError("extension radius must exceed the current radius")
    extra_panels = _whole(extra_panels, 1, "extension panels")
    return _geometric_fill(R, R_new, extra_panels, grading)


def nested_grids(R_schedule, panels_per_side: int, grading: float = DEFAULT_GRADING,
                 panel_order: int = DEFAULT_PANEL_ORDER, extra_panels: int = 2) -> list[Grid]:
    """Nested grid family over an increasing truncation schedule.

    The members are, bitwise, ``build_grid`` at the first radius followed by
    ``extend_grid`` to each later one: the panel edges are chained once, and
    each member is the ``Grid`` on its prefix of the chain.  A panel's nodes
    and weights depend on its own two edges only, so each smaller grid is
    bitwise the centred slice of every larger one, which
    ``DiscretizedOperator.restrict`` relies on.
    """
    schedule = [float(R) for R in R_schedule]
    if not schedule:
        raise DomainError("empty truncation schedule")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise DomainError("truncation schedule must be strictly increasing")
    chain = [half_line_breakpoints(schedule[0], panels_per_side, grading)]
    chain += [_extension_edges(R, R_new, extra_panels, float(grading))
              for R, R_new in zip(schedule, schedule[1:])]
    edges = np.concatenate(chain)
    return [Grid(edges[:count], panel_order, grading)
            for count in np.cumsum([part.size for part in chain])]


def _trusted(cls, *values):
    """An instance of the frozen dataclass ``cls`` around ``values``, one per field,
    that are already checked and read-only: no copy, no checks."""
    instance = object.__new__(cls)  # skips __init__ and its checks
    for attribute, value in zip(fields(cls), values, strict=True):
        object.__setattr__(instance, attribute.name, value)
    return instance


def integrate(grid: Grid, g) -> float:
    """Quadrature sum over the grid; ``g`` is a vectorized callable or a node-value array."""
    values = np.asarray(g(grid.nodes) if callable(g) else g, dtype=float)
    if values.shape != grid.nodes.shape:
        raise DomainError("integrand values must match the grid nodes")
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise NumericalError(f"non-finite integrand value at node {float(grid.nodes[bad])!r}")
    return float(np.dot(grid.weights, values))


def parse_grid(spec: str) -> Grid:
    """Parse ``grid(R,panels,grading,order)`` into a Grid."""
    name, args = parse_call(spec)
    if name != "grid" or len(args) != 4:
        raise DomainError(f"unknown grid spec {spec!r}; expected grid(R,panels,grading,order)")
    return build_grid(*args)
