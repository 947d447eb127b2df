"""Truncated graded quadrature meshes on [-R, R].

The integrands of interest are smooth power laws, so a mesh is built from
panels that grow geometrically away from the origin, each carrying a
fixed-order Gauss-Legendre rule.  A grid is its panel edges on [0, R] and
its panel order; it is mirrored, so every grid is a bitwise mirror about
zero.  Grids grow one way: ``nested_grids`` chains the edges of a whole
truncation schedule, so each member reuses the breakpoints of the smaller
ones and the node sets nest; truncation studies rely on that nesting,
which ``nested_slice`` tests by panel edges, and ``build_grid`` is the
family of one radius.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ._parse import parse_call
from .errors import DomainError, NumericalError

DEFAULT_GRADING = 1.3
DEFAULT_PANEL_ORDER = 8
DEFAULT_EXTRA_PANELS = 2


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
    sum to 2R, and every node and weight on [0, R] is a normal float (a
    subnormal one would lose that sum).  Pass edges that align with
    features of the integrand (e.g. the endpoints of an indicator function)
    to keep them out of every panel's interior.
    """

    breakpoints: np.ndarray
    panel_order: int = DEFAULT_PANEL_ORDER
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
        pos_nodes, pos_weights = _panel_rule(edges, order)
        if not min(pos_nodes.min(), pos_weights.min()) >= sys.float_info.min:
            raise DomainError(f"panel width {float(np.diff(edges).min())!r} is too small: "
                              f"nodes or weights fall below the normal float range")
        nodes = np.concatenate([-pos_nodes[::-1], pos_nodes])
        weights = np.concatenate([pos_weights[::-1], pos_weights])
        nodes.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "breakpoints", edges)
        object.__setattr__(self, "panel_order", order)
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

    ``hi`` must be finite and above ``lo`` and g finite and >= 1; m is an
    int >= 1, which ``nested_grids`` checks.  The first panel has width
    (hi-lo)(g-1)/(g^m - 1); g = 1 is uniform.
    """
    if not (math.isfinite(hi) and hi > lo):  # a NaN fails this
        raise DomainError(f"truncation radius {hi!r} must be finite and above {lo!r}")
    grading = float(grading)
    if not (1 <= grading < np.inf):
        raise DomainError("panel grading must be finite and >= 1")
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


def build_grid(R: float, panels_per_side: int, grading: float = DEFAULT_GRADING,
               panel_order: int = DEFAULT_PANEL_ORDER) -> Grid:
    """Graded Gauss-Legendre mesh on [-R, R]: the one-radius nested family."""
    return nested_grids((R,), panels_per_side, grading, panel_order)[0]


def nested_grids(R_schedule, panels_per_side: int, grading: float = DEFAULT_GRADING,
                 panel_order: int = DEFAULT_PANEL_ORDER,
                 extra_panels: int = DEFAULT_EXTRA_PANELS) -> list[Grid]:
    """Nested grid family over a strictly increasing truncation schedule.

    The panel edges are chained once: ``panels_per_side`` geometric panels
    fill [0, R_0], and each annulus (R_{i-1}, R_i] gets ``extra_panels`` more
    of the same ratio.  Each count is checked once, under its own name (the
    extra panels only when there is an annulus), and ``_geometric_fill``
    checks each radius against the one before it.  Each member is the
    ``Grid`` on its prefix of the chain.  A panel's nodes and weights depend
    on its own two edges only, so each smaller grid is bitwise the centred
    slice of every larger one (see ``nested_slice``).
    """
    schedule = [float(R) for R in R_schedule]
    if not schedule:
        raise DomainError("empty truncation schedule")
    counts = [_whole(panels_per_side, 1, "panels per side")]
    if len(schedule) > 1:
        counts += [_whole(extra_panels, 1, "extra panels per radius")] * (len(schedule) - 1)
    chain = [np.zeros(1)] + [_geometric_fill(lo, hi, panels, grading)
                             for lo, hi, panels in zip([0.0] + schedule, schedule, counts)]
    edges = np.concatenate(chain)
    return [Grid(edges[:count], panel_order)
            for count in np.cumsum([part.size for part in chain])[1:]]


def nested_slice(outer: Grid, inner: Grid) -> slice:
    """The centred slice of ``outer``'s nodes that is ``inner``: DomainError
    unless the two share their panel order and ``inner``'s panel edges lead
    ``outer``'s, as in one ``nested_grids`` family, so that ``inner``'s nodes
    and weights are bitwise that slice of ``outer``'s."""
    edges = inner.breakpoints
    if not (inner.panel_order == outer.panel_order
            and np.array_equal(outer.breakpoints[:edges.size], edges)):
        raise DomainError("grid is not nested in the larger grid: panel edges or order differ")
    start = (outer.size - inner.size) // 2
    return slice(start, start + inner.size)


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
