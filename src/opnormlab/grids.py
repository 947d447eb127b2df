"""Truncated graded quadrature meshes on [-R, R].

The integrands of interest are smooth power laws, so a mesh is built from
panels that grow geometrically away from the origin, each carrying a
fixed-order Gauss-Legendre rule, mirrored so the mesh is exactly symmetric
about zero.  Extending a mesh outward reuses its panel breakpoints, which
keeps node sets nested across truncation radii; truncation studies rely on
that nesting.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

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
    """Symmetric quadrature mesh on [-R, R].

    ``breakpoints`` are the panel edges on [0, R] (both endpoints included);
    the negative side is their mirror image.  Weights integrate the constant
    function exactly, so they sum to 2R.
    """

    R: float
    nodes: np.ndarray
    weights: np.ndarray
    grading: float
    panel_order: int
    breakpoints: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", _frozen_array(self.nodes))
        object.__setattr__(self, "weights", _frozen_array(self.weights))
        object.__setattr__(self, "breakpoints", _frozen_array(self.breakpoints))
        if not (np.isfinite(self.R) and self.R > 0):
            raise DomainError("truncation radius must be positive and finite")
        if not np.isfinite(2.0 * self.R):
            raise DomainError(f"truncation radius {float(self.R)!r} is too large: 2R overflows")
        if not (1 <= self.grading < np.inf):
            raise DomainError("panel grading must be finite and >= 1")
        if self.panel_order < 2:
            raise DomainError("panel order must be >= 2")
        if self.nodes.ndim != 1 or self.nodes.size == 0:
            raise DomainError("grid needs a non-empty 1-d node array")
        if self.weights.shape != self.nodes.shape:
            raise DomainError("one weight per node required")
        # every check is written so that a NaN fails it
        if not np.all(np.diff(self.nodes) > 0):
            raise DomainError("grid nodes must be strictly increasing")
        if not np.all(np.abs(self.nodes) <= self.R):
            raise DomainError("grid nodes must lie in [-R, R]")
        if not np.all(self.weights > 0):
            raise DomainError("grid weights must be positive")
        with np.errstate(over="ignore"):  # an infinite sum fails the check below
            total = float(np.sum(self.weights))
        if not abs(total - 2.0 * self.R) <= 1e-10 * 2.0 * self.R:
            raise DomainError(
                f"weights sum to {total!r}, expected 2R = {2.0 * self.R!r}"
            )
        if not float(np.max(np.abs(self.nodes + self.nodes[::-1]))) <= 1e-14 * max(1.0, self.R):
            raise DomainError("grid nodes must be symmetric about zero")

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    @property
    def panels_per_side(self) -> int:
        return int(self.breakpoints.size - 1)


def is_mirror(grid: Grid) -> bool:
    """Even size, nodes[:h] == -nodes[h:][::-1] and palindromic weights, bitwise.

    Every grid built by :func:`grid_from_breakpoints` passes.
    """
    h, odd = divmod(grid.size, 2)
    return (not odd
            and np.array_equal(grid.nodes[:h], -grid.nodes[h:][::-1])
            and np.array_equal(grid.weights[:h], grid.weights[h:][::-1]))


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


def grid_from_breakpoints(breakpoints, grading: float = 1.0,
                          panel_order: int = DEFAULT_PANEL_ORDER) -> Grid:
    """Build a symmetric grid from explicit panel edges on [0, R].

    The first edge must be 0 and edges must be strictly increasing.  This is
    the primitive behind :func:`build_grid` and :func:`extend_grid`; use it
    directly when panel edges must align with features of the integrand
    (e.g. the endpoints of an indicator function).
    """
    if panel_order < 2:  # before the rule, which has no order below 1
        raise DomainError("panel order must be >= 2")
    edges = np.asarray(breakpoints, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise DomainError("need at least two panel edges")
    if edges[0] != 0.0:
        raise DomainError("first panel edge must be 0")
    if not np.all(np.diff(edges) > 0):
        raise DomainError("panel edges must be strictly increasing")
    pos_nodes, pos_weights = _panel_rule(edges, panel_order)
    nodes = np.concatenate([-pos_nodes[::-1], pos_nodes])
    weights = np.concatenate([pos_weights[::-1], pos_weights])
    return Grid(R=float(edges[-1]), nodes=nodes, weights=weights,
                grading=float(grading), panel_order=int(panel_order),
                breakpoints=edges)


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
    edges = lo + np.cumsum(first * grading ** np.arange(panels))
    edges[-1] = hi
    return edges


def half_line_breakpoints(R: float, panels: int, grading: float) -> np.ndarray:
    """Geometric panel edges on [0, R] with growth ratio ``grading``."""
    if not (np.isfinite(R) and R > 0):
        raise DomainError("truncation radius must be positive and finite")
    if not panels >= 1:
        raise DomainError("need at least one panel per side")
    if not (1 <= grading < np.inf):
        raise DomainError("panel grading must be finite and >= 1")
    return np.concatenate([[0.0], _geometric_fill(0.0, R, panels, grading)])


def build_grid(R: float, panels_per_side: int, grading: float = DEFAULT_GRADING,
               panel_order: int = DEFAULT_PANEL_ORDER) -> Grid:
    """Graded Gauss-Legendre mesh on [-R, R]."""
    edges = half_line_breakpoints(R, panels_per_side, grading)
    return grid_from_breakpoints(edges, grading=grading, panel_order=panel_order)


def extend_grid(grid: Grid, R_new: float, extra_panels: int = 2) -> Grid:
    """Enlarge a grid to [-R_new, R_new], reusing all existing breakpoints.

    The annulus (R, R_new] gets ``extra_panels`` new geometric panels with
    the grid's own growth ratio.  Because the inner breakpoints are reused
    verbatim, the inner nodes and weights of the result coincide bitwise
    with the original grid's: the grids nest.
    """
    if not (np.isfinite(R_new) and R_new > grid.R):
        raise DomainError("extension radius must exceed the current radius")
    if not extra_panels >= 1:
        raise DomainError("need at least one extension panel")
    new_edges = _geometric_fill(grid.R, R_new, extra_panels, grid.grading)
    edges = np.concatenate([grid.breakpoints, new_edges])
    return grid_from_breakpoints(edges, grading=grid.grading, panel_order=grid.panel_order)


def nested_grids(R_schedule, panels_per_side: int, grading: float = DEFAULT_GRADING,
                 panel_order: int = DEFAULT_PANEL_ORDER, extra_panels: int = 2) -> list[Grid]:
    """Nested grid family over an increasing truncation schedule."""
    schedule = [float(R) for R in R_schedule]
    if not schedule:
        raise DomainError("empty truncation schedule")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise DomainError("truncation schedule must be strictly increasing")
    grids = [build_grid(schedule[0], panels_per_side, grading, panel_order)]
    for R in schedule[1:]:
        grids.append(extend_grid(grids[-1], R, extra_panels))
    return grids


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
    R, panels, grading, order = args
    if not (float(panels).is_integer() and float(order).is_integer()):
        raise DomainError("panel count and order must be integers")
    return build_grid(R, int(panels), grading, int(order))
