"""Nystrom discretization between weighted spaces and operator-norm estimation.

Every discretized operator has the form diag(r) * K * diag(c): K is the
bare kernel on the node grid, the row scaling r = w_out^(1/p2) *
(1+|x|)^(w2/p2) carries the target quadrature and space weights, and the
column scaling c = w_in^(1/q1) * (1+|y|)^(-w1/p1) the source ones.  Only
the product is stored: ``assemble`` scales the one array ``kernel_eval``
returns in place, so K never exists beside it.  The weighted operator norm
then becomes a plain l^p1 -> l^p2 norm of a dense matrix, so all three
space families share one nonlinear power method (Boyd, "The power method
for l_p norms", 1974); p1 = p2 = 2 is its singular-value case.  The kernel
is evaluated here only by ``assemble``, whose core carries every norm, sweep
and test-function ratio, and by ``apply_operator``, (Kf)(x) at one point.

Even kernels on mirrored grids are stored and normed as one quadrant.  The
envelope and its cosine modulation are even in each variable, the scalings
r and c depend only on |x| and the quadrature weights, and every graded
grid is a bitwise mirror about 0.  The matrix is then [J; I] B [J, I], with
J the reversal and B its [0, R] x [0, R] quadrant, and its l^p1 -> l^p2 norm
is exactly 2^(1/p2 + 1/q1) ||B||.  ``assemble`` evaluates the kernel on B
only and the operator keeps B as its ``core`` (``mirrored`` is then true);
``restrict`` slices the leading block of B; the norm functions run the power
method on B and multiply its value by that factor once, at the end.  The
stop test compares each change with the value itself, so the factor cancels
from it: the iteration count and, up to rounding, the value are those of
the full matrix.  The full matrix is built from reversed copies of B only
when ``.matrix`` is read, which only the benchmark's tracer does.  The
alternating modulation, which is not even, and grids that are not bitwise
mirrors keep the full matrix as the core.

A norm starts from the all-ones vector unless it is given a start on the
core's columns; a sweep passes the previous radius's maximizer, padded with
zeros by ``zero_padded`` where ``restrict`` takes its block.

General p -> q matrix norms are NP-hard, so certification is restricted to
entrywise-nonnegative matrices, where the nonlinear power method converges
to the global maximizer; for sign-changing matrices the estimate is an
honest lower bound.  An operator scans its core for nonnegativity once
(``nonnegative``), and ``restrict`` passes a True result down to its blocks.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConvergenceError, DomainError, NumericalError
from .grids import Grid, fold, is_mirror, unfold
from .kernels import KernelSpec, kernel_eval
from .spaces import (SampledFunction, SpaceSpec, conjugate_exponent, weight_exponent,
                     weighted_norm)

POWER_TOL = 1e-10
POWER_MAX_ITER = 10000
_NORMAL_MIN = np.finfo(float).tiny  # smallest positive normal float


def check_finite_matrix(matrix: np.ndarray, what: str, offset: tuple[int, int] = (0, 0)) -> None:
    """Raise NumericalError naming ``what`` and the first non-finite entry.

    ``offset`` is the position of ``matrix`` in the matrix the message names.
    A finite sum has only finite terms, so one pass accepts almost every
    matrix; a non-finite sum is rescanned, since finite entries can overflow it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(matrix.sum()):
            return
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        i, j = bad[0] + offset
        raise NumericalError(f"non-finite {what} entry at ({int(i)}, {int(j)})")


def _as_matrix(matrix) -> np.ndarray:
    B = np.asarray(matrix, dtype=float)
    if B.ndim != 2 or B.size == 0:
        raise DomainError("need a non-empty 2-d matrix")
    check_finite_matrix(B, "matrix")
    return B


@dataclass(frozen=True, eq=False)
class DiscretizedOperator:
    """Scaled Nystrom matrix diag(r) * K * diag(c) tying two spaces and two grids.

    Entry (i, j) is r_i * K(x_i, y_j) * c_j with r_i = (w_i^out)^(1/p2) *
    (1+|x_i|)^(w2/p2) and c_j = (w_j^in)^(1/q1) * (1+|y_j|)^(-w1/p1), where
    w1, w2 are the weight exponents of the source and target spaces; by
    construction the l^p1 -> l^p2 norm of the matrix is the discretized
    weighted-operator norm.  ``core`` is the read-only array the power method
    runs on: the [0, R]^2 quadrant of a mirrored operator, else the full
    matrix, which is all the constructor takes (and copies and checks).
    """

    core: np.ndarray
    source_space: SpaceSpec
    target_space: SpaceSpec
    source_grid: Grid
    target_grid: Grid

    def __post_init__(self):
        core = np.array(self.core, dtype=float)
        core.flags.writeable = False
        object.__setattr__(self, "core", core)
        if core.shape != (self.target_grid.size, self.source_grid.size):
            raise DomainError(
                f"matrix shape {core.shape} does not match grids "
                f"({self.target_grid.size}, {self.source_grid.size})"
            )
        check_finite_matrix(core, "operator")

    @property
    def mirrored(self) -> bool:
        """True when ``core`` is the quadrant: half the grid sizes on each side."""
        return self.core.shape == (self.target_grid.size // 2, self.source_grid.size // 2)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The full read-only matrix; a mirrored core is unfolded on first read.

        No code in the package reads it: it is kept only for the benchmark's
        tracer, and goes when the tracer counts ``core`` instead.  Tests build
        their reference matrices themselves.
        """
        if not self.mirrored:
            return self.core
        matrix = unfold(unfold(self.core, axis=1), axis=0)
        matrix.flags.writeable = False
        return matrix

    def restrict(self, source_grid: Grid, target_grid: Grid) -> DiscretizedOperator:
        """The operator on grids nested in this one's, as a view of its core.

        Each grid must equal the centred slice of the matching grid of this
        operator, node for node and weight for weight, as the grids of one
        ``nested_grids`` family do.  Every entry depends only on its own row
        and column, so the centred block is exactly the matrix ``assemble``
        builds on the smaller grids.  The half-line nodes of the smaller grid
        are the leading ones of the larger, so a mirrored core restricts to
        its leading block.  The view is neither copied nor re-checked: this
        operator's core is already validated and read-only.
        """
        rows = self._block(self.target_grid, target_grid)
        cols = self._block(self.source_grid, source_grid)
        op = _trusted_operator(self.core[rows, cols], self.source_space, self.target_space,
                               source_grid, target_grid)
        if self.nonnegative:  # a block of a nonnegative core is nonnegative: no rescan
            op.__dict__["nonnegative"] = True
        return op

    @functools.cached_property
    def nonnegative(self) -> bool:
        """True when every entry of the core, hence of the matrix, is >= 0."""
        return bool(self.core.min() >= 0)

    def zero_padded(self, v: np.ndarray, source_grid: Grid) -> np.ndarray:
        """``v``, a vector on the core's columns of the restriction to
        ``source_grid``, padded with zeros onto this core's columns: it fills
        the entries ``restrict`` takes.
        """
        padded = np.zeros(self.core.shape[1])
        cols = self._block(self.source_grid, source_grid)
        if np.shape(v) != padded[cols].shape:
            raise DomainError(f"vector must have length {padded[cols].size}")
        padded[cols] = v
        return padded

    def _block(self, outer: Grid, inner: Grid) -> slice:
        """The index range along one axis of the core that a restriction from
        ``outer`` to ``inner`` keeps: the leading block of a mirrored core,
        the centred block of a full one.  DomainError unless nested.
        """
        start, odd = divmod(outer.size - inner.size, 2)
        block = slice(start, start + inner.size)
        if (start < 0 or odd
                or not np.array_equal(outer.nodes[block], inner.nodes)
                or not np.array_equal(outer.weights[block], inner.weights)):
            raise DomainError("grid is not the centred slice of the operator's grid")
        return slice(inner.size // 2) if self.mirrored else block


def _trusted_operator(core: np.ndarray, source: SpaceSpec, target: SpaceSpec,
                      source_grid: Grid, target_grid: Grid) -> DiscretizedOperator:
    """An operator around a read-only core that is already checked: no copy, no re-scan."""
    op = object.__new__(DiscretizedOperator)  # skips __init__ and its checks
    for attribute, value in zip(fields(DiscretizedOperator),
                                (core, source, target, source_grid, target_grid)):
        object.__setattr__(op, attribute.name, value)
    return op


def assemble(k: KernelSpec, source: SpaceSpec, target: SpaceSpec,
             source_grid: Grid, target_grid: Grid) -> DiscretizedOperator:
    """Assemble the scaled Nystrom matrix diag(r) * K * diag(c) between two spaces.

    An even kernel on two mirrored grids is evaluated on the lower-right
    quadrant only, which becomes the operator's core (see the module
    docstring); otherwise the core is the full matrix.  The kernel values
    are scaled in place, so the core is the only block-sized array kept
    (a modulated kernel needs one more while it is evaluated).
    """
    h = w = 0
    if k.even and is_mirror(target_grid) and is_mirror(source_grid):
        h, w = target_grid.size // 2, source_grid.size // 2
    x, y = target_grid.nodes[h:], source_grid.nodes[w:]
    with np.errstate(over="ignore"):
        rows = (target_grid.weights[h:] ** (1.0 / target.p)
                * (1.0 + np.abs(x)) ** (weight_exponent(target) / target.p))
        cols = (source_grid.weights[w:] ** (1.0 / conjugate_exponent(source.p))
                * (1.0 + np.abs(y)) ** (-weight_exponent(source) / source.p))
        core = kernel_eval(k, x[:, None], y[None, :])
        core *= rows[:, None]
        core *= cols[None, :]
    check_finite_matrix(core, "operator", offset=(h, w))
    core.flags.writeable = False
    return _trusted_operator(core, source, target, source_grid, target_grid)


def require_on_grid(f: SampledFunction, grid: Grid,
                    message: str = "function is not sampled on the given grid") -> None:
    """Raise DomainError with ``message`` unless ``f`` is sampled on the nodes of ``grid``."""
    if f.grid is not grid and not np.array_equal(f.grid.nodes, grid.nodes):
        raise DomainError(message)


def apply_operator(k: KernelSpec, f: SampledFunction, source_grid: Grid, x: float) -> float:
    """Quadrature approximation of (Kf)(x) at a single point."""
    if not math.isfinite(x):
        raise DomainError(f"evaluation point must be finite, got {x!r}")
    require_on_grid(f, source_grid)
    row = kernel_eval(k, float(x), source_grid.nodes)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises
        value = float(np.dot(source_grid.weights * row, f.values))
    if not math.isfinite(value):
        raise NumericalError(f"operator application overflowed at x = {x!r}")
    return value


def _norm_and_dual(u: np.ndarray, r: float) -> tuple[float, np.ndarray | None]:
    """(||u||_r, J_r(u)), with J_r(u) = |u|^(r-1) sign(u) / ||u||_r^(r-1) the unit
    vector in the dual norm, or (0, None).  Where |u|^r overflows, or underflows
    below the normal range, for a finite nonzero u, both come from u / max|u|:
    the norm is homogeneous of degree 1, J_r of degree 0.
    """
    magnitude = np.abs(u)
    total = np.sum(magnitude ** r)
    if not _NORMAL_MIN <= total < math.inf and 0.0 < (peak := float(magnitude.max())) < math.inf:
        norm, dual = _norm_and_dual(u / peak, r)
        return peak * norm, dual
    norm = float(total ** (1.0 / r))
    if norm == 0.0:
        return 0.0, None
    return norm, magnitude ** (r - 1.0) * np.sign(u) / norm ** (r - 1.0)


def _power_method(B: np.ndarray, p1: float, p2: float, tol: float, max_iter: int,
                  start: np.ndarray | None = None
                  ) -> tuple[float, bool, int, float, np.ndarray]:
    """Nonlinear power method for the l^p1 -> l^p2 norm of a finite matrix.

    Alternates v <- dual map of B^T (dual map of B v), from ``start``
    scaled to unit p1-norm or, by default, from the all-ones vector; at
    p1 = p2 = 2 this is power iteration on the Gram matrix.  Stops when
    ||B v||_p2 changes by at most ``tol`` times its value.  Returns (best
    value, converged, iterations, last change, maximizer); the maximizer is
    the unit-p1-norm iterate that reached the best value.  Without
    convergence the last change is the one that failed the stop test.  The
    zero matrix gives (0, True, 0, 0, start).  Bad exponents, limits or
    starts raise DomainError; a value that is not finite raises
    NumericalError.
    """
    if not (1 < p1 < math.inf) or not (1 < p2 < math.inf):
        raise DomainError("matrix norm exponents must lie in (1, inf)")
    if not (max_iter >= 1 and 0 <= tol < math.inf):
        raise DomainError(f"power method needs max_iter >= 1 and a finite tol >= 0, "
                          f"got max_iter = {max_iter!r}, tol = {tol!r}")
    q1 = conjugate_exponent(p1)
    n = B.shape[1]
    if start is None:
        v = np.full(n, n ** (-1.0 / p1))  # all-ones start, unit p1-norm
    else:
        v = np.asarray(start, dtype=float)
        if v.shape != (n,) or not np.all(np.isfinite(v)):
            raise DomainError(f"start must be a finite vector of length {n}")
        start_norm, _ = _norm_and_dual(v, p1)
        if start_norm == 0.0:
            raise DomainError("start must not be the zero vector")
        v = v / start_norm
    best, maximizer = 0.0, v
    gamma_prev = -np.inf
    delta = np.inf
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises
        for iteration in range(1, max_iter + 1):
            gamma, u_dual = _norm_and_dual(B @ v, p2)
            if not math.isfinite(gamma):
                raise NumericalError(f"operator norm overflows at iteration {iteration}")
            if gamma == 0.0:
                # the start happened to lie in the nullspace; restart from the
                # heaviest column, unless there is none
                column_sums = np.sum(np.abs(B), axis=0)
                if not column_sums.any():  # every unit vector is a maximizer
                    return 0.0, True, 0, 0.0, v
                v = np.zeros(n)
                v[int(np.argmax(column_sums))] = 1.0
                continue
            if gamma > best:
                best, maximizer = gamma, v
            delta = abs(gamma - gamma_prev)
            if delta <= tol * gamma:
                return best, True, iteration, delta, maximizer
            gamma_prev = gamma
            _, v = _norm_and_dual(B.T @ u_dual, q1)
    return best, False, max_iter, delta, maximizer


def largest_singular_value(matrix, tol: float = POWER_TOL,
                           max_iter: int = POWER_MAX_ITER) -> float:
    """Largest singular value: the p1 = p2 = 2 case of the power method.

    Raises ConvergenceError, with the iteration count, the last value and
    the change that failed the stop test, when the iteration does not
    converge within ``max_iter`` steps, whatever the matrix size.
    """
    value, converged, iterations, delta, _ = _power_method(_as_matrix(matrix), 2.0, 2.0,
                                                           tol, max_iter)
    if not converged:
        raise ConvergenceError(f"power iteration did not converge in {max_iter} iterations",
                               iterations=iterations, last_value=value, last_delta=delta)
    return value


@dataclass(frozen=True)
class PqNormEstimate:
    """Estimate of an l^p1 -> l^p2 matrix norm.

    ``certified`` means the fixed point is the global maximizer (entrywise
    nonnegative matrix, converged iteration); otherwise the value is a
    lower bound.  ``maximizer`` is the unit-p1-norm vector that reached the
    value, one entry per column of the matrix (of the core, for an
    operator); None only where an estimate is built by hand.
    """

    value: float
    certified: bool
    converged: bool
    iterations: int
    maximizer: np.ndarray | None = field(default=None, repr=False, compare=False)


def matrix_pq_norm(matrix, p1: float, p2: float, tol: float = POWER_TOL,
                   max_iter: int = POWER_MAX_ITER) -> PqNormEstimate:
    """l^p1 -> l^p2 matrix norm via the nonlinear power method.

    For entrywise nonnegative matrices the estimates increase to the global
    maximum.  On oscillation or non-convergence the best iterate is returned
    with ``converged`` (and hence ``certified``) False.
    """
    B = _as_matrix(matrix)
    return _pq_norm(B, p1, p2, tol, max_iter, nonnegative=bool(B.min() >= 0))


def _pq_norm(B: np.ndarray, p1: float, p2: float, tol: float, max_iter: int,
             nonnegative: bool, mirrored: bool = False,
             start: np.ndarray | None = None) -> PqNormEstimate:
    """Estimate from one power-method run on ``B``.  A mirrored core's value is
    multiplied once by 2^(1/p2 + 1/q1) (see the module docstring); NumericalError
    if that product overflows."""
    value, converged, iterations, _, maximizer = _power_method(B, p1, p2, tol, max_iter,
                                                               start)
    if mirrored:
        value *= 2.0 ** (1.0 / p2 + 1.0 / conjugate_exponent(p1))
        if not math.isfinite(value):
            raise NumericalError("operator norm overflows")
    return PqNormEstimate(value, certified=converged and nonnegative, converged=converged,
                          iterations=iterations, maximizer=maximizer)


def operator_norm_pq(op: DiscretizedOperator, tol: float = POWER_TOL,
                     max_iter: int = POWER_MAX_ITER,
                     start: np.ndarray | None = None) -> PqNormEstimate:
    """Discretized weighted-operator norm for general (p1, p2).

    The power method runs on ``op.core``, from ``start`` (a vector on the
    core's columns, e.g. a smaller radius's maximizer ``op.zero_padded``)
    or, by default, from the all-ones vector.
    """
    return _pq_norm(op.core, op.source_space.p, op.target_space.p, tol, max_iter,
                    op.nonnegative, op.mirrored, start)


def empirical_ratio(op: DiscretizedOperator, f: SampledFunction) -> float:
    """||Kf||_target / ||f||_source for a function sampled on the source grid.

    The core maps u = f * w^(1/p1) * (1+|y|)^(w1/p1) to the target-weighted
    image r * Kf; a mirrored core takes u folded onto the half line and
    gives half of the even image, whose norm is scaled by 2^(1/p2).  A ratio
    that is not finite raises NumericalError.
    """
    require_on_grid(f, op.source_grid)
    source, target, grid = op.source_space, op.target_space, op.source_grid
    denominator = weighted_norm(f, source)
    if denominator == 0.0:
        raise DomainError("test function has zero source norm")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite ratio raises
        u = (f.values * grid.weights ** (1.0 / source.p)
             * (1.0 + np.abs(grid.nodes)) ** (weight_exponent(source) / source.p))
        if op.mirrored:
            u = fold(u)
        image_norm, _ = _norm_and_dual(op.core @ u, target.p)  # rescales on overflow
        ratio = image_norm * (2.0 ** (1.0 / target.p) if op.mirrored else 1.0) / denominator
    if not math.isfinite(ratio):
        raise NumericalError("empirical ratio is not finite: the image overflows")
    return ratio
