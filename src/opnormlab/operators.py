"""Nystrom discretization between weighted spaces and operator-norm estimation.

Every discretized operator has the form diag(r) * K * diag(c): K is the
bare kernel on the node grid, the row scaling r = w_out^(1/p2) *
(1+|x|)^(w2/p2) carries the target quadrature and space weights, and the
column scaling c = w_in^(1/q1) * (1+|y|)^(-w1/p1) the source ones.  The
weighted operator norm then becomes a plain l^p1 -> l^p2 norm of a dense
matrix, so all three space families share one nonlinear power method
(Boyd, "The power method for l_p norms", 1974); p1 = p2 = 2 is its
singular-value case.

General p -> q matrix norms are NP-hard, so certification is restricted to
entrywise-nonnegative matrices, where the nonlinear power method converges
to the global maximizer; for sign-changing matrices the estimate is an
honest lower bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, NumericalError
from .grids import Grid
from .kernels import KernelSpec, kernel_eval
from .spaces import (SampledFunction, SpaceSpec, conjugate_exponent, weight_exponent,
                     weighted_norm)

DENSE_FALLBACK_DIM = 500
POWER_TOL = 1e-10
POWER_MAX_ITER = 10000


def _check_finite_matrix(matrix: np.ndarray, what: str) -> None:
    # A finite sum has only finite terms, so one pass accepts almost every
    # matrix; a non-finite sum is rescanned, since finite entries can overflow it.
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(matrix.sum()):
            return
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        i, j = bad[0]
        raise NumericalError(f"non-finite {what} entry at ({int(i)}, {int(j)})")


def _as_matrix(matrix) -> np.ndarray:
    B = np.asarray(matrix, dtype=float)
    if B.ndim != 2 or B.size == 0:
        raise DomainError("need a non-empty 2-d matrix")
    _check_finite_matrix(B, "matrix")
    return B


@dataclass(frozen=True, eq=False)
class DiscretizedOperator:
    """Scaled Nystrom matrix diag(r) * K * diag(c) tying two spaces and two grids.

    Entry (i, j) is r_i * K(x_i, y_j) * c_j with r_i = (w_i^out)^(1/p2) *
    (1+|x_i|)^(w2/p2) and c_j = (w_j^in)^(1/q1) * (1+|y_j|)^(-w1/p1), where
    w1, w2 are the weight exponents of the source and target spaces; by
    construction the l^p1 -> l^p2 norm of the matrix is the discretized
    weighted-operator norm.
    """

    matrix: np.ndarray
    source_space: SpaceSpec
    target_space: SpaceSpec
    source_grid: Grid
    target_grid: Grid

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        if mat.shape != (self.target_grid.size, self.source_grid.size):
            raise DomainError(
                f"matrix shape {mat.shape} does not match grids "
                f"({self.target_grid.size}, {self.source_grid.size})"
            )
        _check_finite_matrix(mat, "operator")

    def restrict(self, source_grid: Grid, target_grid: Grid) -> DiscretizedOperator:
        """The operator on grids nested in this one's, as a view of its matrix.

        Each grid must equal the centred slice of the matching grid of this
        operator, node for node and weight for weight, as the grids of one
        ``nested_grids`` family do.  Every entry depends only on its own row
        and column, so the centred block is exactly the matrix ``assemble``
        builds on the smaller grids.  It is neither copied nor re-checked:
        this operator's matrix is already validated and read-only.
        """
        rows = _centred_block(self.target_grid, target_grid)
        cols = _centred_block(self.source_grid, source_grid)
        view = object.__new__(DiscretizedOperator)  # skips __post_init__'s copy and scan
        vars(view).update(matrix=self.matrix[rows, cols], source_space=self.source_space,
                          target_space=self.target_space, source_grid=source_grid,
                          target_grid=target_grid)
        return view


def _centred_block(outer: Grid, inner: Grid) -> slice:
    """Index range of ``inner`` inside ``outer``; DomainError unless nested."""
    start, odd = divmod(outer.size - inner.size, 2)
    block = slice(start, start + inner.size)
    if (start < 0 or odd
            or not np.array_equal(outer.nodes[block], inner.nodes)
            or not np.array_equal(outer.weights[block], inner.weights)):
        raise DomainError("grid is not the centred slice of the operator's grid")
    return block


def assemble(k: KernelSpec, source: SpaceSpec, target: SpaceSpec,
             source_grid: Grid, target_grid: Grid) -> DiscretizedOperator:
    """Assemble the scaled Nystrom matrix diag(r) * K * diag(c) between two spaces."""
    x, y = target_grid.nodes, source_grid.nodes
    with np.errstate(over="ignore"):
        rows = (target_grid.weights ** (1.0 / target.p)
                * (1.0 + np.abs(x)) ** (weight_exponent(target) / target.p))
        cols = (source_grid.weights ** (1.0 / conjugate_exponent(source.p))
                * (1.0 + np.abs(y)) ** (-weight_exponent(source) / source.p))
        # one expression: a name would keep the n x n kernel values alive
        # next to the scaled matrix and the operator's frozen copy of it
        matrix = rows[:, None] * kernel_eval(k, x[:, None], y[None, :]) * cols[None, :]
    return DiscretizedOperator(matrix, source, target, source_grid, target_grid)


def _require_on_grid(f: SampledFunction, grid: Grid) -> None:
    if f.grid is not grid and not np.array_equal(f.grid.nodes, grid.nodes):
        raise DomainError("function is not sampled on the given grid")


def apply_operator(k: KernelSpec, f: SampledFunction, source_grid: Grid, x: float) -> float:
    """Quadrature approximation of (Kf)(x) at a single point."""
    _require_on_grid(f, source_grid)
    row = kernel_eval(k, float(x), source_grid.nodes)
    value = float(np.dot(source_grid.weights * row, f.values))
    if not math.isfinite(value):
        raise NumericalError(f"operator application overflowed at x = {x!r}")
    return value


def apply_operator_samples(k: KernelSpec, f: SampledFunction, source_grid: Grid,
                           target_grid: Grid) -> SampledFunction:
    """(Kf) sampled on all the target grid nodes."""
    _require_on_grid(f, source_grid)
    kernel_matrix = kernel_eval(k, target_grid.nodes[:, None], source_grid.nodes[None, :])
    values = kernel_matrix @ (source_grid.weights * f.values)
    return SampledFunction(target_grid, values, tag=None)


def _dual_map(u: np.ndarray, r: float) -> np.ndarray:
    # J_r(u) = |u|^(r-1) sign(u) / ||u||_r^(r-1); unit vector in the dual norm.
    norm = np.sum(np.abs(u) ** r) ** (1.0 / r)
    return np.abs(u) ** (r - 1.0) * np.sign(u) / norm ** (r - 1.0)


def _power_method(B: np.ndarray, p1: float, p2: float, tol: float,
                  max_iter: int) -> tuple[float, bool, int, float]:
    """Nonlinear power method for the l^p1 -> l^p2 norm of a finite matrix.

    Alternates v <- dual map of B^T (dual map of B v) from the all-ones
    start; at p1 = p2 = 2 this is power iteration on the Gram matrix.  Stops
    when ||B v||_p2 changes by less than ``tol`` (relative above 1).  Returns
    (best value, converged, iterations, last change); without convergence
    the last change is the one that failed the stop test.  The zero matrix
    gives (0, True, 0, 0).
    """
    q1 = conjugate_exponent(p1)
    n = B.shape[1]
    v = np.full(n, n ** (-1.0 / p1))  # all-ones start, unit p1-norm
    best = 0.0
    gamma_prev = -np.inf
    delta = np.inf
    for iteration in range(1, max_iter + 1):
        u = B @ v
        gamma = float(np.sum(np.abs(u) ** p2) ** (1.0 / p2))
        if gamma == 0.0:
            # the start happened to lie in the nullspace; restart from the
            # heaviest column, unless there is none
            column_sums = np.sum(np.abs(B), axis=0)
            if not column_sums.any():
                return 0.0, True, 0, 0.0
            v = np.zeros(n)
            v[int(np.argmax(column_sums))] = 1.0
            continue
        best = max(best, gamma)
        delta = abs(gamma - gamma_prev)
        if delta <= tol * max(1.0, gamma):
            return best, True, iteration, delta
        gamma_prev = gamma
        z = B.T @ _dual_map(u, p2)
        v = _dual_map(z, q1)
    return best, False, max_iter, delta


def largest_singular_value(matrix, tol: float = POWER_TOL,
                           max_iter: int = POWER_MAX_ITER) -> float:
    """Largest singular value: the p1 = p2 = 2 case of the power method.

    On non-convergence falls back to a dense decomposition when
    min(shape) <= 500, otherwise raises ConvergenceError with iterate
    diagnostics.
    """
    return _largest_singular_value(_as_matrix(matrix), tol, max_iter)


def _largest_singular_value(B: np.ndarray, tol: float, max_iter: int) -> float:
    sigma, converged, iterations, delta = _power_method(B, 2.0, 2.0, tol, max_iter)
    if converged:
        return sigma
    if min(B.shape) <= DENSE_FALLBACK_DIM:
        return float(np.linalg.svd(B, compute_uv=False)[0])
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations",
        iterations=iterations, last_value=sigma, last_delta=delta,
    )


@dataclass(frozen=True)
class PqNormEstimate:
    """Estimate of an l^p1 -> l^p2 matrix norm.

    ``certified`` means the fixed point is the global maximizer (entrywise
    nonnegative matrix, converged iteration); otherwise the value is a
    lower bound.
    """

    value: float
    certified: bool
    converged: bool
    iterations: int


def matrix_pq_norm(matrix, p1: float, p2: float, tol: float = POWER_TOL,
                   max_iter: int = POWER_MAX_ITER) -> PqNormEstimate:
    """l^p1 -> l^p2 matrix norm via the nonlinear power method.

    For entrywise nonnegative matrices the estimates increase to the global
    maximum.  On oscillation or non-convergence the best iterate is returned
    with ``converged`` (and hence ``certified``) False.
    """
    return _pq_norm(_as_matrix(matrix), p1, p2, tol, max_iter)


def _pq_norm(B: np.ndarray, p1: float, p2: float, tol: float,
             max_iter: int) -> PqNormEstimate:
    if not (1 < p1 < math.inf) or not (1 < p2 < math.inf):
        raise DomainError("matrix norm exponents must lie in (1, inf)")
    value, converged, iterations, _ = _power_method(B, p1, p2, tol, max_iter)
    return PqNormEstimate(value, certified=converged and bool(B.min() >= 0),
                          converged=converged, iterations=iterations)


def operator_norm_22(op: DiscretizedOperator, tol: float = POWER_TOL,
                     max_iter: int = POWER_MAX_ITER) -> float:
    """Discretized weighted-operator norm in the p1 = p2 = 2 case."""
    if op.source_space.p != 2.0 or op.target_space.p != 2.0:
        raise DomainError("operator_norm_22 requires p = 2 on both sides")
    # the operator's matrix is validated once, when the operator is built
    return _largest_singular_value(op.matrix, tol, max_iter)


def operator_norm_pq(op: DiscretizedOperator, tol: float = POWER_TOL,
                     max_iter: int = POWER_MAX_ITER) -> PqNormEstimate:
    """Discretized weighted-operator norm for general (p1, p2)."""
    return _pq_norm(op.matrix, op.source_space.p, op.target_space.p, tol, max_iter)


def empirical_ratio(k: KernelSpec, f: SampledFunction, source: SpaceSpec,
                    target: SpaceSpec, source_grid: Grid, target_grid: Grid) -> float:
    """||Kf||_target / ||f||_source for one concrete test function."""
    denominator = weighted_norm(f, source)
    if denominator == 0.0:
        raise DomainError("test function has zero source norm")
    image = apply_operator_samples(k, f, source_grid, target_grid)
    return weighted_norm(image, target) / denominator
