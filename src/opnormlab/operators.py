"""Nystrom discretization between weighted spaces and operator-norm estimation.

Every discretized operator has the form diag(r) * K * diag(c) on one node
grid, which samples both the source and the target space: K is the bare
kernel on the grid, the row scaling r = w^(1/p2) * (1+|x|)^(w2/p2) carries
the quadrature weights w and the target space's weight, and the column
scaling c = w^(1/q1) * (1+|x|)^(-w1/p1) the source one.  An operator keeps
K as its ``core`` and r and c as the O(n) vectors ``rows`` and ``cols``;
the product is never stored, and every product with the operator is
r * (K (c * v)) or, transposed, c * (K^T (r * u)).  The weighted operator
norm is a plain l^p1 -> l^p2 norm of that matrix, so all three space
families share one nonlinear power method (Boyd, "The power method for l_p
norms", 1974); p1 = p2 = 2 is its singular-value case.  A plain matrix
(``matrix_pq_norm``, ``largest_singular_value``) runs that loop between
unit scalings, and x * 1.0 is x, so bitwise as if they were not there.
Operators are made in two places only: ``assemble`` builds one from the
kernel, and ``restrict`` takes a view of one on a nested grid.  The kernel
is evaluated here only by ``assemble``, whose core carries every norm,
sweep and test-function ratio, and by ``apply_operator``, (Kf)(x) at one
point.

Every kernel of the lab is symmetric, K(x, y) = K(y, x), and the one grid
samples both spaces, so K is a symmetric matrix: ``assemble`` evaluates its
upper triangle in row blocks of at most ``_BLOCK_ENTRIES`` values and copies
it into the lower triangle, so the core is exactly symmetric, half of the
kernel work is saved, and a modulated kernel's scratch is one block, not a
second core.

Even kernels are stored and normed as one quadrant.  The envelope and its
cosine modulation are even in each variable, the scalings r and c depend
only on |x| and the quadrature weights, and every grid is a bitwise mirror
about 0 by construction.  The matrix is then [J; I] B [J, I], with
J the reversal and B its [0, R] x [0, R] quadrant, and its l^p1 -> l^p2 norm
is exactly 2^(1/p2 + 1/q1) ||B||.  ``assemble`` evaluates the kernel on the
half line only, the operator keeps that quadrant of K as its ``core`` and
the half-line scalings (``mirrored`` is then true); ``restrict`` slices the
leading block of the core and of each scaling; the power method runs on B
and multiplies its value by that factor once, at the end.
The stop test compares each change with the value itself, so the factor
cancels from it: the iteration count and, up to rounding, the value are
those of the full matrix.  The alternating modulation, which is not even,
keeps the full K as the core.  ``.matrix``, the full scaled matrix, is
built only when it is read, which only the benchmark's tracer does.

One function, ``_power_method``, runs the loop, applies the mirror factor
and decides ``certified``; it alone builds an estimate and sets its image.
A norm starts from the all-ones vector unless it is given a sweep's
previous estimate.  A sweep takes one nesting step per radius: ``restrict``
views the block of the largest core, and of its scalings, that the
radius's grid keeps, once ``grids.nested_slice`` has tested the nesting by
panel edges, and from the second radius on ``_warm_start`` places the
previous radius's estimate in that view by its length alone, since
``restrict`` checked both radii against the same parent: its maximizer,
padded with zeros around the previous block, is the start, and its image
fills that block's rows of the start's image, so only the new rows are
computed and the first iterate costs a product with them alone.

General p -> q matrix norms are NP-hard, so certification is restricted to
entrywise-nonnegative matrices, where the nonlinear power method converges
to the global maximizer; for sign-changing matrices the estimate is an
honest lower bound.  The scalings are nonnegative, so an operator is
nonnegative when its core is, and ``nonnegative`` is decided where the
core is made: an unmodulated kernel is positive, so ``assemble`` sets it
without a scan, and a modulated one's comes from the pass over K that
bounds its entries; ``restrict`` passes a True value down to its blocks
and scans a block of any other core once.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, NumericalError
from .grids import Grid, fold, nested_slice, unfold
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
    """Scaled Nystrom matrix diag(r) * K * diag(c) between two spaces on one grid.

    Entry (i, j) is r_i * K(x_i, x_j) * c_j with r_i = w_i^(1/p2) *
    (1+|x_i|)^(w2/p2) and c_j = w_j^(1/q1) * (1+|x_j|)^(-w1/p1), where x and
    w are the grid's nodes and weights and w1, w2 the weight exponents of the
    source and target spaces; by construction the l^p1 -> l^p2 norm of the
    matrix is the discretized weighted-operator norm.  ``core`` is the array
    the power method runs on, K on the [0, R]^2 quadrant of a mirrored
    operator, else on the whole grid, ``rows`` and ``cols`` are r and c on
    the core's rows and columns, and ``nonnegative`` says every entry of the
    core, hence of the matrix, is >= 0 (the scalings are).  ``assemble`` and
    ``restrict`` make every operator: they decide ``nonnegative`` where they
    make the core, and hand in finite, read-only arrays.  The constructor
    checks shapes only, in O(1): a square core of the grid's size or half of
    it, and scalings of the core's side, else DomainError.  It copies
    nothing and scans no entry.
    """

    core: np.ndarray
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    source_space: SpaceSpec
    target_space: SpaceSpec
    grid: Grid
    nonnegative: bool

    def __post_init__(self):
        n, shape = self.grid.size, np.shape(self.core)
        side = shape[0] if len(shape) == 2 and shape[0] == shape[1] else None
        if side not in (n, n // 2) or not np.shape(self.rows) == np.shape(self.cols) == (side,):
            raise DomainError(f"core of shape {shape}, scalings of shapes {np.shape(self.rows)} "
                              f"and {np.shape(self.cols)}: a grid of {n} nodes needs a square "
                              f"core of side {n} or {n // 2} and scalings of that length")

    @property
    def mirrored(self) -> bool:
        """True when ``core`` is the quadrant: half the grid size on each side."""
        return self.core.shape[0] == self.grid.size // 2

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The full scaled matrix, read-only, built on first read (a mirrored
        core unfolded).

        No code in the package reads it: it is kept only for the benchmark's
        tracer, and goes when the tracer counts ``core`` instead.  Tests build
        their reference matrices themselves.
        """
        matrix = self.rows[:, None] * self.core * self.cols[None, :]
        if self.mirrored:
            matrix = unfold(unfold(matrix, axis=1), axis=0)
        matrix.flags.writeable = False
        return matrix

    def restrict(self, grid: Grid) -> DiscretizedOperator:
        """The operator on a grid nested in this one's, as a view of its core.

        ``grid`` must nest in this operator's grid as the grids of one
        ``nested_grids`` family do; ``grids.nested_slice`` tests that by
        panel edges and order, else DomainError.  Every kernel value depends
        only on its two nodes, and each scaling on its own node and weight,
        so the centred block of the core and the matching slices of the
        scalings are exactly what ``assemble`` builds on the smaller grid.
        The half-line nodes of the smaller grid are the leading ones of the
        larger, so a mirrored operator restricts to its leading block.  The
        views are neither copied nor re-checked: this operator's arrays are
        already validated and read-only.  A block of a nonnegative core is
        nonnegative; any other block is scanned once, so ``nonnegative`` is
        the value ``assemble`` gives on the smaller grid.
        """
        block = nested_slice(self.grid, grid)
        if self.mirrored:
            block = slice(0, grid.size // 2)
        core = self.core[block, block]
        return DiscretizedOperator(core, self.rows[block], self.cols[block], self.source_space,
                                   self.target_space, grid,
                                   self.nonnegative or bool(core.min() >= 0))

    def _warm_start(self, estimate: PqNormEstimate) -> tuple[np.ndarray, np.ndarray | None]:
        """(start, image) for this operator's norm from ``estimate``, the norm of
        a smaller restriction of the same parent, which ``restrict`` checked,
        so the estimate's length alone places it: in the leading block of a
        mirrored core, the centred block of a full one.  ``start`` is the
        maximizer padded with zeros.  ``image`` is rows * (core @ (cols *
        start)): the estimate's image in that block's rows, and only the new
        rows computed; None when the estimate has no image (a zero core, or
        one built by hand).  DomainError unless the maximizer is a finite,
        nonzero 1-d array no longer than the core's side.
        """
        v, kept = np.asarray(estimate.maximizer, dtype=float), estimate.image
        n = self.core.shape[0]
        if v.ndim != 1 or v.size > n or not np.isfinite(v).all() or not v.any():
            raise DomainError(f"a previous estimate needs a finite nonzero maximizer of at "
                              f"most {n} entries")
        first = 0 if self.mirrored else (n - v.size) // 2
        block = slice(first, first + v.size)
        start = np.zeros(n)
        start[block] = v
        if kept is None:
            return start, None
        before, after = (_apply(self.core[rows, block], self.rows[rows], self.cols[block], v)
                         for rows in (slice(0, block.start), slice(block.stop, None)))
        return start, np.concatenate([before, kept, after])


# kernel values per assembly block: 32 KB of scratch, as much again for a
# modulation's factor, and numpy's buffers for the broadcast sum 1+|x|+|y|,
# which are twice the block at this size
_BLOCK_ENTRIES = 4096
# rows per strip of the lower triangle's copy, which needs no scratch, and
# the strictly lower triangle of a strip's diagonal square
_STRIP_ROWS = 64
_LOWER = np.tri(_STRIP_ROWS, k=-1, dtype=bool)


def assemble(k: KernelSpec, source: SpaceSpec, target: SpaceSpec,
             grid: Grid) -> DiscretizedOperator:
    """Assemble the Nystrom operator diag(r) * K * diag(c) between two spaces.

    An even kernel is evaluated on the half line only, and its quadrant of
    K becomes the operator's core (see the module docstring); the
    alternating modulation's core is the full K.  Every kernel is symmetric,
    so the upper triangle is evaluated, in row blocks of at most
    ``_BLOCK_ENTRIES`` values (one row at least), and the lower triangle is
    copied from it: the core is exactly symmetric, and it is the only n x n
    array.  One pass over K bounds the entries (two for a modulated kernel,
    which also yield ``nonnegative``; an unmodulated one is positive):
    r_i K_ij c_j is at most max r * max|K| * max c, as rounding is
    monotone, so a finite bound proves every entry finite, and only a bound
    that is not finite scans the entries, to name the first bad one.  No
    scaling pass runs over K.
    """
    h = grid.size // 2 if k.even else 0
    x, w = grid.nodes[h:], grid.weights[h:]
    n = x.size
    core = np.empty((n, n))
    i = 0
    while i < n:  # the upper triangle, in row blocks that start on the diagonal
        j = min(n, i + max(1, _BLOCK_ENTRIES // (n - i)))
        core[i:j, i:] = kernel_eval(k, x[i:j, None], x[None, i:])
        i = j
    for i in range(0, n, _STRIP_ROWS):  # the lower triangle from the upper one
        j = min(n, i + _STRIP_ROWS)
        square = core[i:j, i:j]  # below its diagonal: swapped arguments, or unset
        np.copyto(square, square.T, where=_LOWER[:j - i, :j - i])
        core[j:, i:j] = core[i:j, j:].T
    top = core.max()  # NaN if any entry is
    bottom = 0.0 if k.modulation == "none" else core.min()  # the envelope is positive
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check reports
        base = 1.0 + np.abs(x)
        rows = w ** (1.0 / target.p) * base ** (weight_exponent(target) / target.p)
        cols = (w ** (1.0 / conjugate_exponent(source.p))
                * base ** (-weight_exponent(source) / source.p))
        bound = rows.max() * max(top, -bottom) * cols.max()
        if not math.isfinite(bound):
            check_finite_matrix(rows[:, None] * core * cols[None, :], "operator",
                                offset=(h, h))
    core.flags.writeable = rows.flags.writeable = cols.flags.writeable = False
    return DiscretizedOperator(core, rows, cols, source, target, grid, bool(bottom >= 0.0))


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


def _apply(B: np.ndarray, rows: np.ndarray, cols: np.ndarray, v: np.ndarray) -> np.ndarray:
    """diag(rows) B diag(cols) times v, as rows * (B @ (cols * v)), never formed;
    ``_apply(B.T, cols, rows, u)`` is the transposed product."""
    return rows * (B @ (cols * v))


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


def _power_method(B: np.ndarray, p1: float, p2: float, nonnegative: bool,
                  mirrored: bool = False, start: np.ndarray | None = None,
                  image: np.ndarray | None = None, rows: np.ndarray | None = None,
                  cols: np.ndarray | None = None) -> PqNormEstimate:
    """Nonlinear power method for the l^p1 -> l^p2 norm of a finite matrix.

    The matrix is A = diag(``rows``) B diag(``cols``), applied through
    ``_apply`` and never formed; the scalings default to ones,
    and x * 1.0 is x, so a plain matrix runs bitwise as if they were absent.
    Alternates v <- dual map of A^T (dual map of A v), from ``start``
    scaled to unit p1-norm or, by default, from the all-ones vector; at
    p1 = p2 = 2 this is power iteration on the Gram matrix.  ``image``, if
    given, is A @ ``start``: it is scaled with the start and stands in for
    the first product A v.  Stops by the laboratory's one rule, read at call
    time: when ||A v||_p2 changes by at most ``POWER_TOL`` times its value,
    or after ``POWER_MAX_ITER`` steps.  The estimate's maximizer is the
    unit-p1-norm iterate that reached the best value, and its image is
    A @ maximizer; a ``mirrored`` core's value is multiplied by 2^(1/p2 +
    1/q1) once, and it is ``certified`` when converged and ``nonnegative``.
    The zero matrix gives 0 after 0 iterations, with the start as maximizer
    and no image.  Bad exponents raise DomainError; a value that is not
    finite, with the mirror factor or without, raises NumericalError.
    """
    if not (1 < p1 < math.inf) or not (1 < p2 < math.inf):
        raise DomainError("matrix norm exponents must lie in (1, inf)")
    q1 = conjugate_exponent(p1)
    m, n = B.shape
    r = np.ones(m) if rows is None else rows
    c = np.ones(n) if cols is None else cols
    if start is None:
        v = np.full(n, n ** (-1.0 / p1))  # all-ones start, unit p1-norm
    else:
        start_norm, _ = _norm_and_dual(start, p1)
        v = start / start_norm
    best, maximizer, best_image = 0.0, v, None
    gamma_prev = -np.inf
    converged = True
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises
        u = _apply(B, r, c, v) if image is None else image / start_norm
        for iteration in range(1, POWER_MAX_ITER + 1):
            if iteration > 1:
                u = _apply(B, r, c, v)
            gamma, u_dual = _norm_and_dual(u, p2)
            if not math.isfinite(gamma):
                raise NumericalError(f"operator norm overflows at iteration {iteration}")
            if gamma == 0.0:
                # the start happened to lie in the nullspace; restart from the
                # heaviest column, unless there is none
                column_sums = np.sum(np.abs(B) * r[:, None], axis=0) * c
                if not column_sums.any():  # every unit vector is a maximizer
                    iteration, delta = 0, 0.0
                    break
                v = np.zeros(n)
                v[int(np.argmax(column_sums))] = 1.0
                continue
            if gamma > best:
                best, maximizer, best_image = gamma, v, u
            delta = abs(gamma - gamma_prev)
            if delta <= POWER_TOL * gamma:
                break
            gamma_prev = gamma
            _, v = _norm_and_dual(_apply(B.T, c, r, u_dual), q1)
        else:
            converged = False
    if mirrored:
        best *= 2.0 ** (1.0 / p2 + 1.0 / q1)
        if not math.isfinite(best):
            raise NumericalError("operator norm overflows")
    estimate = PqNormEstimate(best, certified=converged and nonnegative, converged=converged,
                              iterations=iteration, maximizer=maximizer, last_change=delta)
    object.__setattr__(estimate, "image", best_image)
    return estimate


def largest_singular_value(matrix) -> float:
    """Largest singular value: the p1 = p2 = 2 case of the power method.

    Raises ConvergenceError, with the iteration count, the last value and
    the change that failed the stop test, when the iteration does not
    converge within ``POWER_MAX_ITER`` steps, whatever the matrix size.
    """
    estimate = _power_method(_as_matrix(matrix), 2.0, 2.0, nonnegative=False)  # certified unread
    if not estimate.converged:
        raise ConvergenceError(
            f"power iteration did not converge in {estimate.iterations} iterations",
            iterations=estimate.iterations, last_value=estimate.value,
            last_delta=estimate.last_change)
    return estimate.value


@dataclass(frozen=True)
class PqNormEstimate:
    """Estimate of an l^p1 -> l^p2 matrix norm.

    ``certified`` means the fixed point is the global maximizer (entrywise
    nonnegative matrix, converged iteration); otherwise the value is a
    lower bound.  ``maximizer`` is the unit-p1-norm vector that reached the
    value, one entry per column of the matrix (of the core, for an
    operator); None only where an estimate is built by hand.  ``image`` is
    the matrix (the scaled core) times ``maximizer``, one entry per row; only
    ``_power_method`` sets it, so it is None on a hand-built estimate, and
    for a zero matrix, where no iterate reached a positive value.
    ``last_change`` is the value's last change, the one that failed the stop
    test if the run did not converge.
    """

    value: float
    certified: bool
    converged: bool
    iterations: int
    maximizer: np.ndarray | None = field(default=None, repr=False, compare=False)
    last_change: float = field(default=math.nan, repr=False, compare=False)
    image: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)


def matrix_pq_norm(matrix, p1: float, p2: float) -> PqNormEstimate:
    """l^p1 -> l^p2 matrix norm via the nonlinear power method.

    For entrywise nonnegative matrices the estimates increase to the global
    maximum.  On oscillation or non-convergence the best iterate is returned
    with ``converged`` (and hence ``certified``) False.
    """
    B = _as_matrix(matrix)
    return _power_method(B, p1, p2, nonnegative=bool(B.min() >= 0))


def operator_norm_pq(op: DiscretizedOperator,
                     previous: PqNormEstimate | None = None) -> PqNormEstimate:
    """Discretized weighted-operator norm for general (p1, p2).

    The power method runs on ``op.core`` between ``op.rows`` and
    ``op.cols`` and stops by the laboratory's one rule, ``POWER_TOL`` and
    ``POWER_MAX_ITER``.  It starts from the all-ones vector or from
    ``previous``, the estimate this function returned for a smaller
    restriction of the same parent (a sweep's previous radius), which
    ``op._warm_start`` places: its zero-padded maximizer is the start, and
    its image saves the first product on the rows it covers.  An estimate of
    another operator is not detected: no estimate keeps its core alive.
    """
    start, image = (None, None) if previous is None else op._warm_start(previous)
    return _power_method(op.core, op.source_space.p, op.target_space.p, op.nonnegative,
                         op.mirrored, start, image, op.rows, op.cols)


def empirical_ratio(op: DiscretizedOperator, f: SampledFunction) -> float:
    """||Kf||_target / ||f||_source for a function sampled on the operator's grid.

    The operator maps u = f * w^(1/p1) * (1+|y|)^(w1/p1) to the
    target-weighted image r * Kf; a mirrored core takes u folded onto the
    half line and gives half of the even image, whose norm is scaled by
    2^(1/p2).  A ratio that is not finite raises NumericalError.
    """
    require_on_grid(f, op.grid)
    source, target, grid = op.source_space, op.target_space, op.grid
    denominator = weighted_norm(f, source)
    if denominator == 0.0:
        raise DomainError("test function has zero source norm")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite ratio raises
        u = (f.values * grid.weights ** (1.0 / source.p)
             * (1.0 + np.abs(grid.nodes)) ** (weight_exponent(source) / source.p))
        if op.mirrored:
            u = fold(u)
        image_norm, _ = _norm_and_dual(_apply(op.core, op.rows, op.cols, u),
                                       target.p)  # rescales on overflow
        ratio = image_norm * (2.0 ** (1.0 / target.p) if op.mirrored else 1.0) / denominator
    if not math.isfinite(ratio):
        raise NumericalError("empirical ratio is not finite: the image overflows")
    return ratio
