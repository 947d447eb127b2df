"""Dense solver for the coupled pair of one-dimensional integral equations.

The two unknowns C and D live on two independent meshes and are tied
together by

    integral K1(t, u) C(t) dt + D(u) = F(u)        (u on grid 2)
    C(t) + integral K2(t, u) D(u) du = G(t)        (t on grid 1)

with envelope-class coupling kernels.  Discretizing both couplings by
Nystrom quadrature and stacking the unknown as (C, D) gives the matrix
M = [[I, A2], [A1, I]] of size n1 + n2, with the identities on the block
diagonal.

With even kernels on two mirrored grids only a half-size system is
solved.  The envelope and its cosine modulation are even in each variable
and every graded grid is a bitwise mirror about 0, so A1 = [J; I] Q1 [J, I]
with J the reversal and Q1 the [0, R] x [0, R] quadrant of A1, and likewise
A2.  Both couplings map every odd vector to 0 and every even vector to an
even one.  The odd parts of the system therefore solve themselves,
C_odd = G_odd and D_odd = F_odd, and the even parts, written by their
values on the positive nodes, solve

    E = [[I, 2 Q2], [2 Q1, I]]        of size (n1 + n2) / 2

with the folded data (g[h:] + g[:h][::-1]) / 2 on the right.  For this
solve only the quadrants Q1 and Q2 are evaluated, a quarter of the kernel
entries of the full blocks.  The alternating modulation, which is not
even, and grids that are not bitwise mirrors solve M with the full blocks.

Both systems read [[I, B2], [B1, I]] (x, y) = (g, f), with B = 2Q on the
half path and B = A otherwise, and neither is ever stacked.  Eliminating x
leaves the Schur complement

    S = I - B1 B2,        S y = f - B1 g,        x = g - B2 y.

The solver eliminates the unknown on the larger grid (the system is
symmetric under swapping (x, g, B2) with (y, f, B1)), so S, the one matrix
factored, has size min(h1, h2) on the half path and min(n1, n2) otherwise.

S is formed in one Fortran-ordered array and factored in place, and
||E||_1 (below) comes from LAPACK's dlange with O(n) workspace, so besides
the two blocks the solve holds one array no larger than a block: S.

The solution is unfolded onto the full grids (on the half path it holds the
even parts only) and the unknowns are rebuilt from the equations as
C = G - A2 D and D = F - A1 C.  On the half path A2 unfold(y) = unfold(B2 y),
so the rebuild needs no full block.  Zero kernels therefore return (G, F)
bitwise, and so do exactly odd data on the half path.

The residuals re-apply the discretized equations with coupling blocks
evaluated afresh, dense and exact, never the solve's doubled arrays.  On the
half path these are fresh quadrants, applied to the whole vector, odd part
included, through the exact identity A v = [J; I] Q [J, I] v, that is
y = Q (v[:h][::-1] + v[h:]) unfolded to (y[::-1], y); otherwise they are the
full blocks.

``condition_estimate`` is the 1-norm condition number of the system solved:
E on the half path, M otherwise.  ||E||_1 is exact, the larger of
1 + max colsum |B1| and 1 + max colsum |B2|.  ||E^-1||_1 is the
Hager-Higham estimate (``scipy.sparse.linalg.onenormest`` with one column;
Higham & Tisseur, SIMAX 2000), which applies E^-1 and E^-T through the LU
of S.  It starts from the ones vector and draws no random columns, so it is
deterministic, and it is a lower bound, in practice within a small factor.
The two conditions agree closely: ||E||_1 = ||M||_1, and E^-1 is M^-1
restricted to even vectors, so cond_1(E) <= cond_1(M) <= cond_1(E) + ||M||_1.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .errors import DomainError, IllConditionedError
from .grids import Grid, fold, is_mirror, unfold
from .kernels import KernelSpec, kernel_eval
from .operators import check_finite_matrix, require_on_grid
from .spaces import SampledFunction, SpaceSpec, weighted_norm

CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class CornerSystem:
    """Coupling kernels, right-hand data and the space the data live in.

    ``f_data`` is sampled on the second mesh, ``g_data`` on the first; both
    belong to a classic p = 2 space with s < 0.
    """

    kernel_1: KernelSpec
    kernel_2: KernelSpec
    f_data: SampledFunction
    g_data: SampledFunction
    space: SpaceSpec

    def __post_init__(self):
        if self.space.variant != "h":
            raise DomainError("corner data live in the classic p = 2 family")
        if self.space.s >= 0:
            raise DomainError("corner data require a negative smoothness exponent")


@dataclass(frozen=True, eq=False)
class CornerSolution:
    """Solved unknowns with weighted-norm residuals of both equations."""

    c: SampledFunction
    d: SampledFunction
    residual_1: float
    residual_2: float
    condition_estimate: float


def coupling_blocks(kernel_1: KernelSpec, kernel_2: KernelSpec, grid1: Grid, grid2: Grid,
                    quadrant: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Nystrom matrices of the two coupling integrals.

    A1 maps samples on grid 1 to grid 2: entry (i, j) is w1_j * K1(t_j, u_i).
    A2 maps samples on grid 2 to grid 1: entry (i, j) is w2_j * K2(t_i, u_j).
    ``quadrant`` evaluates only the second halves of the nodes and weights of
    both (mirrored) grids, giving Q1 = A1[h2:, h1:] and Q2 = A2[h1:, h2:].
    A non-finite entry raises NumericalError naming the block and the
    entry's position in the full block.
    """
    h1, h2 = (grid1.size // 2, grid2.size // 2) if quadrant else (0, 0)
    t, t_weights = grid1.nodes[h1:], grid1.weights[h1:]
    u, u_weights = grid2.nodes[h2:], grid2.weights[h2:]
    with np.errstate(over="ignore"):  # reported by the finiteness check
        a1 = kernel_eval(kernel_1, t[None, :], u[:, None])
        a1 *= t_weights[None, :]
        a2 = kernel_eval(kernel_2, t[:, None], u[None, :])
        a2 *= u_weights[None, :]
    check_finite_matrix(a1, "coupling block A1", offset=(h2, h1))
    check_finite_matrix(a2, "coupling block A2", offset=(h1, h2))
    return a1, a2


def manufactured_case(c_star: SampledFunction, d_star: SampledFunction,
                      kernel_1: KernelSpec, kernel_2: KernelSpec,
                      grid1: Grid, grid2: Grid) -> tuple[SampledFunction, SampledFunction]:
    """Right-hand data whose exact discrete solution is (c_star, d_star).

    Uses the same discretization as the solver, so a solve must reproduce
    the chosen unknowns up to conditioning.
    """
    require_on_grid(c_star, grid1, "c_star must be sampled on the first grid")
    require_on_grid(d_star, grid2, "d_star must be sampled on the second grid")
    a1, a2 = coupling_blocks(kernel_1, kernel_2, grid1, grid2)
    f_vals = a1 @ c_star.values + d_star.values
    g_vals = c_star.values + a2 @ d_star.values
    return SampledFunction(grid2, f_vals), SampledFunction(grid1, g_vals)


def lu_factor(matrix: np.ndarray):
    """LU factorization with partial pivoting, as ``scipy.linalg.lu_factor``.

    The factors overwrite ``matrix`` when it is a Fortran-ordered float
    array, and its entries are not checked: pass a finite matrix and do not
    read it afterwards.  scipy is imported by the corner solve only, never at
    module level: importing it takes longer than the rest of the package's
    start-up.  An exactly zero pivot raises no warning here; the solve
    reports it as an infinite condition estimate.
    """
    from scipy.linalg import LinAlgWarning, lu_factor as factor
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        return factor(matrix, overwrite_a=True, check_finite=False)


def _mirror_apply(quadrant: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A @ values for the full block A = [J; I] Q [J, I] of an even kernel on
    mirrored grids, from its quadrant Q; exact for any vector, odd part included."""
    return unfold(quadrant @ fold(values))


def _schur_solve(b1: np.ndarray, b2: np.ndarray, g: np.ndarray,
                 f: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Solution (x, y) of [[I, B2], [B1, I]] (x, y) = (g, f), and the 1-norm condition
    estimate of that matrix (see the module docstring).

    x is eliminated, leaving S = I - B1 B2 for y; when x is the shorter
    unknown the roles swap, so S has the size of the smaller side.
    """
    if f.size > g.size:
        y, x, condition = _schur_solve(b2, b1, f, g)
        return x, y, condition
    from scipy.linalg import lu_solve, norm as matrix_norm
    from scipy.sparse.linalg import LinearOperator, onenormest
    m = g.size

    def finite(values):
        # a non-finite S, an exactly zero pivot and an overflowing solve all
        # reject the system with an infinite estimate
        if not np.all(np.isfinite(values)):
            _reject(math.inf)
        return values

    # an overflow in either is reported by finite() or the condition limit
    with np.errstate(over="ignore", invalid="ignore"):
        # ||E||_1 from LAPACK's dlange, which needs O(n) workspace: no |B| temporary
        norm = 1.0 + max(matrix_norm(b1, 1, check_finite=False),
                         matrix_norm(b2, 1, check_finite=False))
        # S = I - B1 B2 in one array that lu_factor overwrites; 0 - P keeps
        # the signed zeros, so S is bitwise np.eye(n) - B1 @ B2
        s = np.empty((f.size, f.size), order="F")
        np.matmul(b1, b2, out=s)
        np.subtract(0.0, s, out=s)
        s.flat[:: f.size + 1] += 1.0
    lu = lu_factor(finite(s))

    def solve(rhs):
        y = lu_solve(lu, rhs[m:] - b1 @ rhs[:m], check_finite=False)
        return finite(np.concatenate([rhs[:m] - b2 @ y, y]))

    def solve_transposed(rhs):
        y = lu_solve(lu, rhs[m:] - b2.T @ rhs[:m], trans=1, check_finite=False)
        return finite(np.concatenate([rhs[:m] - b1.T @ y, y]))

    inverse = LinearOperator((m + f.size,) * 2, matvec=solve, rmatvec=solve_transposed,
                             dtype=float)
    condition = float(norm * onenormest(inverse, t=1))
    if condition >= CONDITION_LIMIT:
        _reject(condition)
    solution = solve(np.concatenate([g, f]))
    return solution[:m], solution[m:], condition


def _reject(condition: float) -> NoReturn:
    raise IllConditionedError(
        f"condition estimate {condition:.3e} of the corner system "
        f"exceeds {CONDITION_LIMIT:.0e}", estimate=condition)


def _solve_unknowns(system: CornerSystem, grid1: Grid, grid2: Grid,
                    halved: bool) -> tuple[np.ndarray, np.ndarray, float]:
    """Samples of C and D, and the condition estimate of the system solved.

    The blocks and the LU are freed on return, before ``solve_corner``
    builds fresh blocks for the residuals.
    """
    b1, b2 = coupling_blocks(system.kernel_1, system.kernel_2, grid1, grid2,
                             quadrant=halved)
    g, f = system.g_data.values, system.f_data.values
    if not halved:
        c_solved, d_solved, condition = _schur_solve(b1, b2, g, f)
        return g - b2 @ d_solved, f - b1 @ c_solved, condition
    with np.errstate(over="ignore"):  # an overflow shows up in S
        b1 *= 2.0
        b2 *= 2.0
    # the even parts of the data, by their values on the positive nodes
    c_even, d_even, condition = _schur_solve(b1, b2, 0.5 * fold(g), 0.5 * fold(f))
    return g - unfold(b2 @ d_even), f - unfold(b1 @ c_even), condition


def solve_corner(system: CornerSystem, grid1: Grid, grid2: Grid) -> CornerSolution:
    """Schur-complement solve with a 1-norm condition estimate (see the module docstring).

    Raises IllConditionedError (carrying the estimate) when the estimated
    condition number reaches 1e12.  S is factored in place, so besides the
    two coupling blocks the solve holds one array no larger than a block.
    Residuals re-apply the discretized equations with freshly built
    coupling blocks (fresh quadrants through the mirror identity on the half
    path) and are measured in the system's weighted norm.
    """
    require_on_grid(system.g_data, grid1, "g_data must be sampled on the first grid")
    require_on_grid(system.f_data, grid2, "f_data must be sampled on the second grid")
    # the one test for the half path, shared by the solve and the residuals
    halved = (system.kernel_1.even and system.kernel_2.even
              and is_mirror(grid1) and is_mirror(grid2))
    c_values, d_values, condition = _solve_unknowns(system, grid1, grid2, halved)
    c = SampledFunction(grid1, c_values)
    d = SampledFunction(grid2, d_values)
    a1, a2 = coupling_blocks(system.kernel_1, system.kernel_2, grid1, grid2,
                             quadrant=halved)
    apply = _mirror_apply if halved else np.matmul
    r1 = SampledFunction(grid2, apply(a1, c.values) + d.values - system.f_data.values)
    r2 = SampledFunction(grid1, c.values + apply(a2, d.values) - system.g_data.values)
    return CornerSolution(
        c=c, d=d,
        residual_1=weighted_norm(r1, system.space),
        residual_2=weighted_norm(r2, system.space),
        condition_estimate=condition,
    )
