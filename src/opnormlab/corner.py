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
factored.  The envelope and its cosine modulation are even in each variable
and every graded grid is a bitwise mirror about 0, so A1 = [J; I] Q1 [J, I]
with J the reversal and Q1 the [0, R] x [0, R] quadrant of A1, and likewise
A2.  Both couplings map every odd vector to 0 and every even vector to an
even one.  The odd parts of the system therefore solve themselves,
C_odd = G_odd and D_odd = F_odd, and the even parts, written by their
values on the positive nodes, solve

    E = [[I, 2 Q2], [2 Q1, I]]        of size (n1 + n2) / 2

with the folded data (g[h:] + g[:h][::-1]) / 2 on the right.  One LU of E
is an eighth of the work of one LU of M.  The alternating modulation, which
is not even, and grids that are not bitwise mirrors keep the full M.

Either way the solution of the factored system is unfolded onto the full
grids (on the half path it holds the even parts only) and the unknowns are
rebuilt from the equations as C = G - A2 D and D = F - A1 C.  Zero kernels
therefore return (G, F) bitwise, and so do exactly odd data on the half
path.

``condition_estimate`` is LAPACK's 1-norm estimate for the factored matrix:
E on the half path, M otherwise.  The two agree closely: ||E||_1 = ||M||_1,
and E^-1 is M^-1 restricted to even vectors, so
cond_1(E) <= cond_1(M) <= cond_1(E) + ||M||_1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IllConditionedError
from .grids import Grid, is_mirror
from .kernels import KernelSpec, kernel_eval
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


def coupling_blocks(kernel_1: KernelSpec, kernel_2: KernelSpec,
                    grid1: Grid, grid2: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Nystrom matrices of the two coupling integrals.

    A1 maps samples on grid 1 to grid 2: entry (i, j) is w1_j * K1(t_j, u_i).
    A2 maps samples on grid 2 to grid 1: entry (i, j) is w2_j * K2(t_i, u_j).
    """
    a1 = kernel_eval(kernel_1, grid1.nodes[None, :], grid2.nodes[:, None]) * grid1.weights[None, :]
    a2 = kernel_eval(kernel_2, grid1.nodes[:, None], grid2.nodes[None, :]) * grid2.weights[None, :]
    return a1, a2


def _stack(top_right: np.ndarray, bottom_left: np.ndarray) -> np.ndarray:
    """The square matrix [[I, top_right], [bottom_left, I]]."""
    n1, n2 = top_right.shape
    block = np.zeros((n1 + n2, n1 + n2))
    np.fill_diagonal(block, 1.0)
    block[:n1, n1:] = top_right
    block[n1:, :n1] = bottom_left
    return block


def assemble_block(system: CornerSystem, grid1: Grid, grid2: Grid) -> np.ndarray:
    """Stacked (n1+n2)-square matrix [[I, A2], [A1, I]] acting on (C, D)."""
    _require_grids(system, grid1, grid2)
    a1, a2 = coupling_blocks(system.kernel_1, system.kernel_2, grid1, grid2)
    return _stack(a2, a1)


def _require_sampled_on(f: SampledFunction, grid: Grid, name: str, which: str) -> None:
    if not np.array_equal(f.grid.nodes, grid.nodes):
        raise DomainError(f"{name} must be sampled on the {which} grid")


def _require_grids(system: CornerSystem, grid1: Grid, grid2: Grid) -> None:
    _require_sampled_on(system.g_data, grid1, "g_data", "first")
    _require_sampled_on(system.f_data, grid2, "f_data", "second")


def manufactured_case(c_star: SampledFunction, d_star: SampledFunction,
                      kernel_1: KernelSpec, kernel_2: KernelSpec,
                      grid1: Grid, grid2: Grid) -> tuple[SampledFunction, SampledFunction]:
    """Right-hand data whose exact discrete solution is (c_star, d_star).

    Uses the same discretization as the solver, so a solve must reproduce
    the chosen unknowns up to conditioning.
    """
    _require_sampled_on(c_star, grid1, "c_star", "first")
    _require_sampled_on(d_star, grid2, "d_star", "second")
    a1, a2 = coupling_blocks(kernel_1, kernel_2, grid1, grid2)
    f_vals = a1 @ c_star.values + d_star.values
    g_vals = c_star.values + a2 @ d_star.values
    return SampledFunction(grid2, f_vals), SampledFunction(grid1, g_vals)


def lu_factor(matrix: np.ndarray):
    """LU factorization with partial pivoting, as ``scipy.linalg.lu_factor``.

    scipy.linalg is imported by the corner solve only, never at module
    level: importing it takes longer than the rest of the package's start-up.
    """
    from scipy.linalg import lu_factor as factor
    return factor(matrix)


def _condition_estimate_1norm(matrix: np.ndarray, lu: np.ndarray) -> float:
    from scipy.linalg import get_lapack_funcs
    gecon = get_lapack_funcs(("gecon",), (matrix,))[0]
    anorm = float(np.linalg.norm(matrix, 1))
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0:
        raise IllConditionedError("condition estimator failed", estimate=math.inf)
    return math.inf if rcond == 0.0 else 1.0 / float(rcond)


def _fold(values: np.ndarray) -> np.ndarray:
    """Even part of samples on a mirrored grid, as its values on the positive nodes."""
    h = values.size // 2
    return 0.5 * (values[h:] + values[:h][::-1])


def _unfold(half: np.ndarray) -> np.ndarray:
    """Even samples on a mirrored grid from their values on the positive nodes."""
    return np.concatenate([half[::-1], half])


def _factored_system(a1: np.ndarray, a2: np.ndarray, g: np.ndarray, f: np.ndarray,
                     halved: bool):
    """The matrix to factor, its right side, and the map from its solution to (C, D).

    ``halved`` selects the even half system E (see the module docstring);
    otherwise the stacked M.
    """
    if halved:
        h1, h2 = g.size // 2, f.size // 2
        matrix = _stack(2.0 * a2[h1:, h2:], 2.0 * a1[h2:, h1:])
        rhs = np.concatenate([_fold(g), _fold(f)])
        return matrix, rhs, lambda x: (_unfold(x[:h1]), _unfold(x[h1:]))
    n1 = g.size
    return _stack(a2, a1), np.concatenate([g, f]), lambda x: (x[:n1], x[n1:])


def _solve_unknowns(system: CornerSystem, grid1: Grid,
                    grid2: Grid) -> tuple[np.ndarray, np.ndarray, float]:
    """Samples of C and D, and the condition estimate of the factored matrix.

    The blocks, the matrix and its LU are freed on return, before
    ``solve_corner`` builds fresh blocks for the residuals.
    """
    a1, a2 = coupling_blocks(system.kernel_1, system.kernel_2, grid1, grid2)
    g, f = system.g_data.values, system.f_data.values
    halved = (system.kernel_1.even and system.kernel_2.even
              and is_mirror(grid1) and is_mirror(grid2))
    matrix, rhs, unfold = _factored_system(a1, a2, g, f, halved)
    lu, piv = lu_factor(matrix)
    if not np.all(np.isfinite(lu)):
        raise IllConditionedError("factorization produced non-finite entries",
                                  estimate=math.inf)
    condition = _condition_estimate_1norm(matrix, lu)
    if condition >= CONDITION_LIMIT:
        raise IllConditionedError(
            f"condition estimate {condition:.3e} of the factored corner matrix "
            f"exceeds {CONDITION_LIMIT:.0e}", estimate=condition)
    from scipy.linalg import lu_solve
    c_solved, d_solved = unfold(lu_solve((lu, piv), rhs))
    return g - a2 @ d_solved, f - a1 @ c_solved, condition


def solve_corner(system: CornerSystem, grid1: Grid, grid2: Grid) -> CornerSolution:
    """Direct dense solve with a 1-norm condition estimate (see the module docstring).

    Raises IllConditionedError (carrying the estimate) when the estimated
    condition number reaches 1e12.  Residuals re-apply the discretized
    equations with freshly built coupling blocks and are measured in the
    system's weighted norm.
    """
    _require_grids(system, grid1, grid2)
    c_values, d_values, condition = _solve_unknowns(system, grid1, grid2)
    c = SampledFunction(grid1, c_values)
    d = SampledFunction(grid2, d_values)
    a1, a2 = coupling_blocks(system.kernel_1, system.kernel_2, grid1, grid2)
    r1 = SampledFunction(grid2, a1 @ c.values + d.values - system.f_data.values)
    r2 = SampledFunction(grid1, c.values + a2 @ d.values - system.g_data.values)
    return CornerSolution(
        c=c, d=d,
        residual_1=weighted_norm(r1, system.space),
        residual_2=weighted_norm(r2, system.space),
        condition_estimate=condition,
    )
