"""Dense solver for the coupled pair of one-dimensional integral equations.

The two unknowns C and D live on two independent meshes and are tied
together by

    integral K1(t, u) C(t) dt + D(u) = F(u)        (u on grid 2)
    C(t) + integral K2(t, u) D(u) du = G(t)        (t on grid 1)

with envelope-class coupling kernels.  Discretizing both couplings by
Nystrom quadrature and stacking the unknown as (C, D) puts the identities
on the block diagonal, so zero kernels give the identity matrix and the
solution (C, D) = (G, F).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IllConditionedError
from .grids import Grid
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


def assemble_block(system: CornerSystem, grid1: Grid, grid2: Grid) -> np.ndarray:
    """Stacked (n1+n2)-square matrix [[I, A2], [A1, I]] acting on (C, D)."""
    _require_grids(system, grid1, grid2)
    a1, a2 = coupling_blocks(system.kernel_1, system.kernel_2, grid1, grid2)
    n1, n2 = grid1.size, grid2.size
    block = np.zeros((n1 + n2, n1 + n2))
    block[:n1, :n1] = np.eye(n1)
    block[:n1, n1:] = a2
    block[n1:, :n1] = a1
    block[n1:, n1:] = np.eye(n2)
    return block


def _require_grids(system: CornerSystem, grid1: Grid, grid2: Grid) -> None:
    if not np.array_equal(system.g_data.grid.nodes, grid1.nodes):
        raise DomainError("g_data must be sampled on the first grid")
    if not np.array_equal(system.f_data.grid.nodes, grid2.nodes):
        raise DomainError("f_data must be sampled on the second grid")


def manufactured_case(c_star: SampledFunction, d_star: SampledFunction,
                      kernel_1: KernelSpec, kernel_2: KernelSpec,
                      grid1: Grid, grid2: Grid) -> tuple[SampledFunction, SampledFunction]:
    """Right-hand data whose exact discrete solution is (c_star, d_star).

    Uses the same discretization as the solver, so a solve must reproduce
    the chosen unknowns up to conditioning.
    """
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


def solve_corner(system: CornerSystem, grid1: Grid, grid2: Grid) -> CornerSolution:
    """Direct dense solve of the stacked system with a 1-norm condition estimate.

    Raises IllConditionedError (carrying the estimate) when the estimated
    condition number reaches 1e12.  Residuals re-apply the discretized
    equations and are measured in the system's weighted norm.
    """
    matrix = assemble_block(system, grid1, grid2)
    n1 = grid1.size
    rhs = np.concatenate([system.g_data.values, system.f_data.values])
    lu, piv = lu_factor(matrix)
    if not np.all(np.isfinite(lu)):
        raise IllConditionedError("factorization produced non-finite entries",
                                  estimate=math.inf)
    condition = _condition_estimate_1norm(matrix, lu)
    if condition >= CONDITION_LIMIT:
        raise IllConditionedError(
            f"stacked system condition estimate {condition:.3e} exceeds "
            f"{CONDITION_LIMIT:.0e}", estimate=condition)
    from scipy.linalg import lu_solve
    solution = lu_solve((lu, piv), rhs)
    c = SampledFunction(grid1, solution[:n1])
    d = SampledFunction(grid2, solution[n1:])
    a1, a2 = coupling_blocks(system.kernel_1, system.kernel_2, grid1, grid2)
    r1 = SampledFunction(grid2, a1 @ c.values + d.values - system.f_data.values)
    r2 = SampledFunction(grid1, c.values + a2 @ d.values - system.g_data.values)
    return CornerSolution(
        c=c, d=d,
        residual_1=weighted_norm(r1, system.space),
        residual_2=weighted_norm(r2, system.space),
        condition_estimate=condition,
    )
