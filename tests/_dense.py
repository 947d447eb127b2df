"""Dense reference matrices that the tests build themselves, outside the
package they check."""
import numpy as np

from opnormlab import coupling_blocks, kernel_eval


def scaled_core(op) -> np.ndarray:
    """The operator's core between its scalings, diag(r) K diag(c), formed."""
    return op.rows[:, None] * op.core * op.cols[None, :]


def full_matrix(op) -> np.ndarray:
    """The full matrix of an operator, diag(r) K diag(c) unfolded from its core.

    A mirrored core B is the [0, R]^2 quadrant of [J; I] B [J, I] (J the
    reversal); any other core is already on the whole grid.
    """
    B = scaled_core(op)
    if not op.mirrored:
        return B
    return np.block([[B[::-1, ::-1], B[::-1]], [B[:, ::-1], B]])


def kernel_matrix(k, grid) -> np.ndarray:
    """K on the whole grid, each value evaluated as the upper triangle of a
    core is: its two arguments in ascending order, of |x| for an even kernel
    (whose core is the [0, R]^2 quadrant), of x otherwise."""
    t = np.abs(grid.nodes) if k.even else grid.nodes
    x, y = t[:, None], t[None, :]
    return kernel_eval(k, np.minimum(x, y), np.maximum(x, y))


def stacked_corner_matrix(system, grid1, grid2) -> np.ndarray:
    """The stacked corner matrix M = [[I, A2], [A1, I]] acting on (C, D)."""
    a1, a2 = coupling_blocks(system.kernel_1, system.kernel_2, grid1, grid2)
    return np.block([[np.eye(grid1.size), a2], [a1, np.eye(grid2.size)]])
