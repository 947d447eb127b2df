"""Dense reference matrices that the tests build themselves, outside the
package they check."""
import numpy as np

from opnormlab import coupling_blocks


def full_matrix(op) -> np.ndarray:
    """The full matrix of an operator, unfolded from its core.

    A mirrored core B is the [0, R]^2 quadrant of [J; I] B [J, I] (J the
    reversal); any other core is already the full matrix.
    """
    B = op.core
    if not op.mirrored:
        return B
    return np.block([[B[::-1, ::-1], B[::-1]], [B[:, ::-1], B]])


def stacked_corner_matrix(system, grid1, grid2) -> np.ndarray:
    """The stacked corner matrix M = [[I, A2], [A1, I]] acting on (C, D)."""
    a1, a2 = coupling_blocks(system.kernel_1, system.kernel_2, grid1, grid2)
    return np.block([[np.eye(grid1.size), a2], [a1, np.eye(grid2.size)]])
