"""opnormlab: a numerical laboratory for integral operators with
power-envelope kernels acting between weighted spaces on the line.

The package discretizes such operators by Nystrom quadrature on graded
truncated meshes, evaluates the explicit sufficient boundedness thresholds
for three weighted-space families, estimates discrete operator norms
(including general p -> q matrix norms), runs truncation sweeps that probe
boundedness empirically, and solves the coupled two-unknown integral
system the kernels come from.
"""

from .closed_forms import (envelope_indicator_image, majorant_exponent,
                           majorant_integral, powerlaw_integral, powerlaw_tail,
                           powerlaw_weighted_norm, tail_bound)
from .conditions import (BoundednessQuery, ConditionReport, check_boundedness,
                         family_from_index, index_from_family, query_spaces,
                         threshold_h, threshold_hps, threshold_hsp)
from .corner import (CornerSolution, CornerSystem, coupling_blocks, manufactured_case,
                     solve_corner)
from .errors import (ConvergenceError, DivergenceError, DomainError,
                     IllConditionedError, NumericalError, PlanError)
from .grids import (Grid, build_grid, extend_grid, grid_from_breakpoints,
                    integrate, nested_grids, parse_grid)
from .kernels import EnvelopeReport, KernelSpec, envelope_check, kernel_eval, parse_kernel
from .operators import (DiscretizedOperator, PqNormEstimate, apply_operator, assemble,
                        empirical_ratio, largest_singular_value, matrix_pq_norm,
                        operator_norm_pq)
from .spaces import (SampledFunction, SpaceSpec, bump, conjugate_exponent,
                     function_from_spec, gauss, indicator, parse_space, powerlaw,
                     sample, sample_spec, weight_exponent, weighted_norm)
from .sweeps import (GridPolicy, HolderCheck, ProbeCell, QuerySummary,
                     SweepCell, SweepPlan, SweepResult, fit_growth_exponent,
                     run_boundedness_sweep, sharpness_probe, sweep_csv_text,
                     verify_holder_step)

__version__ = "0.1.0"
