"""Exact vacuum Maxwell fields from scalar wave seeds, with independent certification.

The package squares scalar Klein-Fock-Gordon solutions into formal
Riemann-Silberstein columns, solves the linear constraints that single out
genuine (E, cB) fields among their weighted combinations, provides the
closed-form plane and cylindrical wave families with polarization and
duality diagnostics, and certifies every construction against the component
Maxwell equations with a finite-difference oracle that never sees the
analytic derivatives.
"""

from .algebra import (
    ALPHA,
    AxisError,
    NonFiniteFieldError,
    RSVector,
    SpacetimePoint,
    alpha,
    maxwell_operator_apply,
)
from .dual import SourceTuple, dual_transform, dual_transform_sources, phase_transform
from .physicality import (
    ConstraintSystem,
    PhysicalBasis,
    assemble_complex_seed_constraints,
    assemble_constraints,
    assemble_real_seed_constraints,
    check_linear_dependence_3x3,
    default_sample_points,
    plane_wave_constraints,
    solve_null_space,
)
from .seeds import (
    RHO_MIN,
    ComplexPlaneSeed,
    CylindricalSeed,
    RealPlaneSeed,
    kfg_residual,
)
from .squaring import Lambda, combine, em_field, formal_solutions
from .verify import (
    ConvergenceResult,
    ResidualReport,
    convergence_order,
    maxwell_residual,
    maxwell_residuals,
)
from .waves import (
    FieldSample,
    LCFrame,
    PolarizationReport,
    cylindrical_wave,
    cylindrical_wave_special,
    lc_frame,
    plane_wave_general,
    plane_wave_lc,
    plane_wave_z,
    polarization_report,
    rs_of_sample,
)

__version__ = "0.1.0"
