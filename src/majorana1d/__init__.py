"""Solver suite for Majorana fermion dynamics in 1+1 dimensions.

The reality of a Majorana spinor restricts every static external field
to a scalar potential phi(x); the resulting two-component dynamics is
solved three independent ways that must agree:

* supersymmetric factorization with shape-invariance spectra,
* closed forms for the linear potential phi = k x,
* a finite-difference eigensolver plus a norm-preserving direct
  integration of the coupled first-order system.
"""

from .errors import (
    BrokenSusyError,
    ConfigError,
    DegenerateFunctionError,
    DiscretizationError,
    DivergenceError,
    EvaluationError,
    GridMismatchError,
    InstabilityError,
    InvalidFamilyError,
    MajoranaSolverError,
    PotentialSyntaxError,
    ReservedNameError,
    StationaryStateError,
    SusyConsistencyError,
    UnboundLevelError,
)
from .evolution import (
    MajoranaSpinorState,
    evolve_pde,
    frame_steps,
    measure_period,
    stationarity_metric,
)
from .invariants import ClosedFormRun, compare_spectra, run_length, verify_checks
from .linear import (
    LinearModel,
    closed_form_frames,
    default_grid,
    density_period,
    energy,
    hermite,
    host_state,
    partner_state,
    spinor,
)
from .model import (
    CouplingAudit,
    CouplingSet,
    CustomPotential,
    GridFunction,
    GridSpec,
    LinearPotential,
    PhysicalParams,
    PoschlTellerPotential,
    RosenMorsePotential,
    ScalarPotential,
    ScarfPotential,
    Sector,
    inner_product,
    majorana_compatible,
    norm,
    normalize,
    superpotential,
    zero_potential,
)
from .oracle import (
    TridiagonalOperator,
    discretize,
    eigensolve,
    energy_from_lambda,
    isospectral_differences,
    oracle_eigenvalues,
)
from .susy import (
    PartnerPotentials,
    ShapeInvariantFamily,
    SusyClassification,
    algebraic_spectrum,
    apply_a,
    apply_a_dagger,
    builtin_family,
    check_shape_invariance,
    linear_family,
    partner_potentials,
    poschl_teller_family,
    zero_mode,
)

__version__ = "0.1.0"
