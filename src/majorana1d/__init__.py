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
    ClosedFormRun,
    MajoranaSpinorState,
    closed_form_frames,
    density_period,
    evolve_pde,
    frame_steps,
    measure_period,
    pde_frames,
    run_length,
    stationarity_metric,
)
from .invariants import verify_checks
from .linear import (
    LinearModel,
    default_grid,
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
    inner_product,
    majorana_compatible,
    norm,
    normalize,
    sample,
    superpotential,
    zero_potential,
)
from .oracle import (
    IsospectralReport,
    Sector,
    TridiagonalOperator,
    discretize,
    eigensolve,
    energy_from_lambda,
    verify_isospectral,
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
    compare_spectra,
    linear_family,
    oracle_eigenvalues,
    partner_potentials,
    poschl_teller_family,
    zero_mode,
)

__version__ = "0.1.0"
