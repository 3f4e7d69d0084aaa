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
    StationaryStateError,
    SusyConsistencyError,
    UnboundLevelError,
)
from .evolution import (
    MajoranaSpinorState,
    closed_form_frames,
    density_period,
    evolve_pde,
    frame_steps,
    measure_period,
    pde_frames,
    pde_vs_closed_form,
    run_length,
    stationarity_metric,
)
from .invariants import verify_checks
from .linear import (
    LinearModel,
    default_grid,
    eigenstate_minus,
    eigenstate_plus,
    energy,
    hermite,
    spinor,
    transform_negative_k,
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
    Eigenpair,
    IsospectralReport,
    Sector,
    TridiagonalOperator,
    discretize,
    eigensolve,
    eigenvalues,
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
    gram_matrix,
    linear_family,
    oracle_eigenvalues,
    partner_potentials,
    poschl_teller_family,
    state_hierarchy,
    zero_mode,
)

__version__ = "0.1.0"
