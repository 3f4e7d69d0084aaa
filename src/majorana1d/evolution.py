"""Time-dependent Majorana dynamics.

States assembled from the separation ansatz psi1 = phi^- sin(Et/ħ + δ),
psi2 = phi^+ cos(Et/ħ + δ) carry a density rho = psi1² + psi2² that
oscillates for every excited level — only an unbroken ground state is
stationary. The coupled first-order system ħ ∂t psi1 = A† psi2,
ħ ∂t psi2 = -A psi1 is also integrated directly with an implicit
midpoint step as an independent dynamical check. It runs on a staggered
grid, psi1 on the nodes and psi2 on the midpoints, where the two-point
ladder A has no fermion doublers; states are averaged between nodes and
midpoints on the way in and out. The step is a Cayley transform of a
skew-symmetric matrix, so the discrete L2 norm is conserved to roundoff,
and its Schur complement I + α²AᵀA is tridiagonal, solved with LAPACK
pttrf/pttrs, which ``evolve_pde`` takes from ``_lapack.flapack()`` when
it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linear
from ._lapack import flapack
from .errors import (
    DegenerateFunctionError,
    DivergenceError,
    GridMismatchError,
    InstabilityError,
    StationaryStateError,
)
from .linear import LinearModel
from .model import (
    GridFunction,
    GridSpec,
    LinearPotential,
    PhysicalParams,
    ScalarPotential,
    superpotential,
    trapezoid,
)

NORM_DRIFT_TOL = 1e-6
DEFAULT_STRIDE = 50
# time steps per density period when no step is given
STEPS_PER_PERIOD = 2000


@dataclass(frozen=True, eq=False)
class MajoranaSpinorState:
    """Two real components on a shared grid at one instant."""

    psi1: GridFunction
    psi2: GridFunction
    t: float = 0.0

    def __post_init__(self):
        if self.psi1.spec != self.psi2.spec:
            raise GridMismatchError("spinor components live on different grids")

    @property
    def spec(self):
        return self.psi1.spec


@dataclass(eq=False)
class EvolutionTrace:
    """Sampled densities and norms along a run."""

    times: np.ndarray
    densities: list[GridFunction]
    norms: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.norms = np.asarray(self.norms, dtype=float)
        if not (len(self.times) == len(self.densities) == len(self.norms)):
            raise ValueError("times, densities and norms must have equal lengths")

    @property
    def norm_drift(self) -> float:
        return float(np.max(np.abs(self.norms - self.norms[0])) / abs(self.norms[0]))


def assemble_state(
    phi_minus: GridFunction,
    phi_plus: GridFunction,
    energy: float,
    delta: float,
    t: float,
    hbar: float = 1.0,
) -> MajoranaSpinorState:
    """Separation-ansatz state at time t. For energy = 0 pass a zero
    function as the plus component (that sector has no partner state)."""
    if energy < 0:
        raise ValueError("energy label must be non-negative")
    theta = energy * t / hbar + delta
    return MajoranaSpinorState(
        psi1=GridFunction(phi_minus.spec, phi_minus.values * math.sin(theta)),
        psi2=GridFunction(phi_plus.spec, phi_plus.values * math.cos(theta)),
        t=t,
    )


def probability_density(state: MajoranaSpinorState) -> GridFunction:
    return GridFunction(state.spec, state.psi1.values**2 + state.psi2.values**2)


def state_norm(state: MajoranaSpinorState) -> float:
    return trapezoid(state.psi1.values**2 + state.psi2.values**2, state.spec.h)


def density_period(model: LinearModel, n: int) -> float:
    """Repeat time sqrt(2) π / (c sqrt(w n)) of the level-n solution.

    This equals 2πħ/E_n, one full turn of the component phase; the
    density, built from sin² and cos², already returns to itself at half
    this value. The ground state is stationary and has no period.
    """
    if n < 1:
        raise StationaryStateError("the ground state density has no period")
    return math.sqrt(2.0) * math.pi / (model.params.c * math.sqrt(model.w * n))


def stationarity_metric(trace: EvolutionTrace) -> float:
    """max_t of the sup-norm distance between rho(t) and rho(0); zero
    for a stationary state."""
    rho0 = trace.densities[0].values
    best = 0.0
    for rho in trace.densities[1:]:
        best = max(best, float(np.max(np.abs(rho.values - rho0))))
    return best


def measure_period(trace: EvolutionTrace, rel_tol: float = 0.05) -> float:
    """First return time of the density: the earliest local minimum of
    ||rho(t)-rho(0)||_inf that drops below rel_tol of the excursion,
    refined with a three-point parabola."""
    rho0 = trace.densities[0].values
    r = np.array([np.max(np.abs(d.values - rho0)) for d in trace.densities])
    if len(r) < 3:
        raise ValueError("trace too short to locate a return")
    threshold = rel_tol * r.max()
    for i in range(1, len(r) - 1):
        if r[i] <= r[i - 1] and r[i] <= r[i + 1] and r[i] <= threshold:
            denom = r[i - 1] - 2.0 * r[i] + r[i + 1]
            t = trace.times[i]
            if denom > 0:
                dt = trace.times[i + 1] - trace.times[i]
                t += 0.5 * dt * (r[i - 1] - r[i + 1]) / denom
            return float(t)
    raise ValueError("no density return found in the sampled window")


def analytic_trace(
    phi_minus: GridFunction,
    phi_plus: GridFunction,
    energy: float,
    delta: float,
    times,
    hbar: float = 1.0,
) -> EvolutionTrace:
    """Trace of the separation-ansatz state sampled at ``times``."""
    densities = []
    norms = []
    for t in np.asarray(times, dtype=float):
        state = assemble_state(phi_minus, phi_plus, energy, delta, float(t), hbar)
        rho = probability_density(state)
        densities.append(rho)
        norms.append(trapezoid(rho.values, rho.spec.h))
    return EvolutionTrace(np.asarray(times, dtype=float), densities, np.array(norms))


def default_time_step(p: PhysicalParams, phi: ScalarPotential, grid: GridSpec) -> float:
    """Fallback step when no period is known: resolve both the grid
    crossing time and the fastest local phase, set by max|W| on ``grid``."""
    w_max = float(np.max(np.abs(superpotential(p, phi, grid.points()))))
    return 0.1 * grid.h / (p.c * p.hbar) * min(1.0, 1.0 / max(w_max, 1e-30))


def frame_steps(n_steps: int, stride: int) -> list[int]:
    """The steps at which a run of ``n_steps`` is sampled: every
    ``stride``-th one from 0, and the last."""
    steps = list(range(0, n_steps + 1, stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return steps


def staggered_ladder(
    p: PhysicalParams, phi: ScalarPotential, spec: GridSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The two bands of the doubler-free staggered ladder operator A.

    A maps psi1 on the m = n_points - 2 interior nodes (psi1 is zero on
    the two boundary nodes) to the m + 1 midpoints j+½:

        (A psi1)_{j+½} = cħ (psi1_{j+1} - psi1_j) / h + ½ (W_j psi1_j + W_{j+1} psi1_{j+1}).

    The (m+1)×m matrix is bidiagonal: the column of interior node j
    holds ``left = cħ/h + W_j/2`` at midpoint j-½ and
    ``right = -cħ/h + W_j/2`` at midpoint j+½. Unlike the central
    difference, AᵀA has no doubled levels (Susskind, Phys. Rev. D 16,
    3031 (1977)). Returns (left, right), each of length m.
    """
    half_w = 0.5 * np.asarray(superpotential(p, phi, spec.points()), dtype=float)[1:-1]
    coef = p.c * p.hbar / spec.h
    return coef + half_w, half_w - coef


def evolve_pde(
    initial: MajoranaSpinorState,
    p: PhysicalParams,
    phi: ScalarPotential,
    t_final: float,
    dt: float | None = None,
    stride: int = DEFAULT_STRIDE,
) -> tuple[EvolutionTrace, MajoranaSpinorState]:
    """Integrate the coupled first-order system with implicit midpoint.

    The ladder is the staggered A of ``staggered_ladder``: psi1 lives on
    the m interior nodes and psi2 on the m + 1 midpoints, where it
    starts as the average of the two adjacent nodes of
    ``initial.psi2``. With u = (psi1, psi2) the system is ħ ∂t u = G u
    with the skew-symmetric G = [[0, Aᵀ], [-A, 0]]. Each step is the
    Cayley transform u ← (I - αG)⁻¹(I + αG) u, α = dt/2ħ, applied as
    2(I - αG)⁻¹u - u. The solve eliminates psi2, which leaves the
    symmetric positive definite tridiagonal Schur complement
    S = I + α²AᵀA for psi1:

        S v1 = u1 + αAᵀu2,   v2 = u2 - αA v1.

    S has diagonal 1 + α²(left_j² + right_j²) and off-diagonal
    α²·right_j·left_{j+1}; it is factored once with LAPACK ``pttrf``
    (LDLᵀ) and solved each step with ``pttrs``.

    The sampled density is rho_j = psi1_j² + ½(psi2_{j-½}² + psi2_{j+½}²)
    at interior nodes and psi2² of the adjacent midpoint at the two
    boundary nodes, so its trapezoid sum is h(Σpsi1² + Σpsi2²), the
    quantity the Cayley step conserves. The returned state is back on
    the nodes: interior psi2 averages its two adjacent midpoints, and
    both components are zero on the boundary nodes. Returns the trace
    sampled at ``frame_steps(n_steps, stride)`` and the final state. An
    initial state of zero norm, one the grid does not hold, raises
    DegenerateFunctionError; a sampled norm that drifts by more than
    100 ``NORM_DRIFT_TOL`` raises DivergenceError.
    """
    lapack = flapack()
    spec = initial.spec
    left, right = staggered_ladder(p, phi, spec)
    if dt is None:
        dt = default_time_step(p, phi, spec)
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = max(1, round(t_final / dt))
    dt = t_final / n_steps

    m = spec.n_points - 2
    alpha = dt / (2.0 * p.hbar)
    a_left = alpha * left
    a_right = alpha * right
    # the LAPACK wrapper wants an off-diagonal of length >= 1, also for m = 1
    off = np.zeros(max(m - 1, 1))
    off[: m - 1] = a_right[:-1] * a_left[1:]
    diag, off, info = lapack.dpttrf(1.0 + a_left * a_left + a_right * a_right, off)
    if info != 0:
        raise np.linalg.LinAlgError(f"pttrf failed on the Schur complement (info={info})")
    a2_left = 2.0 * a_left
    a2_right = 2.0 * a_right

    u1 = initial.psi1.values[1:-1].copy()
    psi2_nodes = initial.psi2.values
    u2 = 0.5 * (psi2_nodes[:-1] + psi2_nodes[1:])
    rhs = np.empty(m)
    tmp = np.empty(m)
    a_v1 = np.empty(m + 1)
    sampled = set(frame_steps(n_steps, stride))

    def snapshot(step: int):
        sq2 = u2**2
        rho = np.empty(spec.n_points)
        rho[1:-1] = u1**2 + 0.5 * (sq2[:-1] + sq2[1:])
        rho[0] = sq2[0]
        rho[-1] = sq2[-1]
        return step * dt, GridFunction(spec, rho), trapezoid(rho, spec.h)

    times, densities, norms = [], [], []
    t0, d0, n0 = snapshot(0)
    if n0 == 0:
        raise DegenerateFunctionError("the initial state has zero norm on the grid")
    times.append(t0)
    densities.append(d0)
    norms.append(n0)

    for step in range(1, n_steps + 1):
        # S v1 = u1 + αAᵀu2; then u1 ← 2v1 - u1 and u2 ← 2v2 - u2 = u2 - 2αA v1
        np.multiply(a_left, u2[:-1], out=rhs)
        np.multiply(a_right, u2[1:], out=tmp)
        rhs += tmp
        rhs += u1
        v1, _ = lapack.dpttrs(diag, off, rhs, overwrite_b=True)
        np.multiply(a2_left, v1, out=a_v1[:-1])
        a_v1[-1] = 0.0
        np.multiply(a2_right, v1, out=tmp)
        a_v1[1:] += tmp
        u2 -= a_v1
        np.multiply(v1, 2.0, out=tmp)
        np.subtract(tmp, u1, out=u1)
        if not (np.all(np.isfinite(u1)) and np.all(np.isfinite(u2))):
            raise InstabilityError(step)
        if step in sampled:
            t_s, d_s, n_s = snapshot(step)
            drift = abs(n_s - norms[0]) / abs(norms[0])
            if drift > 100.0 * NORM_DRIFT_TOL:
                raise DivergenceError(
                    f"norm drift {drift:.3e} at step {step} "
                    f"exceeds {100.0 * NORM_DRIFT_TOL:.1e}"
                )
            times.append(t_s)
            densities.append(d_s)
            norms.append(n_s)

    psi1 = np.zeros(spec.n_points)
    psi2 = np.zeros(spec.n_points)
    psi1[1:-1] = u1
    psi2[1:-1] = 0.5 * (u2[:-1] + u2[1:])
    final = MajoranaSpinorState(
        GridFunction(spec, psi1), GridFunction(spec, psi2), t=n_steps * dt
    )
    return EvolutionTrace(np.array(times), densities, np.array(norms)), final


def pde_vs_closed_form(
    model: LinearModel,
    grid: GridSpec,
    n: int,
    delta: float,
    t_final: float,
    dt: float,
    stride: int = DEFAULT_STRIDE,
) -> tuple[EvolutionTrace, float]:
    """Integrate the closed-form level-``n`` spinor of ``model`` from
    t = 0 to ``t_final`` with ``evolve_pde`` and compare the final state
    with the closed form at the same time. Returns the sampled trace and
    the larger sup-norm distance of the two components."""
    y = model.y_of_x(grid.points())
    psi1, psi2 = linear.spinor(model, n, 0.0, y, delta)
    initial = MajoranaSpinorState(GridFunction(grid, psi1), GridFunction(grid, psi2))
    trace, final = evolve_pde(
        initial, model.params, LinearPotential(model.k), t_final, dt=dt, stride=stride
    )
    ref1, ref2 = linear.spinor(model, n, final.t, y, delta)
    error = max(
        float(np.max(np.abs(final.psi1.values - ref1))),
        float(np.max(np.abs(final.psi2.values - ref2))),
    )
    return trace, error
