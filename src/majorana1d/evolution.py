"""Time-dependent Majorana dynamics.

States assembled from the separation ansatz psi1 = phi^- sin(Et/ħ + δ),
psi2 = phi^+ cos(Et/ħ + δ) carry a density rho = psi1² + psi2² that
oscillates for every excited level — only an unbroken ground state is
stationary. The coupled first-order system ħ ∂t psi1 = A† psi2,
ħ ∂t psi2 = -A psi1 is also integrated directly with an implicit
midpoint step as an independent dynamical check; the step is a Cayley
transform of a skew-symmetric matrix, so the discrete L2 norm is
conserved to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .errors import (
    DivergenceError,
    GridMismatchError,
    InstabilityError,
    StationaryStateError,
)
from .linear import LinearModel
from .model import (
    GridFunction,
    PhysicalParams,
    ScalarPotential,
    superpotential,
)

NORM_DRIFT_TOL = 1e-6
DEFAULT_STRIDE = 50


@dataclass(frozen=True, eq=False)
class MajoranaSpinorState:
    """Two real components on a shared grid at one instant."""

    psi1: GridFunction
    psi2: GridFunction
    t: float = 0.0
    n: int | None = None
    delta: float | None = None
    energy: float | None = None

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
    n: int | None = None,
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
        n=n,
        delta=delta,
        energy=energy,
    )


def probability_density(state: MajoranaSpinorState) -> GridFunction:
    return GridFunction(state.spec, state.psi1.values**2 + state.psi2.values**2)


def _trapezoid(values: np.ndarray, h: float) -> float:
    return float(h * (values.sum() - 0.5 * (values[0] + values[-1])))


def state_norm(state: MajoranaSpinorState) -> float:
    return _trapezoid(
        state.psi1.values**2 + state.psi2.values**2, state.spec.h
    )


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
        norms.append(_trapezoid(rho.values, rho.spec.h))
    return EvolutionTrace(np.asarray(times, dtype=float), densities, np.array(norms))


def default_time_step(p: PhysicalParams, grid, w_max: float) -> float:
    """Fallback step when no period is known: resolve both the grid
    crossing time and the fastest local phase."""
    return 0.1 * grid.h / (p.c * p.hbar) * min(1.0, 1.0 / max(w_max, 1e-30))


def evolve_pde(
    initial: MajoranaSpinorState,
    p: PhysicalParams,
    phi: ScalarPotential,
    t_final: float,
    dt: float | None = None,
    stride: int = DEFAULT_STRIDE,
    norm_tol: float = NORM_DRIFT_TOL,
) -> tuple[EvolutionTrace, MajoranaSpinorState]:
    """Integrate the coupled first-order system with implicit midpoint.

    On the interior points, with the central-difference ladder
    A = tridiag(-coef, w_i, coef), coef = cħ/2h, the system is
    ħ ∂t u = G u with the skew-symmetric G = [[0, Aᵀ], [-A, 0]]. Each
    step is the Cayley transform u ← (I - αG)⁻¹(I + αG) u, α = dt/2ħ,
    applied as 2(I - αG)⁻¹u - u. The solve eliminates psi2, which leaves
    the symmetric positive definite pentadiagonal Schur complement
    S = I + α²AᵀA for psi1:

        S v1 = u1 + αAᵀu2,   v2 = u2 - αA v1.

    S has diagonal 1 + α²(w_i² + coef²·nb_i), where nb_i counts the
    interior neighbours of point i (2 inside, 1 at either end, 0 when
    there is a single interior point), first off-diagonal
    α²·coef·(w_i - w_{i+1}) and second off-diagonal -(α·coef)². It is
    factored once by banded Cholesky and the factor is reused for every
    step. Dirichlet-zero boundaries. Returns the sampled trace (every
    ``stride`` steps plus the final one) and the final state.
    """
    spec = initial.spec
    x = spec.points()
    w = np.asarray(superpotential(p, phi, x), dtype=float)
    if dt is None:
        dt = default_time_step(p, spec, float(np.max(np.abs(w))))
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = max(1, round(t_final / dt))
    dt = t_final / n_steps

    m = spec.n_points - 2
    alpha = dt / (2.0 * p.hbar)
    aw = alpha * w[1:-1]
    ac = alpha * p.c * p.hbar / (2.0 * spec.h)
    neighbours = np.zeros(m)
    neighbours[1:] += 1.0
    neighbours[:-1] += 1.0
    bands = np.zeros((3, m))
    bands[0, 2:] = -ac * ac
    bands[1, 1:] = ac * (aw[:-1] - aw[1:])
    bands[2] = 1.0 + aw * aw + ac * ac * neighbours
    factor = (cholesky_banded(bands), False)

    u1 = initial.psi1.values[1:-1]
    u2 = initial.psi2.values[1:-1]

    def snapshot(step: int):
        rho = np.zeros(spec.n_points)
        rho[1:-1] = u1**2 + u2**2
        return step * dt, GridFunction(spec, rho), _trapezoid(rho, spec.h)

    times, densities, norms = [], [], []
    t0, d0, n0 = snapshot(0)
    times.append(t0)
    densities.append(d0)
    norms.append(n0)

    for step in range(1, n_steps + 1):
        # v = (I - αG)⁻¹u through S, then u ← 2v - u
        rhs = u1 + aw * u2
        rhs[:-1] -= ac * u2[1:]
        rhs[1:] += ac * u2[:-1]
        v1 = cho_solve_banded(factor, rhs, overwrite_b=True, check_finite=False)
        a_v1 = aw * v1
        a_v1[:-1] += ac * v1[1:]
        a_v1[1:] -= ac * v1[:-1]
        u1 = 2.0 * v1 - u1
        u2 = u2 - 2.0 * a_v1
        if not (np.all(np.isfinite(u1)) and np.all(np.isfinite(u2))):
            raise InstabilityError(step)
        if step % stride == 0 or step == n_steps:
            t_s, d_s, n_s = snapshot(step)
            drift = abs(n_s - norms[0]) / abs(norms[0])
            if drift > 100.0 * norm_tol:
                raise DivergenceError(
                    f"norm drift {drift:.3e} at step {step} exceeds {100.0 * norm_tol:.1e}"
                )
            times.append(t_s)
            densities.append(d_s)
            norms.append(n_s)

    psi1 = np.zeros(spec.n_points)
    psi2 = np.zeros(spec.n_points)
    psi1[1:-1] = u1
    psi2[1:-1] = u2
    final = MajoranaSpinorState(
        GridFunction(spec, psi1), GridFunction(spec, psi2), t=n_steps * dt
    )
    return EvolutionTrace(np.array(times), densities, np.array(norms)), final
