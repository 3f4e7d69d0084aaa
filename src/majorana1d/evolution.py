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
pttrf/pttrs, taken from ``_lapack.flapack()`` when a run starts.
Both routes give their densities as a stream of (t, rho) frames over
one schedule (dt, steps): ``linear.closed_form_frames`` for the closed
form, and ``PdeRun``, one pass that yields each frame as the step loop
reaches it, so a consumer that writes frames out holds one at a time,
and then holds the norms and the final state. ``stationarity_metric``
and ``measure_period`` reduce any such stream in one pass. The run
tests the state for inf and NaN only at those frames; on a failed test
it replays the steps since the last frame, each one tested, to name the
step that failed. An initial state of zero or non-finite norm, and a
sampled norm drift that is NaN or too large, raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import flapack
from .errors import (
    ConfigError,
    DegenerateFunctionError,
    DivergenceError,
    GridMismatchError,
    InstabilityError,
    StationaryStateError,
)
from .model import (
    GridFunction,
    GridSpec,
    PhysicalParams,
    ScalarPotential,
    staggered_ladder,
    superpotential,
    trapezoid,
)

NORM_DRIFT_TOL = 1e-6
# Largest sup-norm distance of an integrated component from the closed form
PDE_RETURN_TOL = 1e-3
DEFAULT_STRIDE = 50
# time steps per density period when no step is given
STEPS_PER_PERIOD = 2000
# run length of a ground state asked for in periods: it has none
GROUND_STATE_T_FINAL = 5.0
# most frames one run samples: its frame schedule and CSVs grow with them
MAX_FRAMES = 10**6
# a density return is a local minimum of r(t) below this share of its largest value
RETURN_REL_TOL = 0.05


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


def _relative_drift(norms: np.ndarray) -> float:
    """Largest distance of ``norms`` from the first, relative to it."""
    return float(np.max(np.abs(norms - norms[0])) / abs(norms[0]))


def _excursions(frames) -> tuple[np.ndarray, np.ndarray]:
    """The times t and the sup-norm distances r(t) = max|rho(t) - rho(0)|
    of a stream of (t, rho) frames, read in one pass that keeps rho(0)
    and two floats per frame."""
    times, r = [], []
    rho0 = None
    for t, rho in frames:
        if rho0 is None:
            rho0 = np.array(rho, dtype=float)
        times.append(t)
        r.append(np.max(np.abs(rho - rho0)))
    return np.array(times, dtype=float), np.array(r, dtype=float)


def stationarity_metric(frames) -> float:
    """max_t of the sup-norm distance between rho(t) and rho(0) over a
    stream of (t, rho) frames, such as ``linear.closed_form_frames`` or a
    ``PdeRun``; zero for a stationary state or a single frame."""
    _, r = _excursions(frames)
    return float(np.max(r[1:], initial=0.0))


def measure_period(frames) -> float:
    """First return time of the density over a stream of (t, rho) frames:
    the earliest local minimum of ||rho(t)-rho(0)||_inf that drops below
    ``RETURN_REL_TOL`` of the excursion, refined with a three-point parabola.

    This is the density return time, half of ``linear.density_period``: rho is
    built from sin² and cos², so it returns twice per turn of the
    component phase. Fewer than three frames raise ValueError, and
    frames that all equal the first, a stationary state, raise
    StationaryStateError."""
    times, r = _excursions(frames)
    if len(times) < 3:
        raise ValueError("too few frames to locate a return")
    if not r.any():
        raise StationaryStateError("the density is stationary and has no period")
    threshold = RETURN_REL_TOL * r.max()
    for i in range(1, len(r) - 1):
        if r[i] <= r[i - 1] and r[i] <= r[i + 1] and r[i] <= threshold:
            denom = r[i - 1] - 2.0 * r[i] + r[i + 1]
            t = times[i]
            if denom > 0:
                dt = times[i + 1] - times[i]
                t += 0.5 * dt * (r[i - 1] - r[i + 1]) / denom
            return float(t)
    raise ValueError("no density return found in the sampled window")


def default_time_step(p: PhysicalParams, phi: ScalarPotential, grid: GridSpec) -> float:
    """Fallback step when no period is known: resolve both the grid
    crossing time and the fastest local phase, set by max|W| on ``grid``."""
    w_max = float(np.max(np.abs(superpotential(p, phi, grid.points()))))
    return 0.1 * grid.h / (p.c * p.hbar) * min(1.0, 1.0 / max(w_max, 1e-30))


def time_grid(t_final: float, dt: float) -> tuple[float, int]:
    """The step and step count of a run to ``t_final`` at about ``dt``:
    n_steps = max(1, round(t_final / dt)) and t_final / n_steps, which
    lands on ``t_final`` exactly. Rounding again with the returned step
    gives the same pair."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = max(1, round(t_final / dt))
    return t_final / n_steps, n_steps


def frame_steps(n_steps: int, stride: int) -> list[int]:
    """The steps at which a run of ``n_steps`` is sampled: every
    ``stride``-th one from 0, and the last; more than ``MAX_FRAMES`` of
    them raise ConfigError before any list is built."""
    if n_steps > (MAX_FRAMES - 1) * stride:
        raise ConfigError(
            f"evolve.t_final / evolve.dt / evolve.stride sample more than MAX_FRAMES = "
            f"{MAX_FRAMES} frames: {n_steps:.3g} steps at a stride of {stride}"
        )
    return [*range(0, n_steps, stride), n_steps]


class PdeRun:
    """One pass of the implicit-midpoint integration of the coupled
    first-order system over the schedule (dt, steps) of
    ``linear.closed_form_frames``.

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
    quantity the Cayley step conserves. Iterating the run yields the
    frame (dt * step, rho) at each of ``steps`` once, each ``rho`` a
    fresh array, as the loop reaches it (``drain`` runs them out
    unread). Then ``norms`` holds the trapezoid norm of each frame,
    ``norm_drift`` their relative drift and ``final`` the final state,
    back on the nodes (interior psi2 averages its two adjacent
    midpoints, and both components are zero on the boundary nodes);
    reading any of the three earlier raises RuntimeError.

    A ``dt`` that is not finite and positive, or ``steps`` that do not
    start at 0 and strictly increase, raise ValueError. An initial state
    of zero norm, one the grid does not hold, or of non-finite norm (inf
    or NaN, say from an amplitude whose square overflows) raises
    DegenerateFunctionError before the first frame.
    The state is checked for finite values only at the frame steps; the
    steps between them run the step arithmetic alone. When a check
    fails, the steps since the last frame are replayed from the state
    that passed there, each one checked, and the first step that leaves
    a non-finite value raises InstabilityError(step): the same step a
    check after every step would name. A sampled norm whose drift is not
    within 100 ``NORM_DRIFT_TOL``, NaN included, raises DivergenceError.
    """

    def __init__(self, initial, p, phi, dt, steps):
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be finite and positive, got {dt!r}")
        if len(steps) == 0 or steps[0] != 0 or any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("steps must start at 0 and strictly increase")
        self._frames = self._integrate(initial, p, phi, dt, steps)

    def __iter__(self):
        return self._frames

    def __getattr__(self, name: str):
        # reached for these three only until the step loop sets them
        if name in ("norms", "norm_drift", "final"):
            raise RuntimeError("the PDE run is read before its frames are exhausted")
        raise AttributeError(name)

    def drain(self) -> PdeRun:
        """Run the integration to the end, dropping the frames."""
        for _ in self._frames:
            pass
        return self

    def _integrate(self, initial, p, phi, dt, steps):
        """The step loop: yields the frames, then sets the three results."""
        lapack = flapack()
        spec = initial.spec
        left, right = staggered_ladder(p, phi, spec)

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
        dpttrs = lapack.dpttrs

        u1 = initial.psi1.values[1:-1].copy()
        u2 = 0.5 * (initial.psi2.values[:-1] + initial.psi2.values[1:])
        rhs = np.empty(m)
        tmp = np.empty(m)
        a_v1 = np.empty(m + 1)
        u2_lo, u2_hi = u2[:-1], u2[1:]
        a_v1_lo, a_v1_hi = a_v1[:-1], a_v1[1:]
        # the state at the last step that passed its check, to replay from
        checked1 = np.empty(m)
        checked2 = np.empty(m + 1)
        norms = np.empty(len(steps))

        def advance(count: int):
            """Take ``count`` steps in place, without checking the state."""
            multiply, add, subtract = np.multiply, np.add, np.subtract
            for _ in range(count):
                # S v1 = u1 + αAᵀu2; then u1 ← 2v1 - u1 and u2 ← 2v2 - u2 = u2 - 2αA v1
                multiply(a_left, u2_lo, out=rhs)
                multiply(a_right, u2_hi, out=tmp)
                add(rhs, tmp, out=rhs)
                add(rhs, u1, out=rhs)
                v1, _ = dpttrs(diag, off, rhs, overwrite_b=True)
                multiply(a2_left, v1, out=a_v1_lo)
                a_v1[-1] = 0.0
                multiply(a2_right, v1, out=tmp)
                add(a_v1_hi, tmp, out=a_v1_hi)
                subtract(u2, a_v1, out=u2)
                multiply(v1, 2.0, out=tmp)
                subtract(tmp, u1, out=u1)

        def finite() -> bool:
            return bool(np.all(np.isfinite(u1)) and np.all(np.isfinite(u2)))

        def snapshot(frame: int) -> np.ndarray:
            sq2 = u2**2
            rho = np.empty(spec.n_points)
            rho[1:-1] = u1**2 + 0.5 * (sq2[:-1] + sq2[1:])
            rho[0] = sq2[0]
            rho[-1] = sq2[-1]
            norms[frame] = trapezoid(rho, spec.h)
            return rho

        rho = snapshot(0)
        if norms[0] == 0:
            raise DegenerateFunctionError("the initial state has zero norm on the grid")
        if not math.isfinite(norms[0]):
            raise DegenerateFunctionError(f"the initial state has norm {norms[0]} on the grid")
        yield 0.0, rho

        step = 0
        for frame in range(1, len(steps)):
            np.copyto(checked1, u1)
            np.copyto(checked2, u2)
            # silent here: the replay below warns for the failing step alone
            with np.errstate(over="ignore", invalid="ignore"):
                advance(steps[frame] - step)
            # Checked at frames only. A step that leaves an inf or NaN leaves
            # one in every later step: the next pttrs sweep spreads it to all
            # of v1 (0·inf is NaN too), and nothing in the step divides by
            # state values. The arithmetic is deterministic, so replaying
            # from the last checked state, one checked step at a time, stops
            # at the first step that left a non-finite value.
            if not finite():
                np.copyto(u1, checked1)
                np.copyto(u2, checked2)
                while step < steps[frame] and finite():
                    advance(1)
                    step += 1
                raise InstabilityError(step)
            step = steps[frame]
            rho = snapshot(frame)
            drift = abs(norms[frame] - norms[0]) / abs(norms[0])
            if not drift <= 100.0 * NORM_DRIFT_TOL:
                raise DivergenceError(
                    f"norm drift {drift:.3e} at step {step} "
                    f"exceeds {100.0 * NORM_DRIFT_TOL:.1e}"
                )
            yield step * dt, rho

        psi1 = np.zeros(spec.n_points)
        psi2 = np.zeros(spec.n_points)
        psi1[1:-1] = u1
        psi2[1:-1] = 0.5 * (u2[:-1] + u2[1:])
        self.norms = norms
        self.norm_drift = _relative_drift(norms)
        self.final = MajoranaSpinorState(
            GridFunction(spec, psi1), GridFunction(spec, psi2), t=steps[-1] * dt
        )


def pde_frames(
    initial: MajoranaSpinorState,
    p: PhysicalParams,
    phi: ScalarPotential,
    t_final: float,
    dt: float | None = None,
    stride: int = DEFAULT_STRIDE,
) -> PdeRun:
    """The ``PdeRun`` of ``initial`` to ``t_final``: ``dt`` (or
    ``default_time_step``) rounded by ``time_grid``, at every ``stride``-th step."""
    if dt is None:
        dt = default_time_step(p, phi, initial.spec)
    dt, n_steps = time_grid(t_final, dt)
    return PdeRun(initial, p, phi, dt, frame_steps(n_steps, stride))


def evolve_pde(
    initial: MajoranaSpinorState,
    p: PhysicalParams,
    phi: ScalarPotential,
    t_final: float,
    dt: float | None = None,
    stride: int = DEFAULT_STRIDE,
) -> PdeRun:
    """``pde_frames(...).drain()``: the exhausted run, which holds
    ``norms``, ``norm_drift`` and ``final`` and keeps no frame; it raises
    what ``pde_frames`` raises. The benchmark tracer,
    ``perfbench/tracer.py``, times the PDE under this name."""
    return pde_frames(initial, p, phi, t_final, dt, stride).drain()
