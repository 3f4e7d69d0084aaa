"""Time-dependent Majorana dynamics.

States assembled from the separation ansatz psi1 = phi^- sin(Et/ħ + δ),
psi2 = phi^+ cos(Et/ħ + δ) carry a density rho = psi1² + psi2² that
oscillates for every excited level — only an unbroken ground state is
stationary. The coupled first-order system ħ ∂t psi1 = A† psi2,
ħ ∂t psi2 = -A psi1 is also integrated directly as an independent
dynamical check. It runs on a staggered grid, psi1 on the nodes and
psi2 on the midpoints, where the two-point ladder A has no fermion
doublers; states are averaged between nodes and midpoints on the way in
and out. The integration is a composition of implicit-midpoint (Cayley)
substeps at two levels: long jumps of q_L steps, each a sixth-order
composition of one real substep and a complex-conjugate pair whose
weights are the roots of the cubic of the (3,3) Padé approximant of exp
(Ehle, SIAM J. Math. Anal. 4, 671 (1973)) and meet the odd power-sum
conditions of commuting substeps (McLachlan, SIAM J. Sci. Comput. 16,
151 (1995)), carry the run, and short jumps of q_S steps, each the
fourth-order triple jump of three substeps (Yoshida, Phys. Lett. A 150,
262 (1990)), carry it from the last long jump towards a frame. A real
substep is the Cayley transform of a skew-symmetric matrix and the
pair's product is orthogonal too, so the discrete L2 norm is conserved
to roundoff. A real substep's Schur complement I + α²AᵀA is tridiagonal,
solved with LAPACK pttrs against a pttrf factorization; the pair takes
one complex solve of its own Schur complement, gttrs against a gttrf
factorization. All come from ``_lapack.flapack()``: four factorizations
made once per run, and two per side jump. q_S and q_L, a multiple of
q_S, are the longest jumps whose leading phase error per unit time
stays within a set share of the midpoint step's at the caller's step,
at the state's own energy; a frame off a multiple of q_S is reached by
a side jump from a copy, so the schedule and the frames are the
caller's.
Both routes give their densities as a stream of (t, rho) frames over
one schedule (dt, steps): ``linear.closed_form_frames`` for the closed
form, and ``PdeRun``, one pass that yields each frame as the jump loop
reaches it, so a consumer that writes frames out holds one at a time,
and then holds the norms, the final state, the jump lengths and the
solve count. ``stationarity_metric`` and ``measure_period`` reduce any
such stream in one pass. The run tests the state for inf and NaN as
each jump ends, and the first jump that fails names the step it ends
on. An initial state of zero or non-finite norm, and a sampled norm
drift that is NaN or too large, raise.
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
# Yoshida's triple jump: Cayley substeps of W1, W0, W1 times a jump make
# one fourth-order step (2·W1 + W0 = 1 and 2·W1³ + W0³ = 0)
W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
W0 = 1.0 - 2.0 * W1
# q·sqrt(θ) at most this makes a jump's leading phase error per unit time,
# |2·W1⁵ + W0⁵|(qθ)⁵/80 per jump, at most half the midpoint step's θ³/12 per step
JUMP_RATIO = ((1.0 / 12.0) / (2.0 * abs(2.0 * W1**5 + W0**5) / 80.0)) ** 0.25
# A long jump: Cayley substeps of these weights times the jump, a complex
# weight standing for itself and its conjugate. Substeps of one generator
# commute, so Σw = 1 and Σw³ = Σw⁵ = 0 make it sixth order (McLachlan,
# SIAM J. Sci. Comput. 16, 151 (1995)); these are the three roots of
# w³ - w² + (2/5)w - 1/15, whose Cayley factors make the diagonal (3,3)
# Padé approximant of exp (Ehle, SIAM J. Math. Anal. 4, 671 (1973))
LONG_WEIGHTS = (0.43062884623222436, 0.28468557688388785 + 0.27159985141630794j)
# the share of the midpoint step's phase error per unit time a long jump
# may make: small enough that the time error stays below the space error
# of the stencil under joint refinement of the grid and the step
LONG_ERROR_SHARE = 0.02
# q_L·θ^(2/3) at most this makes a long jump's leading phase error per unit
# time, C₆(q_Lθ)⁷ per jump with C₆ = |Σw⁷|/448 over all three weights, at
# most LONG_ERROR_SHARE of the midpoint step's θ³/12 per step
LONG_RATIO = (
    LONG_ERROR_SHARE
    / (12.0 * (abs(sum(w**7 for w in (*LONG_WEIGHTS, LONG_WEIGHTS[1].conjugate()))) / 448.0))
) ** (1.0 / 6)


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
    """One pass of the integration of the coupled first-order system
    over the schedule (dt, steps) of ``linear.closed_form_frames``, in
    jumps composed of implicit-midpoint (Cayley) substeps at two levels:
    sixth-order long jumps carry the run, fourth-order short jumps carry
    it on to the frames.

    The ladder is the staggered A of ``staggered_ladder``: psi1 lives on
    the m interior nodes and psi2 on the m + 1 midpoints, where it
    starts as the average of the two adjacent nodes of
    ``initial.psi2``. With u = (psi1, psi2) the system is ħ ∂t u = G u
    with the skew-symmetric G = [[0, Aᵀ], [-A, 0]]. A Cayley substep of
    length τ is u ← (I - αG)⁻¹(I + αG) u, α = τ/2ħ, applied as
    2(I - αG)⁻¹u - u. The solve eliminates psi2, which leaves the
    symmetric positive definite tridiagonal Schur complement
    S = I + α²AᵀA for psi1:

        S v1 = u1 + αAᵀu2,   v2 = u2 - αA v1.

    S has diagonal 1 + α²(left_j² + right_j²) and off-diagonal
    α²·right_j·left_{j+1}; for a real α it is factored with LAPACK
    ``pttrf`` (LDLᵀ) and solved with ``pttrs``, and a run keeps only α
    and the factors of each distinct substep, applying A through the
    shared bands. All substeps are functions of the one G, so they
    commute: substeps of weights w_i times a jump of q steps turn a mode
    of G of singular value σ by Σ 2·atan(w_i x/2) = xΣw_i - x³Σw_i³/12
    + x⁵Σw_i⁵/80 - x⁷Σw_i⁷/448 + ..., x = σ·q·dt/ħ, so the order
    conditions are the odd power sums alone (McLachlan, SIAM J. Sci.
    Comput. 16, 151 (1995)).

    A complex weight w makes a conjugate pair of substeps, α and ᾱ, and
    the pair is one complex solve: C(α)C(ᾱ) is 1 + a/(1 - αz) + ā/(1 - ᾱz)
    in partial fractions of z = G, with a = 2(1 + ᾱ/α)/(1 - ᾱ/α) =
    -2i·Re α/Im α purely imaginary, so on a real state

        C(α)C(ᾱ)u = u + 2·Re[a·(I - αG)⁻¹u],

    s1 ← s1 - 2β·Im v1 and s2 ← s2 + 2β·A Im(α·v1) with a = iβ and v1
    from the same Schur complement, now complex symmetric: factored with
    ``gttrf`` (LU with partial pivoting) and solved with ``gttrs``. Its
    factors and its right-hand side are made once per run; the wrapper
    wants 3 unknowns or more, so S is padded with identity rows for
    m = 1 and 2. A complex solve costs about three real ones. Every
    real substep and every pair is orthogonal in exact arithmetic, so
    the norm is conserved to roundoff: over ``evolve_long``'s four
    periods at 8001 points it drifts 1e-13 to 4e-13.

    - A long jump of q_L steps is the substeps ``LONG_WEIGHTS`` times
      q_L·dt: the real root of w³ - w² + (2/5)w - 1/15 and the pair of
      its complex roots, with Σw = 1 and Σw³ = Σw⁵ = 0 (Σw⁷ = 1/225):
      sixth order, the diagonal (3,3) Padé approximant of exp(q_L·dt·G/ħ),
      one real and one complex solve against one factorization each.
    - A short jump of q_S steps is the triple jump of substeps
      ``W1``·q_S·dt, ``W0``·q_S·dt, ``W1``·q_S·dt (Yoshida, Phys. Lett.
      A 150, 262 (1990)): fourth order, three solves against two
      factorizations.

    The four factorizations, two when q_L = q_S, are made once per run.
    q_S and q_L are worked out from the run, not configured: with the
    state's own energy E = ‖G u₀‖ / ‖u₀‖ and θ = E·dt/ħ,
    q_S = ⌊``JUMP_RATIO``/√θ⌋, the longest triple jump whose leading
    phase error per unit time, |2W1⁵ + W0⁵|(q_Sθ)⁵/80 per jump, is at
    most half the θ³/12 per step of the midpoint step at ``dt``; and
    q_L = q_S·⌊``LONG_RATIO``·θ^(-2/3)/q_S⌋, with C₆ = |Σw⁷|/448 and
    ``LONG_RATIO`` = (``LONG_ERROR_SHARE``/(12·C₆))^(1/6) ≈ 2.35, the
    longest multiple of q_S whose leading phase error per unit time,
    C₆(q_Lθ)⁷ per jump, is at most ``LONG_ERROR_SHARE`` of the midpoint
    step's. Both are at least 1 and at most ``steps[-1]``. When q_L would
    be less than 2·q_S, at fewer than 5 steps per component period, the
    long level is dropped: q_L = q_S and the run takes the triple jump
    alone. At ``STEPS_PER_PERIOD`` steps per component period q_S is 15
    and q_L is 105, and whole long jumps cost 2 solves per 105 steps,
    one of them complex, where whole triple jumps cost 21. Even where
    q_L = 2·q_S a long jump's two solves cost less than the six of two
    triple jumps. Whole jumps cost 3 solves per step at 4 steps per
    component period or fewer, and one per step at 5 to 9.

    The state advances in long jumps from step 0. A frame step f is
    reached from the long state at L = q_L·⌊f/q_L⌋: a second state,
    copied from the long one at L and carried on to the later frames
    until the long state passes it, takes the short jumps up to
    S = q_S·⌊f/q_S⌋, and a frame off a multiple of q_S takes one side
    jump of f - S, the triple jump of the remainder, on a copy and
    factored for that jump alone. q_L is a multiple of q_S, so the short
    jumps stay on multiples of q_S, and the frame at a step has the same
    bits whatever the other frame steps are. A side jump costs three
    solves and two factorizations, so frames closer together than q_S
    cost more than whole jumps; at a frame every 10 steps or fewer the
    side jumps take half the run or more. The sampled density is
    rho_j = psi1_j² + ½(psi2_{j-½}² + psi2_{j+½}²) at interior nodes and
    psi2² of the adjacent midpoint at the two boundary nodes, so its
    trapezoid sum is h(Σpsi1² + Σpsi2²), the quantity each substep
    conserves. Iterating the run yields the frame (dt * step, rho) at
    each of ``steps`` once, each ``rho`` a fresh array, as the loop
    reaches it (``drain`` runs them out unread). Then ``norms`` holds
    the trapezoid norm of each frame, ``norm_drift`` their relative
    drift, ``final`` the final state, back on the nodes (interior psi2
    averages its two adjacent midpoints, and both components are zero
    on the boundary nodes), ``jump_steps`` the pair (q_L, q_S) and
    ``solves`` the number of tridiagonal solves, ``pttrs`` and ``gttrs``,
    a complex solve counted as one; reading any of the five earlier
    raises RuntimeError.

    A ``dt`` that is not finite and positive, or ``steps`` that do not
    start at 0 and strictly increase, raise ValueError. An initial state
    of zero norm, one the grid does not hold, or of non-finite norm (inf
    or NaN, say from an amplitude whose square overflows) raises
    DegenerateFunctionError before the first frame.
    Each long, short and side jump checks its state for finite values
    as it ends; the first that leaves an inf or NaN raises
    InstabilityError(step) with the step that jump ends on: step 1
    whenever q_L = 1, the same step a check after every step would name.
    A sampled norm whose drift is not within 100 ``NORM_DRIFT_TOL``, NaN
    included, raises DivergenceError.
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
        # reached for these five only until the step loop sets them
        if name in ("norms", "norm_drift", "final", "jump_steps", "solves"):
            raise RuntimeError("the PDE run is read before its frames are exhausted")
        raise AttributeError(name)

    def drain(self) -> PdeRun:
        """Run the integration to the end, dropping the frames."""
        for _ in self._frames:
            pass
        return self

    def _integrate(self, initial, p, phi, dt, steps):
        """The jump loop: yields the frames, then sets the five results."""
        lapack = flapack()
        spec = initial.spec
        left, right = staggered_ladder(p, phi, spec)
        m = spec.n_points - 2
        dpttrf, dpttrs = lapack.dpttrf, lapack.dpttrs
        zgttrf, zgttrs = lapack.zgttrf, lapack.zgttrs

        # the bands of AᵀA; S = I + α²AᵀA for every substep. The LAPACK
        # wrapper wants an off-diagonal of length >= 1, also for m = 1
        ata_diag = left * left + right * right
        ata_off = np.zeros(max(m - 1, 1))
        ata_off[: m - 1] = right[:-1] * left[1:]

        def substeps(weights, count: int):
            """α and the factored S of each substep of weight·count·dt,
            factored once per distinct weight; a complex weight makes the
            one substep of its conjugate pair."""
            factors = {}
            for weight in set(weights):
                alpha = weight * count * dt / (2.0 * p.hbar)
                factors[weight] = alpha, (pair if isinstance(alpha, complex) else real)(alpha)
            return tuple(factors[weight] for weight in weights)

        def real(alpha):
            diag = np.multiply(ata_diag, alpha * alpha)
            diag += 1.0
            diag, off, info = dpttrf(
                diag, ata_off * (alpha * alpha), overwrite_d=True, overwrite_e=True
            )
            if info != 0:
                raise np.linalg.LinAlgError(f"pttrf failed on the Schur complement (info={info})")
            return diag, off

        def pair(alpha):
            # The complex S, factored by LU with pivoting, and the complex
            # right-hand side, both made here once. The wrapper refuses
            # fewer than 3 unknowns, so S is padded to 3 by identity rows
            # that no off-diagonal couples, whose right-hand side stays
            # zero while the state is finite
            size = max(m, 3)
            lower = np.zeros(size - 1, dtype=complex)
            np.multiply(ata_off[: m - 1], alpha * alpha, out=lower[: m - 1])
            diag = np.ones(size, dtype=complex)
            np.multiply(ata_diag, alpha * alpha, out=diag[:m])
            diag[:m] += 1.0
            *lu, info = zgttrf(
                lower, diag, lower.copy(), overwrite_dl=True, overwrite_d=True, overwrite_du=True
            )
            if info != 0:
                raise np.linalg.LinAlgError(f"gttrf failed on the Schur complement (info={info})")
            # and β, a = iβ: a = 2(1 + ᾱ/α)/(1 - ᾱ/α) = -2i·Re α/Im α
            return lu, np.zeros(size, dtype=complex), -2.0 * alpha.real / alpha.imag

        u1 = initial.psi1.values[1:-1].copy()
        u2 = 0.5 * (initial.psi2.values[:-1] + initial.psi2.values[1:])
        rhs = np.empty(m)
        tmp = np.empty(m)
        a_v1 = np.empty(m + 1)
        a_v1_lo, a_v1_hi = a_v1[:-1], a_v1[1:]
        # the short state and the copy a side jump takes
        short1, short2 = np.empty(m), np.empty(m + 1)
        side1, side2 = np.empty(m), np.empty(m + 1)
        norms = np.empty(len(steps))
        solves = 0

        def jump(s1, s2, factors, end: int):
            """Take the substeps ``factors`` of the jump to step ``end`` on
            the state (s1, s2) in place; an inf or NaN it leaves raises
            InstabilityError(end). A substep that leaves one leaves one in
            every later one: the next sweep spreads it to all of v1 (0·inf
            is NaN too), and nothing in a substep divides by state values."""
            nonlocal solves
            multiply, add, subtract = np.multiply, np.add, np.subtract
            s2_lo, s2_hi = s2[:-1], s2[1:]
            for alpha, factor in factors:
                # rhs = Aᵀs2
                multiply(left, s2_lo, out=rhs)
                multiply(right, s2_hi, out=tmp)
                add(rhs, tmp, out=rhs)
                if isinstance(alpha, complex):
                    # S v1 = s1 + αAᵀs2 in complex arithmetic; with a = iβ,
                    # s1 ← s1 + 2Re(a·v1) = s1 - 2β·Im v1 and
                    # s2 ← s2 + 2Re(a·v2) = s2 - A x, x = -2β·Im(α·v1)
                    lu, b, beta = factor
                    b_re, b_im = b.real[:m], b.imag[:m]
                    multiply(rhs, alpha.imag, out=b_im)
                    multiply(rhs, alpha.real, out=b_re)
                    add(b_re, s1, out=b_re)
                    v1, _ = zgttrs(*lu, b, overwrite_b=True)
                    v1_re, v1_im = v1.real[:m], v1.imag[:m]
                    multiply(v1_im, 2.0 * beta, out=tmp)
                    subtract(s1, tmp, out=s1)
                    x = rhs
                    multiply(v1_im, -2.0 * beta * alpha.real, out=x)
                    multiply(v1_re, -2.0 * beta * alpha.imag, out=tmp)
                    add(x, tmp, out=x)
                else:
                    # S v1 = s1 + αAᵀs2; then s1 ← 2v1 - s1 and
                    # s2 ← 2v2 - s2 = s2 - A x, x = 2α·v1
                    multiply(rhs, alpha, out=rhs)
                    add(rhs, s1, out=rhs)
                    x, _ = dpttrs(*factor, rhs, overwrite_b=True)
                    multiply(x, 2.0, out=x)
                    subtract(x, s1, out=s1)
                    multiply(x, alpha, out=x)
                multiply(left, x, out=a_v1_lo)
                a_v1[-1] = 0.0
                multiply(right, x, out=tmp)
                add(a_v1_hi, tmp, out=a_v1_hi)
                subtract(s2, a_v1, out=s2)
            solves += len(factors)
            if not (np.isfinite(s1).all() and np.isfinite(s2).all()):
                raise InstabilityError(end)

        def snapshot(frame: int, s1, s2) -> np.ndarray:
            sq2 = s2**2
            rho = np.empty(spec.n_points)
            rho[1:-1] = s1**2 + 0.5 * (sq2[:-1] + sq2[1:])
            rho[0] = sq2[0]
            rho[-1] = sq2[-1]
            norms[frame] = trapezoid(rho, spec.h)
            return rho

        rho = snapshot(0, u1, u2)
        if norms[0] == 0:
            raise DegenerateFunctionError("the initial state has zero norm on the grid")
        if not math.isfinite(norms[0]):
            raise DegenerateFunctionError(f"the initial state has norm {norms[0]} on the grid")
        q_long, q_short = _jump_steps(_energy(left, right, u1, u2) * dt / p.hbar, steps[-1])
        triple = (W1, W0, W1)
        short_factors = substeps(triple, q_short)
        long_factors = (
            substeps(LONG_WEIGHTS, q_long) if q_long > q_short else short_factors
        )
        yield 0.0, rho

        # the steps the long state u1, u2 and the short state short1, short2
        # have reached; the short state is the long one's only while at >= step
        step, at = 0, -1
        s1, s2 = u1, u2
        norm_drift = 0.0
        for frame in range(1, len(steps)):
            # the long, short and side jumps to the frame's step
            target = steps[frame]
            while step + q_long <= target:
                jump(u1, u2, long_factors, step + q_long)
                step += q_long
            s1, s2, reached = u1, u2, step
            if target - step >= q_short:
                if at < step:
                    np.copyto(short1, u1)
                    np.copyto(short2, u2)
                    at = step
                while at + q_short <= target:
                    jump(short1, short2, short_factors, at + q_short)
                    at += q_short
                s1, s2, reached = short1, short2, at
            if reached < target:
                np.copyto(side1, s1)
                np.copyto(side2, s2)
                jump(side1, side2, substeps(triple, target - reached), target)
                s1, s2 = side1, side2
            rho = snapshot(frame, s1, s2)
            drift = abs(norms[frame] - norms[0]) / abs(norms[0])
            if not drift <= 100.0 * NORM_DRIFT_TOL:
                raise DivergenceError(
                    f"norm drift {drift:.3e} at step {steps[frame]} "
                    f"exceeds {100.0 * NORM_DRIFT_TOL:.1e}"
                )
            norm_drift = max(norm_drift, drift)
            yield steps[frame] * dt, rho

        psi1 = np.zeros(spec.n_points)
        psi2 = np.zeros(spec.n_points)
        psi1[1:-1] = s1
        psi2[1:-1] = 0.5 * (s2[:-1] + s2[1:])
        self.norms = norms
        self.norm_drift = float(norm_drift)
        self.final = MajoranaSpinorState(
            GridFunction(spec, psi1), GridFunction(spec, psi2), t=steps[-1] * dt
        )
        self.jump_steps = q_long, q_short
        self.solves = solves


def _energy(left: np.ndarray, right: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> float:
    """The Rayleigh energy ‖G u‖ / ‖u‖ of the staggered state u = (u1, u2)
    under G = [[0, Aᵀ], [-A, 0]] with A the bands (left, right) of
    ``staggered_ladder``; inf or NaN where the product overflows."""
    with np.errstate(all="ignore"):
        a_u1 = np.zeros(len(u2))
        a_u1[:-1] = left * u1
        a_u1[1:] += right * u1
        at_u2 = left * u2[:-1] + right * u2[1:]
        return float(np.sqrt((at_u2 @ at_u2 + a_u1 @ a_u1) / (u1 @ u1 + u2 @ u2)))


def _jump_steps(theta: float, n_steps: int) -> tuple[int, int]:
    """The jump lengths (q_L, q_S) of ``PdeRun`` at the phase θ = E·dt/ħ
    per step: q_S = ⌊``JUMP_RATIO``/√θ⌋ within [1, ``n_steps``], and q_L
    the largest multiple of q_S within ``n_steps`` and
    ``LONG_RATIO``·θ^(-2/3), or q_S itself when that multiple is less than
    2·q_S; one jump for θ = 0, and q_L = q_S = 1 for a θ that is not
    finite."""
    if theta == 0.0:
        return max(1, n_steps), max(1, n_steps)
    if not math.isfinite(theta):
        return 1, 1
    q_short = max(1, min(n_steps, math.floor(JUMP_RATIO / math.sqrt(theta))))
    multiple = min(math.floor(LONG_RATIO * theta ** ((2.0 - 6) / 6) / q_short), n_steps // q_short)
    return (multiple * q_short if multiple >= 2 else q_short), q_short


def evolve_pde(
    initial: MajoranaSpinorState,
    p: PhysicalParams,
    phi: ScalarPotential,
    t_final: float,
    dt: float | None = None,
    stride: int = DEFAULT_STRIDE,
) -> PdeRun:
    """The exhausted ``PdeRun`` of ``initial`` to ``t_final``, at ``dt``
    (or ``default_time_step``) rounded by ``time_grid`` and sampled at
    every ``stride``-th step by ``frame_steps``: it holds ``norms``,
    ``norm_drift`` and ``final`` and keeps no frame. The benchmark
    tracer, ``perfbench/tracer.py``, times the PDE under this name."""
    if dt is None:
        dt = default_time_step(p, phi, initial.spec)
    dt, n_steps = time_grid(t_final, dt)
    return PdeRun(initial, p, phi, dt, frame_steps(n_steps, stride)).drain()
