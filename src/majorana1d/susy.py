"""Supersymmetric factorization machinery.

The two-component Majorana equation decouples into partner eigenvalue
problems H_∓ φ = E² φ with H_- = A†A and H_+ = AA†, where
A = c ħ d/dx + W and W = m c² + phi. A is discretized once, as the
doubler-free staggered A of ``model.staggered_ladder`` that the PDE
integrator steps with: ``apply_a`` is that A averaged back onto the
nodes, with the function zero on the two boundary nodes, and
``apply_a_dagger`` is its transpose. An unbroken configuration has a
normalizable zero mode exp(∓∫W/cħ) in exactly one sector; when the
partner pair is shape invariant the whole spectrum follows from the
reparametrization remainder R; ``invariants.compare_spectra`` sets it
beside the oracle's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BrokenSusyError,
    ConfigError,
    InvalidFamilyError,
    SusyConsistencyError,
    UnboundLevelError,
)
from .model import (
    GridFunction,
    GridSpec,
    LinearPotential,
    PhysicalParams,
    PoschlTellerPotential,
    ScalarPotential,
    Sector,
    norm,
    normalize,
    staggered_ladder,
    superpotential,
)

# Normalized zero-mode amplitude allowed at the domain ends; separates
# exponential decay from growth at desk-scale domains.
BOUNDARY_TOL = 1e-6
# A candidate above BOUNDARY_TOL at an end but decaying outward at both is
# cut off by the grid, not broken, when its tails fit a grid at most
# TRUNCATION_WIDTH_RATIO times as wide at the edge rate |W|/cħ; where
# W -> 0 outward, as for x/(1 + x²), a candidate decays without being
# normalizable and asks for more. The edge rate stands for a tail only
# below TAIL_RATE_RATIO times the candidate's mean rate of fall from its
# peak to that end: a W growing linearly along the tail (a Gaussian)
# gives 2, one steepening at the end (a pole just past it) more.
TRUNCATION_WIDTH_RATIO = 10.0
TAIL_RATE_RATIO = 3.0
# Largest spread of V_+(a1, x) - V_-(f(a1), x) on the grid that counts as constant
SHAPE_INVARIANCE_TOL = 1e-8
# Largest |mean of that difference - R(a1)|
REMAINDER_TOL = 1e-10
# Largest ||A ψ0|| (or ||A† ψ0||) of a sampled zero mode
ANNIHILATION_TOL = 1e-4
# Largest sup-norm distance of a sampled zero mode from the closed-form
# ground state, and largest ||A φ-_n - E_n φ+_n|| (A† for a plus-sector
# host) of the staggered ladder on closed-form states
ZERO_MODE_TOL = 1e-6
LADDER_TOL = 1e-3


@dataclass(frozen=True, eq=False)
class PartnerPotentials:
    """V_∓ = W² ∓ c ħ phi' sampled on a grid."""

    v_minus: GridFunction
    v_plus: GridFunction
    params: PhysicalParams


def partner_potentials(
    p: PhysicalParams, phi: ScalarPotential, grid: GridSpec
) -> PartnerPotentials:
    """V_∓ on ``grid``; a pair that is not finite there, where W² or c ħ
    phi' overflows, raises ConfigError naming the keys that set them."""
    x = grid.points()
    with np.errstate(over="ignore", invalid="ignore"):
        w = superpotential(p, phi, x)
        shift = p.c * p.hbar * np.asarray(phi.derivative(x), dtype=float)
        v_minus, v_plus = w**2 - shift, w**2 + shift
    finite = np.isfinite(v_minus) & np.isfinite(v_plus)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise ConfigError(
            f"potential and grid give partner potentials V = W^2 -+ c*hbar*phi' that "
            f"overflow at x = {float(x[bad])!r}: W = {float(w[bad]):.3g} and "
            f"c*hbar*phi' = {float(shift[bad]):.3g} there, and V must stay a finite "
            f"float on the grid; lower the potential or narrow the grid"
        )
    return PartnerPotentials(
        v_minus=GridFunction(grid, v_minus),
        v_plus=GridFunction(grid, v_plus),
        params=p,
    )


def apply_a(p: PhysicalParams, phi: ScalarPotential, f: GridFunction) -> GridFunction:
    """A f = c ħ f' + W f: the staggered A of ``staggered_ladder`` applied
    to the interior nodes of f (f is zero on the two boundary nodes, as
    in the oracle and the PDE), averaged back onto the nodes. Each
    boundary node takes its one adjacent midpoint."""
    left, right = staggered_ladder(p, phi, f.spec)
    inner = f.values[1:-1]
    mid = np.concatenate((left * inner, [0.0])) + np.concatenate(([0.0], right * inner))
    ends = np.concatenate((mid[:1], mid, mid[-1:]))
    return GridFunction(f.spec, 0.5 * (ends[:-1] + ends[1:]))


def apply_a_dagger(p: PhysicalParams, phi: ScalarPotential, f: GridFunction) -> GridFunction:
    """A† f = -c ħ f' + W f: the transpose of ``apply_a``. f is averaged
    onto the midpoints, and Aᵀ maps them onto the interior nodes; the two
    boundary nodes are zero. Under the trapezoid inner product
    <A f, g> = <f, A† g> holds to roundoff."""
    left, right = staggered_ladder(p, phi, f.spec)
    mid = 0.5 * (f.values[:-1] + f.values[1:])
    out = np.zeros(f.spec.n_points)
    out[1:-1] = left * mid[:-1] + right * mid[1:]
    return GridFunction(f.spec, out)


@dataclass(frozen=True, eq=False)
class SusyClassification:
    """Whether a normalizable zero mode exists and in which sector."""

    unbroken: bool
    sector: Sector | None
    zero_mode: GridFunction | None
    boundary_minus: float
    boundary_plus: float

    @property
    def status(self) -> str:
        return "unbroken" if self.unbroken else "broken"

    def annihilation_residual(self, p: PhysicalParams, phi: ScalarPotential) -> float:
        """||A ψ0|| for a minus-sector zero mode, ||A† ψ0|| for a plus-sector
        one. It vanishes for the exact mode, so on the grid it measures
        the discretization error of that ladder operator."""
        if not self.unbroken:
            raise BrokenSusyError("SUSY is broken: there is no zero mode to annihilate")
        annihilate = apply_a if self.sector is Sector.MINUS else apply_a_dagger
        return norm(annihilate(p, phi, self.zero_mode))


def zero_mode(p: PhysicalParams, phi: ScalarPotential, grid: GridSpec) -> SusyClassification:
    """Construct the zero-mode candidates exp(∓∫W/cħ) and classify.

    The running integral of W is formed by cumulative trapezoids from
    x_min; the exponent is shifted by its maximum before exponentiation
    so growing candidates never overflow. A candidate counts as
    normalizable when its normalized amplitude at both domain ends stays
    below ``BOUNDARY_TOL``. A normalized candidate's end amplitude is at
    most sqrt(2/h), so a spacing h of 2/``BOUNDARY_TOL``² or more, where
    every candidate would pass, raises ConfigError naming ``grid``, and so
    does an exponent ∫W/cħ that is not a finite float on ``grid``, which
    names the other keys that set it too. When neither candidate passes
    but one decays outward at both ends (W(x_min) < 0 < W(x_max) for the
    minus one, the signs flipped for the plus one), ``_require_untruncated``
    raises ConfigError naming ``grid`` where the grid only cuts off its
    tails, with the extra width ln(amp/``BOUNDARY_TOL``)·cħ/|W| each end needs.
    """
    if not grid.h * BOUNDARY_TOL**2 < 2.0:
        raise ConfigError(
            f"grid spacing h = {grid.h:.3g} is too wide for the zero-mode test: a normalized "
            f"candidate's end amplitude is at most sqrt(2/h) = {math.sqrt(2.0 / grid.h):.3g}, "
            f"within BOUNDARY_TOL = {BOUNDARY_TOL:g}, so every candidate would look "
            f"normalizable; narrow the grid or add points"
        )
    x = grid.points()
    w = np.asarray(superpotential(p, phi, x), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        integral = np.concatenate(([0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * grid.h)))
        scaled = integral / (p.c * p.hbar)
    if not np.all(np.isfinite(scaled)):
        raise ConfigError(
            f"physical.c and physical.hbar, potential and grid give the zero-mode exponent "
            f"integral(W dx)/(c*hbar) a value past the largest float: c*hbar = "
            f"{p.c * p.hbar:.3g} and |integral(W dx)| reaches "
            f"{float(np.max(np.abs(integral))):.3g} on the grid; raise c * hbar, "
            f"lower the potential or narrow the grid"
        )
    candidates = {}
    edges = {}
    for sector, sign in ((Sector.MINUS, -1.0), (Sector.PLUS, +1.0)):
        exponent = sign * scaled
        mode = normalize(GridFunction(grid, np.exp(exponent - exponent.max())))
        candidates[sector] = mode
        edges[sector] = float(max(abs(mode.values[0]), abs(mode.values[-1])))
    ok = [s for s in (Sector.MINUS, Sector.PLUS) if edges[s] <= BOUNDARY_TOL]
    if len(ok) == 2:
        raise SusyConsistencyError(
            f"both sector candidates look normalizable (boundary amplitudes "
            f"{edges[Sector.MINUS]:.3g} and {edges[Sector.PLUS]:.3g}, within BOUNDARY_TOL = "
            f"{BOUNDARY_TOL:g}); inconsistent with SUSY quantum mechanics on the line: "
            f"the grid truncates W or is too wide for the threshold"
        )
    if not ok:
        for sector, sign in ((Sector.MINUS, -1.0), (Sector.PLUS, +1.0)):
            if sign * w[0] > 0.0 > sign * w[-1]:  # exp(sign ∫W/cħ) decays outward at both ends
                _require_untruncated(p, grid, sector, w, candidates[sector])
        return SusyClassification(False, None, None, edges[Sector.MINUS], edges[Sector.PLUS])
    sector = ok[0]
    return SusyClassification(
        True, sector, candidates[sector], edges[Sector.MINUS], edges[Sector.PLUS]
    )


def _require_untruncated(
    p: PhysicalParams, grid: GridSpec, sector: Sector, w: np.ndarray, mode: GridFunction
):
    """ConfigError naming ``grid`` when ``mode``, the ``sector`` candidate,
    which decays outward at both ends, is above ``BOUNDARY_TOL`` at an end
    only because the grid cuts off its tail: at each such end the edge
    rate |W|/cħ stands for the tail, and a grid at most
    ``TRUNCATION_WIDTH_RATIO`` times as wide would take the candidate
    below ``BOUNDARY_TOL`` at that rate."""
    x, values = grid.points(), mode.values
    peak = int(np.argmax(values))
    amps = [abs(float(values[0])), abs(float(values[-1]))]
    extra = [0.0, 0.0]
    for side, end in enumerate((0, -1)):
        amp = amps[side]
        if amp <= BOUNDARY_TOL:
            continue
        # the decay length cħ/|W| at the end, against the distance over which
        # the candidate falls ln(peak/amp) e-folds from its peak to the end
        length = p.c * p.hbar / abs(float(w[end]))
        distance = abs(float(x[end] - x[peak]))
        if not distance < TAIL_RATE_RATIO * math.log(float(values[peak]) / amp) * length:
            return
        extra[side] = math.log(amp / BOUNDARY_TOL) * length
    width = grid.x_max - grid.x_min
    if not width + sum(extra) <= TRUNCATION_WIDTH_RATIO * width:
        return
    raise ConfigError(
        f"grid: the {sector.value}-sector zero-mode candidate decays outward at both ends "
        f"(W = {float(w[0]):.3g} at x_min, {float(w[-1]):.3g} at x_max) but its normalized "
        f"amplitude is {amps[0]:.3g} at x_min and {amps[1]:.3g} at x_max, above "
        f"BOUNDARY_TOL = {BOUNDARY_TOL:g}: the grid truncates it, so SUSY cannot be "
        f"classified. At the edge decay rate |W|/(c*hbar) it needs about {extra[0]:.3g} "
        f"more width below x_min and {extra[1]:.3g} above x_max; widen the grid to about "
        f"[{grid.x_min - extra[0]:.3g}, {grid.x_max + extra[1]:.3g}]"
    )


@dataclass(frozen=True)
class ShapeInvariantFamily:
    """A one-parameter potential family closed under the partner map:
    H_+(a) = H_-(f(a)) + R(a). ``bound_levels`` counts the bound levels
    of H_-(a1); None means every level is bound."""

    potential_at: Callable[[float], ScalarPotential]
    next_parameter: Callable[[float], float]
    remainder: Callable[[float], float]
    a1: float
    label: str = ""
    bound_levels: int | None = None

    def parameters(self, count: int) -> list[float]:
        seq = [self.a1]
        for _ in range(count - 1):
            seq.append(self.next_parameter(seq[-1]))
        return seq

    def require_bound(self, n_max: int, key: str):
        """UnboundLevelError naming ``key`` and ``bound_levels`` unless
        levels 0..``n_max`` are all bound: above them the algebraic
        ladder runs on past the continuum threshold."""
        if self.bound_levels is not None and n_max >= self.bound_levels:
            raise UnboundLevelError(
                f"{key} is {n_max}, but the {self.label} family binds only "
                f"{self.bound_levels} level(s), n = 0..{self.bound_levels - 1}; "
                f"set {key} to at most {self.bound_levels - 1}"
            )


def linear_family(k: float, p: PhysicalParams) -> ShapeInvariantFamily:
    """phi(a, x) = a x with the identity reparametrization; R = 2 c ħ a."""
    if k <= 0:
        raise InvalidFamilyError("the linear family needs k > 0 (take |k| for k < 0)")
    return ShapeInvariantFamily(
        potential_at=lambda a: LinearPotential(a),
        next_parameter=lambda a: a,
        remainder=lambda a: 2.0 * p.c * p.hbar * a,
        a1=k,
        label="linear",
    )


def poschl_teller_family(
    depth: float, width: float, p: PhysicalParams
) -> ShapeInvariantFamily:
    """phi(a, x) = a tanh(width x), massless: f(a) = a - c ħ width,
    R(a) = a² - (a - c ħ width)². It binds the levels n < depth/(c ħ
    width): the zero mode of a_(n+1) = depth - n c ħ width is
    normalizable only while that parameter is positive."""
    if p.mass != 0:
        raise InvalidFamilyError(
            "the tanh family is shape invariant only for a massless fermion; "
            "a rest energy shifts W by a constant and breaks the parameter map"
        )
    step = p.c * p.hbar * width

    return ShapeInvariantFamily(
        potential_at=lambda a: PoschlTellerPotential(a, width),
        next_parameter=lambda a: a - step,
        remainder=lambda a: a**2 - (a - step) ** 2,
        a1=depth,
        label="poschl_teller",
        bound_levels=math.ceil(depth / step),
    )


def builtin_family(p: PhysicalParams, phi: ScalarPotential) -> ShapeInvariantFamily | None:
    """The built-in shape-invariant family of ``phi`` under ``p``, taken
    on the zero-mode-hosting sector (a slope, depth or width of either
    sign gives the family of its magnitude), or None when it has none.
    Only the linear potential with k != 0 and the massless Pöschl–Teller
    well with depth and width != 0 have one (Cooper, Khare & Sukhatme,
    Phys. Rep. 251, 267 (1995))."""
    if isinstance(phi, LinearPotential) and phi.k != 0:
        return linear_family(abs(phi.k), p)
    if isinstance(phi, PoschlTellerPotential) and p.mass == 0 and phi.depth * phi.width != 0:
        # depth tanh(width x) = -depth tanh(-width x)
        return poschl_teller_family(abs(phi.depth), abs(phi.width), p)
    return None


@dataclass(frozen=True)
class ShapeInvarianceResult:
    r_declared: float
    r_measured: float
    spread: float
    is_invariant: bool


def check_shape_invariance(
    fam: ShapeInvariantFamily, p: PhysicalParams, grid: GridSpec
) -> ShapeInvarianceResult:
    """Measure d(x) = V_+(a1, x) - V_-(f(a1), x) on the grid. Shape
    invariance means d is the constant R(a1): flat within
    ``SHAPE_INVARIANCE_TOL``, with a mean that ``REMAINDER_TOL`` holds to
    the declared R(a1)."""
    a1 = fam.a1
    a2 = fam.next_parameter(a1)
    v_plus = partner_potentials(p, fam.potential_at(a1), grid).v_plus
    v_minus_next = partner_potentials(p, fam.potential_at(a2), grid).v_minus
    d = v_plus.values - v_minus_next.values
    spread = float(d.max() - d.min())
    return ShapeInvarianceResult(
        r_declared=fam.remainder(a1),
        r_measured=float(d.mean()),
        spread=spread,
        is_invariant=spread <= SHAPE_INVARIANCE_TOL,
    )


def algebraic_spectrum(fam: ShapeInvariantFamily, n_max: int) -> np.ndarray:
    """Energies [E_0 .. E_n_max] with E_n = sqrt(sum_{k<=n} R(a_k)) and
    E_0 = 0; only the non-negative root is physical (the negative root
    reproduces the same states)."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    energies = [0.0]
    total = 0.0
    for a in fam.parameters(n_max) if n_max > 0 else []:
        total += fam.remainder(a)
        if total < 0:
            raise InvalidFamilyError(
                f"partial remainder sum {total} < 0: spectrum would be complex"
            )
        energies.append(float(np.sqrt(total)))
    return np.array(energies)
