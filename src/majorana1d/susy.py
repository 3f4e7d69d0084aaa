"""Supersymmetric factorization machinery.

The two-component Majorana equation decouples into partner eigenvalue
problems H_∓ φ = E² φ with H_- = A†A and H_+ = AA†, where
A = c ħ d/dx + W and W = m c² + phi. An unbroken configuration has a
normalizable zero mode exp(∓∫W/cħ) in exactly one sector; when the
partner pair is shape invariant the whole spectrum follows from the
reparametrization remainder R.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import oracle
from .errors import BrokenSusyError, InvalidFamilyError, SusyConsistencyError
from .model import (
    GridFunction,
    GridSpec,
    PhysicalParams,
    ScalarPotential,
    inner_product,
    normalize,
    superpotential,
)
from .oracle import Eigenpair, Sector

# Normalized zero-mode amplitude allowed at the domain ends; separates
# exponential decay from growth at desk-scale domains.
BOUNDARY_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class PartnerPotentials:
    """V_∓ = W² ∓ c ħ phi' sampled on a grid."""

    v_minus: GridFunction
    v_plus: GridFunction
    params: PhysicalParams
    potential: ScalarPotential


def partner_potentials(
    p: PhysicalParams, phi: ScalarPotential, grid: GridSpec
) -> PartnerPotentials:
    x = grid.points()
    w = superpotential(p, phi, x)
    dphi = np.asarray(phi.derivative(x, step=grid.h), dtype=float)
    shift = p.c * p.hbar * dphi
    return PartnerPotentials(
        v_minus=GridFunction(grid, w**2 - shift),
        v_plus=GridFunction(grid, w**2 + shift),
        params=p,
        potential=phi,
    )


def oracle_eigenvalues(pair: PartnerPotentials, sector: Sector, k: int) -> np.ndarray:
    """The k smallest finite-difference energies² of H_∓ for ``sector``:
    ``oracle.eigenvalues`` of the discretized V_- (MINUS) or V_+ (PLUS)
    of ``pair``."""
    v = pair.v_minus if sector is Sector.MINUS else pair.v_plus
    return oracle.eigenvalues(oracle.discretize(pair.params, v, sector), k)


def _gradient(values: np.ndarray, h: float) -> np.ndarray:
    # central differences inside, second-order one-sided at the ends
    return np.gradient(values, h, edge_order=2)


def apply_a(p: PhysicalParams, phi: ScalarPotential, f: GridFunction) -> GridFunction:
    """A f = c ħ f' + W f."""
    w = superpotential(p, phi, f.x)
    return GridFunction(f.spec, p.c * p.hbar * _gradient(f.values, f.spec.h) + w * f.values)


def apply_a_dagger(p: PhysicalParams, phi: ScalarPotential, f: GridFunction) -> GridFunction:
    """A† f = -c ħ f' + W f."""
    w = superpotential(p, phi, f.x)
    return GridFunction(f.spec, -p.c * p.hbar * _gradient(f.values, f.spec.h) + w * f.values)


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


def zero_mode(
    p: PhysicalParams,
    phi: ScalarPotential,
    grid: GridSpec,
    boundary_tol: float = BOUNDARY_TOL,
) -> SusyClassification:
    """Construct the zero-mode candidates exp(∓∫W/cħ) and classify.

    The running integral of W is formed by cumulative trapezoids from
    x_min; the exponent is shifted by its maximum before exponentiation
    so growing candidates never overflow. A candidate counts as
    normalizable when its normalized amplitude at both domain ends stays
    below ``boundary_tol``.
    """
    x = grid.points()
    w = np.asarray(superpotential(p, phi, x), dtype=float)
    integral = np.concatenate(([0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * grid.h)))
    candidates = {}
    edges = {}
    for sector, sign in ((Sector.MINUS, -1.0), (Sector.PLUS, +1.0)):
        exponent = sign * integral / (p.c * p.hbar)
        mode = normalize(GridFunction(grid, np.exp(exponent - exponent.max())))
        candidates[sector] = mode
        edges[sector] = float(max(abs(mode.values[0]), abs(mode.values[-1])))
    ok = [s for s in (Sector.MINUS, Sector.PLUS) if edges[s] <= boundary_tol]
    if len(ok) == 2:
        raise SusyConsistencyError(
            "both sector candidates look normalizable; inconsistent with "
            "SUSY quantum mechanics on the line"
        )
    if not ok:
        return SusyClassification(False, None, None, edges[Sector.MINUS], edges[Sector.PLUS])
    sector = ok[0]
    return SusyClassification(
        True, sector, candidates[sector], edges[Sector.MINUS], edges[Sector.PLUS]
    )


@dataclass(frozen=True)
class ShapeInvariantFamily:
    """A one-parameter potential family closed under the partner map:
    H_+(a) = H_-(f(a)) + R(a)."""

    potential_at: Callable[[float], ScalarPotential]
    next_parameter: Callable[[float], float]
    remainder: Callable[[float], float]
    a1: float
    label: str = ""

    def parameters(self, count: int) -> list[float]:
        seq = [self.a1]
        for _ in range(count - 1):
            seq.append(self.next_parameter(seq[-1]))
        return seq


def linear_family(k: float, p: PhysicalParams) -> ShapeInvariantFamily:
    """phi(a, x) = a x with the identity reparametrization; R = 2 c ħ a."""
    from .model import LinearPotential

    if k <= 0:
        raise InvalidFamilyError("the linear family needs k > 0 (mirror k < 0 first)")
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
    R(a) = a² - (a - c ħ width)²."""
    from .model import PoschlTellerPotential

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
    )


@dataclass(frozen=True)
class ShapeInvarianceResult:
    r_measured: float
    is_invariant: bool
    spread: float


def check_shape_invariance(
    fam: ShapeInvariantFamily,
    p: PhysicalParams,
    grid: GridSpec,
    tol: float = 1e-8,
) -> ShapeInvarianceResult:
    """Measure d(x) = V_+(a1, x) - V_-(f(a1), x) on the grid. Shape
    invariance means d is the constant R(a1): flat within ``tol``."""
    a1 = fam.a1
    a2 = fam.next_parameter(a1)
    v_plus = partner_potentials(p, fam.potential_at(a1), grid).v_plus
    v_minus_next = partner_potentials(p, fam.potential_at(a2), grid).v_minus
    d = v_plus.values - v_minus_next.values
    spread = float(d.max() - d.min())
    return ShapeInvarianceResult(
        r_measured=float(d.mean()), is_invariant=spread <= tol, spread=spread
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


def state_hierarchy(
    p: PhysicalParams,
    fam: ShapeInvariantFamily,
    grid: GridSpec,
    n_max: int,
) -> tuple[list[Eigenpair], list[Eigenpair]]:
    """Build the eigenstate ladders of both sectors algebraically.

    The n-th minus-sector state at parameter a_1 comes from the zero
    mode at a_{n+1} pushed up the chain with A†(a_s), renormalizing at
    every rung; plus-sector states are A(a_1) images of the next minus
    state. Returned plus states are indexed by their own sector, so
    plus[n] shares its eigenvalue with minus[n+1].
    """
    params_seq = fam.parameters(n_max + 1)
    modes = {}
    for a in params_seq:
        cls = zero_mode(p, fam.potential_at(a), grid)
        if not cls.unbroken or cls.sector is not Sector.MINUS:
            raise BrokenSusyError(
                f"hierarchy needs an unbroken minus-sector zero mode at a={a}; "
                f"classification was {cls.status}"
                + (f"/{cls.sector.value}" if cls.sector else "")
            )
        modes[a] = cls.zero_mode
    energies = algebraic_spectrum(fam, n_max)

    minus: list[Eigenpair] = []
    for n in range(n_max + 1):
        state = modes[params_seq[n]]
        for s in range(n - 1, -1, -1):
            state = normalize(apply_a_dagger(p, fam.potential_at(params_seq[s]), state))
        minus.append(Eigenpair(float(energies[n] ** 2), state, n, Sector.MINUS))

    plus: list[Eigenpair] = []
    for n in range(n_max):
        image = normalize(apply_a(p, fam.potential_at(params_seq[0]), minus[n + 1].eigenfunction))
        plus.append(Eigenpair(float(energies[n + 1] ** 2), image, n, Sector.PLUS))
    return minus, plus


def gram_matrix(states: list[Eigenpair]) -> np.ndarray:
    """Pairwise overlaps; the identity for an orthonormal ladder."""
    k = len(states)
    out = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            out[i, j] = out[j, i] = inner_product(
                states[i].eigenfunction, states[j].eigenfunction
            )
    return out
