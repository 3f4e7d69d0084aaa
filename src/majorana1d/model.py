"""Core model: physical constants, scalar potentials, grids, the pieces
every route shares (``Sector``, ``superpotential``, ``staggered_ladder``,
``trapezoid``) and the reality audit for external couplings.

A Majorana fermion in 1+1 dimensions is a two-component *real* spinor.
Hermiticity plus reality of the Hamiltonian force three of the four
possible static couplings (electric/gauge pair and pseudoscalar) to
vanish identically; only a scalar potential phi(x) survives, entering
through the superpotential W(x) = m c^2 + phi(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from . import expressions
from .errors import (
    DegenerateFunctionError,
    EvaluationError,
    GridMismatchError,
)

# Unit-norm snap threshold: functions whose squared norm is already this
# close to 1 are returned unscaled, which makes normalize() idempotent.
_UNIT_NORM_SNAP = 1e-12
# most points one grid holds: a command keeps about 100 bytes per point,
# so this caps it near 1 GB
MAX_GRID_POINTS = 10**7


@dataclass(frozen=True)
class PhysicalParams:
    """Mass and the two dimensionful constants, kept symbolic so both
    natural-unit and dimensionful runs work unchanged."""

    mass: float = 1.0
    c: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.mass < 0:
            raise ValueError(f"mass must be non-negative, got {self.mass}")
        if self.c <= 0 or self.hbar <= 0:
            raise ValueError("c and hbar must be positive")
        try:
            rest_energy = self.rest_energy
        except OverflowError:  # c**2 past the largest float
            rest_energy = math.inf
        if not math.isfinite(rest_energy):
            raise ValueError(
                f"the rest energy mass * c**2 must be a finite float, "
                f"got mass = {self.mass!r} and c = {self.c!r}"
            )

    @property
    def rest_energy(self) -> float:
        return self.mass * self.c**2


@dataclass(frozen=True)
class GridSpec:
    """Uniform 1D grid on [x_min, x_max] with n_points samples."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.n_points < 3:
            raise ValueError(f"need at least 3 grid points, got {self.n_points}")
        if self.n_points > MAX_GRID_POINTS:
            raise ValueError(
                f"grid.n_points must be at most MAX_GRID_POINTS = {MAX_GRID_POINTS}, "
                f"got {self.n_points}"
            )
        if not math.isfinite(self.h):  # x_max - x_min overflows, or a bound is infinite
            raise ValueError(
                f"need a finite spacing (x_max - x_min) / (n_points - 1), got {self.h}"
            )

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


class Sector(str, Enum):
    MINUS = "minus"
    PLUS = "plus"

    @property
    def partner(self) -> Sector:
        """The other sector: H_+ partners H_- and vice versa."""
        return Sector.PLUS if self is Sector.MINUS else Sector.MINUS


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real samples of a function on a GridSpec. Immutable."""

    spec: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.spec.n_points,):
            raise ValueError(
                f"expected {self.spec.n_points} samples, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            x_bad = float(self.spec.points()[bad])
            raise EvaluationError(f"non-finite sample at x={x_bad!r}")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


class ScalarPotential:
    """Base class for the static scalar coupling phi(x)."""

    kind = "abstract"

    def evaluate(self, x):
        raise NotImplementedError

    def derivative(self, x):
        """d(phi)/dx; analytic for built-ins, finite differences on the
        grid ``x`` for expression-defined potentials."""
        raise NotImplementedError

    def describe(self) -> dict:
        """The kind and each dataclass field, as ``cli.build_potential`` reads them."""
        return {"kind": self.kind, **{f.name: getattr(self, f.name) for f in fields(self)}}

    def _check(self, x, values):
        values = np.asarray(values, dtype=float)
        finite = np.isfinite(values)
        if not np.all(finite):
            bad = int(np.flatnonzero(~finite)[0])
            x_bad = float(np.asarray(x, dtype=float).ravel()[bad])
            raise EvaluationError(f"potential {self.kind!r} is non-finite at x={x_bad!r}")
        return values if values.ndim else float(values)


@dataclass(frozen=True)
class LinearPotential(ScalarPotential):
    """phi(x) = k x. k = 0 gives the free case."""

    k: float
    kind = "linear"

    def evaluate(self, x):
        return self._check(x, self.k * np.asarray(x, dtype=float))

    def derivative(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.k) if np.ndim(x) else self.k


@dataclass(frozen=True)
class PoschlTellerPotential(ScalarPotential):
    """phi(x) = depth * tanh(width * x)."""

    depth: float
    width: float = 1.0
    kind = "poschl_teller"

    def evaluate(self, x):
        return self._check(x, self.depth * np.tanh(self.width * np.asarray(x, dtype=float)))

    def derivative(self, x):
        z = self.width * np.asarray(x, dtype=float)
        return self.depth * self.width / np.cosh(z) ** 2


@dataclass(frozen=True)
class RosenMorsePotential(ScalarPotential):
    """phi(x) = a * tanh(alpha x) + b."""

    a: float
    b: float
    alpha: float = 1.0
    kind = "rosen_morse"

    def evaluate(self, x):
        z = self.alpha * np.asarray(x, dtype=float)
        return self._check(x, self.a * np.tanh(z) + self.b)

    def derivative(self, x):
        z = self.alpha * np.asarray(x, dtype=float)
        return self.a * self.alpha / np.cosh(z) ** 2


@dataclass(frozen=True)
class ScarfPotential(ScalarPotential):
    """phi(x) = a * tanh(alpha x) + b * sech(alpha x)."""

    a: float
    b: float
    alpha: float = 1.0
    kind = "scarf"

    def evaluate(self, x):
        z = self.alpha * np.asarray(x, dtype=float)
        return self._check(x, self.a * np.tanh(z) + self.b / np.cosh(z))

    def derivative(self, x):
        z = self.alpha * np.asarray(x, dtype=float)
        sech = 1.0 / np.cosh(z)
        return self.alpha * (self.a * sech**2 - self.b * sech * np.tanh(z))


# The built-in kinds by name, each declared once by its dataclass fields
BUILTIN_POTENTIALS = {
    cls.kind: cls
    for cls in (LinearPotential, PoschlTellerPotential, RosenMorsePotential, ScarfPotential)
}


class CustomPotential(ScalarPotential):
    """Potential defined by a parsed expression tree.

    No symbolic differentiation: the derivative is a finite difference
    on the uniform grid it is given, at that grid's spacing.
    """

    kind = "custom"

    def __init__(self, source: str, parameters: dict[str, float] | None = None):
        self.parameters = dict(parameters or {})
        self.tree = expressions.parse_potential(source, tuple(self.parameters))
        self.source = expressions.to_source(self.tree)

    def evaluate(self, x):
        return self._check(x, expressions.evaluate(self.tree, x, self.parameters))

    def derivative(self, x):
        """Central differences at the spacing of the uniform grid ``x``, one-sided
        ones of on-grid samples at its two ends: phi is never sampled past the grid."""
        xp = np.asarray(x, dtype=float)
        if xp.ndim != 1 or len(xp) < 3:
            raise ValueError("a custom potential differentiates on a grid of at least 3 points")
        h = (xp[-1] - xp[0]) / (len(xp) - 1)
        lo, hi = self.evaluate(xp[:3]), self.evaluate(xp[-3:])
        inner = (self.evaluate(xp[1:-1] + h) - self.evaluate(xp[1:-1] - h)) / (2.0 * h)
        first = (4.0 * lo[1] - 3.0 * lo[0] - lo[2]) / (2.0 * h)
        last = (3.0 * hi[2] - 4.0 * hi[1] + hi[0]) / (2.0 * h)
        return np.concatenate(([first], inner, [last]))

    def describe(self):
        out = {"kind": self.kind, "expression": self.source}
        if self.parameters:
            out["parameters"] = dict(sorted(self.parameters.items()))
        return out


def zero_potential() -> LinearPotential:
    """The identically zero coupling, built in: nothing to parse."""
    return LinearPotential(0.0)


def superpotential(p: PhysicalParams, phi: ScalarPotential, x):
    """W(x) = m c^2 + phi(x); the generator of the ladder operators."""
    return p.rest_energy + phi.evaluate(x)


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


def trapezoid(values: np.ndarray, h: float) -> float:
    """Trapezoidal integral of uniform samples with spacing h."""
    return float(h * (values.sum() - 0.5 * (values[0] + values[-1])))


def inner_product(f: GridFunction, g: GridFunction) -> float:
    """Trapezoidal approximation of the L2 pairing on the shared grid."""
    if f.spec != g.spec:
        raise GridMismatchError(f"grids differ: {f.spec} vs {g.spec}")
    return trapezoid(f.values * g.values, f.spec.h)


def norm(f: GridFunction) -> float:
    return math.sqrt(max(inner_product(f, f), 0.0))


def normalize(f: GridFunction) -> GridFunction:
    """Scale to unit trapezoidal norm and fix the overall sign so the
    entry of largest magnitude is positive (first such entry on ties)."""
    n2 = inner_product(f, f)
    if n2 <= 0.0:
        raise DegenerateFunctionError("cannot normalize a zero-norm function")
    values = f.values if abs(n2 - 1.0) <= _UNIT_NORM_SNAP else f.values / math.sqrt(n2)
    peak = int(np.argmax(np.abs(values)))
    if values[peak] < 0:
        values = -values
    return GridFunction(f.spec, values)


@dataclass(frozen=True)
class CouplingSet:
    """Coefficients of the four matrix channels a static external field
    could occupy: f1/f4 gauge pair, f2 scalar, f3 pseudoscalar."""

    f1: ScalarPotential
    f2: ScalarPotential
    f3: ScalarPotential
    f4: ScalarPotential


# Largest amplitude an audited coupling outside the scalar channel may
# have when the config sets no ``audit_tol``
DEFAULT_AUDIT_TOL = 1e-9


@dataclass(frozen=True)
class CouplingAudit:
    compatible: bool
    offending: tuple[tuple[str, float], ...]
    max_abs: dict[str, float]


def majorana_compatible(cs: CouplingSet, grid: GridSpec, tol: float = 0.0) -> CouplingAudit:
    """Check that a coupling set survives the reality constraint.

    Reality of the spinor forces f1 = f3 = f4 = 0; only the scalar
    channel f2 may be nonzero. A channel fails when its max absolute
    value on the grid exceeds ``tol``.
    """
    x = grid.points()
    max_abs = {}
    offending = []
    for name in ("f1", "f2", "f3", "f4"):
        values = getattr(cs, name).evaluate(x)
        max_abs[name] = float(np.max(np.abs(values)))
    for name in ("f1", "f3", "f4"):
        if max_abs[name] > tol:
            offending.append((name, max_abs[name]))
    return CouplingAudit(
        compatible=not offending, offending=tuple(offending), max_abs=max_abs
    )
