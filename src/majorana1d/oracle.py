"""Brute-force spectral ground truth.

The partner Hamiltonians H_∓ = -(c ħ)^2 d²/dx² + V_∓ are discretized
with the 3-point Laplacian on the interior points of a uniform grid
(Dirichlet-zero truncation) and diagonalized with a symmetric
tridiagonal eigensolver. Everything the algebraic machinery produces is
checked against these numbers.

``eigensolve`` bisects for the lowest energies² and leaves the
eigenfunctions to inverse iteration on their first read, so a caller
that reads only energies pays for bisection alone; ``eigenvalues``
returns those energies² as an array. The LAPACK routines come from
``_lapack.flapack()`` when they are first called, so importing this
module, and every command that never solves, does without SciPy.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._lapack import flapack
from .errors import ConfigError, DiscretizationError
from .model import GridFunction, GridSpec, PhysicalParams, normalize

# Largest |E+_n - E-_(n+1)| between the two partner spectra that counts
# as isospectral
ISOSPECTRAL_TOL = 5e-3


class Sector(str, Enum):
    MINUS = "minus"
    PLUS = "plus"

    @property
    def partner(self) -> Sector:
        """The other sector: H_+ partners H_- and vice versa."""
        return Sector.PLUS if self is Sector.MINUS else Sector.MINUS


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix acting on interior grid values."""

    diagonal: np.ndarray = field(repr=False)
    off_diagonal: np.ndarray = field(repr=False)
    spec: GridSpec
    sector: Sector

    @property
    def dim(self) -> int:
        return self.diagonal.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diagonal * v
        out[:-1] += self.off_diagonal * v[1:]
        out[1:] += self.off_diagonal * v[:-1]
        return out

    def norm_bound(self) -> float:
        """Max absolute row sum, an upper bound on the spectral norm."""
        row = np.abs(self.diagonal).astype(float)
        row[:-1] += np.abs(self.off_diagonal)
        row[1:] += np.abs(self.off_diagonal)
        return float(row.max())


@dataclass(frozen=True, eq=False)
class Eigenpair:
    """One bound level: its energy-squared eigenvalue and eigenfunction
    (zero at the truncated boundaries, unit trapezoidal norm)."""

    energy_squared: float
    eigenfunction: GridFunction
    n: int
    sector: Sector

    @property
    def energy(self) -> float:
        return math.sqrt(max(self.energy_squared, 0.0))


def discretize(
    p: PhysicalParams, v: GridFunction, sector: Sector = Sector.MINUS
) -> TridiagonalOperator:
    """3-point discretization of -(c ħ)² d²/dx² + V with Dirichlet-zero
    boundaries; the matrix acts on the n_points - 2 interior values."""
    spec = v.spec
    if spec.n_points < 5:
        raise ValueError("discretization needs at least 5 grid points")
    kin = (p.c * p.hbar) ** 2 / spec.h**2
    diagonal = 2.0 * kin + v.values[1:-1]
    off_diagonal = np.full(spec.n_points - 3, -kin)
    return TridiagonalOperator(diagonal, off_diagonal, spec, sector)


def require_levels(spec: GridSpec, n_max: int, key: str):
    """ConfigError naming ``key`` or ``grid.n_points`` unless levels
    0..``n_max`` can be solved on ``spec``: ``discretize`` needs at least
    5 points, and ``eigensolve`` one of the n_points - 2 interior points
    per level."""
    if spec.n_points < 5:
        raise ConfigError(
            f"grid.n_points must be at least 5 for the finite-difference spectrum, "
            f"got {spec.n_points}"
        )
    if n_max > spec.n_points - 3:
        raise ConfigError(
            f"{key} must be at most grid.n_points - 3 = {spec.n_points - 3}, got {n_max}"
        )


def _bands(op: TridiagonalOperator) -> tuple[np.ndarray, np.ndarray]:
    """The diagonals of ``op`` as the float64 LAPACK wrappers take them:
    their f2py signature refuses the empty off-diagonal of a 1×1 matrix,
    which LAPACK never reads, so that one gets a placeholder entry."""
    if op.dim == 1:
        return op.diagonal, np.zeros(1)
    return op.diagonal, op.off_diagonal


def _bisect(op: TridiagonalOperator, k: int):
    """The k smallest eigenvalues of ``op`` by LAPACK bisection (?stebz)
    with the block indices ?stein needs, in the block order it takes:
    the calls and arguments of ``eigh_tridiagonal(..., select="i")``, so
    values and vectors keep its bits."""
    if not 1 <= k <= op.dim:
        raise ValueError(f"k must be in [1, {op.dim}], got {k}")
    d, e = _bands(op)
    # range 2 = by index; vl, vu unused; il..iu 1-based; abstol 0 = default
    m, values, iblock, isplit, info = flapack().dstebz(d, e, 2, 0.0, 1.0, 1, k, 0.0, "B")
    if info != 0:
        raise np.linalg.LinAlgError(f"?stebz failed with info={info}")
    return values[:m], iblock, isplit


def _inverse_iteration(op: TridiagonalOperator, bisection) -> list[GridFunction]:
    """Eigenfunctions of a ``_bisect`` result by LAPACK inverse iteration
    (?stein), in ascending order, zero-padded onto the full grid,
    normalized and sign-fixed."""
    d, e = _bands(op)
    values, iblock, isplit = bisection
    vectors, info = flapack().dstein(d, e, values, iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"?stein: {info} eigenvectors failed to converge")
    functions = []
    for i in np.argsort(values):
        padded = np.zeros(op.spec.n_points)
        padded[1:-1] = vectors[:, i]
        functions.append(normalize(GridFunction(op.spec, padded)))
    return functions


class _Level(Eigenpair):
    """An ``eigensolve`` level: the eigenvalue is known, the eigenfunction
    is computed with those of its siblings when the first is read."""

    def __init__(self, energy_squared: float, n: int, sector: Sector, eigenfunctions):
        object.__setattr__(self, "energy_squared", energy_squared)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "sector", sector)
        object.__setattr__(self, "_eigenfunctions", eigenfunctions)

    @functools.cached_property
    def eigenfunction(self) -> GridFunction:
        return self._eigenfunctions()[self.n]


def eigensolve(op: TridiagonalOperator, k: int) -> list[Eigenpair]:
    """The k smallest eigenpairs, by bisection + inverse iteration.

    Deterministic; eigenfunctions are zero-padded onto the full grid,
    normalized, and sign-fixed. The eigenvalues are bisected here; the
    inverse iteration runs once, for all k levels, when an eigenfunction
    is first read, so a caller that reads only energies never pays it.
    """
    bisection = _bisect(op, k)
    values = np.sort(bisection[0])
    if np.any(np.diff(values) <= 0):
        raise DiscretizationError("eigenvalues not strictly increasing")
    eigenfunctions = functools.cache(lambda: _inverse_iteration(op, bisection))
    return [_Level(float(values[i]), i, op.sector, eigenfunctions) for i in range(k)]


def eigenvalues(op: TridiagonalOperator, k: int) -> np.ndarray:
    """The k smallest eigenvalues (energy², ascending): the
    ``energy_squared`` of ``eigensolve(op, k)``, as an array, without
    ever computing the eigenfunctions."""
    return np.array([level.energy_squared for level in eigensolve(op, k)])


def energy_from_lambda(lam: float, tol: float = 1e-9) -> float:
    """E = sqrt(λ) with a clamp for slightly negative eigenvalues.

    H_∓ are squares of first-order operators, so a λ below -tol means
    the discretization failed rather than a genuine level.
    """
    if lam < -tol:
        raise DiscretizationError(
            f"eigenvalue {lam} < -{tol}: operator should be positive semi-definite"
        )
    return math.sqrt(max(lam, 0.0))


@dataclass(frozen=True)
class IsospectralReport:
    """|E+_n - E-_(n+1)| for each compared level n, against ``tol``."""

    diffs: tuple[float, ...]
    tol: float
    passed: bool

    @property
    def max_diff(self) -> float:
        return max(self.diffs, default=0.0)


def verify_isospectral(
    minus: Sequence[float],
    plus: Sequence[float],
    tol: float,
    clamp_tol: float = 1e-3,
) -> IsospectralReport:
    """Check the partner-spectrum interlacing E+_n = E-_{n+1} for all
    comparable levels of two ascending energy² sequences (the output of
    ``eigenvalues``, or the ``energy_squared`` of ``eigensolve`` pairs);
    energies are taken with ``energy_from_lambda`` at ``clamp_tol``."""
    diffs = tuple(
        abs(energy_from_lambda(plus[n], clamp_tol) - energy_from_lambda(minus[n + 1], clamp_tol))
        for n in range(min(len(plus), len(minus) - 1))
    )
    return IsospectralReport(diffs, tol, all(d <= tol for d in diffs))
