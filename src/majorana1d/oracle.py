"""Brute-force spectral ground truth.

The partner Hamiltonians H_∓ = -(c ħ)^2 d²/dx² + V_∓ are discretized
with the 3-point Laplacian on the interior points of a uniform grid
(Dirichlet-zero truncation), and ``eigensolve`` bisects the symmetric
tridiagonal matrix for its lowest energies² (LAPACK ?stebz; Barth,
Martin & Wilkinson, Numer. Math. 9, 386 (1967)); ``oracle_eigenvalues``
does both for one sector of a partner pair. ``invariants`` checks what
the algebraic machinery produces against these numbers.

The LAPACK routine comes from ``_lapack.flapack()`` when it is first
called, so importing this module, and every command that never solves,
does without SciPy.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ._lapack import flapack
from .errors import ConfigError, DiscretizationError
from .model import GridFunction, GridSpec, PhysicalParams, Sector

# Largest |E+_n - E-_(n+1)| between the two partner spectra that counts
# as isospectral
ISOSPECTRAL_TOL = 5e-3


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix acting on interior grid values."""

    diagonal: np.ndarray = field(repr=False)
    off_diagonal: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.diagonal.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diagonal * v
        out[:-1] += self.off_diagonal * v[1:]
        out[1:] += self.off_diagonal * v[:-1]
        return out


def discretize(p: PhysicalParams, v: GridFunction) -> TridiagonalOperator:
    """3-point discretization of -(c ħ)² d²/dx² + V with Dirichlet-zero
    boundaries; the matrix acts on the n_points - 2 interior values."""
    spec = v.spec
    if spec.n_points < 5:
        raise ValueError("discretization needs at least 5 grid points")
    kin = (p.c * p.hbar) ** 2 / spec.h**2
    diagonal = 2.0 * kin + v.values[1:-1]
    off_diagonal = np.full(spec.n_points - 3, -kin)
    return TridiagonalOperator(diagonal, off_diagonal)


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


def eigensolve(op: TridiagonalOperator, k: int) -> np.ndarray:
    """The k smallest eigenvalues of ``op`` (energy², ascending) by
    bisection: the ?stebz call and arguments of ``eigh_tridiagonal(...,
    select="i")``, so the values keep its bits. Deterministic."""
    if not 1 <= k <= op.dim:
        raise ValueError(f"k must be in [1, {op.dim}], got {k}")
    # the f2py signature refuses the empty off-diagonal of a 1×1 matrix,
    # which LAPACK never reads, so that one gets a placeholder entry
    e = op.off_diagonal if op.dim > 1 else np.zeros(1)
    # range 2 = by index; vl, vu unused; il..iu 1-based; abstol 0 = default;
    # "B" orders by split-off block, as eigh_tridiagonal asks
    m, values, _, _, info = flapack().dstebz(op.diagonal, e, 2, 0.0, 1.0, 1, k, 0.0, "B")
    if info != 0:
        raise np.linalg.LinAlgError(f"?stebz failed with info={info}")
    values = np.sort(values[:m])
    if np.any(np.diff(values) <= 0):
        raise DiscretizationError("eigenvalues not strictly increasing")
    return values


def oracle_eigenvalues(pair, sector: Sector, k: int) -> np.ndarray:
    """The k smallest finite-difference energies² of H_∓ for ``sector``:
    ``eigensolve`` of the discretized V_- (MINUS) or V_+ (PLUS) of
    ``pair``, which holds them as ``v_minus`` and ``v_plus`` beside its
    ``params``, as ``susy.partner_potentials`` returns them."""
    v = pair.v_minus if sector is Sector.MINUS else pair.v_plus
    return eigensolve(discretize(pair.params, v), k)


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
    comparable levels of two ascending energy² sequences, such as the
    output of ``eigensolve``; energies are taken with
    ``energy_from_lambda`` at ``clamp_tol``."""
    diffs = tuple(
        abs(energy_from_lambda(plus[n], clamp_tol) - energy_from_lambda(minus[n + 1], clamp_tol))
        for n in range(min(len(plus), len(minus) - 1))
    )
    return IsospectralReport(diffs, tol, all(d <= tol for d in diffs))
