"""Closed-form solutions for the linear scalar potential phi = k x.

In the shifted coordinate y = x + m c²/k the minus-sector problem is a
harmonic ladder: Hermite-Gaussian eigenfunctions with E_n = sqrt(2cħkn)
and zero-energy ground state. For k < 0 the normalizable zero mode
lives in the plus sector instead and every solution is the k > 0 one
with its two components exchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GridSpec, PhysicalParams


@dataclass(frozen=True)
class LinearModel:
    """Slope k (nonzero) plus physical constants; w = |k|/(cħ) sets the
    inverse-squared width of the Gaussian envelope."""

    k: float
    params: PhysicalParams = PhysicalParams()

    def __post_init__(self):
        if self.k == 0:
            raise ValueError("the linear model needs k != 0")

    @property
    def w(self) -> float:
        return abs(self.k) / (self.params.c * self.params.hbar)

    @property
    def y_shift(self) -> float:
        return self.params.rest_energy / self.k

    def y_of_x(self, x):
        return np.asarray(x, dtype=float) + self.y_shift

    def x_of_y(self, y):
        return np.asarray(y, dtype=float) - self.y_shift


def hermite(n: int, z):
    """Physicists' Hermite polynomial H_n by the three-term recurrence
    H_{n+1} = 2 z H_n - 2 n H_{n-1}; stable for the n <= ~50 used here."""
    if n < 0:
        raise ValueError("Hermite order must be non-negative")
    z = np.asarray(z, dtype=float)
    h_prev = np.ones_like(z)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * z
    for m in range(1, n):
        h, h_prev = 2.0 * z * h - 2.0 * m * h_prev, h
    return h if h.ndim else float(h)


def _minus_values(n: int, w: float, y) -> np.ndarray:
    # normalization in log space: 2^(n/2) sqrt(n!) overflows long before
    # the state itself stops being representable
    log_norm = 0.25 * math.log(w / math.pi) - 0.5 * (
        n * math.log(2.0) + math.lgamma(n + 1)
    )
    y = np.asarray(y, dtype=float)
    z = math.sqrt(w) * y
    return math.exp(log_norm) * np.exp(-0.5 * w * y**2) * hermite(n, z)


def eigenstate_minus(model: LinearModel, n: int, y):
    """Minus-sector eigenfunction phi^-_n(y), unit L2 norm on the line."""
    if n < 0:
        raise ValueError("state index must be non-negative")
    if model.k < 0:
        raise ValueError("closed forms assume k > 0; use the row-exchange transform")
    out = _minus_values(n, model.w, y)
    return out if np.ndim(y) else float(out)


def eigenstate_plus(model: LinearModel, n: int, y):
    """Plus-sector partner paired with level n (n >= 1): the same
    Hermite-Gaussian family one rung lower, phi^+_n = phi^-_{n-1}."""
    if n < 1:
        raise ValueError("the plus sector has no zero mode for k > 0; need n >= 1")
    if model.k < 0:
        raise ValueError("closed forms assume k > 0; use the row-exchange transform")
    out = _minus_values(n - 1, model.w, y)
    return out if np.ndim(y) else float(out)


def energy(model: LinearModel, n: int) -> float:
    """E_n = sqrt(2 c ħ |k| n); only the non-negative root is distinct."""
    if n < 0:
        raise ValueError("state index must be non-negative")
    p = model.params
    return math.sqrt(2.0 * p.c * p.hbar * abs(model.k) * n)


def spinor(model: LinearModel, n: int, t: float, y, delta: float):
    """Component pair (psi1, psi2) of the level-n solution at time t.

    For n >= 1: psi1 = phi^-_n(y) sin(c sqrt(2wn) t + delta) and
    psi2 = phi^+_n(y) cos(...); the n = 0 state is (phi^-_0, 0) and has
    no time dependence. For k < 0 the rows are exchanged and w is built
    from |k| (the y values are used as given; only the x -> y shift
    keeps the sign of k).
    """
    if n < 0:
        raise ValueError("state index must be non-negative")
    if model.k < 0:
        mirror = LinearModel(-model.k, model.params)
        return transform_negative_k(*spinor(mirror, n, t, y, delta))
    y = np.asarray(y, dtype=float)
    if n == 0:
        return _minus_values(0, model.w, y), np.zeros_like(y)
    # angular frequency c sqrt(2 w n) = E_n/ħ
    theta = model.params.c * math.sqrt(2.0 * model.w * n) * t + delta
    psi1 = _minus_values(n, model.w, y) * math.sin(theta)
    psi2 = _minus_values(n - 1, model.w, y) * math.cos(theta)
    return psi1, psi2


def transform_negative_k(psi1, psi2):
    """Row exchange mapping solutions for slope |k| to slope -|k|;
    applying it twice is the identity."""
    return psi2, psi1


def default_grid(
    model: LinearModel, n_points: int = 2001, y_half_width: float | None = None
) -> GridSpec:
    """Grid in x whose image under y = x + mc²/k covers [-L, L] with
    L = 10/sqrt(w) unless overridden; wide enough that the ground state
    is below 1e-12 at the edges."""
    half = 10.0 / math.sqrt(model.w) if y_half_width is None else float(y_half_width)
    return GridSpec(
        float(model.x_of_y(-half)), float(model.x_of_y(half)), n_points
    )
