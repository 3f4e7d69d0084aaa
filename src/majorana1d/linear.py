"""Closed-form solutions for the linear scalar potential phi = k x.

In the shifted coordinate y = x + m c²/k the sector that hosts the
zero mode is a harmonic ladder: Hermite-Gaussian eigenfunctions with
E_n = sqrt(2cħ|k|n) and a zero-energy ground state. It is the minus
sector for k > 0 and the plus sector for k < 0 (Cooper, Khare &
Sukhatme, Phys. Rep. 251, 267 (1995)); ``host_state`` and
``partner_state`` read only w = |k|/(cħ), so they serve either sign,
and ``spinor`` alone puts the host state in the psi1 or the psi2 row.
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


def host_state(model: LinearModel, n: int, y):
    """Level n of the sector that hosts the zero mode (minus for k > 0,
    plus for k < 0): the Hermite-Gaussian phi_n(y), unit L2 norm on the
    line. It reads only w = |k|/(cħ), so k and -k give the same bits."""
    if n < 0:
        raise ValueError("state index must be non-negative")
    # normalization in log space: 2^(n/2) sqrt(n!) overflows long before
    # the state itself stops being representable
    w = model.w
    log_norm = 0.25 * math.log(w / math.pi) - 0.5 * (
        n * math.log(2.0) + math.lgamma(n + 1)
    )
    y = np.asarray(y, dtype=float)
    out = math.exp(log_norm) * np.exp(-0.5 * w * y**2) * hermite(n, math.sqrt(w) * y)
    return out if y.ndim else float(out)


def partner_state(model: LinearModel, n: int, y):
    """Partner of host level n (n >= 1) in the other sector: the same
    Hermite-Gaussian family one rung lower, host_state(model, n - 1, y)."""
    if n < 1:
        raise ValueError("the partner sector has no zero mode; need n >= 1")
    return host_state(model, n - 1, y)


def energy(model: LinearModel, n: int) -> float:
    """E_n = sqrt(2 c ħ |k| n); only the non-negative root is distinct."""
    if n < 0:
        raise ValueError("state index must be non-negative")
    p = model.params
    return math.sqrt(2.0 * p.c * p.hbar * abs(model.k) * n)


def spinor(model: LinearModel, n: int, t: float, y, delta: float):
    """Component pair (psi1, psi2) of the level-n solution at time t.

    For n >= 1 the host row is host_state(n) sin(c sqrt(2wn) t + delta)
    and the partner row partner_state(n) cos(...); the n = 0 state is
    host_state(0) alone and has no time dependence. The host row is
    psi1 for k > 0 and psi2 for k < 0 (the y values are used as given;
    only the x -> y shift keeps the sign of k).
    """
    if n < 0:
        raise ValueError("state index must be non-negative")
    y = np.asarray(y, dtype=float)
    if n == 0:
        host, partner = host_state(model, 0, y), np.zeros_like(y)
    else:
        # angular frequency c sqrt(2 w n) = E_n/ħ
        theta = model.params.c * math.sqrt(2.0 * model.w * n) * t + delta
        host = host_state(model, n, y) * math.sin(theta)
        partner = partner_state(model, n, y) * math.cos(theta)
    return (host, partner) if model.k > 0 else (partner, host)


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
