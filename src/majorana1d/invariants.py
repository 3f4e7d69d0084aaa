"""The invariant suite that ``verify`` runs: each check holds one
residual between the routes to a tolerance named in the module whose
result it bounds, or to the run tolerance ``tol``."""

from __future__ import annotations

import contextlib
import math

import numpy as np

from . import _fork, evolution, linear, model, oracle, susy

# Run tolerance when the config sets none: it bounds the algebraic and
# oracle energies against each other, and the integrated components
# against the closed form.
DEFAULT_TOL = 1e-3
# A yes/no check records residual 0 (yes) or 1 (no) against this
FLAG_TOL = 0.5


def _check(name: str, residual, tol: float, passed=None) -> dict:
    passed = residual <= tol if passed is None else passed
    return {"name": name, "residual": float(residual), "tol": float(tol), "passed": bool(passed)}


def verify_checks(
    p: model.PhysicalParams,
    phi: model.ScalarPotential,
    grid: model.GridSpec,
    couplings: model.CouplingSet,
    audit_tol: float,
    tol: float,
    n_max: int,
    ladder_levels: int,
    pde: bool,
) -> list[dict]:
    """The checks of ``verify`` in order, each a ``name``, ``residual``,
    ``tol`` and ``passed``: the reality audit of ``couplings``; unbroken
    SUSY and its zero mode; with a built-in family, shape invariance and
    the spectra of ``susy.compare_spectra`` (``n_max`` must then fit on
    ``grid`` and name only bound levels of the family), with both
    partner sectors bisected at once where ``_fork.start`` forks; for
    phi = k x, the closed forms and, with ``pde``, one period of the
    integration."""
    audit = model.majorana_compatible(couplings, grid, audit_tol)
    worst_coupling = max((v for k, v in audit.max_abs.items() if k != "f2"), default=0.0)
    checks = [_check("coupling_reality_audit", worst_coupling, audit_tol, audit.compatible)]

    # one host level above the partner's, so n_max = 0 still compares a level
    comparison = susy.compare_spectra(p, phi, grid, n_max, max(n_max, 1) + 1)
    cls = comparison.classification
    checks.append(_check("unbroken_susy", 0.0 if cls.unbroken else 1.0, FLAG_TOL, cls.unbroken))
    if cls.unbroken:
        residual = cls.annihilation_residual(p, phi)
        checks.append(_check("zero_mode_annihilation", residual, susy.ANNIHILATION_TOL))

    inv = comparison.invariance
    if inv is not None:
        checks.append(_check("shape_invariance_spread", inv.spread, susy.SHAPE_INVARIANCE_TOL))
        remainder = abs(inv.r_measured - inv.r_declared)
        checks.append(_check("shape_invariance_remainder", remainder, susy.REMAINDER_TOL))
        oracle.require_levels(grid, n_max, "verify.n_max")
        comparison.family.require_bound(n_max, "verify.n_max")
        # the partner sector is bisected in a child while this process
        # bisects the host; a host error wins, and kills the child
        child = _fork.start(getattr, comparison, "partner")
        with child or contextlib.nullcontext():
            energies, host = comparison.algebraic, comparison.host
            worst_energy = max(abs(energies[n] ** 2 - host[n]) for n in range(n_max + 1))
            checks.append(_check("algebraic_vs_oracle_energy_sq", worst_energy, tol))
            partner = comparison.partner if child is None else child.join()
        iso = oracle.verify_isospectral(host, partner, oracle.ISOSPECTRAL_TOL, tol)
        checks.append(_check("partner_isospectrality", iso.max_diff, iso.tol, iso.passed))

    if not (isinstance(phi, model.LinearPotential) and phi.k != 0 and cls.unbroken):
        return checks
    lin = linear.LinearModel(phi.k, p)
    y = lin.y_of_x(grid.points())
    if lin.k > 0:
        gaussian = linear.eigenstate_minus(lin, 0, y)
        error = float(np.max(np.abs(cls.zero_mode.values - gaussian)))
        checks.append(_check("zero_mode_matches_gaussian", error, susy.ZERO_MODE_TOL))
        worst_ladder = 0.0
        for level in range(1, ladder_levels + 1):
            minus_n = model.GridFunction(grid, linear.eigenstate_minus(lin, level, y))
            target = linear.energy(lin, level) * linear.eigenstate_plus(lin, level, y)
            image = susy.apply_a(p, phi, minus_n).values
            if float(np.dot(image, target)) < 0:
                target = -target
            worst_ladder = max(worst_ladder, model.norm(model.GridFunction(grid, image - target)))
        checks.append(_check("ladder_mapping_residual", worst_ladder, susy.LADDER_TOL))
    if pde:
        one = evolution.run_length(lin, grid, 1, None, 1.0, None)  # evolve's one-period grid
        check = evolution.pde_vs_closed_form(lin, grid, 1, math.pi / 2.0, one.t_final, one.dt)
        check.drain()
        error, drift = check.max_component_error, check.norm_drift
        checks.append(_check("pde_one_period_return", error, evolution.PDE_RETURN_TOL))
        checks.append(_check("pde_norm_drift", drift, evolution.NORM_DRIFT_TOL))
    return checks
