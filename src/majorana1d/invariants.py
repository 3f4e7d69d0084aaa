"""The invariant suite that ``verify`` runs: each check holds one
residual between the routes to a tolerance named in the module whose
result it bounds, or to the run tolerance ``tol``."""

from __future__ import annotations

import math

import numpy as np

from . import _fork, evolution, linear, model, oracle, susy
from .errors import ConfigError

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
    ``grid`` and name only bound levels of the family), the host sector
    before the partner's, which a child bisects at the same time where
    ``_fork.start`` forks; for phi = k x of either sign, the closed-form
    host and partner states of ``linear`` (each of levels
    1..``ladder_levels`` must pass ``evolution.require_grid_holds`` on
    ``grid``, or ConfigError names ``verify.ladder_levels``) and, with
    ``pde``, one period of the integration."""
    audit = model.majorana_compatible(couplings, grid, audit_tol)
    worst_coupling = max((v for k, v in audit.max_abs.items() if k != "f2"), default=0.0)
    checks = [_check("coupling_reality_audit", worst_coupling, audit_tol, audit.compatible)]

    comparison = susy.compare_spectra(p, phi, grid, n_max)
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
        with _fork.start(getattr, comparison, "partner") as child:
            energies, host = comparison.algebraic, comparison.host
            worst_energy = max(abs(energies[n] ** 2 - host[n]) for n in range(n_max + 1))
            checks.append(_check("algebraic_vs_oracle_energy_sq", worst_energy, tol))
            partner = child.join()
        iso = oracle.verify_isospectral(host, partner, oracle.ISOSPECTRAL_TOL, tol)
        checks.append(_check("partner_isospectrality", iso.max_diff, iso.tol, iso.passed))

    if not (isinstance(phi, model.LinearPotential) and phi.k != 0 and cls.unbroken):
        return checks
    lin = linear.LinearModel(phi.k, p)
    y = lin.y_of_x(grid.points())
    # A maps the minus-sector host states onto their partners for k > 0;
    # for k < 0 the host is the plus sector, and A† does
    ladder = susy.apply_a if lin.k > 0 else susy.apply_a_dagger
    gaussian = linear.host_state(lin, 0, y)
    error = float(np.max(np.abs(cls.zero_mode.values - gaussian)))
    checks.append(_check("zero_mode_matches_gaussian", error, susy.ZERO_MODE_TOL))
    worst_ladder = 0.0
    for level in range(1, ladder_levels + 1):
        # a level the grid truncates, or whose closed form overflows, is a
        # config error, not a ladder residual
        try:
            evolution.require_grid_holds(lin, grid, level, math.pi / 2)
        except ConfigError as err:
            raise ConfigError(
                f"verify.ladder_levels = {ladder_levels} compares level {level}, "
                f"which the grid does not hold: {err}"
            ) from None
        host_n = model.GridFunction(grid, linear.host_state(lin, level, y))
        target = linear.energy(lin, level) * linear.partner_state(lin, level, y)
        image = ladder(p, phi, host_n).values
        if float(np.dot(image, target)) < 0:
            target = -target
        worst_ladder = max(worst_ladder, model.norm(model.GridFunction(grid, image - target)))
    checks.append(_check("ladder_mapping_residual", worst_ladder, susy.LADDER_TOL))
    if pde:
        one = evolution.run_length(lin, grid, 1, None, 1.0, None)  # evolve's one-period grid
        steps = evolution.frame_steps(one.n_steps, evolution.DEFAULT_STRIDE)
        check = evolution.ClosedFormRun(lin, grid, 1, math.pi / 2.0, one.dt, steps).drain()
        error, drift = check.max_component_error, check.norm_drift
        checks.append(_check("pde_one_period_return", error, evolution.PDE_RETURN_TOL))
        checks.append(_check("pde_norm_drift", drift, evolution.NORM_DRIFT_TOL))
    return checks
