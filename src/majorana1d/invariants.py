"""The one place the routes meet. The route modules (``susy``,
``linear``, ``oracle``, ``evolution``) share only ``model``, so no route
derives from another; each comparison of two routes, and the report of
each command that makes one (``spectrum_report``, ``evolve_run``,
``verify_checks``), lives here. Each check holds one residual between
the routes to a tolerance named in the module whose result it bounds,
or to the run tolerance ``tol``."""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass

import numpy as np

from . import _fork, evolution, linear, model, oracle, susy
from .errors import BrokenSusyError, ConfigError, InvalidFamilyError

# Run tolerance when the config sets none: it bounds the algebraic and
# oracle energies against each other, and the integrated components
# against the closed form.
DEFAULT_TOL = 1e-3
# A yes/no check records residual 0 (yes) or 1 (no) against this
FLAG_TOL = 0.5


@dataclass(frozen=True, eq=False)
class SpectrumComparison:
    """One run of the shape-invariance chain beside the oracle, from
    ``compare_spectra``. ``family`` and ``invariance`` are None where the
    chain stops. The energies are solved when first read, so a caller
    that stops at a failed precondition never solves."""

    pair: susy.PartnerPotentials
    n_max: int
    classification: susy.SusyClassification
    family: susy.ShapeInvariantFamily | None
    invariance: susy.ShapeInvarianceResult | None

    @property
    def sector(self) -> model.Sector:
        """The sector hosting the zero mode; MINUS when SUSY is broken."""
        return self.classification.sector or model.Sector.MINUS

    @functools.cached_property
    def algebraic(self) -> np.ndarray | None:
        return None if self.family is None else susy.algebraic_spectrum(self.family, self.n_max)

    @functools.cached_property
    def host(self) -> np.ndarray:
        """The max(n_max, 1) + 1 lowest oracle energies² of ``sector``: one
        level above the partner's, so n_max = 0 still compares a level."""
        return oracle.oracle_eigenvalues(self.pair, self.sector, max(self.n_max, 1) + 1)

    @functools.cached_property
    def partner(self) -> np.ndarray:
        """One level fewer of the other sector: level n pairs with host level n + 1."""
        return oracle.oracle_eigenvalues(self.pair, self.sector.partner, max(self.n_max, 1))

    def levels(self, tol: float) -> list[dict]:
        """The level records of ``spectrum``, each oracle energy taken
        with ``oracle.energy_from_lambda`` at ``tol``."""
        algebraic = self.algebraic
        records = []
        for n in range(self.n_max + 1):
            e_orc = oracle.energy_from_lambda(self.host[n], tol)
            e_alg = None if algebraic is None else float(algebraic[n])
            diff = None if e_alg is None else abs(e_alg - e_orc)
            records.append(
                {"n": n, "energy_algebraic": e_alg, "energy_oracle": e_orc, "abs_diff": diff}
            )
        return records


def compare_spectra(
    p: model.PhysicalParams,
    phi: model.ScalarPotential,
    grid: model.GridSpec,
    n_max: int,
    algebraic: bool = True,
) -> SpectrumComparison:
    """Classify the zero mode of ``phi`` and, when ``algebraic`` and SUSY
    is unbroken, measure the shape invariance of its built-in family. A
    zero-mode exponent or a partner pair that overflows on ``grid``
    raises ConfigError first, before anything is solved."""
    cls = susy.zero_mode(p, phi, grid)
    pair = susy.partner_potentials(p, phi, grid)
    family = susy.builtin_family(p, phi) if algebraic and cls.unbroken else None
    invariance = None if family is None else susy.check_shape_invariance(family, p, grid)
    return SpectrumComparison(pair, n_max, cls, family, invariance)


def spectrum_report(
    p: model.PhysicalParams,
    phi: model.ScalarPotential,
    grid: model.GridSpec,
    n_max: int,
    algebraic: bool,
    tol: float,
) -> tuple[dict, str | None]:
    """The fields ``spectrum`` writes for levels 0..``n_max``, and the
    algebraic/oracle mismatch over ``tol`` it reports once they are
    written, or None. Before any solve, levels the grid cannot hold raise
    ConfigError; with ``algebraic``, broken SUSY raises BrokenSusyError, a
    potential without a built-in family ConfigError, a level the family
    does not bind UnboundLevelError, and a family that is not shape
    invariant on ``grid`` InvalidFamilyError."""
    oracle.require_levels(grid, n_max, "spectrum.n_max")
    comparison = compare_spectra(p, phi, grid, n_max, algebraic)
    invariance = None
    if algebraic:
        if not comparison.classification.unbroken:
            raise BrokenSusyError(
                "SUSY is broken for this configuration (no normalizable zero mode); "
                "the algebraic shape-invariance spectrum does not exist. "
                "Set spectrum.algebraic to false for an oracle-only run."
            )
        if comparison.family is None:
            raise ConfigError(
                "no built-in shape-invariant family for potential kind "
                f"{phi.kind!r} with these physical parameters; "
                "set spectrum.algebraic to false"
            )
        comparison.family.require_bound(n_max, "spectrum.n_max")
        if not comparison.invariance.is_invariant:
            spread = comparison.invariance.spread
            raise InvalidFamilyError(f"shape-invariance check failed (spread {spread:.3e})")
        invariance = {"family": comparison.family.label, **asdict(comparison.invariance)}

    levels = comparison.levels(tol)
    fields = {
        "sector": comparison.sector.value,
        "tolerance": tol,
        "shape_invariance": invariance,
        "levels": levels,
    }
    worst = max(level["abs_diff"] or 0.0 for level in levels)
    if worst > tol:
        return fields, f"algebraic/oracle mismatch {worst:.3e} exceeds tol {tol:.1e}"
    return fields, None


@dataclass(frozen=True)
class RunLength:
    """The time grid of one ``evolve`` run; ``fallback`` tells whether
    ``t_final`` fell back to ``evolution.GROUND_STATE_T_FINAL``."""

    period: float | None
    t_final: float
    dt: float
    n_steps: int
    fallback: bool


def run_length(
    lin: linear.LinearModel,
    grid: model.GridSpec,
    n: int,
    t_final: float | None,
    periods: float | None,
    dt: float | None,
) -> RunLength:
    """The time grid of a level-``n`` run of ``lin`` on ``grid``. Without
    ``t_final`` it lasts ``periods`` density periods, or for the
    stationary n = 0 ``evolution.GROUND_STATE_T_FINAL``; without ``dt``
    the step is the period over ``evolution.STEPS_PER_PERIOD``, or for
    n = 0 ``evolution.default_time_step``. ``evolution.time_grid`` then
    rounds the step."""
    period = linear.density_period(lin, n) if n >= 1 else None
    fallback = t_final is None and period is None
    if t_final is None:
        t_final = evolution.GROUND_STATE_T_FINAL if fallback else periods * period
    if not math.isfinite(t_final):  # a multiple of the period can overflow
        raise ConfigError(f"evolve.t_final must be finite, got {t_final!r}")
    if dt is None and period is not None:
        dt = period / evolution.STEPS_PER_PERIOD
    elif dt is None:
        dt = evolution.default_time_step(lin.params, model.LinearPotential(lin.k), grid)
    try:
        dt, n_steps = evolution.time_grid(t_final, dt)
    except OverflowError as err:  # t_final / dt rounds from inf
        raise ConfigError(
            f"evolve.t_final / evolve.dt must give a finite step count, "
            f"got {t_final!r} / {dt!r}"
        ) from err
    return RunLength(period, t_final, dt, n_steps, fallback)


def require_grid_holds(lin: linear.LinearModel, grid: model.GridSpec, n: int, delta: float):
    """ConfigError naming ``grid`` unless the trapezoid norm of the
    closed-form level-``n`` state at t = 0 is 1 within
    ``evolution.NORM_DRIFT_TOL`` on ``grid``; otherwise the state lies
    partly outside it, or the grid is too coarse for it, or, for a norm
    that is not finite, its closed form overflows there. A state whose
    classical turning points y = ±sqrt((2n+1)/w) are not both on the
    grid is refused first, at once, and so is one with fewer grid points
    between them than the state's n nodes: the closed form costs O(n)
    grid passes."""
    reach = math.sqrt((2 * n + 1) / lin.w)
    turning = f"x = {float(lin.x_of_y(-reach))!r} and {float(lin.x_of_y(reach))!r}"
    if not (lin.y_of_x(grid.x_min) <= -reach and reach <= lin.y_of_x(grid.x_max)):
        raise ConfigError(
            f"grid: the level-{n} state lies partly or wholly outside [x_min, x_max] = "
            f"[{grid.x_min!r}, {grid.x_max!r}]: its classical turning points "
            f"{turning} are not both on the grid, so part of its norm is off it; "
            f"put the grid around x = {-lin.y_shift!r}"
        )
    if 2.0 * reach < n * grid.h:
        raise ConfigError(
            f"grid: the level-{n} state has {n} nodes between its classical turning points "
            f"{turning}, but the grid spacing h = {grid.h!r} puts fewer than {n} grid "
            f"points there; refine the grid"
        )
    # an overflow shows as the norm that is not finite, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        _, rho = next(linear.closed_form_frames(lin, grid, n, delta, 0.0, [0]))
        norm = model.trapezoid(rho, grid.h)
    if not math.isfinite(norm):
        raise ConfigError(
            f"grid: the level-{n} state has norm {norm!r} on the grid, which is not "
            f"finite; its closed form overflows in floating point on "
            f"[x_min, x_max] = [{grid.x_min!r}, {grid.x_max!r}]"
        )
    if not abs(1.0 - norm) <= evolution.NORM_DRIFT_TOL:
        raise ConfigError(
            f"grid: the level-{n} state has norm {norm:.9g} on the grid, off 1 by "
            f"{abs(1.0 - norm):.1e}, more than {evolution.NORM_DRIFT_TOL:.0e}; it lies outside "
            f"[x_min, x_max] = [{grid.x_min!r}, {grid.x_max!r}] or the grid is too coarse; "
            f"put the grid around x = {-lin.y_shift!r}"
        )


class ClosedFormRun(evolution.PdeRun):
    """Integrate the closed-form level-``n`` spinor of ``lin`` on
    ``grid`` from t = 0 over the schedule ``(dt, steps)``, as ``PdeRun``
    does. Once the run is exhausted, ``max_component_error`` holds the
    larger sup-norm distance of the two final components from the closed
    form at the final time."""

    def __init__(self, lin, grid, n, delta, dt, steps):
        y = lin.y_of_x(grid.points())
        self._reference = functools.partial(linear.spinor, lin, n, y=y, delta=delta)
        psi1, psi2 = self._reference(0.0)
        initial = evolution.MajoranaSpinorState(
            model.GridFunction(grid, psi1), model.GridFunction(grid, psi2)
        )
        super().__init__(initial, lin.params, model.LinearPotential(lin.k), dt, steps)

    @functools.cached_property
    def max_component_error(self) -> float:
        ref1, ref2 = self._reference(self.final.t)
        return max(
            float(np.max(np.abs(self.final.psi1.values - ref1))),
            float(np.max(np.abs(self.final.psi2.values - ref2))),
        )

    def mismatch(self, tol: float) -> str | None:
        """Once the run is exhausted, the PDE/analytic mismatch ``evolve
        --pde`` reports when ``max_component_error`` exceeds ``tol``, else None."""
        if self.max_component_error > tol:
            return f"PDE/analytic mismatch {self.max_component_error:.3e} exceeds tol {tol:.1e}"
        return None


def linear_model(p: model.PhysicalParams, phi: model.LinearPotential) -> linear.LinearModel:
    """The ``linear.LinearModel`` of phi = k x, k != 0; a width scale
    w = |k|/(c ħ) that is 0 or not finite, or a centre m c²/k that is not
    finite, raises ConfigError naming the keys that set them."""
    lin = linear.LinearModel(phi.k, p)
    if not (0.0 < lin.w < math.inf and math.isfinite(lin.y_shift)):
        raise ConfigError(
            f"potential.k, physical.c and physical.hbar give the linear states the width "
            f"scale w = |k|/(c*hbar) = {lin.w!r} and the centre x = -m*c^2/k = "
            f"{-lin.y_shift!r}; w must be a positive finite float and the centre finite"
        )
    return lin


def evolve_run(
    p: model.PhysicalParams,
    phi: model.ScalarPotential,
    grid: model.GridSpec,
    n: int,
    delta: float,
    stride: int,
    t_final: float | None,
    periods: float | None,
    dt: float | None,
    warn: Callable[[str], object] = lambda message: None,
) -> tuple[RunLength, Iterator, Callable[[], ClosedFormRun]]:
    """The level-``n`` run of ``evolve`` for phi = k x, k != 0 (any other
    ``phi`` raises ConfigError): its ``run_length``, its closed-form frames
    at every ``stride``-th step and the last, and a callable that makes
    its ``ClosedFormRun`` over the same schedule. A fallback to
    ``evolution.GROUND_STATE_T_FINAL`` is passed to ``warn`` before
    ``evolution.frame_steps`` and ``require_grid_holds`` may raise."""
    if not (isinstance(phi, model.LinearPotential) and phi.k != 0):
        raise ConfigError(
            "evolve uses the closed-form linear-potential states; "
            "configure a linear potential with k != 0"
        )
    lin = linear_model(p, phi)
    length = run_length(lin, grid, n, t_final, periods, dt)
    if length.fallback:
        warn(
            "the ground state is stationary and has no period; "
            f"falling back to t_final={length.t_final}"
        )
    steps = evolution.frame_steps(length.n_steps, stride)
    require_grid_holds(lin, grid, n, delta)
    schedule = (lin, grid, n, delta, length.dt, steps)
    frames = linear.closed_form_frames(*schedule)
    return length, frames, functools.partial(ClosedFormRun, *schedule)


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
    the spectra of ``compare_spectra`` (``n_max`` must then fit on
    ``grid`` and name only bound levels of the family), the host sector
    before the partner's, which a child bisects at the same time where
    ``_fork.start`` forks; for phi = k x of either sign, the closed-form
    host and partner states of ``linear`` (each of levels
    1..``ladder_levels`` must pass ``require_grid_holds`` on ``grid``, or
    ConfigError names ``verify.ladder_levels``) and, with ``pde``, one
    period of the integration."""
    audit = model.majorana_compatible(couplings, grid, audit_tol)
    worst_coupling = max((v for k, v in audit.max_abs.items() if k != "f2"), default=0.0)
    checks = [_check("coupling_reality_audit", worst_coupling, audit_tol, audit.compatible)]

    comparison = compare_spectra(p, phi, grid, n_max)
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
    lin = linear_model(p, phi)
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
            require_grid_holds(lin, grid, level, math.pi / 2)
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
        one = run_length(lin, grid, 1, None, 1.0, None)  # evolve's one-period grid
        steps = evolution.frame_steps(one.n_steps, evolution.DEFAULT_STRIDE)
        check = ClosedFormRun(lin, grid, 1, math.pi / 2.0, one.dt, steps).drain()
        error, drift = check.max_component_error, check.norm_drift
        checks.append(_check("pde_one_period_return", error, evolution.PDE_RETURN_TOL))
        checks.append(_check("pde_norm_drift", drift, evolution.NORM_DRIFT_TOL))
    return checks
