"""Command-line front end.

One JSON config document drives every subcommand; artifacts are written
atomically with deterministic field order and shortest round-trip float
formatting, so identical configs give byte-identical outputs.

A command reads each config number and holds it to its lower bound in
one ``_convert`` call, calls the library (``susy.oracle_eigenvalues``
for the finite-difference spectra, ``evolution.pde_vs_closed_form`` for
the PDE check against the closed form) and serializes what it returns.

``evolve --pde`` writes the closed-form ``density.csv`` in one worker
process, forked on Linux while no other thread runs, while this process
integrates the first-order system and writes ``density_pde.csv``; the
two routes share only the config. Elsewhere, and without ``--pde``,
``density.csv`` is written in-process first.

Exit codes: 0 success, 1 config/parse error, 2 tolerance failure,
3 physics precondition violation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import operator
import os
import sys
import tempfile
import threading
from dataclasses import asdict, dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from . import evolution, linear, susy
from .errors import (
    BrokenSusyError,
    ConfigError,
    MajoranaSolverError,
    PotentialSyntaxError,
)
from .model import (
    CouplingSet,
    CustomPotential,
    GridFunction,
    GridSpec,
    LinearPotential,
    PhysicalParams,
    PoschlTellerPotential,
    RosenMorsePotential,
    ScalarPotential,
    ScarfPotential,
    majorana_compatible,
    norm,
    trapezoid,
    zero_potential,
)
from .oracle import Sector, energy_from_lambda, verify_isospectral

DEFAULT_TOL = 1e-3

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TOLERANCE = 2
EXIT_PHYSICS = 3


# ---------------------------------------------------------------- config


def _need(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing {key!r} in {where}")
    return section[key]


# lower bounds a config number can be held to; a positive integer is at least 1
_BOUNDS = {"positive": operator.gt, "non-negative": operator.ge}


def _convert(kind: type, value, key: str, bound: str | None = None):
    """``kind(value)`` for ``kind`` float or int; a malformed value, a
    float that is not finite, a non-integral number where an integer
    is wanted, or a value that is not ``bound`` ("positive" or
    "non-negative") raises ConfigError naming ``key``."""
    expected = "an integer" if kind is int else "a number"
    try:
        result = kind(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{key} must be {expected}, got {value!r}") from err
    if kind is float and not math.isfinite(result):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key} must be {expected}, got {value!r}")
    if bound is not None and not _BOUNDS[bound](result, 0):
        raise ConfigError(f"{key} must be {bound}, got {value!r}")
    return result


def _check_levels(grid: GridSpec, n_max: int, key: str):
    """ConfigError naming ``key`` or ``grid.n_points`` unless the
    finite-difference oracle can solve for levels 0..``n_max`` on
    ``grid``: it needs at least 5 points, and one of its n_points - 2
    interior points per level."""
    if grid.n_points < 5:
        raise ConfigError(
            f"grid.n_points must be at least 5 for the finite-difference spectrum, "
            f"got {grid.n_points}"
        )
    if n_max > grid.n_points - 3:
        raise ConfigError(
            f"{key} must be at most grid.n_points - 3 = {grid.n_points - 3}, got {n_max}"
        )


def _flag(section: dict, key: str, where: str) -> bool:
    """An optional boolean config flag, true when absent; anything but
    a JSON ``true``/``false`` raises ConfigError naming the key."""
    value = section.get(key, True)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}.{key} must be true or false, got {value!r}")
    return value


def build_potential(section, where: str = "potential") -> ScalarPotential:
    if not isinstance(section, dict):
        raise ConfigError(f"{where!r} must be an object with a 'kind'")
    kind = _need(section, "kind", where)

    def number(key: str, default: float | None = None) -> float:
        value = _need(section, key, where) if default is None else section.get(key, default)
        return _convert(float, value, f"{where}.{key}")

    if kind == "linear":
        return LinearPotential(number("k"))
    if kind == "poschl_teller":
        return PoschlTellerPotential(number("depth"), number("width", 1.0))
    if kind == "rosen_morse":
        return RosenMorsePotential(number("a"), number("b"), number("alpha", 1.0))
    if kind == "scarf":
        return ScarfPotential(number("a"), number("b"), number("alpha", 1.0))
    if kind == "custom":
        parameters = section.get("parameters", {})
        if not isinstance(parameters, dict):
            raise ConfigError(f"{where}.parameters must be an object")
        return CustomPotential(
            str(_need(section, "expression", where)),
            {k: _convert(float, v, f"{where}.parameters.{k}") for k, v in parameters.items()},
        )
    raise ConfigError(f"unknown potential kind {kind!r}")


def build_params(section) -> PhysicalParams:
    section = {} if section is None else section
    if not isinstance(section, dict):
        raise ConfigError("'physical' must be an object")
    values = {
        key: _convert(float, section.get(key, 1.0), f"physical.{key}")
        for key in ("mass", "c", "hbar")
    }
    try:
        return PhysicalParams(**values)
    except ValueError as err:
        raise ConfigError(f"bad physical parameters: {err}") from err


def build_grid(section) -> GridSpec:
    if not isinstance(section, dict):
        raise ConfigError("config needs a 'grid' object")
    x_min = _convert(float, _need(section, "x_min", "grid"), "grid.x_min")
    x_max = _convert(float, _need(section, "x_max", "grid"), "grid.x_max")
    n_points = _convert(int, _need(section, "n_points", "grid"), "grid.n_points")
    try:
        return GridSpec(x_min, x_max, n_points)
    except ValueError as err:
        raise ConfigError(f"bad grid: {err}") from err


@dataclass
class RunConfig:
    potential: ScalarPotential
    params: PhysicalParams
    grid: GridSpec
    tol: float
    raw: dict


def load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    tol = _convert(float, raw.get("tol", DEFAULT_TOL), "tol", "positive")
    return RunConfig(
        potential=build_potential(_need(raw, "potential", "config")),
        params=build_params(raw.get("physical")),
        grid=build_grid(_need(raw, "grid", "config")),
        tol=tol,
        raw=raw,
    )


# ------------------------------------------------------------- artifacts


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_text_atomic(path: Path, chunks):
    """Write the strings of ``chunks`` to a temp file beside ``path``, then
    rename it over ``path``; on any failure the temp file is removed and
    ``path`` is left untouched."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path: Path, payload: dict):
    write_text_atomic(path, (json.dumps(_jsonable(payload), indent=2) + "\n",))


def _float_reprs(values) -> list[str]:
    """Shortest round-trip repr of each value, as ``repr(float(v))`` gives it."""
    return repr(np.asarray(values, dtype=float).tolist())[1:-1].split(", ")


def write_density_csv(path: Path, grid: GridSpec, rows):
    """Write ``t,x,rho`` rows, one per grid point and frame.

    rows: iterable of (t, density ndarray), already sorted by t. It is
    consumed once, lazily and in order: each frame is formatted and
    written before the next one is drawn, so memory does not grow with
    the number of frames.
    """
    x_cells = [cell + "," for cell in _float_reprs(grid.points())]

    def frames():
        yield "t,x,rho\n"
        for t, rho in rows:
            t_cell = repr(float(t)) + ","
            cells = zip(repeat(t_cell), x_cells, _float_reprs(rho), repeat("\n"))
            yield "".join(map("".join, cells))

    write_text_atomic(path, frames())


def _describe_common(cfg: RunConfig) -> dict:
    return {
        "potential": cfg.potential.describe(),
        "params": asdict(cfg.params),
        "grid": asdict(cfg.grid),
    }


# -------------------------------------------------------------- commands


def cmd_spectrum(cfg: RunConfig, out_dir: Path) -> int:
    section = cfg.raw.get("spectrum")
    if not isinstance(section, dict):
        raise ConfigError("config needs a 'spectrum' object with 'n_max'")
    n_max = _convert(int, _need(section, "n_max", "spectrum"), "spectrum.n_max", "non-negative")
    _check_levels(cfg.grid, n_max, "spectrum.n_max")
    algebraic = _flag(section, "algebraic", "spectrum")

    classification = susy.zero_mode(cfg.params, cfg.potential, cfg.grid)
    invariance = None
    energies_algebraic = None
    if algebraic:
        if not classification.unbroken:
            print(
                "spectrum: SUSY is broken for this configuration (no normalizable "
                "zero mode); the algebraic shape-invariance spectrum does not exist. "
                "Set spectrum.algebraic to false for an oracle-only run.",
                file=sys.stderr,
            )
            return EXIT_PHYSICS
        family = susy.builtin_family(cfg.params, cfg.potential)
        if family is None:
            raise ConfigError(
                "no built-in shape-invariant family for potential kind "
                f"{cfg.potential.kind!r} with these physical parameters; "
                "set spectrum.algebraic to false"
            )
        result = susy.check_shape_invariance(family, cfg.params, cfg.grid)
        invariance = {
            "family": family.label,
            "r_declared": family.remainder(family.a1),
            "r_measured": result.r_measured,
            "spread": result.spread,
            "is_invariant": result.is_invariant,
        }
        if not result.is_invariant:
            print(
                f"spectrum: shape-invariance check failed (spread {result.spread:.3e})",
                file=sys.stderr,
            )
            return EXIT_TOLERANCE
        energies_algebraic = susy.algebraic_spectrum(family, n_max)

    pair = susy.partner_potentials(cfg.params, cfg.potential, cfg.grid)
    sector = classification.sector or Sector.MINUS
    energies_oracle = [
        energy_from_lambda(lam, cfg.tol)
        for lam in susy.oracle_eigenvalues(pair, sector, n_max + 1)
    ]

    levels = []
    worst = 0.0
    for n in range(n_max + 1):
        e_alg = float(energies_algebraic[n]) if energies_algebraic is not None else None
        e_orc = energies_oracle[n]
        diff = abs(e_alg - e_orc) if e_alg is not None else None
        if diff is not None:
            worst = max(worst, diff)
        levels.append(
            {
                "n": n,
                "energy_algebraic": e_alg,
                "energy_oracle": e_orc,
                "abs_diff": diff,
            }
        )

    payload = _describe_common(cfg)
    payload.update(
        {
            "sector": sector.value,
            "tolerance": cfg.tol,
            "shape_invariance": invariance,
            "levels": levels,
        }
    )
    write_json(out_dir / "spectrum.json", payload)
    if energies_algebraic is not None and worst > cfg.tol:
        print(
            f"spectrum: algebraic/oracle mismatch {worst:.3e} exceeds tol {cfg.tol:.1e}",
            file=sys.stderr,
        )
        return EXIT_TOLERANCE
    return EXIT_OK


def write_analytic_density_csv(
    path: Path,
    grid: GridSpec,
    model: linear.LinearModel,
    n: int,
    delta: float,
    dt: float,
    steps: list[int],
):
    """Write the closed-form level-``n`` density at times ``step * dt``
    with ``write_density_csv``. Module level, so a worker process can
    run it."""
    y = model.y_of_x(grid.points())

    def rows():
        for step in steps:
            psi1, psi2 = linear.spinor(model, n, step * dt, y, delta)
            yield step * dt, psi1**2 + psi2**2

    write_density_csv(path, grid, rows())


def _density_worker(stack: contextlib.ExitStack):
    """A one-process pool, closed by ``stack``, forked from this process.

    fork copies only the calling thread, so a lock another thread holds
    would stay held in the child: the pool is made only on Linux and
    while no other thread runs. Fork is unsafe with the macOS system
    frameworks and absent on Windows. Returns None where it is not made.
    """
    if sys.platform != "linux" or threading.active_count() != 1:
        return None
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    return stack.enter_context(ProcessPoolExecutor(1, mp_context=context))


def cmd_evolve(cfg: RunConfig, out_dir: Path, use_pde: bool) -> int:
    section = cfg.raw.get("evolve")
    if not isinstance(section, dict):
        raise ConfigError("config needs an 'evolve' object with 'n'")
    if not isinstance(cfg.potential, LinearPotential) or cfg.potential.k == 0:
        raise ConfigError(
            "evolve uses the closed-form linear-potential states; "
            "configure a linear potential with k != 0"
        )
    n = _convert(int, _need(section, "n", "evolve"), "evolve.n", "non-negative")
    delta = _convert(float, section.get("delta", math.pi / 2.0), "evolve.delta")
    stride = _convert(
        int, section.get("stride", evolution.DEFAULT_STRIDE), "evolve.stride", "positive"
    )

    model = linear.LinearModel(cfg.potential.k, cfg.params)
    psi1, psi2 = linear.spinor(model, n, 0.0, model.y_of_x(cfg.grid.points()), delta)
    state_norm = trapezoid(psi1**2 + psi2**2, cfg.grid.h)
    if state_norm == 0 or abs(1.0 - state_norm) > cfg.tol:
        raise ConfigError(
            f"grid: the level-{n} state has norm {state_norm:.3e} on the grid, not 1 "
            f"within tol {cfg.tol:.1e}; it lies outside [x_min, x_max] = "
            f"[{cfg.grid.x_min!r}, {cfg.grid.x_max!r}] or the grid is too coarse; "
            f"put the grid around x = {-model.y_shift!r}"
        )
    period = evolution.density_period(model, n) if n >= 1 else None
    t_final = section.get("t_final")
    if t_final is None:
        periods = _convert(float, section.get("periods", 1.0), "evolve.periods", "positive")
        if period is None:
            t_final = 5.0
            print(
                "evolve: the ground state is stationary and has no period; "
                f"falling back to t_final={t_final}",
                file=sys.stderr,
            )
        else:
            t_final = periods * period
    t_final = _convert(float, t_final, "evolve.t_final", "positive")
    dt = section.get("dt")
    if dt is None and period is not None:
        dt = period / evolution.STEPS_PER_PERIOD
    elif dt is None:
        dt = evolution.default_time_step(cfg.params, cfg.potential, cfg.grid)
    dt = _convert(float, dt, "evolve.dt", "positive")
    n_steps = max(1, round(t_final / dt))
    dt = t_final / n_steps

    steps = evolution.frame_steps(n_steps, stride)
    density_job = (out_dir / "density.csv", cfg.grid, model, n, delta, dt, steps)
    summary = _describe_common(cfg)
    summary.update(
        {
            "n": n,
            "delta": delta,
            "period": period,
            "t_final": t_final,
            "dt": dt,
            "steps": n_steps,
            "stride": stride,
            "pde": bool(use_pde),
        }
    )

    status = EXIT_OK
    with contextlib.ExitStack() as stack:
        pool = _density_worker(stack) if use_pde else None
        if pool is None:
            write_analytic_density_csv(*density_job)
        else:
            # waits before the pool closes; a density.csv error raised here
            # replaces a PDE error, as when that file is written first
            stack.callback(pool.submit(write_analytic_density_csv, *density_job).result)
        if use_pde:
            trace, max_err = evolution.pde_vs_closed_form(
                model, cfg.grid, n, delta, t_final, dt, stride
            )
            write_density_csv(
                out_dir / "density_pde.csv",
                cfg.grid,
                [(t, d.values) for t, d in zip(trace.times, trace.densities)],
            )
            summary.update(
                {"max_component_error": max_err, "norm_drift": trace.norm_drift}
            )
            if max_err > cfg.tol:
                status = EXIT_TOLERANCE
                print(
                    f"evolve: PDE/analytic mismatch {max_err:.3e} exceeds tol {cfg.tol:.1e}",
                    file=sys.stderr,
                )
    write_json(out_dir / "evolve_summary.json", summary)
    return status


def _audit_couplings(cfg: RunConfig) -> CouplingSet:
    """The configured couplings; a key the ``audit`` section leaves out
    is the run's potential for ``f2`` and zero otherwise."""
    section = cfg.raw.get("audit")
    section = {} if section is None else section
    if not isinstance(section, dict):
        raise ConfigError("'audit' must be an object")

    def coupling(key: str) -> ScalarPotential:
        entry = section.get(key)
        if entry is not None:
            return build_potential(entry, f"audit.{key}")
        return cfg.potential if key == "f2" else zero_potential()

    return CouplingSet(*map(coupling, ("f1", "f2", "f3", "f4")))


def cmd_audit(cfg: RunConfig, out_dir: Path, tol_override: float | None) -> int:
    audit_tol = (
        tol_override
        if tol_override is not None
        else _convert(float, cfg.raw.get("audit_tol", 1e-9), "audit_tol", "non-negative")
    )
    report = majorana_compatible(_audit_couplings(cfg), cfg.grid, audit_tol)
    payload = _describe_common(cfg)
    payload.update(
        {
            "tolerance": audit_tol,
            "compatible": report.compatible,
            "offending": [
                {"coupling": name, "max_abs": value} for name, value in report.offending
            ],
            "max_abs": report.max_abs,
        }
    )
    write_json(out_dir / "audit.json", payload)
    if not report.compatible:
        names = ", ".join(name for name, _ in report.offending)
        print(
            f"audit: couplings [{names}] violate the reality constraint "
            "(a Majorana fermion admits only a scalar potential)",
            file=sys.stderr,
        )
        return EXIT_PHYSICS
    return EXIT_OK


def cmd_classify(cfg: RunConfig, out_dir: Path) -> int:
    cls = susy.zero_mode(cfg.params, cfg.potential, cfg.grid)
    payload = _describe_common(cfg)
    payload.update(
        {
            "status": cls.status,
            "sector": cls.sector.value if cls.sector else None,
            "boundary_amplitude": {
                "minus": cls.boundary_minus,
                "plus": cls.boundary_plus,
            },
            "boundary_tol": susy.BOUNDARY_TOL,
        }
    )
    write_json(out_dir / "classify.json", payload)
    return EXIT_OK


def cmd_verify(cfg: RunConfig, out_dir: Path) -> int:
    section = cfg.raw.get("verify")
    section = {} if section is None else section
    if not isinstance(section, dict):
        raise ConfigError("'verify' must be an object")
    n_max = _convert(int, section.get("n_max", 8), "verify.n_max", "non-negative")
    ladder_levels = _convert(
        int, section.get("ladder_levels", 5), "verify.ladder_levels", "positive"
    )
    run_pde = _flag(section, "pde", "verify")
    checks: list[dict] = []

    def record(name: str, residual: float, tol: float, passed=None):
        checks.append(
            {
                "name": name,
                "residual": float(residual),
                "tol": float(tol),
                "passed": bool(residual <= tol) if passed is None else bool(passed),
            }
        )

    audit = majorana_compatible(_audit_couplings(cfg), cfg.grid, 1e-9)
    worst_coupling = max((v for k, v in audit.max_abs.items() if k != "f2"), default=0.0)
    record("coupling_reality_audit", worst_coupling, 1e-9, passed=audit.compatible)

    cls = susy.zero_mode(cfg.params, cfg.potential, cfg.grid)
    record("unbroken_susy", 0.0 if cls.unbroken else 1.0, 0.5, passed=cls.unbroken)

    if cls.unbroken:
        residual = cls.annihilation_residual(cfg.params, cfg.potential)
        record("zero_mode_annihilation", residual, 1e-4)

    family = susy.builtin_family(cfg.params, cfg.potential)
    if family is not None and cls.unbroken:
        inv = susy.check_shape_invariance(family, cfg.params, cfg.grid)
        record("shape_invariance_spread", inv.spread, susy.SHAPE_INVARIANCE_TOL)
        record(
            "shape_invariance_remainder",
            abs(inv.r_measured - family.remainder(family.a1)),
            1e-10,
        )
        _check_levels(cfg.grid, n_max, "verify.n_max")
        energies = susy.algebraic_spectrum(family, n_max)
        pair = susy.partner_potentials(cfg.params, cfg.potential, cfg.grid)
        # one host level above the partner's, so n_max = 0 still compares a level
        host = susy.oracle_eigenvalues(pair, cls.sector, max(n_max, 1) + 1)
        worst_energy = max(abs(energies[n] ** 2 - host[n]) for n in range(n_max + 1))
        record("algebraic_vs_oracle_energy_sq", worst_energy, cfg.tol)

        partner = susy.oracle_eigenvalues(pair, cls.sector.partner, max(n_max, 1))
        # interlacing: partner level n pairs with host level n+1
        iso = verify_isospectral(host, partner, 5e-3, cfg.tol)
        record("partner_isospectrality", iso.max_diff, iso.tol, passed=iso.passed)

    is_linear = isinstance(cfg.potential, LinearPotential) and cfg.potential.k != 0
    if is_linear and cls.unbroken:
        model = linear.LinearModel(cfg.potential.k, cfg.params)
        y = model.y_of_x(cfg.grid.points())
        if model.k > 0:
            gaussian = linear.eigenstate_minus(model, 0, y)
            record(
                "zero_mode_matches_gaussian",
                float(np.max(np.abs(cls.zero_mode.values - gaussian))),
                1e-6,
            )
            worst_ladder = 0.0
            for level in range(1, ladder_levels + 1):
                minus_n = GridFunction(cfg.grid, linear.eigenstate_minus(model, level, y))
                target = linear.energy(model, level) * linear.eigenstate_plus(
                    model, level, y
                )
                image = susy.apply_a(cfg.params, cfg.potential, minus_n).values
                if float(np.dot(image, target)) < 0:
                    target = -target
                worst_ladder = max(worst_ladder, norm(GridFunction(cfg.grid, image - target)))
            record("ladder_mapping_residual", worst_ladder, 1e-3)

        if run_pde:
            period = evolution.density_period(model, 1)
            trace, err = evolution.pde_vs_closed_form(
                model, cfg.grid, 1, math.pi / 2.0, period, period / evolution.STEPS_PER_PERIOD
            )
            record("pde_one_period_return", err, 1e-3)
            record("pde_norm_drift", trace.norm_drift, evolution.NORM_DRIFT_TOL)

    payload = _describe_common(cfg)
    passed = all(entry["passed"] for entry in checks)
    payload.update({"tolerance": cfg.tol, "checks": checks, "passed": passed})
    write_json(out_dir / "verify.json", payload)
    if not passed:
        failed = ", ".join(e["name"] for e in checks if not e["passed"])
        print(f"verify: failed checks: {failed}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


# ------------------------------------------------------------------ main


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage errors in the config-error exit class
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="majorana1d",
        description="Majorana fermion dynamics in 1+1 dimensions under "
        "static scalar potentials",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "algebraic + finite-difference spectra with deltas"),
        ("evolve", "density traces of the linear-potential states"),
        ("verify", "run the invariant suite and report residuals"),
        ("classify", "zero-mode SUSY classification"),
        ("audit", "reality audit of an external coupling set"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--tol", default=None, help="tolerance override")
        if name == "evolve":
            p.add_argument(
                "--pde",
                action="store_true",
                help="also integrate the first-order system and compare",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        tol = None if args.tol is None else _convert(float, args.tol, "--tol", "positive")
        cfg = load_config(args.config)
        if tol is not None:
            cfg.tol = tol
        if args.command == "spectrum":
            return cmd_spectrum(cfg, out_dir)
        if args.command == "evolve":
            return cmd_evolve(cfg, out_dir, args.pde)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir)
        if args.command == "classify":
            return cmd_classify(cfg, out_dir)
        return cmd_audit(cfg, out_dir, tol)
    except (ConfigError, PotentialSyntaxError) as err:
        print(f"majorana1d: config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenSusyError as err:
        print(f"majorana1d: {err}", file=sys.stderr)
        return EXIT_PHYSICS
    except MajoranaSolverError as err:
        print(f"majorana1d: {err}", file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    raise SystemExit(main())
