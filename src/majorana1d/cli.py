"""Command-line front end: it parses the config, calls the library and
serializes what it returns.

One JSON config document drives every subcommand. A command holds each
config number to its bound in one ``_convert`` call and calls one
library report: ``susy.compare_spectra`` (``spectrum``),
``evolution.run_length`` and the frame streams (``evolve``),
``invariants.verify_checks`` (``verify``), ``susy.zero_mode``
(``classify``) or ``majorana_compatible`` (``audit``). Artifacts are
written atomically with deterministic field order and shortest
round-trip floats, so identical configs give byte-identical outputs.

Two commands run two independent halves at once, one of them in a
child process forked with ``_fork``: ``verify`` bisects the partner
sector in the child while this process bisects the host sector, and
``evolve --pde`` writes ``density.csv`` in the child while this process
integrates and writes ``density_pde.csv``; both CSVs stream one frame
at a time. Neither forks off Linux, while another Python thread runs,
or when this process may run on one CPU only; both halves then run
here, the host sector or ``density.csv`` first. The bytes, the exit
code and which error wins (the host sector's, or ``density.csv``'s)
are the same either way, and no child outlives the command.

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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import _fork, evolution, invariants, linear, oracle, susy
from .errors import (
    BrokenSusyError,
    ConfigError,
    MajoranaSolverError,
    PotentialSyntaxError,
    UnboundLevelError,
)
from .invariants import DEFAULT_TOL
from .model import (
    DEFAULT_AUDIT_TOL,
    CouplingSet,
    CustomPotential,
    GridSpec,
    LinearPotential,
    PhysicalParams,
    PoschlTellerPotential,
    RosenMorsePotential,
    ScalarPotential,
    ScarfPotential,
    majorana_compatible,
    zero_potential,
)

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


def _positive(value, key: str) -> float | None:
    """An optional config number held positive; None stays None."""
    return None if value is None else _convert(float, value, key, "positive")


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


def write_atomic(path: Path, chunks):
    """Write the bytes of ``chunks`` to a temp file beside ``path``, then
    rename it over ``path``; on any failure the temp file is removed and
    ``path`` is left untouched."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path: Path, payload: dict):
    text = json.dumps(_jsonable(payload), indent=2) + "\n"
    write_atomic(path, (text.encode("utf-8"),))


def write_density_csv(path: Path, grid: GridSpec, rows):
    """Write ``t,x,rho`` rows, one per grid point and frame, each float
    as ``repr`` gives it.

    rows: iterable of (t, density ndarray), already sorted by t. It is
    consumed once, lazily and in order: each frame is formatted and
    written before the next one is drawn, so memory does not grow with
    the number of frames. A density that is not one value per grid
    point raises ValueError naming its frame, and ``path`` is left
    untouched.
    """
    # the formatting kernel and its tables load only when a CSV is written
    from ._floatrepr import DensityRows

    density_rows = DensityRows(grid.points())

    def frames():
        yield b"t,x,rho\n"
        for index, (t, rho) in enumerate(rows):
            rho = np.asarray(rho)
            if rho.shape != (grid.n_points,):
                raise ValueError(
                    f"density frame {index} has shape {rho.shape}; "
                    f"the grid needs ({grid.n_points},)"
                )
            yield density_rows.frame(t, rho)

    write_atomic(path, frames())


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
    oracle.require_levels(cfg.grid, n_max, "spectrum.n_max")
    algebraic = _flag(section, "algebraic", "spectrum")

    comparison = susy.compare_spectra(
        cfg.params, cfg.potential, cfg.grid, n_max, n_max + 1, algebraic
    )
    invariance = None
    if algebraic:
        if not comparison.classification.unbroken:
            print(
                "spectrum: SUSY is broken for this configuration (no normalizable "
                "zero mode); the algebraic shape-invariance spectrum does not exist. "
                "Set spectrum.algebraic to false for an oracle-only run.",
                file=sys.stderr,
            )
            return EXIT_PHYSICS
        if comparison.family is None:
            raise ConfigError(
                "no built-in shape-invariant family for potential kind "
                f"{cfg.potential.kind!r} with these physical parameters; "
                "set spectrum.algebraic to false"
            )
        comparison.family.require_bound(n_max, "spectrum.n_max")
        invariance = {"family": comparison.family.label, **asdict(comparison.invariance)}
        if not comparison.invariance.is_invariant:
            print(
                "spectrum: shape-invariance check failed "
                f"(spread {comparison.invariance.spread:.3e})",
                file=sys.stderr,
            )
            return EXIT_TOLERANCE

    levels = comparison.levels(cfg.tol)
    payload = _describe_common(cfg)
    payload.update(
        {
            "sector": comparison.sector.value,
            "tolerance": cfg.tol,
            "shape_invariance": invariance,
            "levels": levels,
        }
    )
    write_json(out_dir / "spectrum.json", payload)
    worst = max(level["abs_diff"] or 0.0 for level in levels)
    if worst > cfg.tol:
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
    """Write the closed-form level-``n`` frames at times ``step * dt``
    with ``write_density_csv``."""
    frames = evolution.closed_form_frames(model, grid, n, delta, dt, steps)
    write_density_csv(path, grid, frames)


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

    t_final = _positive(section.get("t_final"), "evolve.t_final")
    periods = None
    if t_final is None:
        periods = _convert(float, section.get("periods", 1.0), "evolve.periods", "positive")
    dt = _positive(section.get("dt"), "evolve.dt")

    model = linear.LinearModel(cfg.potential.k, cfg.params)
    run = evolution.run_length(model, cfg.grid, n, t_final, periods, dt)
    if run.fallback:
        print(
            "evolve: the ground state is stationary and has no period; "
            f"falling back to t_final={run.t_final}",
            file=sys.stderr,
        )
    steps = evolution.frame_steps(run.n_steps, stride)
    density_job = (out_dir / "density.csv", cfg.grid, model, n, delta, run.dt, steps)
    evolution.require_grid_holds(model, cfg.grid, n, delta)
    summary = _describe_common(cfg)
    summary.update(
        {
            "n": n,
            "delta": delta,
            "period": run.period,
            "t_final": run.t_final,
            "dt": run.dt,
            "steps": run.n_steps,
            "stride": stride,
            "pde": bool(use_pde),
        }
    )

    status = EXIT_OK
    with contextlib.ExitStack() as stack:
        density = _fork.start(write_analytic_density_csv, *density_job) if use_pde else None
        if density is None:
            write_analytic_density_csv(*density_job)
        else:
            # joined, not killed, when the PDE fails: a density.csv error
            # raised here replaces a PDE error, as when that file is
            # written first
            stack.enter_context(density)
            stack.callback(density.join)
        if use_pde:
            check = evolution.pde_vs_closed_form(
                model, cfg.grid, n, delta, run.t_final, run.dt, stride
            )
            write_density_csv(out_dir / "density_pde.csv", cfg.grid, check)
            max_err = check.max_component_error
            summary.update({"max_component_error": max_err, "norm_drift": check.norm_drift})
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


def _audit_tol(cfg: RunConfig) -> float:
    """``audit_tol``, as ``audit`` and ``verify`` both read it."""
    value = cfg.raw.get("audit_tol", DEFAULT_AUDIT_TOL)
    return _convert(float, value, "audit_tol", "non-negative")


def cmd_audit(cfg: RunConfig, out_dir: Path, tol_override: float | None) -> int:
    audit_tol = tol_override if tol_override is not None else _audit_tol(cfg)
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
    checks = invariants.verify_checks(
        cfg.params,
        cfg.potential,
        cfg.grid,
        _audit_couplings(cfg),
        _audit_tol(cfg),
        cfg.tol,
        n_max,
        ladder_levels,
        run_pde,
    )

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
    except (BrokenSusyError, UnboundLevelError) as err:
        print(f"majorana1d: {err}", file=sys.stderr)
        return EXIT_PHYSICS
    except MajoranaSolverError as err:
        print(f"majorana1d: {err}", file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    raise SystemExit(main())
