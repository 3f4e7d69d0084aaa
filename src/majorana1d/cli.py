"""Command-line front end: it parses the config, calls the library and
serializes what it returns.

One JSON config document drives every subcommand. A command holds each
config number to its bound in one ``_convert`` call and calls one
library report, which decides its verdicts: ``invariants.spectrum_report``
(``spectrum``), ``invariants.evolve_run`` (``evolve``),
``invariants.verify_checks`` (``verify``), ``susy.zero_mode``
(``classify``) or ``majorana_compatible`` (``audit``). A verdict is
printed after the command's name. Artifacts are
written atomically with deterministic field order and shortest
round-trip floats, so identical configs give byte-identical outputs.

Two commands run two independent halves at once, one of them in a
child process forked with ``_fork``: ``verify`` bisects the partner
sector in the child while this process bisects the host sector, and
``evolve --pde`` writes ``density.csv`` in the child while this process
integrates and writes ``density_pde.csv``; both CSVs stream one frame
at a time. Neither forks off Linux, while another Python thread runs,
or when this process may run on one CPU only; the child's half then
runs here after this process's. A command has that one order either
way, so its bytes, its exit code and which error wins (the host
sector's, or ``density.csv``'s) are the same, and no child outlives it.

Exit codes: 0 success, 1 config/parse error, 2 tolerance failure,
3 physics precondition violation.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys
import tempfile
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import _fork, evolution, invariants, susy
from .errors import (
    BrokenSusyError,
    ConfigError,
    EvaluationError,
    InvalidFamilyError,
    MajoranaSolverError,
    PotentialSyntaxError,
    ReservedNameError,
    SusyConsistencyError,
    UnboundLevelError,
)
from .invariants import DEFAULT_TOL
from .model import (
    BUILTIN_POTENTIALS,
    DEFAULT_AUDIT_TOL,
    CouplingSet,
    CustomPotential,
    GridSpec,
    PhysicalParams,
    ScalarPotential,
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
    boolean, a float that is not finite, a non-integral number where an
    integer is wanted, an integer too large for a float, or a value that
    is not ``bound`` ("positive" or "non-negative") raises ConfigError
    naming ``key``."""
    expected = "an integer" if kind is int else "a number"
    if isinstance(value, bool):  # int() and float() take a JSON true as 1
        raise ConfigError(f"{key} must be {expected}, got {value!r}")
    try:
        result = kind(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{key} must be {expected}, got {value!r}") from err
    if kind is float and not math.isfinite(result):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    # every integer meets a float later (a spacing, a period), which overflows
    if kind is int and abs(result) > sys.float_info.max:
        bits = result.bit_length()
        raise ConfigError(f"{key} must fit in a float, got an integer of {bits} bits")
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


def _build(cls, section, where: str):
    """``cls`` from the dataclass fields of the object ``section``: a field
    without a default is required, an ``int`` field must be an integer and
    any other a finite number, each named ``where.field``; a ValueError
    from ``cls`` itself raises ConfigError("bad ``where``: ...")."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where!r} must be an object")
    values = {}
    for f in fields(cls):
        value = section.get(f.name, f.default)
        if value is MISSING:
            value = _need(section, f.name, where)
        kind = int if f.type in (int, "int") else float
        values[f.name] = _convert(kind, value, f"{where}.{f.name}")
    try:
        return cls(**values)
    except ValueError as err:
        raise ConfigError(f"bad {where}: {err}") from err


def _finite_on(grid: GridSpec, phi: ScalarPotential, where: str) -> ScalarPotential:
    """``phi``, once it has been evaluated on ``grid``: a potential that is
    not finite there raises ConfigError naming ``where``."""
    try:
        phi.evaluate(grid.points())
    except EvaluationError as err:
        raise ConfigError(f"{where} must be finite on the grid: {err}") from None
    return phi


def build_potential(section, where: str = "potential") -> ScalarPotential:
    if not isinstance(section, dict):
        raise ConfigError(f"{where!r} must be an object with a 'kind'")
    kind = _need(section, "kind", where)
    if isinstance(kind, str) and kind in BUILTIN_POTENTIALS:
        return _build(BUILTIN_POTENTIALS[kind], section, where)
    if kind == "custom":
        parameters = section.get("parameters", {})
        if not isinstance(parameters, dict):
            raise ConfigError(f"{where}.parameters must be an object")
        try:
            return CustomPotential(
                str(_need(section, "expression", where)),
                {k: _convert(float, v, f"{where}.parameters.{k}") for k, v in parameters.items()},
            )
        except ReservedNameError as err:
            raise ConfigError(f"{where}.parameters.{err.name}: {err}") from None
    raise ConfigError(f"unknown potential kind {kind!r}")


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
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    try:
        raw = json.loads(text)
    except ValueError as err:  # also an integer past int()'s digit limit
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    tol = _convert(float, raw.get("tol", DEFAULT_TOL), "tol", "positive")
    potential = build_potential(_need(raw, "potential", "config"))
    physical = raw.get("physical")
    params = _build(PhysicalParams, {} if physical is None else physical, "physical")
    grid = _build(GridSpec, _need(raw, "grid", "config"), "grid")
    return RunConfig(_finite_on(grid, potential, "potential"), params, grid, tol, raw)


# ------------------------------------------------------------- artifacts


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
    text = json.dumps(payload, indent=2) + "\n"
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


def _fail(command: str, failure, code: int = EXIT_TOLERANCE) -> int:
    """``code``, once a verdict on ``command``'s run is printed after its name."""
    print(f"{command}: {failure}", file=sys.stderr)
    return code


def cmd_spectrum(cfg: RunConfig, out_dir: Path) -> int:
    section = cfg.raw.get("spectrum")
    if not isinstance(section, dict):
        raise ConfigError("config needs a 'spectrum' object with 'n_max'")
    n_max = _convert(int, _need(section, "n_max", "spectrum"), "spectrum.n_max", "non-negative")
    algebraic = _flag(section, "algebraic", "spectrum")
    fields, failure = invariants.spectrum_report(
        cfg.params, cfg.potential, cfg.grid, n_max, algebraic, cfg.tol
    )
    write_json(out_dir / "spectrum.json", {**_describe_common(cfg), **fields})
    return EXIT_OK if failure is None else _fail("spectrum", failure)


def cmd_evolve(cfg: RunConfig, out_dir: Path, use_pde: bool) -> int:
    section = cfg.raw.get("evolve")
    if not isinstance(section, dict):
        raise ConfigError("config needs an 'evolve' object with 'n'")
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

    run, frames, integrate = invariants.evolve_run(
        cfg.params, cfg.potential, cfg.grid, n, delta, stride, t_final, periods, dt,
        warn=lambda message: print(f"evolve: {message}", file=sys.stderr),
    )
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
    if not use_pde:
        write_density_csv(out_dir / "density.csv", cfg.grid, frames)
    else:
        with _fork.start(write_density_csv, out_dir / "density.csv", cfg.grid, frames) as density:
            try:
                check = integrate()
                write_density_csv(out_dir / "density_pde.csv", cfg.grid, check)
                summary.update(
                    {
                        "max_component_error": check.max_component_error,
                        "norm_drift": check.norm_drift,
                        "pde_jump_steps": check.jump_steps,
                        "pde_solves": check.solves,
                    }
                )
                failure = check.mismatch(cfg.tol)
                if failure is not None:
                    status = _fail("evolve", failure)
            finally:
                # joined, not killed, when the PDE fails: a density.csv error
                # raised here replaces a PDE error, and the file is still written
                density.join()
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
            return _finite_on(cfg.grid, build_potential(entry, f"audit.{key}"), f"audit.{key}")
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
        failure = (
            f"couplings [{names}] violate the reality constraint "
            "(a Majorana fermion admits only a scalar potential)"
        )
        return _fail("audit", failure, EXIT_PHYSICS)
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
        return _fail("verify", f"failed checks: {failed}")
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
    # a report's verdict on the run it was given names the command
    except BrokenSusyError as err:
        return _fail(args.command, err, EXIT_PHYSICS)
    except (InvalidFamilyError, SusyConsistencyError) as err:
        return _fail(args.command, err)
    except UnboundLevelError as err:
        print(f"majorana1d: {err}", file=sys.stderr)
        return EXIT_PHYSICS
    except MajoranaSolverError as err:
        print(f"majorana1d: {err}", file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    raise SystemExit(main())
