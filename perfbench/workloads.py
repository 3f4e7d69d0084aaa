"""Seeded workloads: the CLI commands each one issues and how each
command's outputs are judged.

Every workload is a list of operations. One operation is one CLI
command (`majorana1d <command> --config <file> --out <dir>`) with the
exit code it must return and a check that reads its artifacts and
returns the physics residuals as ratios to the tolerance the CLI
documents. A ratio above 1 means the residual is out of tolerance.

The seed draws physical parameters (slopes, phases, depths) from narrow
ranges in which every expected exit code holds and the step and frame
counts stay fixed, and sets the command order of `analysis_sweep`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Documented by the CLI and the library: evolve.dt defaults to
# period / 2000; evolution.NORM_DRIFT_TOL; the default run tolerance.
STEPS_PER_PERIOD = 2000
NORM_DRIFT_TOL = 1e-6
TOL = 1e-3

WORKLOADS = ("evolve_frames", "evolve_long", "analysis_sweep")
SWEEP_SIZES = (8001, 32001)
PHYSICAL = {"mass": 1.0, "c": 1.0, "hbar": 1.0}
MASSLESS = {"mass": 0.0, "c": 1.0, "hbar": 1.0}


class CheckError(Exception):
    """An artifact is missing, malformed or out of tolerance."""


@dataclass
class Operation:
    """One CLI command: its config, the exit code it must return, the
    artifacts it writes, and a check over them."""

    label: str
    command: str
    config: dict
    expected_exit: int
    artifacts: tuple[str, ...]
    check: Callable[[Path], list[float]]
    flags: tuple[str, ...] = ()
    config_path: Path | None = field(default=None, repr=False)

    def argv(self, out_dir: Path) -> list[str]:
        return [
            self.command,
            "--config",
            str(self.config_path),
            "--out",
            str(out_dir),
            *self.flags,
        ]


def _read(out_dir: Path, name: str) -> dict:
    path = out_dir / name
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise CheckError(f"cannot read {name}: {err}") from err


def _ratio(value, tol: float) -> float:
    if value is None or not math.isfinite(value):
        raise CheckError(f"residual {value!r} is not a finite number")
    return float(value) / tol


# ---------------------------------------------------------------- checks


def check_evolve(frames: int):
    def check(out_dir: Path) -> list[float]:
        summary = _read(out_dir, "evolve_summary.json")
        rows = 1 + frames * summary["grid"]["n_points"]
        for name in ("density.csv", "density_pde.csv"):
            with open(out_dir / name, "rb") as handle:
                lines = sum(1 for _ in handle)
            if lines != rows:
                raise CheckError(f"{name} has {lines} lines, expected {rows}")
        return [
            _ratio(summary["max_component_error"], TOL),
            _ratio(summary["norm_drift"], NORM_DRIFT_TOL),
        ]

    return check


def check_spectrum(n_max: int, algebraic: bool):
    def check(out_dir: Path) -> list[float]:
        data = _read(out_dir, "spectrum.json")
        levels = data["levels"]
        if [level["n"] for level in levels] != list(range(n_max + 1)):
            raise CheckError("spectrum levels are not 0..n_max")
        energies = [level["energy_oracle"] for level in levels]
        if any(b <= a for a, b in zip(energies, energies[1:])):
            raise CheckError("oracle energies are not strictly increasing")
        if not algebraic:
            return []
        return [_ratio(level["abs_diff"], data["tolerance"]) for level in levels]

    return check


def check_classify(status: str):
    def check(out_dir: Path) -> list[float]:
        got = _read(out_dir, "classify.json")["status"]
        if got != status:
            raise CheckError(f"classified {got!r}, expected {status!r}")
        return []

    return check


def check_audit(compatible: bool):
    def check(out_dir: Path) -> list[float]:
        got = _read(out_dir, "audit.json")["compatible"]
        if got is not compatible:
            raise CheckError(f"audit compatible={got}, expected {compatible}")
        return []

    return check


def check_verify(out_dir: Path) -> list[float]:
    data = _read(out_dir, "verify.json")
    ratios = []
    for entry in data["checks"]:
        if not entry["passed"]:
            raise CheckError(f"verify check {entry['name']} failed")
        ratios.append(_ratio(entry["residual"], entry["tol"]))
    return ratios


# ------------------------------------------------------------- workloads


def _grid(x_min: float, x_max: float, n_points: int) -> dict:
    return {"x_min": x_min, "x_max": x_max, "n_points": n_points}


def _evolve(rng: random.Random, n_points: int, n: int, periods: int, stride: int):
    frames = 1 + periods * STEPS_PER_PERIOD // stride
    config = {
        "potential": {"kind": "linear", "k": rng.uniform(0.98, 1.02)},
        "physical": PHYSICAL,
        "grid": _grid(-13.0, 11.0, n_points),
        "tol": TOL,
        "evolve": {
            "n": n,
            "delta": rng.uniform(1.45, 1.65),
            "periods": float(periods),
            "stride": stride,
        },
    }
    return [
        Operation(
            label=f"evolve_pde_n{n_points}",
            command="evolve",
            flags=("--pde",),
            config=config,
            expected_exit=0,
            artifacts=("density.csv", "density_pde.csv", "evolve_summary.json"),
            check=check_evolve(frames),
        )
    ]


def _sweep_at(rng: random.Random, n_points: int) -> list[Operation]:
    k = rng.uniform(0.95, 1.05)
    # Massless Poschl-Teller of depth a binds the levels n < a, so n_max = 4
    # needs a > 4; near 5, verify's zero-mode residual at N=8001 stays at
    # about 0.65 of its tolerance.
    depth = rng.uniform(4.95, 5.05)
    lin_grid = _grid(-12.0, 12.0, n_points)
    wide_grid = _grid(-20.0, 20.0, n_points)

    def config(potential, physical, grid, **sections):
        return {"potential": potential, "physical": physical, "grid": grid,
                "tol": TOL, **sections}

    def spectrum(label, potential, physical, grid, n_max, algebraic):
        return Operation(
            label=f"spectrum_{label}_n{n_points}",
            command="spectrum",
            config=config(potential, physical, grid,
                          spectrum={"n_max": n_max, "algebraic": algebraic}),
            expected_exit=0,
            artifacts=("spectrum.json",),
            check=check_spectrum(n_max, algebraic),
        )

    linear = {"kind": "linear", "k": k}
    poschl_teller = {"kind": "poschl_teller", "depth": depth, "width": 1.0}
    return [
        spectrum("linear_pos", linear, PHYSICAL, lin_grid, 10, True),
        spectrum("linear_neg", {"kind": "linear", "k": -k}, PHYSICAL, lin_grid, 10, True),
        spectrum("poschl_teller", poschl_teller, MASSLESS, wide_grid, 4, True),
        spectrum(
            "rosen_morse",
            {"kind": "rosen_morse", "a": rng.uniform(3.8, 4.2), "b": rng.uniform(0.9, 1.1)},
            MASSLESS, wide_grid, 3, False,
        ),
        spectrum(
            "scarf",
            {"kind": "scarf", "a": rng.uniform(3.8, 4.2), "b": rng.uniform(0.9, 1.1)},
            MASSLESS, wide_grid, 3, False,
        ),
        spectrum(
            "custom",
            {"kind": "custom", "expression": "g*x + s*sin(x)",
             "parameters": {"g": k, "s": rng.uniform(0.15, 0.25)}},
            PHYSICAL, lin_grid, 5, False,
        ),
        Operation(
            label=f"classify_unbroken_n{n_points}",
            command="classify",
            config=config(poschl_teller, MASSLESS, wide_grid),
            expected_exit=0,
            artifacts=("classify.json",),
            check=check_classify("unbroken"),
        ),
        Operation(
            label=f"classify_broken_n{n_points}",
            command="classify",
            config=config(
                {"kind": "poschl_teller", "depth": rng.uniform(0.4, 0.6), "width": 1.0},
                PHYSICAL, wide_grid,
            ),
            expected_exit=0,
            artifacts=("classify.json",),
            check=check_classify("broken"),
        ),
        Operation(
            label=f"audit_compliant_n{n_points}",
            command="audit",
            config=config(linear, PHYSICAL, lin_grid, audit={}),
            expected_exit=0,
            artifacts=("audit.json",),
            check=check_audit(True),
        ),
        Operation(
            label=f"audit_pseudoscalar_n{n_points}",
            command="audit",
            config=config(
                linear, PHYSICAL, lin_grid,
                audit={"f3": {"kind": "custom", "expression": "0.1*sin(x)"}},
            ),
            expected_exit=3,
            artifacts=("audit.json",),
            check=check_audit(False),
        ),
        Operation(
            label=f"verify_linear_n{n_points}",
            command="verify",
            config=config(linear, PHYSICAL, lin_grid, verify={"pde": False}),
            expected_exit=0,
            artifacts=("verify.json",),
            check=check_verify,
        ),
        Operation(
            label=f"verify_poschl_teller_n{n_points}",
            command="verify",
            config=config(poschl_teller, MASSLESS, wide_grid,
                          verify={"pde": False, "n_max": 4}),
            expected_exit=0,
            artifacts=("verify.json",),
            check=check_verify,
        ),
    ]


def build(workload: str, seed: int) -> list[Operation]:
    """The operations of one pass over ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "evolve_frames":
        return _evolve(rng, 4001, n=1, periods=1, stride=10)
    if workload == "evolve_long":
        return _evolve(rng, 8001, n=2, periods=4, stride=1000)
    if workload == "analysis_sweep":
        ops = [op for n_points in SWEEP_SIZES for op in _sweep_at(rng, n_points)]
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def materialize(ops: list[Operation], work_dir: Path) -> None:
    """Write each operation's config file under ``work_dir``."""
    work_dir.mkdir(parents=True, exist_ok=True)
    for index, op in enumerate(ops):
        op.config_path = work_dir / f"{index:02d}_{op.label}.json"
        op.config_path.write_text(json.dumps(op.config, indent=2), encoding="utf-8")
