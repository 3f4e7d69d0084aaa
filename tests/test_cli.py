import errno
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from majorana1d import _floatrepr, _fork, cli, evolution, invariants, oracle
from majorana1d.cli import main, write_density_csv
from majorana1d.errors import DiscretizationError, DivergenceError
from majorana1d.model import DEFAULT_AUDIT_TOL, GridSpec


def write_config(path, **overrides):
    config = {
        "potential": {"kind": "linear", "k": 1.0},
        "physical": {"mass": 1.0, "c": 1.0, "hbar": 1.0},
        "grid": {"x_min": -13.0, "x_max": 11.0, "n_points": 4001},
        "tol": 1e-3,
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def two_cpus(monkeypatch):
    """This process may run on two CPUs, so ``_fork.start`` forks on Linux."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------- spectrum


def test_spectrum_linear(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", spectrum={"n_max": 10})
    assert run("spectrum", "--config", cfg, "--out", tmp_path / "out") == 0
    data = json.loads((tmp_path / "out" / "spectrum.json").read_text())
    assert data["potential"] == {"kind": "linear", "k": 1.0}
    assert data["sector"] == "minus"
    assert data["shape_invariance"]["is_invariant"] is True
    levels = data["levels"]
    assert [l["n"] for l in levels] == list(range(11))
    for l in levels:
        assert l["energy_algebraic"] == pytest.approx(math.sqrt(2.0 * l["n"]))
        assert l["abs_diff"] <= 1e-3
    assert levels[1]["energy_algebraic"] == pytest.approx(1.41421356, abs=1e-8)


def test_spectrum_is_byte_deterministic(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        grid={"x_min": -11.0, "x_max": 9.0, "n_points": 1001},
        spectrum={"n_max": 3},
    )
    assert run("spectrum", "--config", cfg, "--out", tmp_path / "a") == 0
    assert run("spectrum", "--config", cfg, "--out", tmp_path / "b") == 0
    assert (tmp_path / "a" / "spectrum.json").read_bytes() == (
        tmp_path / "b" / "spectrum.json"
    ).read_bytes()


def test_evolve_csv_is_byte_deterministic(tmp_path):
    T = math.sqrt(2.0) * math.pi
    cfg = evolve_config(tmp_path, dt=T / 200)
    assert run("evolve", "--config", cfg, "--out", tmp_path / "a", "--pde") == 0
    assert run("evolve", "--config", cfg, "--out", tmp_path / "b", "--pde") == 0
    for name in ("density.csv", "density_pde.csv", "evolve_summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_spectrum_broken_susy_exits_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        potential={"kind": "linear", "k": 0.0},
        grid={"x_min": -10.0, "x_max": 10.0, "n_points": 801},
        spectrum={"n_max": 3, "algebraic": True},
    )
    assert run("spectrum", "--config", cfg, "--out", tmp_path / "out") == 3
    assert "broken" in capsys.readouterr().err


SHALLOW_WELL = {
    "potential": {"kind": "poschl_teller", "depth": 2.0, "width": 1.0},
    "physical": {"mass": 0.0, "c": 1.0, "hbar": 1.0},
    "grid": {"x_min": -20.0, "x_max": 20.0, "n_points": 4001},
}


@pytest.mark.parametrize("command", ["spectrum", "verify"])
def test_levels_above_the_bound_ones_exit_3(tmp_path, capsys, command):
    # depth 2 binds n < depth / (c hbar width) = 2; levels 2..4 are continuum
    cfg = write_config(tmp_path / "cfg.json", **SHALLOW_WELL, **{command: {"n_max": 4}})
    capsys.readouterr()
    assert run(command, "--config", cfg, "--out", tmp_path / "out") == 3
    assert capsys.readouterr().err == (
        f"majorana1d: {command}.n_max is 4, but the poschl_teller family binds only "
        f"2 level(s), n = 0..1; set {command}.n_max to at most 1\n"
    )
    assert not (tmp_path / "out").exists()
    cfg = write_config(tmp_path / "cfg.json", **SHALLOW_WELL, **{command: {"n_max": 1}})
    assert run(command, "--config", cfg, "--out", tmp_path / "out") == 0


@pytest.mark.parametrize("depth", [4.95, 5.05])
def test_spectrum_keeps_n_max_4_below_depth_5(tmp_path, depth):
    cfg = write_config(
        tmp_path / "cfg.json",
        **{**POSCHL_TELLER, "potential": {"kind": "poschl_teller", "depth": depth}},
        spectrum={"n_max": 4},
    )
    assert run("spectrum", "--config", cfg, "--out", tmp_path / "out") == 0


def test_spectrum_oracle_only_for_broken_susy(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        potential={"kind": "linear", "k": 0.0},
        grid={"x_min": -10.0, "x_max": 10.0, "n_points": 801},
        spectrum={"n_max": 2, "algebraic": False},
    )
    assert run("spectrum", "--config", cfg, "--out", tmp_path / "out") == 0
    data = json.loads((tmp_path / "out" / "spectrum.json").read_text())
    assert all(l["energy_algebraic"] is None for l in data["levels"])
    assert all(l["energy_oracle"] > 0 for l in data["levels"])


def test_spectrum_poschl_teller(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        potential={"kind": "poschl_teller", "depth": 3.0, "width": 1.0},
        physical={"mass": 0.0, "c": 1.0, "hbar": 1.0},
        grid={"x_min": -20.0, "x_max": 20.0, "n_points": 2001},
        spectrum={"n_max": 2},
    )
    assert run("spectrum", "--config", cfg, "--out", tmp_path / "out") == 0
    data = json.loads((tmp_path / "out" / "spectrum.json").read_text())
    assert data["levels"][1]["energy_algebraic"] == pytest.approx(math.sqrt(5.0))


def test_spectrum_negative_slope_uses_plus_sector(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        potential={"kind": "linear", "k": -1.0},
        grid={"x_min": -11.0, "x_max": 13.0, "n_points": 4001},
        spectrum={"n_max": 5},
    )
    assert run("spectrum", "--config", cfg, "--out", tmp_path / "out") == 0
    data = json.loads((tmp_path / "out" / "spectrum.json").read_text())
    assert data["sector"] == "plus"
    for l in data["levels"]:
        assert l["abs_diff"] <= 1e-3


def test_spectrum_oracle_only_other_kinds(tmp_path):
    for potential in (
        {"kind": "rosen_morse", "a": 2.0, "b": 0.3, "alpha": 1.0},
        {"kind": "scarf", "a": 2.0, "b": 0.5, "alpha": 1.0},
        {"kind": "custom", "expression": "a*tanh(x)", "parameters": {"a": 2.0}},
    ):
        cfg = write_config(
            tmp_path / "cfg.json",
            potential=potential,
            physical={"mass": 0.0, "c": 1.0, "hbar": 1.0},
            grid={"x_min": -15.0, "x_max": 15.0, "n_points": 1001},
            spectrum={"n_max": 1, "algebraic": False},
        )
        assert run("spectrum", "--config", cfg, "--out", tmp_path / "out") == 0


def test_spectrum_mismatch_exits_2_and_still_writes_the_levels(tmp_path, capsys):
    # level 6 is off by about 7e-6 at 8001 points; a tol of 2e-6 stays above
    # |lambda_0|, so the mismatch, not energy_from_lambda's clamp, trips
    cfg = write_config(
        tmp_path / "cfg.json",
        grid={"x_min": -13.0, "x_max": 11.0, "n_points": 8001},
        spectrum={"n_max": 6},
    )
    assert run("spectrum", "--config", cfg, "--out", tmp_path / "out", "--tol", "2e-6") == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"spectrum: algebraic/oracle mismatch \S+ exceeds tol 2\.0e-06\n", err)
    levels = json.loads((tmp_path / "out" / "spectrum.json").read_text())["levels"]
    assert max(level["abs_diff"] for level in levels) > 2e-6


def test_spectrum_failed_shape_invariance_exits_2_without_artifact(tmp_path, capsys):
    # at depth 1e5, roundoff in W² ~ 1e10 spreads V_+(a1) - V_-(a2) past the tolerance
    cfg = write_config(
        tmp_path / "cfg.json",
        potential={"kind": "poschl_teller", "depth": 1e5},
        physical={"mass": 0.0},
        grid={"x_min": -20.0, "x_max": 20.0, "n_points": 2001},
        spectrum={"n_max": 0},
    )
    assert run("spectrum", "--config", cfg, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"spectrum: shape-invariance check failed \(spread \S+\)\n", err)
    assert not (tmp_path / "out").exists()


def test_spectrum_without_a_builtin_family_exits_1(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        potential={"kind": "rosen_morse", "a": 4.0, "b": 1.0},
        physical={"mass": 0.0},
        grid={"x_min": -20.0, "x_max": 20.0, "n_points": 2001},
        spectrum={"n_max": 2},
    )
    assert run("spectrum", "--config", cfg, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "no built-in shape-invariant family for potential kind 'rosen_morse'" in err
    assert "set spectrum.algebraic to false" in err
    assert not (tmp_path / "out").exists()


LINEAR_POS = {"potential": {"kind": "linear", "k": 1.0}}
LINEAR_NEG = {
    "potential": {"kind": "linear", "k": -1.0},
    "grid": {"x_min": -11.0, "x_max": 13.0, "n_points": 2001},
}
POSCHL_TELLER = {
    "potential": {"kind": "poschl_teller", "depth": 3.0, "width": 1.0},
    "physical": {"mass": 0.0, "c": 1.0, "hbar": 1.0},
    "grid": {"x_min": -20.0, "x_max": 20.0, "n_points": 8001},
}
FAMILIES = [LINEAR_POS, LINEAR_NEG, POSCHL_TELLER]
FAMILY_IDS = ["linear", "linear_negative", "poschl_teller"]


@pytest.mark.parametrize("overrides", FAMILIES, ids=FAMILY_IDS)
def test_spectrum_levels_are_the_library_comparison(tmp_path, overrides):
    cfg = write_config(tmp_path / "cfg.json", spectrum={"n_max": 2}, **overrides)
    assert run("spectrum", "--config", cfg, "--out", tmp_path / "out") == 0
    data = json.loads((tmp_path / "out" / "spectrum.json").read_text())
    loaded = cli.load_config(str(cfg))
    comparison = invariants.compare_spectra(loaded.params, loaded.potential, loaded.grid, 2)
    assert data["levels"] == comparison.levels(loaded.tol)
    assert data["sector"] == comparison.sector.value
    assert data["shape_invariance"]["r_declared"] == comparison.invariance.r_declared


def test_malformed_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"potential": ')
    assert run("spectrum", "--config", bad, "--out", tmp_path / "out") == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path):
    assert run("spectrum", "--config", tmp_path / "nope.json") == 1


def test_bad_expression_exits_1(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        potential={"kind": "custom", "expression": "2*(x"},
        spectrum={"n_max": 2},
    )
    assert run("spectrum", "--config", cfg, "--out", tmp_path / "out") == 1
    assert "config error" in capsys.readouterr().err


def test_unknown_flag_exits_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("spectrum", "--nonsense")
    assert exc.value.code == 1


MALFORMED_VALUES = [
    ("tol", "classify", {"tol": "abc"}),
    ("evolve.n", "evolve", {"evolve": {"n": "one"}}),
    ("evolve.stride", "evolve", {"evolve": {"n": 1, "stride": "abc"}}),
    ("evolve.periods", "evolve", {"evolve": {"n": 1, "periods": "nan"}}),
    # checked also where a set t_final wins over it
    (
        "evolve.periods must be a number, got 'abc'",
        "evolve",
        {"evolve": {"n": 1, "t_final": 1.0, "periods": "abc"}},
    ),
    ("evolve.t_final", "evolve", {"evolve": {"n": 1, "t_final": "abc"}}),
    ("spectrum.n_max", "spectrum", {"spectrum": {"n_max": "x"}}),
    ("verify.n_max", "verify", {"verify": {"n_max": -1}}),
    ("audit_tol", "audit", {"audit_tol": "abc"}),
    ("potential.k", "spectrum", {"potential": {"kind": "linear", "k": "nan"}}),
    # json.dumps writes inf as Infinity, which parses like the literal 1e400
    ("potential.depth", "spectrum", {"potential": {"kind": "poschl_teller", "depth": math.inf}}),
    (
        "potential.parameters.a",
        "classify",
        {"potential": {"kind": "custom", "expression": "a*x", "parameters": {"a": "nan"}}},
    ),
    ("physical.mass", "spectrum", {"physical": {"mass": "nan"}}),
    # int() and float() take a JSON true as 1
    (
        "potential.k must be a number, got True",
        "spectrum",
        {"potential": {"kind": "linear", "k": True}},
    ),
    ("spectrum.n_max must be an integer, got True", "spectrum", {"spectrum": {"n_max": True}}),
    # a span x_max - x_min that overflows gives no finite spacing
    (
        "bad grid: need a finite spacing",
        "classify",
        {"grid": {"x_min": -1e308, "x_max": 1e308, "n_points": 11}},
    ),
    ("physical", "classify", {"physical": [1.0]}),
    # the expression reads x and sin as the coordinate and the function,
    # never as these parameters, so naming one is a config error
    (
        "potential.parameters.x",
        "classify",
        {"potential": {"kind": "custom", "expression": "x", "parameters": {"x": 5.0, "sin": 2.0}}},
    ),
    (
        "potential.parameters.sin",
        "classify",
        {"potential": {"kind": "custom", "expression": "2*x", "parameters": {"sin": 2.0}}},
    ),
    (
        "audit.f3.parameters.sin",
        "audit",
        {"audit": {"f3": {"kind": "custom", "expression": "0*x", "parameters": {"sin": 2.0}}}},
    ),
    ("verify", "verify", {"verify": ["n_max", 3]}),
    ("audit", "audit", {"audit": ["f3", {"kind": "custom", "expression": "0.1*sin(x)"}]}),
    # a bound check's message names the key and the bound
    ("audit_tol must be non-negative", "audit", {"audit_tol": -1}),
    (
        "verify.ladder_levels must be positive",
        "verify",
        {"verify": {"n_max": 1, "ladder_levels": -3}},
    ),
    ("evolve.periods must be positive", "evolve", {"evolve": {"n": 1, "periods": 0}}),
    # a finite number of periods whose length overflows
    ("evolve.t_final must be finite", "evolve", {"evolve": {"n": 1, "periods": 1e308}}),
    # a step count t_final / dt that overflows
    (
        "evolve.t_final / evolve.dt must give a finite step count",
        "evolve",
        {"evolve": {"n": 1, "t_final": 1e300, "dt": 1e-300}},
    ),
    # 1e20 steps at stride 50 sample more frames than MAX_FRAMES; the
    # bound holds before any list of them is built
    (
        "evolve.t_final / evolve.dt / evolve.stride sample more than MAX_FRAMES",
        "evolve",
        {"evolve": {"n": 1, "t_final": 1e10, "dt": 1e-10}},
    ),
    # a solve for more levels than the grid has interior points, or on a
    # grid too small to discretize, is a config error
    (
        "spectrum.n_max must be at most",
        "spectrum",
        {"grid": {"x_min": -11.0, "x_max": 9.0, "n_points": 11}, "spectrum": {"n_max": 20}},
    ),
    (
        "verify.n_max must be at most",
        "verify",
        {
            "grid": {"x_min": -11.0, "x_max": 9.0, "n_points": 11},
            "verify": {"n_max": 20, "pde": False},
        },
    ),
    (
        "grid.n_points must be at least 5",
        "spectrum",
        {"grid": {"x_min": -11.0, "x_max": 9.0, "n_points": 4}, "spectrum": {"n_max": 0}},
    ),
    (
        "grid.n_points",
        "verify",
        {
            "grid": {"x_min": -11.0, "x_max": 9.0, "n_points": 4},
            "verify": {"n_max": 0, "pde": False},
        },
    ),
    # an integer too large for a float would overflow where it meets one
    ("evolve.n must fit in a float", "evolve", {"evolve": {"n": 10**400}}),
    (
        "grid.n_points must fit in a float",
        "classify",
        {"grid": {"x_min": -11.0, "x_max": 9.0, "n_points": 10**400}},
    ),
    # a configured potential that is not finite on the grid is bad config
    (
        "potential must be finite on the grid",
        "classify",
        {
            "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 201},
            "potential": {"kind": "custom", "expression": "1/x"},
        },
    ),
    (
        "audit.f3 must be finite on the grid",
        "audit",
        {
            "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 201},
            "audit": {"f3": {"kind": "custom", "expression": "1/x"}},
        },
    ),
    # a parameter name the tokenizer cannot read as one identifier
    (
        "potential.parameters.a b",
        "classify",
        {"potential": {"kind": "custom", "expression": "2*x", "parameters": {"a b": 1.0}}},
    ),
    (
        "potential.parameters.2c",
        "classify",
        {"potential": {"kind": "custom", "expression": "2*x", "parameters": {"2c": 3.0}}},
    ),
    # a section, key or object the config leaves out or gives the wrong shape
    ("config needs a 'spectrum' object with 'n_max'", "spectrum", {}),
    ("config needs an 'evolve' object with 'n'", "evolve", {}),
    ("missing 'n_max' in spectrum", "spectrum", {"spectrum": {"algebraic": False}}),
    ("missing 'n' in evolve", "evolve", {"evolve": {"stride": 5}}),
    ("missing 'n_points' in grid", "classify", {"grid": {"x_min": -11.0, "x_max": 9.0}}),
    ("missing 'k' in potential", "classify", {"potential": {"kind": "linear"}}),
    ("missing 'kind' in potential", "classify", {"potential": {"k": 1.0}}),
    ("unknown potential kind 'harmonic'", "classify", {"potential": {"kind": "harmonic"}}),
    ("'potential' must be an object with a 'kind'", "classify", {"potential": "linear"}),
    (
        "potential.parameters must be an object",
        "classify",
        {"potential": {"kind": "custom", "expression": "a*x", "parameters": ["a", 1.0]}},
    ),
]


@pytest.mark.parametrize(
    "key, command, overrides", MALFORMED_VALUES, ids=[case[0] for case in MALFORMED_VALUES]
)
def test_malformed_config_value_exits_1(tmp_path, capsys, key, command, overrides):
    cfg = write_config(
        tmp_path / "cfg.json",
        **{"grid": {"x_min": -11.0, "x_max": 9.0, "n_points": 101}, **overrides},
    )
    assert run(command, "--config", cfg, "--out", tmp_path / "out") == 1
    assert key in capsys.readouterr().err


def test_integer_past_the_digit_limit_exits_1(tmp_path, capsys):
    # json.loads refuses an integer of more than 4300 digits with a plain
    # ValueError where Python limits int() digits; elsewhere _convert does
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"potential": {"kind": "linear", "k": 1.0}, '
        '"grid": {"x_min": -11.0, "x_max": 9.0, "n_points": 1' + "0" * 5000 + "}}"
    )
    assert run("classify", "--config", cfg, "--out", tmp_path / "out") == 1
    assert "config error" in capsys.readouterr().err


ROOT_ERRORS = [
    ('{"grid": {"x_min": -11.0, "x_max": 9.0, "n_points": 101}}', "missing 'potential' in config"),
    ('{"potential": {"kind": "linear", "k": 1.0}}', "missing 'grid' in config"),
    ('[{"kind": "linear", "k": 1.0}]', "config root must be a JSON object"),
]


@pytest.mark.parametrize("text, message", ROOT_ERRORS, ids=[case[1] for case in ROOT_ERRORS])
def test_config_root_of_the_wrong_shape_exits_1(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run("classify", "--config", cfg, "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err == f"majorana1d: config error: {message}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "abc", "0"])
@pytest.mark.parametrize("command", ["spectrum", "audit"])
def test_bad_tol_flag_exits_1(tmp_path, capsys, command, value):
    cfg = write_config(
        tmp_path / "cfg.json",
        grid={"x_min": -11.0, "x_max": 9.0, "n_points": 101},
        spectrum={"n_max": 1},
    )
    assert run(command, "--config", cfg, "--out", tmp_path / "out", "--tol", value) == 1
    assert "--tol" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


NON_INTEGRAL_VALUES = [
    ("grid.n_points", "classify", {"grid": {"x_min": -11.0, "x_max": 9.0, "n_points": 101.9}}),
    (
        "evolve.n",
        "evolve",
        {"grid": {"x_min": -11.0, "x_max": 9.0, "n_points": 101}, "evolve": {"n": 1.5}},
    ),
]


@pytest.mark.parametrize(
    "key, command, overrides",
    NON_INTEGRAL_VALUES,
    ids=[case[0] for case in NON_INTEGRAL_VALUES],
)
def test_non_integral_integer_exits_1(tmp_path, capsys, key, command, overrides):
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert run(command, "--config", cfg, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert key in err
    assert "integer" in err


NON_BOOLEAN_FLAGS = [
    (
        "spectrum.algebraic",
        "spectrum",
        {
            "potential": {"kind": "rosen_morse", "a": 2.0, "b": 0.3},
            "physical": {"mass": 0.0},
            "spectrum": {"n_max": 1, "algebraic": "false"},
        },
    ),
    ("spectrum.algebraic", "spectrum", {"spectrum": {"n_max": 1, "algebraic": 0}}),
    ("verify.pde", "verify", {"verify": {"n_max": 1, "pde": "no"}}),
]


@pytest.mark.parametrize(
    "key, command, overrides",
    NON_BOOLEAN_FLAGS,
    ids=["spectrum.algebraic-string", "spectrum.algebraic-int", "verify.pde-string"],
)
def test_non_boolean_flag_exits_1(tmp_path, capsys, key, command, overrides):
    cfg = write_config(
        tmp_path / "cfg.json",
        grid={"x_min": -11.0, "x_max": 9.0, "n_points": 401},
        **overrides,
    )
    assert run(command, "--config", cfg, "--out", tmp_path / "out") == 1
    assert f"{key} must be true or false" in capsys.readouterr().err


def test_integral_float_is_accepted_as_integer(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json", grid={"x_min": -11.0, "x_max": 9.0, "n_points": 101.0}
    )
    assert run("classify", "--config", cfg, "--out", tmp_path / "out") == 0
    n_points = json.loads((tmp_path / "out" / "classify.json").read_text())["grid"]["n_points"]
    assert n_points == 101 and isinstance(n_points, int)


# ------------------------------------------------------------------ evolve


def evolve_config(tmp_path, **evolve):
    # 1001-point grid with a sample exactly at y = 0 (x = -1)
    section = {"n": 1, "dt": None, "stride": 20}
    section.update(evolve)
    section = {k: v for k, v in section.items() if v is not None}
    return write_config(
        tmp_path / "cfg.json",
        grid={"x_min": -11.0, "x_max": 9.0, "n_points": 1001},
        evolve=section,
    )


def reference_density_csv(grid, rows):
    """The per-row formatter the streaming writer must match byte for byte."""
    lines = ["t,x,rho\n"]
    for t, rho in rows:
        for x, r in zip(grid.points(), rho):
            lines.append(f"{float(t)!r},{float(x)!r},{float(r)!r}\n")
    return "".join(lines).encode("utf-8")


EDGE_VALUES = [0.0, -0.0, 5e-324, 1e-05, 1.2345e-17, 1e16, 123456789.125, math.inf, math.nan]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n_frames", [0, 1, 4])
def test_density_csv_matches_per_row_reference(tmp_path, dtype, n_frames):
    grid = GridSpec(-1.3, 1.1, len(EDGE_VALUES))
    values = np.array(EDGE_VALUES, dtype=dtype)
    rows = [(k / 3.0, np.roll(values, k)) for k in range(n_frames)]
    path = tmp_path / "density.csv"
    write_density_csv(path, grid, iter(rows))
    assert path.read_bytes() == reference_density_csv(grid, rows)


def test_density_csv_interrupted_write_keeps_target(tmp_path):
    grid = GridSpec(-1.0, 1.0, 5)
    target = tmp_path / "density.csv"
    target.write_bytes(b"previous run\n")

    def rows():
        yield 0.0, np.ones(5)
        raise RuntimeError("frame 1 failed")

    with pytest.raises(RuntimeError, match="frame 1 failed"):
        write_density_csv(target, grid, rows())
    assert target.read_bytes() == b"previous run\n"
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize(
    "shape", [(3,), (6,), (2, 4), (5, 1), ()], ids=["short", "long", "2x4", "5x1", "scalar"]
)
def test_density_csv_rejects_a_frame_off_the_grid(tmp_path, shape):
    grid = GridSpec(-1.0, 1.0, 5)
    target = tmp_path / "density.csv"
    target.write_bytes(b"previous run\n")
    rows = [(0.0, np.ones(5)), (0.5, np.ones(shape))]
    with pytest.raises(ValueError, match=rf"frame 1 has shape {re.escape(str(shape))}"):
        write_density_csv(target, grid, iter(rows))
    assert target.read_bytes() == b"previous run\n"
    assert list(tmp_path.glob("*.tmp")) == []


def test_density_csv_matches_per_row_reference_across_blocks(tmp_path):
    # frames longer than one formatting block, with values of every kind
    n_points = 2 * _floatrepr.BLOCK + 5
    grid = GridSpec(-13.0, 11.0, n_points)
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2**64, (2, n_points), dtype=np.uint64)
    rows = [(0.0, bits[0].view(np.float64)), (0.1 + 0.2, bits[1].view(np.float64))]
    path = tmp_path / "density.csv"
    write_density_csv(path, grid, iter(rows))
    assert path.read_bytes() == reference_density_csv(grid, rows)


def read_density(path):
    rows = {}
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,rho"
    for line in lines[1:]:
        t, x, rho = (float(part) for part in line.split(","))
        rows.setdefault(t, []).append((x, rho))
    return rows


def test_evolve_first_excited_density_csv(tmp_path):
    T = math.sqrt(2.0) * math.pi
    cfg = evolve_config(tmp_path, dt=T / 200)
    assert run("evolve", "--config", cfg, "--out", tmp_path / "out") == 0
    rows = read_density(tmp_path / "out" / "density.csv")
    t0 = rows[0.0]
    assert all(x1 < x2 for (x1, _), (x2, _) in zip(t0, t0[1:]))
    # x = -1 maps to y = 0 where H_1 vanishes
    _, rho_at_origin = min(t0, key=lambda pair: abs(pair[0] + 1.0))
    assert rho_at_origin == pytest.approx(0.0, abs=1e-20)


def test_evolve_ground_state_rows_identical(tmp_path, capsys):
    cfg = evolve_config(tmp_path, n=0, t_final=2.0, dt=0.01)
    assert run("evolve", "--config", cfg, "--out", tmp_path / "out") == 0
    rows = read_density(tmp_path / "out" / "density.csv")
    baseline = [rho for _, rho in sorted(rows[0.0])]
    for t, entries in rows.items():
        assert [rho for _, rho in sorted(entries)] == baseline


def test_evolve_ground_state_period_request_warns(tmp_path, capsys):
    cfg = evolve_config(tmp_path, n=0, periods=1.0, dt=0.01)
    assert run("evolve", "--config", cfg, "--out", tmp_path / "out") == 0
    assert capsys.readouterr().err == (
        "evolve: the ground state is stationary and has no period; "
        f"falling back to t_final={evolution.GROUND_STATE_T_FINAL}\n"
    )
    summary = json.loads((tmp_path / "out" / "evolve_summary.json").read_text())
    assert summary["t_final"] == pytest.approx(5.0)


def test_evolve_second_excited_has_two_density_wells(tmp_path):
    T = math.pi
    cfg = evolve_config(tmp_path, n=2, dt=T / 200)
    assert run("evolve", "--config", cfg, "--out", tmp_path / "out") == 0
    rows = read_density(tmp_path / "out" / "density.csv")
    rho = np.array([r for _, r in sorted(rows[0.0])])
    deep = [
        i
        for i in range(1, len(rho) - 1)
        if rho[i] < rho[i - 1] and rho[i] <= rho[i + 1] and rho[i] < 0.01 * rho.max()
    ]
    assert len(deep) == 2


def test_evolve_with_pde_comparison(tmp_path):
    cfg = evolve_config(tmp_path)  # default dt = period/2000
    assert run("evolve", "--config", cfg, "--out", tmp_path / "out", "--pde") == 0
    summary = json.loads((tmp_path / "out" / "evolve_summary.json").read_text())
    assert summary["max_component_error"] <= 1e-3
    assert summary["norm_drift"] <= 1e-6
    pde_rows = read_density(tmp_path / "out" / "density_pde.csv")
    assert len(pde_rows) == len(read_density(tmp_path / "out" / "density.csv"))


@pytest.mark.skipif(sys.platform != "linux", reason="the worker process is forked on Linux only")
def test_evolve_pde_worker_matches_in_process(tmp_path, monkeypatch, two_cpus):
    written = []

    def recording(path, grid, rows):
        written.append(path.name)
        write_density_csv(path, grid, rows)

    monkeypatch.setattr(cli, "write_density_csv", recording)
    cfg = evolve_config(tmp_path, dt=math.sqrt(2.0) * math.pi / 200)
    assert run("evolve", "--config", cfg, "--out", tmp_path / "worker", "--pde") == 0
    assert written == ["density_pde.csv"]  # density.csv came from the worker

    written.clear()
    monkeypatch.setattr(sys, "platform", "win32")
    assert run("evolve", "--config", cfg, "--out", tmp_path / "in_process", "--pde") == 0
    assert written == ["density_pde.csv", "density.csv"]  # joined after the PDE, as forked
    for name in ("density.csv", "density_pde.csv", "evolve_summary.json"):
        assert (tmp_path / "worker" / name).read_bytes() == (
            tmp_path / "in_process" / name
        ).read_bytes()


@pytest.mark.parametrize("platform", [sys.platform, "win32"], ids=["native", "in_process"])
def test_evolve_density_csv_error_wins_and_keeps_target(tmp_path, monkeypatch, two_cpus, platform):
    out = tmp_path / "out"
    out.mkdir()
    target = out / "density.csv"
    target.write_bytes(b"previous run\n")

    def failing(path, grid, rows):
        if path.name == "density.csv":
            first = next(rows)

            def broken():
                yield first
                raise OSError(errno.ENOSPC, "disk full")

            rows = broken()
        write_density_csv(path, grid, rows)

    called = []

    def diverging(*args, **kwargs):
        called.append(True)
        raise DivergenceError("PDE failed too")

    monkeypatch.setattr(cli, "write_density_csv", failing)
    monkeypatch.setattr(evolution.PdeRun, "_integrate", diverging)
    monkeypatch.setattr(sys, "platform", platform)
    cfg = evolve_config(tmp_path, dt=math.sqrt(2.0) * math.pi / 200)
    with pytest.raises(OSError, match="disk full"):
        run("evolve", "--config", cfg, "--out", out, "--pde")
    assert target.read_bytes() == b"previous run\n"
    assert list(out.glob("*.tmp")) == []
    assert not (out / "evolve_summary.json").exists()
    # density.csv is joined after the integration on either path
    assert called == [True]
    assert_no_child_left()


@pytest.mark.parametrize("platform", [sys.platform, "win32"], ids=["native", "in_process"])
def test_evolve_pde_failure_mid_stream_keeps_target(
    tmp_path, monkeypatch, capsys, two_cpus, platform
):
    cfg = evolve_config(tmp_path, dt=math.sqrt(2.0) * math.pi / 200)
    assert run("evolve", "--config", cfg, "--out", tmp_path / "reference") == 0
    out = tmp_path / "out"
    out.mkdir()
    target = out / "density_pde.csv"
    target.write_bytes(b"previous run\n")
    yielded = []

    def diverging(run, initial, p, phi, dt, steps):
        for step in steps[:2]:
            yielded.append(step)
            yield step * dt, np.zeros(initial.spec.n_points)
        raise DivergenceError("norm drift after two frames")

    monkeypatch.setattr(evolution.PdeRun, "_integrate", diverging)
    monkeypatch.setattr(sys, "platform", platform)
    capsys.readouterr()
    assert run("evolve", "--config", cfg, "--out", out, "--pde") == 2
    assert "norm drift after two frames" in capsys.readouterr().err
    assert yielded == [0, 20]
    assert target.read_bytes() == b"previous run\n"
    assert list(out.glob("*.tmp")) == []
    assert not (out / "evolve_summary.json").exists()
    assert (out / "density.csv").read_bytes() == (
        tmp_path / "reference" / "density.csv"
    ).read_bytes()
    # the density.csv child was joined, not left behind
    assert_no_child_left()


def test_evolve_pde_memory_does_not_grow_with_frames(tmp_path, monkeypatch):
    # no child, so tracemalloc sees both CSVs; 401 frames of 401 points
    # held at once would be 401 * 401 * 8 B = 1.29 MB
    monkeypatch.setattr(_fork, "can_fork", lambda: False)

    def peak(stride):
        cfg = write_config(
            tmp_path / f"cfg{stride}.json",
            grid={"x_min": -11.0, "x_max": 9.0, "n_points": 401},
            evolve={"n": 1, "t_final": 1.0, "dt": 1.0 / 400, "stride": stride},
        )
        tracemalloc.start()
        try:
            assert run("evolve", "--config", cfg, "--out", tmp_path / f"out{stride}", "--pde") == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(400)  # first-use imports and caches
    few, every = peak(400), peak(1)
    assert len(read_density(tmp_path / "out1" / "density_pde.csv")) == 401
    assert every - few < 0.25e6


def test_evolve_requires_linear_potential(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        potential={"kind": "custom", "expression": "x^2"},
        grid={"x_min": -10.0, "x_max": 10.0, "n_points": 801},
        evolve={"n": 1},
    )
    assert run("evolve", "--config", cfg, "--out", tmp_path / "out") == 1


OUTSIDE = {"x_min": 100.0, "x_max": 110.0, "n_points": 201}
SLIVER = {"x_min": 2.0, "x_max": 12.0, "n_points": 201}
COARSE = {"x_min": -11.0, "x_max": 9.0, "n_points": 11}


@pytest.mark.parametrize(
    "grid, n, flags",
    [
        (OUTSIDE, 1, []),
        (OUTSIDE, 1, ["--pde"]),
        (SLIVER, 1, []),
        (SLIVER, 1, ["--pde"]),
        (COARSE, 0, []),
        (COARSE, 1, []),
        (OUTSIDE, 1, ["--tol", "5"]),
        (SLIVER, 1, ["--tol", "1"]),
        (SLIVER, 1, ["--tol", "1", "--pde"]),
    ],
    ids=["closed_form", "pde", "sliver_closed_form", "sliver_pde", "coarse_n0", "coarse_n1",
         "zero_norm_at_large_tol", "sliver_loose_tol_closed_form", "sliver_loose_tol_pde"],
)
def test_evolve_state_outside_grid_exits_1(tmp_path, capsys, grid, n, flags):
    # the level-1 state sits at x = -1: its trapezoid norm is 0 on OUTSIDE
    # and 2.2e-4 on SLIVER; on COARSE it is 1.17 (n = 0) or 0.33 (n = 1).
    # The grid rule is NORM_DRIFT_TOL, so a loose --tol does not relax it
    cfg = write_config(tmp_path / "cfg.json", grid=grid, evolve={"n": n})
    assert run("evolve", "--config", cfg, "--out", tmp_path / "out", *flags) == 1
    err = capsys.readouterr().err
    assert "grid" in err
    assert "norm" in err
    assert "outside [x_min, x_max]" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [[], ["--pde"]], ids=["closed_form", "pde"])
def test_evolve_level_beyond_the_grid_exits_1_at_once(tmp_path, capsys, flags):
    # the closed form of level 1e9 costs 1e9 grid passes; its turning points
    # x = -1 ± 44721 lie far off the grid, which refuses it first
    cfg = write_config(
        tmp_path / "cfg.json",
        grid={"x_min": -13.0, "x_max": 11.0, "n_points": 401},
        evolve={"n": 10**9},
    )
    start = time.perf_counter()
    assert run("evolve", "--config", cfg, "--out", tmp_path / "out", *flags) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "grid: the level-1000000000 state" in err
    assert "turning points" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [[], ["--pde"]], ids=["closed_form", "pde"])
def test_evolve_non_finite_state_norm_exits_1(tmp_path, capsys, flags):
    # linear.hermite overflows for the level-200 state on this grid, so its
    # norm is NaN; it must not pass the norm check, nor warn
    cfg = write_config(
        tmp_path / "cfg.json",
        potential={"kind": "linear", "k": 10.0},
        grid={"x_min": -13.0, "x_max": 11.0, "n_points": 401},
        evolve={"n": 200, "periods": 0.01, "stride": 1000},
    )
    assert run("evolve", "--config", cfg, "--out", tmp_path / "out", *flags) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("majorana1d: config error: grid: the level-200 state has norm nan")
    assert "not finite" in err[0]
    assert not (tmp_path / "out").exists()


def test_evolve_pde_mismatch_exits_2_and_writes_every_artifact(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        grid={"x_min": -13.0, "x_max": 11.0, "n_points": 801},
        evolve={"n": 1, "stride": 500},
    )
    argv = ["--config", cfg, "--out", tmp_path / "out", "--pde", "--tol", "1e-12"]
    assert run("evolve", *argv) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"evolve: PDE/analytic mismatch \S+ exceeds tol 1\.0e-12\n", err)
    assert sorted(os.listdir(tmp_path / "out")) == [
        "density.csv", "density_pde.csv", "evolve_summary.json"
    ]
    summary = json.loads((tmp_path / "out" / "evolve_summary.json").read_text())
    assert summary["max_component_error"] > 1e-12


def test_evolve_pde_shares_the_closed_form_frame_times(tmp_path):
    # a stride of 7 does not divide the 2000 steps of one period
    cfg = evolve_config(tmp_path, stride=7)
    assert run("evolve", "--config", cfg, "--out", tmp_path / "out", "--pde") == 0
    closed = read_density(tmp_path / "out" / "density.csv")
    pde = read_density(tmp_path / "out" / "density_pde.csv")
    assert list(pde) == list(closed)
    summary = json.loads((tmp_path / "out" / "evolve_summary.json").read_text())
    frames = evolution.frame_steps(summary["steps"], 7)
    assert len(closed) == len(frames)
    # θ = 2π/2000 per step gives long jumps of 105 steps, two solves each
    # (one real, one complex), and short jumps of 15, three solves each. A
    # frame takes short jumps from the last long jump, carried on to the
    # next frame until the long jumps pass them, and a frame off a multiple
    # of 15 adds a side jump of three solves
    q_long, q_short = summary["pde_jump_steps"]
    assert (q_long, q_short) == (105, 15)
    last = {step // q_long: step for step in frames}
    short = sum(step % q_long // q_short for step in last.values())
    side = sum(1 for step in frames if step % q_short)
    assert summary["pde_solves"] == 2 * (summary["steps"] // q_long) + 3 * (short + side)


# ------------------------------------------------------------------- audit


def test_audit_scalar_only_passes(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json", grid={"x_min": -10.0, "x_max": 10.0, "n_points": 401}
    )
    assert run("audit", "--config", cfg, "--out", tmp_path / "out") == 0
    data = json.loads((tmp_path / "out" / "audit.json").read_text())
    assert data["compatible"] is True
    assert data["offending"] == []


def test_audit_flags_forbidden_channels(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        grid={"x_min": -10.0, "x_max": 10.0, "n_points": 401},
        audit={"f3": {"kind": "custom", "expression": "x^2"}},
    )
    assert run("audit", "--config", cfg, "--out", tmp_path / "out") == 3
    data = json.loads((tmp_path / "out" / "audit.json").read_text())
    assert data["compatible"] is False
    assert [o["coupling"] for o in data["offending"]] == ["f3"]
    assert data["offending"][0]["max_abs"] == pytest.approx(100.0)


# ---------------------------------------------------------------- classify


def test_classify_positive_slope(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json", grid={"x_min": -11.0, "x_max": 9.0, "n_points": 1001}
    )
    assert run("classify", "--config", cfg, "--out", tmp_path / "out") == 0
    data = json.loads((tmp_path / "out" / "classify.json").read_text())
    assert data["status"] == "unbroken"
    assert data["sector"] == "minus"


def test_classify_negative_slope(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        potential={"kind": "linear", "k": -1.0},
        grid={"x_min": -9.0, "x_max": 11.0, "n_points": 1001},
    )
    assert run("classify", "--config", cfg, "--out", tmp_path / "out") == 0
    assert json.loads((tmp_path / "out" / "classify.json").read_text())["sector"] == "plus"


def test_classify_free_massive_broken(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        potential={"kind": "linear", "k": 0.0},
        grid={"x_min": -10.0, "x_max": 10.0, "n_points": 801},
    )
    assert run("classify", "--config", cfg, "--out", tmp_path / "out") == 0
    data = json.loads((tmp_path / "out" / "classify.json").read_text())
    assert data["status"] == "broken"
    assert data["sector"] is None


# ------------------------------------------------------------------ verify


def test_verify_default_linear_passes(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    assert run("verify", "--config", cfg, "--out", tmp_path / "out") == 0
    data = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert data["passed"] is True
    names = {c["name"] for c in data["checks"]}
    assert {"coupling_reality_audit", "zero_mode_annihilation",
            "shape_invariance_remainder", "algebraic_vs_oracle_energy_sq",
            "partner_isospectrality", "ladder_mapping_residual",
            "pde_one_period_return", "pde_norm_drift"} <= names
    assert all(c["passed"] for c in data["checks"])
    # the PDE checks close the list, at evolution.PDE_RETURN_TOL and NORM_DRIFT_TOL
    assert [(c["name"], c["tol"]) for c in data["checks"][-2:]] == [
        ("pde_one_period_return", 1e-3),
        ("pde_norm_drift", 1e-6),
    ]


@pytest.mark.parametrize("overrides", FAMILIES, ids=FAMILY_IDS)
def test_verify_writes_the_library_check_list(tmp_path, overrides):
    cfg = write_config(tmp_path / "cfg.json", verify={"n_max": 2, "pde": False}, **overrides)
    assert run("verify", "--config", cfg, "--out", tmp_path / "out") == 0
    written = json.loads((tmp_path / "out" / "verify.json").read_text())["checks"]
    loaded = cli.load_config(str(cfg))
    checks = invariants.verify_checks(
        loaded.params,
        loaded.potential,
        loaded.grid,
        cli._audit_couplings(loaded),
        DEFAULT_AUDIT_TOL,
        loaded.tol,
        2,
        5,
        False,
    )
    assert checks == written
    names = [check["name"] for check in written]
    expected = ["coupling_reality_audit", "unbroken_susy", "zero_mode_annihilation",
                "shape_invariance_spread", "shape_invariance_remainder",
                "algebraic_vs_oracle_energy_sq", "partner_isospectrality"]
    if overrides is not POSCHL_TELLER:  # the closed forms of either slope
        expected += ["zero_mode_matches_gaussian", "ladder_mapping_residual"]
    assert names == expected
    tols = {check["name"]: check["tol"] for check in written}
    assert tols["coupling_reality_audit"] == 1e-9
    assert tols["unbroken_susy"] == 0.5
    assert tols["zero_mode_annihilation"] == 1e-4
    assert tols["shape_invariance_spread"] == 1e-8
    assert tols["shape_invariance_remainder"] == 1e-10
    assert tols["algebraic_vs_oracle_energy_sq"] == 1e-3
    assert tols["partner_isospectrality"] == 5e-3
    if overrides is not POSCHL_TELLER:
        assert tols["zero_mode_matches_gaussian"] == 1e-6
        assert tols["ladder_mapping_residual"] == 1e-3


def test_verify_negative_slope_checks_the_mirrored_closed_forms(tmp_path):
    # k < 0 hosts the zero mode in the plus sector: it is the Gaussian of
    # w = |k|/(cħ), and A† maps each host level onto its partner
    cfg = write_config(
        tmp_path / "cfg.json",
        potential={"kind": "linear", "k": -1.0},
        grid={"x_min": -11.0, "x_max": 13.0, "n_points": 4001},
        verify={"n_max": 6, "pde": False},
    )
    assert run("verify", "--config", cfg, "--out", tmp_path / "out") == 0
    written = json.loads((tmp_path / "out" / "verify.json").read_text())["checks"]
    checks = {c["name"]: c for c in written}
    assert checks["zero_mode_matches_gaussian"]["passed"]
    assert checks["zero_mode_matches_gaussian"]["residual"] <= 1e-12
    assert checks["ladder_mapping_residual"]["passed"]
    assert checks["ladder_mapping_residual"]["residual"] <= 2e-4


def test_verify_reads_audit_tol_as_audit_does(tmp_path, capsys):
    # a pseudoscalar below audit_tol passes both commands
    cfg = write_config(
        tmp_path / "cfg.json",
        audit_tol=1e-6,
        audit={"f3": {"kind": "custom", "expression": "1e-7*sin(x)"}},
        verify={"pde": False},
    )
    assert run("audit", "--config", cfg, "--out", tmp_path / "out") == 0
    assert run("verify", "--config", cfg, "--out", tmp_path / "out") == 0
    checks = json.loads((tmp_path / "out" / "verify.json").read_text())["checks"]
    audit = next(c for c in checks if c["name"] == "coupling_reality_audit")
    assert audit["tol"] == 1e-6 and audit["passed"] is True
    assert audit["residual"] == pytest.approx(1e-7, rel=1e-3)
    # a bad audit_tol is refused by verify as by audit
    bad = write_config(tmp_path / "bad.json", audit_tol=-1.0, verify={"pde": False})
    capsys.readouterr()
    assert run("verify", "--config", bad, "--out", tmp_path / "out") == 1
    assert "audit_tol must be non-negative" in capsys.readouterr().err


def test_verify_isospectrality_compares_a_level_at_n_max_0(tmp_path):
    # partner level 0 pairs with host level 1, so n_max = 0 and 1 compare the same level
    def isospectrality(n_max):
        cfg = write_config(
            tmp_path / "cfg.json",
            grid={"x_min": -11.0, "x_max": 9.0, "n_points": 2001},
            verify={"n_max": n_max, "pde": False},
        )
        assert run("verify", "--config", cfg, "--out", tmp_path / f"out{n_max}") == 0
        checks = json.loads((tmp_path / f"out{n_max}" / "verify.json").read_text())["checks"]
        return next(c for c in checks if c["name"] == "partner_isospectrality")

    check = isospectrality(0)
    assert check["residual"] > 0.0
    assert check["residual"] == isospectrality(1)["residual"]


def test_verify_coarse_grid_flags_residuals(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        grid={"x_min": -11.0, "x_max": 9.0, "n_points": 101},
        verify={"n_max": 3, "pde": False},
    )
    assert run("verify", "--config", cfg, "--out", tmp_path / "out") == 2
    data = json.loads((tmp_path / "out" / "verify.json").read_text())
    flagged = [c for c in data["checks"] if not c["passed"]]
    assert flagged
    for check in flagged:
        assert check["residual"] > check["tol"]


@pytest.mark.parametrize(
    "overrides, ladder_levels",
    [
        ({}, 60),
        ({"potential": {"kind": "linear", "k": -1.0},
          "grid": {"x_min": -11.0, "x_max": 13.0, "n_points": 4001}}, 60),
        ({"grid": {"x_min": -13.0, "x_max": 11.0, "n_points": 401}}, 400),
    ],
    ids=["readme", "negative_slope", "coarse"],
)
def test_verify_refuses_ladder_levels_the_grid_does_not_hold(
    tmp_path, capsys, overrides, ladder_levels
):
    # level 58 on these grids has a trapezoid norm off 1 by more than
    # NORM_DRIFT_TOL, so it is truncated; levels near 400 also overflow
    cfg = write_config(
        tmp_path / "cfg.json", verify={"pde": False, "ladder_levels": ladder_levels}, **overrides
    )
    capsys.readouterr()
    assert run("verify", "--config", cfg, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "verify.ladder_levels" in err and "grid" in err
    assert not (tmp_path / "out" / "verify.json").exists()


def test_verify_held_ladder_level_over_tolerance_exits_2(tmp_path, capsys):
    # level 40 fits the README grid (norm off 1 by about 1e-14), but the
    # grid is too coarse for its ladder map: a tolerance failure
    cfg = write_config(tmp_path / "cfg.json", verify={"pde": False, "ladder_levels": 40})
    capsys.readouterr()
    assert run("verify", "--config", cfg, "--out", tmp_path / "out") == 2
    assert "ladder_mapping_residual" in capsys.readouterr().err
    checks = json.loads((tmp_path / "out" / "verify.json").read_text())["checks"]
    ladder = next(c for c in checks if c["name"] == "ladder_mapping_residual")
    assert ladder["residual"] > ladder["tol"]


def test_verify_incompatible_coupling_flagged(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        grid={"x_min": -11.0, "x_max": 9.0, "n_points": 1001},
        audit={"f1": {"kind": "custom", "expression": "1"}},
        verify={"n_max": 3, "pde": False},
    )
    assert run("verify", "--config", cfg, "--out", tmp_path / "out") == 2
    data = json.loads((tmp_path / "out" / "verify.json").read_text())
    audit_check = next(c for c in data["checks"] if c["name"] == "coupling_reality_audit")
    assert audit_check["passed"] is False


ON_LINUX = pytest.mark.skipif(sys.platform != "linux", reason="the child is forked on Linux only")
SMALL_LINEAR = {"grid": {"x_min": -11.0, "x_max": 9.0, "n_points": 2001}}
VERIFY_CASES = [
    ({**SMALL_LINEAR, "verify": {"n_max": 3, "pde": False}}, 0),
    ({**POSCHL_TELLER, "verify": {"n_max": 2, "pde": False}}, 0),
    ({"grid": {"x_min": -11.0, "x_max": 9.0, "n_points": 101}, "verify": {"n_max": 3}}, 2),
]


@ON_LINUX
@pytest.mark.parametrize(
    "overrides, code", VERIFY_CASES, ids=["linear", "poschl_teller", "coarse_fails"]
)
def test_verify_forked_partner_matches_in_process(tmp_path, monkeypatch, two_cpus, overrides, code):
    sectors = []
    solve = oracle.oracle_eigenvalues

    def recording(pair, sector, k):
        sectors.append(sector)
        return solve(pair, sector, k)

    monkeypatch.setattr(oracle, "oracle_eigenvalues", recording)
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert run("verify", "--config", cfg, "--out", tmp_path / "forked") == code
    [host] = sectors  # the partner sector was bisected in the child
    assert_no_child_left()

    sectors.clear()
    monkeypatch.setattr(sys, "platform", "win32")
    assert run("verify", "--config", cfg, "--out", tmp_path / "in_process") == code
    assert sectors == [host, host.partner]
    assert (tmp_path / "forked" / "verify.json").read_bytes() == (
        tmp_path / "in_process" / "verify.json"
    ).read_bytes()


@pytest.mark.parametrize("platform", [sys.platform, "win32"], ids=["native", "in_process"])
@pytest.mark.parametrize(
    "failing, shown", [(("minus", "plus"), "minus"), (("plus",), "plus")], ids=["both", "partner"]
)
def test_verify_host_sector_error_wins(
    tmp_path, monkeypatch, capsys, two_cpus, platform, failing, shown
):
    solve = oracle.oracle_eigenvalues

    def solve_or_fail(pair, sector, k):
        if sector.value in failing:
            raise DiscretizationError(f"{sector.value} sector failed")
        return solve(pair, sector, k)

    monkeypatch.setattr(oracle, "oracle_eigenvalues", solve_or_fail)
    monkeypatch.setattr(sys, "platform", platform)
    cfg = write_config(tmp_path / "cfg.json", **SMALL_LINEAR, verify={"n_max": 3, "pde": False})
    capsys.readouterr()
    assert run("verify", "--config", cfg, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"majorana1d: {shown} sector failed\n"
    assert not (tmp_path / "out" / "verify.json").exists()
    assert_no_child_left()


@ON_LINUX
def test_verify_host_failure_kills_the_running_partner_child(
    tmp_path, monkeypatch, capsys, two_cpus
):
    pid_file = tmp_path / "child.pid"

    def slow_partner_failing_host(pair, sector, k):
        if sector.value == "plus":  # the partner, in the child
            (tmp_path / "child.tmp").write_text(str(os.getpid()))
            os.replace(tmp_path / "child.tmp", pid_file)
            time.sleep(60)
        deadline = time.monotonic() + 30
        while not pid_file.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        raise DiscretizationError("host bisection failed")

    monkeypatch.setattr(oracle, "oracle_eigenvalues", slow_partner_failing_host)
    cfg = write_config(tmp_path / "cfg.json", **SMALL_LINEAR, verify={"n_max": 3, "pde": False})
    capsys.readouterr()
    began = time.monotonic()
    assert run("verify", "--config", cfg, "--out", tmp_path / "out") == 2
    assert time.monotonic() - began < 30
    assert capsys.readouterr().err == "majorana1d: host bisection failed\n"
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)
    assert_no_child_left()


@ON_LINUX
def test_one_cpu_runs_verify_and_evolve_in_process(tmp_path, monkeypatch):
    verify_cfg = write_config(
        tmp_path / "verify.json", **SMALL_LINEAR, verify={"n_max": 3, "pde": False}
    )
    evolve_cfg = evolve_config(tmp_path, dt=math.sqrt(2.0) * math.pi / 200)

    def run_both(out):
        assert run("verify", "--config", verify_cfg, "--out", out) == 0
        assert run("evolve", "--config", evolve_cfg, "--out", out, "--pde") == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forked = run_both(tmp_path / "two")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})

    def refuse():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "fork", refuse)
    assert run_both(tmp_path / "one") == forked
    assert sorted(forked) == [
        "density.csv", "density_pde.csv", "evolve_summary.json", "verify.json"
    ]


def test_cli_loads_no_process_pool(tmp_path):
    cfg = evolve_config(tmp_path, dt=math.sqrt(2.0) * math.pi / 200)
    argv = ["evolve", "--config", str(cfg), "--out", str(tmp_path / "out"), "--pde"]
    modules = ("multiprocessing", "concurrent.futures", "concurrent.futures.process")
    code = (
        "import sys; from majorana1d import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        f"print([m for m in {modules!r} if m in sys.modules])"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
    assert (tmp_path / "out" / "density.csv").exists()


# ------------------------------------------------ exit codes, separate process


README_LINEAR = {
    "potential": {"kind": "linear", "k": 1.0},
    "physical": {"mass": 1.0},
    "grid": {"x_min": -13.0, "x_max": 11.0, "n_points": 4001},
}
LINEAR_401 = {**README_LINEAR, "grid": {**README_LINEAR["grid"], "n_points": 401}}
GRID_20 = {"x_min": -10.0, "x_max": 10.0, "n_points": 201}
POLE_PAST_X_MAX = {
    "potential": {"kind": "custom", "expression": "1/(x-10.1)"},
    "grid": GRID_20,
    "spectrum": {"n_max": 2, "algebraic": False},
}
# the level-200 closed form of k = 10 overflows on this grid: its norm is NaN
NAN_NORM = {
    **LINEAR_401,
    "potential": {"kind": "linear", "k": 10.0},
    "evolve": {"n": 200, "periods": 0.01, "stride": 1000},
}
# each row: command, config (a JSON value, or raw bytes), flags, exit code,
# parts of stderr, and every artifact written with parts of its text
SEPARATE_PROCESS = [
    pytest.param("verify", README_LINEAR, [], 0, [], {"verify.json": []}, id="readme_verify"),
    # k < 0 hosts the zero mode in the plus sector: verify checks it and the
    # A† ladder against the closed-form host and partner states
    pytest.param(
        "verify",
        {**README_LINEAR, "potential": {"kind": "linear", "k": -1.0},
         "grid": {"x_min": -11.0, "x_max": 13.0, "n_points": 4001}, "verify": {"n_max": 6}},
        [], 0, [], {"verify.json": ['"zero_mode_matches_gaussian"', '"ladder_mapping_residual"']},
        id="negative_slope_verify",
    ),
    # the README grid truncates ladder level 58: a config error, not a residual
    pytest.param(
        "verify", {**README_LINEAR, "verify": {"pde": False, "ladder_levels": 60}}, [], 1,
        ["verify.ladder_levels"], {}, id="ladder_levels_off_the_grid",
    ),
    pytest.param(
        "audit", README_LINEAR, ["--tol", "nan"], 1, ["--tol must be finite"], {}, id="nan_tol"
    ),
    pytest.param(
        "spectrum",
        {**README_LINEAR, "potential": {"kind": "linear", "k": 0.0},
         "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 801}, "spectrum": {"n_max": 3}},
        [], 3, ["SUSY is broken"], {}, id="broken_susy",
    ),
    pytest.param(
        "evolve", {**LINEAR_401, "evolve": {"n": 1, "t_final": 1e300, "dt": 1e-300}}, [], 1,
        ["evolve.t_final / evolve.dt"], {}, id="overflowing_step_count",
    ),
    pytest.param(
        "evolve", {**LINEAR_401, "evolve": {"n": 1, "t_final": 1e10, "dt": 1e-10}}, [], 1,
        ["MAX_FRAMES"], {}, id="too_many_frames",
    ),
    # level 1e9 has its turning points far off the grid: refused before its
    # closed form of 1e9 grid passes, well inside the timeout
    pytest.param(
        "evolve", {**README_LINEAR, "evolve": {"n": 10**9}}, [], 1, ["turning points"], {},
        id="far_level",
    ),
    pytest.param(
        "classify",
        {"potential": {"kind": "custom", "expression": "x", "parameters": {"x": 5.0}},
         "grid": GRID_20},
        [], 1, ["potential.parameters.x"], {}, id="reserved_parameter",
    ),
    pytest.param(
        "classify", {**README_LINEAR, "grid": {**GRID_20, "n_points": 10**400}}, [], 1,
        ["grid.n_points must fit in a float"], {}, id="n_points_past_a_float",
    ),
    pytest.param(
        "classify", {**README_LINEAR, "grid": {**GRID_20, "n_points": 10**12}}, [], 1,
        ["grid.n_points must be at most MAX_GRID_POINTS"], {}, id="n_points_past_memory",
    ),
    pytest.param(
        "classify", {"potential": {"kind": "custom", "expression": "1/x"}, "grid": GRID_20},
        [], 1, ["potential must be finite on the grid"], {}, id="pole_on_grid",
    ),
    pytest.param(
        "classify", b'{"potential": {"kind": "linear", "k": 1.0}, "note": "\xff"}', [], 1,
        ["cannot read config", "can't decode byte 0xff"], {}, id="not_utf8",
    ),
    # the custom derivative is one-sided at the grid ends, so a pole one
    # spacing past x_max is never sampled
    pytest.param(
        "spectrum", POLE_PAST_X_MAX, [], 0, [], {"spectrum.json": []}, id="pole_past_x_max",
    ),
    pytest.param(
        "classify", POLE_PAST_X_MAX, [], 0, [], {"classify.json": []},
        id="pole_past_x_max_classify",
    ),
    pytest.param(
        "evolve", NAN_NORM, [], 1, ["the level-200 state has norm nan"], {}, id="nan_norm"
    ),
    # a second --out overrides the first: one that is a file, and one under
    # a file, are config errors; density.csv's error wins over density_pde.csv's
    pytest.param(
        "spectrum", {**README_LINEAR, "spectrum": {"n_max": 2}}, ["--out", os.devnull], 1,
        ["--out", "'spectrum.json'", repr(os.devnull)], {}, id="out_is_a_file",
    ),
    pytest.param(
        "evolve", {**LINEAR_401, "evolve": {"n": 1}}, ["--pde", "--out", f"{os.devnull}/run"],
        1, ["--out", "'density.csv'", repr(f"{os.devnull}/run")], {}, id="out_under_a_file_pde",
    ),
    pytest.param(
        "evolve", NAN_NORM, ["--pde"], 1, ["the level-200 state has norm nan"], {},
        id="nan_norm_pde",
    ),
    # α·cħ/h ≈ 5e155: the first jump leaves NaN and names its step; the
    # closed-form route's CSV is still written
    pytest.param(
        "evolve",
        {"potential": {"kind": "linear", "k": 1.0}, "physical": {"mass": 1.0},
         "grid": {**GRID_20, "x_min": -11.0, "x_max": 9.0},
         "evolve": {"n": 1, "delta": 0.3, "t_final": 3e156, "dt": 1e155, "stride": 7}},
        ["--pde"], 2, ["non-finite state at step 1"], {"density.csv": []},
        id="pde_instability",
    ),
    # a rest energy m c² that overflows, or is past the largest float, names physical
    pytest.param(
        "classify", {**README_LINEAR, "physical": {"mass": 1.0, "c": 1e200}}, [], 1,
        ["bad physical", "rest energy"], {}, id="c_squared_overflows",
    ),
    pytest.param(
        "spectrum",
        {**README_LINEAR, "physical": {"mass": 0.0, "c": 1e160}, "spectrum": {"n_max": 2}},
        [], 1, ["bad physical", "rest energy"], {}, id="massless_c_squared_overflows",
    ),
    pytest.param(
        "verify", {**README_LINEAR, "physical": {"mass": 1e300, "c": 1e10}}, [], 1,
        ["bad physical", "rest energy"], {}, id="infinite_rest_energy",
    ),
    pytest.param(
        "evolve", {**LINEAR_401, "physical": {"mass": 1.0, "c": 1e200}, "evolve": {"n": 1}},
        ["--pde"], 1, ["bad physical", "rest energy"], {}, id="c_squared_overflows_pde",
    ),
    # mass 0 has no rest energy to overflow, but the oracle's (c hbar/h)^2 does
    pytest.param(
        "spectrum",
        {"potential": {"kind": "linear", "k": 1.0}, "physical": {"mass": 0.0, "c": 1e150},
         "grid": {"x_min": -1e-8, "x_max": 1e-8, "n_points": 2001},
         "spectrum": {"n_max": 2, "algebraic": False}},
        [], 1, ["physical.c", "physical.hbar", "grid", "too large to bisect"], {},
        id="kinetic_scale_overflows",
    ),
    # W² of a potential that is finite on the grid, or the zero-mode exponent
    # ∫W/(c hbar), past the largest float: refused before any solve
    pytest.param(
        "spectrum",
        {"potential": {"kind": "custom", "expression": "exp(x*x)"},
         "grid": {"x_min": -19.0, "x_max": 19.0, "n_points": 2001},
         "spectrum": {"n_max": 2, "algebraic": False}},
        [], 1, ["potential and grid", "partner potentials"], {}, id="partner_potentials_overflow",
    ),
    pytest.param(
        "verify",
        {"potential": {"kind": "scarf", "a": 1e200, "b": 0.0},
         "grid": {"x_min": -4.0, "x_max": 5.0, "n_points": 401}},
        [], 1, ["potential and grid", "partner potentials"], {},
        id="partner_potentials_overflow_verify",
    ),
    pytest.param(
        "classify", {**README_LINEAR, "physical": {"mass": 1.0, "c": 5e-324}}, [], 1,
        ["physical.c and physical.hbar", "zero-mode exponent"], {},
        id="zero_mode_exponent_overflows",
    ),
    pytest.param(
        "spectrum",
        {**README_LINEAR, "physical": {"mass": 1.0, "c": 5e-324}, "spectrum": {"n_max": 2}},
        [], 1, ["physical.c and physical.hbar", "zero-mode exponent"], {},
        id="zero_mode_exponent_overflows_spectrum",
    ),
    pytest.param(
        "verify", {**README_LINEAR, "physical": {"mass": 1.0, "c": 5e-324}}, [], 1,
        ["physical.c and physical.hbar", "zero-mode exponent"], {},
        id="zero_mode_exponent_overflows_verify",
    ),
    # a spacing past 2/BOUNDARY_TOL² caps every normalized candidate's end
    # amplitude at sqrt(2/h) < BOUNDARY_TOL: the zero-mode test cannot tell
    pytest.param(
        "spectrum",
        {"potential": {"kind": "scarf", "a": 0.35, "b": -0.26, "alpha": 0.22},
         "physical": {"mass": 0.38, "c": 1.0, "hbar": 1.0},
         "grid": {"x_min": -1e300, "x_max": 1e300, "n_points": 11},
         "spectrum": {"n_max": 2, "algebraic": False}},
        [], 1, ["grid spacing", "too wide for the zero-mode test"], {},
        id="grid_too_wide_for_the_zero_mode_test",
    ),
]


@pytest.mark.parametrize("command, config, flags, code, err_parts, written", SEPARATE_PROCESS)
def test_exit_code_from_a_separate_process(
    tmp_path, command, config, flags, code, err_parts, written
):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
    out = tmp_path / "out"
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "majorana1d", command, "--config", cfg, "--out", out, *flags],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=30,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
    if code == 1:
        assert proc.stderr.startswith("majorana1d: config error: ")
    assert all(part in proc.stderr for part in err_parts)
    assert sorted(os.listdir(out) if out.exists() else []) == sorted(written)
    for name, parts in written.items():
        text = (out / name).read_text()
        assert all(part in text for part in parts)
