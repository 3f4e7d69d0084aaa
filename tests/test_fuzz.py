"""A seeded config fuzzer over the documented keys: every command must
end in a documented exit code, print no traceback and no Python warning,
and give exit 2 only for a named verdict, never for a sample that is not
finite."""

import contextlib
import io
import json
import random
import re
import warnings

import pytest

from majorana1d import _fork
from majorana1d.cli import main

COMMANDS_PER_SEED = 75
SEEDS = range(4)

# a value past what a key documents, or of the wrong type; json.dumps
# writes nan and inf as NaN and Infinity, which json.loads reads back
EXTREMES = [
    0.0, -0.0, -1.0, 1e-300, 5e-324, -5e-324, 1e-8, 1e8, 1e150, 1e200, 1e308,
    -1e308, 1.7976931348623157e308, float("nan"), float("inf"), "1", None, True, [],
]
EXPRESSIONS = [
    "x", "a*x + b", "exp(x*x)", "exp(x)", "1/x", "1/(x-10.1)", "sin(x)*a", "tanh(x)",
    "x^3", "sech(x)", "cosh(x)^2", "exp(a*x)", "-x", "2^x^x", "x/0", "sin(",
]
N_POINTS = [3, 4, 5, 6, 11, 51, 101, 201, 401]
# the exit-2 verdicts of a route that fails its own check, printed after
# the program's name: the oracle's positivity and ordering, the PDE's
# finiteness and norm drift; any other exit 2 is printed after the command's
ROUTE_VERDICTS = re.compile(
    r"majorana1d: (eigenvalue \S+ < \S+: operator should be positive semi-definite"
    r"|eigenvalues not strictly increasing"
    r"|non-finite state at step \d+"
    r"|norm drift \S+ at step \d+ exceeds \S+)\n"
)


def number(rng, low, high, extreme=0.1):
    """Mostly a float in [low, high], else one of ``EXTREMES``."""
    return rng.choice(EXTREMES) if rng.random() < extreme else rng.uniform(low, high)


def integer(rng, low, high, extremes=(-1, 10**9, 10**400, 1.5, "2")):
    return rng.choice(extremes) if rng.random() < 0.1 else rng.randint(low, high)


def potential(rng) -> dict:
    kind = rng.choice(["linear", "linear", "poschl_teller", "rosen_morse", "scarf", "custom"])
    if kind == "linear":
        return {"kind": kind, "k": number(rng, -3.0, 3.0)}
    if kind == "poschl_teller":
        return {"kind": kind, "depth": number(rng, -4.0, 4.0), "width": number(rng, 0.2, 2.0)}
    if kind in ("rosen_morse", "scarf"):
        return {
            "kind": kind,
            "a": number(rng, -4.0, 4.0),
            "b": number(rng, -2.0, 2.0),
            "alpha": number(rng, 0.2, 2.0),
        }
    section = {"kind": kind, "expression": rng.choice(EXPRESSIONS)}
    if rng.random() < 0.7:
        names = rng.sample(["a", "b", "x", "sin", "a b"], rng.choice([1, 2]))
        section["parameters"] = {name: number(rng, -2.0, 2.0) for name in names}
    return section


def grid(rng) -> dict:
    half = rng.choice([1e-8, 1.0, 5.0, 12.0, 20.0, 1e300])
    centre = rng.uniform(-3.0, 3.0)
    section = {
        "x_min": centre - half,
        "x_max": centre + half,
        "n_points": rng.choice(N_POINTS),
    }
    if rng.random() < 0.1:
        section[rng.choice(list(section))] = rng.choice(EXTREMES)
    return section


def evolve(rng) -> dict:
    """An ``evolve`` section of at most 4000 steps and 600 frames, or one
    whose step or frame count is refused before any step: level 0 and an
    explicit ``t_final`` always give ``dt`` too."""
    section = {"n": integer(rng, 0, 4, (-1, 200, 10**9, 0.5))}
    if rng.random() < 0.3:
        section["delta"] = number(rng, -3.0, 3.0)
    if rng.random() < 0.5:
        section["stride"] = rng.choice([1, 7, 50, 500])
        steps = rng.randint(1, min(4000, 600 * section["stride"]))
        section["t_final"] = rng.uniform(0.01, 5.0)
        section["dt"] = section["t_final"] / steps
        return section
    section["stride"] = rng.choice([7, 50, 500])
    if rng.random() < 0.2:
        section["t_final"], section["dt"] = rng.choice(
            [(1e300, 1e-300), (1e10, 1e-10), (-1.0, 0.1), (1.0, 0.0), (float("nan"), 0.1)]
        )
    else:
        section["periods"] = rng.choice([0.01, 0.5, 1.0, 2.0, 1e-300, 1e300, 0.0, -1.0])
        if section["n"] == 0:
            section["t_final"], section["dt"] = 1.0, 0.01
    return section


def config(rng, command: str) -> dict:
    raw = {"potential": potential(rng), "grid": grid(rng)}
    if rng.random() < 0.8:
        raw["physical"] = {
            "mass": number(rng, 0.0, 2.0),
            "c": number(rng, 0.5, 2.0),
            "hbar": number(rng, 0.5, 2.0),
        }
    if rng.random() < 0.3:
        raw["tol"] = number(rng, 1e-6, 1e-1, 0.3)
    if command == "spectrum":
        raw["spectrum"] = {
            "n_max": integer(rng, 0, 12),
            "algebraic": rng.choice([True, False, "yes"]),
        }
    elif command == "evolve":
        raw["evolve"] = evolve(rng)
    elif command == "verify":
        raw["verify"] = {
            "n_max": integer(rng, 0, 8),
            "ladder_levels": integer(rng, 1, 6),
            "pde": rng.choice([True, False, True, 1]),
        }
    if command in ("audit", "verify") and rng.random() < 0.5:
        raw["audit"] = {key: potential(rng) for key in rng.sample(["f1", "f2", "f3", "f4"], 2)}
        if rng.random() < 0.5:
            raw["audit_tol"] = number(rng, 0.0, 1e-6, 0.3)
    return raw


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzzed_configs_exit_cleanly(tmp_path, monkeypatch, seed):
    # the forked halves run here, so their warnings are recorded too
    monkeypatch.setattr(_fork, "can_fork", lambda: False)
    rng = random.Random(seed)
    cfg = tmp_path / "cfg.json"
    codes = set()
    for i in range(COMMANDS_PER_SEED):
        command = rng.choice(["spectrum", "evolve", "evolve", "verify", "classify", "audit"])
        raw = config(rng, command)
        cfg.write_text(json.dumps(raw))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / f"out{i}")]
        if command == "evolve" and rng.random() < 0.5:
            argv.append("--pde")
        if rng.random() < 0.1:
            argv += ["--tol", rng.choice(["1e-3", "nan", "-1", "abc", "1e400", "1e-12"])]
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except BaseException as err:  # noqa: BLE001 - reported with its config
                pytest.fail(f"{argv[0]} {argv[5:]} on {raw!r} raised {err!r}")
        where = f"{argv[0]} {argv[5:]} on {json.dumps(raw)}"
        err = stderr.getvalue()
        assert code in (0, 1, 2, 3), where
        assert not caught, f"{where} warned: {[str(w.message) for w in caught]}"
        assert "Traceback" not in err and "Warning" not in err, f"{where}: {err}"
        if code == 2:
            assert "non-finite sample" not in err, f"{where}: {err}"
            named = err.startswith(f"{command}: ") or ROUTE_VERDICTS.fullmatch(err)
            assert named, f"{where}: {err}"
        codes.add(code)
    # neither so tame that every command passes nor so wild that all are refused
    assert {0, 1} <= codes, codes
