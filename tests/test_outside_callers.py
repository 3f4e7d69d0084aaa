"""Code outside the package that names its API: the README's library
example and the benchmark tracer. A rename or removal in the package
fails here, not only in the README's readers or in ``pytest perfbench``."""

import importlib
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from majorana1d import cli

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n.*?^```python\n(.*?)^```", readme, re.S | re.M)
    assert block is not None, "README.md has no python block under '## Library'"
    exec(compile(block.group(1), "README.md", "exec"), {"__name__": "readme_example"})


def load_tracer(monkeypatch):
    """``perfbench/tracer.py``, loaded by path without writing bytecode next to it."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve_in_the_package(monkeypatch):
    tracer = load_tracer(monkeypatch)
    missing = [
        f"{module}.{attribute}"
        for module, attribute, *_ in tracer.TARGETS
        if not hasattr(importlib.import_module(module), attribute)
    ]
    assert tracer.TARGETS and missing == []


TRACED_CONFIG = {
    "potential": {"kind": "linear", "k": 1.0},
    "physical": {"mass": 1.0},
    "grid": {"x_min": -13.0, "x_max": 11.0, "n_points": 2001},
    "spectrum": {"n_max": 2},
    "evolve": {"n": 1, "stride": 500},
    "verify": {"n_max": 2, "ladder_levels": 2, "pde": True},
}
SPECTRUM_SPANS = {
    "susy.zero_mode",
    "susy.partner_potentials",
    "susy.check_shape_invariance",
    "oracle.discretize",
    "oracle.eigensolve",
}


@pytest.mark.parametrize(
    "argv, reached",
    [
        (["spectrum"], SPECTRUM_SPANS),
        (["verify"], SPECTRUM_SPANS | {"susy.apply_a", "linear.spinor"}),
        (["evolve", "--pde"], {"linear.spinor"}),
    ],
    ids=["spectrum", "verify", "evolve_pde"],
)
def test_tracer_sees_the_route_calls_of_each_command(tmp_path, monkeypatch, argv, reached):
    # a call bound by name past the module attribute the tracer replaces
    # escapes it silently; the forked half is not seen, so at least one call
    tracer = load_tracer(monkeypatch)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(TRACED_CONFIG))
    traced = tracer.Tracer()
    with traced.installed():
        assert cli.main([*argv, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    calls = {name: entry["calls"] for name, entry in tracer.layer_totals(traced.spans).items()}
    assert {name for name in reached if calls.get(name, 0) < 1} == set()
