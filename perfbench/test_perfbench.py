"""Tests of the benchmark harness itself: `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import run
import tracer as tracing
import workloads

sys.path.insert(0, str(run.SRC))


# -------------------------------------------------------------- workloads


def test_evolve_frames_issues_one_pde_evolve():
    (op,) = workloads.build("evolve_frames", 3)
    assert (op.command, op.flags, op.expected_exit) == ("evolve", ("--pde",), 0)
    cfg = op.config
    assert cfg["grid"] == {"x_min": -13.0, "x_max": 11.0, "n_points": 4001}
    assert cfg["physical"] == {"mass": 1.0, "c": 1.0, "hbar": 1.0}
    assert {k: cfg["evolve"][k] for k in ("n", "periods", "stride")} == {
        "n": 1, "periods": 1.0, "stride": 10}
    assert op.artifacts == ("density.csv", "density_pde.csv", "evolve_summary.json")


def test_evolve_long_issues_one_pde_evolve():
    (op,) = workloads.build("evolve_long", 3)
    assert (op.command, op.flags) == ("evolve", ("--pde",))
    assert op.config["grid"]["n_points"] == 8001
    assert {k: op.config["evolve"][k] for k in ("n", "periods", "stride")} == {
        "n": 2, "periods": 4.0, "stride": 1000}


def test_analysis_sweep_issues_the_stated_commands():
    ops = workloads.build("analysis_sweep", 3)
    assert len(ops) == 24
    assert Counter(op.config["grid"]["n_points"] for op in ops) == {8001: 12, 32001: 12}
    assert Counter(op.command for op in ops) == {
        "spectrum": 12, "classify": 4, "audit": 4, "verify": 4}
    assert not any(op.flags for op in ops)
    spectra = Counter(
        (op.config["potential"]["kind"], op.config["spectrum"]["algebraic"])
        for op in ops if op.command == "spectrum")
    assert spectra == {
        ("linear", True): 4, ("poschl_teller", True): 2, ("rosen_morse", False): 2,
        ("scarf", False): 2, ("custom", False): 2}
    slopes = [op.config["potential"]["k"] for op in ops
              if op.command == "spectrum" and op.config["potential"]["kind"] == "linear"]
    assert sum(k < 0 for k in slopes) == 2
    nonzero = {op.label: op.expected_exit for op in ops if op.expected_exit}
    assert nonzero == {"audit_pseudoscalar_n8001": 3, "audit_pseudoscalar_n32001": 3}
    for op in ops:
        if op.command == "verify":
            assert op.config["verify"]["pde"] is False
        if op.command == "audit" and "f3" in op.config["audit"]:
            assert op.config["audit"]["f3"]["expression"] == "0.1*sin(x)"


def test_seed_fixes_inputs_and_order():
    def key(ops):
        return [json.dumps(op.config, sort_keys=True) + op.label for op in ops]

    assert key(workloads.build("analysis_sweep", 5)) == key(workloads.build("analysis_sweep", 5))
    assert key(workloads.build("analysis_sweep", 5)) != key(workloads.build("analysis_sweep", 6))
    labels = [[op.label for op in workloads.build("analysis_sweep", s)] for s in range(4)]
    assert len({tuple(order) for order in labels}) > 1


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        workloads.build("nope", 1)


# --------------------------------------------------- correctness gate


def _fake_op(check=lambda out: [], expected_exit=0):
    return workloads.Operation(
        label="fake", command="classify", config={}, expected_exit=expected_exit,
        artifacts=("a.txt",), check=check)


def _fake_cli(outputs, codes):
    """A stand-in for cli.main writing ``outputs[i]`` and returning ``codes[i]``."""
    calls = iter(zip(outputs, codes))

    def main(argv):
        text, code = next(calls)
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True, exist_ok=True)
        (out / "a.txt").write_text(text)
        return code

    return main


def _runner(tmp_path, op, cli_main):
    workloads.materialize([op], tmp_path / "configs")
    return run.Runner([op], tmp_path, cli_main)


def test_wrong_exit_code_is_a_failed_operation(tmp_path):
    runner = _runner(tmp_path, _fake_op(), _fake_cli(["x", "x"], [0, 2]))
    runner.run_pass()
    runner.run_pass()
    assert (runner.attempted, len(runner.failures)) == (2, 1)
    assert "exit 2, expected 0" in runner.failures[0]


def test_residual_out_of_tolerance_is_a_failed_operation(tmp_path):
    ratios = iter([[0.5], [1.5]])
    runner = _runner(tmp_path, _fake_op(check=lambda out: next(ratios)),
                     _fake_cli(["x", "x"], [0, 0]))
    runner.run_pass()
    runner.run_pass()
    assert (runner.attempted, len(runner.failures)) == (2, 1)
    assert "residual ratio 1.5" in runner.failures[0]
    assert max(runner.ratios) == 1.5


def test_changed_artifact_is_a_failed_operation(tmp_path):
    runner = _runner(tmp_path, _fake_op(), _fake_cli(["x", "x", "y"], [0, 0, 0]))
    for _ in range(3):
        runner.run_pass()
    assert (runner.attempted, len(runner.failures)) == (3, 1)
    assert "differ from the first pass" in runner.failures[0]


def test_crash_is_a_failed_operation(tmp_path):
    def crash(argv):
        raise RuntimeError("boom")

    runner = _runner(tmp_path, _fake_op(), crash)
    runner.run_pass()
    assert len(runner.failures) == 1 and "boom" in runner.failures[0]


def test_spectrum_check_reports_ratio_to_tolerance(tmp_path):
    levels = [{"n": n, "energy_oracle": float(n), "abs_diff": 2e-3 * n} for n in range(3)]
    (tmp_path / "spectrum.json").write_text(json.dumps({"tolerance": 1e-3, "levels": levels}))
    assert workloads.check_spectrum(2, True)(tmp_path) == pytest.approx([0.0, 2.0, 4.0])
    assert workloads.check_spectrum(2, False)(tmp_path) == []
    with pytest.raises(workloads.CheckError):
        workloads.check_spectrum(3, True)(tmp_path)


def test_verify_check_rejects_a_failed_check(tmp_path):
    checks = [{"name": "a", "residual": 1e-5, "tol": 1e-4, "passed": True},
              {"name": "b", "residual": 1.0, "tol": 0.5, "passed": False}]
    (tmp_path / "verify.json").write_text(json.dumps({"checks": checks}))
    with pytest.raises(workloads.CheckError, match="b failed"):
        workloads.check_verify(tmp_path)


# ---------------------------------------------------------------- tracing


def test_self_time_excludes_child_spans():
    spans = [
        tracing.Span(0, None, 0, "cli.main", 0.0, 10.0),
        tracing.Span(1, 0, 0, "susy.check_shape_invariance", 1.0, 5.0),
        tracing.Span(2, 1, 0, "susy.partner_potentials", 1.5, 2.5),
        tracing.Span(3, 1, 0, "susy.partner_potentials", 3.0, 4.0),
        tracing.Span(4, 0, 0, "cli.write_density_csv", 6.0, 8.0, {"bytes": 4e6}),
    ]
    totals = tracing.layer_totals(spans)
    assert totals["cli.main"]["self_s"] == pytest.approx(4.0)
    assert totals["susy.check_shape_invariance"]["self_s"] == pytest.approx(2.0)
    assert totals["susy.partner_potentials"]["calls"] == 2
    metrics = run.layer_metrics(spans)
    assert metrics["cli.write_density_csv.mb_per_s"] == pytest.approx(2.0)
    assert metrics["evolution.evolve_pde.us_per_step"] == 0.0


def test_wrappers_sit_where_callers_look_and_are_removed():
    from majorana1d import cli, expressions, model, susy

    originals = (cli.majorana_compatible, susy.partner_potentials, expressions.evaluate)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.majorana_compatible is not model.majorana_compatible
        tree = expressions.parse_potential("sin(x) + x*x")
        expressions.evaluate(tree, [0.0, 1.0])
    assert (cli.majorana_compatible, susy.partner_potentials, expressions.evaluate) == originals
    # the recursive evaluation of one tree is one span
    assert [s.name for s in tracer.spans] == ["expressions.parse_potential",
                                              "expressions.evaluate"]


def test_traced_analysis_pass_on_the_real_cli(tmp_path):
    from majorana1d.cli import main as cli_main

    ops = [op for op in workloads.build("analysis_sweep", 1)
           if op.config["grid"]["n_points"] == 8001]
    workloads.materialize(ops, tmp_path / "configs")
    runner = run.Runner(ops, tmp_path, cli_main)
    runner.run_pass()
    tracer = tracing.Tracer()
    with tracer.installed():
        runner.run_pass(tracer)
    assert runner.failures == []
    assert runner.attempted == 24
    metrics = run.layer_metrics(tracer.spans)
    assert metrics["cli.main.calls"] == 12
    assert metrics["oracle.eigensolve.calls"] == metrics["oracle.discretize.calls"] > 0
    assert metrics["oracle.eigensolve.s"] > 0
    assert metrics["evolution.evolve_pde.calls"] == 0
    assert {s.request for s in tracer.spans} == set(range(12))


# ------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
