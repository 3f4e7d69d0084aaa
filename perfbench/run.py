#!/usr/bin/env python3
"""Benchmark of the majorana1d command line, end to end and per layer.

    python3 perfbench/run.py --workload evolve_frames --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both modes

Run it from the root of a source checkout; the package is imported from
`src/` (it need not be installed). One process acts as a single
closed-loop client: it calls `majorana1d.cli.main(argv)` in-process and
issues each command only after the previous one returns. A pass is one
round over the workload's commands (see `workloads.py`). One warm-up
pass is run, recorded and discarded, then passes repeat until
`--seconds` have elapsed.

`--trace 0` reports the end-to-end metrics with tracing off:

* `setup_s`: median wall time of fresh `python -m majorana1d --help`
  launches, the import and parser cost every CLI call pays;
* `wall_s`: median time of one warm pass;
* `peak_rss_mb`: peak resident memory of this process, which runs only
  the one workload;
* `residual_ratio_max`: the worst physics residual divided by its
  documented tolerance over every pass.

`--trace 1` alternates untraced and traced passes and reports the
per-layer metrics (self time, calls and work counters per module
function, `-X importtime` self and cumulative import times per module)
plus the tracing overhead. Spans are kept in memory and written to
`.perfbench_out/` when the run ends.

Every command is an operation. It fails when its exit code is not the
expected one, a residual exceeds its tolerance, an artifact is missing
or malformed, or an artifact differs byte for byte from the same
command's artifact in the first pass. The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_LAUNCHES = 5
IMPORT_LAUNCHES = 3
IMPORT_MODULES = (
    "majorana1d",
    "majorana1d.errors",
    "majorana1d.expressions",
    "majorana1d.model",
    "majorana1d.linear",
    "majorana1d.evolution",
    "majorana1d.oracle",
    "majorana1d.susy",
    "majorana1d.cli",
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "residual_ratio_max": "ratio",
}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for name in [tracing.ROOT_SPAN] + [target[2] for target in tracing.TARGETS]:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(
        {
            "cli.write_density_csv.bytes": "bytes",
            "cli.write_density_csv.mb_per_s": "MB/s",
            "evolution.evolve_pde.steps": "count",
            "evolution.evolve_pde.us_per_step": "us",
            "oracle.eigensolve.levels": "count",
        }
    )
    for module in IMPORT_MODULES:
        units[f"import.{module}.s"] = "s"
        units[f"import.{module}.cumulative_s"] = "s"
    units.update(
        {
            "trace.wall_untraced_s": "s",
            "trace.wall_traced_s": "s",
            "trace.overhead_s": "s",
            "warmup.wall_s": "s",
        }
    )
    return units


PER_LAYER = _per_layer_units()


# ------------------------------------------------------------ environment


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def _launch(extra: list[str]) -> tuple[float, str]:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *extra, "-m", "majorana1d", "--help"],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
        check=False,
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"`python -m majorana1d --help` exited {done.returncode}: {done.stderr}")
    return elapsed, done.stderr


def setup_times() -> list[float]:
    """Cold launches; the first also writes bytecode caches and is dropped."""
    _launch([])
    return [_launch([])[0] for _ in range(SETUP_LAUNCHES)]


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S+)\s*$")


def import_breakdown() -> dict[str, float]:
    """Median self and cumulative import seconds per package module."""
    _launch([])
    samples = {f"import.{m}.{f}": [] for m in IMPORT_MODULES for f in ("s", "cumulative_s")}
    for _ in range(IMPORT_LAUNCHES):
        seen = {}
        for line in _launch(["-X", "importtime"])[1].splitlines():
            match = _IMPORT_LINE.match(line)
            if match and match.group(3) in IMPORT_MODULES:
                own, cumulative, module = match.groups()
                seen[f"import.{module}.s"] = int(own) * 1e-6
                seen[f"import.{module}.cumulative_s"] = int(cumulative) * 1e-6
        for key, values in samples.items():
            values.append(seen.get(key, 0.0))
    return {key: statistics.median(values) for key, values in samples.items()}


# ----------------------------------------------------------------- passes


def _digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Runner:
    """Issues a workload's commands one at a time and judges each one."""

    def __init__(self, ops, work_dir: Path, cli_main):
        self.ops = ops
        self.work_dir = work_dir
        self.cli_main = cli_main
        self.reference: dict[int, dict[str, str]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.ratios: list[float] = []

    def run_pass(self, tracer: tracing.Tracer | None = None) -> float:
        """One pass; returns the summed wall time of its commands."""
        wall = 0.0
        for index, op in enumerate(self.ops):
            out_dir = self.work_dir / f"out{index:02d}"
            shutil.rmtree(out_dir, ignore_errors=True)
            stderr = io.StringIO()
            error = None
            root = contextlib.nullcontext()
            if tracer is not None:
                tracer.request = index
                root = tracer.span(tracing.ROOT_SPAN)
            start = time.perf_counter()
            try:
                with contextlib.redirect_stderr(stderr), root:
                    code = self.cli_main(op.argv(out_dir))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed operation, not a dead benchmark
                code, error = None, traceback.format_exc()
            wall += time.perf_counter() - start
            self._judge(index, op, out_dir, code, error or stderr.getvalue())
        return wall

    def _judge(self, index, op, out_dir: Path, code, stderr: str) -> None:
        self.attempted += 1
        problems = []
        if code != op.expected_exit:
            problems.append(f"exit {code}, expected {op.expected_exit}: {stderr.strip()}")
        else:
            try:
                ratios = op.check(out_dir)
                hashes = {name: _digest(out_dir / name) for name in op.artifacts}
            except (workloads.CheckError, OSError, KeyError, TypeError, ValueError) as err:
                problems.append(f"bad artifacts: {err!r}")
            else:
                self.ratios.extend(ratios)
                if any(r > 1.0 for r in ratios):
                    problems.append(f"residual ratio {max(ratios):.3g} exceeds 1")
                expected = self.reference.setdefault(index, hashes)
                changed = [name for name in hashes if hashes[name] != expected[name]]
                if changed:
                    problems.append(f"artifacts differ from the first pass: {changed}")
        if problems:
            self.failures.append(f"{op.label}: {'; '.join(problems)}")


# ------------------------------------------------------------------ modes


def layer_metrics(spans: list[tracing.Span]) -> dict[str, float]:
    totals = tracing.layer_totals(spans)
    out = {}
    for key in PER_LAYER:
        if key.startswith(("import.", "trace.", "warmup.")):
            continue
        name, _, field = key.rpartition(".")
        out[key] = float(totals.get(name, {}).get("self_s" if field == "s" else field, 0.0))
    csv_s = out["cli.write_density_csv.s"]
    out["cli.write_density_csv.mb_per_s"] = (
        out["cli.write_density_csv.bytes"] / 1e6 / csv_s if csv_s > 0 else 0.0
    )
    steps = out["evolution.evolve_pde.steps"]
    out["evolution.evolve_pde.us_per_step"] = (
        out["evolution.evolve_pde.s"] * 1e6 / steps if steps > 0 else 0.0
    )
    return out


def _rounds(seconds: float):
    """Yield while one more round, as long as the last one, fits in
    ``seconds``; at least once."""
    start = time.perf_counter()
    last = 0.0
    while not last or time.perf_counter() - start + last <= seconds:
        begun = time.perf_counter()
        yield
        last = time.perf_counter() - begun


def measure(args, cli_main, work_dir: Path):
    """Warm-up plus timed passes; returns the runner, the metrics, the
    per-pass samples and the tracer (None when tracing is off)."""
    ops = workloads.build(args.workload, args.seed)
    workloads.materialize(ops, work_dir / "configs")
    runner = Runner(ops, work_dir, cli_main)
    samples = {"warmup_s": runner.run_pass()}
    if not args.trace:
        walls = [runner.run_pass() for _ in _rounds(args.seconds)]
        samples["passes"] = walls
        metrics = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "residual_ratio_max": max(runner.ratios, default=0.0),
        }
        return runner, metrics, samples, None

    # untraced and traced passes alternate so both see the same machine
    tracer = tracing.Tracer()
    untraced, traced, per_pass = [], [], []
    for _ in _rounds(args.seconds):
        untraced.append(runner.run_pass())
        first = len(tracer.spans)
        with tracer.installed():
            traced.append(runner.run_pass(tracer))
        per_pass.append(layer_metrics(tracer.spans[first:]))
    samples.update(untraced=untraced, traced=traced)
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    metrics.update(
        {
            "trace.wall_untraced_s": statistics.median(untraced),
            "trace.wall_traced_s": statistics.median(traced),
            "warmup.wall_s": samples["warmup_s"],
        }
    )
    metrics["trace.overhead_s"] = metrics["trace.wall_traced_s"] - metrics["trace.wall_untraced_s"]
    return runner, metrics, samples, tracer


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    env = environment()
    print(f"# env {json.dumps(env, sort_keys=True)}")
    if args.trace:
        startup = import_breakdown()
        launches = {"import_launches": IMPORT_LAUNCHES}
    else:
        setups = setup_times()
        startup = {"setup_s": statistics.median(setups)}
        launches = {"setup_launches": SETUP_LAUNCHES}

    from majorana1d.cli import main as cli_main

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        runner, metrics, samples, tracer = measure(args, cli_main, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    metrics.update(startup)

    if tracer is not None:
        dump = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps({"env": env, "spans": tracer.dump()}) + "\n", encoding="utf-8")
        print(f"# spans {len(tracer.spans)} written to {dump.relative_to(ROOT)}")
    counts = {k: len(v) if isinstance(v, list) else 1 for k, v in samples.items()}
    print(f"# samples {json.dumps({**launches, **counts})}")
    print(f"# warm-up pass {samples['warmup_s']:.4f} s (discarded)")
    for name in ("passes", "untraced", "traced"):
        if name in samples:
            print(f"# {name} " + " ".join(f"{wall:.4f}" for wall in samples[name]))
    for failure in runner.failures:
        print(f"# FAILED {failure}")

    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced."""
    rows = []
    for workload in workloads.WORKLOADS:
        row = {"workload": workload, "metrics": {}, "attempted": 0, "failed": 0}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=600, check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} --trace {trace}: exited {done.returncode}", file=sys.stderr)
                return 1
            for line in lines:
                if line.startswith(("# samples ", "# FAILED ")):
                    print(f"{workload} trace={trace} {line[2:]}")
            result = json.loads(lines[-1])
            row["attempted"] += result["attempted"]
            row["failed"] += result["failed"]
            row["metrics"].update(result["metrics"])
        rows.append(row)
    for row in rows:
        cells = [f"{name}={m['value']:.6g} {m['unit']}" for name, m in row["metrics"].items()]
        print(f"{row['workload']}  failed/attempted={row['failed']}/{row['attempted']}  "
              + "  ".join(cells))
    return 1 if any(row["failed"] for row in rows) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "majorana1d" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
