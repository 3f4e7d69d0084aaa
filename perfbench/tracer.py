"""Spans recorded from outside the package.

Each public function of interest is replaced, for the length of one
traced pass, by a wrapper installed where its caller looks it up: the
CLI calls `susy.zero_mode` through the module, so the attribute of the
`susy` module is replaced; it binds `majorana_compatible` by name at
import, so the attribute of `cli` is replaced instead. A span records
its name, start, end, parent span and request (the command index in the
pass). Spans stay in memory and are written out when the run ends.

A layer's self time is its span's duration minus the time its child
spans cover, so `check_shape_invariance` does not count the
`partner_potentials` calls it makes.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

ROOT_SPAN = "cli.main"


@dataclass
class Span:
    id: int
    parent: int | None
    request: int
    name: str
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _pde_steps(args, kwargs, result):
    # evolve_pde(initial, p, phi, t_final, dt=...): the step count it uses
    return {"steps": max(1, round(args[3] / kwargs["dt"]))}


def _levels(args, kwargs, result):
    return {"levels": len(result)}


# (module, attribute, span name, counters taken from the call)
TARGETS = (
    ("majorana1d.cli", "load_config", "cli.load_config", None),
    ("majorana1d.cli", "write_json", "cli.write_json", None),
    ("majorana1d.cli", "write_density_csv", "cli.write_density_csv", _csv_bytes),
    ("majorana1d.cli", "majorana_compatible", "model.majorana_compatible", None),
    ("majorana1d.evolution", "evolve_pde", "evolution.evolve_pde", _pde_steps),
    ("majorana1d.oracle", "discretize", "oracle.discretize", None),
    ("majorana1d.oracle", "eigensolve", "oracle.eigensolve", _levels),
    ("majorana1d.susy", "zero_mode", "susy.zero_mode", None),
    ("majorana1d.susy", "partner_potentials", "susy.partner_potentials", None),
    ("majorana1d.susy", "check_shape_invariance", "susy.check_shape_invariance", None),
    ("majorana1d.susy", "apply_a", "susy.apply_a", None),
    ("majorana1d.linear", "spinor", "linear.spinor", None),
    ("majorana1d.expressions", "evaluate", "expressions.evaluate", None),
    ("majorana1d.expressions", "parse_potential", "expressions.parse_potential", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.request = 0

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.request, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str, counters=None):
        active = 0  # recursive calls (expressions.evaluate) belong to the outer span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal active
            if active:
                return fn(*args, **kwargs)
            active += 1
            try:
                with self.span(name) as span:
                    result = fn(*args, **kwargs)
            finally:
                active -= 1
            if counters is not None:
                span.counters = counters(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Replace every target by its wrapper; restore on exit."""
        saved = []
        try:
            for module_name, attr, name, counters in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, counters))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed self seconds and summed counters."""
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        entry = totals[span.name]
        entry["calls"] += 1
        entry["self_s"] += span.end - span.start - child_time[span.id]
        for key, value in span.counters.items():
            entry[key] += value
    return totals
