"""Code outside the package that names its API: the README's library
example and the benchmark tracer. A rename or removal in the package
fails here, not only in the README's readers or in ``pytest perfbench``."""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n.*?^```python\n(.*?)^```", readme, re.S | re.M)
    assert block is not None, "README.md has no python block under '## Library'"
    exec(compile(block.group(1), "README.md", "exec"), {"__name__": "readme_example"})


def test_tracer_targets_resolve_in_the_package(monkeypatch):
    # loaded by path without writing bytecode next to it
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{attribute}"
        for module, attribute, *_ in tracer.TARGETS
        if not hasattr(importlib.import_module(module), attribute)
    ]
    assert tracer.TARGETS and missing == []
