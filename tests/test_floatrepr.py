import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import majorana1d
from majorana1d import _floatrepr
from majorana1d._floatrepr import BLOCK, DensityRows


def kernel_rows(values, t=0.25) -> bytes:
    """The frame of ``values`` at ``t`` on the points ``values`` reversed,
    so that the kernel formats each value as a point and as a density."""
    values = np.asarray(values, dtype=np.float64)
    return DensityRows(values[::-1]).frame(t, values)


def repr_rows(values, t=0.25) -> bytes:
    """``kernel_rows`` built with ``repr``."""
    values = np.asarray(values, dtype=np.float64).tolist()
    return "".join(f"{t!r},{x!r},{v!r}\n" for x, v in zip(values[::-1], values)).encode()


def neighbours(value: float, count: int = 8) -> list[float]:
    """``value`` and the ``count`` doubles on each side of it."""
    out = [value]
    below = above = value
    for _ in range(count):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return out


def test_matches_repr_on_random_bit_patterns():
    bits = np.random.default_rng(20261018).integers(0, 2**64, 10**6, dtype=np.uint64)
    values = bits.view(np.float64)
    assert kernel_rows(values) == repr_rows(values)


def test_matches_repr_on_powers_of_two():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert len(powers) == 2098
    values = np.concatenate([powers, -powers])
    assert kernel_rows(values) == repr_rows(values)


def test_matches_repr_on_edge_values():
    subnormal_bits = np.concatenate(
        [
            np.arange(1, 2000, dtype=np.uint64),
            np.arange(2**52 - 2000, 2**52 + 2000, dtype=np.uint64),
            np.random.default_rng(7).integers(1, 2**52, 2000, dtype=np.uint64),
        ]
    )
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, 1.7976931348623157e308]
    # the ends of fixed notation, the last exactly counted integers and the
    # significant-digit limits
    cutoffs = [1e-5, 1e-4, 1e16, 2.0**53, 0.1, 1.0, 9.999999999999999e15, 123456789012345678.0]
    near = [v for cutoff in cutoffs for v in neighbours(cutoff)]
    decades = 10.0 ** np.arange(-323, 309)
    values = np.concatenate([subnormal_bits.view(np.float64), special, near, decades])
    values = np.concatenate([values, -values])
    assert kernel_rows(values) == repr_rows(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_matches_repr_on_any_floats(values):
    assert kernel_rows(values) == repr_rows(values)


def test_blocks_do_not_change_the_text():
    rng = np.random.default_rng(3)
    values = rng.standard_normal(2 * BLOCK + 5) * 10.0 ** rng.integers(-30, 30, 2 * BLOCK + 5)
    points = values[::-1]
    text = DensityRows(points).frame(0.25, values)
    assert text == b"".join(
        DensityRows(points[i : i + 100]).frame(0.25, values[i : i + 100])
        for i in range(0, len(values), 100)
    )
    assert text == repr_rows(values)


def test_density_rows_put_t_and_x_before_each_value():
    rows = _floatrepr.DensityRows(np.array([-1.5, 0.0, 1e-7]))
    assert rows.frame(0.25, np.array([1.0, -0.0, math.nan])) == (
        b"0.25,-1.5,1.0\n0.25,0.0,-0.0\n0.25,1e-07,nan\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["-c", "import majorana1d"], ["-m", "majorana1d", "--help"]],
    ids=["import", "help"],
)
def test_startup_leaves_the_kernel_unloaded(argv):
    # the kernel and its tables load only when a CSV is written
    src = str(Path(majorana1d.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    imported = {line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()}
    assert "majorana1d.evolution" in imported
    assert "majorana1d._floatrepr" not in imported
