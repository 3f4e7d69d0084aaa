import math
from dataclasses import MISSING, fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst
from scipy.integrate import quad

import majorana1d as mj
from majorana1d.cli import build_potential
from majorana1d.model import BUILTIN_POTENTIALS, MAX_GRID_POINTS

from .conftest import sample

GRID = mj.GridSpec(0.0, 1.0, 33)


def grid_values(min_size=33):
    return npst.arrays(
        float,
        GRID.n_points,
        elements=st.floats(-1e3, 1e3, allow_nan=False),
    )


# ----------------------------------------------------------- construction


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        mj.GridSpec(1.0, 0.0, 11)
    with pytest.raises(ValueError):
        mj.GridSpec(0.0, 1.0, 2)
    with pytest.raises(ValueError, match="grid.n_points must be at most MAX_GRID_POINTS"):
        mj.GridSpec(0.0, 1.0, MAX_GRID_POINTS + 1)
    assert mj.GridSpec(0.0, 1.0, 11).h == pytest.approx(0.1)


@pytest.mark.parametrize("x_min, x_max", [(-1e308, 1e308), (-math.inf, 0.0)])
def test_grid_spec_refuses_a_spacing_that_is_not_finite(x_min, x_max):
    with pytest.raises(ValueError, match="need a finite spacing"):
        mj.GridSpec(x_min, x_max, 11)


def test_grid_function_rejects_wrong_length_and_nonfinite():
    with pytest.raises(ValueError):
        mj.GridFunction(GRID, np.zeros(5))
    with pytest.raises(mj.EvaluationError, match=r"at x=0\.0$"):
        mj.GridFunction(GRID, np.full(GRID.n_points, np.inf))


def test_physical_params_validation():
    with pytest.raises(ValueError):
        mj.PhysicalParams(mass=-1.0)
    with pytest.raises(ValueError):
        mj.PhysicalParams(c=0.0)


def test_grid_function_is_immutable():
    f = sample(GRID, lambda x: x)
    with pytest.raises(ValueError):
        f.values[0] = 7.0


# ---------------------------------------------------------- superpotential


def test_superpotential_free_case():
    p = mj.PhysicalParams(mass=1.0)
    assert mj.superpotential(p, mj.zero_potential(), 5.0) == pytest.approx(1.0)


def test_superpotential_linear():
    p = mj.PhysicalParams(mass=1.0)
    assert mj.superpotential(p, mj.LinearPotential(1.0), 2.0) == pytest.approx(3.0)


def test_superpotential_massless():
    p = mj.PhysicalParams(mass=0.0)
    assert mj.superpotential(p, mj.LinearPotential(2.0), -1.0) == pytest.approx(-2.0)


def test_superpotential_propagates_evaluation_error():
    p = mj.PhysicalParams()
    pot = mj.CustomPotential("1/x")
    with pytest.raises(mj.EvaluationError, match="x=0.0"):
        mj.superpotential(p, pot, 0.0)
    # an array input names x as a plain float, not as np.float64(0.0)
    with pytest.raises(mj.EvaluationError, match=r"at x=0\.0$"):
        mj.superpotential(p, pot, np.array([-1.0, 0.0, 1.0]))


# ----------------------------------------------------------- inner product


def test_inner_product_constants_exact():
    spec = mj.GridSpec(0.0, 1.0, 11)
    one = sample(spec, lambda x: np.ones_like(x))
    assert mj.inner_product(one, one) == pytest.approx(1.0, abs=1e-15)


def test_inner_product_linear_exact():
    spec = mj.GridSpec(0.0, 1.0, 101)
    f = sample(spec, lambda x: x)
    g = sample(spec, lambda x: np.ones_like(x))
    assert mj.inner_product(f, g) == pytest.approx(0.5, abs=1e-12)


def test_inner_product_gaussian_ground_state():
    # independent quadrature oracle for the normalized Gaussian
    w = 1.0
    oracle, _ = quad(lambda t: math.sqrt(w / math.pi) * math.exp(-w * t * t), -np.inf, np.inf)
    spec = mj.GridSpec(-10.0, 10.0, 2001)
    f = sample(spec, lambda x: (w / np.pi) ** 0.25 * np.exp(-0.5 * w * x**2))
    assert oracle == pytest.approx(1.0, abs=1e-12)
    assert mj.inner_product(f, f) == pytest.approx(oracle, abs=1e-8)


def test_inner_product_grid_mismatch():
    f = sample(mj.GridSpec(0.0, 1.0, 11), lambda x: x)
    g = sample(mj.GridSpec(0.0, 2.0, 11), lambda x: x)
    with pytest.raises(mj.GridMismatchError):
        mj.inner_product(f, g)


@given(grid_values(), grid_values())
def test_inner_product_symmetric(a, b):
    f, g = mj.GridFunction(GRID, a), mj.GridFunction(GRID, b)
    assert mj.inner_product(f, g) == mj.inner_product(g, f)


@given(grid_values(), grid_values(), grid_values(),
       st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False))
def test_inner_product_bilinear(a, b, c, alpha, beta):
    f, h, g = (mj.GridFunction(GRID, v) for v in (a, b, c))
    combo = mj.GridFunction(GRID, alpha * a + beta * b)
    expected = alpha * mj.inner_product(f, g) + beta * mj.inner_product(h, g)
    assert mj.inner_product(combo, g) == pytest.approx(expected, rel=1e-9, abs=1e-7)


# -------------------------------------------------------------- normalize


def test_normalize_constant():
    spec = mj.GridSpec(0.0, 1.0, 11)
    f = sample(spec, lambda x: np.full_like(x, 2.0))
    assert np.allclose(mj.normalize(f).values, 1.0)


def test_normalize_sign_convention():
    spec = mj.GridSpec(0.0, 1.0, 11)
    f = sample(spec, lambda x: np.full_like(x, -3.0))
    assert np.allclose(mj.normalize(f).values, 1.0)


def test_normalize_hermite_gaussian(model, grid10):
    y = model.y_of_x(grid10.points())
    raw = mj.GridFunction(grid10, y * np.exp(-0.5 * y**2))
    normed = mj.normalize(raw)
    assert mj.inner_product(normed, normed) == pytest.approx(1.0, abs=1e-12)


def test_normalize_zero_function_raises():
    f = sample(GRID, lambda x: 0.0 * x)
    with pytest.raises(mj.DegenerateFunctionError):
        mj.normalize(f)


@given(grid_values())
@settings(max_examples=200)
def test_normalize_idempotent_exactly(values):
    assume(np.max(np.abs(values)) > 1e-6)
    once = mj.normalize(mj.GridFunction(GRID, values))
    twice = mj.normalize(once)
    assert np.array_equal(once.values, twice.values)


# ------------------------------------------------------ built-in potentials


@pytest.mark.parametrize(
    "pot",
    [
        mj.LinearPotential(1.3),
        mj.PoschlTellerPotential(2.0, 0.7),
        mj.RosenMorsePotential(1.5, 0.4, 1.1),
        mj.ScarfPotential(1.2, 0.8, 0.9),
    ],
)
def test_builtin_derivatives_match_finite_differences(pot):
    x = np.linspace(-3.0, 3.0, 61)
    step = 1e-6
    numeric = (pot.evaluate(x + step) - pot.evaluate(x - step)) / (2 * step)
    assert np.allclose(pot.derivative(x), numeric, atol=1e-8)


def test_rosen_morse_offset():
    pot = mj.RosenMorsePotential(3.0, 0.5, 1.0)
    assert pot.evaluate(0.0) == pytest.approx(0.5)
    assert pot.evaluate(50.0) == pytest.approx(3.5)


@pytest.mark.parametrize("kind", sorted(BUILTIN_POTENTIALS))
def test_builtin_potential_describe_round_trips_through_the_config(kind):
    cls = BUILTIN_POTENTIALS[kind]
    values = {f.name: 0.5 + i for i, f in enumerate(fields(cls))}
    pot = cls(**values)
    assert pot.describe() == {"kind": kind, **values}
    assert build_potential(pot.describe()) == pot
    # a field with a default (width, alpha) may be left out
    required = {f.name: getattr(pot, f.name) for f in fields(cls) if f.default is MISSING}
    assert build_potential({"kind": kind, **required}) == cls(**required)


@pytest.mark.parametrize("name", ["x", "sin", "sech", "a b", "2c"])
def test_custom_potential_refuses_a_reserved_parameter_name(name):
    with pytest.raises(mj.ReservedNameError) as err:
        mj.CustomPotential("a*x", {"a": 1.0, name: 2.0})
    assert isinstance(err.value, ValueError)
    assert err.value.name == name
    assert repr(name) in str(err.value)


def test_custom_potential_derivative_is_a_grid_difference():
    spec = mj.GridSpec(-10.0, 10.0, 201)
    x, h = spec.points(), spec.h
    pot = mj.CustomPotential("a*sin(x) + x^3", {"a": 1.5})
    d = pot.derivative(x)
    # the interior keeps the central difference at the grid spacing, bit for bit
    central = (pot.evaluate(x + h) - pot.evaluate(x - h)) / (2.0 * h)
    assert np.array_equal(d[1:-1], central[1:-1])
    # the ends are one-sided differences of on-grid samples
    v = pot.evaluate(x)
    assert d[0] == (4.0 * v[1] - 3.0 * v[0] - v[2]) / (2.0 * h)
    assert d[-1] == (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    exact = 1.5 * np.cos(x) + 3.0 * x**2
    assert np.max(np.abs(d - exact)) < 1e-2 * np.max(np.abs(exact))
    # so a pole one step past x_max is never sampled
    pole = mj.CustomPotential("1/(x-10.1)")
    assert np.all(np.isfinite(pole.derivative(x)))
    for short in (1.0, x[:2]):
        with pytest.raises(ValueError):
            pole.derivative(short)


# ----------------------------------------------------------- reality audit


def test_audit_accepts_pure_scalar():
    cs = mj.CouplingSet(
        mj.zero_potential(), mj.LinearPotential(1.0), mj.zero_potential(), mj.zero_potential()
    )
    report = mj.majorana_compatible(cs, GRID, 1e-12)
    assert report.compatible and report.offending == ()


def test_audit_rejects_electric_coupling():
    cs = mj.CouplingSet(
        mj.CustomPotential("1"), mj.zero_potential(), mj.zero_potential(), mj.zero_potential()
    )
    report = mj.majorana_compatible(cs, GRID, 1e-12)
    assert not report.compatible
    assert [name for name, _ in report.offending] == ["f1"]
    assert report.offending[0][1] == pytest.approx(1.0)


def test_audit_rejects_pseudoscalar():
    cs = mj.CouplingSet(
        mj.zero_potential(), mj.zero_potential(), mj.CustomPotential("x^2"), mj.zero_potential()
    )
    report = mj.majorana_compatible(cs, GRID, 1e-12)
    assert not report.compatible
    assert [name for name, _ in report.offending] == ["f3"]


@given(st.floats(-5, 5, allow_nan=False), st.floats(0, 1, allow_nan=False))
def test_audit_accepts_any_scalar_only_set(k, tol):
    cs = mj.CouplingSet(
        mj.zero_potential(), mj.LinearPotential(k), mj.zero_potential(), mj.zero_potential()
    )
    assert mj.majorana_compatible(cs, GRID, tol).compatible
