import math

import numpy as np
import numpy.polynomial.hermite as herm
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import majorana1d as mj

from .conftest import tridiagonal_product

# ---------------------------------------------------------------- hermite


def test_hermite_low_orders():
    assert mj.hermite(0, 0.37) == pytest.approx(1.0)
    assert mj.hermite(1, 1.5) == pytest.approx(3.0)
    assert mj.hermite(2, 1.0) == pytest.approx(2.0)


@given(st.integers(0, 15), st.floats(-5, 5, allow_nan=False))
@settings(max_examples=150)
def test_hermite_matches_numpy(n, z):
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    reference = herm.hermval(z, coeffs)
    assert mj.hermite(n, z) == pytest.approx(reference, rel=1e-10, abs=1e-10)


def test_hermite_vectorized():
    z = np.linspace(-2, 2, 7)
    assert np.allclose(mj.hermite(2, z), 4 * z**2 - 2)


def test_hermite_rejects_negative_order():
    with pytest.raises(ValueError):
        mj.hermite(-1, 0.0)


# ------------------------------------------------------------- eigenstates


def test_model_requires_nonzero_slope(params):
    with pytest.raises(ValueError):
        mj.LinearModel(0.0, params)


def test_model_geometry(params):
    m = mj.LinearModel(2.0, params)
    assert m.w == pytest.approx(2.0)
    assert m.y_of_x(0.0) == pytest.approx(0.5)
    assert m.x_of_y(m.y_of_x(3.3)) == pytest.approx(3.3)


def test_ground_state_peak_value(model):
    assert mj.host_state(model, 0, 0.0) == pytest.approx(math.pi ** -0.25, abs=1e-4)


def test_first_excited_state_is_odd(model):
    assert mj.host_state(model, 1, 0.0) == 0.0


def test_eigenstate_norm_by_quadrature(model, grid10):
    y = model.y_of_x(grid10.points())
    f = mj.GridFunction(grid10, mj.host_state(model, 2, y))
    assert mj.inner_product(f, f) == pytest.approx(1.0, abs=1e-8)


def test_plus_states_shift_the_ladder(model):
    assert mj.partner_state(model, 1, 0.0) == pytest.approx(math.pi ** -0.25)
    assert mj.partner_state(model, 2, 0.0) == 0.0
    z = np.linspace(-3, 3, 31)
    assert np.allclose(mj.partner_state(model, 4, z), mj.host_state(model, 3, z))


def test_plus_sector_has_no_zero_mode_for_positive_slope(model):
    with pytest.raises(ValueError):
        mj.partner_state(model, 0, 0.0)


def test_orthonormality_of_analytic_states(model, grid10):
    y = model.y_of_x(grid10.points())
    states = [mj.GridFunction(grid10, mj.host_state(model, n, y)) for n in range(6)]
    gram = np.array([[mj.inner_product(a, b) for b in states] for a in states])
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-6


# ---------------------------------------------------------------- spectrum


def test_energy_values(params):
    model = mj.LinearModel(1.0, params)
    assert mj.energy(model, 0) == 0.0
    assert mj.energy(model, 2) == pytest.approx(2.0)
    assert mj.energy(mj.LinearModel(4.0, params), 1) == pytest.approx(2.0 * math.sqrt(2.0))


def test_negative_slope_spectrum_coincides(params):
    pos, neg = mj.LinearModel(1.0, params), mj.LinearModel(-1.0, params)
    for n in range(6):
        assert mj.energy(neg, n) == mj.energy(pos, n)


def test_eigenvalue_equation_residual(params, linear_potential, model, grid10):
    # H- phi_n = E_n^2 phi_n with the oracle supplying the matrix action
    y = model.y_of_x(grid10.points())
    pair = mj.partner_potentials(params, linear_potential, grid10)
    op = mj.discretize(params, pair.v_minus)
    for n in range(6):
        v = mj.host_state(model, n, y)[1:-1]
        residual = tridiagonal_product(op, v) - mj.energy(model, n) ** 2 * v
        assert np.linalg.norm(residual) / np.linalg.norm(v) <= 1e-3


# ------------------------------------------------------------------ spinor


def test_spinor_ground_state_is_static(model):
    y = np.linspace(-5, 5, 101)
    for t in (0.0, 0.7, 4.0):
        psi1, psi2 = mj.spinor(model, 0, t, y, 0.3)
        assert np.allclose(psi1, mj.host_state(model, 0, y))
        assert np.all(psi2 == 0.0)


def test_spinor_phase_quarter_turns(model):
    y = np.linspace(-5, 5, 101)
    psi1, psi2 = mj.spinor(model, 1, 0.0, y, math.pi / 2)
    assert np.allclose(psi1, mj.host_state(model, 1, y), atol=1e-14)
    assert np.allclose(psi2, 0.0, atol=1e-12)

    t_quarter = math.pi / (2.0 * model.params.c * math.sqrt(2.0 * model.w))
    psi1, psi2 = mj.spinor(model, 1, t_quarter, y, 0.0)
    assert np.allclose(psi1, mj.host_state(model, 1, y), atol=1e-12)
    assert np.allclose(psi2, 0.0, atol=1e-12)


@given(
    st.integers(0, 6),
    st.floats(0, 20, allow_nan=False),
    st.floats(0, 2 * math.pi, allow_nan=False),
)
@settings(max_examples=60)
def test_spinor_norm_is_time_independent(n, t, delta):
    model = mj.LinearModel(1.0, mj.PhysicalParams())
    grid = mj.default_grid(model)
    y = model.y_of_x(grid.points())
    psi1, psi2 = mj.spinor(model, n, t, y, delta)
    rho = psi1**2 + psi2**2
    total = grid.h * (rho.sum() - 0.5 * (rho[0] + rho[-1]))
    assert total == pytest.approx(1.0, abs=1e-8)


# ------------------------------------------------------------ k < 0 states


def test_negative_slope_ground_state_swaps_components(params):
    neg = mj.LinearModel(-1.0, params)
    y = np.linspace(-5, 5, 101)
    psi1, psi2 = mj.spinor(neg, 0, 0.0, y, 0.0)
    assert np.all(psi1 == 0.0)
    assert np.allclose(psi2, mj.host_state(mj.LinearModel(1.0, params), 0, y))


def test_closed_forms_are_the_same_bits_for_either_sign(params):
    # host and partner states read only w = |k|/(cħ)
    y = np.linspace(-4, 4, 41)
    pos, neg = mj.LinearModel(1.3, params), mj.LinearModel(-1.3, params)
    for n in range(5):
        assert np.array_equal(mj.host_state(neg, n, y), mj.host_state(pos, n, y))
        assert mj.host_state(neg, n, 0.3) == mj.host_state(pos, n, 0.3)
    for n in range(1, 5):
        assert np.array_equal(mj.partner_state(neg, n, y), mj.partner_state(pos, n, y))


def test_negative_slope_states_are_row_exchanged(params):
    y = np.linspace(-4, 4, 41)
    for n in (0, 1, 3):
        a_pos, b_pos = mj.spinor(mj.LinearModel(1.0, params), n, 0.7, y, 0.3)
        a_neg, b_neg = mj.spinor(mj.LinearModel(-1.0, params), n, 0.7, y, 0.3)
        assert np.array_equal(a_neg, b_pos)
        assert np.array_equal(b_neg, a_pos)
