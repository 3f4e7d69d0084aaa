import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

import majorana1d as mj

from .conftest import sample


# ------------------------------------------------------------- discretize


def test_stencil_free_particle():
    # h = 1 on [0, 4], V = 0: the classic (-1, 2, -1)/h^2 interior matrix
    p = mj.PhysicalParams(mass=0.0)
    spec = mj.GridSpec(0.0, 4.0, 5)
    op = mj.discretize(p, sample(spec, lambda x: 0.0 * x))
    assert np.allclose(op.diagonal, [2.0, 2.0, 2.0])
    assert np.allclose(op.off_diagonal, [-1.0, -1.0])


def test_stencil_adds_potential_on_diagonal():
    p = mj.PhysicalParams(mass=0.0)
    spec = mj.GridSpec(0.0, 4.0, 5)
    op = mj.discretize(p, sample(spec, lambda x: x**2))
    assert np.allclose(op.diagonal, 2.0 + np.array([1.0, 2.0, 3.0]) ** 2)


def test_discretize_needs_five_points():
    p = mj.PhysicalParams()
    spec = mj.GridSpec(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        mj.discretize(p, sample(spec, lambda x: 0.0 * x))


def test_linear_minus_ground_level_near_zero(params, linear_potential, model):
    grid = mj.default_grid(model, 2001, 12.0)
    pair = mj.partner_potentials(params, linear_potential, grid)
    lowest = mj.eigensolve(mj.discretize(params, pair.v_minus), 1)[0]
    assert abs(lowest) <= 1e-4


# -------------------------------------------------------------- eigensolve


def test_one_by_one_matrix():
    op = mj.TridiagonalOperator(np.array([5.0]), np.array([]))
    assert mj.eigensolve(op, 1)[0] == pytest.approx(5.0)


def test_k_out_of_range(params, partner12):
    # partner12 is the README config: x in [-13, 11], 4001 points
    ops = [mj.TridiagonalOperator(np.array([5.0]), np.array([]))]
    ops += [mj.discretize(params, v) for v in (partner12.v_minus, partner12.v_plus)]
    for op in ops:
        for k in (0, op.dim + 1):
            with pytest.raises(ValueError):
                mj.eigensolve(op, k)


@pytest.mark.parametrize("sector", [mj.Sector.MINUS, mj.Sector.PLUS])
def test_eigensolve_keeps_eigh_tridiagonal_bits(params, partner12, sector):
    v = partner12.v_minus if sector is mj.Sector.MINUS else partner12.v_plus
    op = mj.discretize(params, v)
    values, _ = eigh_tridiagonal(op.diagonal, op.off_diagonal, select="i", select_range=(0, 10))
    levels = mj.eigensolve(op, 11)
    assert isinstance(levels, np.ndarray)
    assert levels.tolist() == values.tolist()


def test_dirichlet_box_spectrum():
    # independent closed form: lambda_n = (c hbar n pi / L)^2
    p = mj.PhysicalParams(mass=1.0)
    spec = mj.GridSpec(0.0, 1.0, 2001)
    op = mj.discretize(p, sample(spec, lambda x: 0.0 * x))
    levels = mj.eigensolve(op, 3)
    for n in (1, 2, 3):
        exact = (n * np.pi) ** 2
        assert levels[n - 1] == pytest.approx(exact, rel=0.01)


def test_eigenvalues_sorted_strictly_increasing(minus_levels12):
    lams = minus_levels12.tolist()
    assert all(b > a for a, b in zip(lams, lams[1:]))


def test_determinism_bitwise(params, partner12):
    op = mj.discretize(params, partner12.v_minus)
    assert mj.eigensolve(op, 8).tolist() == mj.eigensolve(op, 8).tolist()


def test_positivity_of_factored_operators(params, minus_levels12, plus_levels12):
    # Both partner operators are squares; the plain 3-point stencil lets
    # the lowest level dip O(h^2) below zero (measured -2.25e-6 on the
    # 4001-point default grid), so the bound is the oracle comparison
    # tolerance rather than roundoff.
    for lam in np.concatenate([minus_levels12, plus_levels12]):
        assert lam >= -1e-3


# --------------------------------------------------- energies and reports


def test_energy_from_lambda_sqrt():
    assert mj.energy_from_lambda(2.0, tol=1e-9) == pytest.approx(np.sqrt(2.0))


def test_energy_from_lambda_clamps_tiny_negative():
    assert mj.energy_from_lambda(-1e-12, tol=1e-9) == 0.0


def test_energy_from_lambda_rejects_real_negative():
    with pytest.raises(mj.DiscretizationError):
        mj.energy_from_lambda(-0.5, tol=1e-9)


@given(st.floats(0, 1e6, allow_nan=False))
def test_energy_from_lambda_nonnegative_branch(lam):
    assert mj.energy_from_lambda(lam, tol=1e-9) == pytest.approx(np.sqrt(lam))


@given(st.floats(-1e-9, 0, allow_nan=False))
def test_energy_from_lambda_clamp_window(lam):
    assert mj.energy_from_lambda(lam, tol=1e-9) == 0.0


def test_isospectral_linear_pass(minus_levels12, plus_levels12):
    diffs = mj.isospectral_differences(minus_levels12, plus_levels12, clamp_tol=1e-3)
    assert all(diff <= 5e-3 for diff in diffs)
    assert len(diffs) == 10
    assert max(diffs) <= 5e-3


def test_partner_spectra_coincide_for_free_case():
    # phi' = 0 makes V+ = V-: identical matrices, identical levels
    p = mj.PhysicalParams(mass=1.0)
    grid = mj.GridSpec(-10.0, 10.0, 801)
    pair = mj.partner_potentials(p, mj.LinearPotential(0.0), grid)
    lam_minus = mj.eigensolve(mj.discretize(p, pair.v_minus), 5)
    lam_plus = mj.eigensolve(mj.discretize(p, pair.v_plus), 5)
    assert lam_minus.tolist() == lam_plus.tolist()


def test_isospectral_negative_control(minus_levels12, plus_levels12):
    diffs = mj.isospectral_differences(minus_levels12, plus_levels12 + 0.1, clamp_tol=1e-3)
    assert not all(diff <= 5e-3 for diff in diffs)
    assert all(not diff <= 5e-3 for diff in diffs)


# ------------------------------------------------------------ convergence


def test_eigenvalue_convergence_second_order(params, linear_potential, model):
    errors = {}
    for n_points in (1001, 2001):
        grid = mj.default_grid(model, n_points, 12.0)
        pair = mj.partner_potentials(params, linear_potential, grid)
        levels = mj.eigensolve(mj.discretize(params, pair.v_minus), 6)
        errors[n_points] = np.abs(levels - 2.0 * np.arange(6))
    ratios = errors[1001][1:] / errors[2001][1:]
    assert np.all(ratios >= 3.5)
