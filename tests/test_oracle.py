import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

import majorana1d as mj
from majorana1d import oracle

from .conftest import sign_align, sup


# ------------------------------------------------------------- discretize


def test_stencil_free_particle():
    # h = 1 on [0, 4], V = 0: the classic (-1, 2, -1)/h^2 interior matrix
    p = mj.PhysicalParams(mass=0.0)
    spec = mj.GridSpec(0.0, 4.0, 5)
    op = mj.discretize(p, mj.sample(spec, lambda x: 0.0 * x))
    assert np.allclose(op.diagonal, [2.0, 2.0, 2.0])
    assert np.allclose(op.off_diagonal, [-1.0, -1.0])


def test_stencil_adds_potential_on_diagonal():
    p = mj.PhysicalParams(mass=0.0)
    spec = mj.GridSpec(0.0, 4.0, 5)
    op = mj.discretize(p, mj.sample(spec, lambda x: x**2))
    assert np.allclose(op.diagonal, 2.0 + np.array([1.0, 2.0, 3.0]) ** 2)


def test_discretize_needs_five_points():
    p = mj.PhysicalParams()
    spec = mj.GridSpec(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        mj.discretize(p, mj.sample(spec, lambda x: 0.0 * x))


def test_linear_minus_ground_level_near_zero(params, linear_potential, model):
    grid = mj.default_grid(model, 2001, 12.0)
    pair = mj.partner_potentials(params, linear_potential, grid)
    lowest = mj.eigensolve(mj.discretize(params, pair.v_minus), 1)[0]
    assert abs(lowest.energy_squared) <= 1e-4


# -------------------------------------------------------------- eigensolve


def test_one_by_one_matrix():
    spec = mj.GridSpec(0.0, 2.0, 3)
    op = mj.TridiagonalOperator(np.array([5.0]), np.array([]), spec, mj.Sector.MINUS)
    pairs = mj.eigensolve(op, 1)
    assert pairs[0].energy_squared == pytest.approx(5.0)


def test_k_out_of_range():
    spec = mj.GridSpec(0.0, 2.0, 3)
    op = mj.TridiagonalOperator(np.array([5.0]), np.array([]), spec, mj.Sector.MINUS)
    with pytest.raises(ValueError):
        mj.eigensolve(op, 2)
    with pytest.raises(ValueError):
        mj.eigensolve(op, 0)


@pytest.mark.parametrize("sector", [mj.Sector.MINUS, mj.Sector.PLUS])
def test_eigenvalues_bit_equal_to_eigensolve(params, partner12, sector):
    # partner12 is the README config: x in [-13, 11], 4001 points
    v = partner12.v_minus if sector is mj.Sector.MINUS else partner12.v_plus
    op = mj.discretize(params, v, sector)
    values = mj.eigenvalues(op, 11)
    assert values.tolist() == [e.energy_squared for e in mj.eigensolve(op, 11)]
    for k in (0, op.dim + 1):
        with pytest.raises(ValueError):
            mj.eigenvalues(op, k)


@pytest.mark.parametrize("sector", [mj.Sector.MINUS, mj.Sector.PLUS])
def test_eigensolve_keeps_eigh_tridiagonal_bits(params, partner12, sector):
    v = partner12.v_minus if sector is mj.Sector.MINUS else partner12.v_plus
    op = mj.discretize(params, v, sector)
    values, vectors = eigh_tridiagonal(
        op.diagonal, op.off_diagonal, select="i", select_range=(0, 10)
    )
    pairs = mj.eigensolve(op, 11)
    assert [e.energy_squared for e in pairs] == values.tolist()
    for pair, vector in zip(pairs, vectors.T):
        padded = np.zeros(op.spec.n_points)
        padded[1:-1] = vector
        expected = mj.normalize(mj.GridFunction(op.spec, padded))
        assert np.array_equal(pair.eigenfunction.values, expected.values)


def test_inverse_iteration_runs_once_on_first_eigenfunction_read(
    params, partner12, monkeypatch
):
    calls = []
    inverse_iteration = oracle._inverse_iteration

    def counted(*args):
        calls.append(args)
        return inverse_iteration(*args)

    monkeypatch.setattr(oracle, "_inverse_iteration", counted)
    pairs = mj.eigensolve(mj.discretize(params, partner12.v_minus), 6)
    assert [e.energy for e in pairs] and calls == []
    assert pairs[3].eigenfunction is pairs[3].eigenfunction
    assert [e.eigenfunction.spec for e in pairs] == [partner12.v_minus.spec] * 6
    assert len(calls) == 1


def test_dirichlet_box_spectrum():
    # independent closed form: lambda_n = (c hbar n pi / L)^2
    p = mj.PhysicalParams(mass=1.0)
    spec = mj.GridSpec(0.0, 1.0, 2001)
    op = mj.discretize(p, mj.sample(spec, lambda x: 0.0 * x))
    pairs = mj.eigensolve(op, 3)
    for n in (1, 2, 3):
        exact = (n * np.pi) ** 2
        assert pairs[n - 1].energy_squared == pytest.approx(exact, rel=0.01)


def test_eigenpair_residual_bound(params, partner12):
    op = mj.discretize(params, partner12.v_minus)
    pairs = mj.eigensolve(op, 6)
    bound = 1e-10 * op.norm_bound()
    for pair in pairs:
        v = pair.eigenfunction.values[1:-1]
        v = v / np.linalg.norm(v)
        residual = np.linalg.norm(op.matvec(v) - pair.energy_squared * v)
        assert residual <= bound


def test_eigenvalues_sorted_strictly_increasing(minus_levels12):
    lams = [e.energy_squared for e in minus_levels12]
    assert all(b > a for a, b in zip(lams, lams[1:]))


def test_determinism_bitwise(params, partner12):
    op = mj.discretize(params, partner12.v_minus)
    first = [e.energy_squared for e in mj.eigensolve(op, 8)]
    second = [e.energy_squared for e in mj.eigensolve(op, 8)]
    assert first == second


def test_eigenfunctions_normalized_and_sign_fixed(minus_levels12):
    for pair in minus_levels12:
        f = pair.eigenfunction
        assert mj.inner_product(f, f) == pytest.approx(1.0, abs=1e-12)
        peak = np.argmax(np.abs(f.values))
        assert f.values[peak] > 0


def test_positivity_of_factored_operators(params, minus_levels12, plus_levels12):
    # Both partner operators are squares; the plain 3-point stencil lets
    # the lowest level dip O(h^2) below zero (measured -2.25e-6 on the
    # 4001-point default grid), so the bound is the oracle comparison
    # tolerance rather than roundoff.
    for pair in minus_levels12 + plus_levels12:
        assert pair.energy_squared >= -1e-3


# --------------------------------------------------- energies and reports


def test_energy_from_lambda_sqrt():
    assert mj.energy_from_lambda(2.0) == pytest.approx(np.sqrt(2.0))


def test_energy_from_lambda_clamps_tiny_negative():
    assert mj.energy_from_lambda(-1e-12, tol=1e-9) == 0.0


def test_energy_from_lambda_rejects_real_negative():
    with pytest.raises(mj.DiscretizationError):
        mj.energy_from_lambda(-0.5, tol=1e-9)


@given(st.floats(0, 1e6, allow_nan=False))
def test_energy_from_lambda_nonnegative_branch(lam):
    assert mj.energy_from_lambda(lam) == pytest.approx(np.sqrt(lam))


@given(st.floats(-1e-9, 0, allow_nan=False))
def test_energy_from_lambda_clamp_window(lam):
    assert mj.energy_from_lambda(lam, tol=1e-9) == 0.0


def test_isospectral_linear_pass(minus_levels12, plus_levels12):
    report = mj.verify_isospectral(
        [e.energy_squared for e in minus_levels12],
        [e.energy_squared for e in plus_levels12],
        tol=5e-3,
    )
    assert report.passed
    assert len(report.diffs) == 10
    assert report.max_diff <= 5e-3


def test_partner_spectra_coincide_for_free_case():
    # phi' = 0 makes V+ = V-: identical matrices, identical levels
    p = mj.PhysicalParams(mass=1.0)
    grid = mj.GridSpec(-10.0, 10.0, 801)
    pair = mj.partner_potentials(p, mj.LinearPotential(0.0), grid)
    lam_minus = [e.energy_squared for e in mj.eigensolve(mj.discretize(p, pair.v_minus), 5)]
    lam_plus = [e.energy_squared for e in mj.eigensolve(mj.discretize(p, pair.v_plus), 5)]
    assert lam_minus == lam_plus


def test_isospectral_negative_control(minus_levels12, plus_levels12):
    shifted = [
        mj.Eigenpair(e.energy_squared + 0.1, e.eigenfunction, e.n, e.sector)
        for e in plus_levels12
    ]
    report = mj.verify_isospectral(
        [e.energy_squared for e in minus_levels12],
        [e.energy_squared for e in shifted],
        tol=5e-3,
    )
    assert not report.passed
    assert all(not diff <= 5e-3 for diff in report.diffs)


# ------------------------------------------------------------ convergence


def test_eigenvalue_convergence_second_order(params, linear_potential, model):
    errors = {}
    for n_points in (1001, 2001):
        grid = mj.default_grid(model, n_points, 12.0)
        pair = mj.partner_potentials(params, linear_potential, grid)
        levels = mj.eigensolve(mj.discretize(params, pair.v_minus), 6)
        errors[n_points] = np.abs(
            np.array([e.energy_squared for e in levels]) - 2.0 * np.arange(6)
        )
    ratios = errors[1001][1:] / errors[2001][1:]
    assert np.all(ratios >= 3.5)


def test_oracle_eigenfunctions_match_analytic(params, model, minus_levels12, grid12):
    y = model.y_of_x(grid12.points())
    for n in range(6):
        analytic = mj.eigenstate_minus(model, n, y)
        got = sign_align(minus_levels12[n].eigenfunction.values, analytic)
        assert sup(got, analytic) <= 1e-3
