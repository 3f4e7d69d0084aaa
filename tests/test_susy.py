import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import majorana1d as mj

from .conftest import l2, sign_align, sup


# ----------------------------------------------------- partner potentials


def test_partner_potentials_linear(params, linear_potential, grid10):
    pair = mj.partner_potentials(params, linear_potential, grid10)
    x = grid10.points()
    # V∓ = (mc² + kx)² ∓ cħk = 1 + x² + 2x ∓ 1
    assert sup(pair.v_minus.values, x**2 + 2 * x) <= 1e-12
    i0 = int(np.argmin(np.abs(x)))
    assert pair.v_minus.values[i0] == pytest.approx(0.0, abs=1e-12)
    assert pair.v_plus.values[i0] == pytest.approx(2.0, abs=1e-12)


def test_partner_potentials_free_case():
    p = mj.PhysicalParams(mass=1.0)
    grid = mj.GridSpec(-5.0, 5.0, 101)
    pair = mj.partner_potentials(p, mj.LinearPotential(0.0), grid)
    assert np.allclose(pair.v_minus.values, 1.0)
    assert np.allclose(pair.v_plus.values, 1.0)


def test_partner_gap_is_twice_derivative(params, grid10):
    pot = mj.ScarfPotential(1.5, 0.7, 1.2)
    pair = mj.partner_potentials(params, pot, grid10)
    gap = pair.v_plus.values - pair.v_minus.values
    assert sup(gap, 2.0 * pot.derivative(grid10.points())) <= 1e-10


# -------------------------------------------------------- ladder operators


def test_apply_a_annihilates_ground_state(params, linear_potential, model, grid10):
    y = model.y_of_x(grid10.points())
    ground = mj.GridFunction(grid10, mj.eigenstate_minus(model, 0, y))
    residual = mj.apply_a(params, linear_potential, ground)
    assert mj.norm(residual) <= 1e-4


@pytest.mark.parametrize("k", [1.0, -1.0])
def test_annihilation_residual_applies_the_sector_ladder(params, grid10, k):
    # k > 0 hosts the zero mode in the minus sector (A annihilates it),
    # k < 0 in the plus sector (A† does)
    potential = mj.LinearPotential(k)
    cls = mj.zero_mode(params, potential, grid10)
    assert cls.sector is (mj.Sector.MINUS if k > 0 else mj.Sector.PLUS)
    assert cls.annihilation_residual(params, potential) <= 1e-4


def test_annihilation_residual_needs_a_zero_mode(params, grid10):
    cls = mj.zero_mode(params, mj.LinearPotential(0.0), grid10)
    with pytest.raises(mj.BrokenSusyError):
        cls.annihilation_residual(params, mj.LinearPotential(0.0))


def test_apply_a_on_constant_with_flat_potential():
    p = mj.PhysicalParams(mass=1.0)
    grid = mj.GridSpec(-5.0, 5.0, 101)
    f = mj.sample(grid, lambda x: np.ones_like(x))
    out = mj.apply_a(p, mj.LinearPotential(0.0), f)
    assert np.allclose(out.values, 1.0, atol=1e-13)


def test_factorization_matches_oracle_matrix(params, linear_potential, model, grid10):
    # A†A acting on a smooth decaying function reproduces the
    # discretized H- within the stencil-difference budget
    y = model.y_of_x(grid10.points())
    f = mj.GridFunction(grid10, np.exp(-0.5 * (y - 1.3) ** 2 / 1.21))
    pair = mj.partner_potentials(params, linear_potential, grid10)
    op = mj.discretize(params, pair.v_minus)
    via_ladder = mj.apply_a_dagger(params, linear_potential, mj.apply_a(params, linear_potential, f))
    lhs = via_ladder.values[1:-1]
    rhs = op.matvec(f.values[1:-1])
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) <= 1e-3


def test_discrete_adjointness(params, linear_potential, model, grid10):
    y = model.y_of_x(grid10.points())
    f = mj.GridFunction(grid10, np.exp(-0.5 * (y - 1.0) ** 2) * np.sin(y))
    g = mj.GridFunction(grid10, np.exp(-0.4 * (y + 0.5) ** 2) * (y**2 - 1.0))
    lhs = mj.inner_product(mj.apply_a(params, linear_potential, f), g)
    rhs = mj.inner_product(f, mj.apply_a_dagger(params, linear_potential, g))
    assert abs(lhs - rhs) <= 1e-6 * mj.norm(f) * mj.norm(g)


# --------------------------------------------------------------- zero mode


def test_zero_mode_linear_is_shifted_gaussian(params, linear_potential, model, grid10):
    cls = mj.zero_mode(params, linear_potential, grid10)
    assert cls.unbroken and cls.sector is mj.Sector.MINUS
    y = model.y_of_x(grid10.points())
    assert sup(cls.zero_mode.values, mj.eigenstate_minus(model, 0, y)) <= 1e-6


def test_zero_mode_negative_slope_lives_in_plus_sector(params, grid10):
    cls = mj.zero_mode(params, mj.LinearPotential(-1.0), grid10)
    assert cls.unbroken and cls.sector is mj.Sector.PLUS


def test_zero_mode_free_massive_is_broken(params):
    grid = mj.GridSpec(-10.0, 10.0, 2001)
    cls = mj.zero_mode(params, mj.LinearPotential(0.0), grid)
    assert not cls.unbroken
    assert cls.zero_mode is None and cls.sector is None


def test_zero_mode_flat_superpotential_is_inconsistent():
    # W = 0 on an absurdly wide box: both constant candidates sneak
    # under the boundary threshold, which the classifier must refuse
    p = mj.PhysicalParams(mass=0.0)
    grid = mj.GridSpec(0.0, 4e12, 101)
    with pytest.raises(mj.SusyConsistencyError):
        mj.zero_mode(p, mj.LinearPotential(0.0), grid)


# --------------------------------------------------------- shape invariance


@pytest.mark.parametrize("k", [0.5, 1.0, 3.0])
def test_linear_family_remainder(params, grid10, k):
    fam = mj.linear_family(k, params)
    result = mj.check_shape_invariance(fam, params, grid10)
    assert result.is_invariant
    assert result.r_measured == pytest.approx(2.0 * k, abs=1e-10)


def test_cubic_family_is_not_shape_invariant(params, grid10):
    fam = mj.ShapeInvariantFamily(
        potential_at=lambda a: mj.CustomPotential("a*x^3", {"a": a}),
        next_parameter=lambda a: a,
        remainder=lambda a: 0.0,
        a1=1.0,
    )
    result = mj.check_shape_invariance(fam, params, grid10)
    assert not result.is_invariant
    assert result.spread > 1.0


def test_algebraic_spectrum_linear(params):
    fam = mj.linear_family(1.0, params)
    expected = [0.0, np.sqrt(2.0), 2.0, np.sqrt(6.0)]
    assert np.allclose(mj.algebraic_spectrum(fam, 3), expected, atol=1e-14)


def test_algebraic_spectrum_n_zero(params):
    assert mj.algebraic_spectrum(mj.linear_family(1.0, params), 0).tolist() == [0.0]


def test_algebraic_spectrum_k_two(params):
    fam = mj.linear_family(2.0, params)
    assert mj.algebraic_spectrum(fam, 1)[1] == pytest.approx(2.0)


def test_algebraic_spectrum_rejects_negative_sums(params):
    fam = mj.ShapeInvariantFamily(
        potential_at=lambda a: mj.LinearPotential(a),
        next_parameter=lambda a: a,
        remainder=lambda a: -1.0,
        a1=1.0,
    )
    with pytest.raises(mj.InvalidFamilyError):
        mj.algebraic_spectrum(fam, 2)


@given(st.floats(0.1, 10.0, allow_nan=False), st.integers(1, 12))
@settings(max_examples=60)
def test_spectrum_monotone_for_positive_remainders(k, n_max):
    fam = mj.linear_family(k, mj.PhysicalParams())
    energies = mj.algebraic_spectrum(fam, n_max)
    assert np.all(np.diff(energies) >= 0)


# ---------------------------------------------------------- the hierarchy


def test_hierarchy_matches_analytic_states(params, model, grid10):
    fam = mj.linear_family(1.0, params)
    minus, plus = mj.state_hierarchy(params, fam, grid10, 5)
    y = model.y_of_x(grid10.points())
    for n in range(6):
        analytic = mj.eigenstate_minus(model, n, y)
        got = sign_align(minus[n].eigenfunction.values, analytic)
        assert sup(got, analytic) <= 2e-4
        assert minus[n].energy_squared == pytest.approx(2.0 * n, abs=1e-12)
    # first plus state is the nodeless Gaussian paired with E_1
    gauss = mj.eigenstate_minus(model, 0, y)
    assert sup(sign_align(plus[0].eigenfunction.values, gauss), gauss) <= 1e-4
    assert plus[0].energy_squared == pytest.approx(2.0)


def test_hierarchy_overlaps_are_orthonormal(params, grid10):
    fam = mj.linear_family(1.0, params)
    minus, _ = mj.state_hierarchy(params, fam, grid10, 3)
    gram = mj.gram_matrix(minus)
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-4


def test_hierarchy_requires_unbroken_minus(params, grid10):
    fam = mj.ShapeInvariantFamily(
        potential_at=lambda a: mj.LinearPotential(0.0),
        next_parameter=lambda a: a,
        remainder=lambda a: 0.0,
        a1=1.0,
    )
    with pytest.raises(mj.BrokenSusyError):
        mj.state_hierarchy(params, fam, grid10, 2)


def test_ladder_mapping_residuals(params, linear_potential, model, grid10):
    y = model.y_of_x(grid10.points())
    for n in range(1, 6):
        state = mj.GridFunction(grid10, mj.eigenstate_minus(model, n, y))
        image = mj.apply_a(params, linear_potential, state).values
        target = mj.energy(model, n) * mj.eigenstate_plus(model, n, y)
        image = sign_align(image, target)
        assert l2(grid10, image - target) <= 1e-3


def test_oracle_eigenvalues_solves_the_sector_potential(params, linear_potential, grid10):
    pair = mj.partner_potentials(params, linear_potential, grid10)
    for sector, v in ((mj.Sector.MINUS, pair.v_minus), (mj.Sector.PLUS, pair.v_plus)):
        expected = mj.eigenvalues(mj.discretize(params, v, sector), 4)
        assert np.array_equal(mj.oracle_eigenvalues(pair, sector, 4), expected)
    assert mj.Sector.MINUS.partner is mj.Sector.PLUS
    assert mj.Sector.PLUS.partner is mj.Sector.MINUS


def test_isospectral_partner_levels(minus_levels12, plus_levels12):
    report = mj.verify_isospectral(
        [e.energy_squared for e in minus_levels12],
        [e.energy_squared for e in plus_levels12],
        tol=5e-3,
    )
    assert report.passed


# ---------------------------------------------------- poschl-teller family


def test_poschl_teller_family_remainder_and_spectrum():
    p = mj.PhysicalParams(mass=0.0)
    fam = mj.poschl_teller_family(3.0, 1.0, p)
    grid = mj.GridSpec(-20.0, 20.0, 2001)
    result = mj.check_shape_invariance(fam, p, grid)
    assert result.is_invariant
    assert result.r_measured == pytest.approx(9.0 - 4.0, abs=1e-10)
    energies = mj.algebraic_spectrum(fam, 2)
    assert np.allclose(energies, [0.0, np.sqrt(5.0), np.sqrt(8.0)])
    # oracle cross-check
    pair = mj.partner_potentials(p, mj.PoschlTellerPotential(3.0, 1.0), grid)
    levels = mj.eigensolve(mj.discretize(p, pair.v_minus), 3)
    for n in range(3):
        assert abs(levels[n].energy_squared - energies[n] ** 2) <= 1e-3


def test_poschl_teller_family_needs_massless_fermion():
    with pytest.raises(mj.InvalidFamilyError):
        mj.poschl_teller_family(3.0, 1.0, mj.PhysicalParams(mass=1.0))


def test_linear_family_rejects_nonpositive_slope(params):
    with pytest.raises(mj.InvalidFamilyError):
        mj.linear_family(-1.0, params)


@pytest.mark.parametrize(
    "mass, potential, label, a1",
    [
        (1.0, mj.LinearPotential(1.5), "linear", 1.5),
        (1.0, mj.LinearPotential(-1.5), "linear", 1.5),
        (0.0, mj.PoschlTellerPotential(-3.0, 1.0), "poschl_teller", 3.0),
        (1.0, mj.LinearPotential(0.0), None, None),
        (1.0, mj.PoschlTellerPotential(3.0, 1.0), None, None),
        (0.0, mj.RosenMorsePotential(2.0, 0.5), None, None),
        (0.0, mj.ScarfPotential(2.0, 0.5), None, None),
        (0.0, mj.CustomPotential("x"), None, None),
    ],
    ids=["linear", "linear_negative", "poschl_teller", "free", "massive_poschl_teller",
         "rosen_morse", "scarf", "custom"],
)
def test_builtin_family(mass, potential, label, a1):
    fam = mj.builtin_family(mj.PhysicalParams(mass=mass), potential)
    if label is None:
        assert fam is None
    else:
        assert (fam.label, fam.a1) == (label, a1)


@pytest.mark.parametrize(
    "depth, width, hbar, bound",
    [(2.0, 1.0, 1.0, 2), (3.0, 1.0, 1.0, 3), (4.95, 1.0, 1.0, 5), (5.05, 1.0, 1.0, 6),
     (1.0, 0.5, 1.0, 2), (2.0, 1.0, 0.3, 7), (0.5, 1.0, 1.0, 1)],
)
def test_poschl_teller_family_binds_the_levels_below_depth_over_step(depth, width, hbar, bound):
    # level n needs a positive a_(n+1) = depth - n c hbar width: n < depth / (c hbar width)
    p = mj.PhysicalParams(mass=0.0, hbar=hbar)
    fam = mj.poschl_teller_family(depth, width, p)
    assert fam.bound_levels == bound
    assert fam.parameters(bound)[-1] > 0 >= fam.parameters(bound + 1)[-1]
    fam.require_bound(bound - 1, "spectrum.n_max")
    with pytest.raises(mj.UnboundLevelError, match=f"spectrum.n_max is {bound}, .* binds only {bound} "):
        fam.require_bound(bound, "spectrum.n_max")
    # the linear family binds every level
    assert mj.linear_family(1.0, p).bound_levels is None
    mj.linear_family(1.0, p).require_bound(10**6, "spectrum.n_max")


def test_builtin_poschl_teller_family_mirrors_a_negative_width():
    p = mj.PhysicalParams(mass=0.0)
    mirrored = mj.builtin_family(p, mj.PoschlTellerPotential(3.0, -1.0))
    reference = mj.builtin_family(p, mj.PoschlTellerPotential(-3.0, 1.0))
    assert (mirrored.a1, mirrored.bound_levels) == (reference.a1, reference.bound_levels) == (3.0, 3)
    assert mirrored.parameters(3) == reference.parameters(3) == [3.0, 2.0, 1.0]
    assert mj.builtin_family(p, mj.PoschlTellerPotential(3.0, 0.0)) is None
