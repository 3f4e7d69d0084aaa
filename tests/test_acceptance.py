"""Acceptance suite: every headline result of the solver, at its stated
tolerance, with one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np
import pytest

import majorana1d as mj

from .conftest import l2, sign_align, sup


def report(num: int, label: str, ok: bool, detail: str):
    print(f"[acceptance {num:>2}] {'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


@pytest.fixture(scope="module")
def setup():
    params = mj.PhysicalParams(mass=1.0, c=1.0, hbar=1.0)
    potential = mj.LinearPotential(1.0)
    model = mj.LinearModel(1.0, params)
    return params, potential, model


def test_criterion_1_spectrum_reproduction(setup):
    """Algebraic E_n = sqrt(2n) matches the finite-difference levels of
    H- within 1e-3 on E^2 for n <= 10 (4001 points, y in [-12, 12])."""
    params, potential, model = setup
    start = time.perf_counter()
    grid = mj.default_grid(model, 4001, 12.0)
    family = mj.linear_family(1.0, params)
    algebraic = mj.algebraic_spectrum(family, 10)
    pair = mj.partner_potentials(params, potential, grid)
    levels = mj.eigensolve(mj.discretize(params, pair.v_minus), 11)
    elapsed = time.perf_counter() - start
    worst = max(
        abs(algebraic[n] ** 2 - levels[n].energy_squared) for n in range(11)
    )
    report(
        1,
        "spectrum reproduction",
        worst <= 1e-3 and elapsed < 10.0,
        f"max |E_n^2 - lambda_n| = {worst:.3e} (tol 1e-3), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_zero_mode(setup):
    """The constructed zero mode is annihilated by A and equals the
    shifted Gaussian (w/pi)^(1/4) exp(-w y^2 / 2)."""
    params, potential, model = setup
    start = time.perf_counter()
    grid = mj.default_grid(model)
    cls = mj.zero_mode(params, potential, grid)
    residual = mj.norm(mj.apply_a(params, potential, cls.zero_mode))
    gaussian = mj.eigenstate_minus(model, 0, model.y_of_x(grid.points()))
    mismatch = sup(cls.zero_mode.values, gaussian)
    elapsed = time.perf_counter() - start
    report(
        2,
        "zero mode",
        residual <= 1e-4 and mismatch <= 1e-6 and elapsed < 1.0,
        f"||A phi0|| = {residual:.3e} (tol 1e-4), sup-norm vs Gaussian = "
        f"{mismatch:.3e} (tol 1e-6), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_3_shape_invariance(setup):
    """Measured remainder equals 2 c hbar k within 1e-10 for k in
    {0.5, 1, 3}."""
    params, _, model = setup
    start = time.perf_counter()
    grid = mj.default_grid(model)
    worst = 0.0
    for k in (0.5, 1.0, 3.0):
        result = mj.check_shape_invariance(mj.linear_family(k, params), params, grid)
        worst = max(worst, abs(result.r_measured - 2.0 * k))
        assert result.is_invariant
    elapsed = time.perf_counter() - start
    report(
        3,
        "shape invariance",
        worst <= 1e-10 and elapsed < 1.0,
        f"max |R - 2chk| = {worst:.3e} (tol 1e-10), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_4_isospectrality(setup):
    """Oracle spectra interlace as E+_n = E-_(n+1) within 5e-3 for
    n <= 8."""
    params, potential, model = setup
    start = time.perf_counter()
    grid = mj.default_grid(model, 4001, 12.0)
    pair = mj.partner_potentials(params, potential, grid)
    minus = mj.eigensolve(mj.discretize(params, pair.v_minus, mj.Sector.MINUS), 10)
    plus = mj.eigensolve(mj.discretize(params, pair.v_plus, mj.Sector.PLUS), 9)
    result = mj.verify_isospectral(
        [e.energy_squared for e in minus], [e.energy_squared for e in plus], tol=5e-3
    )
    elapsed = time.perf_counter() - start
    report(
        4,
        "isospectrality",
        result.passed and len(result.diffs) == 9 and elapsed < 10.0,
        f"max |E+_n - E-_(n+1)| = {result.max_diff:.3e} over n<=8 (tol 5e-3), "
        f"{elapsed:.2f}s (< 10s)",
    )


def test_criterion_5_ladder_mapping(setup):
    """Sign-aligned residual ||A phi-_n - E_n phi+_n|| <= 1e-3 for
    n = 1..5 (phi+_n pairs with level n; it is the (n-1)-th plus state)."""
    params, potential, model = setup
    grid = mj.default_grid(model)
    y = model.y_of_x(grid.points())
    worst = 0.0
    for n in range(1, 6):
        state = mj.GridFunction(grid, mj.eigenstate_minus(model, n, y))
        image = mj.apply_a(params, potential, state).values
        target = mj.energy(model, n) * mj.eigenstate_plus(model, n, y)
        image = sign_align(image, target)
        worst = max(worst, l2(grid, image - target))
    report(
        5,
        "ladder mapping",
        worst <= 1e-3,
        f"max residual over n=1..5: {worst:.3e} (tol 1e-3)",
    )


def test_criterion_6_density_trace_periods(setup):
    """Densities for n = 0, 1, 2 at delta = pi/2: the ground state is
    static to 1e-12; excited traces oscillate and their first return,
    located by minimizing ||rho(t) - rho(0)||_inf, sits within 1% of
    half the stated repeat time sqrt(2) pi / (c sqrt(w n)) - the stated
    value is one full phase turn (2 pi hbar / E_n), and rho, built from
    sin^2 and cos^2, returns twice per turn. The stated value itself is
    verified as an exact period of the trace."""
    params, _, model = setup
    grid = mj.default_grid(model)

    def frames(n, t_final, samples):
        # samples equal steps from t = 0 to t_final
        return mj.closed_form_frames(
            model, grid, n, math.pi / 2, t_final / (samples - 1), range(samples)
        )

    static = mj.stationarity_metric(frames(0, mj.density_period(model, 1), 121))
    details = [f"n=0 static to {static:.1e} (tol 1e-12)"]
    ok = static <= 1e-12
    for n in (1, 2):
        stated = mj.density_period(model, n)
        measured = mj.measure_period(frames(n, 1.1 * stated, 441))
        rel = abs(measured - stated / 2.0) / (stated / 2.0)
        # the distance of rho(stated) from rho(0)
        full_turn = mj.stationarity_metric(frames(n, stated, 2))
        ok = ok and rel <= 0.01 and full_turn <= 1e-10
        details.append(
            f"n={n} first return {measured:.4f} = stated/2 within {rel:.1e} "
            f"(tol 1%), rho(T)-rho(0) = {full_turn:.1e}"
        )
    report(6, "density trace periods", ok, "; ".join(details))


def test_criterion_7_dynamical_cross_check(setup):
    """Direct integration of the coupled first-order system over one
    full period returns the n = 1 components within 1e-3 with norm
    drift <= 1e-6 (dt = T/2000, 2001 points)."""
    params, potential, model = setup
    start = time.perf_counter()
    grid = mj.default_grid(model)
    y = model.y_of_x(grid.points())
    period = mj.density_period(model, 1)
    psi1, psi2 = mj.spinor(model, 1, 0.0, y, math.pi / 2)
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid, psi1), mj.GridFunction(grid, psi2)
    )
    run = mj.evolve_pde(initial, params, potential, period, dt=period / 2000.0)
    final = run.final
    error = max(sup(final.psi1.values, psi1), sup(final.psi2.values, psi2))
    elapsed = time.perf_counter() - start
    report(
        7,
        "dynamical cross-check",
        error <= 1e-3 and run.norm_drift <= 1e-6 and elapsed < 30.0,
        f"one-period component error {error:.3e} (tol 1e-3), norm drift "
        f"{run.norm_drift:.1e} (tol 1e-6), {elapsed:.2f}s (< 30s)",
    )


def test_criterion_8_coupling_audit(setup):
    """(0, phi, 0, 0) is accepted; any nonzero f1, f3 or f4 above
    tolerance is rejected with the channel named."""
    _, potential, _ = setup
    grid = mj.GridSpec(-10.0, 10.0, 801)
    zero = mj.zero_potential()
    good = mj.majorana_compatible(
        mj.CouplingSet(zero, potential, zero, zero), grid, 1e-12
    )
    checks = [good.compatible]
    details = [f"scalar-only accepted={good.compatible}"]
    for name, coupling_set in (
        ("f1", mj.CouplingSet(mj.CustomPotential("1"), zero, zero, zero)),
        ("f3", mj.CouplingSet(zero, zero, mj.CustomPotential("x^2"), zero)),
        ("f4", mj.CouplingSet(zero, zero, zero, mj.CustomPotential("sech(x)"))),
    ):
        audit = mj.majorana_compatible(coupling_set, grid, 1e-12)
        rejected = (not audit.compatible) and [o[0] for o in audit.offending] == [name]
        checks.append(rejected)
        details.append(f"{name} rejected={rejected}")
    report(8, "coupling audit", all(checks), ", ".join(details))


def test_criterion_9_non_stationarity(setup):
    """stationarity metric > 0.05 max rho(0) for n = 1, 2 and <= 1e-12
    for the ground state."""
    params, _, model = setup
    grid = mj.default_grid(model)

    def metric(n):
        horizon = mj.density_period(model, max(n, 1))
        frames = mj.closed_form_frames(model, grid, n, math.pi / 2, horizon / 240, range(241))
        _, rho0 = next(mj.closed_form_frames(model, grid, n, math.pi / 2, 0.0, [0]))
        return mj.stationarity_metric(frames), float(rho0.max())

    m0, _ = metric(0)
    ok = m0 <= 1e-12
    details = [f"n=0 metric {m0:.1e} (tol 1e-12)"]
    for n in (1, 2):
        m, peak = metric(n)
        ok = ok and m > 0.05 * peak
        details.append(f"n={n} metric {m:.3f} > 0.05*max(rho0)={0.05 * peak:.3f}")
    report(9, "non-stationarity", ok, "; ".join(details))


def test_criterion_10_negative_slope_symmetry(setup):
    """Spectra for k and -k coincide within oracle tolerance and the
    k < 0 states are the row-exchanged k > 0 states."""
    params, _, model = setup
    pos = mj.LinearModel(1.0, params)
    neg = mj.LinearModel(-1.0, params)
    lam = {}
    for m, pot in ((pos, mj.LinearPotential(1.0)), (neg, mj.LinearPotential(-1.0))):
        grid = mj.default_grid(m, 4001, 12.0)
        pair = mj.partner_potentials(params, pot, grid)
        lam[m.k] = {
            sector: [
                e.energy_squared
                for e in mj.eigensolve(
                    mj.discretize(params, v, sector), 9
                )
            ]
            for sector, v in (
                (mj.Sector.MINUS, pair.v_minus),
                (mj.Sector.PLUS, pair.v_plus),
            )
        }
    spectral = max(
        max(
            abs(a - b)
            for a, b in zip(lam[1.0][mj.Sector.MINUS], lam[-1.0][mj.Sector.PLUS])
        ),
        max(
            abs(a - b)
            for a, b in zip(lam[1.0][mj.Sector.PLUS], lam[-1.0][mj.Sector.MINUS])
        ),
    )
    y = np.linspace(-6.0, 6.0, 241)
    exchange = 0.0
    for n in (0, 1, 2):
        a_pos, b_pos = mj.spinor(pos, n, 0.8, y, 0.7)
        a_neg, b_neg = mj.spinor(neg, n, 0.8, y, 0.7)
        exchange = max(exchange, sup(a_neg, b_pos), sup(b_neg, a_pos))
    report(
        10,
        "negative-slope symmetry",
        spectral <= 1e-3 and exchange <= 1e-14,
        f"sector-swapped spectra differ by {spectral:.1e} (tol 1e-3), "
        f"row-exchange residual {exchange:.1e}",
    )


def test_criterion_11_convergence_order(setup):
    """Eigenvalue and one-period integration errors shrink by >= 3.5x
    under grid/step halving (both discretizations are second order)."""
    params, potential, model = setup
    eig_errors = {}
    for n_points in (1001, 2001):
        grid = mj.default_grid(model, n_points, 12.0)
        pair = mj.partner_potentials(params, potential, grid)
        levels = mj.eigensolve(mj.discretize(params, pair.v_minus), 6)
        eig_errors[n_points] = np.abs(
            np.array([e.energy_squared for e in levels]) - 2.0 * np.arange(6)
        )
    eig_ratio = float(np.min(eig_errors[1001][1:] / eig_errors[2001][1:]))

    period = mj.density_period(model, 1)

    def pde_error(n_points, steps):
        grid = mj.default_grid(model, n_points)
        y = model.y_of_x(grid.points())
        a, b = mj.spinor(model, 1, 0.0, y, math.pi / 2)
        initial = mj.MajoranaSpinorState(
            mj.GridFunction(grid, a), mj.GridFunction(grid, b)
        )
        final = mj.evolve_pde(initial, params, potential, period, dt=period / steps).final
        r1, r2 = mj.spinor(model, 1, final.t, y, math.pi / 2)
        return max(sup(final.psi1.values, r1), sup(final.psi2.values, r2))

    pde_ratio = pde_error(1001, 200) / pde_error(2001, 400)
    report(
        11,
        "convergence order",
        eig_ratio >= 3.5 and pde_ratio >= 3.5,
        f"eigenvalue halving ratio {eig_ratio:.2f}, PDE halving ratio "
        f"{pde_ratio:.2f} (both >= 3.5)",
    )
