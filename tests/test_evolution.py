import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import splu

import majorana1d as mj
from majorana1d.evolution import staggered_ladder

from .conftest import sup


def analytic_pair(model, grid, n):
    y = model.y_of_x(grid.points())
    phi_minus = mj.GridFunction(grid, mj.eigenstate_minus(model, n, y))
    if n == 0:
        phi_plus = mj.GridFunction(grid, np.zeros(grid.n_points))
    else:
        phi_plus = mj.GridFunction(grid, mj.eigenstate_plus(model, n, y))
    return phi_minus, phi_plus


def linear_trace(model, grid, n, t_final, samples=481, delta=math.pi / 2):
    phi_minus, phi_plus = analytic_pair(model, grid, n)
    times = np.linspace(0.0, t_final, samples)
    return mj.analytic_trace(phi_minus, phi_plus, mj.energy(model, n), delta, times)


# --------------------------------------------------------------- assembly


def test_assemble_ground_state_with_quarter_phase(model, grid10):
    phi_minus, phi_plus = analytic_pair(model, grid10, 0)
    state = mj.assemble_state(phi_minus, phi_plus, 0.0, math.pi / 2, t=3.0)
    assert np.allclose(state.psi1.values, phi_minus.values)
    assert np.all(state.psi2.values == 0.0)


def test_assemble_zero_phase_starts_in_plus_component(model, grid10):
    phi_minus, phi_plus = analytic_pair(model, grid10, 1)
    state = mj.assemble_state(phi_minus, phi_plus, mj.energy(model, 1), 0.0, t=0.0)
    assert np.allclose(state.psi1.values, 0.0, atol=1e-15)
    assert np.allclose(state.psi2.values, phi_plus.values)


def test_assemble_quarter_period_swaps_components(model, grid10):
    phi_minus, phi_plus = analytic_pair(model, grid10, 1)
    energy = mj.energy(model, 1)
    state = mj.assemble_state(phi_minus, phi_plus, energy, 0.0, t=math.pi / (2 * energy))
    assert np.allclose(state.psi1.values, phi_minus.values)
    assert np.allclose(state.psi2.values, 0.0, atol=1e-12)


def test_assemble_rejects_grid_mismatch(model, grid10):
    phi_minus, _ = analytic_pair(model, grid10, 0)
    other = mj.sample(mj.GridSpec(-1.0, 1.0, grid10.n_points), lambda x: x)
    with pytest.raises(mj.GridMismatchError):
        mj.assemble_state(phi_minus, other, 0.0, 0.0, t=0.0)


# ---------------------------------------------------------------- density


def test_ground_state_density_profile(model, grid10):
    phi_minus, phi_plus = analytic_pair(model, grid10, 0)
    y = model.y_of_x(grid10.points())
    for t in (0.0, 1.3):
        state = mj.assemble_state(phi_minus, phi_plus, 0.0, math.pi / 2, t=t)
        rho = mj.probability_density(state)
        assert sup(rho.values, np.sqrt(model.w / np.pi) * np.exp(-model.w * y**2)) <= 1e-12


def test_first_excited_density_vanishes_at_origin(model, grid10):
    phi_minus, phi_plus = analytic_pair(model, grid10, 1)
    state = mj.assemble_state(phi_minus, phi_plus, mj.energy(model, 1), math.pi / 2, t=0.0)
    rho = mj.probability_density(state)
    y = model.y_of_x(grid10.points())
    assert rho.values[int(np.argmin(np.abs(y)))] == pytest.approx(0.0, abs=1e-20)


@given(st.integers(0, 4), st.floats(0, 10, allow_nan=False))
@settings(max_examples=40)
def test_density_is_nonnegative(n, t):
    model = mj.LinearModel(1.0, mj.PhysicalParams())
    grid = mj.default_grid(model, 301)
    phi_minus, phi_plus = analytic_pair(model, grid, n)
    state = mj.assemble_state(phi_minus, phi_plus, mj.energy(model, n), 0.4, t=t)
    assert np.all(mj.probability_density(state).values >= 0.0)


# ----------------------------------------------------------------- period


def test_density_period_values(model):
    assert mj.density_period(model, 1) == pytest.approx(math.sqrt(2.0) * math.pi)
    assert mj.density_period(model, 2) == pytest.approx(math.pi)


def test_density_period_is_full_phase_turn(model):
    # T = 2 pi hbar / E_n: the spinor phase advances one full turn.
    # The density itself, built from sin^2/cos^2, first returns at T/2.
    for n in (1, 2, 5):
        T = mj.density_period(model, n)
        assert T * mj.energy(model, n) / model.params.hbar == pytest.approx(2.0 * math.pi)


def test_density_period_undefined_for_ground_state(model):
    with pytest.raises(mj.StationaryStateError):
        mj.density_period(model, 0)


def test_measured_first_return_is_half_the_phase_period(model, grid10):
    for n in (1, 2):
        T = mj.density_period(model, n)
        trace = linear_trace(model, grid10, n, 1.1 * T, samples=441)
        measured = mj.measure_period(trace)
        assert measured == pytest.approx(T / 2.0, rel=1e-4)


def test_stated_period_is_a_true_period(model, grid10):
    phi_minus, phi_plus = analytic_pair(model, grid10, 1)
    T = mj.density_period(model, 1)
    energy = mj.energy(model, 1)
    rng = np.random.default_rng(7)
    for t in rng.uniform(0.0, T, 4):
        rho_t = mj.probability_density(
            mj.assemble_state(phi_minus, phi_plus, energy, math.pi / 2, t=t)
        )
        rho_tT = mj.probability_density(
            mj.assemble_state(phi_minus, phi_plus, energy, math.pi / 2, t=t + T)
        )
        assert sup(rho_t.values, rho_tT.values) <= 1e-6


# ------------------------------------------------------------ stationarity


def test_ground_state_trace_is_stationary(model, grid10):
    trace = linear_trace(model, grid10, 0, mj.density_period(model, 1))
    assert mj.stationarity_metric(trace) <= 1e-12


def test_excited_states_oscillate_visibly(model, grid10):
    for n in (1, 2):
        trace = linear_trace(model, grid10, n, mj.density_period(model, n))
        metric = mj.stationarity_metric(trace)
        assert metric >= 0.1 * math.sqrt(model.w)
        assert metric > 0.05 * float(trace.densities[0].values.max())


def test_single_sample_trace_has_zero_metric(model, grid10):
    trace = linear_trace(model, grid10, 1, 0.0, samples=1)
    assert mj.stationarity_metric(trace) == 0.0


def test_analytic_norm_conservation(model, grid10):
    trace = linear_trace(model, grid10, 2, 2.0 * mj.density_period(model, 2))
    assert trace.norm_drift <= 1e-10


def test_state_norm_of_assembled_state(model, grid10):
    phi_minus, phi_plus = analytic_pair(model, grid10, 3)
    state = mj.assemble_state(phi_minus, phi_plus, mj.energy(model, 3), 0.9, t=2.2)
    assert mj.state_norm(state) == pytest.approx(1.0, abs=1e-8)


# ------------------------------------------------------------------- PDE


def test_pde_returns_after_one_period(params, linear_potential, model, grid10):
    T = mj.density_period(model, 1)
    y = model.y_of_x(grid10.points())
    psi1, psi2 = mj.spinor(model, 1, 0.0, y, math.pi / 2)
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid10, psi1), mj.GridFunction(grid10, psi2)
    )
    trace, final = mj.evolve_pde(initial, params, linear_potential, T, dt=T / 2000)
    assert sup(final.psi1.values, psi1) <= 1e-3
    assert sup(final.psi2.values, psi2) <= 1e-3
    assert trace.norm_drift <= 1e-6


def test_pde_ground_state_density_constant(params, linear_potential, model):
    # the residual of the sampled zero mode under the *discrete* ladder
    # scales as h^2, so the 1e-6 constancy target needs a fine grid
    grid = mj.default_grid(model, 16001)
    y = model.y_of_x(grid.points())
    psi1, psi2 = mj.spinor(model, 0, 0.0, y, math.pi / 2)
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid, psi1), mj.GridFunction(grid, psi2)
    )
    T = mj.density_period(model, 1)
    trace, _ = mj.evolve_pde(initial, params, linear_potential, 2.0, dt=T / 2000)
    drift = max(sup(d.values, trace.densities[0].values) for d in trace.densities)
    assert drift <= 1e-6


def test_pde_ground_state_density_nearly_constant_at_default_grid(
    params, linear_potential, model, grid10
):
    y = model.y_of_x(grid10.points())
    psi1, psi2 = mj.spinor(model, 0, 0.0, y, math.pi / 2)
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid10, psi1), mj.GridFunction(grid10, psi2)
    )
    trace, _ = mj.evolve_pde(initial, params, linear_potential, 2.0, dt=0.002)
    drift = max(sup(d.values, trace.densities[0].values) for d in trace.densities)
    assert drift <= 1e-4


def test_pde_free_case_conserves_norm(params):
    grid = mj.GridSpec(-20.0, 20.0, 2001)
    x = grid.points()
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid, np.exp(-0.5 * (x + 3.0) ** 2)),
        mj.GridFunction(grid, 0.5 * np.exp(-0.4 * (x - 2.0) ** 2)),
    )
    trace, _ = mj.evolve_pde(initial, params, mj.LinearPotential(0.0), 10.0, dt=0.005)
    assert trace.norm_drift <= 1e-6


def test_pde_rejects_bad_time_step(params, linear_potential, model, grid10):
    y = model.y_of_x(grid10.points())
    psi1, psi2 = mj.spinor(model, 0, 0.0, y, math.pi / 2)
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid10, psi1), mj.GridFunction(grid10, psi2)
    )
    with pytest.raises(ValueError):
        mj.evolve_pde(initial, params, linear_potential, 1.0, dt=-0.1)


def test_pde_rejects_state_outside_grid(params, linear_potential, model):
    # the level-1 state sits at x = -1; on [100, 110] it underflows to zero
    grid = mj.GridSpec(100.0, 110.0, 201)
    y = model.y_of_x(grid.points())
    psi1, psi2 = mj.spinor(model, 1, 0.0, y, math.pi / 2)
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid, psi1), mj.GridFunction(grid, psi2)
    )
    with pytest.raises(mj.DegenerateFunctionError):
        mj.evolve_pde(initial, params, linear_potential, 1.0, dt=0.01)


def test_pde_default_time_step_runs(params, linear_potential, model):
    grid = mj.default_grid(model, 301)
    y = model.y_of_x(grid.points())
    psi1, psi2 = mj.spinor(model, 0, 0.0, y, math.pi / 2)
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid, psi1), mj.GridFunction(grid, psi2)
    )
    trace, final = mj.evolve_pde(initial, params, linear_potential, 0.05)
    assert trace.norm_drift <= 1e-6
    assert final.t == pytest.approx(0.05)


def test_pde_samples_the_frame_steps(params, linear_potential, model, grid10):
    # 7 does not divide the 100 steps: the last frame is the last step
    y = model.y_of_x(grid10.points())
    psi1, psi2 = mj.spinor(model, 1, 0.0, y, math.pi / 2)
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid10, psi1), mj.GridFunction(grid10, psi2)
    )
    dt = 0.5 / 100
    trace, _ = mj.evolve_pde(initial, params, linear_potential, 0.5, dt=dt, stride=7)
    steps = mj.frame_steps(100, 7)
    assert steps[-2:] == [98, 100]
    assert trace.times.tolist() == [dt * step for step in steps]


def test_pde_components_stay_real(params, linear_potential, model, grid10):
    # reality is structural: the state type only carries real arrays
    y = model.y_of_x(grid10.points())
    psi1, psi2 = mj.spinor(model, 1, 0.0, y, math.pi / 2)
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid10, psi1), mj.GridFunction(grid10, psi2)
    )
    _, final = mj.evolve_pde(initial, params, linear_potential, 0.5, dt=0.005)
    assert final.psi1.values.dtype == np.float64
    assert final.psi2.values.dtype == np.float64


def test_pde_error_shrinks_with_joint_refinement(params, linear_potential, model):
    # both the stencil and the midpoint step are second order, so
    # halving h and dt together shrinks the one-period error ~4x
    T = mj.density_period(model, 1)

    def one_period_error(n_points, steps):
        grid = mj.default_grid(model, n_points)
        y = model.y_of_x(grid.points())
        a, b = mj.spinor(model, 1, 0.0, y, math.pi / 2)
        initial = mj.MajoranaSpinorState(
            mj.GridFunction(grid, a), mj.GridFunction(grid, b)
        )
        _, final = mj.evolve_pde(initial, params, linear_potential, T, dt=T / steps)
        r1, r2 = mj.spinor(model, 1, final.t, y, math.pi / 2)
        return max(sup(final.psi1.values, r1), sup(final.psi2.values, r2))

    coarse = one_period_error(1001, 200)
    fine = one_period_error(2001, 400)
    assert coarse / fine >= 3.5


def block_cayley_reference(initial, p, phi, t_final, dt, stride):
    """The implicit-midpoint step solved on the full (2m+1)-unknown
    generator G = [[0, Aᵀ], [-A, 0]] with SuperLU, where A is the
    (m+1)×m bidiagonal staggered ladder from interior nodes to
    midpoints. psi2 enters as the midpoint average of the nodes and
    leaves as the node average of the midpoints; norms are sampled on
    the same schedule as ``evolve_pde``. Returns (norms, psi1, psi2)
    with psi1, psi2 on the interior nodes."""
    spec = initial.spec
    w = np.asarray(mj.superpotential(p, phi, spec.points()), dtype=float)[1:-1]
    n_steps = max(1, round(t_final / dt))
    dt = t_final / n_steps
    m = spec.n_points - 2
    coef = p.c * p.hbar / spec.h
    a_mat = sparse.diags(
        [coef + 0.5 * w, -coef + 0.5 * w], offsets=[0, -1], shape=(m + 1, m), format="csr"
    )
    gen = sparse.bmat([[None, a_mat.T], [-a_mat, None]], format="csr")
    alpha = dt / (2.0 * p.hbar)
    eye = sparse.identity(2 * m + 1, format="csr")
    stepper = splu((eye - alpha * gen).tocsc())
    forward = (eye + alpha * gen).tocsr()

    psi2 = initial.psi2.values
    u = np.concatenate([initial.psi1.values[1:-1], 0.5 * (psi2[:-1] + psi2[1:])])

    def norm():
        return spec.h * float(np.sum(u**2))

    norms = [norm()]
    for step in range(1, n_steps + 1):
        u = stepper.solve(forward @ u)
        if step % stride == 0 or step == n_steps:
            norms.append(norm())
    return np.array(norms), u[:m], 0.5 * (u[m:-1] + u[m + 1 :])


@pytest.mark.parametrize("n_points", [3, 4, 2001])
def test_pde_matches_block_cayley_reference(params, linear_potential, model, n_points):
    # n_points = 3 leaves one interior node between two midpoints
    grid = mj.default_grid(model, n_points)
    x = grid.points()
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid, np.exp(-0.5 * (x + 2.0) ** 2)),
        mj.GridFunction(grid, 0.5 * np.exp(-0.4 * (x - 1.0) ** 2)),
    )
    T = mj.density_period(model, 1)
    trace, final = mj.evolve_pde(initial, params, linear_potential, T, dt=T / 2000, stride=50)
    norms, psi1, psi2 = block_cayley_reference(
        initial, params, linear_potential, T, T / 2000, stride=50
    )
    assert sup(final.psi1.values[1:-1], psi1) <= 1e-10
    assert sup(final.psi2.values[1:-1], psi2) <= 1e-10
    assert len(trace.norms) == len(norms)
    assert sup(trace.norms, norms) <= 1e-10


def test_staggered_ladder_has_no_doublers(params, linear_potential, grid12):
    # the central-difference ladder gives AᵀA levels 0, 2, 2, 4, 4, ...:
    # every level but the zero mode appears twice (fermion doubling)
    left, right = staggered_ladder(params, linear_potential, grid12)
    levels = eigh_tridiagonal(
        left**2 + right**2,
        right[:-1] * left[1:],
        eigvals_only=True,
        select="i",
        select_range=(0, 3),
    )
    assert sup(levels, np.array([0.0, 2.0, 4.0, 6.0])) <= 1e-3
    assert levels[2] - levels[1] > 1.0


def test_import_does_not_load_scipy_sparse():
    src = str(Path(mj.__file__).resolve().parent.parent)
    modules = ("scipy", "multiprocessing", "concurrent.futures")
    code = f"import sys, majorana1d; print([m for m in {modules!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


def test_solvers_load_only_the_lapack_extension():
    # the solvers take their routines from scipy.linalg._flapack without
    # running the scipy.linalg package; a later import of the package must
    # hand out the very same routines
    src = str(Path(mj.__file__).resolve().parent.parent)
    code = """
import math, sys
import numpy as np
import majorana1d as mj
from majorana1d import _lapack

model = mj.LinearModel(1.0)
grid = mj.GridSpec(-11.0, 9.0, 201)
op = mj.discretize(model.params, mj.GridFunction(grid, grid.points() + 1.0))
mj.eigenvalues(op, 3)
mj.eigensolve(op, 2)[1].eigenfunction
y = model.y_of_x(grid.points())
psi1, psi2 = mj.spinor(model, 1, 0.0, y, math.pi / 2)
initial = mj.MajoranaSpinorState(mj.GridFunction(grid, psi1), mj.GridFunction(grid, psi2))
mj.evolve_pde(initial, model.params, mj.LinearPotential(1.0), 0.03, dt=0.01)
print("scipy.linalg" in sys.modules)

from scipy.linalg.lapack import get_lapack_funcs

names = ("stebz", "stein", "pttrf", "pttrs")
funcs = get_lapack_funcs(names, (np.zeros(1),))
print(all(f is getattr(_lapack.flapack(), "d" + n) for f, n in zip(funcs, names)))
"""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.split() == ["False", "True"]
