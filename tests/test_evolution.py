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
from majorana1d import evolution
from majorana1d.evolution import staggered_ladder, time_grid
from majorana1d.model import trapezoid

from .conftest import sample, sup


def linear_frames(model, grid, n, t_final, samples=481, delta=math.pi / 2):
    """The closed-form level-``n`` frames at ``samples`` equal steps from
    t = 0 to ``t_final``."""
    return mj.closed_form_frames(
        model, grid, n, delta, t_final / (samples - 1), range(samples)
    )


def frame_at(model, grid, n, t, delta=math.pi / 2):
    """The closed-form level-``n`` density at time ``t``."""
    return next(mj.closed_form_frames(model, grid, n, delta, t, [1]))[1]


# --------------------------------------------------------------- assembly


def test_assemble_ground_state_with_quarter_phase(model, grid10):
    y = model.y_of_x(grid10.points())
    psi1, psi2 = mj.spinor(model, 0, 3.0, y, math.pi / 2)
    assert np.allclose(psi1, mj.host_state(model, 0, y))
    assert np.all(psi2 == 0.0)


def test_assemble_zero_phase_starts_in_plus_component(model, grid10):
    y = model.y_of_x(grid10.points())
    psi1, psi2 = mj.spinor(model, 1, 0.0, y, 0.0)
    assert np.allclose(psi1, 0.0, atol=1e-15)
    assert np.allclose(psi2, mj.partner_state(model, 1, y))


def test_assemble_quarter_period_swaps_components(model, grid10):
    y = model.y_of_x(grid10.points())
    energy = mj.energy(model, 1)
    psi1, psi2 = mj.spinor(model, 1, math.pi / (2 * energy), y, 0.0)
    assert np.allclose(psi1, mj.host_state(model, 1, y))
    assert np.allclose(psi2, 0.0, atol=1e-12)


def test_assemble_rejects_grid_mismatch(model, grid10):
    y = model.y_of_x(grid10.points())
    phi_minus = mj.GridFunction(grid10, mj.host_state(model, 0, y))
    other = sample(mj.GridSpec(-1.0, 1.0, grid10.n_points), lambda x: x)
    with pytest.raises(mj.GridMismatchError):
        mj.MajoranaSpinorState(phi_minus, other)


# ---------------------------------------------------------------- density


def test_ground_state_density_profile(model, grid10):
    y = model.y_of_x(grid10.points())
    for _, rho in mj.closed_form_frames(model, grid10, 0, math.pi / 2, 1.3, [0, 1]):
        assert sup(rho, np.sqrt(model.w / np.pi) * np.exp(-model.w * y**2)) <= 1e-12


def test_first_excited_density_vanishes_at_origin(model, grid10):
    rho = frame_at(model, grid10, 1, 0.0)
    y = model.y_of_x(grid10.points())
    assert rho[int(np.argmin(np.abs(y)))] == pytest.approx(0.0, abs=1e-20)


@given(st.integers(0, 4), st.floats(0, 10, allow_nan=False))
@settings(max_examples=40)
def test_density_is_nonnegative(n, t):
    model = mj.LinearModel(1.0, mj.PhysicalParams())
    grid = mj.default_grid(model, 301)
    assert np.all(frame_at(model, grid, n, t, delta=0.4) >= 0.0)


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
        measured = mj.measure_period(linear_frames(model, grid10, n, 1.1 * T, samples=441))
        assert measured == pytest.approx(T / 2.0, rel=1e-4)


def test_measure_period_rejects_stationary_trace(model, grid10):
    # every frame of the ground state equals the first, so no sample is a return
    with pytest.raises(mj.StationaryStateError):
        mj.measure_period(linear_frames(model, grid10, 0, 5.0, samples=11))


def test_measure_period_needs_three_frames_and_a_return(model, grid10):
    T = mj.density_period(model, 1)
    with pytest.raises(ValueError, match="too few frames"):
        mj.measure_period(linear_frames(model, grid10, 1, T, samples=2))
    # a quarter of the return time: the distance from rho(0) only grows
    with pytest.raises(ValueError, match="no density return"):
        mj.measure_period(linear_frames(model, grid10, 1, T / 8, samples=41))


def test_stream_reducers_keep_the_stacked_array_bits(params, linear_potential, model, grid10):
    # the reference: the same reductions over all frames stacked in one array
    T = mj.density_period(model, 1)
    y = model.y_of_x(grid10.points())
    psi1, psi2 = mj.spinor(model, 1, 0.0, y, math.pi / 2)
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid10, psi1), mj.GridFunction(grid10, psi2)
    )
    for frames in (
        lambda: linear_frames(model, grid10, 2, 0.7 * T, samples=97),
        lambda: mj.pde_frames(initial, params, linear_potential, 0.6 * T, dt=T / 1987.3, stride=7),
    ):
        times, rows = zip(*frames())
        stacked = np.array(rows)
        metric = np.max(np.abs(stacked[1:] - stacked[0]), initial=0.0)
        assert mj.stationarity_metric(frames()) == metric
        r = np.max(np.abs(stacked - stacked[0]), axis=1)
        i = int(np.argmin(r[1:-1])) + 1
        parabola = times[i] + 0.5 * (times[i + 1] - times[i]) * (r[i - 1] - r[i + 1]) / (
            r[i - 1] - 2.0 * r[i] + r[i + 1]
        )
        assert mj.measure_period(frames()) == parabola


def test_stated_period_is_a_true_period(model, grid10):
    T = mj.density_period(model, 1)
    rng = np.random.default_rng(7)
    for t in rng.uniform(0.0, T, 4):
        assert sup(frame_at(model, grid10, 1, t), frame_at(model, grid10, 1, t + T)) <= 1e-6


# ------------------------------------------------------------ stationarity


def test_ground_state_trace_is_stationary(model, grid10):
    frames = linear_frames(model, grid10, 0, mj.density_period(model, 1))
    assert mj.stationarity_metric(frames) <= 1e-12


def test_excited_states_oscillate_visibly(model, grid10):
    for n in (1, 2):
        metric = mj.stationarity_metric(
            linear_frames(model, grid10, n, mj.density_period(model, n))
        )
        assert metric >= 0.1 * math.sqrt(model.w)
        assert metric > 0.05 * float(frame_at(model, grid10, n, 0.0).max())


def test_single_sample_trace_has_zero_metric(model, grid10):
    frames = mj.closed_form_frames(model, grid10, 1, math.pi / 2, 0.0, [0])
    assert mj.stationarity_metric(frames) == 0.0


def test_analytic_norm_conservation(model, grid10):
    frames = linear_frames(model, grid10, 2, 2.0 * mj.density_period(model, 2))
    norms = np.array([trapezoid(rho, grid10.h) for _, rho in frames])
    assert np.max(np.abs(norms - norms[0])) / norms[0] <= 1e-10


def test_state_norm_of_assembled_state(model, grid10):
    rho = frame_at(model, grid10, 3, 2.2, delta=0.9)
    assert trapezoid(rho, grid10.h) == pytest.approx(1.0, abs=1e-8)


# ------------------------------------------------------------------- PDE


def test_pde_returns_after_one_period(params, linear_potential, model, grid10):
    T = mj.density_period(model, 1)
    y = model.y_of_x(grid10.points())
    psi1, psi2 = mj.spinor(model, 1, 0.0, y, math.pi / 2)
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid10, psi1), mj.GridFunction(grid10, psi2)
    )
    run = mj.evolve_pde(initial, params, linear_potential, T, dt=T / 2000)
    assert sup(run.final.psi1.values, psi1) <= 1e-3
    assert sup(run.final.psi2.values, psi2) <= 1e-3
    assert run.norm_drift <= 1e-6


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
    frames = mj.pde_frames(initial, params, linear_potential, 2.0, dt=T / 2000)
    assert mj.stationarity_metric(frames) <= 1e-6


def test_pde_ground_state_density_nearly_constant_at_default_grid(
    params, linear_potential, model, grid10
):
    y = model.y_of_x(grid10.points())
    psi1, psi2 = mj.spinor(model, 0, 0.0, y, math.pi / 2)
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid10, psi1), mj.GridFunction(grid10, psi2)
    )
    frames = mj.pde_frames(initial, params, linear_potential, 2.0, dt=0.002)
    assert mj.stationarity_metric(frames) <= 1e-4


def test_pde_free_case_conserves_norm(params):
    grid = mj.GridSpec(-20.0, 20.0, 2001)
    x = grid.points()
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid, np.exp(-0.5 * (x + 3.0) ** 2)),
        mj.GridFunction(grid, 0.5 * np.exp(-0.4 * (x - 2.0) ** 2)),
    )
    run = mj.evolve_pde(initial, params, mj.LinearPotential(0.0), 10.0, dt=0.005)
    assert run.norm_drift <= 1e-6


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


def scaled_state(model, grid, amplitude, n=1, delta=math.pi / 2):
    y = model.y_of_x(grid.points())
    psi1, psi2 = mj.spinor(model, n, 0.0, y, delta)
    return mj.MajoranaSpinorState(
        mj.GridFunction(grid, amplitude * psi1), mj.GridFunction(grid, amplitude * psi2)
    )


def test_pde_rejects_non_finite_initial_norm(params, linear_potential, model):
    # the squares of the state overflow, so its norm is not a number
    initial = scaled_state(model, mj.GridSpec(-11.0, 9.0, 201), 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(mj.DegenerateFunctionError, match="norm"):
            mj.evolve_pde(initial, params, linear_potential, 0.5, dt=0.005, stride=7)


def test_pde_raises_on_a_nan_norm(monkeypatch, params, linear_potential, model):
    # a NaN drift compares false with any bound; it must not pass as small
    calls = []

    def trapezoid_then_nan(values, h):
        calls.append(h)
        return trapezoid(values, h) if len(calls) == 1 else math.nan

    monkeypatch.setattr(evolution, "trapezoid", trapezoid_then_nan)
    initial = scaled_state(model, mj.GridSpec(-11.0, 9.0, 201), 1.0)
    with pytest.raises(mj.DivergenceError, match="nan at step 7"):
        mj.evolve_pde(initial, params, linear_potential, 0.5, dt=0.005, stride=7)


def test_pde_names_the_failing_step_between_frames(params, linear_potential, model):
    # α·cħ/h ≈ 5e155: S overflows and the first step leaves NaN, which
    # the stride-7 run only sees at step 7
    initial = scaled_state(model, mj.GridSpec(-11.0, 9.0, 201), 1.0, delta=0.3)
    dt = 1e155
    errors = []
    for stride in (1, 7):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(mj.InstabilityError) as err:
                mj.evolve_pde(initial, params, linear_potential, 30 * dt, dt=dt, stride=stride)
        errors.append(err.value.step)
    assert errors == [1, 1]


def test_pde_stride_does_not_change_the_bits(params, linear_potential, model, grid10):
    initial = scaled_state(model, grid10, 1.0)
    every = mj.pde_frames(initial, params, linear_potential, 0.5, dt=0.005, stride=1)
    every_rows = np.array([rho for _, rho in every])
    sampled = mj.pde_frames(initial, params, linear_potential, 0.5, dt=0.005, stride=7)
    sampled_rows = np.array([rho for _, rho in sampled])
    shared = mj.frame_steps(100, 7)
    assert every_rows[shared].tobytes() == sampled_rows.tobytes()
    assert every.norms[shared].tobytes() == sampled.norms.tobytes()
    assert every.final.psi1.values.tobytes() == sampled.final.psi1.values.tobytes()
    assert every.final.psi2.values.tobytes() == sampled.final.psi2.values.tobytes()


def test_pde_default_time_step_runs(params, linear_potential, model):
    grid = mj.default_grid(model, 301)
    y = model.y_of_x(grid.points())
    psi1, psi2 = mj.spinor(model, 0, 0.0, y, math.pi / 2)
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid, psi1), mj.GridFunction(grid, psi2)
    )
    run = mj.evolve_pde(initial, params, linear_potential, 0.05)
    assert run.norm_drift <= 1e-6
    assert run.final.t == pytest.approx(0.05)


def test_pde_samples_the_frame_steps(params, linear_potential, model, grid10):
    # 7 does not divide the 100 steps: the last frame is the last step
    y = model.y_of_x(grid10.points())
    psi1, psi2 = mj.spinor(model, 1, 0.0, y, math.pi / 2)
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid10, psi1), mj.GridFunction(grid10, psi2)
    )
    dt = 0.5 / 100
    frames = mj.pde_frames(initial, params, linear_potential, 0.5, dt=dt, stride=7)
    steps = mj.frame_steps(100, 7)
    assert steps[-2:] == [98, 100]
    assert [t for t, _ in frames] == [dt * step for step in steps]


def test_pde_norms_are_the_frame_trapezoid_sums(params, linear_potential, model, grid10):
    y = model.y_of_x(grid10.points())
    psi1, psi2 = mj.spinor(model, 1, 0.0, y, math.pi / 2)
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid10, psi1), mj.GridFunction(grid10, psi2)
    )
    run = mj.pde_frames(initial, params, linear_potential, 0.5, dt=0.005, stride=7)
    rows = [rho for _, rho in run]
    assert len(rows) == len(run.norms) == len(mj.frame_steps(100, 7))
    for rho, norm in zip(rows, run.norms):
        assert rho.shape == (grid10.n_points,)
        assert rho.dtype == np.float64
        assert trapezoid(rho, grid10.h) == norm


def test_pde_frames_are_fresh_and_evolve_pde_drains_them(
    params, linear_potential, model, grid10
):
    y = model.y_of_x(grid10.points())
    psi1, psi2 = mj.spinor(model, 1, 0.0, y, math.pi / 2)
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid10, psi1), mj.GridFunction(grid10, psi2)
    )
    run = mj.pde_frames(initial, params, linear_potential, 0.5, dt=0.005, stride=7)
    listed = list(run)
    norms, final = run.norms, run.final
    rows = [rho for _, rho in listed]
    assert len(rows) == len(mj.frame_steps(100, 7))
    assert not any(
        np.shares_memory(a, b) for i, a in enumerate(rows) for b in rows[i + 1 :]
    )
    drained = mj.evolve_pde(initial, params, linear_potential, 0.5, dt=0.005, stride=7)
    assert isinstance(drained, evolution.PdeRun)
    assert list(drained) == []
    assert norms.tobytes() == drained.norms.tobytes()
    assert final.t == drained.final.t
    assert final.psi1.values.tobytes() == drained.final.psi1.values.tobytes()
    assert final.psi2.values.tobytes() == drained.final.psi2.values.tobytes()


def test_pde_check_streams_once_then_reports(params, linear_potential, model, grid10):
    T = mj.density_period(model, 1)
    check = mj.ClosedFormRun(model, grid10, 1, math.pi / 2, T / 200, mj.frame_steps(200, 20))
    with pytest.raises(RuntimeError, match="exhausted"):
        check.norm_drift
    assert len(list(check)) == len(mj.frame_steps(200, 20))
    assert list(check) == []
    drained = mj.ClosedFormRun(model, grid10, 1, math.pi / 2, T / 200, mj.frame_steps(200, 20))
    assert drained.drain() is drained
    assert drained.max_component_error == check.max_component_error <= 1e-2
    y = model.y_of_x(grid10.points())
    psi1, psi2 = mj.spinor(model, 1, 0.0, y, math.pi / 2)
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid10, psi1), mj.GridFunction(grid10, psi2)
    )
    run = mj.evolve_pde(initial, params, linear_potential, T, dt=T / 200, stride=20)
    assert drained.norm_drift == check.norm_drift == run.norm_drift


def test_pde_run_takes_an_uneven_schedule(params, linear_potential, model, grid10):
    initial = scaled_state(model, grid10, 1.0)
    dt = 0.005
    every = list(evolution.PdeRun(initial, params, linear_potential, dt, range(11)))
    run = evolution.PdeRun(initial, params, linear_potential, dt, [0, 3, 10])
    frames = list(run)
    assert [t for t, _ in frames] == [0.0, 3 * dt, 10 * dt]
    assert [rho.tobytes() for _, rho in frames] == [every[s][1].tobytes() for s in (0, 3, 10)]
    assert run.final.t == 10 * dt


@pytest.mark.parametrize(
    "dt, steps",
    [(0.0, [0, 1]), (-0.005, [0, 1]), (math.nan, [0, 1]), (math.inf, [0, 1]),
     (0.005, []), (0.005, [1, 2]), (0.005, [0, 3, 3]), (0.005, [0, 5, 2])],
    ids=["dt_zero", "dt_negative", "dt_nan", "dt_inf",
         "steps_empty", "steps_not_from_0", "steps_repeat", "steps_decrease"],
)
def test_pde_run_refuses_a_bad_schedule(params, linear_potential, model, grid10, dt, steps):
    initial = scaled_state(model, grid10, 1.0)
    with pytest.raises(ValueError, match="dt must be|steps must"):
        evolution.PdeRun(initial, params, linear_potential, dt, steps)


@pytest.mark.parametrize(
    "t_final, dt, n_steps",
    [(1.0, 0.3, 3), (math.sqrt(2.0) * math.pi, math.sqrt(2.0) * math.pi / 2000, 2000),
     (0.05, 1.0, 1)],
)
def test_time_grid_lands_on_t_final_and_is_idempotent(t_final, dt, n_steps):
    step, count = time_grid(t_final, dt)
    assert count == n_steps
    assert step == t_final / n_steps
    assert time_grid(t_final, step) == (step, count)
    with pytest.raises(ValueError):
        time_grid(t_final, 0.0)


T1 = math.sqrt(2.0) * math.pi  # density period of n = 1 at k = 1


@pytest.mark.parametrize(
    "n, t_final, periods, dt, expected",
    [
        # the stationary ground state has no period: t_final falls back
        (0, None, 1.0, 0.01, (None, 5.0, 0.01, 500, True)),
        (0, None, 3.0, None, (None, 5.0, None, None, True)),
        # one period at period / STEPS_PER_PERIOD
        (1, None, 1.0, None, (T1, T1, T1 / 2000, 2000, False)),
        (1, None, 2.0, None, (T1, 2 * T1, T1 / 2000, 4000, False)),
        # explicit t_final and dt; dt is rounded to land on t_final
        (1, 1.0, None, 0.3, (T1, 1.0, 1.0 / 3, 3, False)),
        (0, 2.0, None, 0.01, (None, 2.0, 0.01, 200, False)),
    ],
    ids=["ground_fallback", "ground_fallback_default_step", "one_period", "two_periods",
         "explicit", "ground_explicit"],
)
def test_run_length(model, grid10, n, t_final, periods, dt, expected):
    run = mj.run_length(model, grid10, n, t_final, periods, dt)
    period, t_end, step, n_steps, fallback = expected
    assert (run.period, run.t_final, run.fallback) == (period, t_end, fallback)
    if step is None:
        # n = 0 without dt: the default step, rounded onto t_final
        default = evolution.default_time_step(model.params, mj.LinearPotential(model.k), grid10)
        step, n_steps = time_grid(t_end, default)
    assert run.dt == pytest.approx(step, rel=1e-12)
    assert run.n_steps == n_steps
    assert time_grid(run.t_final, run.dt) == (run.dt, run.n_steps)


@pytest.mark.parametrize("k", [1.0, -1.0])
def test_closed_form_frames_are_spinor_densities(params, k):
    model = mj.LinearModel(k, params)
    grid = mj.default_grid(model, 401)
    y = model.y_of_x(grid.points())
    dt, steps = 0.01, [0, 3, 6, 7]
    frames = mj.closed_form_frames(model, grid, 2, 0.4, dt, steps)
    assert iter(frames) is frames
    count = 0
    for step, (t, rho) in zip(steps, frames):
        psi1, psi2 = mj.spinor(model, 2, step * dt, y, 0.4)
        assert t == step * dt
        assert np.array_equal(rho, psi1**2 + psi2**2)
        count += 1
    assert count == len(steps)
    assert next(frames, None) is None


def test_pde_components_stay_real(params, linear_potential, model, grid10):
    # reality is structural: the state type only carries real arrays
    y = model.y_of_x(grid10.points())
    psi1, psi2 = mj.spinor(model, 1, 0.0, y, math.pi / 2)
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid10, psi1), mj.GridFunction(grid10, psi2)
    )
    final = mj.evolve_pde(initial, params, linear_potential, 0.5, dt=0.005).final
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
        final = mj.evolve_pde(initial, params, linear_potential, T, dt=T / steps).final
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
    run = mj.evolve_pde(initial, params, linear_potential, T, dt=T / 2000, stride=50)
    norms, psi1, psi2 = block_cayley_reference(
        initial, params, linear_potential, T, T / 2000, stride=50
    )
    assert sup(run.final.psi1.values[1:-1], psi1) <= 1e-10
    assert sup(run.final.psi2.values[1:-1], psi2) <= 1e-10
    assert len(run.norms) == len(norms)
    assert sup(run.norms, norms) <= 1e-10


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
mj.eigensolve(op, 3)
y = model.y_of_x(grid.points())
psi1, psi2 = mj.spinor(model, 1, 0.0, y, math.pi / 2)
initial = mj.MajoranaSpinorState(mj.GridFunction(grid, psi1), mj.GridFunction(grid, psi2))
mj.evolve_pde(initial, model.params, mj.LinearPotential(1.0), 0.03, dt=0.01)
print("scipy.linalg" in sys.modules)

from scipy.linalg.lapack import get_lapack_funcs

names = ("stebz", "pttrf", "pttrs")
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
