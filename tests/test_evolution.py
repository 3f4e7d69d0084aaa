import json
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
    # the stencil is second order, and the jumps keep the time error below
    # the space error (sixth-order long jumps held to 1/50 of the midpoint
    # step's phase error per unit time), so halving h and dt together
    # shrinks the one-period error ~4x at every halving
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

    errors = [one_period_error(501, 100), one_period_error(1001, 200),
              one_period_error(2001, 400), one_period_error(4001, 800)]
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert min(ratios) >= 3.5, ratios


def block_cayley_reference(initial, p, phi, t_final, dt, stride):
    """The two-level jump integration solved on the full (2m+1)-unknown
    generator G = [[0, Aᵀ], [-A, 0]] with complex SuperLU, where A is the
    (m+1)×m bidiagonal staggered ladder from interior nodes to
    midpoints. At the Rayleigh phase θ = ‖G u₀‖/‖u₀‖·dt/ħ, a short jump
    of q_S = ⌊R₄/√θ⌋ steps is three Cayley solves of w₁q_S·dt, w₀q_S·dt
    and w₁q_S·dt, and a long jump of q_L steps, the largest multiple of
    q_S below R₆θ^(-2/3), is three Cayley solves of the three roots of
    w³ - w² + (2/5)w - 1/15 times q_L·dt, the complex pair as two
    sequential complex solves; both are capped at n_steps, and q_L = q_S
    when that multiple is below 2·q_S. The state advances in long jumps
    from step 0; a frame is reached from the last long state by short
    jumps on a copy and one side jump of the remainder from another
    copy. psi2 enters as the midpoint average of the nodes and leaves as
    the node average of the midpoints; norms are sampled on the same
    schedule as ``evolve_pde``. Returns ((q_L, q_S), norms, psi1, psi2)
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
    gen = sparse.bmat([[None, a_mat.T], [-a_mat, None]], format="csr").astype(complex)
    eye = sparse.identity(2 * m + 1, dtype=complex, format="csr")
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    w0 = 1.0 - 2.0 * w1
    long_weights = np.roots([1.0, -1.0, 2.0 / 5.0, -1.0 / 15.0])
    ratio4 = ((1.0 / 12.0) / (2.0 * abs(2.0 * w1**5 + w0**5) / 80.0)) ** 0.25
    c6 = abs(np.sum(long_weights**7)) / (7.0 * 2.0**6)
    ratio6 = (0.02 / (12.0 * c6)) ** (1.0 / 6.0)

    def cayley(tau):
        alpha = tau / (2.0 * p.hbar)
        solve = splu((eye - alpha * gen).tocsc()).solve
        forward = (eye + alpha * gen).tocsr()
        return lambda u: solve(forward @ u)

    def jump(weights, count):
        substeps = [cayley(x * count * dt) for x in weights]

        def step(u):
            u = u.astype(complex)
            for substep in substeps:
                u = substep(u)
            return u.real

        return step

    psi2 = initial.psi2.values
    u = np.concatenate([initial.psi1.values[1:-1], 0.5 * (psi2[:-1] + psi2[1:])])

    def norm(v):
        return spec.h * float(np.sum(v**2))

    theta = np.linalg.norm(gen @ u) / np.linalg.norm(u) * dt / p.hbar
    q_short = max(1, min(n_steps, math.floor(ratio4 / math.sqrt(theta))))
    multiple = min(math.floor(ratio6 * theta ** (-2.0 / 3.0) / q_short), n_steps // q_short)
    q_long = multiple * q_short if multiple >= 2 else q_short
    short_jump = jump((w1, w0, w1), q_short)
    long_jump = jump(long_weights if q_long > q_short else (w1, w0, w1), q_long)
    norms = [norm(u)]
    state, step = u, 0
    for target in [*range(stride, n_steps, stride), n_steps]:
        while step + q_long <= target:
            u = long_jump(u)
            step += q_long
        state, at = u, step
        while at + q_short <= target:
            state = short_jump(state)
            at += q_short
        if at < target:
            state = jump((w1, w0, w1), target - at)(state)
        norms.append(norm(state))
    return (q_long, q_short), np.array(norms), state[:m], 0.5 * (state[m:-1] + state[m + 1 :])


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
    jump_steps, norms, psi1, psi2 = block_cayley_reference(
        initial, params, linear_potential, T, T / 2000, stride=50
    )
    assert run.jump_steps == jump_steps
    assert sup(run.final.psi1.values[1:-1], psi1) <= 1e-10
    assert sup(run.final.psi2.values[1:-1], psi2) <= 1e-10
    assert len(run.norms) == len(norms)
    assert sup(run.norms, norms) <= 1e-10


def test_pde_jump_is_fourth_order_on_three_points(params, linear_potential):
    # one interior node: A is one column a, G has the one singular value
    # σ = |a|, and the exact solution turns (u1, a·u2/σ) by σt/ħ while the
    # part of u2 across a stays put
    grid = mj.GridSpec(-1.0, 1.0, 3)
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid, np.array([0.0, 0.8, 0.0])),
        mj.GridFunction(grid, np.array([0.3, -0.2, 0.5])),
    )
    left, right = staggered_ladder(params, linear_potential, grid)
    a = np.array([left[0], right[0]])
    sigma = float(np.linalg.norm(a))
    u1 = 0.8
    u2 = 0.5 * (initial.psi2.values[:-1] + initial.psi2.values[1:])
    along = float(a @ u2) / sigma

    def jump_error(dt):
        # steps [0, 1]: one jump of the whole dt
        run = evolution.PdeRun(initial, params, linear_potential, dt, [0, 1]).drain()
        assert (run.jump_steps, run.solves) == ((1, 1), 3)
        turn = sigma * dt / params.hbar
        exact1 = u1 * math.cos(turn) + along * math.sin(turn)
        exact2 = u2 + (along * math.cos(turn) - u1 * math.sin(turn) - along) * a / sigma
        return max(
            abs(run.final.psi1.values[1] - exact1),
            abs(run.final.psi2.values[1] - 0.5 * (exact2[0] + exact2[1])),
        )

    dt = 0.5 / sigma  # a jump of half a radian
    errors = [jump_error(dt), jump_error(dt / 2), jump_error(dt / 4)]
    assert errors[0] > 1e-6
    assert errors[0] / errors[1] >= 12.0
    assert errors[1] / errors[2] >= 12.0


def test_pde_long_jump_is_sixth_order_on_three_points(params, linear_potential):
    # u2 along the one column a of A: the Rayleigh energy is σ = |a|, so
    # θ = σ·dt/ħ, and a run of 24 steps turning the state by σ·24·dt/ħ is
    # one long jump of q_L = 24 steps (one real and one complex solve)
    grid = mj.GridSpec(-1.0, 1.0, 3)
    left, right = staggered_ladder(params, linear_potential, grid)
    a = np.array([left[0], right[0]])
    sigma = float(np.linalg.norm(a))
    u1, u2 = 0.8, 0.4 * a / sigma
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid, np.array([0.0, u1, 0.0])),
        mj.GridFunction(grid, np.array([0.0, 2.0 * u2[0], 2.0 * (u2[1] - u2[0])])),
    )

    def jump_error(turn, n=24):
        run = evolution.PdeRun(
            initial, params, linear_potential, turn * params.hbar / (sigma * n), [0, n]
        ).drain()
        assert (run.jump_steps[0], run.solves) == (n, 2)
        exact1 = u1 * math.cos(turn) + 0.4 * math.sin(turn)
        exact2 = (0.4 * math.cos(turn) - u1 * math.sin(turn)) * a / sigma
        return max(
            abs(run.final.psi1.values[1] - exact1),
            abs(run.final.psi2.values[1] - 0.5 * (exact2[0] + exact2[1])),
        )

    # jumps of a half, a quarter and an eighth of a radian; the phase error
    # Σ 2·atan(w·x/2) - x of the (3,3) Padé approximant, 2⁷ in the limit,
    # moves the components 130× and then 119× less over these halvings, and
    # stays far above roundoff (1.4e-12 at the last)
    errors = [jump_error(0.5), jump_error(0.25), jump_error(0.125)]
    assert errors[-1] > 1e-13
    assert errors[0] / errors[1] >= 0.75 * 2**7
    assert errors[1] / errors[2] >= 0.75 * 2**7


def test_long_weights_meet_the_sixth_order_conditions():
    real, pair = evolution.LONG_WEIGHTS
    assert isinstance(real, float) and isinstance(pair, complex) and pair.imag != 0
    weights = [real, pair, pair.conjugate()]
    assert abs(sum(weights) - 1.0) <= 1e-15
    assert abs(sum(w**3 for w in weights)) <= 1e-15
    assert abs(sum(w**5 for w in weights)) <= 1e-15
    assert abs(sum(w**7 for w in weights)) > 1e-3
    # the three roots of the cubic whose Cayley factors make the (3,3) Padé
    # approximant of exp
    for w in weights:
        assert abs(w**3 - w**2 + 0.4 * w - 1.0 / 15.0) <= 1e-15
    # C(α)C(ᾱ)u = u + 2·Re[a·(I - αG)⁻¹u] with a purely imaginary
    ratio = pair.conjugate() / pair
    a = 2.0 * (1.0 + ratio) / (1.0 - ratio)
    assert abs(a.real) <= 1e-15 * abs(a)


@settings(max_examples=200, deadline=None)
@given(
    theta=st.floats(min_value=1e-9, max_value=10.0),
    n_steps=st.integers(min_value=1, max_value=10**6),
)
def test_long_jump_is_a_multiple_of_the_short_jump(theta, n_steps):
    q_long, q_short = evolution._jump_steps(theta, n_steps)
    assert 1 <= q_short <= q_long <= n_steps
    assert q_long % q_short == 0
    assert q_long == q_short or q_long >= 2 * q_short


def test_jump_lengths_at_the_default_steps_per_period():
    # θ = 2π/2000 per step: short jumps of 15 steps, long jumps of 105
    theta = 2.0 * math.pi / evolution.STEPS_PER_PERIOD
    assert evolution._jump_steps(theta, 2000) == (105, 15)
    assert evolution._jump_steps(theta, 104) == (90, 15)
    assert evolution._jump_steps(theta, 29) == (15, 15)


def test_jump_lengths_follow_the_order_of_the_weights(monkeypatch):
    # the same rule on a sixth-order composition of 7 substeps,
    # b, a, b, c, b, a, b with Σw⁷ ≠ 0, gives long jumps of 60 steps
    a, b, c = -0.8341605550808648, 0.43117553188395996, 0.9436189826258898
    monkeypatch.setattr(evolution, "LONG_WEIGHTS", (b, a, b, c, b, a, b))
    theta = 2.0 * math.pi / evolution.STEPS_PER_PERIOD
    assert evolution._jump_steps(theta, 2000) == (60, 15)
    assert evolution._jump_steps(theta, 59) == (45, 15)
    assert evolution._jump_steps(theta, 29) == (15, 15)


class _PoisonedLapack:
    """``_lapack.flapack()`` whose tridiagonal solves, counted across
    ``dpttrs`` and ``zgttrs``, return NaN from solve ``first`` to solve
    ``last`` where they are made by one of ``routines``."""

    def __init__(self, first, routines, last=math.inf):
        self.first, self.last = first, last
        self.routines = routines
        self.calls = 0
        lapack = mj._lapack.flapack()
        self.dpttrf, self.zgttrf = lapack.dpttrf, lapack.zgttrf

    def _solve(self, routine, *args, **kwargs):
        self.calls += 1
        x, info = getattr(mj._lapack.flapack(), routine)(*args, **kwargs)
        if self.first <= self.calls <= self.last and routine in self.routines:
            x[:] = math.nan
        return x, info

    def dpttrs(self, *args, **kwargs):
        return self._solve("dpttrs", *args, **kwargs)

    def zgttrs(self, *args, **kwargs):
        return self._solve("zgttrs", *args, **kwargs)


BOTH = ("dpttrs", "zgttrs")


@pytest.mark.parametrize(
    "first, routines, step",
    # q_L = 60 and q_S = 10 at a stride of 7, counted in solves: frame 7 is
    # a side jump of 7 (solves 1-3); frame 14 the short jump to 10 (4-6)
    # and a side jump of 4 (7-9); frame 21 the short jump to 20 (10-12) and
    # a side jump of 1 (13-15); frame 28 a side jump of 8 from 20 (16-18);
    # frame 35 the short jump to 30 (19-21) and a side jump of 5; frames
    # 42-56 take solves 25-39; frame 63 the long jump to 60, its real
    # solve 40 and its complex solve 41, and a side jump of 3 (42-44);
    # frame 70 the short jump from 60 to 70 (45-47). Each jump is tested
    # as it ends, so the run stops at the end of the first jump that makes
    # a poisoned solve: with zgttrs alone poisoned, the long jump.
    [(1, BOTH, 7), (5, BOTH, 10), (11, BOTH, 20), (16, BOTH, 28), (19, BOTH, 30),
     (40, BOTH, 60), (1, ("zgttrs",), 60), (45, BOTH, 70)],
    ids=["side_jump_first", "whole_jump", "later_whole_jump", "later_side_jump",
         "short_jump_after_side_jump", "long_jump", "long_jump_complex_solve",
         "short_jump_after_long_jump"],
)
def test_pde_names_the_end_of_the_failing_jump(
    monkeypatch, params, linear_potential, model, grid10, first, routines, step
):
    poisoned = _PoisonedLapack(first, routines)
    monkeypatch.setattr(evolution, "flapack", lambda: poisoned)
    initial = scaled_state(model, grid10, 1.0)
    run = mj.pde_frames(initial, params, linear_potential, 0.5, dt=0.005, stride=7)
    with pytest.raises(mj.InstabilityError) as err:
        run.drain()
    assert err.value.step == step


@pytest.mark.parametrize(
    "solve, step",
    # the schedule above: solve 2 is in the side jump to 7, solve 5 in the
    # short jump to 10, which the frame at 14 goes on from by a side jump
    [(2, 7), (5, 10)],
    ids=["side_jump", "short_jump"],
)
def test_pde_names_the_jump_a_one_call_fault_fails(
    monkeypatch, params, linear_potential, model, grid10, solve, step
):
    # one poisoned solve: the jump that makes it ends the run, before any
    # later jump or frame can leave the state finite again
    poisoned = _PoisonedLapack(solve, BOTH, last=solve)
    monkeypatch.setattr(evolution, "flapack", lambda: poisoned)
    initial = scaled_state(model, grid10, 1.0)
    run = mj.pde_frames(initial, params, linear_potential, 0.5, dt=0.005, stride=7)
    with pytest.raises(mj.InstabilityError) as err:
        run.drain()
    assert err.value.step == step


def test_pde_names_the_long_jump_whose_padded_pair_solve_fails_once(
    monkeypatch, params, linear_potential, model
):
    # On 3 points the pair's complex solve is padded to 3 unknowns. q_L =
    # 500 and q_S = 50 over 2000 steps: four long jumps, one real and one
    # complex solve each, before the one frame. A NaN from the second
    # long jump's complex solve alone (solve 4) ends the run at the end
    # of that jump, step 1000, not at the frame
    grid = mj.default_grid(model, 3)
    x = grid.points()
    initial = mj.MajoranaSpinorState(
        mj.GridFunction(grid, np.exp(-0.5 * (x + 2.0) ** 2)),
        mj.GridFunction(grid, 0.5 * np.exp(-0.4 * (x - 1.0) ** 2)),
    )
    dt = mj.density_period(model, 1) / 2000
    run = evolution.PdeRun(initial, params, linear_potential, dt, [0, 2000]).drain()
    assert (run.jump_steps, run.solves) == ((500, 50), 8)
    poisoned = _PoisonedLapack(4, ("zgttrs",), last=4)
    monkeypatch.setattr(evolution, "flapack", lambda: poisoned)
    run = evolution.PdeRun(initial, params, linear_potential, dt, [0, 2000])
    with pytest.raises(mj.InstabilityError) as err:
        run.drain()
    assert err.value.step == 1000


def test_pde_reports_its_jump_length_and_solves(params, linear_potential, model, grid10):
    # θ = E·dt/ħ = √2·0.005 gives q_S = 10 and q_L = 60. The 100 steps take
    # 1 long jump of 2 solves, one real and one complex; the frames take 9
    # short jumps of 3 solves (to 10, 20, ..., 50; 70, ..., 100), and the 13
    # frames that are not multiples of 10 one side jump of 3 solves each
    initial = scaled_state(model, grid10, 1.0)
    run = mj.pde_frames(initial, params, linear_potential, 0.5, dt=0.005, stride=7)
    with pytest.raises(RuntimeError, match="exhausted"):
        run.jump_steps
    with pytest.raises(RuntimeError, match="exhausted"):
        run.solves
    run.drain()
    off_jump = [s for s in mj.frame_steps(100, 7) if s % 10]
    assert len(off_jump) == 13
    assert run.jump_steps == (60, 10)
    assert run.solves == 2 * 1 + 3 * (9 + 13)


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
complex_names = ("gttrf", "gttrs")
complex_funcs = get_lapack_funcs(complex_names, (np.zeros(1, dtype=complex),))
print(all(f is getattr(_lapack.flapack(), "d" + n) for f, n in zip(funcs, names))
      and all(f is getattr(_lapack.flapack(), "z" + n)
              for f, n in zip(complex_funcs, complex_names)))
"""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.split() == ["False", "True"]


def test_evolve_pde_leaves_scipy_optimize_unloaded(tmp_path):
    # the long-jump weights are literals: no solver is imported to make them,
    # which would double the command's peak resident memory. And the
    # stepper takes its real and complex tridiagonal routines from the one
    # LAPACK extension: the command loads no extension module that the
    # closed-form command does not load beside that one
    src = str(Path(mj.__file__).resolve().parent.parent)
    config = {
        "potential": {"kind": "linear", "k": 1.0},
        "physical": {"mass": 1.0, "c": 1.0, "hbar": 1.0},
        "grid": {"x_min": -13.0, "x_max": 11.0, "n_points": 801},
        "evolve": {"n": 1, "stride": 500},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(config))

    def evolve(out, flags, before=""):
        code = f"""
import importlib.machinery, sys
{before}
from majorana1d.cli import main

code = main(["evolve", "--config", {str(tmp_path / "cfg.json")!r},
             "--out", {str(tmp_path / out)!r}, *{flags!r}])
suffixes = tuple(importlib.machinery.EXTENSION_SUFFIXES)
print(code, sorted(m for m in sys.modules if m.startswith("scipy.optimize")))
print(*sorted(name for name, module in list(sys.modules.items())
              if (getattr(getattr(module, "__spec__", None), "origin", None) or "")
              .endswith(suffixes)))
"""
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        status, extensions = out.stdout.splitlines()
        return status.split(), set(extensions.split())

    status, pde_extensions = evolve("out", ["--pde"])
    assert status == ["0", "[]"]
    summary = json.loads((tmp_path / "out" / "evolve_summary.json").read_text())
    assert summary["pde_jump_steps"] == [105, 15]
    status, closed_form_extensions = evolve(
        "closed", [], before="from majorana1d import _lapack; _lapack.flapack()"
    )
    assert status[0] == "0"
    assert "scipy.linalg._flapack" in pde_extensions
    assert pde_extensions <= closed_form_extensions, pde_extensions - closed_form_extensions
