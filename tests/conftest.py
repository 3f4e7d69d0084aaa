import numpy as np
import pytest

import majorana1d as mj


@pytest.fixture(scope="session")
def params():
    return mj.PhysicalParams(mass=1.0, c=1.0, hbar=1.0)


@pytest.fixture(scope="session")
def linear_potential():
    return mj.LinearPotential(1.0)


@pytest.fixture(scope="session")
def model(params):
    return mj.LinearModel(1.0, params)


@pytest.fixture(scope="session")
def grid10(model):
    """Default desk-scale grid: y in [-10, 10], 2001 points."""
    return mj.default_grid(model)


@pytest.fixture(scope="session")
def grid12(model):
    """Wide grid for deep spectra: y in [-12, 12], 4001 points."""
    return mj.default_grid(model, 4001, 12.0)


@pytest.fixture(scope="session")
def partner12(params, linear_potential, grid12):
    return mj.partner_potentials(params, linear_potential, grid12)


@pytest.fixture(scope="session")
def minus_levels12(params, partner12):
    return mj.eigensolve(mj.discretize(params, partner12.v_minus), 11)


@pytest.fixture(scope="session")
def plus_levels12(params, partner12):
    return mj.eigensolve(mj.discretize(params, partner12.v_plus), 10)


def sample(spec: mj.GridSpec, f) -> mj.GridFunction:
    """The callable ``f`` sampled on the points of ``spec``."""
    return mj.GridFunction(spec, f(spec.points()))


def sign_align(values: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Flip the overall sign so `values` overlaps `reference` positively;
    eigen-solvers and the largest-entry convention leave the sign of
    antisymmetric states at the mercy of roundoff ties."""
    return -values if float(np.dot(values, reference)) < 0 else values


def l2(grid: mj.GridSpec, values: np.ndarray) -> float:
    squared = values**2
    return float(
        np.sqrt(max(grid.h * (squared.sum() - 0.5 * (squared[0] + squared[-1])), 0.0))
    )


def sup(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))
