#!/usr/bin/env python3
"""Refinement study for both discretizations.

Tabulates finite-difference eigenvalue errors against the closed-form
spectrum E_n^2 = 2 c hbar k n under grid halving, and the one-period
integration error under joint grid/step halving. Both should shrink by
~4x per level. The stencils are second order. The integration's time
error comes from its jumps: sixth-order long jumps of one real substep
and a complex-conjugate pair, held to 1/50 of the midpoint step's phase
error per unit time, and fourth-order triple jumps towards the frames.
That keeps the time part of the error below the second-order space
part, so the ratio stays near 4 at every halving. Each PDE row also
gives the long and short jump lengths q_L and q_S the run worked out
from its step, and its count of tridiagonal solves, a complex solve
counted as one.
"""

import math
from argparse import ArgumentParser

import numpy as np

import majorana1d as mj


def get_args():
    parser = ArgumentParser(description=__doc__)
    parser.add_argument("--levels", type=int, default=6, help="eigenvalues per grid")
    parser.add_argument("--grids", type=int, nargs="+", default=[501, 1001, 2001, 4001])
    return parser.parse_args()


def eigenvalue_table(params, potential, model, grids, levels):
    print(f"eigenvalue |lambda_n - 2n| on y in [-12, 12], n < {levels}")
    header = "points   " + "".join(f"n={n:<11}" for n in range(levels))
    print(header)
    previous = None
    for n_points in grids:
        grid = mj.default_grid(model, n_points, 12.0)
        pair = mj.partner_potentials(params, potential, grid)
        solved = mj.oracle_eigenvalues(pair, mj.Sector.MINUS, levels)
        errors = np.abs(solved - 2.0 * np.arange(levels))
        print(f"{n_points:<8}" + "".join(f" {e:<11.3e}" for e in errors))
        if previous is not None:
            ratios = previous / errors
            print("ratio   " + "".join(f" {r:<11.2f}" for r in ratios))
        previous = errors
    print()


def pde_table(model, grids):
    period = mj.density_period(model, 1)
    print("one-period integration error (n = 1, dt = T/steps)")
    print("points   steps   q_L   q_S   solves   error        ratio")
    previous = None
    steps = 100
    for n_points in grids:
        grid = mj.default_grid(model, n_points)
        run = mj.run_length(model, grid, 1, None, 1.0, period / steps)
        frames = mj.frame_steps(run.n_steps, 50)
        check = mj.ClosedFormRun(model, grid, 1, math.pi / 2, run.dt, frames).drain()
        error = check.max_component_error
        ratio = "" if previous is None else f"{previous / error:.2f}"
        q_long, q_short = check.jump_steps
        print(
            f"{n_points:<8} {steps:<7} {q_long:<5} {q_short:<5} {check.solves:<8} "
            f"{error:<12.3e} {ratio}"
        )
        previous = error
        steps *= 2


def run():
    args = get_args()
    params = mj.PhysicalParams(mass=1.0)
    potential = mj.LinearPotential(1.0)
    model = mj.LinearModel(1.0, params)
    eigenvalue_table(params, potential, model, args.grids, args.levels)
    pde_table(model, args.grids)


if __name__ == "__main__":
    run()
