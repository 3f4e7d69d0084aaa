#!/usr/bin/env python3
"""Cost of the PDE integration against the frame stride.

Integrates one period of the README case (phi = x, mass 1, c = hbar = 1,
level n = 1, delta = pi/2, x in [-13, 11], 2000 steps) at frame strides
50, 10, 5 and 1, and prints for each the integration time (median of
``--repeats`` runs, frames drained unread), the real and the complex
tridiagonal solves, the long and short jump lengths q_L and q_S, and the
largest distance of the final components from the closed form. Each
long jump takes one real and one complex solve, a complex one costing
about three real ones, and each short jump three real solves; they cost
the same at every stride. Each frame off a multiple of q_S adds a side
jump of three real solves and two factorizations, so small strides cost
more.
"""

import math
import statistics
import time
from argparse import ArgumentParser

import majorana1d as mj


def get_args():
    parser = ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=4001, help="grid points")
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per stride")
    parser.add_argument("--strides", type=int, nargs="+", default=[50, 10, 5, 1])
    return parser.parse_args()


def run():
    args = get_args()
    model = mj.LinearModel(1.0, mj.PhysicalParams(mass=1.0))
    grid = mj.GridSpec(-13.0, 11.0, args.points)
    length = mj.run_length(model, grid, 1, None, 1.0, None)
    print(f"one period of the README case on {args.points} points, {length.n_steps} steps")
    print("stride   ms        real     complex  q_L   q_S   error")
    for stride in args.strides:
        frames = mj.frame_steps(length.n_steps, stride)
        times = []
        for _ in range(args.repeats):
            check = mj.ClosedFormRun(model, grid, 1, math.pi / 2, length.dt, frames)
            began = time.perf_counter()
            check.drain()
            times.append(1e3 * (time.perf_counter() - began))
        q_long, q_short = check.jump_steps
        # the long state takes every long jump up to the last step, each one
        # complex solve
        complex_solves = length.n_steps // q_long if q_long > q_short else 0
        print(
            f"{stride:<8} {statistics.median(times):<9.1f} "
            f"{check.solves - complex_solves:<8} {complex_solves:<8} "
            f"{q_long:<5} {q_short:<5} {check.max_component_error:.3e}"
        )


if __name__ == "__main__":
    run()
