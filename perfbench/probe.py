"""Kernel probes: one operator apply and one CG iteration of the public solver.

Usage: python3 perfbench/probe.py   (with src/ on PYTHONPATH)

Prints one JSON object. Each probe builds a hole-free cube of n^3 cells,
times `make_operator`'s apply on it, and solves one system with `cg_solve`
and the Jacobi diagonal, as the library's own solves do: 64^3 with
reaction 1 (a sweep solve) and 16^3 with reaction 0 (a capacity window).

`apply_bytes` is computed from array sizes, not measured: the float64 field
read, the float64 diagonal read, the one-byte material flags read and the
float64 result written, once each. A 64^3 float64 array is 2 MiB, far below
the last-level cache, so no bandwidth fraction is reported.
"""

import json
import statistics
import time

import numpy as np

from percohom.points import Box
from percohom.geometry import hole_free_mask
from percohom.solver import cg_solve, make_operator, operator_diagonal

PROBES = ((64, 1.0, 20, 1), (16, 0.0, 200, 20))  # cells, reaction, applies, solves


def probe(cells, reaction, applies, solves):
    mask = hole_free_mask(Box.cube(1.0, 3), 1.0 / cells)
    apply_op = make_operator(mask, reaction)
    diag = operator_diagonal(mask, reaction)
    u = np.ones(mask.shape)
    apply_times = []
    for _ in range(applies):
        t0 = time.perf_counter()
        apply_op(u)
        apply_times.append(time.perf_counter() - t0)
    iteration_times = []
    for _ in range(solves):
        t0 = time.perf_counter()
        _, report = cg_solve(apply_op, u, tol=1e-8, diag=diag)
        iteration_times.append((time.perf_counter() - t0) / report.iterations)
    return {f"solver.apply_ms_{cells}": 1e3 * statistics.median(apply_times),
            f"solver.iteration_ms_{cells}": 1e3 * statistics.median(iteration_times),
            f"solver.apply_bytes_{cells}": (8 + 8 + 1 + 8) * mask.flags.size}


if __name__ == "__main__":
    out = {}
    for args in PROBES:
        out.update(probe(*args))
    print(json.dumps(out))
