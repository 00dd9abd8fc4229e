#!/usr/bin/env python3
"""Condenser capacity of a ball in a grounded cube across grid refinements,
against the spherical-shell reference 4*pi/(1/r - 1/R)."""

import argparse
import math
import time

import numpy as np

import percohom as ph


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radius", type=float, default=0.1)
    ap.add_argument("--outer", type=float, default=1.0)
    ap.add_argument("--cells", type=int, nargs="+", default=[24, 48, 96],
                    help="grid cells per box side")
    args = ap.parse_args()

    R = args.outer
    box = ph.Box.cube(2 * R, 3, origin=(-R,) * 3)
    cfg = ph.PointConfiguration(points=np.zeros((1, 3)), box=box,
                                intensity=0.0, seed=0)
    ball = ph.build_balls(cfg, args.radius)
    exact = 4 * math.pi / (1 / args.radius - 1 / R)
    print(f"shell reference: {exact:.6f}")
    print(f"{'cells':>6} {'dx':>12} {'capacity':>12} {'rel err':>10} {'iters':>6} {'secs':>6}")
    for n in args.cells:
        dx = 2 * R / n
        t0 = time.perf_counter()
        try:
            cap, rep = ph.newton_capacity(ball, R, dx, tol=1e-7)
        except ph.InvalidArgumentError as exc:  # e.g. the ball covers no cell center
            print(f"{n:>6} {dx:>12.6f} unresolved: {exc}")
            continue
        dt = time.perf_counter() - t0
        print(f"{n:>6} {dx:>12.6f} {cap:>12.6f} {(cap - exact) / exact:>+10.2%} "
              f"{rep.iterations:>6} {dt:>6.1f}")


if __name__ == "__main__":
    main()
