"""Run the percohom command line in this process and record its calls into the layers.

Usage: python3 perfbench/launch.py RECORD_JSON TRACE CLI_ARGS...

The CLI runs exactly as `python -m percohom.cli CLI_ARGS...` would run it;
only function bindings are swapped, no file under src/ is touched.

TRACE=0 wraps only the layer functions that the `percohom.cli` module calls
itself, and each wrapper notes the clock when the CLI first calls into a
layer. Nothing inside the layers is wrapped, so the run is not slowed.

TRACE=1 wraps every public function of the layer modules, wherever it is
bound, and records each call as a span: name, parent span, start, end and
the counts read from its arguments and result. Counts are taken after the
span has ended, so their cost is not charged to the layer.

Both write RECORD_JSON when the CLI returns. Times are CLOCK_MONOTONIC
seconds, the clock the parent process reads before it spawns this one.
"""

import functools
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = ("points", "geometry", "solver", "capacity", "sweep", "reporting", "cli")
ENTRY_LAYERS = ("points", "geometry", "solver", "capacity", "sweep")
# The stencil's inner helper runs 2*dim times per operator apply; a span per
# call would cost more than the work it measures on a 16^3 window.
NOT_TRACED = {"solver.shifted"}


def clock():
    return time.monotonic()


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _file_bytes(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


def _nearest_center_d2(points, mask):
    """Squared distance from each point to the nearest cell center of the mask,
    in the same arithmetic the rasterizer uses (per-axis offsets, summed)."""
    d2 = 0
    for d in range(mask.dim):
        lo = mask.domain.lower[d]
        idx = np.clip(np.floor((points[:, d] - lo) / mask.dx), 0, mask.shape[d] - 1)
        g = lo + (idx + 0.5) * mask.dx - points[:, d]
        d2 = d2 + g * g
    return d2


def _capsule_flags_a_cell(a, b, rho, mask):
    lo = np.asarray(mask.domain.lower)
    axes = []
    for d in range(mask.dim):
        i0 = max(int(np.ceil((min(a[d], b[d]) - rho - lo[d]) / mask.dx - 0.5)), 0)
        i1 = min(int(np.floor((max(a[d], b[d]) + rho - lo[d]) / mask.dx - 0.5)),
                 mask.shape[d] - 1)
        if i1 < i0:
            return False
        axes.append(lo[d] + (np.arange(i0, i1 + 1) + 0.5) * mask.dx)
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    ab = b - a
    denom = float(ab @ ab)
    t = np.clip((pts - a) @ ab / denom, 0.0, 1.0) if denom > 0 else 0.0
    proj = a + np.multiply.outer(t, ab) if denom > 0 else a
    return bool(np.any(np.sum((pts - proj) ** 2, axis=1) <= rho * rho))


def _useful_obstacles(obstacles, mask):
    """Obstacles whose set covers at least one cell center of the mask."""
    pts = obstacles.points.points
    if obstacles.kind == "balls":
        r = obstacles.ball_radii
        return int(np.count_nonzero(_nearest_center_d2(pts, mask) <= r * r))
    rho = obstacles.tube_radius
    edges = obstacles.edges.edges
    # An endpoint whose nearest cell center lies within rho settles the
    # capsule at once; only the rest are scanned cell by cell.
    quick = (_nearest_center_d2(pts, mask) <= rho * rho)
    useful = 0
    for i, j in edges:
        if quick[i] or quick[j] or _capsule_flags_a_cell(pts[i], pts[j], rho, mask):
            useful += 1
    return useful


def _rasterize_counts(fn, args, kwargs, result):
    obstacles = _bound(fn, args, kwargs)["obstacles"]
    n = obstacles.edges.count if obstacles.kind == "tubes" else obstacles.points.count
    return {"obstacles": n, "useful": _useful_obstacles(obstacles, result),
            "hole_cells": result.hole_count}


def _overlap_counts(fn, args, kwargs, result):
    edges = _bound(fn, args, kwargs)["obstacles"].edges.count
    return {"pairs": edges * (edges - 1) // 2 if result is not None else 0}


def _jobs(fn, args, kwargs, result):
    spec = _bound(fn, args, kwargs)["spec"]
    scales = spec.eps_list if hasattr(spec, "eps_list") else spec.t_list
    return {"jobs": len(scales) * spec.replicas}


COUNTERS = {
    "points.sample_poisson": lambda fn, a, k, r: {"points": r.count},
    "geometry.rasterize": _rasterize_counts,
    "geometry.tube_overlap_count": _overlap_counts,
    "solver.cg_solve": lambda fn, a, k, r: {"iterations": r[1].iterations},
    "sweep.run_sweep": _jobs,
    "sweep.ergodic_average_experiment": _jobs,
    "reporting.write_csv": _file_bytes,
    "reporting.write_json": _file_bytes,
    "reporting.write_plot_data": _file_bytes,
    "geometry.save_mask": _file_bytes,
    "solver.save_field": _file_bytes,
}


class Tracer:
    """Spans kept in memory as [name, parent, start, end, counts]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.first_layer_call = None

    def traced(self, name, fn):
        spans, stack, counter = self.spans, self.stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                try:
                    span[4] = counter(fn, args, kwargs, result)
                except Exception as exc:  # a count lost must not fail the run
                    span[4] = {"error": f"{type(exc).__name__}: {exc}"}
            return result

        return wrapper

    def entry(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.first_layer_call is None:
                self.first_layer_call = clock()
            return fn(*args, **kwargs)

        return wrapper


def _public_functions(layers):
    """{function: 'layer.name'} for the public functions each layer defines."""
    found = {}
    for layer in layers:
        module = sys.modules[f"percohom.{layer}"]
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                found[obj] = f"{layer}.{name}"
    return found


def _rebind(modules, replacements):
    for module in modules:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replacements:
                setattr(module, name, replacements[obj])


def install(tracer, trace):
    cli = sys.modules["percohom.cli"]
    entries = _public_functions(ENTRY_LAYERS)
    entry_wrappers = {fn: tracer.entry(fn) for fn in entries}
    if not trace:
        _rebind([cli], entry_wrappers)
        return
    names = {fn: name for fn, name in _public_functions(LAYERS).items()
             if name not in NOT_TRACED}
    wrappers = {fn: tracer.traced(name, fn) for fn, name in names.items()}
    modules = [m for key, m in sys.modules.items()
               if key == "percohom" or key.startswith("percohom.")]
    _rebind(modules, wrappers)
    # The first call from the CLI into a layer also passes through the span.
    _rebind([cli], {wrappers[fn]: tracer.entry(wrappers[fn])
                    for fn in entries if fn in wrappers})


def main():
    record_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import percohom.cli
    tracer = Tracer()
    install(tracer, trace)
    try:
        return percohom.cli.main(argv)
    finally:
        with open(record_path, "w") as fh:
            json.dump({"first_layer_call": tracer.first_layer_call,
                       "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
