"""The percohom benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N] [--seconds S]
    python3 perfbench/run.py --record

--workload runs one workload. Its last line of output is a JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of BENCHMARK.json with --trace 1.
--report runs every workload untraced and traced on the seed, checks each
once more on the next seed, and prints every metric as a table.
--record rewrites perfbench/reference.json from the program as it stands.

Each CLI run is a process of its own, started with perfbench/launch.py from
the checkout's src/ and given only the generated config file. See
perfbench/README.md for the workloads, the metrics and the checks.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
REFERENCE_PATH = BENCH / "reference.json"
HARD_LIMIT_S = 170.0        # a run must end within 180 s
RECORDED_SEEDS = 8          # realizations with recorded reference values


# ---------------------------------------------------------------------------
# Workloads. The configs are fixed here, not taken from the presets, so that
# editing a preset cannot change what is measured.

def sweep3d_config(seed):
    return {"family": {"kind": "boolean", "dim": 3, "intensity": 1.0,
                       "r0": 0.35, "radius_exponent": 1.0},
            "domain_side": 1.0, "eps_list": [0.125, 0.1, 0.0625],
            "h_list": [0.75, 0.55], "reaction": 1.0, "source": "-1",
            "grid_cells": 64, "capacity_cells_per_h": 32, "replicas": 1,
            "tol": 1e-8, "seed": seed}


def ergodic3d_config(seed):
    return {"functional": "local_capacity",
            "family": {"kind": "boolean", "dim": 3, "intensity": 0.5,
                       "r0": 0.34, "radius_exponent": 1.0},
            "t_list": [2.0, 3.0, 4.0], "replicas": 128, "dx": 1.0 / 6.0,
            "seed": seed}


def geometry_rcm3d_config(seed):
    return {"family": {"kind": "rcm", "dim": 3, "intensity": 1.0,
                       "c1": 0.5, "c2": 1.0},
            "eps": 1.0 / 7.0, "grid_cells": 128, "domain_side": 1.0, "seed": seed}


# BENCHMARK.json gates sweep3d and geometry-rcm3d. ergodic3d runs with
# --workload and --report only: its two workers fill both cores of a small
# machine, so a slow spell on either core swings its wall time too far
# between runs for a bound.
WORKLOADS = {
    # name: (subcommand, config maker, worker processes, recorded reference)
    "sweep3d": ("sweep", sweep3d_config, 1, True),
    "ergodic3d": ("ergodic", ergodic3d_config, 2, False),
    "geometry-rcm3d": ("geometry", geometry_rcm3d_config, 1, True),
}


def config_seed(workload, seed):
    """The seed written into the config. A workload checked against recorded
    values takes the recorded realizations in turn; the others use it as given."""
    if not WORKLOADS[workload][3]:
        return seed
    recorded = sorted(int(s) for s in json.loads(REFERENCE_PATH.read_text())[workload])
    return recorded[seed % len(recorded)]


def import_src():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# One CLI run

class Run:
    """What one process of the CLI did: timings, exit code, artifacts, spans."""

    def __init__(self, tag, wall, setup, cpu, rss_mb, code, outdir, spans, log):
        self.tag, self.wall, self.setup = tag, wall, setup
        self.cpu, self.rss_mb, self.code = cpu, rss_mb, code
        self.outdir, self.spans, self.log = outdir, spans, log
        self.artifacts = {}
        self.problems = []

    @property
    def ok(self):
        return self.code == 0 and not self.problems


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:  # it ended as the limit passed
        pass


class Workspace:
    """A scratch directory inside the checkout and the clock of one benchmark run."""

    def __init__(self, limit=HARD_LIMIT_S):
        self.start, self.limit = time.monotonic(), limit
        self.work = ROOT / ".perfbench_work" / str(os.getpid())
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.count = 0

    def remaining(self):
        return self.limit - (time.monotonic() - self.start)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def python(self, *args):
        """Run a helper under the checkout's src/; returns its standard output."""
        proc = subprocess.run([sys.executable, *args], env=self.env, cwd=self.work,
                              capture_output=True, text=True,
                              timeout=max(self.remaining(), 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"{args[-1]} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        return proc.stdout

    def run_cli(self, workload, config, threads, trace):
        self.count += 1
        tag = self.work / f"run{self.count}"
        tag.mkdir()
        config_path, record_path = tag / "config.json", tag / "record.json"
        config_path.write_text(json.dumps(config))
        argv = [sys.executable, str(BENCH / "launch.py"), str(record_path),
                "1" if trace else "0", WORKLOADS[workload][0], "--config",
                str(config_path), "--out", str(tag / "out"), "--threads", str(threads)]
        with open(tag / "stdout", "w") as out, open(tag / "stderr", "w") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=tag,
                                    start_new_session=True)
            # Past the hard limit the run and any pool workers it started are killed.
            timer = threading.Timer(max(self.remaining(), 1.0), _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no process behind
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            record = json.loads(record_path.read_text())
        except (OSError, ValueError):  # the run died before writing it
            record = {}
        first = record.get("first_layer_call")
        printed = (tag / "stdout").read_text().split()
        run = Run(tag=tag, wall=wall, setup=first - t0 if first is not None else math.nan,
                  cpu=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss / 1024.0,
                  code=proc.returncode, outdir=Path(printed[-1]) if printed else None,
                  spans=record.get("spans", []), log=(tag / "stderr").read_text())
        if run.code != 0:
            run.problems.append(f"exit code {run.code}: {run.log.strip()[-500:]}")
        elif first is None:
            run.problems.append("the CLI never called into a layer")
        return run

    def discard(self, run):
        shutil.rmtree(run.tag, ignore_errors=True)


# ---------------------------------------------------------------------------
# Correctness checks; each returns a list of problems.

def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(value, ref, scale, slack):
    return abs(float(value) - ref) <= slack * abs(scale)


def check_sweep3d(run, config, reference):
    out = run.outdir
    summary = json.loads((out / "summary.json").read_text())
    rows = _read_csv(out / "report.csv")
    caps = _read_csv(out / "cap_table.csv")
    problems = []
    if summary["partial"] is not False:
        problems.append("summary.partial is not false")
    for key in ("gamma_nonpositive", "energy_bound_holds"):
        if summary[key] is not True:
            problems.append(f"summary.{key} is not true")
    c = summary["c"]
    if not (isinstance(c, float) and math.isfinite(c) and c > 0):
        problems.append(f"c = {c!r} is not finite and positive")
    tol = config["tol"]
    for r in rows:
        where = f"row eps={r['eps']} replica={r['replica']}"
        if r["failure"]:
            problems.append(f"{where} failed: {r['failure']}")
        if not float(r["residual"]) <= tol:
            problems.append(f"{where}: residual {r['residual']} > tol {tol}")
        if not int(r["hole_cells"]) > 0:
            problems.append(f"{where}: no hole cells")
    if reference is None:
        return problems
    # CG stops at relative residual tol, so a solution may be off by
    # cond(A) * tol relative to its norm; cond(A) < 4 n^2 / pi^2 on n^3 cells.
    slack = 4.0 * config["grid_cells"] ** 2 / math.pi ** 2 * tol
    ref_rows = {(r["eps"], r["replica"]): r for r in reference["rows"]}
    if len(rows) != len(ref_rows) or len(caps) != len(reference["caps"]):
        return problems + ["row count differs from the reference"]
    for r in rows:
        ref = ref_rows[(float(r["eps"]), int(r["replica"]))]
        for key, scale in (("h1", ref["h1"]), ("gamma", ref["gamma"]),
                           ("l2_error", ref["h1"])):
            if not _close(r[key], ref[key], scale, slack):
                problems.append(f"row eps={r['eps']} replica={r['replica']}: "
                                f"{key} {r[key]} != reference {ref[key]!r}")
    for r, ref in zip(caps, reference["caps"]):
        if not _close(r["cap"], ref["cap"], ref["cap"], slack):
            problems.append(f"cap h={r['h']} eps={r['eps']}: {r['cap']} != "
                            f"reference {ref['cap']!r}")
    if not _close(c, reference["c"], reference["c"], slack):
        problems.append(f"c {c!r} != reference {reference['c']!r}")
    return problems


def sweep3d_reference(run):
    rows = _read_csv(run.outdir / "report.csv")
    caps = _read_csv(run.outdir / "cap_table.csv")
    summary = json.loads((run.outdir / "summary.json").read_text())
    return {"rows": [{"eps": float(r["eps"]), "replica": int(r["replica"]),
                      "h1": float(r["h1"]), "gamma": float(r["gamma"]),
                      "l2_error": float(r["l2_error"])} for r in rows],
            "caps": [{"h": float(r["h"]), "eps": float(r["eps"]),
                      "cap": float(r["cap"])} for r in caps],
            "c": summary["c"]}


GEOMETRY_EXACT = ("hole_cells", "edge_count", "component_count", "tube_overlap_pairs")


def check_geometry_rcm3d(run, config, reference):
    import_src()
    from percohom.geometry import load_mask, save_mask
    stats = json.loads((run.outdir / "stats.json").read_text())
    problems = []
    mask_path = run.outdir / "mask.txt"
    mask = load_mask(str(mask_path))
    again = run.outdir / "mask-roundtrip.txt"
    save_mask(mask, str(again))
    if again.read_bytes() != mask_path.read_bytes():
        problems.append("mask.txt does not round-trip through load_mask/save_mask")
    if mask.hole_count != stats["hole_cells"]:
        problems.append("the mask's hole count differs from stats.hole_cells")
    if mask.shape != (config["grid_cells"],) * 3:
        problems.append(f"mask shape {mask.shape}")
    for key in GEOMETRY_EXACT:
        if reference is not None and stats.get(key) != reference[key]:
            problems.append(f"{key} {stats.get(key)!r} != reference {reference[key]!r}")
    return problems


def geometry_rcm3d_reference(run):
    stats = json.loads((run.outdir / "stats.json").read_text())
    return {key: stats[key] for key in GEOMETRY_EXACT}


def check_ergodic3d(run, config, reference):
    """The byte-for-byte comparison with a 1-process traced run is made by the
    caller; here each cube size must have a finite, positive mean."""
    rows = _read_csv(run.outdir / "decay.csv")
    if [float(r["t"]) for r in rows] != config["t_list"]:
        return [f"decay.csv has t = {[r['t'] for r in rows]}"]
    return [f"t={r['t']}: mean {r['mean']} is not finite and positive"
            for r in rows if not (math.isfinite(float(r["mean"])) and float(r["mean"]) > 0)]


CHECKS = {"sweep3d": check_sweep3d, "ergodic3d": check_ergodic3d,
          "geometry-rcm3d": check_geometry_rcm3d}
ARTIFACTS = {"sweep3d": ("report.csv", "cap_table.csv", "summary.json", "plot_eps_l2.txt"),
             "ergodic3d": ("decay.csv", "plot_t_relstd.txt", "summary.json"),
             "geometry-rcm3d": ("mask.txt", "stats.json")}


def recorded_reference(workload, cseed):
    if not WORKLOADS[workload][3]:
        return None
    return json.loads(REFERENCE_PATH.read_text())[workload][str(cseed)]


def checked(workspace, workload, config, threads, trace, expected=None):
    """One CLI run with its checks. `expected` maps artifact names to the bytes
    another run of the same config and code wrote; they must be equal."""
    run = workspace.run_cli(workload, config, threads, trace)
    if run.code == 0 and run.outdir is not None:
        try:
            run.artifacts = {name: (run.outdir / name).read_bytes()
                             for name in ARTIFACTS[workload]}
            reference = recorded_reference(workload, config["seed"])
            run.problems.extend(CHECKS[workload](run, config, reference))
        except (OSError, KeyError, IndexError, ValueError) as exc:
            run.problems.append(f"artifacts unreadable: {type(exc).__name__}: {exc}")
        for name, data in (expected or {}).items():
            if run.artifacts.get(name) != data:
                run.problems.append(f"{name} differs from the 1-process traced run's")
    workspace.discard(run)
    return run


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one traced run

WINDOW = "capacity.capacity_minimizer_on_window"
SWEEP_ENTRIES = ("sweep.run_sweep", "sweep.ergodic_average_experiment")
ENERGY = {"solver.energy_gamma", "solver.gradient_energy", "solver.h1_norm",
          "solver.l2_norm", "solver.l2_distance"}
STAGES = {
    "geometry.sample_family": "geometry.sample",
    "geometry.build_rcm_edges": "geometry.sample",
    "geometry.build_tubes": "geometry.sample",
    "geometry.build_balls": "geometry.sample",
    "geometry.rcm_obstacles": "geometry.sample",
    "geometry.scale_obstacles": "geometry.sample",
    "geometry.rasterize": "geometry.rasterize",
    "geometry.hole_free_mask": "geometry.rasterize",
    "geometry.tube_overlap_count": "geometry.overlap",
    "geometry.connected_components": "geometry.components",
    "geometry.save_mask": "reporting.write",
    "solver.save_field": "reporting.write",
    "capacity.boolean_capacity_constant": "capacity.constant",
    "cli.resolve_config": "cli.config",
    "cli.validate_config": "cli.config",
    **{name: "solver.energy" for name in ENERGY},
}
MODULE_STAGES = {"points": "points.sample", "solver": "solver.solve",
                 "capacity": "capacity.window", "sweep": "sweep.self",
                 "reporting": "reporting.write"}


def stage_of(name):
    """The layer a span's self time is charged to: its function's stage, or
    its module's; anything else (cli.main, geometry stats) is charged nowhere."""
    return STAGES.get(name) or MODULE_STAGES.get(name.split(".")[0], "other")


def layer_metrics(spans):
    """Self time per stage and exact counts. A span's self time is its
    duration minus the durations of the spans it called directly."""
    self_time = [end - start for _, _, start, end, _ in spans]
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    busy = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    for (name, _, _, _, c), t in zip(spans, self_time):
        busy[stage_of(name)] += t
        calls[name] += 1
        for key, value in (c or {}).items():
            if key != "error":
                counts[f"{name}.{key}"] += value
    solved_windows, window_iterations, cg_s = set(), 0, 0.0
    for i, (name, parent, _, _, c) in enumerate(spans):
        if name != "solver.cg_solve":
            continue
        cg_s += self_time[i]
        while parent >= 0 and spans[parent][0] != WINDOW:
            parent = spans[parent][1]
        if parent >= 0:
            solved_windows.add(parent)
            window_iterations += (c or {}).get("iterations", 0)
    iterations = counts["solver.cg_solve.iterations"]
    obstacles = counts["geometry.rasterize.obstacles"]
    windows = calls[WINDOW]
    return {
        "points.sample_s": busy["points.sample"],
        "points.count": counts["points.sample_poisson.points"],
        "geometry.sample_s": busy["geometry.sample"],
        "geometry.rasterize_s": busy["geometry.rasterize"],
        "geometry.rasterize_obstacles": obstacles,
        "geometry.hole_cells": counts["geometry.rasterize.hole_cells"],
        "geometry.raster_useful_ratio":
            counts["geometry.rasterize.useful"] / obstacles if obstacles else 0.0,
        "geometry.overlap_s": busy["geometry.overlap"],
        "geometry.overlap_pairs": counts["geometry.tube_overlap_count.pairs"],
        "geometry.components_s": busy["geometry.components"],
        "solver.solves": calls["solver.cg_solve"],
        "solver.cg_iterations": iterations,
        "solver.solve_s": busy["solver.solve"],
        "solver.iteration_ms": 1e3 * cg_s / iterations if iterations else 0.0,
        "solver.energy_s": busy["solver.energy"],
        "capacity.windows": windows,
        "capacity.window_solve_ratio": len(solved_windows) / windows if windows else 0.0,
        "capacity.window_s": busy["capacity.window"],
        "capacity.cg_iterations": window_iterations,
        "capacity.constant_s": busy["capacity.constant"],
        "sweep.jobs": sum(counts[f"{name}.jobs"] for name in SWEEP_ENTRIES),
        "sweep.self_s": busy["sweep.self"],
        "sweep.busy_s": sum(end - start for name, _, start, end, _ in spans
                            if name in SWEEP_ENTRIES),
        "reporting.write_s": busy["reporting.write"],
        "reporting.bytes": sum(v for k, v in counts.items() if k.endswith(".bytes")),
        "cli.config_s": busy["cli.config"],
    }


EXACT_COUNTS = ("points.count", "geometry.rasterize_obstacles", "geometry.hole_cells",
                "geometry.overlap_pairs", "solver.solves", "solver.cg_iterations",
                "capacity.windows", "capacity.cg_iterations", "sweep.jobs",
                "reporting.bytes")


# ---------------------------------------------------------------------------
# Measurement

def _median(values):
    return statistics.median(values) if values else math.nan


def _quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (math.nan, math.nan)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Result:
    """The runs a measurement attempted and the metrics it derived from them."""

    def __init__(self, workload, seed, trace):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.runs = []          # every CLI run started, reference runs included
        self.problems = []      # failures outside CLI runs, such as a probe
        self.notes = []         # warnings that are not failures
        self.samples = {}       # end-to-end metric -> per-run values
        self.metrics = {}       # metric -> value

    @property
    def attempted(self):
        return len(self.runs) + len(self.problems)

    @property
    def failed(self):
        return sum(not r.ok for r in self.runs) + len(self.problems)


def repeat(workspace, deadline, start_run, walls):
    """Closed loop: start runs back to back, one at a time, while a run as long
    as the median so far still ends before the deadline and the hard limit."""
    runs = []
    while not runs or runs[-1].code >= 0:
        if walls:
            typical = statistics.median(walls)
            if (time.monotonic() + typical > deadline
                    or 1.5 * typical > workspace.remaining()):
                break
        runs.append(start_run())
        walls.append(runs[-1].wall)
    return runs


def measure_untraced(workspace, result, seconds):
    """Runs of one config, back to back for `seconds`; end-to-end samples."""
    _, make_config, threads, recorded = WORKLOADS[result.workload]
    config = make_config(config_seed(result.workload, result.seed))
    expected = None
    if not recorded:
        reference = checked(workspace, result.workload, config, 1, True)
        result.runs.append(reference)
        if not reference.ok:
            return
        expected = reference.artifacts
    deadline = time.monotonic() + seconds
    measured = repeat(workspace, deadline, lambda: checked(
        workspace, result.workload, config, threads, False, expected), [])
    result.runs += measured
    ok = [r for r in measured if r.ok]
    result.samples = {"wall_s": [r.wall for r in ok], "setup_s": [r.setup for r in ok],
                      "cpu_s": [r.cpu for r in ok], "peak_rss_mb": [r.rss_mb for r in ok]}
    result.metrics = {name: _median(values) for name, values in result.samples.items()}


def measure_traced(workspace, result, seconds):
    """A traced 1-process run, the same config untraced, more traced runs
    while `seconds` last, then the kernel probes."""
    _, make_config, threads, _ = WORKLOADS[result.workload]
    config = make_config(config_seed(result.workload, result.seed))
    deadline = time.monotonic() + seconds
    first = checked(workspace, result.workload, config, 1, True)
    result.runs.append(first)
    if not first.ok:
        return
    plain = checked(workspace, result.workload, config, threads, False, first.artifacts)
    result.runs.append(plain)
    # Tracing overhead compares runs with the same number of processes.
    solo = plain
    if threads != 1:
        solo = checked(workspace, result.workload, config, 1, False, first.artifacts)
        result.runs.append(solo)
    layers = [layer_metrics(first.spans)]
    result.notes += sorted({f"count lost in {name}: {c['error']}"
                            for name, _, _, _, c in first.spans if c and "error" in c})

    def again():
        run = checked(workspace, result.workload, config, 1, True, first.artifacts)
        if run.ok:
            layers.append(layer_metrics(run.spans))
            run.problems += [f"{key} {layers[-1][key]} != {layers[0][key]} in the first "
                             f"traced run" for key in EXACT_COUNTS
                             if layers[-1][key] != layers[0][key]]
        return run

    traced = [first] + repeat(workspace, deadline, again, [first.wall])
    result.runs += traced[1:]
    metrics = {key: _median([m[key] for m in layers]) for key in layers[0]}
    walls = [r.wall for r in traced if r.ok]
    metrics["trace.overhead_s"] = _median(walls) - solo.wall
    metrics["sweep.pool_efficiency"] = metrics.pop("sweep.busy_s") / (threads * plain.wall)
    try:
        probes = workspace.python(str(BENCH / "probe.py")).splitlines()[-1]
        metrics.update(json.loads(probes))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        result.problems.append(f"kernel probes: {exc}")
    result.metrics = metrics


def measure(workload, seed, seconds, trace):
    result = Result(workload, seed, trace)
    workspace = Workspace()
    try:
        workspace.python("-c", "import percohom.cli")  # fill the bytecode cache once
        (measure_traced if trace else measure_untraced)(workspace, result, seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        result.problems.append(str(exc))
    finally:
        workspace.close()
    return result


# ---------------------------------------------------------------------------
# Output

def metric_specs(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, env=dict(os.environ,
                                                  GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed, workload=None):
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "workload": workload, "seed": seed,
            "config_seed": config_seed(workload, seed) if workload else None,
            "git_commit": git_commit() or "unknown (not a git checkout)",
            "src_sha256": digest.hexdigest()}


def describe(result):
    """Human-readable lines: failures, samples with quartiles, per-layer values."""
    lines = [f"# {result.workload} seed {result.seed} trace {int(result.trace)}: "
             f"{result.failed} of {result.attempted} attempted failed"]
    for run in result.runs:
        lines += [f"#   FAIL {problem}" for problem in run.problems]
    lines += [f"#   FAIL {problem}" for problem in result.problems]
    lines += [f"#   WARN {note}" for note in result.notes]
    for spec in metric_specs(result.trace):
        name = spec["name"]
        value = result.metrics.get(name, math.nan)
        if name in result.samples:
            q1, q3 = _quartiles(result.samples[name])
            lines.append(f"#   {name:34s} {value:12.6g} {spec['unit']:6s} "
                         f"q1 {q1:.6g} q3 {q3:.6g} n={len(result.samples[name])}")
        else:
            lines.append(f"#   {name:34s} {value:12.6g} {spec['unit']}")
    if not result.trace:
        frac = result.failed / max(result.attempted, 1)
        lines.append(f"#   {'failed_frac':34s} {frac:12.6g} {'ratio':6s} "
                     f"n={result.attempted}")
    return lines


def result_json(result):
    metrics = {}
    for spec in metric_specs(result.trace):
        value = result.metrics.get(spec["name"], math.nan)
        if not math.isfinite(value):
            value = 0.0  # only when no run succeeded; `failed` says so
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return json.dumps({"correct": result.failed == 0, "attempted": max(result.attempted, 1),
                       "failed": result.failed, "metrics": metrics})


def report(seed, seconds):
    """Every workload untraced and traced on `seed`, and checked on `seed + 1`."""
    print("# provenance " + json.dumps(provenance(seed)))
    for workload in WORKLOADS:
        for result in (measure(workload, seed, seconds, False),
                       measure(workload, seed, seconds, True),
                       measure(workload, seed + 1, 0, False)):
            print("\n".join(describe(result)), flush=True)


def tube_counts(seeds):
    import_src()
    from percohom.geometry import GeometryFamily, sample_family
    from percohom.points import Box
    config = geometry_rcm3d_config(0)
    family = GeometryFamily(**config["family"])
    domain = Box.cube(config["domain_side"], family.dim)
    return {s: sample_family(family, config["eps"], s, domain)[0].edges.count
            for s in seeds}


def realizations(workload):
    """Config seeds to record. geometry-rcm3d's cost grows with the square of
    its tube count, which varies by about a tenth between realizations, so it
    takes the first seeds whose tube count is within 1% of the median of 400
    seeds: then no workload seed costs more than another. sweep3d's ball and
    CG iteration counts vary by about 1% between realizations, so it takes
    seeds 0 to 7."""
    if workload != "geometry-rcm3d":
        return list(range(RECORDED_SEEDS))
    counts = tube_counts(range(400))
    target = statistics.median(counts.values())
    near = [s for s, e in counts.items() if abs(e - target) <= 0.01 * target]
    return near[:RECORDED_SEEDS]


def record():
    """Write the reference values the checks compare against, one entry per
    recorded realization, after the invariant checks pass on each."""
    workspace = Workspace(limit=3600.0)
    table = {}
    try:
        for workload, (_, make_config, threads, recorded) in WORKLOADS.items():
            if not recorded:
                continue
            for cseed in realizations(workload):
                config = make_config(cseed)
                run = workspace.run_cli(workload, config, threads, False)
                problems = run.problems or CHECKS[workload](run, config, None)
                if problems:
                    raise SystemExit(f"{workload} seed {cseed}: {problems}")
                table.setdefault(workload, {})[str(cseed)] = REFERENCES[workload](run)
                workspace.discard(run)
                print(f"# recorded {workload} seed {cseed}", flush=True)
    finally:
        workspace.close()
    REFERENCE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


REFERENCES = {"sweep3d": sweep3d_reference, "geometry-rcm3d": geometry_rcm3d_reference}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "percohom" / "cli.py").is_file():
        sys.exit(f"no percohom sources at {SRC}; run from the root of a checkout")
    if args.record:
        record()
    elif args.report:
        report(args.seed, args.seconds)
    elif args.workload is None:
        parser.error("one of --workload, --report, --record is required")
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print("# provenance " + json.dumps(provenance(args.seed, args.workload)))
        print("\n".join(describe(result)))
        print(result_json(result))


if __name__ == "__main__":
    main()
