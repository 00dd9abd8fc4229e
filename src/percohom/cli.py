"""Command-line entry point.

Subcommands: geometry, solve, capacity, sweep, ergodic, density-check, and
validate.  A run resolves its configuration (preset or JSON file, then
--set overrides, then --seed), validates it strictly (unknown keys are
rejected), executes, and writes its artifacts into an output directory named
by the content hash of (config, seed, version).  Exit codes: 0 success,
2 validation error, 3 solver failure.

Each subcommand, and each mode of `solve` and `capacity`, reads its config
through one frozen dataclass, its spec.  The spec's fields are the keys the
run reads, with their types and defaults; any other key is rejected.  Its
`run` writes the artifacts.  Its `validate()` reports each rule from the
library function that enforces it, through a `*_diagnostics` function,
`sweep._CubeGrid` or `errors.refusal`; a spec writes only the rules that no
library call makes.  The specs of `sweep` and `ergodic` add their `run` to
the library's SweepSpec and ErgodicSpec.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass

import numpy as np

from . import presets
from .capacity import (_check_gamma, _electrode, _table_diagnostics, _window,
                       conductivity_tensor, newton_capacity, strange_term)
from .errors import (ConfigError, InvalidArgumentError, SolverFailureError,
                     diagnostics_of, refusal)
from .geometry import (Box, GeometryFamily, _probe_diagnostics, build_balls,
                       density_ratio_check, hole_free_mask, mask_stats, rasterize,
                       sample_family, save_mask)
from .points import PointConfiguration, _positive
from .reporting import (RunRecord, content_hash, output_directory, write_csv,
                        write_json, write_plot_data)
from .solver import (_solve_diagnostics, energy_gamma, h1_norm, l2_norm, save_field,
                     solve_dirichlet_perforated)
from .sweep import (DEFAULT_REACTION, DEFAULT_SOURCE, ErgodicSpec, SweepRow, SweepSpec,
                    _CubeGrid, ergodic_average_experiment, run_sweep)

SUBCOMMANDS = ("geometry", "solve", "capacity", "sweep", "ergodic", "density-check")

REQUIRED = MISSING  # the default of a key without one, as in dataclasses
# the key not named after its dataclass field
_RENAMED = {"master_seed": "seed"}


def _is_number(value):
    """A finite JSON number (Python's JSON reader also takes NaN and Infinity)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _convert(kind, value, field, diags):
    """A JSON value as a `kind`: int, float, str, tuple (a list of numbers)
    or a dataclass (an object with its keys).  Adds a diagnostic to `diags`
    and returns None when the value is not one."""
    if is_dataclass(kind) and isinstance(value, dict):
        try:
            return _read(kind, value, diags, prefix=field + ".")
        except InvalidArgumentError as exc:  # a family kind or dimension
            diags.append({"field": field, "message": str(exc)})
            return None
    if kind is tuple and isinstance(value, list) and all(map(_is_number, value)):
        return tuple(float(v) for v in value)
    if kind is float and _is_number(value):
        return float(value)
    if kind in (int, str) and isinstance(value, kind) and not isinstance(value, bool):
        return value
    diags.append({"field": field, "message": f"{field} has the wrong type: {value!r}"})
    return None


def _read(cls, config, diags, prefix=""):
    """The `cls` of a JSON object, in one walk over its fields: each key's
    value converted to its field's type and defaults filled in.  A None
    default also accepts null.  Unknown keys, wrong types and missing
    required keys go to `diags`, and then the result is None."""
    keys = {_RENAMED.get(f.name, f.name): f for f in fields(cls)}
    found = len(diags)
    diags += [{"field": prefix + key, "message": f"unknown key {key!r}"}
              for key in config if key not in keys]
    kwargs = {}
    for key, f in keys.items():
        field = prefix + key
        value = config.get(key, f.default)
        if value is REQUIRED:
            diags.append({"field": field, "message": f"missing required key {field!r}"})
        elif key in config and (value is not None or f.default is not None):
            value = _convert(f.type, value, field, diags)
        kwargs[f.name] = value
    if len(diags) > found:
        return None
    return cls(**kwargs)


_CAP_COLUMNS = ("h", "eps", "seed", "cap", "cap_per_hn", "iterations", "dx")


def _write_rows(path, columns, rows):
    """A CSV table with one line per row object, one column per attribute."""
    write_csv(path, columns, [[getattr(r, c) for c in columns] for r in rows])


def _capacity_outputs(outdir, columns, rows, summary):
    """The two artifacts of every capacity mode, capacity.csv and
    summary.json; returns their paths."""
    csv_path = os.path.join(outdir, "capacity.csv")
    write_csv(csv_path, columns, rows)
    summary_path = os.path.join(outdir, "summary.json")
    write_json(summary_path, {"format_version": 1, **summary})
    return {"table": csv_path, "summary": summary_path}


# ---------------------------------------------------------------------------
# The specs: one per subcommand, and per mode of solve and capacity

@dataclass(frozen=True, kw_only=True)
class _FamilyRun(_CubeGrid):
    """A run on one realization of a geometry family at scale eps."""

    family: GeometryFamily
    eps: float

    def realization(self):
        """Sample the family on the domain and rasterize it on the grid;
        returns (obstacles, unscaled configuration, mask)."""
        domain = self.domain()
        obstacles, unscaled = sample_family(self.family, self.eps, self.master_seed, domain)
        return obstacles, unscaled, rasterize(obstacles, domain, self.dx())

    def mask(self):
        return self.realization()[2]

    def validate(self):
        family = self.family.validate(self.domain_side, self.eps)
        return super().validate() + family + refusal("eps", _positive, self.eps, "eps")


@dataclass(frozen=True, kw_only=True)
class GeometrySpec(_FamilyRun):
    """geometry: one realization's mask and statistics."""

    def run(self, outdir, threads):
        obstacles, cfg_unscaled, mask = self.realization()
        mask_path = os.path.join(outdir, "mask.txt")
        save_mask(mask, mask_path)
        stats_path = os.path.join(outdir, "stats.json")
        write_json(stats_path, mask_stats(mask, obstacles, cfg_unscaled))
        return {"mask": mask_path, "stats": stats_path}


@dataclass(frozen=True, kw_only=True)
class DensityCheckSpec(_FamilyRun):
    """density-check: hole-volume ratios in `probes` balls of `radius`."""

    radius: float
    probes: int

    def validate(self):
        return super().validate() + _probe_diagnostics(self.radius, self.probes, self.dim) + (
            diagnostics_of([(self.radius > self.domain_side, "radius", "radius must not "
                             "exceed domain_side: a larger ball measures nothing")]))

    def run(self, outdir, threads):
        check = density_ratio_check(self.mask(), self.radius, self.probes,
                                    self.master_seed)
        path = os.path.join(outdir, "density.json")
        write_json(path, {"format_version": 1, **asdict(check)})
        return {"density": path}


@dataclass(frozen=True, kw_only=True)
class _Solve(_CubeGrid):
    """solve: the perforated Dirichlet problem on the mask of the mode."""

    mode: str
    reaction: float = DEFAULT_REACTION
    source: str = DEFAULT_SOURCE
    tol: float = 1e-8
    max_iter: int = None

    def validate(self):
        return self._run_diagnostics(self.max_iter)[1]

    def run(self, outdir, threads):
        mask = self.mask()
        u, rep = solve_dirichlet_perforated(mask, self.reaction, self.source, tol=self.tol,
                                            max_iter=self.max_iter)
        field_path = os.path.join(outdir, "field.txt")
        save_field(u, field_path)
        report = {
            "format_version": 1,
            "iterations": rep.iterations,
            "final_rel_residual": rep.final_rel_residual,
            "l2_norm": l2_norm(u),
            "h1_norm": h1_norm(u),
            "gamma": energy_gamma(u, self.reaction, self.source),
            "hole_cells": mask.hole_count,
        }
        report_path = os.path.join(outdir, "report.json")
        write_json(report_path, report)
        return {"field": field_path, "report": report_path, "wall_time": rep.wall_time}


@dataclass(frozen=True, kw_only=True)
class HoleFreeSolveSpec(_Solve):
    """solve, mode hole-free: the unperforated cube of dimension `dim`."""

    dim: int = 2

    def mask(self):
        return hole_free_mask(self.domain(), self.dx())


@dataclass(frozen=True, kw_only=True)
class FamilySolveSpec(_FamilyRun, _Solve):
    """solve, mode family: one realization of the family."""


@dataclass(frozen=True, kw_only=True)
class NewtonLadderSpec:
    """capacity, mode newton-ladder: the Newton capacity of a ball of
    `radius` at the origin in the grounded cube [-outer_radius,
    outer_radius]^3 at each dx of `dx_list`, against the shell value
    S = 4 pi / (1/radius - 1/outer_radius): an upper bound, not the exact
    value, since the cube holds the shell's grounded ball."""

    mode: str
    radius: float
    outer_radius: float
    dx_list: tuple
    tol: float = 1e-7
    master_seed: int = 0

    def ball(self):
        R = self.outer_radius
        cfg = PointConfiguration(points=np.zeros((1, 3)),
                                 box=Box.cube(2 * R, 3, origin=(-R, -R, -R)),
                                 intensity=0.0, seed=self.master_seed)
        return build_balls(cfg, self.radius)

    def validate(self):
        R = self.outer_radius
        diags = diagnostics_of([
            (not self.radius > 0, "radius", "radius must be positive"),
            (not R > 0, "outer_radius", "outer_radius must be positive"),
            (not self.dx_list, "dx_list", "dx_list must not be empty"),
        ]) + _solve_diagnostics(tol=self.tol)
        for dx in self.dx_list if R > 0 else ():  # the box the run rasterizes
            diags += refusal("dx_list", Box((-R,) * 3, (R,) * 3).grid_shape, dx,
                             context=f"at dx {dx}: ")
        for dx in () if diags else self.dx_list:  # the ball as the run rasterizes it
            diags += refusal("radius", _electrode, self.ball(), R, dx, context=f"at dx {dx}: ")
        return diags

    def run(self, outdir, threads):
        ball = self.ball()
        shell = 4 * math.pi / (1 / self.radius - 1 / self.outer_radius)
        caps = []
        rows = []
        for dx in self.dx_list:
            cap, rep = newton_capacity(ball, self.outer_radius, dx, tol=self.tol)
            caps.append(cap)
            change = abs(caps[-1] - caps[-2]) if len(caps) > 1 else float("nan")
            rows.append((dx, cap, rep.iterations, change, (cap - shell) / shell))
        columns = ["dx", "value", "iterations", "abs_change", "rel_to_shell"]
        return _capacity_outputs(outdir, columns, rows, {
            "values": caps,
            "shell_reference": shell,
            "radius": self.radius,
            "outer_radius": self.outer_radius,
        })


@dataclass(frozen=True, kw_only=True)
class StrangeTermSpec:
    """capacity, mode strange-term: the absorption-constant table of the
    family on the cube [0, domain_side]^dim, dim the family's."""

    mode: str
    family: GeometryFamily
    h_list: tuple
    eps_list: tuple
    replicas: int = 1
    cells_per_h: int = 32
    limsup_bound: float = None
    domain_side: float = 1.0
    master_seed: int = 0

    def validate(self):
        cube = (self.domain_side, self.family.dim)
        side = refusal("domain_side", Box.cube, *cube)
        return side + _table_diagnostics(
            self.family, self.eps_list, self.h_list, self.replicas, self.cells_per_h,
            None if side else Box.cube(*cube))

    def run(self, outdir, threads):
        res = strange_term(self.family, self.h_list, self.eps_list, self.replicas,
                           self.master_seed, Box.cube(self.domain_side, self.family.dim),
                           cells_per_h=self.cells_per_h, limsup_bound=self.limsup_bound)
        rows = [[getattr(r, c) for c in _CAP_COLUMNS] for r in res.rows]
        return _capacity_outputs(outdir, _CAP_COLUMNS, rows, {
            "c": res.c,
            "spread": res.spread,
            "eps_then_h": [list(t) for t in res.eps_then_h],
            "h_then_eps": [list(t) for t in res.h_then_eps],
            "limsup_bound": self.limsup_bound,
            "limsup_flagged": res.limsup_flagged,
        })


@dataclass(frozen=True, kw_only=True)
class ConductivitySpec(_FamilyRun):
    """capacity, mode conductivity: the conductivity tensor of the cube of
    side h at the domain center, penalty exponent gamma."""

    mode: str
    eps: float = 1.0
    h: float
    gamma: float = 1.0

    def validate(self):
        diags = super().validate() + refusal("gamma", _check_gamma, self.gamma)
        domain, grid = self._grid_diagnostics()
        if not grid:  # the run's window: the cube of side h at the center
            diags += refusal("h", _window, domain, self.dx(), domain.center, self.h)
        return diags

    def run(self, outdir, threads):
        mask = self.mask()
        tensor = conductivity_tensor(mask, mask.domain.center, self.h, self.gamma)
        rows = [(i, j, float(tensor.entries[i, j]))
                for i in range(mask.dim) for j in range(mask.dim)]
        return _capacity_outputs(outdir, ["i", "j", "a_ij"], rows, {
            "entries": [[float(v) for v in row] for row in tensor.entries],
            "gamma": tensor.gamma,
            "h": tensor.h,
        })


class SweepRun(SweepSpec):
    """sweep: the library's SweepSpec, run into its report, capacity table,
    summary and plot data."""

    def run(self, outdir, threads):
        report = run_sweep(self, threads=threads)
        csv_path = os.path.join(outdir, "report.csv")
        _write_rows(csv_path, [f.name for f in fields(SweepRow)], report.rows)
        cap_path = os.path.join(outdir, "cap_table.csv")
        _write_rows(cap_path, _CAP_COLUMNS, report.cap_rows)
        summary_path = os.path.join(outdir, "summary.json")
        write_json(summary_path, report.summary)
        plot_path = os.path.join(outdir, "plot_eps_l2.txt")
        write_plot_data(plot_path, report.summary["l2_error_by_eps"])
        outputs = {"report": csv_path, "cap_table": cap_path,
                   "summary": summary_path, "plot": plot_path}
        if report.summary["partial"]:
            outputs["partial"] = True
        return outputs


class ErgodicRun(ErgodicSpec):
    """ergodic: the library's ErgodicSpec, run into its decay table, plot
    data and summary."""

    def run(self, outdir, threads):
        res = ergodic_average_experiment(self, threads=threads)
        csv_path = os.path.join(outdir, "decay.csv")
        write_csv(csv_path, ["t", "mean", "rel_std"], res.rows)
        plot_path = os.path.join(outdir, "plot_t_relstd.txt")
        write_plot_data(plot_path, [(t, rel) for t, _, rel in res.rows])
        summary_path = os.path.join(outdir, "summary.json")
        write_json(summary_path, {
            "format_version": 1,
            "functional": self.functional,
            "decays": res.decays,
            "rows": [list(r) for r in res.rows],
        })
        return {"decay": csv_path, "plot": plot_path, "summary": summary_path}


# the spec of each subcommand, or of each of its modes
_SPECS = {
    "geometry": GeometrySpec,
    "solve": {"hole-free": HoleFreeSolveSpec, "family": FamilySolveSpec},
    "capacity": {"newton-ladder": NewtonLadderSpec, "strange-term": StrangeTermSpec,
                 "conductivity": ConductivitySpec},
    "sweep": SweepRun,
    "ergodic": ErgodicRun,
    "density-check": DensityCheckSpec,
}


def _spec_class(command, config):
    """The spec that reads a config of this subcommand; None for a `mode`
    the subcommand does not have."""
    spec_class = _SPECS[command]
    if isinstance(spec_class, dict):
        mode = config.get("mode")
        return spec_class.get(mode) if isinstance(mode, str) else None
    return spec_class


def validate_config(command, config):
    """All schema and invariant violations at once, as diagnostics dicts."""
    spec_class = _spec_class(command, config)
    if spec_class is None:
        return [{"field": "mode",
                 "message": f"mode must be one of {', '.join(_SPECS[command])}"}]
    diags = []
    spec = _read(spec_class, config, diags)
    return diags if spec is None else spec.validate()


def _set_override(config, dotted, raw):
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    keys = dotted.split(".")
    node = config
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError([{"field": dotted,
                                "message": f"cannot set {dotted!r}: {k!r} is not an object"}])
    node[keys[-1]] = value


def resolve_config(command, args):
    if args.preset is not None:
        table = presets.PRESETS.get(command, {})
        if args.preset not in table:
            raise ConfigError([{"field": "preset",
                                "message": f"unknown {command} preset {args.preset!r}; "
                                           f"known: {sorted(table)}"}])
        config = json.loads(json.dumps(table[args.preset]))
    elif args.config is not None:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError([{"field": "config",
                                "message": f"cannot read {args.config}: {exc}"}])
        if not isinstance(config, dict):
            raise ConfigError([{"field": "config",
                                "message": "the config file must hold a JSON object"}])
    else:
        raise ConfigError([{"field": "config",
                            "message": "either --config or --preset is required"}])
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError([{"field": "--set",
                                "message": f"override {item!r} is not key=value"}])
        key, _, raw = item.partition("=")
        _set_override(config, key, raw)
    if args.seed is not None:
        config["seed"] = args.seed
    return config


def build_parser():
    parser = argparse.ArgumentParser(prog="percohom",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS + ("validate",):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--preset", default=None, help="named preset")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default="runs", help="output base directory")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="config override, dotted keys, JSON values")
        if name == "validate":
            p.add_argument("--command", dest="target_command", default="sweep",
                           choices=SUBCOMMANDS,
                           help="which subcommand schema to validate against")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    command = args.command
    try:
        target = args.target_command if command == "validate" else command
        config = resolve_config(target, args)
        diags = validate_config(target, config)
        if command == "validate":
            print(json.dumps(diags, indent=1, sort_keys=True))
            return 0
        if diags:
            raise ConfigError(diags)
        spec = _read(_spec_class(command, config), config, [])
        seed = spec.master_seed
        outdir = output_directory(args.out, command, config, seed)
        record = RunRecord(command=command, config=config, master_seed=seed,
                           input_hash=content_hash(config, seed))
        record.start()
        outputs = spec.run(outdir, max(1, args.threads))
        record.finish()
        # file names relative to the run directory, so the record does not
        # depend on where --out put it
        record.outputs = {key: os.path.relpath(value, outdir) if isinstance(value, str)
                          else value for key, value in outputs.items()}
        write_json(os.path.join(outdir, "run_record.json"), record.to_dict())
        print(outdir)
        return 0
    except ConfigError as exc:
        for d in exc.diagnostics:
            print(f"config error at {d.get('field', '?')}: {d.get('message')}",
                  file=sys.stderr)
        return 2
    except InvalidArgumentError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    except SolverFailureError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
