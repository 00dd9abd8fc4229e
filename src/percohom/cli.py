"""Command-line entry point.

Subcommands: geometry, solve, capacity, sweep, ergodic, density-check, and
validate.  A run resolves its configuration (preset or JSON file, then
--set overrides, then --seed), validates it strictly (unknown keys are
rejected), executes, and writes its artifacts into an output directory named
by the content hash of (config, seed, version).  Exit codes: 0 success,
2 validation error, 3 solver failure.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import presets
from .capacity import (conductivity_tensor, newton_capacity, strange_term)
from .errors import (ConfigError, DegenerateConfigurationError,
                     InvalidArgumentError, SolverFailureError,
                     UnsupportedDimensionError)
from .geometry import (BallRadiusRule, Box, GeometryFamily, build_balls,
                       density_ratio_check, hole_free_mask,
                       mask_stats_with_overlaps, rasterize, sample_family,
                       save_mask)
from .reporting import (RunRecord, content_hash, output_directory, write_csv,
                        write_json, write_plot_data)
from .solver import (energy_gamma, h1_norm, l2_norm, save_field,
                     solve_dirichlet_perforated)
from .sweep import ErgodicSpec, SweepSpec, ergodic_average_experiment, run_sweep

SUBCOMMANDS = ("geometry", "solve", "capacity", "sweep", "ergodic", "density-check")

_FAMILY_KEYS = {"kind": str, "dim": int, "intensity": (int, float),
                "r0": (int, float), "radius_exponent": (int, float),
                "c1": (int, float), "c2": (int, float),
                "tube_radius": (int, float, type(None)),
                "lattice_spacing": (int, float)}

_SCHEMAS = {
    "geometry": {"family": dict, "eps": (int, float), "grid_cells": int,
                 "domain_side": (int, float), "seed": int},
    "solve": {"mode": str, "family": dict, "eps": (int, float), "dim": int,
              "grid_cells": int, "domain_side": (int, float),
              "reaction": (int, float), "source": str, "source_file": str,
              "tol": (int, float), "max_iter": int, "seed": int},
    "capacity": {"mode": str, "family": dict, "radius": (int, float),
                 "outer_radius": (int, float), "dx_list": list,
                 "tol": (int, float), "domain_side": (int, float),
                 "h_list": list, "eps_list": list, "replicas": int,
                 "cells_per_h": int, "limsup_bound": (int, float, type(None)),
                 "eps": (int, float), "h": (int, float),
                 "gamma": (int, float), "grid_cells": int, "seed": int},
    "sweep": {"family": dict, "domain_side": (int, float), "eps_list": list,
              "h_list": list, "reaction": (int, float), "source": str,
              "grid_cells": int, "capacity_cells_per_h": int,
              "replicas": int, "tol": (int, float), "seed": int},
    "ergodic": {"functional": str, "family": dict, "t_list": list,
                "replicas": int, "dx": (int, float), "xi": (list, type(None)),
                "seed": int},
    "density-check": {"family": dict, "eps": (int, float), "grid_cells": int,
                      "domain_side": (int, float), "radius": (int, float),
                      "probes": int, "seed": int},
}

_REQUIRED = {
    "geometry": ("family", "eps", "grid_cells"),
    "solve": ("mode", "grid_cells"),
    "capacity": ("mode",),
    "sweep": ("family", "eps_list", "h_list", "grid_cells"),
    "ergodic": ("functional", "family", "t_list", "replicas", "dx"),
    "density-check": ("family", "eps", "grid_cells", "radius", "probes"),
}

# keys a mode of a subcommand needs on top of the subcommand's own
_MODE_REQUIRED = {
    "solve": {"hole-free": (), "family": ("family", "eps")},
    "capacity": {"newton-ladder": ("radius", "outer_radius", "dx_list"),
                 "strange-term": ("family", "h_list", "eps_list"),
                 "conductivity": ("family", "h", "grid_cells")},
}


def validate_config(command, config):
    """All schema and invariant violations at once, as diagnostics dicts."""
    diags = []
    schema = _SCHEMAS[command]
    for key, value in config.items():
        if key not in schema:
            diags.append({"field": key, "message": f"unknown key {key!r}"})
        elif not isinstance(value, schema[key]) or isinstance(value, bool):
            diags.append({"field": key,
                          "message": f"{key} must be {schema[key]}, got "
                                     f"{type(value).__name__}"})
    modes = _MODE_REQUIRED.get(command, {})
    mode = config.get("mode")
    if modes and "mode" in config and not (isinstance(mode, str) and mode in modes):
        diags.append({"field": "mode",
                      "message": f"mode must be one of {', '.join(modes)}"})
        mode = None
    for key in _REQUIRED[command] + modes.get(mode, ()):
        if key not in config:
            diags.append({"field": key, "message": f"missing required key {key!r}"})
    fam = config.get("family")
    if isinstance(fam, dict):
        for key, value in fam.items():
            if key not in _FAMILY_KEYS:
                diags.append({"field": f"family.{key}",
                              "message": f"unknown family key {key!r}"})
            elif not isinstance(value, _FAMILY_KEYS[key]) or isinstance(value, bool):
                diags.append({"field": f"family.{key}",
                              "message": f"family.{key} has the wrong type"})
        if fam.get("kind") not in ("boolean", "rcm", "lattice", None):
            diags.append({"field": "family.kind",
                          "message": "family.kind must be boolean, rcm, or lattice"})
        if fam.get("dim") not in (2, 3, None):
            diags.append({"field": "family.dim", "message": "dimension must be 2 or 3"})
    if diags:
        return diags
    # cross-field invariants
    if command == "sweep":
        try:
            diags.extend(_sweep_spec(config).validate())
        except Exception as exc:
            diags.append({"field": "sweep", "message": str(exc)})
    if command == "capacity":
        if mode == "strange-term":
            fam = config.get("family", {})
            if fam.get("dim") != 3:
                diags.append({"field": "family.dim",
                              "message": "the absorption-constant pipeline requires "
                                         "dimension 3"})
            h_list = config.get("h_list", [])
            eps_list = config.get("eps_list", [])
            for e in eps_list:
                for h in h_list:
                    if not float(e) < float(h) / 4.0:
                        diags.append({"field": "eps_list",
                                      "message": f"scale ordering requires eps << h: "
                                                 f"eps={e} is not < h/4 = {float(h)/4}"})
        if mode == "conductivity":
            gamma = config.get("gamma", 1.0)
            if not (0.0 < float(gamma) < 2.0):
                diags.append({"field": "gamma",
                              "message": f"penalty exponent must be in (0, 2), "
                                         f"got {gamma}"})
    if command == "ergodic":
        if config.get("functional") not in ("local_capacity", "affine_energy"):
            diags.append({"field": "functional",
                          "message": "functional must be local_capacity or "
                                     "affine_energy"})
        if config.get("replicas", 2) < 2:
            diags.append({"field": "replicas",
                          "message": "spread needs at least two replicas"})
    return diags


def _family(config):
    fam = dict(config["family"])
    return GeometryFamily(**fam)


def _family_mask(config):
    """Sample the config's family on its cube domain and rasterize it on the
    config's grid; returns (obstacles, unscaled configuration, mask)."""
    fam = _family(config)
    side = float(config.get("domain_side", 1.0))
    domain = Box.cube(side, fam.dim)
    obstacles, unscaled = sample_family(fam, float(config.get("eps", 1.0)),
                                        int(config.get("seed", 0)), domain)
    return obstacles, unscaled, rasterize(obstacles, domain,
                                          side / int(config["grid_cells"]))


def _sweep_spec(config):
    side = float(config.get("domain_side", 1.0))
    fam = _family(config)
    return SweepSpec(family=fam,
                     domain=Box.cube(side, fam.dim),
                     eps_list=tuple(float(e) for e in config["eps_list"]),
                     h_list=tuple(float(h) for h in config["h_list"]),
                     reaction=float(config.get("reaction", 1.0)),
                     source=config.get("source", "-1"),
                     grid_cells=int(config["grid_cells"]),
                     capacity_cells_per_h=int(config.get("capacity_cells_per_h", 32)),
                     replicas=int(config.get("replicas", 1)),
                     master_seed=int(config.get("seed", 0)),
                     tol=float(config.get("tol", 1e-8)))


def _cmd_geometry(config, outdir, record, threads):
    obstacles, cfg_unscaled, mask = _family_mask(config)
    mask_path = os.path.join(outdir, "mask.txt")
    save_mask(mask, mask_path)
    stats = mask_stats_with_overlaps(mask, obstacles, cfg_unscaled)
    stats_path = os.path.join(outdir, "stats.json")
    write_json(stats_path, stats)
    record.outputs = {"mask": mask_path, "stats": stats_path}
    return 0


def _cmd_solve(config, outdir, record, threads):
    if config["mode"] == "family":
        _, _, mask = _family_mask(config)
    else:
        side = float(config.get("domain_side", 1.0))
        mask = hole_free_mask(Box.cube(side, int(config.get("dim", 2))),
                              side / int(config["grid_cells"]))
    reaction = float(config.get("reaction", 1.0))
    if "source_file" in config:
        from .solver import load_field
        loaded = load_field(config["source_file"])
        if not loaded.mask.same_grid(mask):
            raise ConfigError([{"field": "source_file",
                                "message": "source field grid does not match "
                                           "the solve grid"}])
        source = loaded.values
    else:
        source = config.get("source", "-1")
    u, rep = solve_dirichlet_perforated(mask, reaction, source,
                                        tol=float(config.get("tol", 1e-8)),
                                        max_iter=config.get("max_iter"))
    field_path = os.path.join(outdir, "field.txt")
    save_field(u, field_path)
    report = {
        "format_version": 1,
        "iterations": rep.iterations,
        "final_rel_residual": rep.final_rel_residual,
        "l2_norm": l2_norm(u),
        "h1_norm": h1_norm(u),
        "gamma": energy_gamma(u, reaction, source),
        "hole_cells": mask.hole_count,
    }
    report_path = os.path.join(outdir, "report.json")
    write_json(report_path, report)
    record.outputs = {"field": field_path, "report": report_path,
                      "wall_time": rep.wall_time}
    return 0


def _cmd_capacity(config, outdir, record, threads):
    mode = config["mode"]
    seed = int(config.get("seed", 0))
    csv_path = os.path.join(outdir, "capacity.csv")
    summary_path = os.path.join(outdir, "summary.json")
    if mode == "newton-ladder":
        r = float(config["radius"])
        R = float(config["outer_radius"])
        center = np.zeros(3)
        pts_box = Box.cube(2 * R, 3, origin=(-R, -R, -R))
        from .points import PointConfiguration
        cfg = PointConfiguration(points=center.reshape(1, 3), box=pts_box,
                                 intensity=0.0, seed=seed)
        ball = build_balls(cfg, BallRadiusRule.fixed(r))
        values = []
        rows = []
        for dx in config["dx_list"]:
            ncells = 2 * R / float(dx)
            if abs(ncells - round(ncells)) > 1e-9:
                raise ConfigError([{"field": "dx_list",
                                    "message": f"dx {dx} does not divide the box"}])
            cap, rep = newton_capacity(ball, R, float(dx),
                                       tol=float(config.get("tol", 1e-7)))
            values.append(cap)
            change = abs(values[-1] - values[-2]) if len(values) > 1 else float("nan")
            rows.append((float(dx), cap, rep.iterations, change))
        write_csv(csv_path, ["dx", "value", "iterations", "abs_change"], rows)
        extrapolated = (2 * values[-1] - values[-2]) if len(values) > 1 else values[-1]
        write_json(summary_path, {
            "format_version": 1,
            "values": values,
            "extrapolated": extrapolated,
            "radius": r,
            "outer_radius": R,
        })
    elif mode == "strange-term":
        fam = _family(config)
        side = float(config.get("domain_side", 1.0))
        res = strange_term(fam,
                           [float(h) for h in config["h_list"]],
                           [float(e) for e in config["eps_list"]],
                           int(config.get("replicas", 1)), seed,
                           Box.cube(side, fam.dim),
                           cells_per_h=int(config.get("cells_per_h", 32)),
                           limsup_bound=config.get("limsup_bound"))
        write_csv(csv_path,
                  ["h", "eps", "seed", "cap", "cap_per_hn", "iterations", "dx"],
                  [(r.h, r.eps, r.seed, r.cap, r.cap_per_hn, r.iterations, r.dx)
                   for r in res.rows])
        write_json(summary_path, {
            "format_version": 1,
            "c": res.c,
            "spread": res.spread,
            "eps_then_h": [list(t) for t in res.eps_then_h],
            "h_then_eps": [list(t) for t in res.h_then_eps],
            "limsup_bound": res.limsup_bound,
            "limsup_flagged": res.limsup_flagged,
        })
    else:  # conductivity
        _, _, mask = _family_mask(config)
        center = tuple(0.5 * (lo + hi) for lo, hi in zip(mask.domain.lower,
                                                         mask.domain.upper))
        tensor = conductivity_tensor(mask, center, float(config["h"]),
                                     float(config.get("gamma", 1.0)))
        write_csv(csv_path, ["i", "j", "a_ij"],
                  [(i, j, float(tensor.entries[i, j]))
                   for i in range(mask.dim) for j in range(mask.dim)])
        write_json(summary_path, {
            "format_version": 1,
            "entries": [[float(v) for v in row] for row in tensor.entries],
            "gamma": tensor.gamma,
            "h": tensor.h,
        })
    record.outputs = {"table": csv_path, "summary": summary_path}
    return 0


def _cmd_sweep(config, outdir, record, threads):
    spec = _sweep_spec(config)
    report = run_sweep(spec, threads=threads)
    csv_path = os.path.join(outdir, "report.csv")
    write_csv(csv_path,
              ["eps", "replica", "seed", "volume_fraction", "hole_cells", "h1",
               "gamma", "energy_lhs", "energy_rhs", "l2_error", "iterations",
               "residual", "empty_cell_freq", "boolean_constant", "failure"],
              [(r.eps, r.replica, r.seed, r.volume_fraction, r.hole_cells, r.h1,
                r.gamma, r.energy_lhs, r.energy_rhs, r.l2_error, r.iterations,
                r.residual, r.empty_cell_freq, r.boolean_constant, r.failure)
               for r in report.rows])
    cap_path = os.path.join(outdir, "cap_table.csv")
    write_csv(cap_path,
              ["h", "eps", "seed", "cap", "cap_per_hn", "iterations", "dx"],
              [(r.h, r.eps, r.seed, r.cap, r.cap_per_hn, r.iterations, r.dx)
               for r in report.cap_rows])
    summary_path = os.path.join(outdir, "summary.json")
    write_json(summary_path, report.summary)
    plot_path = os.path.join(outdir, "plot_eps_l2.txt")
    write_plot_data(plot_path, report.summary["l2_error_by_eps"])
    record.outputs = {"report": csv_path, "cap_table": cap_path,
                      "summary": summary_path, "plot": plot_path}
    if report.summary["partial"]:
        record.outputs["partial"] = True
    return 0


def _cmd_ergodic(config, outdir, record, threads):
    fam = _family(config)
    spec = ErgodicSpec(functional=config["functional"], family=fam,
                       t_list=tuple(float(t) for t in config["t_list"]),
                       replicas=int(config["replicas"]),
                       dx=float(config["dx"]),
                       master_seed=int(config.get("seed", 0)),
                       xi=tuple(config["xi"]) if config.get("xi") else None)
    res = ergodic_average_experiment(spec, threads=threads)
    csv_path = os.path.join(outdir, "decay.csv")
    write_csv(csv_path, ["t", "mean", "rel_std"], res.rows)
    plot_path = os.path.join(outdir, "plot_t_relstd.txt")
    write_plot_data(plot_path, [(t, rel) for t, _, rel in res.rows])
    summary_path = os.path.join(outdir, "summary.json")
    write_json(summary_path, {
        "format_version": 1,
        "functional": spec.functional,
        "decays": res.decays,
        "rows": [list(r) for r in res.rows],
    })
    record.outputs = {"decay": csv_path, "plot": plot_path, "summary": summary_path}
    return 0


def _cmd_density_check(config, outdir, record, threads):
    _, _, mask = _family_mask(config)
    check = density_ratio_check(mask, float(config["radius"]),
                                int(config["probes"]), int(config.get("seed", 0)))
    path = os.path.join(outdir, "density.json")
    write_json(path, {
        "format_version": 1,
        "min_ratio": check.min_ratio,
        "max_ratio": check.max_ratio,
        "failed": check.failed,
        "radius": check.radius,
        "probes": check.probes,
    })
    record.outputs = {"density": path}
    return 0


_DISPATCH = {
    "geometry": _cmd_geometry,
    "solve": _cmd_solve,
    "capacity": _cmd_capacity,
    "sweep": _cmd_sweep,
    "ergodic": _cmd_ergodic,
    "density-check": _cmd_density_check,
}


def _set_override(config, dotted, raw):
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    keys = dotted.split(".")
    node = config
    for k in keys[:-1]:
        node = node.setdefault(k, {})
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
        with open(args.config) as fh:
            config = json.load(fh)
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
        if command == "validate":
            config = resolve_config(args.target_command, args)
            diags = validate_config(args.target_command, config)
            print(json.dumps(diags, indent=1, sort_keys=True))
            return 0
        config = resolve_config(command, args)
        diags = validate_config(command, config)
        if diags:
            raise ConfigError(diags)
        seed = int(config.get("seed", 0))
        outdir = output_directory(args.out, command, config, seed)
        record = RunRecord(command=command, config=config, master_seed=seed,
                           input_hash=content_hash(config, seed))
        record.start()
        code = _DISPATCH[command](config, outdir, record, max(1, args.threads))
        record.finish()
        # file names relative to the run directory, so the record does not
        # depend on where --out put it
        record.outputs = {key: os.path.relpath(value, outdir) if isinstance(value, str)
                          else value for key, value in record.outputs.items()}
        write_json(os.path.join(outdir, "run_record.json"), record.to_dict())
        print(outdir)
        return code
    except ConfigError as exc:
        for d in exc.diagnostics:
            print(f"config error at {d.get('field', '?')}: {d.get('message')}",
                  file=sys.stderr)
        return 2
    except (InvalidArgumentError, DegenerateConfigurationError,
            UnsupportedDimensionError) as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    except SolverFailureError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
