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
import math
import os
import sys
from dataclasses import MISSING, asdict, fields, is_dataclass

import numpy as np

from . import presets
from .capacity import (_cube_diagnostics, _scale_diagnostics, _window,
                       conductivity_tensor, newton_capacity,
                       strange_term)
from .errors import (ConfigError, DegenerateConfigurationError,
                     InvalidArgumentError, SolverFailureError,
                     UnsupportedDimensionError, diagnostics_of)
from .geometry import (BallRadiusRule, Box, build_balls, density_ratio_check,
                       hole_free_mask, mask_stats, rasterize, sample_family,
                       save_mask)
from .reporting import (RunRecord, content_hash, output_directory, write_csv,
                        write_json, write_plot_data)
from .solver import (energy_gamma, h1_norm, l2_norm, load_field, save_field,
                     solve_dirichlet_perforated)
from .sweep import (ErgodicSpec, SweepRow, SweepSpec, ergodic_average_experiment,
                    run_sweep)

SUBCOMMANDS = ("geometry", "solve", "capacity", "sweep", "ergodic", "density-check")

REQUIRED = MISSING  # the default of a key without one, as in dataclasses
# the two keys not named after their dataclass field
_RENAMED = {"master_seed": "seed", "domain": "domain_side"}


def _schema_of(cls):
    """{key: (type, default)} of a dataclass's fields; `domain_side`, the side
    of a cube from the origin, stands for `domain`."""
    return {_RENAMED.get(f.name, f.name):
            (float, 1.0) if f.name == "domain" else (f.type, f.default)
            for f in fields(cls)}


_SWEEP = _schema_of(SweepSpec)


def _shared(*keys):
    """The sweep's entries for keys other subcommands take too."""
    return {key: _SWEEP[key] for key in keys}


# Every key a subcommand accepts: (type, default or REQUIRED).  A type is
# int, float (a JSON number), str, tuple (a list of numbers) or a dataclass
# (an object with that dataclass's keys); a None default also accepts null.
_SCHEMAS = {
    "geometry": {**_shared("family", "grid_cells", "domain_side", "seed"),
                 "eps": (float, REQUIRED)},
    "solve": {**_shared("family", "grid_cells", "domain_side", "reaction",
                        "source", "tol", "seed"),
              "mode": (str, REQUIRED), "eps": (float, REQUIRED), "dim": (int, 2),
              "source_file": (str, None), "max_iter": (int, None)},
    "capacity": {**_shared("family", "grid_cells", "domain_side", "h_list",
                           "eps_list", "replicas", "seed"),
                 "mode": (str, REQUIRED), "radius": (float, REQUIRED),
                 "outer_radius": (float, REQUIRED), "dx_list": (tuple, REQUIRED),
                 "tol": (float, 1e-7),
                 "cells_per_h": _SWEEP["capacity_cells_per_h"],
                 "limsup_bound": (float, None), "eps": (float, 1.0),
                 "h": (float, REQUIRED), "gamma": (float, 1.0)},
    "sweep": _SWEEP,
    "ergodic": _schema_of(ErgodicSpec),
    "density-check": {**_shared("family", "grid_cells", "domain_side", "seed"),
                      "eps": (float, REQUIRED), "radius": (float, REQUIRED),
                      "probes": (int, REQUIRED)},
}

# the REQUIRED keys each mode of a subcommand needs; the others go unused
_MODE_REQUIRED = {
    "solve": {"hole-free": ("grid_cells",),
              "family": ("grid_cells", "family", "eps")},
    "capacity": {"newton-ladder": ("radius", "outer_radius", "dx_list"),
                 "strange-term": ("family", "h_list", "eps_list"),
                 "conductivity": ("family", "h", "grid_cells")},
}


def _accepts(kind, value):
    """Whether a JSON value fits a key of this type."""
    if kind is tuple:
        return isinstance(value, list) and all(_accepts(float, v) for v in value)
    json_type = {float: (int, float), int: int, str: str}.get(kind, dict)
    return isinstance(value, json_type) and not isinstance(value, bool)


def _schema_diags(schema, config, required=None, prefix=""):
    """Unknown keys, wrong types and missing required keys (by default every
    REQUIRED one) of a JSON object and the objects nested in it."""
    if required is None:
        required = [key for key, (_, default) in schema.items() if default is REQUIRED]
    diags = []
    for key, value in config.items():
        field = prefix + key
        if key not in schema:
            diags.append({"field": field, "message": f"unknown key {key!r}"})
            continue
        kind, default = schema[key]
        if value is None and default is None:
            continue
        if not _accepts(kind, value):
            diags.append({"field": field,
                          "message": f"{field} has the wrong type: {value!r}"})
        elif is_dataclass(kind):
            diags.extend(_schema_diags(_schema_of(kind), value, prefix=field + "."))
    diags.extend({"field": prefix + key,
                  "message": f"missing required key {prefix + key!r}"}
                 for key in required if key not in config)
    return diags


def _resolve(schema, config):
    """The config's values in their keys' types, defaults filled in; a
    REQUIRED key the config lacks stays absent."""
    return {key: _convert(kind, config.get(key, default))
            for key, (kind, default) in schema.items()
            if key in config or default is not REQUIRED}


def _convert(kind, value):
    """A JSON value the schema accepted, as the key's type."""
    if value is None:
        return None
    if is_dataclass(kind):
        return kind(**_resolve(_schema_of(kind), value))
    return tuple(float(v) for v in value) if kind is tuple else kind(value)


def _spec(cls, values):
    """The SweepSpec or ErgodicSpec of resolved values."""
    kwargs = {f.name: values[_RENAMED.get(f.name, f.name)] for f in fields(cls)}
    if "domain" in kwargs:
        kwargs["domain"] = Box.cube(kwargs["domain"], values["family"].dim)
    return cls(**kwargs)


def _divides(dx, side):
    """Whether a grid spacing dx > 0 cuts `side` into a whole number of cells."""
    cells = side / dx if dx > 0 else math.nan
    return math.isfinite(cells) and abs(cells - round(cells)) <= 1e-9


def validate_config(command, config):
    """All schema and invariant violations at once, as diagnostics dicts."""
    schema = _SCHEMAS[command]
    modes = _MODE_REQUIRED.get(command)
    mode = config.get("mode")
    diags = []
    if modes and "mode" in config and not (isinstance(mode, str) and mode in modes):
        diags.append({"field": "mode",
                      "message": f"mode must be one of {', '.join(modes)}"})
        mode = None
    required = None if modes is None else ["mode", *modes.get(mode, ())]
    diags.extend(_schema_diags(schema, config, required))
    if diags:
        return diags
    # cross-field invariants
    try:
        values = _resolve(schema, config)
    except InvalidArgumentError as exc:  # a family kind or dimension out of range
        return [{"field": "family", "message": str(exc)}]
    spec_class = {"sweep": SweepSpec, "ergodic": ErgodicSpec}.get(command)
    if spec_class is not None:
        try:
            diags.extend(_spec(spec_class, values).validate())
        except InvalidArgumentError as exc:  # a degenerate domain
            return [{"field": command, "message": str(exc)}]
    if "family" in values:
        diags.extend({**d, "field": "family." + d["field"]}
                     for d in values["family"].validate())
    checks = [("grid_cells" in values and values["grid_cells"] < 1, "grid_cells",
               "grid_cells must be positive"),
              ("eps" in values and not values["eps"] > 0, "eps", "eps must be positive"),
              ("domain_side" in values and not values["domain_side"] > 0, "domain_side",
               "domain_side must be positive")]
    if mode == "newton-ladder":
        side = 2 * values["outer_radius"]
        checks.append((not values["dx_list"], "dx_list", "dx_list must not be empty"))
        checks.extend((not _divides(dx, side), "dx_list",
                       f"dx {dx} must be positive and divide the box")
                      for dx in values["dx_list"])
    elif mode == "strange-term":
        checks.append((values["family"].dim != 3, "family.dim",
                       "the absorption-constant pipeline requires dimension 3"))
        diags.extend(_scale_diagnostics(values["eps_list"], values["h_list"],
                                        values["replicas"]))
        side = values["domain_side"]
        if side > 0:
            diags.extend(_cube_diagnostics(Box.cube(side, 3), (0.5 * side,) * 3,
                                           values["h_list"]))
    elif mode == "conductivity":
        checks.append((not 0.0 < values["gamma"] < 2.0, "gamma",
                       f"penalty exponent must be in (0, 2), got {values['gamma']}"))
        side, n, dim, h = (values["domain_side"], values["grid_cells"],
                           values["family"].dim, values["h"])
        checks.append((not math.isfinite(h), "h", "h must be finite"))
        if n >= 1 and side > 0 and math.isfinite(h):
            try:  # the run's window: the cube of side h at the domain center
                _window((0.0,) * dim, (n,) * dim, side / n, (0.5 * side,) * dim, h)
            except InvalidArgumentError as exc:
                diags.append({"field": "h", "message": str(exc)})
    if command == "density-check":
        checks.append((not values["radius"] > 0, "radius", "radius must be positive"))
        checks.append((values["probes"] < 1, "probes", "need at least one probe"))
    return diags + diagnostics_of(checks)


_CAP_COLUMNS = ("h", "eps", "seed", "cap", "cap_per_hn", "iterations", "dx")


def _write_rows(path, columns, rows):
    """A CSV table with one line per row object, one column per attribute."""
    write_csv(path, columns, [[getattr(r, c) for c in columns] for r in rows])


def _family_mask(values):
    """Sample the family on its cube domain and rasterize it on the grid;
    returns (obstacles, unscaled configuration, mask)."""
    fam = values["family"]
    side = values["domain_side"]
    domain = Box.cube(side, fam.dim)
    obstacles, unscaled = sample_family(fam, values["eps"], values["seed"], domain)
    return obstacles, unscaled, rasterize(obstacles, domain, side / values["grid_cells"])


def _cmd_geometry(values, outdir, record, threads):
    obstacles, cfg_unscaled, mask = _family_mask(values)
    mask_path = os.path.join(outdir, "mask.txt")
    save_mask(mask, mask_path)
    stats = mask_stats(mask, obstacles, cfg_unscaled)
    stats_path = os.path.join(outdir, "stats.json")
    write_json(stats_path, stats)
    record.outputs = {"mask": mask_path, "stats": stats_path}
    return 0


def _cmd_solve(values, outdir, record, threads):
    if values["mode"] == "family":
        _, _, mask = _family_mask(values)
    else:
        side = values["domain_side"]
        mask = hole_free_mask(Box.cube(side, values["dim"]), side / values["grid_cells"])
    reaction = values["reaction"]
    if values["source_file"] is not None:
        loaded = load_field(values["source_file"])
        if not loaded.mask.same_grid(mask):
            raise ConfigError([{"field": "source_file",
                                "message": "source field grid does not match "
                                           "the solve grid"}])
        source = loaded.values
    else:
        source = values["source"]
    u, rep = solve_dirichlet_perforated(mask, reaction, source, tol=values["tol"],
                                        max_iter=values["max_iter"])
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


def _cmd_capacity(values, outdir, record, threads):
    mode = values["mode"]
    seed = values["seed"]
    csv_path = os.path.join(outdir, "capacity.csv")
    summary_path = os.path.join(outdir, "summary.json")
    if mode == "newton-ladder":
        r = values["radius"]
        R = values["outer_radius"]
        center = np.zeros(3)
        pts_box = Box.cube(2 * R, 3, origin=(-R, -R, -R))
        from .points import PointConfiguration
        cfg = PointConfiguration(points=center.reshape(1, 3), box=pts_box,
                                 intensity=0.0, seed=seed)
        ball = build_balls(cfg, BallRadiusRule.fixed(r))
        caps = []
        rows = []
        for dx in values["dx_list"]:
            cap, rep = newton_capacity(ball, R, dx, tol=values["tol"])
            caps.append(cap)
            change = abs(caps[-1] - caps[-2]) if len(caps) > 1 else float("nan")
            rows.append((dx, cap, rep.iterations, change))
        write_csv(csv_path, ["dx", "value", "iterations", "abs_change"], rows)
        extrapolated = (2 * caps[-1] - caps[-2]) if len(caps) > 1 else caps[-1]
        write_json(summary_path, {
            "format_version": 1,
            "values": caps,
            "extrapolated": extrapolated,
            "radius": r,
            "outer_radius": R,
        })
    elif mode == "strange-term":
        fam = values["family"]
        res = strange_term(fam, values["h_list"], values["eps_list"],
                           values["replicas"], seed,
                           Box.cube(values["domain_side"], fam.dim),
                           cells_per_h=values["cells_per_h"],
                           limsup_bound=values["limsup_bound"])
        _write_rows(csv_path, _CAP_COLUMNS, res.rows)
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
        _, _, mask = _family_mask(values)
        center = tuple(0.5 * (lo + hi) for lo, hi in zip(mask.domain.lower,
                                                         mask.domain.upper))
        tensor = conductivity_tensor(mask, center, values["h"], values["gamma"])
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


def _cmd_sweep(values, outdir, record, threads):
    spec = _spec(SweepSpec, values)
    report = run_sweep(spec, threads=threads)
    csv_path = os.path.join(outdir, "report.csv")
    _write_rows(csv_path, [f.name for f in fields(SweepRow)], report.rows)
    cap_path = os.path.join(outdir, "cap_table.csv")
    _write_rows(cap_path, _CAP_COLUMNS, report.cap_rows)
    summary_path = os.path.join(outdir, "summary.json")
    write_json(summary_path, report.summary)
    plot_path = os.path.join(outdir, "plot_eps_l2.txt")
    write_plot_data(plot_path, report.summary["l2_error_by_eps"])
    record.outputs = {"report": csv_path, "cap_table": cap_path,
                      "summary": summary_path, "plot": plot_path}
    if report.summary["partial"]:
        record.outputs["partial"] = True
    return 0


def _cmd_ergodic(values, outdir, record, threads):
    spec = _spec(ErgodicSpec, values)
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


def _cmd_density_check(values, outdir, record, threads):
    _, _, mask = _family_mask(values)
    check = density_ratio_check(mask, values["radius"], values["probes"],
                                values["seed"])
    path = os.path.join(outdir, "density.json")
    write_json(path, {"format_version": 1, **asdict(check)})
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
        values = _resolve(_SCHEMAS[command], config)
        seed = values["seed"]
        outdir = output_directory(args.out, command, config, seed)
        record = RunRecord(command=command, config=config, master_seed=seed,
                           input_hash=content_hash(config, seed))
        record.start()
        code = _DISPATCH[command](values, outdir, record, max(1, args.threads))
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
