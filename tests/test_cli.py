import csv
import glob
import json
import os
import subprocess
import sys
import textwrap

import pytest

import percohom as ph
from percohom.cli import main, validate_config
from percohom.expressions import evaluate_on_mask
from percohom.presets import PRESETS


def run_cli(*args):
    return main(list(args))


def only_dir(base, command):
    dirs = glob.glob(os.path.join(base, f"{command}-*"))
    assert len(dirs) >= 1
    return sorted(dirs)[-1]


def test_validate_reports_scale_ordering(capsys):
    code = run_cli("validate", "--command", "sweep", "--preset", "rcm-2d",
                   "--set", "eps_list=[0.75,0.5,0.25]")
    assert code == 0
    diags = json.loads(capsys.readouterr().out)
    assert any("eps << h" in d["message"] for d in diags)


def test_validate_reports_gamma_range(capsys):
    code = run_cli("validate", "--command", "capacity",
                   "--preset", "conductivity-2d", "--set", "gamma=2.5")
    assert code == 0
    diags = json.loads(capsys.readouterr().out)
    assert any("(0, 2)" in d["message"] for d in diags)


def test_validate_clean_preset_is_empty(capsys):
    code = run_cli("validate", "--command", "sweep", "--preset", "rcm-2d")
    assert code == 0
    assert json.loads(capsys.readouterr().out) == []


def test_unknown_key_rejected():
    assert validate_config("sweep", {"bogus": 1}) != []
    code = run_cli("sweep", "--preset", "rcm-2d", "--set", "bogus=1")
    assert code == 2


def test_missing_config_is_validation_error():
    assert run_cli("geometry") == 2


@pytest.mark.parametrize("command, preset, mode, missing", [
    ("solve", "mms-2d", "family", "family"),
    ("capacity", "ball-oracle", "conductivity", "family"),
    ("capacity", "conductivity-2d", "newton-ladder", "radius"),
])
def test_missing_mode_key_is_validation_error(tmp_path, capsys, command, preset,
                                              mode, missing):
    args = ("--preset", preset, "--set", f'mode="{mode}"')
    assert run_cli(command, *args, "--out", str(tmp_path / "runs")) == 2
    capsys.readouterr()
    assert run_cli("validate", "--command", command, *args) == 0
    diags = json.loads(capsys.readouterr().out)
    assert {"field": missing, "message": f"missing required key {missing!r}"} in diags


@pytest.mark.parametrize("command, preset, key, value", [
    ("solve", "mms-2d", "eps", "0.125"),                 # read by mode family
    ("solve", "perforated-2d", "dim", "2"),              # read by mode hole-free
    ("capacity", "ball-oracle", "cells_per_h", "32"),    # read by strange-term
    ("capacity", "strange-3d", "tol", "1e-30"),          # read by newton-ladder
    ("capacity", "conductivity-2d", "h_list", "[0.5]"),  # read by strange-term
])
def test_key_of_another_mode_is_unknown(tmp_path, capsys, command, preset, key, value):
    # each mode accepts only the keys its own run reads
    args = ("--preset", preset, "--set", f"{key}={value}")
    assert run_cli("validate", "--command", command, *args) == 0
    assert json.loads(capsys.readouterr().out) == [
        {"field": key, "message": f"unknown key {key!r}"}]
    assert run_cli(command, *args, "--out", str(tmp_path / "runs")) == 2


@pytest.mark.parametrize("command, preset, family, missing", [
    ("geometry", "rcm-2d-demo", {"dim": 2, "c1": 0.5}, "family.kind"),
    ("sweep", "rcm-2d", {"kind": "rcm"}, "family.dim"),
    ("ergodic", "periodic-2d", {"dim": 2}, "family.kind"),
    ("density-check", "tubes-2d", {"kind": "rcm", "c1": 0.5}, "family.dim"),
])
def test_missing_family_key_is_validation_error(tmp_path, capsys, command, preset,
                                                family, missing):
    # GeometryFamily has no default for kind and dim, so neither may the config
    args = ("--preset", preset, "--set", f"family={json.dumps(family)}")
    assert run_cli(command, *args, "--out", str(tmp_path / "runs")) == 2
    capsys.readouterr()
    assert run_cli("validate", "--command", command, *args) == 0
    diags = json.loads(capsys.readouterr().out)
    assert {"field": missing, "message": f"missing required key {missing!r}"} in diags


@pytest.mark.parametrize("command, preset, key, value", [
    ("capacity", "strange-3d", "eps_list", '["a",0.1,0.05]'),
    ("capacity", "strange-3d", "h_list", '[0.75,null]'),
    ("capacity", "ball-oracle", "dx_list", '[0.1,true]'),
    ("sweep", "rcm-2d", "eps_list", '[0.125,[0.0625],0.03125]'),
    ("ergodic", "periodic-2d", "t_list", '["x"]'),
    ("ergodic", "periodic-2d", "xi", '["1",0]'),
])
def test_list_elements_must_be_numbers(tmp_path, capsys, command, preset, key, value):
    args = ("--preset", preset, "--set", f"{key}={value}")
    assert run_cli("validate", "--command", command, *args) == 0
    diags = json.loads(capsys.readouterr().out)
    assert [d["field"] for d in diags] == [key]
    assert "wrong type" in diags[0]["message"]
    assert run_cli(command, *args, "--out", str(tmp_path / "runs")) == 2


@pytest.mark.parametrize("command, preset", [
    ("geometry", "rcm-2d-demo"), ("solve", "mms-2d"),
    ("capacity", "conductivity-2d"), ("density-check", "tubes-2d"),
])
@pytest.mark.parametrize("grid_cells", [0, -4])
def test_nonpositive_grid_cells_is_validation_error(tmp_path, capsys, command,
                                                    preset, grid_cells):
    args = ("--preset", preset, "--set", f"grid_cells={grid_cells}")
    assert run_cli(command, *args, "--out", str(tmp_path / "runs")) == 2
    capsys.readouterr()
    assert run_cli("validate", "--command", command, *args) == 0
    assert "grid_cells" in {d["field"] for d in json.loads(capsys.readouterr().out)}


@pytest.mark.parametrize("command, preset, key, value", [
    ("density-check", "tubes-2d", "radius", "0"),
    ("density-check", "tubes-2d", "radius", "-0.1"),
    ("density-check", "tubes-2d", "probes", "0"),
    ("density-check", "tubes-2d", "radius", "1e300"),  # a ball beyond the domain
    ("capacity", "ball-oracle", "dx_list", "[]"),
    ("capacity", "ball-oracle", "dx_list", "[0.3]"),
    ("capacity", "ball-oracle", "dx_list", "[0.1,0]"),
    ("capacity", "strange-3d", "eps_list", "[0.125,0.0625]"),
    ("capacity", "strange-3d", "h_list", "[0.75]"),
    ("capacity", "strange-3d", "replicas", "0"),
    ("capacity", "conductivity-2d", "eps", "0"),
    ("geometry", "rcm-2d-demo", "eps", "0"),
    ("density-check", "tubes-2d", "eps", "-0.5"),
    ("geometry", "rcm-2d-demo", "family.tube_radius", "0"),
    ("geometry", "rcm-2d-demo", "family.intensity", "-1"),
    ("geometry", "boolean-3d-demo", "family.r0", "0"),
    ("solve", "perforated-2d", "family.c1", "0"),
    ("sweep", "rcm-2d", "family.c2", "0.1"),
    ("ergodic", "periodic-2d", "family.lattice_spacing", "0"),
    # a realization that expects more points than any run can hold
    ("geometry", "boolean-3d-demo", "family.intensity", "1e12"),
    ("solve", "perforated-2d", "family.intensity", "1e12"),
    ("density-check", "tubes-2d", "family.intensity", "1e12"),
    ("capacity", "strange-3d", "family.intensity", "1e12"),
    ("sweep", "rcm-2d", "family.intensity", "1e12"),
    ("ergodic", "boolean-2d", "family.intensity", "1e12"),
    ("ergodic", "periodic-2d", "family.lattice_spacing", "1e-9"),
    # cubes that leave the domain, or cover no cell, and degenerate domains
    ("capacity", "conductivity-2d", "h", "2"),
    ("capacity", "conductivity-2d", "h", "0.001"),
    ("capacity", "conductivity-2d", "h", "NaN"),
    ("capacity", "strange-3d", "h_list", "[1.5,0.55]"),
    ("capacity", "strange-3d", "domain_side", "0"),
    ("geometry", "rcm-2d-demo", "domain_side", "-1"),
    # a zero count of capacity cells divided by zero in the run
    ("sweep", "rcm-2d", "capacity_cells_per_h", "0"),
    ("sweep", "rcm-2d", "capacity_cells_per_h", "-1"),
    ("capacity", "strange-3d", "cells_per_h", "0"),
    ("capacity", "strange-3d", "cells_per_h", "-1"),
    ("capacity", "strange-3d", "eps_list", "[0.125,0.0625,-0.03125]"),
    ("solve", "mms-2d", "reaction", "-1"),
    ("solve", "mms-2d", "dim", "4"),
    ("solve", "mms-2d", "tol", "0"),
    ("solve", "mms-2d", "max_iter", "0"),
    ("solve", "mms-2d", "source", '"2*w"'),
    ("solve", "mms-2d", "source", '"1/z"'),
    ("solve", "mms-2d", "source", '"1/(pi-pi)"'),
    ("sweep", "rcm-2d", "source", '"x**2"'),
    ("sweep", "rcm-2d", "tol", "0"),
    ("capacity", "ball-oracle", "radius", "0"),
    ("capacity", "ball-oracle", "outer_radius", "-1"),
    ("capacity", "ball-oracle", "radius", "1.5"),
    ("capacity", "ball-oracle", "radius", "0.01"),  # covers no cell center
    ("capacity", "ball-oracle", "tol", "0"),
    ("ergodic", "periodic-2d", "xi", "[1,0,0]"),
    ("ergodic", "periodic-2d", "t_list", "[2,-4]"),
    # JSON as Python reads it has infinities, which no key takes
    ("sweep", "rcm-2d", "reaction", "Infinity"),
    ("geometry", "boolean-3d-demo", "family.r0", "Infinity"),
    ("ergodic", "periodic-2d", "dx", "Infinity"),
    # an ergodic dx that does not cut every cube into at least 4 whole cells
    ("ergodic", "boolean-2d", "dx", "0.3"),
    ("ergodic", "boolean-2d", "dx", "1"),
    # repeated scales
    ("capacity", "strange-3d", "eps_list", "[0.1,0.1,0.05]"),
    ("capacity", "strange-3d", "h_list", "[0.75,0.75]"),
    ("sweep", "boolean-critical-3d", "h_list", "[0.75,0.75]"),
    ("ergodic", "boolean-2d", "t_list", "[2,2]"),
    # a source that overflows on the run's grid
    ("solve", "mms-2d", "source", '"exp(1000*x)"'),
    ("sweep", "rcm-2d", "source", '"exp(1000*x)"'),
    # a grid past MAX_CELLS, refused before any grid is built
    ("solve", "mms-2d", "grid_cells", "100000000"),
    ("geometry", "boolean-3d-demo", "grid_cells", "100000"),
    ("sweep", "rcm-2d", "grid_cells", "10000000"),
    ("sweep", "rcm-2d", "capacity_cells_per_h", "100000"),
    ("ergodic", "boolean-2d", "dx", "1e-7"),
    ("ergodic", "boolean-2d", "dx", "5e-324"),  # an infinite count of cells a side
    ("capacity", "strange-3d", "cells_per_h", "100000"),
    ("capacity", "ball-oracle", "dx_list", "[1e-5]"),
])
def test_degenerate_values_are_validation_errors(tmp_path, capsys, command, preset,
                                                 key, value):
    # a config that validate accepts must not fail in the run
    args = ("--preset", preset, "--set", f"{key}={value}")
    assert run_cli("validate", "--command", command, *args) == 0
    assert key in {d["field"] for d in json.loads(capsys.readouterr().out)}
    assert run_cli(command, *args, "--out", str(tmp_path / "runs")) == 2
    assert not os.path.exists(tmp_path / "runs")


def test_ladder_dx_is_checked_by_the_rasterizer_rule():
    # 2/96 (1 + 1e-10) is within the rasterizer's tolerance of cutting the
    # box [-1, 1]^3 into 96 cells per side, so the run accepts it
    dx = 2.0 / 96 * (1 + 1e-10)
    config = {**PRESETS["capacity"]["ball-oracle"], "dx_list": [dx]}
    assert validate_config("capacity", config) == []
    cfg = ph.PointConfiguration(points=[[0.0, 0.0, 0.0]], box=ph.Box((-1.0,) * 3, (1.0,) * 3),
                                intensity=0.0, seed=0)
    mask = ph.rasterize(ph.build_balls(cfg, 0.1), cfg.box, dx)
    assert mask.shape == (96, 96, 96)


def test_every_grid_refuses_a_dx_that_does_not_divide_the_box():
    # one rule, Box.grid_shape, cuts a box into cells for the rasterizer,
    # the hole-free mask, the empty-cell count, the partition of unity and
    # the newton-ladder check
    side10 = ph.Box.cube(10.0, 2)
    assert side10.grid_shape(0.25) == (40, 40)
    balls = ph.build_balls(ph.PointConfiguration(points=[[0.5, 0.5]], box=ph.Box.unit(2),
                                                 intensity=0.0), 0.2)
    refusals = [
        lambda: ph.Box.unit(2).grid_shape(0.3),
        lambda: ph.rasterize(balls, ph.Box.unit(2), 0.3),
        lambda: ph.hole_free_mask(ph.Box.unit(2), 0.3),
        lambda: ph.empty_cell_frequency(ph.sample_poisson(ph.Box.unit(2), 5.0, 1), 0.3),
        lambda: ph.build_partition_of_unity(side10, 4.0, 1.5, 0.3),  # 33.3 cells a side
    ]
    for refusal in refusals:
        with pytest.raises(ph.InvalidArgumentError, match="dx 0.3 does not divide"):
            refusal()
    config = {**PRESETS["capacity"]["ball-oracle"], "dx_list": [0.3]}
    assert [d["field"] for d in validate_config("capacity", config)] == ["dx_list"]


@pytest.mark.parametrize("source", ["--set", "list", "not-json", "missing"])
def test_config_of_the_wrong_shape_is_a_config_error(tmp_path, capsys, source):
    path = tmp_path / "config.json"
    if source == "--set":
        args = ("--preset", "rcm-2d-demo", "--set", "family.kind.x=1")
    else:
        args = ("--config", str(path))
        if source != "missing":
            path.write_text({"list": "[1, 2]", "not-json": '{"family": '}[source])
    assert run_cli("geometry", *args, "--out", str(tmp_path / "runs")) == 2
    assert run_cli("validate", "--command", "geometry", *args) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, preset", [
    (command, preset) for command, table in PRESETS.items() for preset in table])
def test_every_preset_validates_clean(command, preset):
    assert validate_config(command, PRESETS[command][preset]) == []


def test_geometry_run_writes_mask_and_stats(tmp_path):
    out = str(tmp_path / "runs")
    assert run_cli("geometry", "--preset", "rcm-2d-demo", "--out", out) == 0
    d = only_dir(out, "geometry")
    mask = ph.load_mask(os.path.join(d, "mask.txt"))
    assert mask.hole_count > 0
    stats = json.load(open(os.path.join(d, "stats.json")))
    assert 0 < stats["volume_fraction"] < 1
    assert stats["component_count"] >= 1
    record = json.load(open(os.path.join(d, "run_record.json")))
    assert record["command"] == "geometry"
    assert record["input_hash"] in d


def test_solve_run_and_field_round_trip(tmp_path):
    out = str(tmp_path / "runs")
    assert run_cli("solve", "--preset", "mms-2d", "--out", out) == 0
    d = only_dir(out, "solve")
    field = ph.load_field(os.path.join(d, "field.txt"))
    exact = ph.GridField(field.mask, evaluate_on_mask("sin(pi*x)*sin(pi*y)", field.mask))
    assert ph.l2_distance(field, exact) < 5e-4
    report = json.load(open(os.path.join(d, "report.json")))
    assert report["final_rel_residual"] <= 1e-10


def test_solver_failure_exit_code(tmp_path):
    out = str(tmp_path / "runs")
    code = run_cli("solve", "--preset", "mms-2d", "--set", 'source="-1"',
                   "--set", "max_iter=3", "--out", out)
    assert code == 3


@pytest.mark.parametrize("radius, dx_list", [
    (0.1, "[0.08333333333333333,0.041666666666666664]"),
    (0.2, "[0.16666666666666666,0.08333333333333333]"),  # S = 4 pi / (5 - 1) = pi
], ids=["radius-0.1", "radius-0.2"])
def test_capacity_ball_oracle_reports_the_shell_bound(tmp_path, radius, dx_list):
    # the cube [-1, 1]^3 holds the shell's grounded ball, so the shell value S
    # bounds the capacity from above: each rung reports its distance to S
    import math
    out = str(tmp_path / "runs")
    code = run_cli("capacity", "--preset", "ball-oracle", "--out", out,
                   "--set", f"radius={radius}", "--set", f"dx_list={dx_list}")
    assert code == 0
    d = only_dir(out, "capacity")
    summary = json.load(open(os.path.join(d, "summary.json")))
    shell = summary["shell_reference"]
    assert shell == 4 * math.pi / (1 / radius - 1 / 1.0)
    assert "extrapolated" not in summary
    with open(os.path.join(d, "capacity.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["dx", "value", "iterations", "abs_change", "rel_to_shell"]
    values = [float(row["value"]) for row in rows]
    assert values == summary["values"]
    for row, value in zip(rows, values):
        assert abs(float(row["rel_to_shell"]) - (value - shell) / shell) <= 1e-15
    assert values[0] < values[1] < shell


def test_capacity_strange_term_csv_columns(tmp_path):
    out = str(tmp_path / "runs")
    code = run_cli("capacity", "--preset", "strange-3d", "--out", out,
                   "--set", "cells_per_h=12", "--set", "replicas=1")
    assert code == 0
    d = only_dir(out, "capacity")
    header = open(os.path.join(d, "capacity.csv")).readline().strip()
    assert header == "h,eps,seed,cap,cap_per_hn,iterations,dx"
    summary = json.load(open(os.path.join(d, "summary.json")))
    assert {"c", "spread", "eps_then_h", "h_then_eps"} <= set(summary)


def test_capacity_strange_term_runs_a_2d_table(tmp_path):
    # the strange-term table is one construction in 2D and 3D: cap / h^2 on
    # the unit square, cubes of 8 cells a side
    out = str(tmp_path / "runs")
    code = run_cli("capacity", "--preset", "strange-3d", "--out", out, "--set", "family.dim=2",
                   "--set", "cells_per_h=8", "--set", "family.radius_exponent=1")
    assert code == 0
    d = only_dir(out, "capacity")
    with open(os.path.join(d, "capacity.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 2 * 3
    h = [float(r["h"]) for r in rows]
    assert [float(r["dx"]) for r in rows] == [x / 8 for x in h]
    assert [float(r["cap_per_hn"]) for r in rows] == [
        float(r["cap"]) / x ** 2 for r, x in zip(rows, h)]
    assert any(float(r["cap"]) > 0 for r in rows)
    summary = json.load(open(os.path.join(d, "summary.json")))
    assert summary["c"] > 0 and summary["limsup_bound"] is None


def test_ergodic_periodic_preset_zero_column(tmp_path):
    out = str(tmp_path / "runs")
    assert run_cli("ergodic", "--preset", "periodic-2d", "--out", out) == 0
    d = only_dir(out, "ergodic")
    rows = open(os.path.join(d, "decay.csv")).read().splitlines()[1:]
    assert all(line.split(",")[2] == "0" for line in rows)


def test_rerun_is_byte_identical(tmp_path):
    out = str(tmp_path / "runs")
    assert run_cli("ergodic", "--preset", "boolean-2d", "--out", out,
                   "--set", "replicas=4", "--set", "t_list=[2.0,4.0]") == 0
    d = only_dir(out, "ergodic")
    first = open(os.path.join(d, "decay.csv"), "rb").read()
    assert run_cli("ergodic", "--preset", "boolean-2d", "--out", out,
                   "--set", "replicas=4", "--set", "t_list=[2.0,4.0]",
                   "--threads", "2") == 0
    second = open(os.path.join(d, "decay.csv"), "rb").read()
    assert first == second


def test_seed_flag_changes_output_directory(tmp_path):
    out = str(tmp_path / "runs")
    assert run_cli("ergodic", "--preset", "periodic-2d", "--out", out) == 0
    assert run_cli("ergodic", "--preset", "periodic-2d", "--seed", "9", "--out", out) == 0
    assert len(glob.glob(os.path.join(out, "ergodic-*"))) == 2


def test_density_check_run(tmp_path):
    out = str(tmp_path / "runs")
    assert run_cli("density-check", "--preset", "tubes-2d", "--out", out) == 0
    d = only_dir(out, "density-check")
    payload = json.load(open(os.path.join(d, "density.json")))
    assert payload["min_ratio"] <= payload["max_ratio"]


def test_config_file_with_override(tmp_path):
    cfg = {"family": {"kind": "boolean", "dim": 2, "intensity": 2.0,
                      "r0": 0.2, "radius_exponent": 1.0},
           "eps": 0.5, "grid_cells": 64, "domain_side": 1.0, "seed": 3}
    path = tmp_path / "geom.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "runs")
    assert run_cli("geometry", "--config", str(path),
                   "--set", "family.intensity=8.0", "--out", out) == 0
    d = only_dir(out, "geometry")
    record = json.load(open(os.path.join(d, "run_record.json")))
    assert record["config"]["family"]["intensity"] == 8.0


def test_run_record_config_revalidates(tmp_path):
    out = str(tmp_path / "runs")
    assert run_cli("geometry", "--preset", "boolean-3d-demo", "--out", out) == 0
    d = only_dir(out, "geometry")
    record = json.load(open(os.path.join(d, "run_record.json")))
    assert validate_config("geometry", record["config"]) == []


@pytest.mark.parametrize("command, preset", [("geometry", "rcm-2d-demo"),
                                             ("solve", "mms-2d")])
def test_run_record_outputs_are_relative_to_the_record(tmp_path, command, preset):
    # the same run under two --out directories records the same file names,
    # each naming a file next to the record
    recorded = []
    for out in (tmp_path / "a", tmp_path / "deeper" / "b"):
        assert run_cli(command, "--preset", preset, "--out", str(out)) == 0
        d = only_dir(str(out), command)
        record = json.load(open(os.path.join(d, "run_record.json")))
        names = {k: v for k, v in record["outputs"].items() if isinstance(v, str)}
        assert names
        for name in names.values():
            assert not os.path.isabs(name)
            assert os.path.isfile(os.path.join(d, name))
        recorded.append(names)
    assert recorded[0] == recorded[1]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("command, args", [
    ("sweep", ("--preset", "rcm-2d", "--set", "grid_cells=64")),
    ("density-check", ("--preset", "tubes-2d", "--set", "grid_cells=64")),
])
def test_artifacts_are_strict_json(tmp_path, command, args):
    # an undefined number (a 2D sweep's boolean_constant_mean) is null:
    # RFC 8259 has no NaN or Infinity
    out = str(tmp_path / "runs")
    assert run_cli(command, *args, "--out", out) == 0
    paths = glob.glob(os.path.join(only_dir(out, command), "*.json"))
    assert len(paths) == 2
    for path in paths:
        with open(path) as fh:
            json.loads(fh.read(), parse_constant=_reject_constant)


def test_boolean_runs_do_not_import_scipy(tmp_path):
    # scipy is a test dependency only: with every scipy import made to raise,
    # every subcommand and mode runs to exit 0, and no sweep row records a
    # failure.  A 3D Boolean sweep, a Boolean ergodic run, an RCM geometry
    # run and an RCM sweep also leave numpy.ma unloaded.
    code = textwrap.dedent(f"""
        import glob, json, os, sys
        sys.modules["scipy"] = None  # any import of scipy raises ImportError
        from percohom.cli import main
        out = {str(tmp_path)!r}
        assert main(["sweep", "--preset", "boolean-critical-3d", "--set", "grid_cells=16",
                     "--set", "replicas=1", "--set", "capacity_cells_per_h=8",
                     "--out", out]) == 0
        assert main(["ergodic", "--preset", "boolean-3d-spot", "--set", "replicas=2",
                     "--out", out]) == 0
        assert main(["geometry", "--preset", "rcm-2d-demo", "--set", "grid_cells=32",
                     "--out", out]) == 0
        assert main(["sweep", "--preset", "rcm-2d", "--set", "replicas=1",
                     "--set", "grid_cells=32", "--out", out]) == 0
        assert "numpy.ma" not in sys.modules
        for args in (
                ["density-check", "--preset", "tubes-2d", "--set", "grid_cells=16"],
                ["ergodic", "--preset", "boolean-2d", "--set", "functional=affine_energy",
                 "--set", "t_list=[2]", "--set", "replicas=2", "--set", "dx=0.25"],
                ["capacity", "--preset", "ball-oracle",
                 "--set", "dx_list=[0.08333333333333333]"],
                ["capacity", "--preset", "strange-3d", "--set", "cells_per_h=4",
                 "--set", "replicas=1"],
                ["capacity", "--preset", "conductivity-2d", "--set", "grid_cells=16"],
                ["solve", "--preset", "mms-2d", "--set", "grid_cells=16"],
                ["solve", "--preset", "perforated-2d", "--set", "grid_cells=16"]):
            assert main(args + ["--out", out]) == 0, args
        for path in glob.glob(os.path.join(out, "sweep-*", "summary.json")):
            with open(path) as fh:
                assert json.load(fh)["partial"] is False, path
    """)
    _run_python(code)


def _run_python(code):
    """Run `code` in a fresh interpreter that imports percohom from src/."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stderr


def test_cli_import_leaves_the_process_pool_unloaded():
    # concurrent.futures.process and multiprocessing cost about 2 MB of RSS
    # and 12-20 ms of start-up; only a run with threads > 1 needs them
    _run_python(textwrap.dedent("""
        import sys
        import percohom.cli
        assert "concurrent.futures.process" not in sys.modules
        assert "multiprocessing" not in sys.modules
    """))


def test_cli_import_and_a_geometry_run_leave_the_fft_unloaded(tmp_path):
    # numpy.fft maps about 1 MB of RSS on first use; only a sweep's
    # homogenized field needs it.  numpy 1.x imports it with numpy itself.
    _run_python(textwrap.dedent(f"""
        import sys
        import numpy
        preloaded = "numpy.fft" in sys.modules
        from percohom.cli import main
        assert preloaded or "numpy.fft" not in sys.modules
        assert main(["geometry", "--preset", "rcm-2d-demo", "--set", "grid_cells=32",
                     "--out", {str(tmp_path)!r}]) == 0
        assert preloaded or "numpy.fft" not in sys.modules
    """))
