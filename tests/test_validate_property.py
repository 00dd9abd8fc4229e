"""`validate` is total: a config it accepts runs to exit 0 or 3, a config it
rejects exits 2, no config crashes a run (exit 1), and every JSON artifact
is strict JSON.  The configs are the presets, shrunk so that each run ends
well under a second, then perturbed."""

import ast
import contextlib
import glob
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import percohom as ph
from percohom.cli import main, validate_config
from percohom.errors import InvalidArgumentError
from percohom.presets import PRESETS

# per preset (every preset has an entry), the sizes that keep its run small
_SMALL = {
    "rcm-2d-demo": {"grid_cells": 16},
    "boolean-3d-demo": {"grid_cells": 16},
    "mms-2d": {"grid_cells": 16},
    "perforated-2d": {"grid_cells": 16},
    "ball-oracle": {"dx_list": [0.08333333333333333]},
    "strange-3d": {"cells_per_h": 4, "replicas": 1},
    "conductivity-2d": {"grid_cells": 16},
    "periodic-2d": {"t_list": [2.0], "replicas": 2, "dx": 0.25},
    "boolean-2d": {"t_list": [2.0], "replicas": 2, "dx": 0.25},
    "boolean-3d-spot": {"t_list": [2.0], "replicas": 2, "dx": 0.5},
    "boolean-critical-3d": {"grid_cells": 8, "capacity_cells_per_h": 4, "replicas": 1},
    "rcm-2d": {"grid_cells": 16, "replicas": 1},
    "tubes-2d": {"grid_cells": 16, "probes": 10},
}
_CASES = [(command, name) for command, table in PRESETS.items() for name in table]
_DROP = object()
# dropped keys, wrong types, zero, negative, empty and other small values,
# and nested junk
_VALUES = [_DROP, None, 0, -1, 0.0, -0.5, 1, 0.5, 2, "", "junk", True,
           [], [0], [-1.0], [0.5], [[1]], {}, {"junk": 1}]


@st.composite
def _configs(draw):
    command, name = draw(st.sampled_from(_CASES))
    config = {**json.loads(json.dumps(PRESETS[command][name])), **_SMALL[name]}
    paths = sorted(config) + ["junk", "family.junk"]
    paths += [f"family.{key}" for key in config.get("family", {})]
    for _ in range(draw(st.integers(0, 3))):
        *parents, key = draw(st.sampled_from(paths)).split(".")
        node = config
        for parent in parents:
            node = node.get(parent)
        if not isinstance(node, dict):  # a parent already perturbed
            continue
        value = draw(st.sampled_from(_VALUES))
        if value is _DROP:
            node.pop(key, None)
        else:
            node[key] = value
    return command, config


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=1000, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_configs())
def test_validate_is_total(case):
    command, config = case
    diags = validate_config(command, config)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            # an exception out of main is the crash of exit code 1
            code = main([command, "--config", path, "--out", os.path.join(tmp, "runs")])
        if diags:
            assert code == 2
        elif code == 2:
            # the one failure validate cannot foresee: a sampled realization
            # with no hole cell, whose density ratio is undefined
            assert "hole set has zero volume" in err.getvalue(), err.getvalue()
        else:
            assert code in (0, 3), err.getvalue()
        for artifact in glob.glob(os.path.join(tmp, "runs", "*", "*.json")):
            with open(artifact) as fh:
                json.loads(fh.read(), parse_constant=_reject_constant)


def test_a_cube_as_large_as_the_domain_is_one_rule_for_sweep_and_strange_term(tmp_path):
    # both build the same centred cube through the one capacity table, so a
    # cube of side domain_side fits in both, and both run it
    for command, name in (("sweep", "boolean-critical-3d"), ("capacity", "strange-3d")):
        config = {**PRESETS[command][name], **_SMALL[name], "h_list": [1.0, 0.55]}
        assert validate_config(command, config) == []
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(path), "--out", str(tmp_path / "runs")])
        assert code == 0


# The library calls a run makes, each with the value of one config key.
_HOLE_FREE = ph.hole_free_mask(ph.Box.unit(2), 1.0 / 16)
_ONE_HOLE = ph.rasterize(ph.build_balls(ph.PointConfiguration(
    points=[[0.5, 0.5]], box=ph.Box.unit(2), intensity=0.0), 0.2), ph.Box.unit(2), 1.0 / 16)
_BALL = ph.build_balls(ph.PointConfiguration(
    points=np.zeros((1, 3)), box=ph.Box((-1.0,) * 3, (1.0,) * 3), intensity=0.0), 0.25)
_RCM = ph.GeometryFamily(kind="rcm", dim=2)


@pytest.mark.parametrize("command, preset, key, value, call", [
    ("solve", "mms-2d", "tol", 0.0,
     lambda v: ph.solve_dirichlet_perforated(_HOLE_FREE, 1.0, "-1", tol=v)),
    ("solve", "mms-2d", "reaction", -1.0,
     lambda v: ph.solve_dirichlet_perforated(_HOLE_FREE, v, "-1")),
    ("solve", "mms-2d", "max_iter", 0,
     lambda v: ph.solve_dirichlet_perforated(_HOLE_FREE, 1.0, "-1", max_iter=v)),
    ("sweep", "rcm-2d", "tol", 0.0,
     lambda v: ph.solve_dirichlet_perforated(_HOLE_FREE, 1.0, "-1", tol=v)),
    ("capacity", "ball-oracle", "tol", 0.0,
     lambda v: ph.newton_capacity(_BALL, 1.0, 1.0 / 8, tol=v)),
    ("density-check", "tubes-2d", "probes", 0,
     lambda v: ph.density_ratio_check(_ONE_HOLE, 0.2, v, 0)),
    ("density-check", "tubes-2d", "radius", 0.0,
     lambda v: ph.density_ratio_check(_ONE_HOLE, v, 10, 0)),
    ("capacity", "conductivity-2d", "gamma", 2.5,
     lambda v: ph.conductivity_tensor(_HOLE_FREE, (0.5, 0.5), 0.5, v)),
    ("geometry", "rcm-2d-demo", "eps", 0.0,
     lambda v: ph.sample_family(_RCM, v, 0, ph.Box.unit(2))),
    ("ergodic", "periodic-2d", "dx", 0.0,
     lambda v: ph.hole_free_mask(ph.Box.cube(2.0, 2), v)),
])
def test_validate_reports_the_library_refusal(command, preset, key, value, call):
    # validate and the run refuse a value with one message: the library's
    config = {**PRESETS[command][preset], **_SMALL[preset], key: value}
    messages = [d["message"] for d in validate_config(command, config) if d["field"] == key]
    with pytest.raises(InvalidArgumentError) as refused:
        call(value)
    library = str(refused.value)
    assert messages
    assert all(m == library or m.endswith(": " + library) for m in messages), messages


def _message_text(node):
    """The literal text of a message node: a string, or an f-string with {}
    in place of each value; None for anything else."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return None


def _refusal_messages():
    """{message: modules} over the InvalidArgumentError(...) calls and the
    (violated, field, message) triples of diagnostics_of(...) in the package."""
    found = {}
    for path in sorted(glob.glob(os.path.join(os.path.dirname(ph.__file__), "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)):
                continue
            if call.func.id == "InvalidArgumentError":
                nodes = call.args[:1]
            elif call.func.id == "diagnostics_of":
                nodes = [t.elts[2] for t in ast.walk(call)
                         if isinstance(t, ast.Tuple) and len(t.elts) == 3]
            else:
                continue
            for text in filter(None, map(_message_text, nodes)):
                found.setdefault(text, set()).add(os.path.basename(path)[:-3])
    return found


def test_each_refusal_message_is_written_in_one_module():
    # a rule that two modules both write drifts apart: the validator's copy
    # moves to the library function that enforces it
    found = _refusal_messages()
    assert len(found) > 50 and "need at least one probe" in found
    assert {m: sorted(mods) for m, mods in found.items() if len(mods) > 1} == {}
