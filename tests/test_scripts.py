import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("name, args, expected", [
    # the only caller of newton_capacity outside the CLI's newton-ladder
    ("capacity_ladder.py", ("--cells", "12", "24", "--radius", "0.2"),
     "shell reference: 3.141593"),
    ("poisson_law_check.py", ("--seeds", "200"), "intensity 1.0, 200 seeds"),
    # at 12 cells per side the default radius 0.1 covers no cell center: that
    # row is reported unresolved and the ladder goes on
    ("capacity_ladder.py", ("--cells", "12", "24"),
     "    12     0.166667 unresolved: obstacle covers no cell center at this "
     "resolution; refine dx"),
])
def test_script_runs(name, args, expected):
    done = run_script(name, *args)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert expected in lines
    if name == "capacity_ladder.py":  # a value for the last grid
        assert lines[-1].split()[0] == args[args.index("--cells") + 2]
        assert "unresolved" not in lines[-1]
