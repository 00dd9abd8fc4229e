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
    # the only caller of newton_capacity outside the CLI's newton-ladder; at
    # 12 cells per side the default radius 0.1 covers no cell center
    ("capacity_ladder.py", ("--cells", "12", "24", "--radius", "0.2"),
     "shell reference: 3.141593"),
    ("poisson_law_check.py", ("--seeds", "200"), "intensity 1.0, 200 seeds"),
])
def test_script_runs(name, args, expected):
    done = run_script(name, *args)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout.splitlines()
