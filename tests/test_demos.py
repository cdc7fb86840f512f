"""Every demo script runs to completion and prints what it printed before."""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(
    name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py")
)

# SHA-256 of each demo's stdout; a change to a demo or to a result it
# prints must update its entry (print the new digest with
# sha256sum after running the demo with src on PYTHONPATH)
STDOUT_SHA256 = {
    "01_classical_flows.py": "5fe8779b6d53ba85fe6669cb8157d50baeceba196176206072fba64d370213f7",
    "02_umbral_bases.py": "c80e4cd27a283a30a7c15e48a7e83a3433fbbd57a33ac685760ff01dbf604ce9",
    "03_delta_flows.py": "a5a4bbfd53624788734127f521f09e0c75634cf8611d461e12783856264e06dc",
    "04_difference_solver.py": "50728006feb3ccd145216f6ca40e5d78ef08c9459698592bea164690ee044e0a",
    "05_numeric_checks.py": "1866e90246a2a89b3aaa7d0ee1694005535c604c391138a545a7de316491800a",
}


def run_demo(name):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_all_five_demos_present():
    assert DEMOS == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[name], proc.stdout


def test_umbral_demo_prints_polynomials_in_t():
    out = run_demo("02_umbral_bases.py").stdout
    assert "q_2 = -t + t^2" in out
