"""Every package imports on its own, as a process's first import.

A cycle between packages (say the engine's scheduler importing the core,
whose pipeline imports the engine back) only breaks when the cycle's
second package is imported first, which no in-process test can see once
any test has imported the first one.  Each import here therefore runs in
a fresh interpreter.  So does the check that the production entry points
load none of the modules kept only as test oracles.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = sorted(
    path.parent.name for path in (SRC / "repro").glob("*/__init__.py")
)


def test_every_package_is_listed():
    assert {"core", "engine", "service", "obs", "rules"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_first(package):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", f"import repro.{package}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


#: Modules with no production caller, kept only as test oracles.
ORACLES = (
    "repro.ssa",
    "repro.pointer.sparse_vfg",
    "repro.ir.dce",
    "repro.ir.interp",
    "repro.frontend.printer",
    "repro.ir.verifier",
    "repro.dataflow.reaching",
)


def test_production_entry_points_load_no_oracle():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = (
        "import sys, repro.engine, repro.service\n"
        f"print(sorted(name for name in {ORACLES!r} if name in sys.modules))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"
