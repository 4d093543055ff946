"""Every runtime dependency pyproject.toml declares must import, and
importing the library loads nothing else."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_declared_dependencies_import():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with PYPROJECT.open("rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert deps
    for requirement in deps:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        importlib.import_module(name.replace("-", "_"))


def test_importing_the_library_and_its_cli_loads_only_numpy_and_the_stdlib():
    """Start-up cost: every top-level module that importing multidom and
    multidom.cli newly loads is numpy, multidom or part of the standard library."""
    code = ("import sys; before = set(sys.modules); import multidom, multidom.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    loaded = {name.partition(".")[0] for name in out.split()}
    assert {"multidom", "numpy"} <= loaded
    assert sorted(loaded - {"multidom", "numpy"} - set(sys.stdlib_module_names)) == []
