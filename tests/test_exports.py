"""Every name a package exports resolves, and the classical package loads no
solver code."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import liequant


@pytest.mark.parametrize("package", ["liequant", "liequant.hquant"])
def test_star_import_resolves_every_exported_name(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    exported = __import__(package, fromlist=["__all__"]).__all__
    assert [name for name in exported if name not in namespace] == []


def test_import_liequant_loads_no_solver_module():
    src = str(Path(liequant.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, liequant; print(*sorted(m for m in sys.modules if m.startswith('liequant')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    loaded = proc.stdout.split()
    assert "liequant.twists" in loaded
    assert [m for m in loaded
            if m == "liequant.linsolve" or m.startswith("liequant.hquant")] == []
