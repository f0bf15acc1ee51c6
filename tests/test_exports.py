"""Every name a package exports resolves, the classical package loads no
solver code, and no command loads OpenSSL."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liequant
from liequant import cli


@pytest.mark.parametrize("package", ["liequant", "liequant.hquant"])
def test_star_import_resolves_every_exported_name(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    exported = __import__(package, fromlist=["__all__"]).__all__
    assert [name for name in exported if name not in namespace] == []


def _run_python(code):
    src = str(Path(liequant.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)


def test_import_liequant_loads_no_solver_module():
    code = "import sys, liequant; print(*sorted(m for m in sys.modules if m.startswith('liequant')))"
    proc = _run_python(code)
    loaded = proc.stdout.split()
    assert "liequant.twists" in loaded
    assert [m for m in loaded
            if m == "liequant.linsolve" or m.startswith("liequant.hquant")] == []


@pytest.mark.skipif(cli._sha256() is hashlib.sha256, reason="no built-in SHA-256 module")
def test_commands_load_no_openssl(tmp_path):
    # the input digest comes from the built-in SHA-256, so no job maps OpenSSL
    artifact = str(tmp_path / "z2.json")
    code = f"""
import contextlib, io, sys
from liequant.cli import main
jobs = [["check", "catalog:sl2-cartan-z2"],
        ["quantize", "catalog:solvable2-tri-z2", "--out", {artifact!r}],
        ["verify-artifact", {artifact!r}],
        ["compare", "catalog:solvable2-tri-z2", "--order", "1"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in jobs]
print(*codes, "_hashlib" in sys.modules, "hashlib" in sys.modules)
"""
    assert _run_python(code).stdout.split() == ["0", "0", "0", "0", "False", "False"]
