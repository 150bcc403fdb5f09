"""The built package carries the compiled step's C source.

Without it an installed package has no ``_step.c`` to compile, and training
falls back to the plain formula with a ``RuntimeWarning``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_build_py_ships_step_source(tmp_path):
    pytest.importorskip("setuptools")
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, tmp_path / name)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    subprocess.run([sys.executable, "-c", "import setuptools; setuptools.setup()",
                    "-q", "build_py", "-d", "built"],
                   cwd=tmp_path, check=True, capture_output=True)
    built = tmp_path / "built" / "memqnn" / "_step.c"
    assert built.read_bytes() == (ROOT / "src" / "memqnn" / "_step.c").read_bytes()
