"""The package's public surface: exports that resolve and a clean import."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import rosenlab

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(rosenlab.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"rosenlab.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_the_package_imports_cleanly():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", "import rosenlab; print(rosenlab.__file__)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert Path(done.stdout.strip()).parent == Path(src) / "rosenlab"
