"""The package's public surface: exports that resolve and a clean import."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import rosenlab
from rosenlab.covmodels import linnik, spectral_density

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


# Loaded only by quad's callers (the variance oracle of a d=2 rectangle,
# geometry.distance_integral, the Linnik spectral density), never on import.
HEAVY_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg")

# Records the scipy modules loaded at each point: after the import, after
# the limit-law builds and a draw, after a rate experiment in d=1 and d=2
# (what the benchmark runs), and after a quad caller, the Linnik spectral
# density, which must load HEAVY_SCIPY and so shows that the record sees a
# load.
_FOOTPRINT = """
import json, os, sys
from rosenlab import expcli
from rosenlab.covmodels import linnik, spectral_density

out = sys.argv[1]
loaded = {}

def record(point):
    loaded[point] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def run(argv):
    if expcli.main(argv):
        sys.exit(f"{argv[:2]} failed")

record("import")
for name, d, alpha in (("interval", 1, "0.4"), ("disk", 2, "0.6")):
    window = json.dumps({"shape": "ball", "R": 1.0, "d": d})
    path = os.path.join(out, name + ".json")
    run(["rosenblatt", "build", "--set", window, "--alpha", alpha, "--out", path])
run(["rosenblatt", "sample", "--series", os.path.join(out, "interval.json"), "--n", "1000",
     "--seed", "5", "--out", os.path.join(out, "draws.csv")])
record("build")
for d, theta, functional, h, r in ((1, 0.2, "abs-centered", "0.5", "4"), (2, 0.3, "h2", "1.0", "8")):
    run(["rate", "experiment",
         "--model", json.dumps({"family": "cauchy", "d": d, "theta": theta}),
         "--set", json.dumps({"shape": "ball", "R": 1.0, "d": d}),
         "--functional", functional, "--h", h, "--r", r, "--replicates", "1000",
         "--seed", "3", "--out", os.path.join(out, f"rho-d{d}.csv")])
record("experiment")
spectral_density(linnik(1, 1.5, 0.2), 0.5)
record("quad")
print(json.dumps(loaded))
"""


def test_import_and_benchmark_commands_load_no_scipy(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert {point: loaded[point] for point in ("import", "build", "experiment")} == {
        "import": [], "build": [], "experiment": []
    }
    assert set(HEAVY_SCIPY) <= set(loaded["quad"])
    for name in ("interval.json", "disk.json", "draws.csv", "rho-d1.csv", "rho-d2.csv"):
        assert (tmp_path / name).exists()


def test_quad_callers_still_give_their_values():
    # values of the module-level quad import, now loaded on first call
    m1, m2 = linnik(1, 1.5, 0.2), linnik(2, 1.75, 1.0 / 3.0)
    assert [spectral_density(m1, lam) for lam in (0.05, 0.5, 3.0)] == pytest.approx(
        [1.314134118749925, 0.13767161793541494, 0.005349172506038792], rel=1e-12
    )
    assert [spectral_density(m2, lam) for lam in (0.05, 0.5, 3.0)] == pytest.approx(
        [6.040425749080841, 0.164635966629625, 0.0017151743611084048], rel=1e-12
    )
