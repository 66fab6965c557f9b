"""numpy is the library's only numeric dependency: every dgmm module
imports, and the model, EM and Gaussian paths run, in an interpreter where
importing scipy fails."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a scipy submodule now fails

import importlib
import pkgutil

import numpy as np

import dgmm
for info in pkgutil.iter_modules(dgmm.__path__):
    importlib.import_module("dgmm." + info.name)

from dgmm import InclineConfig, em_fit, fit_motion_model, simulate_incline
from dgmm.gaussian import Gaussian, IndexSplit

records = simulate_incline(InclineConfig(reps_per_orientation=1))
mm = fit_motion_model(records, k=0.3, rng=np.random.default_rng(1))
r = records[0]
assert np.isfinite(mm.log_density(r.command, r.x, r.z))

rng = np.random.default_rng(2)
points = np.concatenate([rng.normal(-2.0, 0.5, (40, 2)), rng.normal(2.0, 0.5, (40, 2))])
fit = em_fit(points, 2, rng=rng)
assert np.isfinite(fit.log_density(points)).all()

g = Gaussian([0.0, 1.0], [[2.0, 0.5], [0.5, 1.0]])
c = g.conditional(IndexSplit((0,), (1,)), [1.5])
assert abs(c.mean[0] - 0.25) < 1e-15 and abs(c.cov[0, 0] - 1.75) < 1e-15
assert c.density([0.25]) > 0.0 and g.density([0.0, 1.0]) > 0.0
print("ok")
"""


def test_library_runs_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
