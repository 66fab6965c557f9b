"""The benchmark harness (bench/) wraps and reads library names from
outside the library.  Deleting one of them breaks the traced benchmark,
which tier-1 does not run; these guards fail first."""

import importlib
from pathlib import Path

# loads every dgmm module (the package imports them all); the tracer wraps
# names in the loaded ones
import dgmm.mixture
from dgmm.mixture import DynamicGaussianMixture, WeightedGaussian

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    add_sample, merge_into = DynamicGaussianMixture.add_sample, dgmm.mixture.merge_into
    t = tracer.Tracer()
    try:
        # looks up every name the harness wraps; a missing one raises here
        t.install()
        assert DynamicGaussianMixture.add_sample is not add_sample
        assert dgmm.mixture.merge_into is not merge_into
    finally:
        t.uninstall()
    assert DynamicGaussianMixture.add_sample is add_sample
    assert dgmm.mixture.merge_into is merge_into


def test_names_the_harness_reads_resolve():
    # the tracer looks methods up in the class's own namespace
    assert "add_sample" in DynamicGaussianMixture.__dict__
    assert "density" in DynamicGaussianMixture.__dict__
    # robot-online's oracle rebuilds the components and their evaluation Gaussians
    assert isinstance(DynamicGaussianMixture.components, property)
    assert callable(WeightedGaussian.pd_gaussian)
