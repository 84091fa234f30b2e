"""The check battery behind ``gonosomal verify``."""

import sys

import numpy as np

from gonosomal import spectral, verify
from gonosomal.spectral import FixedPointSearchResult


def test_run_battery_runs_the_attraction_probe_once(monkeypatch):
    real = spectral.attraction_probe
    points = []

    def counting(op, point, *args, **kwargs):
        points.append(point)
        return real(op, point, *args, **kwargs)

    # every module that binds the probe, so a check that imported it counts
    for name, mod in list(sys.modules.items()):
        if name.startswith("gonosomal") and getattr(mod, "attraction_probe", None) is real:
            monkeypatch.setattr(mod, "attraction_probe", counting)
    results = {r.name: r for r in verify.run_battery(samples=500)}
    assert len(points) == 1
    np.testing.assert_allclose(points[0], [0.5, 0.0, 0.5, 0.0], rtol=0, atol=1e-10)
    assert results["normalized-fixed-point"].ok
    assert results["local-attraction"].ok


def test_local_attraction_fails_plainly_without_a_unique_root():
    none = FixedPointSearchResult([], n_seeds=400, n_converged=0)
    result = verify._check_local_attraction(None, none, np.random.default_rng(0))
    assert not result.ok
    assert result.detail == "no unique probed root (0 roots)"
