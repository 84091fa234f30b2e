"""The check battery behind ``gonosomal verify``."""

import sys

import numpy as np
import pytest

from gonosomal import spectral, verify
from gonosomal.operator import GonosomalOperator, hemophilia_operator, hemophilia_tensor
from gonosomal.spectral import DROP_REASONS, FixedPointSearchResult


def _rootless(n_seeds):
    # a search whose every seed had a non-finite starting residual
    drops = dict.fromkeys(DROP_REASONS, 0) | {"non_finite": n_seeds}
    return FixedPointSearchResult([], n_seeds, 0, iterations=0, drops=drops)


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
    none = _rootless(400)
    result = verify._check_local_attraction(None, none, np.random.default_rng(0))
    assert not result.ok
    assert result.detail == "no unique probed root (0 roots)"


@pytest.mark.parametrize(
    "op",
    [None, hemophilia_operator(), GonosomalOperator(hemophilia_tensor())],
    ids=["default", "shared", "rebuilt"],
)
def test_every_hemophilia_operator_gets_the_full_battery(monkeypatch, op):
    # the scope follows the coefficients; the Newton searches are stubbed out,
    # since only the check names matter here
    monkeypatch.setattr(
        verify, "find_fixed_points",
        lambda op, mode, n_seeds, rng_seed: _rootless(n_seeds),
    )
    names = [r.name for r in verify.run_battery(op, samples=50)]
    assert len(names) == 19
    assert names == [r.name for r in verify.run_battery(samples=50)]
