"""The check battery behind ``gonosomal verify``."""

import sys

import numpy as np
import pytest

from gonosomal import cli, invariant_sets, spectral, verify
from gonosomal.invariant_sets import RAW_EQUILIBRIUM, LimitKind, closed_form_diagonal
from gonosomal.operator import (
    DIV_THRESHOLD, GonosomalOperator, hemophilia_operator, hemophilia_tensor,
)
from gonosomal.spectral import DROP_REASONS, FixedPointSearchResult

OP = hemophilia_operator()


def _rootless(n_seeds):
    # a search whose every seed had a non-finite starting residual
    drops = dict.fromkeys(DROP_REASONS, 0) | {"non_finite": n_seeds}
    return FixedPointSearchResult([], n_seeds, 0, iterations=0, drops=drops)


def test_run_battery_runs_the_attraction_probe_once(monkeypatch):
    real = spectral.attraction_probe
    points = []

    def counting(op, point, *args, **kwargs):
        points.append(np.array(point, dtype=float))
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


def test_the_battery_classifies_each_batch_in_one_call(monkeypatch):
    # the classifier checks go through classify_limits, once per batch; only
    # the rows it cannot decide with a margin reach the single-state
    # classifier: a sign change inside a block, or a first partial sum
    # between the band edges (carrier-free rows there have |x·u| in [4, 4.5])
    single, batches, agreements = [], [], []
    real_single, real_batch, real_agreement = (
        invariant_sets.classify_limit, verify.classify_limits, verify._agreement,
    )

    def counting_single(state):
        single.append(state)
        return real_single(state)

    def counting_batch(states):
        batches.append(len(states))
        return real_batch(states)

    def counting_agreement(op, batch):
        agreements.append(len(batch))
        return real_agreement(op, batch)

    monkeypatch.setattr(invariant_sets, "classify_limit", counting_single)
    monkeypatch.setattr(verify, "classify_limits", counting_batch)
    monkeypatch.setattr(verify, "_agreement", counting_agreement)
    for seed, handed in [(42, 98), (73411, 131)]:
        del single[:], batches[:], agreements[:]
        results = {r.name: r for r in verify.run_battery(rng_seed=seed)}
        free = [state for state in single if state[1] == state[3] == 0.0]
        assert len(single) == handed and 0 < len(free) < 20
        assert all(4.0 - 1e-9 <= abs(x * u) <= 4.5 + 1e-9 for x, _, u, _ in free)
        assert batches == agreements == [201, 10_000]
        assert results["carrier-free-trichotomy"].ok and results["limit-classifier-agreement"].ok


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


@pytest.mark.parametrize("seed", [0, 90017])
def test_verify_prints_the_same_bytes_on_every_run(capsys, seed):
    first = cli.main(["verify", "--seed", str(seed)]), capsys.readouterr()
    second = cli.main(["verify", "--seed", str(seed)]), capsys.readouterr()
    assert first == second
    assert first[0] == 0 and "failed=0" in first[1].out.splitlines()


def test_an_exception_from_the_normalized_search_leaves_the_battery(monkeypatch):
    def boom(op, mode, **kwargs):
        if mode == "normalized":
            raise ValueError("boom")
        return _rootless(kwargs["n_seeds"])

    monkeypatch.setattr(verify, "find_fixed_points", boom)
    with pytest.raises(ValueError, match="^boom$"):
        verify.run_battery(samples=50)


@pytest.mark.parametrize("samples", [0, -1])
def test_run_battery_rejects_fewer_than_one_sample(samples):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        verify.run_battery(samples=samples)


# The stepping loops of the battery as they were before they stepped with
# orbit: one apply_raw call per step.  The new code must keep every bit.


def _empirical_by_apply(op, states, steps):
    cur = np.array(states, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            cur = op.apply_raw(cur)
        size = np.abs(cur).max(axis=1)
        out = np.full(len(cur), LimitKind.UNDECIDED, dtype=object)
        out[~np.isfinite(size) | (size > DIV_THRESHOLD)] = LimitKind.INFINITY
        out[size <= 1e-6] = LimitKind.ZERO
        out[np.abs(cur - RAW_EQUILIBRIUM).max(axis=1) <= 1e-6] = LimitKind.EQUILIBRIUM
    return out


def test_empirical_limits_refuse_a_negative_step_count():
    with pytest.raises(ValueError, match="step count must be nonnegative"):
        verify.empirical_limits(OP, np.ones((3, 4)), steps=-1)


@pytest.mark.parametrize("steps", [0, 1, 80])
def test_empirical_limits_match_the_apply_loop(steps):
    states = np.random.default_rng(73411).uniform(-3.0, 3.0, size=(5000, 4))
    states[:50] = RAW_EQUILIBRIUM
    states[50:100] = 0.0
    states[100:150] = 2 * DIV_THRESHOLD
    got = verify.empirical_limits(OP, states, steps)
    want = _empirical_by_apply(OP, states, steps)
    assert list(got) == list(want)
    assert len(set(want)) >= 3  # several verdicts, so the match means something


def _closed_form_by_apply(op):
    worst = 0.0
    for x0 in np.linspace(-3.0, 3.0, 25):
        direct = np.array([x0, 0.0, x0, 0.0])
        for k in range(0, 13):
            cf = closed_form_diagonal(float(x0), k)
            d = direct[0]
            if not np.isfinite(d):
                if not np.isinf(cf):
                    worst = np.inf
                break
            if np.isfinite(cf):
                worst = max(worst, abs(cf - d) / max(abs(d), 1.0))
            else:
                worst = np.inf
            with np.errstate(over="ignore", invalid="ignore"):
                direct = op.apply_raw(direct)
    return worst


def _growth_by_apply(op, rng, samples):
    m = min(samples, 5000)
    s = verify._refill(
        rng, lambda r, c: r.uniform(0.0, 4.0, size=(c, 4)), lambda b: b[:, 0] * b[:, 2] > 4.0, m
    )
    ratio = s[:, 0] * s[:, 2] / 4.0
    cur = s
    worst = np.inf
    for k in range(0, 5):
        cur = op.apply_raw(cur)
        floor = 2.0 * ratio ** (2.0**k)
        worst = min(worst, float((cur[:, 0] / floor).min()))
    return worst


def test_closed_form_and_growth_checks_match_the_apply_loop():
    closed = verify._check_closed_form(OP)
    assert closed.detail == (
        f"25 starts x 13 steps, worst relative error = {_closed_form_by_apply(OP):.3g}"
    )
    growth = verify._check_growth_bound(OP, np.random.default_rng(73411), 10_000)
    worst = _growth_by_apply(OP, np.random.default_rng(73411), 10_000)
    assert growth.detail == f"5000 states x 5 steps, min x_k over its floor = {worst:.6g}"
