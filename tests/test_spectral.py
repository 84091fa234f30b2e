"""Fixed point search and stability classification tests."""

import functools
import re

import numpy as np
import pytest

from gonosomal.normalized import sample_simplex
from gonosomal.operator import GonosomalOperator, hemophilia_operator
from gonosomal import spectral
from gonosomal.spectral import (
    ATTRACTION_PROBES,
    ATTRACTION_RADIUS,
    DROP_REASONS,
    Classification,
    FixedPointReport,
    _newton_multistart,
    attraction_probe,
    classify,
    eigenvalues,
    find_fixed_points,
    format_report,
)
from gonosomal.verify import random_tensor

OP = hemophilia_operator()
ORIGIN = np.zeros(4)
PAIR_POINT = np.array([2.0, 0.0, 2.0, 0.0])


# ---------------------------------------------------------------------------
# spectrum helpers
# ---------------------------------------------------------------------------


def test_eigenvalues_known_matrix():
    np.testing.assert_allclose(
        eigenvalues([[0.0, 1.0], [1.0, 0.0]]), [-1.0, 1.0], rtol=0, atol=1e-15
    )


def test_eigenvalues_sorted_by_real_then_imaginary():
    eigs = eigenvalues([[0.0, -2.0], [2.0, 0.0]])
    assert eigs[0] == pytest.approx(-2j)
    assert eigs[1] == pytest.approx(2j)


def test_eigenvalues_input_validation():
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues(np.zeros(4))
    with pytest.raises(ValueError):
        eigenvalues(np.eye(33))
    with pytest.raises(ValueError):
        eigenvalues([[np.nan, 0.0], [0.0, 1.0]])


def test_classify_all_classes():
    assert classify([0.5, 0.1]) is Classification.ATTRACTING
    assert classify([2.0, 3.0]) is Classification.REPELLING
    assert classify([0.5, 2.0]) is Classification.SADDLE
    assert classify([1.0, 0.2]) is Classification.NON_HYPERBOLIC
    assert classify([0.6 + 0.8j]) is Classification.NON_HYPERBOLIC


def test_classify_unit_circle_tolerance():
    assert classify([1.0 - 1e-9, 0.1]) is Classification.NON_HYPERBOLIC
    assert classify([1.0 - 1e-7, 0.1]) is Classification.ATTRACTING
    with pytest.raises(ValueError):
        classify([])


# ---------------------------------------------------------------------------
# raw search
# ---------------------------------------------------------------------------


def test_raw_search_finds_exactly_the_two_roots():
    found = find_fixed_points(OP, mode="raw", n_seeds=1000, rng_seed=0)
    assert len(found) == 2
    assert found.n_seeds == 1000
    assert found.n_converged > 800
    assert found.n_converged + found.n_dropped == 1000
    origin, pair = found
    assert np.abs(origin.point - ORIGIN).max() <= 1e-10
    assert np.abs(pair.point - PAIR_POINT).max() <= 1e-10
    assert origin.residual <= 1e-10
    assert pair.residual <= 1e-10


def test_raw_search_classifications_and_spectra():
    found = find_fixed_points(OP, mode="raw", n_seeds=1000, rng_seed=0)
    origin, pair = found
    assert origin.classification is Classification.ATTRACTING
    assert np.abs(origin.eigenvalues).max() <= 1e-10
    assert pair.classification is Classification.NON_HYPERBOLIC
    np.testing.assert_allclose(
        pair.eigenvalues.real, [-0.5, 0.0, 1.0, 2.0], rtol=0, atol=1e-8
    )
    assert np.abs(pair.eigenvalues.imag).max() <= 1e-8
    assert origin.mode == "raw" and origin.note is None


def test_raw_search_is_deterministic():
    a = find_fixed_points(OP, mode="raw", n_seeds=200, rng_seed=7)
    b = find_fixed_points(OP, mode="raw", n_seeds=200, rng_seed=7)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.point, rb.point)
        assert format_report(ra) == format_report(rb)


def test_raw_search_seed_box_and_validation():
    # a box that excludes the nontrivial root's basin still finds the origin
    found = find_fixed_points(OP, mode="raw", n_seeds=100, seed_box=(-0.2, 0.2), rng_seed=1)
    assert any(np.abs(r.point).max() <= 1e-10 for r in found)
    with pytest.raises(ValueError):
        find_fixed_points(OP, seed_box=(2.0, 1.0))
    with pytest.raises(ValueError):
        find_fixed_points(OP, n_seeds=0)
    with pytest.raises(ValueError):
        find_fixed_points(OP, mode="both")


def test_newton_drops_a_seed_at_a_singular_jacobian():
    # f(x) = x² has Jacobian 0 at the seed: the seed dies there, unperturbed
    roots, n_converged, _, drops = _newton_multistart(
        lambda x: x**2, lambda x: 2.0 * x[..., None], np.zeros((1, 1)), tol=1e-10
    )
    assert n_converged == 0
    assert roots.shape == (0, 1)
    assert drops == dict.fromkeys(DROP_REASONS, 0) | {"singular": 1}


# ---------------------------------------------------------------------------
# Newton line search against the sequential-halving reference
# ---------------------------------------------------------------------------


def _sequential_halving_newton(fun, jac, seeds, *, tol):
    """Reference solver: the one-halving-per-call damped Newton that the
    batched line search replaced, kept as an oracle with its constants
    inlined."""
    max_newton_steps, step_tol, singular_det, max_halvings = 200, 1e-12, 1e-14, 40
    pts = np.array(seeds, dtype=float)
    k, d = pts.shape
    F = fun(pts)
    res = np.abs(F).max(axis=1)
    res = np.where(np.isfinite(res), res, np.inf)
    last_step = np.full(k, np.inf)
    done = np.zeros(k, dtype=bool)
    dead = np.isinf(res)

    for _ in range(max_newton_steps):
        done |= ~dead & (res <= tol) & (last_step <= step_tol)
        active = np.flatnonzero(~done & ~dead)
        if active.size == 0:
            break
        J = jac(pts[active])
        scale = np.maximum(np.abs(J).max(axis=(1, 2)), 1.0) ** d
        with np.errstate(over="ignore", invalid="ignore"):
            bad = ~np.isfinite(J).all(axis=(1, 2))
            det = np.where(bad, 0.0, np.linalg.det(np.where(np.isfinite(J), J, 0.0)))
            singular = bad | (np.abs(det) < singular_det * scale)
        dead[active[singular]] = True
        active, J = active[~singular], J[~singular]

        step = np.linalg.solve(J, -F[active][..., None])[..., 0]
        alpha = np.ones(active.size)
        pending = np.ones(active.size, dtype=bool)
        for _halving in range(max_halvings):
            if not pending.any():
                break
            idx = active[pending]
            trial = pts[idx] + alpha[pending, None] * step[pending]
            Ft = fun(trial)
            rt = np.abs(Ft).max(axis=1)
            ok = np.isfinite(rt) & (rt < res[idx])
            if ok.any():
                tgt = idx[ok]
                pts[tgt] = trial[ok]
                F[tgt] = Ft[ok]
                res[tgt] = rt[ok]
                last_step[tgt] = np.abs(
                    alpha[pending][ok, None] * step[pending][ok]
                ).max(axis=1)
                keep = pending.copy()
                keep[np.flatnonzero(pending)[ok]] = False
                pending = keep
            alpha[pending] *= 0.5
        dead[active[pending]] = True

    done |= ~dead & (res <= tol) & (last_step <= step_tol)
    return pts[done], int(done.sum())


@functools.lru_cache(maxsize=None)
def _hemophilia_search(mode, n_seeds, rng_seed):
    """One hemophilia search with the solver's own inputs and output, the
    number of ``fun`` calls it made, and the reference solver's answer on
    the same ``fun``, ``jac`` and seeds."""
    real = spectral._newton_multistart
    seen = {}

    def spy(fun, jac, seeds, *, tol):
        seen["calls"] = 0

        def counted(x):
            seen["calls"] += 1
            return fun(x)

        seen["run"] = real(counted, jac, seeds, tol=tol)
        seen["reference"] = _sequential_halving_newton(fun, jac, seeds, tol=tol)
        return seen["run"]

    spectral._newton_multistart = spy
    try:
        found = find_fixed_points(OP, mode=mode, n_seeds=n_seeds, rng_seed=rng_seed)
    finally:
        spectral._newton_multistart = real
    return found, seen


SEARCHES = [
    pytest.param(mode, n_seeds, rng_seed, id=f"{mode}-{rng_seed}")
    for mode, n_seeds in (("raw", 1000), ("normalized", 400))
    for rng_seed in (0, 42, 73411)
]


@pytest.mark.parametrize("mode, n_seeds, rng_seed", SEARCHES)
def test_newton_matches_sequential_halving_on_hemophilia(mode, n_seeds, rng_seed):
    found, seen = _hemophilia_search(mode, n_seeds, rng_seed)
    points, n_converged = seen["reference"]
    assert seen["run"].n_converged == found.n_converged == n_converged
    assert seen["run"].points.shape == points.shape
    assert seen["run"].points.tobytes() == points.tobytes()


@pytest.mark.parametrize("mode, n_seeds, rng_seed", SEARCHES)
def test_newton_makes_at_most_two_calls_per_iteration(mode, n_seeds, rng_seed):
    # one call for the starting residuals, then the full steps and the
    # halvings of the seeds the full step did not improve
    found, seen = _hemophilia_search(mode, n_seeds, rng_seed)
    assert 1 <= found.iterations <= 200
    assert seen["calls"] <= 1 + 2 * found.iterations


@pytest.mark.parametrize(
    "mode, n_seeds, converged, iterations, drops",
    [
        ("raw", 1000, 874, 200, (0, 0, 54, 72)),
        ("normalized", 400, 371, 96, (0, 5, 24, 0)),
    ],
    ids=["raw", "normalized"],
)
def test_search_reports_iterations_and_drops_by_reason(
    mode, n_seeds, converged, iterations, drops
):
    found, _ = _hemophilia_search(mode, n_seeds, 73411)
    assert found.n_converged == converged
    assert found.iterations == iterations
    assert found.drops == dict(zip(DROP_REASONS, drops))
    assert sum(found.drops.values()) == found.n_dropped


def test_newton_matches_sequential_halving_when_the_full_step_overshoots():
    # Newton on arctan overshoots for |x| > 1.39; from x = 3 neither the full
    # nor the half step lowers |arctan|, so the seed takes a later halving
    x = 3.0
    step = -np.arctan(x) * (1.0 + x * x)
    assert abs(np.arctan(x + step)) >= np.arctan(x)
    assert abs(np.arctan(x + 0.5 * step)) >= np.arctan(x)

    def fun(s):
        return np.arctan(s)

    def jac(s):
        return (1.0 / (1.0 + s * s))[..., None]

    seeds = np.array([[3.0], [-2.5], [10.0], [-40.0], [1.0], [0.25]])
    run = _newton_multistart(fun, jac, seeds, tol=1e-10)
    points, n_converged = _sequential_halving_newton(fun, jac, seeds, tol=1e-10)
    assert run.n_converged == n_converged >= 1
    assert run.points.tobytes() == points.tobytes()
    assert sum(run.drops.values()) == len(seeds) - n_converged


# ---------------------------------------------------------------------------
# normalized search
# ---------------------------------------------------------------------------


def test_normalized_search_unique_root():
    found = find_fixed_points(OP, mode="normalized", n_seeds=400, rng_seed=0)
    assert len(found) == 1
    root = found[0]
    assert np.abs(root.point - np.array([0.5, 0.0, 0.5, 0.0])).max() <= 1e-10
    assert root.residual <= 1e-10
    assert root.jacobian.shape == (3, 3)
    np.testing.assert_allclose(root.eigenvalues.real, [-0.5, 0.0, 1.0], rtol=0, atol=1e-8)
    assert root.classification is Classification.NON_HYPERBOLIC


def test_normalized_root_carries_empirical_note():
    found = find_fixed_points(OP, mode="normalized", n_seeds=200, rng_seed=3)
    note = found[0].note
    assert note is not None
    assert "probes" in note and "moved closer" in note


def test_normalized_root_keeps_its_attraction_probe():
    found = find_fixed_points(OP, mode="normalized", n_seeds=200, rng_seed=3)
    before, after = found[0].attraction
    assert before.shape == after.shape == (ATTRACTION_PROBES,) == (32,)
    np.testing.assert_allclose(before, ATTRACTION_RADIUS, rtol=1e-9, atol=0)
    assert (after < before).all()
    # the note reports the stored probe, not a second run
    worst = re.search(r"worst remaining distance ([^)]+)\)", found[0].note).group(1)
    assert worst == f"{after.max():.3g}"
    assert f"{ATTRACTION_PROBES} simplex probes" in found[0].note
    # raw roots are not probed
    assert all(r.attraction is None for r in find_fixed_points(OP, n_seeds=200, rng_seed=3))


def test_normalized_attraction_probe_depends_only_on_the_seed():
    # the search draws nothing from its generator between the seeds and the probe
    found = find_fixed_points(OP, mode="normalized", n_seeds=400, rng_seed=42)
    rng = np.random.default_rng(42)
    sample_simplex(rng, 400)
    before, after = attraction_probe(OP, found[0].point, rng)
    np.testing.assert_array_equal(found[0].attraction[0], before)
    np.testing.assert_array_equal(found[0].attraction[1], after)


def test_normalized_search_point_is_on_simplex():
    found = find_fixed_points(OP, mode="normalized", n_seeds=100, rng_seed=2)
    point = found[0].point
    assert abs(point.sum() - 1.0) <= 1e-12
    assert point.min() >= -1e-12


# ---------------------------------------------------------------------------
# generic operators and report formatting
# ---------------------------------------------------------------------------


def test_search_on_random_nonnegative_tensor():
    rng = np.random.default_rng(9)
    op = GonosomalOperator(random_tensor(rng, 2, 2, nonnegative=True))
    found = find_fixed_points(op, mode="raw", n_seeds=200, rng_seed=4, tol=1e-11)
    assert len(found) >= 1
    for report in found:
        assert report.residual <= 1e-11
    for i, a in enumerate(found):
        for b in found[i + 1 :]:
            assert np.abs(a.point - b.point).max() > 1e-6


def test_format_report_stanza():
    report = FixedPointReport(
        point=np.array([0.5, 0.25]),
        residual=1e-12,
        jacobian=np.array([[0.5, 0.0], [0.0, 0.25]]),
        eigenvalues=np.array([0.25 + 0j, 0.5 + 0j]),
        classification=Classification.ATTRACTING,
        mode="raw",
    )
    text = format_report(report)
    lines = text.splitlines()
    assert lines[0] == "mode=raw"
    assert lines[1] == "point=0.5,0.25"
    assert lines[2] == "residual=9.9999999999999998e-13"
    assert lines[3] == "jacobian=0.5,0;0,0.25"
    assert lines[4] == "eigenvalues=0.25+0j;0.5+0j"
    assert lines[5] == "classification=Attracting"
    assert "note=" not in text


def test_format_report_includes_note_when_present():
    found = find_fixed_points(OP, mode="normalized", n_seeds=100, rng_seed=0)
    text = format_report(found[0])
    assert text.splitlines()[-1].startswith("note=")
