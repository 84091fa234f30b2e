"""Fixed point search and stability classification tests."""

import functools
import re
import warnings

import numpy as np
import pytest

from gonosomal.normalized import (
    EQUILIBRIUM, denormalize_fixed_point, reduced_jacobian_at, sample_simplex,
)
from gonosomal.operator import GonosomalOperator, hemophilia_operator
from gonosomal import spectral
from gonosomal.spectral import (
    ATTRACTION_PROBES,
    ATTRACTION_RADIUS,
    ATTRACTION_STEPS,
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


def test_the_chart_drops_one_zero_of_the_full_normalized_spectrum():
    # the normalized map is constant along each block's ray: its full
    # Jacobian at p has two zeros, and the chart drops the one off the
    # simplex and keeps the unit eigenvalue, the carrier centre direction
    full = OP.jacobian_normalized(EQUILIBRIUM)
    np.testing.assert_allclose(eigenvalues(full).real, [-0.5, 0.0, 0.0, 1.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        eigenvalues(reduced_jacobian_at(EQUILIBRIUM)).real, [-0.5, 0.0, 1.0], rtol=0, atol=1e-12
    )
    np.testing.assert_array_equal(full @ [-2.0, 2.0, -1.0, 1.0], [-2.0, 2.0, -1.0, 1.0])


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


@pytest.mark.parametrize("mode", ["raw", "normalized"])
@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, -np.inf])
def test_search_rejects_a_tolerance_that_is_not_positive(mode, tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        find_fixed_points(OP, mode=mode, n_seeds=10, tol=tol)


@pytest.mark.parametrize(
    "mode, n_seeds, converged, iterations, drops",
    [
        ("raw", 1000, 874, 200, dict(non_finite=0, singular=0, no_descent=54, max_steps=72)),
        ("normalized", 400, 351, 57, dict(non_finite=0, singular=0, no_descent=49, max_steps=0)),
    ],
)
def test_search_bookkeeping_at_a_pinned_seed(mode, n_seeds, converged, iterations, drops):
    # the 1000-seed raw and 400-seed simplex searches of the verify battery
    found = find_fixed_points(OP, mode=mode, n_seeds=n_seeds, rng_seed=73411)
    assert (found.n_converged, found.iterations, found.drops) == (converged, iterations, drops)


def test_newton_drops_a_seed_at_a_singular_jacobian():
    # f(x) = x² has Jacobian 0 at the seed: the seed dies there, unperturbed
    roots, n_converged, _, drops = _newton_multistart(
        lambda x: x**2, lambda x: 2.0 * x[..., None], np.zeros((1, 1)), tol=1e-10
    )
    assert n_converged == 0
    assert roots.shape == (0, 1)
    assert drops == dict.fromkeys(DROP_REASONS, 0) | {"singular": 1}


def test_newton_drops_non_finite_jacobians_as_singular_without_a_warning():
    # f(x) = x - 1 with the identity as its Jacobian, except at the seeds
    # whose first coordinate is 10, 20 or 30, whose Jacobian has a NaN, +inf
    # or -inf entry; the other seeds lie within 1e-12 of the root (1, 1, 1)
    poison = {10.0: np.nan, 20.0: np.inf, 30.0: -np.inf}
    seeds = np.array([
        [10.0, 0.0, 0.0],
        [1.0 + 2.0**-40, 1.0, 1.0 - 2.0**-41],
        [20.0, 0.0, 0.0],
        [30.0, 0.0, 0.0],
        [1.0 - 2.0**-42, 1.0 + 2.0**-43, 1.0],
    ])

    def fun(x):
        return x - 1.0

    def jac(x):
        J = np.broadcast_to(np.eye(3), (len(x), 3, 3)).copy()
        for row, first in enumerate(x[:, 0]):
            if first in poison:
                J[row, row % 3, 1] = poison[first]
        return J

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = _newton_multistart(fun, jac, seeds, tol=1e-10)
    assert run.drops == dict.fromkeys(DROP_REASONS, 0) | {"singular": 3}
    assert run.n_converged == 2
    np.testing.assert_array_equal(run.points, np.ones((2, 3)))


# ---------------------------------------------------------------------------
# Newton line search against the sequential-halving reference
# ---------------------------------------------------------------------------


def _sequential_halving_newton(fun, jac, seeds, *, tol):
    """Reference solver: the one-halving-per-call damped Newton that the
    batched line search replaced, kept as an oracle with its constants
    inlined.  Its singular screen reads the solve: a seed dies when its
    step is not finite, its Jacobian has a non-finite entry, or
    |step|·max|J| > 2**50·|F|; a stack that numpy refuses for one exact
    zero pivot is solved one matrix at a time."""
    max_newton_steps, step_tol, singular_kappa, max_halvings = 200, 1e-12, 2.0**50, 40
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
        try:
            step = np.linalg.solve(J, -F[active][..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.full((active.size, d), np.nan)
            for i, seed in enumerate(active):
                try:
                    step[i] = np.linalg.solve(J[i], -F[seed])
                except np.linalg.LinAlgError:
                    pass
        with np.errstate(over="ignore", invalid="ignore"):
            kappa = np.abs(step).max(axis=1) * np.abs(J).max(axis=(1, 2))
            singular = (
                ~np.isfinite(step).all(axis=1)
                | ~np.isfinite(J).all(axis=(1, 2))
                | (kappa > singular_kappa * res[active])
            )
        dead[active[singular]] = True
        active, step = active[~singular], step[~singular]
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
    for rng_seed in (0, 42, 73411, 90017)
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
        ("normalized", 400, 351, 57, (0, 0, 49, 0)),
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


@pytest.mark.parametrize("mode, n_seeds", [("raw", 1000), ("normalized", 400)])
def test_newton_factors_each_jacobian_once_per_iteration(mode, n_seeds, monkeypatch):
    # one solve per iteration and no determinant: the singular screen reads
    # the solve, and on the pinned searches its largest condition number
    # reading stays well below the threshold
    solve, readings, dets = np.linalg.solve, [], []

    def spy_solve(J, b):
        step = solve(J, b)
        res = np.abs(b).max(axis=(1, 2))
        kappa = np.abs(step).max(axis=(1, 2)) * np.abs(J).max(axis=(1, 2))
        readings.append(np.divide(kappa, res, out=np.zeros_like(res), where=res > 0.0))
        return step

    monkeypatch.setattr(spectral.np.linalg, "solve", spy_solve)
    monkeypatch.setattr(spectral.np.linalg, "det", lambda *a: dets.append(a))
    found = find_fixed_points(OP, mode=mode, n_seeds=n_seeds, rng_seed=73411)
    assert (found.iterations, len(dets)) == (len(readings), 0)
    assert max(r.max() for r in readings) * 100 <= spectral._SINGULAR_KAPPA


def test_newton_matches_sequential_halving_around_singular_seeds():
    # f(x) = x**2 - 1 per coordinate has the Jacobian diag(2x), exactly
    # singular at the seeds with a zero coordinate: those die as singular in
    # the first iteration, and every other seed runs as in the reference
    rng = np.random.default_rng(5)
    seeds = rng.uniform(-3.0, 3.0, size=(60, 3))
    seeds[[4, 9, 10, 31], [0, 2, 1, 0]] = 0.0

    def fun(s):
        return s * s - 1.0

    def jac(s):
        J = np.zeros(s.shape + (3,))
        J[:, [0, 1, 2], [0, 1, 2]] = 2.0 * s
        return J

    run = _newton_multistart(fun, jac, seeds, tol=1e-10)
    points, n_converged = _sequential_halving_newton(fun, jac, seeds, tol=1e-10)
    assert run.drops["singular"] == 4
    assert run.n_converged == n_converged >= 10
    assert run.points.tobytes() == points.tobytes()


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
# root deduplication against the pairwise greedy loop
# ---------------------------------------------------------------------------


def _pairwise_deduplicate(points, residuals):
    """Reference: the loop ``_deduplicate`` replaced.  Best residual first,
    a point is kept when it lies farther than 1e-6 (sup norm) from every
    point kept before it; the kept points come back lexicographically
    sorted."""
    kept = []
    for i in np.argsort(residuals):
        if all(np.abs(points[i] - points[j]).max() > 1e-6 for j in kept):
            kept.append(i)
    reps = points[kept]
    if len(reps) > 1:
        reps = reps[np.lexsort(reps.T[::-1])]
    return reps


def _twin_clusters(rng):
    # five roots, each with eleven twins within 4e-7 of it, in shuffled order
    centers = rng.uniform(-3.0, 3.0, size=(5, 4))
    points = centers.repeat(12, axis=0) + rng.uniform(-4e-7, 4e-7, size=(60, 4))
    order = rng.permutation(60)
    return points[order], rng.uniform(0.0, 1e-10, size=60)[order]


def _chain(rng):
    # points 0.6e-6 apart on a line: which of them are kept depends on the
    # order the residuals give, as each kept point drops its neighbours
    points = np.zeros((40, 3))
    points[:, 0] = 0.6e-6 * np.arange(40)
    return points, rng.uniform(0.0, 1e-10, size=40)


def _between_two_roots(rng):
    # (0.75e-6, 0) lies within 1e-6 of the roots (0, 0) and (1.5e-6, 0),
    # which are 1.5e-6 apart; it ranks second or third by residual
    points = np.array([[0.0, 0.0], [1.5e-6, 0.0], [0.75e-6, 0.0]])
    return points, np.concatenate([[1e-12], rng.permutation([2e-12, 3e-12])])


def _equal_residuals(rng):
    # twin clusters whose residuals all tie: the argsort order alone decides
    points, _ = _twin_clusters(rng)
    return points, np.zeros(len(points))


def _single_point(rng):
    return rng.uniform(-3.0, 3.0, size=(1, 4)), np.array([1e-11])


@pytest.mark.parametrize(
    "make", [_twin_clusters, _chain, _between_two_roots, _equal_residuals, _single_point]
)
@pytest.mark.parametrize("seed", range(8))
def test_deduplicate_matches_the_pairwise_greedy_loop(make, seed):
    points, residuals = make(np.random.default_rng(seed))
    got = spectral._deduplicate(points, residuals)
    want = _pairwise_deduplicate(points, residuals)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_deduplicate_drops_a_point_near_two_kept_roots():
    points, _ = _between_two_roots(np.random.default_rng(0))
    for residuals in ([1e-12, 2e-12, 3e-12], [1e-12, 3e-12, 2e-12]):
        kept = spectral._deduplicate(points, np.array(residuals))
        np.testing.assert_array_equal(kept, points[:2])


def test_deduplicate_keeps_one_point_per_twin_cluster():
    points, residuals = _twin_clusters(np.random.default_rng(1))
    assert len(spectral._deduplicate(points, residuals)) == 5


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


@pytest.mark.parametrize("rng_seed", [224, 236])
def test_small_normalized_search_reports_exactly_the_equilibrium(rng_seed):
    # seeds that reach the raw origin (mass 0) must not come back as a root
    found = find_fixed_points(OP, mode="normalized", n_seeds=20, rng_seed=rng_seed)
    assert len(found) == 1
    assert np.abs(found[0].point - EQUILIBRIUM).max() <= 1e-12


def test_normalized_search_settles_within_a_hundred_iterations():
    # the raw system has no chart boundary to stall a seed near
    found = find_fixed_points(OP, mode="normalized", n_seeds=400, rng_seed=2)
    assert found.iterations < 100


@pytest.mark.parametrize(
    "n, nu, tensor_seed", [(3, 2, 0), (2, 2, 1), (1, 3, 2), (3, 3, 3), (2, 3, 7)]
)
def test_normalized_roots_lie_on_the_simplex_and_lift_to_raw_roots(n, nu, tensor_seed):
    # the raw map has roots with a negative coordinate (eight roots in all
    # on the 3x2 tensor) and the origin; only the raw root on a simplex ray
    # gives a normalized fixed point
    tensor = random_tensor(np.random.default_rng(tensor_seed), n, nu, nonnegative=True)
    op = GonosomalOperator(tensor)
    found = find_fixed_points(op, mode="normalized", n_seeds=400, rng_seed=0)
    assert len(found) == 1
    assert found.n_converged > 0
    for root in found:
        p = root.point
        assert p.min() > 0.0 and p.sum() == pytest.approx(1.0, abs=1e-12)
        assert root.residual <= 1e-10
        assert np.abs(op.apply_normalized(p) - p).max() <= 1e-10
        s = denormalize_fixed_point(p, op)
        assert np.abs(op.apply_raw(s) - s).max() <= 1e-10 * max(1.0, np.abs(s).max())


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


def _attraction_by_apply(op, point, rng):
    # attraction_probe as it was before it stepped with orbit: one
    # apply_normalized call per step
    z = sample_simplex(rng, ATTRACTION_PROBES, op.n, op.nu)
    offset = z - point
    scale = ATTRACTION_RADIUS / np.abs(offset).max(axis=1, keepdims=True)
    probes = point + np.minimum(scale, 1.0) * offset
    before = np.abs(probes - point).max(axis=1)
    cur = probes
    for _ in range(ATTRACTION_STEPS):
        cur = op.apply_normalized(cur)
    return before, np.abs(cur - point).max(axis=1)


def test_attraction_probe_matches_the_apply_loop():
    before, after = attraction_probe(OP, EQUILIBRIUM, np.random.default_rng(73411))
    want_before, want_after = _attraction_by_apply(OP, EQUILIBRIUM, np.random.default_rng(73411))
    assert before.tobytes() == want_before.tobytes()
    assert after.tobytes() == want_after.tobytes()


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
