"""Simplex dynamics: sampling, fixed point correspondence, reduced
Jacobians, the estimate battery, and the convergence scan.

Two facts about the equilibrium p = (1/2, 0, 1/2, 0) shape several tests
here.  The reduced Jacobian at p has a unit eigenvalue along the carrier
direction, so generic trajectories approach p algebraically (distance
about ALGEBRAIC_RATE/n, with ALGEBRAIC_RATE = 9/4), not geometrically;
and the probed carrier contraction v(n+1)/y(n) exceeds 13/24 at early
steps (worst measured ratio is about 0.70 at n = 2, with 13/24 holding
only from n of order 10; the exact witness (0, 1/2, 0, 1/2) has ratio
7/10 at n = 2).  Tests assert
the measured behavior; claims known to be false are marked xfail(strict)
so a change in behavior shows up loudly.
"""

import numpy as np
import pytest

from gonosomal.normalized import (
    ALGEBRAIC_RATE,
    EQUILIBRIUM,
    check_estimates,
    denormalize_fixed_point,
    normalize_fixed_point,
    preserves_simplex,
    reduced_apply,
    reduced_jacobian_at,
    require_simplex_state,
    sample_simplex,
    scan_global_convergence,
)
from gonosomal.operator import (
    GonosomalOperator, InheritanceTensor, hemophilia_operator, hemophilia_tensor,
)
from gonosomal.spectral import find_fixed_points
from gonosomal.verify import random_tensor

OP = hemophilia_operator()


# ---------------------------------------------------------------------------
# sampling and validation
# ---------------------------------------------------------------------------


def test_sample_simplex_uniform_properties():
    rng = np.random.default_rng(0)
    pts = sample_simplex(rng, 5000)
    assert pts.shape == (5000, 4)
    assert pts.min() >= 0.0
    assert np.abs(pts.sum(axis=1) - 1.0).max() <= 1e-12
    assert pts[:, :2].sum(axis=1).min() >= 1e-9
    assert pts[:, 2:].sum(axis=1).min() >= 1e-9
    # coordinates are exchangeable under the uniform law
    assert abs(pts.mean(axis=0) - 0.25).max() < 0.02


def test_sample_simplex_is_seeded():
    a = sample_simplex(np.random.default_rng(3), 10)
    b = sample_simplex(np.random.default_rng(3), 10)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize(
    "kw",
    [dict(guard=1.0), dict(guard=0.5), dict(guard=-1e-9), dict(guard=np.nan), dict(n=0), dict(nu=0)],
    ids=["guard-1", "guard-half", "guard-negative", "guard-nan", "no-female", "no-male"],
)
def test_sample_simplex_rejects_arguments_no_row_can_pass(kw):
    # guard >= 1/2 or an empty block once redrew forever; a negative or NaN
    # guard turned the guard off
    with pytest.raises(ValueError):
        sample_simplex(np.random.default_rng(0), 3, **kw)


@pytest.mark.parametrize("size", [-1, 0])
def test_sample_simplex_refuses_a_size_below_one(size):
    # -1 once raised numpy's "negative dimensions are not allowed"
    with pytest.raises(ValueError, match="size must be at least 1"):
        sample_simplex(np.random.default_rng(0), size)


def test_sample_simplex_other_dimensions():
    pts = sample_simplex(np.random.default_rng(1), 100, n=3, nu=2)
    assert pts.shape == (100, 5)
    assert np.abs(pts.sum(axis=1) - 1.0).max() <= 1e-12


def test_require_simplex_state():
    v = require_simplex_state([0.25, 0.25, 0.25, 0.25])
    assert v.shape == (4,)
    batch = sample_simplex(np.random.default_rng(2), 16)
    assert require_simplex_state(batch).shape == (16, 4)
    with pytest.raises(ValueError):
        require_simplex_state([0.5, -0.1, 0.5, 0.1])
    with pytest.raises(ValueError):
        require_simplex_state([0.3, 0.3, 0.3, 0.3])
    with pytest.raises(ValueError):
        require_simplex_state([0.0, 0.0, 0.5, 0.5])


@pytest.mark.parametrize("call", [require_simplex_state, check_estimates])
def test_an_empty_batch_is_refused_at_the_simplex_boundary(call):
    # it once raised numpy's "zero-size array to reduction operation", and
    # a check on no rows would pass vacuously
    with pytest.raises(ValueError, match="states must be at least 1"):
        call(np.empty((0, 4)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_states_are_rejected_at_the_simplex_boundary(bad):
    # NaN fails every comparison, so it once passed validation and made
    # check_estimates report all nine lemma bounds violated
    state = [bad, 0.5, 0.25, 0.25]
    batch = sample_simplex(np.random.default_rng(4), 8)
    batch[5, 0] = bad
    for call in (require_simplex_state, check_estimates):
        for arg in (state, batch):
            with pytest.raises(ValueError, match="non-finite"):
                call(arg)
    for call in (normalize_fixed_point, denormalize_fixed_point):
        with pytest.raises(ValueError, match="non-finite"):
            call(state)


def test_preserves_simplex():
    assert preserves_simplex(hemophilia_tensor())
    # a crossing table whose offspring are all male cannot preserve the simplex
    gf = np.zeros((1, 1, 1))
    gm = np.ones((1, 1, 1))
    assert not preserves_simplex(InheritanceTensor(gf, gm))
    signed = InheritanceTensor(np.full((1, 1, 1), 1.5), np.full((1, 1, 1), -0.5))
    with pytest.raises(ValueError):
        preserves_simplex(signed)


# ---------------------------------------------------------------------------
# fixed point correspondence
# ---------------------------------------------------------------------------


def test_equilibrium_is_exactly_fixed():
    np.testing.assert_array_equal(OP.apply_normalized(EQUILIBRIUM), EQUILIBRIUM)


def test_normalize_denormalize_round_trip():
    p = normalize_fixed_point([2.0, 0.0, 2.0, 0.0])
    np.testing.assert_array_equal(p, EQUILIBRIUM)
    np.testing.assert_array_equal(denormalize_fixed_point(p), [2.0, 0.0, 2.0, 0.0])


def test_denormalize_takes_the_operator_of_a_simplex_root():
    # the nonnegative normalized root of a 3+2 tensor: its block sums are
    # not the hemophilia ones, and it has five coordinates
    op = GonosomalOperator(random_tensor(np.random.default_rng(0), 3, 2, nonnegative=True))
    found = find_fixed_points(op, "normalized", n_seeds=50)
    roots = [r.point for r in found if r.point.min() >= 0.0]
    assert len(roots) == 1
    raw = denormalize_fixed_point(roots[0], op)
    assert np.abs(op.apply_raw(raw) - raw).max() <= 1e-10
    assert normalize_fixed_point(raw) == pytest.approx(roots[0], abs=1e-15)
    with pytest.raises(ValueError, match="negative coordinate"):
        denormalize_fixed_point(roots[0] - [0.3, 0.0, 0.0, 0.3, 0.0], op)
    # op=None is the hemophilia operator, bit for bit
    hemophilia = denormalize_fixed_point(EQUILIBRIUM)
    assert denormalize_fixed_point(EQUILIBRIUM, OP).tobytes() == hemophilia.tobytes()


def test_normalize_fixed_point_validation():
    with pytest.raises(ValueError):
        normalize_fixed_point([0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        normalize_fixed_point([-1.0, 0.0, 2.0, 0.0])
    with pytest.raises(ValueError):
        denormalize_fixed_point([0.5, 0.5, 0.0, 0.0])


def test_fixed_point_projections_reject_a_batch():
    with pytest.raises(ValueError, match="single state"):
        normalize_fixed_point([[2.0, 0.0, 2.0, 0.0]] * 2)
    with pytest.raises(ValueError, match="single state"):
        denormalize_fixed_point([EQUILIBRIUM] * 2)


# ---------------------------------------------------------------------------
# reduced dynamics
# ---------------------------------------------------------------------------


def test_reduced_apply_fixes_the_equilibrium():
    # the chart drops the first male coordinate, u
    r = np.delete(EQUILIBRIUM, 2)
    np.testing.assert_array_equal(reduced_apply(r), r)


def test_reduced_apply_matches_full_map():
    rng = np.random.default_rng(8)
    full = sample_simplex(rng, 32)
    image = OP.apply_normalized(full)
    np.testing.assert_allclose(
        reduced_apply(np.delete(full, 2, axis=1)), np.delete(image, 2, axis=1), rtol=0, atol=1e-15
    )


def test_reduced_jacobian_spectrum_is_chart_independent():
    # the normalized image sums to one, so each column of the full Jacobian
    # sums to zero: it maps into the simplex's tangent space, and its
    # characteristic polynomial is the chart's times t, at every state
    rng = np.random.default_rng(8)
    for op in (OP, *(GonosomalOperator(random_tensor(rng, n, nu, nonnegative=True))
                     for n, nu in [(1, 3), (3, 2)])):
        for s in sample_simplex(rng, 20, op.n, op.nu):
            chart = np.poly(reduced_jacobian_at(s, op=op))
            full = np.poly(op.jacobian_normalized(s))
            np.testing.assert_allclose(full, np.append(chart, 0.0), rtol=0, atol=1e-12)
    eigs = np.sort(np.linalg.eigvals(reduced_jacobian_at(EQUILIBRIUM)).real)
    np.testing.assert_allclose(eigs, [-0.5, 0.0, 1.0], rtol=0, atol=1e-12)


def test_reduced_jacobian_matches_finite_differences():
    state = np.array([0.3, 0.2, 0.4, 0.1])
    jac = reduced_jacobian_at(state)
    chart = np.delete(state, 2)
    h = 1e-7
    fd = np.empty((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd[:, j] = (reduced_apply(chart + e) - reduced_apply(chart - e)) / (2 * h)
    assert np.abs(jac - fd).max() <= 1e-6


# ---------------------------------------------------------------------------
# estimate battery
# ---------------------------------------------------------------------------


def test_estimates_lemma_bounds_hold_everywhere():
    states = sample_simplex(np.random.default_rng(4), 10_000)
    report = check_estimates(states)
    lemma = list(report.checks)
    assert len(lemma) == 9
    assert all(c.satisfied for c in lemma)
    assert min(c.margin for c in lemma) >= -1e-12
    # the 13/24 probes are reported apart, so ok means the lemma bounds hold
    assert all("contraction" not in c.name for c in lemma)
    assert all("contraction" in c.name for c in report.contraction_probes)
    assert report.ok and report.violations == []


def test_estimates_scalar_agrees_with_batch():
    states = sample_simplex(np.random.default_rng(5), 50)
    batch = check_estimates(states)
    singles = [check_estimates(s) for s in states]
    for field in ("checks", "contraction_probes"):
        for idx, check in enumerate(getattr(batch, field)):
            worst = min(getattr(r, field)[idx].margin for r in singles)
            assert check.margin == pytest.approx(worst, rel=1e-12, abs=1e-300)


def _estimates_by_apply(s):
    # check_estimates as it was before it stepped with orbit: one
    # apply_normalized call per step, checks and probes as (name, margin)
    def chain(name, *values):
        return name, min(float(np.min(b - a)) for a, b in zip(values, values[1:]))

    x, y, u, v = (s[..., i] for i in range(4))
    fs, ms = x + y, u + v
    s1 = OP.apply_normalized(s)
    x1, y1, u1, v1 = (s1[..., i] for i in range(4))
    s2 = OP.apply_normalized(s1)
    checks = [
        chain("x", u / (4 * ms), x1, u / (2 * ms), 0.5),
        chain("y", v / (3 * ms), y1, (u + 2 * v) / (4 * ms), 0.5),
        chain("u", 0.25, (2 * x + y) / (4 * fs), u1, (3 * x + 2 * y) / (6 * fs), 0.5),
        chain("v", y / (4 * fs), v1, y / (3 * fs), 1.0 / 3.0),
        chain("female", 1.0 / 3.0 + u / (6 * ms), x1 + y1, 0.5),
        chain("male", 0.5, u1 + v1, 0.5 + y * v / (6 * fs * ms), 2.0 / 3.0),
        chain("v'y'u'", v1, y1, u1),
        chain("x'u'", x1, u1),
        chain("second", 5.0 / 12.0, s2[..., 0] + s2[..., 1], 0.5),
    ]
    probes, worst_ratio, cur = [], None, s2
    for n in range(2, 21):
        nxt = OP.apply_normalized(cur)
        probes.append(chain(f"carrier contraction v({n + 1}) <= 13/24 y({n})",
                            nxt[..., 3], (13.0 / 24.0) * cur[..., 1]))
        mask = cur[..., 1] > 1e-12
        if np.any(mask):
            ratio = float(np.max(nxt[..., 3][mask] / cur[..., 1][mask]))
            worst_ratio = ratio if worst_ratio is None else max(worst_ratio, ratio)
        cur = nxt
    return checks, probes, worst_ratio


@pytest.mark.parametrize("rows", [None, 2000], ids=["one-state", "batch"])
def test_estimates_match_the_apply_loop(rows):
    states = sample_simplex(np.random.default_rng(73411), rows or 1)
    states = states if rows else states[0]
    report = check_estimates(states)
    checks, probes, worst_ratio = _estimates_by_apply(states)
    assert [c.margin for c in report.checks] == [margin for _, margin in checks]
    assert [(c.name, c.margin) for c in report.contraction_probes] == probes
    assert report.contraction_worst_ratio == worst_ratio
    assert len(probes) == 19


def test_estimates_reject_states_off_the_simplex():
    with pytest.raises(ValueError):
        check_estimates([0.5, 0.5, 0.5, 0.5])


def test_carrier_contraction_exists_but_not_at_the_sharp_constant():
    # the probed two-block ratio stays uniformly below 1 (and even 0.8),
    # yet exceeds 13/24 at early steps for generic states
    states = sample_simplex(np.random.default_rng(6), 5000)
    report = check_estimates(states)
    contraction = list(report.contraction_probes)
    assert len(contraction) == 19
    early = [c for c in contraction if "y(2)" in c.name or "y(3)" in c.name]
    assert all(not c.satisfied for c in early)
    assert 13 / 24 < report.contraction_worst_ratio < 0.8


def test_carrier_contraction_holds_from_late_steps():
    states = sample_simplex(np.random.default_rng(7), 5000)
    report = check_estimates(states)
    late = [
        c
        for c in report.contraction_probes
        if int(c.name.split("y(")[1].rstrip(")")) >= 12
    ]
    assert len(late) == 9
    assert all(c.satisfied for c in late)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "near the equilibrium the reduced Jacobian has a unit eigenvalue, so the "
        "two-step sup-norm contraction factor approaches 1 for generic directions; "
        "a uniform factor of 0.30 holds only for carrier-free perturbations, which "
        "land on the equilibrium exactly"
    ),
)
def test_two_step_contraction_factor_bound():
    rng = np.random.default_rng(9)
    z = sample_simplex(rng, 64)
    offset = z - EQUILIBRIUM
    probes = EQUILIBRIUM + 1e-3 * offset / np.abs(offset).max(axis=1, keepdims=True)
    two_step = OP.apply_normalized(OP.apply_normalized(probes))
    before = np.abs(probes - EQUILIBRIUM).max(axis=1)
    after = np.abs(two_step - EQUILIBRIUM).max(axis=1)
    assert (after <= 0.30 * before).all()


def test_carrier_free_neighborhood_lands_exactly():
    d = np.linspace(-0.4, 0.4, 17)
    probes = np.zeros((17, 4))
    probes[:, 0] = 0.5 + d
    probes[:, 2] = 0.5 - d
    image = OP.apply_normalized(probes)
    np.testing.assert_array_equal(image, np.tile(EQUILIBRIUM, (17, 1)))


def test_algebraic_approach_rate():
    # n * distance rises toward 9/4 along the unit-eigenvalue direction:
    # 2.2348, 2.2422 and 2.2468 at n = 2000, 4000 and 10^4
    marks = (2000, 4000, 10_000)
    orbit = OP.orbit([0.3, 0.2, 0.4, 0.1], "normalized", marks[-1])
    rates = [
        n * np.abs(state - EQUILIBRIUM).max()
        for n, state in enumerate(orbit, start=1)
        if n in marks
    ]
    assert rates == sorted(rates)
    assert abs(rates[-1] - ALGEBRAIC_RATE) < 0.01


# ---------------------------------------------------------------------------
# convergence scan
# ---------------------------------------------------------------------------


def test_scan_reports_honest_failures_at_tight_tolerance():
    report = scan_global_convergence(samples=200, rng_seed=42, tol=1e-8, budget=500)
    assert report.samples == 200
    assert report.converged == 0
    assert report.budget_exhausted == 200
    assert report.failures.shape == (200, 4)
    assert (report.steps == -1).all()
    assert 1e-4 < report.worst_final_distance < 1e-2
    assert report.max_steps_observed == 0


def test_scan_converges_at_reachable_tolerance():
    report = scan_global_convergence(samples=100, rng_seed=1, tol=1e-3, budget=5000)
    assert report.converged == 100
    assert len(report.failures) == 0
    assert (report.steps >= 0).all()
    # the algebraic law puts the slowest starts near ALGEBRAIC_RATE/tol steps
    assert 2000 < report.max_steps_observed < 3000


def test_scan_counts_are_consistent():
    report = scan_global_convergence(samples=300, rng_seed=5, tol=1e-2, budget=400)
    assert report.converged + report.budget_exhausted == report.samples
    assert report.converged == int((report.steps >= 0).sum())
    assert len(report.failures) == report.budget_exhausted


def _reference_scan(samples, rng_seed, tol, budget):
    # the scan loop with the kernel and the sup distance written as numpy
    # broadcasts over the state axis, as they were before they moved to one
    # column at a time
    starts = sample_simplex(np.random.default_rng(rng_seed), samples)
    steps = np.full(samples, -1, dtype=int)
    current = starts.copy()
    dist = np.abs(current - EQUILIBRIUM).max(axis=1)
    steps[dist <= tol] = 0
    for k in range(1, budget + 1):
        x, y = current[:, :2], current[:, 2:]
        pairs = (x[:, :, None] * y[:, None, :]).reshape(samples, 4) @ OP.pair_matrix
        current = pairs / ((x[:, 0] + x[:, 1]) * (y[:, 0] + y[:, 1]))[:, None]
        dist = np.abs(current - EQUILIBRIUM).max(axis=1)
        steps[(steps < 0) & (dist <= tol)] = k
        if (steps >= 0).all():
            break
    return steps, float(dist.max()), starts[steps < 0]


# 8e-3: every sample converges and the loop stops early, at step 276;
# 5e-3: one converges and the rest run the whole budget
@pytest.mark.parametrize("tol", [8e-3, 5e-3])
def test_scan_matches_the_broadcast_reference_loop(tol):
    report = scan_global_convergence(samples=500, tol=tol, budget=300)
    steps, worst, failures = _reference_scan(500, 42, tol, 300)
    np.testing.assert_array_equal(report.steps, steps)
    assert report.worst_final_distance == worst
    assert report.failures.tobytes() == failures.tobytes()
    assert report.converged == {8e-3: 500, 5e-3: 1}[tol]


def _scan_by_apply(samples, rng_seed, tol, budget):
    # the scan loop as it was before it stepped with orbit: one
    # apply_normalized call per step
    starts = sample_simplex(np.random.default_rng(rng_seed), samples)
    steps = np.full(samples, -1, dtype=int)
    current = starts.copy()
    dist = np.abs(current - EQUILIBRIUM).max(axis=1)
    steps[dist <= tol] = 0
    for k in range(1, budget + 1):
        current = OP.apply_normalized(current)
        dist = np.abs(current - EQUILIBRIUM).max(axis=1)
        steps[(steps < 0) & (dist <= tol)] = k
        if (steps >= 0).all():
            break
    return steps, float(dist.max()), starts[steps < 0]


# 8e-3 stops at step 276; at 5e-3 one sample converges; at 1 every start is
# within tol at step 0 and the loop still takes one step
@pytest.mark.parametrize("tol", [8e-3, 5e-3, 1.0])
def test_scan_matches_the_apply_loop(tol):
    report = scan_global_convergence(samples=1000, rng_seed=73411, tol=tol, budget=300)
    steps, worst, failures = _scan_by_apply(1000, 73411, tol, 300)
    assert report.steps.tobytes() == steps.tobytes()
    assert report.worst_final_distance == worst
    assert report.failures.tobytes() == failures.tobytes()
    assert report.converged == int((steps >= 0).sum())
    assert report.max_steps_observed == (int(steps.max()) if report.converged else 0)


# The scan skips its carrier mask on a step whose carrier column is above
# tol in every row, which is exact because p_y is 0: |y - p_y| is |y|.  At
# tol 1e-2 over 50 steps 7 of 10,000 samples converge, so the mask runs on
# the steps where some row nears; at the CLI's tol and budget none does.
@pytest.mark.parametrize(
    "samples, rng_seed, tol, budget, converged",
    [(10_000, 1, 1e-2, 50, 7), (500, 42, 1e-8, 500, 0)],
    ids=["loose", "cli-defaults"],
)
def test_scan_skips_the_carrier_mask_exactly(samples, rng_seed, tol, budget, converged):
    assert EQUILIBRIUM[1] == 0.0
    report = scan_global_convergence(samples=samples, rng_seed=rng_seed, tol=tol, budget=budget)
    steps, worst, failures = _scan_by_apply(samples, rng_seed, tol, budget)
    assert report.steps.tobytes() == steps.tobytes()
    assert report.converged == int((steps >= 0).sum()) == converged
    assert report.failures.tobytes() == failures.tobytes()
    assert report.worst_final_distance == worst


def test_scan_validation():
    with pytest.raises(ValueError):
        scan_global_convergence(samples=0)
    with pytest.raises(ValueError):
        scan_global_convergence(budget=0)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, -np.inf])
def test_scan_rejects_a_tolerance_that_is_not_positive(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        scan_global_convergence(samples=10, tol=tol)
