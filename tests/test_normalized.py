"""Simplex dynamics: sampling, fixed point correspondence, reduced
Jacobians, the estimate battery, and the convergence scan.

Two facts about the equilibrium p = (1/2, 0, 1/2, 0) shape several tests
here.  The reduced Jacobian at p has a unit eigenvalue along the carrier
direction, so generic trajectories approach p algebraically (distance of
order 2.25/n), not geometrically; and the probed carrier contraction
v(n+1)/y(n) exceeds 13/24 at early steps (worst measured ratio is about
0.70 at n = 2, with 13/24 holding only from n of order 10; the exact
witness (0, 1/2, 0, 1/2) has ratio 7/10 at n = 2).  Tests assert
the measured behavior; claims known to be false are marked xfail(strict)
so a change in behavior shows up loudly.
"""

import numpy as np
import pytest

from gonosomal.normalized import (
    EQUILIBRIUM,
    check_estimates,
    denormalize_fixed_point,
    embed_reduced,
    normalize_fixed_point,
    preserves_simplex,
    reduced_apply,
    reduced_jacobian_at,
    require_simplex_state,
    sample_simplex,
    scan_global_convergence,
)
from gonosomal.operator import InheritanceTensor, hemophilia_operator, hemophilia_tensor

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


def test_normalize_fixed_point_validation():
    with pytest.raises(ValueError):
        normalize_fixed_point([0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        normalize_fixed_point([-1.0, 0.0, 2.0, 0.0])
    with pytest.raises(ValueError):
        denormalize_fixed_point([0.5, 0.5, 0.0, 0.0])


# ---------------------------------------------------------------------------
# reduced dynamics
# ---------------------------------------------------------------------------


def test_reduced_apply_fixes_the_equilibrium_in_every_chart():
    for eliminate in range(4):
        keep = [i for i in range(4) if i != eliminate]
        r = EQUILIBRIUM[keep]
        np.testing.assert_array_equal(reduced_apply(r, eliminate=eliminate), r)


def test_embed_reduced_counts_a_negative_index_from_the_end():
    r = np.array([[0.125, 0.25, 0.5], [0.25, 0.0, 0.5]])
    np.testing.assert_array_equal(embed_reduced(r, -1, 4), embed_reduced(r, 3, 4))
    np.testing.assert_array_equal(embed_reduced(r, -1, 4)[:, 3], [0.125, 0.25])


def test_reduced_apply_matches_full_map():
    rng = np.random.default_rng(8)
    full = sample_simplex(rng, 32)
    image = OP.apply_normalized(full)
    np.testing.assert_allclose(
        reduced_apply(full[:, :3], eliminate=3), image[:, :3], rtol=0, atol=1e-15
    )


def test_reduced_jacobian_spectrum_is_chart_independent():
    target = np.array([-0.5, 0.0, 1.0])
    for eliminate in range(4):
        jac = reduced_jacobian_at(EQUILIBRIUM, eliminate=eliminate)
        eigs = np.sort(np.linalg.eigvals(jac).real)
        np.testing.assert_allclose(eigs, target, rtol=0, atol=1e-12)


def test_reduced_jacobian_matches_finite_differences():
    state = np.array([0.3, 0.2, 0.4, 0.1])
    jac = reduced_jacobian_at(state, eliminate=3)
    h = 1e-7
    fd = np.empty((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        plus = reduced_apply(state[:3] + e, eliminate=3)
        minus = reduced_apply(state[:3] - e, eliminate=3)
        fd[:, j] = (plus - minus) / (2 * h)
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
    # n * distance settles near 2.25 along the unit-eigenvalue direction
    state = np.array([0.3, 0.2, 0.4, 0.1])
    for _ in range(2000):
        state = OP.apply_normalized(state)
    d2000 = np.abs(state - EQUILIBRIUM).max()
    for _ in range(2000):
        state = OP.apply_normalized(state)
    d4000 = np.abs(state - EQUILIBRIUM).max()
    assert 1.8 < 2000 * d2000 < 2.7
    assert 1.8 < 4000 * d4000 < 2.7


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
    # the algebraic law puts the slowest starts near 2.25/tol steps
    assert 2000 < report.max_steps_observed < 3000


def test_scan_counts_are_consistent():
    report = scan_global_convergence(samples=300, rng_seed=5, tol=1e-2, budget=400)
    assert report.converged + report.budget_exhausted == report.samples
    assert report.converged == int((report.steps >= 0).sum())
    assert len(report.failures) == report.budget_exhausted


def test_scan_validation():
    with pytest.raises(ValueError):
        scan_global_convergence(samples=0)
    with pytest.raises(ValueError):
        scan_global_convergence(budget=0)
