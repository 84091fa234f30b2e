"""Acceptance battery for the hemophilia inheritance dynamics.

One test per headline guarantee, each at its stated tolerance, so that a
verbose pytest run gives one pass/fail line per guarantee.  Guarantee 7
is split in two: the ratio-chain lemma bounds and the two-step female
mass band hold everywhere, while the sharp 13/24 carrier contraction
v(n+1) <= (13/24) y(n) is refuted.  The exact witness (0, 1/2, 0, 1/2)
reaches s(2) = (1/8, 7/24, 7/24, 7/24) and then v(3) = 49/240 >
(13/24) y(2), a ratio of exactly 7/10.  That test pins the witness in
rational arithmetic, checks that check_estimates reports it, and checks
that on the seeded sample the violations form one early run of probe
steps under the uniform constant 0.8; its failure message carries the
measured worst ratio and the violated steps.

Guarantee 8's zero-failure expectation for the tight-tolerance scan is
unreachable for a different reason: the equilibrium has a unit
eigenvalue along the carrier direction, so trajectories approach it
algebraically (distance about ALGEBRAIC_RATE/n = 2.25/n) and no budget of
500 steps can pass a 1e-8 tolerance.  The scan's contract is that every non-converged
start is reported verbatim as a potential counterexample; the test
verifies exactly that, checks that no start actually escaped (all end
within 1e-2 of the equilibrium, consistent with slow convergence rather
than any counterexample), and warns with the measured count.
"""

import time
import warnings
from fractions import Fraction as F

import numpy as np

from gonosomal.invariant_sets import (
    LimitKind,
    classify_limit,
    verify_invariance,
)
from gonosomal.normalized import (
    ALGEBRAIC_RATE,
    EQUILIBRIUM,
    check_estimates,
    reduced_apply,
    reduced_jacobian_at,
    sample_simplex,
    scan_global_convergence,
)
from gonosomal.operator import (
    GonosomalOperator,
    StopReason,
    hemophilia_operator,
    hemophilia_tensor,
)
from gonosomal.spectral import Classification, classify, eigenvalues, find_fixed_points
from gonosomal.verify import empirical_limits, random_tensor

OP = hemophilia_operator()
RAW_ROOT = np.array([2.0, 0.0, 2.0, 0.0])


def test_criterion_01_raw_fixed_point_search():
    start = time.perf_counter()
    result = find_fixed_points(OP, mode="raw", n_seeds=1000, seed_box=(-5.0, 5.0))
    elapsed = time.perf_counter() - start
    assert len(result) == 2, f"expected exactly two roots, got {len(result)}"
    points = sorted((tuple(r.point) for r in result))
    assert np.abs(np.array(points[0])).max() <= 1e-9
    assert np.abs(np.array(points[1]) - RAW_ROOT).max() <= 1e-9
    assert all(r.residual <= 1e-10 for r in result)
    assert elapsed < 1.0, f"search took {elapsed:.2f}s, budget is 1s"


def test_criterion_02_raw_spectra_and_classification():
    at_origin = eigenvalues(OP.jacobian_raw(np.zeros(4)))
    assert np.abs(at_origin).max() <= 1e-10
    assert classify(at_origin) is Classification.ATTRACTING

    at_root = eigenvalues(OP.jacobian_raw(RAW_ROOT))
    assert np.abs(at_root.imag).max() <= 1e-8
    np.testing.assert_allclose(
        np.sort(at_root.real), [-0.5, 0.0, 1.0, 2.0], rtol=0, atol=1e-8
    )
    assert classify(at_root) is Classification.NON_HYPERBOLIC


def test_criterion_03_carrier_free_trichotomy():
    cases = [
        ((1.0, 0.0, 1.0, 0.0), "origin"),      # product 1
        ((3.99, 0.0, 1.0, 0.0), "origin"),     # product 3.99
        ((4.0, 0.0, 1.0, 0.0), "equilibrium"), # product exactly 4
        ((4.01, 0.0, 1.0, 0.0), "diverges"),   # product 4.01
        ((3.0, 0.0, 3.0, 0.0), "diverges"),    # product 9
    ]
    for state, expected in cases:
        record = OP.iterate(np.array(state), mode="raw")
        final = record.iterates[-1]
        if expected == "diverges":
            assert record.stop_reason is StopReason.DIVERGED, state
        else:
            assert record.stop_reason is StopReason.CONVERGED, state
            target = np.zeros(4) if expected == "origin" else RAW_ROOT
            assert np.abs(final - target).max() <= 1e-8, state


def test_criterion_04_invariance_suite():
    report = verify_invariance(OP, samples=10_000)
    names = [c.name for c in report.checks]
    assert "annihilated maps to the origin exactly" in names
    for a in (1, 2, 3, 4):
        assert f"sum cap {a} contracts to {a * a / 4:g}" in names
    assert all(c.samples == 10_000 for c in report.checks)
    bad = [f"{c.name}: {c.failures} failures" for c in report.checks if not c.ok]
    assert report.ok, "; ".join(bad)


def test_criterion_05_limit_classifier_soundness():
    rng = np.random.default_rng(11)
    per = 10_000 // 6

    def refill(draw, accept):
        out = np.empty((0, 4))
        while len(out) < per:
            batch = draw(per)
            out = np.concatenate([out, batch[accept(batch)]])
        return out[:per]

    subcritical = refill(
        lambda c: rng.uniform(0.0, 2.0, size=(c, 4)),
        lambda b: (b[:, 0] + b[:, 1]) * (b[:, 2] + b[:, 3]) < 4.0,
    )
    escaping = refill(
        lambda c: rng.uniform(0.0, 6.0, size=(c, 4)),
        lambda b: (b.sum(axis=1) > 4.0)
        & (
            np.maximum(
                b[:, 0] * b[:, 2] / 4.0,
                np.maximum(b[:, 1] * b[:, 2] / 16.0, b[:, 1] * b[:, 3] / 9.0),
            )
            > 1.0
        ),
    )
    carrier_free = np.zeros((per, 4))
    carrier_free[:, 0] = rng.uniform(-3.0, 3.0, size=per)
    carrier_free[:, 2] = rng.uniform(-3.0, 3.0, size=per)
    nonpositive = -rng.uniform(0.0, 4.0, size=(per, 4))
    female_nonpos = rng.uniform(0.0, 4.0, size=(per, 4))
    female_nonpos[:, :2] *= -1.0
    batch = np.concatenate(
        [subcritical, escaping, carrier_free, nonpositive, female_nonpos, -female_nonpos]
    )

    observed = empirical_limits(OP, batch)
    decided = agreed = undecided = 0
    mismatches = []
    for row, seen in zip(batch, observed):
        verdict = classify_limit(row)
        if verdict.kind is LimitKind.UNDECIDED:
            undecided += 1
            continue
        decided += 1
        if verdict.kind is seen:
            agreed += 1
        elif len(mismatches) < 3:
            mismatches.append(
                f"{row} classified {verdict.kind.value} (escape_sum={verdict.escape_sum})"
            )
    print(
        f"criterion 5: {agreed}/{decided} decided verdicts agree with iteration; "
        f"undecided rate {undecided / len(batch):.2%} ({undecided}/{len(batch)})"
    )
    assert agreed == decided, f"disagreements: {'; '.join(mismatches)}"
    assert undecided < len(batch) * 0.15


def test_criterion_06_normalized_root_and_reduced_spectrum():
    result = find_fixed_points(OP, mode="normalized")
    assert len(result) == 1, f"expected one simplex root, got {len(result)}"
    assert np.abs(result[0].point - EQUILIBRIUM).max() <= 1e-10
    assert result[0].classification is Classification.NON_HYPERBOLIC

    by_chart = []
    for eliminate in (2, 3):  # u- and v-elimination
        jac = reduced_jacobian_at(EQUILIBRIUM, eliminate=eliminate)
        assert jac.shape == (3, 3)
        eigs = np.sort(np.linalg.eigvals(jac))
        assert np.abs(eigs.imag).max() <= 1e-12
        np.testing.assert_allclose(eigs.real, [-0.5, 0.0, 1.0], rtol=0, atol=1e-8)
        by_chart.append(eigs.real)
    np.testing.assert_allclose(by_chart[0], by_chart[1], rtol=0, atol=1e-12)


def test_criterion_07_estimate_lemmas_and_two_step_band():
    states = sample_simplex(np.random.default_rng(42), 10_000)
    start = time.perf_counter()
    report = check_estimates(states)
    elapsed = time.perf_counter() - start
    lemma = list(report.checks)
    assert len(lemma) == 9
    band = [c for c in lemma if "5/12" in c.name]
    assert len(band) == 1
    bad = [f"{c.name} (margin {c.margin:.3g})" for c in lemma if not c.satisfied]
    assert not bad, f"violated on 10000 samples: {'; '.join(bad)}"
    assert elapsed < 5.0, f"estimate battery took {elapsed:.2f}s, budget is 5s"


# Rows of the hemophilia tensor as exact fractions, pair order (x,u), (x,v),
# (y,u), (y,v); each row gives the offspring shares of (x, y, u, v).
_EXACT_ROWS = (
    (F(1, 2), F(0), F(1, 2), F(0)),
    (F(0), F(1, 2), F(1, 2), F(0)),
    (F(1, 4), F(1, 4), F(1, 4), F(1, 4)),
    (F(0), F(1, 3), F(1, 3), F(1, 3)),
)


def _exact_normalized_step(s):
    x, y, u, v = s
    weights = (x * u, x * v, y * u, y * v)
    raw = [sum(w * row[k] for w, row in zip(weights, _EXACT_ROWS)) for k in range(4)]
    total = sum(raw)
    return tuple(c / total for c in raw)


def test_criterion_07_carrier_contraction_at_13_24():
    # The sharp constant 13/24 is refuted, not assumed.  From the rows,
    # v' = y (u/4 + v/3) / ((x+y)(u+v)), so the probed ratio v(n+1)/y(n) is
    # (1/4 + t/12)/(x+y) with t = v/(u+v) at s(n); 13/24 is its value at
    # x+y = 1/2, t = 1/4, but from n = 2 on x+y only lies in [5/12, 1/2].
    exact_rows = np.array(_EXACT_ROWS, dtype=float)
    np.testing.assert_allclose(hemophilia_tensor().rows(), exact_rows, rtol=0, atol=1e-15)
    witness = (F(0), F(1, 2), F(0), F(1, 2))
    s1 = _exact_normalized_step(witness)
    s2 = _exact_normalized_step(s1)
    s3 = _exact_normalized_step(s2)
    assert s1 == (F(0), F(1, 3), F(1, 3), F(1, 3))
    assert s2 == (F(1, 8), F(7, 24), F(7, 24), F(7, 24))
    assert s3[3] == F(49, 240)
    assert F(13, 24) * s2[1] == F(91, 576)
    assert s3[3] > F(13, 24) * s2[1]
    assert s3[3] / s2[1] == F(7, 10)

    margin = F(13, 24) * s2[1] - s3[3]
    assert margin == F(-133, 2880)

    at_witness = check_estimates(np.array([float(c) for c in witness]))
    first = next(c for c in at_witness.contraction_probes if c.name.endswith("v(3) <= 13/24 y(2)"))
    assert not first.satisfied
    assert abs(first.margin - float(margin)) <= 1e-12
    assert abs(at_witness.contraction_worst_ratio - float(s3[3] / s2[1])) <= 1e-12

    # On the seeded sample the violations are one early run of probe steps
    # from y(2), and the worst ratio stays under the uniform constant 0.8
    # that the verify battery's carrier-contraction check promises.
    states = sample_simplex(np.random.default_rng(42), 10_000)
    report = check_estimates(states)
    contraction = list(report.contraction_probes)
    assert len(contraction) == 19
    assert contraction[0].name.endswith("y(2)")
    violated = [c.name for c in contraction if not c.satisfied]
    worst = report.contraction_worst_ratio
    measured = (
        f"13/24 contraction violated at {len(violated)} of 19 probed steps "
        f"({', '.join(violated)}); worst probed ratio {worst:.6f} vs "
        f"claimed 13/24 = {13 / 24:.6f} and uniform bound 0.8"
    )
    run = len(violated)
    assert 0 < run < 19, measured
    assert violated == [c.name for c in contraction[:run]], measured
    assert 13 / 24 < worst <= 0.8, measured


def test_criterion_08_convergence_scan_reports_counterexample_candidates():
    start = time.perf_counter()
    report = scan_global_convergence(samples=10_000, rng_seed=42, tol=1e-8, budget=500)
    elapsed = time.perf_counter() - start
    assert report.samples == 10_000
    assert report.converged + report.budget_exhausted == 10_000
    assert len(report.failures) == report.budget_exhausted
    if report.budget_exhausted:
        warnings.warn(
            f"scan at tol 1e-8 / budget 500: {report.budget_exhausted} of 10000 "
            f"starts did not converge (expected zero); worst final distance "
            f"{report.worst_final_distance:.3e}; the unit-eigenvalue direction "
            f"decays like {ALGEBRAIC_RATE:g}/n, so 500 steps stop near distance "
            f"{ALGEBRAIC_RATE / 500:.1e}; every "
            f"such start is reported verbatim",
            stacklevel=1,
        )
        # verbatim dump: every reported start is a valid simplex state
        assert np.abs(report.failures.sum(axis=1) - 1.0).max() <= 1e-12
        assert report.failures.min() >= 0.0
    # no start actually escaped: slow convergence, not divergence
    assert report.worst_final_distance <= 1e-2
    assert elapsed < 10.0, f"scan took {elapsed:.2f}s, budget is 10s"


def test_criterion_09_sum_product_identity_fuzz():
    rng = np.random.default_rng(7)
    dims = [(n, nu) for n in range(1, 5) for nu in range(1, 5)]
    worst = 0.0
    for t in range(200):
        n, nu = dims[t % len(dims)]
        tensor = random_tensor(rng, n, nu, nonnegative=bool(t % 2))
        op = GonosomalOperator(tensor)
        states = rng.uniform(-2.0, 2.0, size=(50, n + nu))
        total = op.apply_raw(states).sum(axis=1)
        fs, ms = op.block_sums(states)
        scale = np.maximum(1.0, np.maximum(np.abs(total), np.abs(fs * ms)))
        worst = max(worst, float((np.abs(total - fs * ms) / scale).max()))
    assert worst <= 1e-12, f"worst relative conservation defect {worst:.3e}"


def test_criterion_10_jacobian_finite_difference_oracle():
    rng = np.random.default_rng(13)
    h = 1e-6

    states = rng.uniform(-3.0, 3.0, size=(1000, 4))
    worst_raw = 0.0
    analytic = OP.jacobian_raw(states)
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        fd = (OP.apply_raw(states + e) - OP.apply_raw(states - e)) / (2 * h)
        worst_raw = max(worst_raw, float(np.abs(analytic[..., j] - fd).max()))
    assert worst_raw <= 1e-6, f"raw jacobian vs central differences: {worst_raw:.3e}"

    # interior simplex samples keep the block masses away from the
    # rational map's singular locus so truncation stays far below 1e-6
    simplex = np.empty((0, 4))
    while len(simplex) < 1000:
        batch = sample_simplex(rng, 2000)
        simplex = np.concatenate([simplex, batch[batch.min(axis=1) >= 0.02]])
    simplex = simplex[:1000]
    worst_red = 0.0
    jac = reduced_jacobian_at(simplex, eliminate=3)
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (
            reduced_apply(simplex[:, :3] + e, eliminate=3)
            - reduced_apply(simplex[:, :3] - e, eliminate=3)
        ) / (2 * h)
        worst_red = max(worst_red, float(np.abs(jac[..., j] - fd).max()))
    assert worst_red <= 1e-6, f"reduced jacobian vs central differences: {worst_red:.3e}"
