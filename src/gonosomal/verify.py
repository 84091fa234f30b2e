"""Self-checking battery for the gonosomal dynamics package.

Every check here is a named, independently runnable verification of a
property the implementation relies on: algebraic identities of the
operator class (fuzzed over random tensors and states), finite-difference
confirmation of the analytic Jacobians, the invariant-set clauses, the
closed forms, the estimate bounds, and the fixed-point machinery.  The
battery backs the command line ``verify`` command; the test suite checks
the same properties with code of its own.

Checks bound to the built-in hemophilia structure only run when the
battery is given an operator with its coefficients; algebraic checks run
for any tensor.  The checks run in order, in one process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .invariant_sets import (
    RAW_EQUILIBRIUM,
    LimitKind,
    classify_limits,
    closed_form_diagonal,
    verify_invariance,
)
from .normalized import (
    EQUILIBRIUM,
    check_estimates,
    denormalize_fixed_point,
    normalize_fixed_point,
    preserves_simplex,
    reduced_apply,
    reduced_jacobian_at,
    sample_simplex,
)
from .operator import (
    DIV_THRESHOLD, GonosomalOperator, InheritanceTensor, fold_columns, hemophilia_operator,
    is_hemophilia, require_batch, require_count,
)
from .spectral import (
    ATTRACTION_PROBES, ATTRACTION_RADIUS, ATTRACTION_STEPS, Classification, eigenvalues,
    find_fixed_points,
)

__all__ = ["CheckResult", "random_tensor", "run_battery", "empirical_limits"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def random_tensor(
    rng: np.random.Generator, n: int, nu: int, nonnegative: bool = False
) -> InheritanceTensor:
    """Random inheritance tensor with exact unit row sums.

    Nonnegative tensors draw Dirichlet rows; signed ones draw uniform
    weights and rescale (redrawing rows whose sum is too close to zero to
    divide by safely).
    """
    dim = n + nu
    if nonnegative:
        rows = rng.dirichlet(np.ones(dim), size=n * nu)
    else:
        rows = rng.uniform(-1.0, 1.0, size=(n * nu, dim))
        while True:
            small = np.abs(rows.sum(axis=1)) < 0.1
            if not small.any():
                break
            rows[small] = rng.uniform(-1.0, 1.0, size=(int(small.sum()), dim))
        rows = rows / rows.sum(axis=1, keepdims=True)
    gf = rows[:, :n].reshape(n, nu, n)
    gm = rows[:, n:].reshape(n, nu, nu)
    return InheritanceTensor(gf, gm)


def empirical_limits(op: GonosomalOperator, states, steps: int = 80) -> np.ndarray:
    """Batched empirical trajectory verdicts: one :class:`LimitKind` per row
    after ``steps`` raw steps (``steps=0`` judges the rows themselves).

    Zero within 1e-6 of the origin, Equilibrium within 1e-6 of
    ``RAW_EQUILIBRIUM`` (only for an operator with exactly the hemophilia
    coefficients, where that point is the nonzero fixed point), Infinity
    when non-finite or above ``DIV_THRESHOLD``, Undecided otherwise.  The raw
    dynamics is doubly exponential, so anything not exactly on the critical
    boundary resolves within a few dozen steps.  Anything but a
    ``(k, dim)`` array raises DimensionMismatchError, at ``steps=0`` too.
    """
    cur = require_batch(states, op.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        for cur in op.orbit(cur, "raw", steps):
            pass
        size = fold_columns(np.maximum, np.abs(cur))
        out = np.full(len(cur), LimitKind.UNDECIDED, dtype=object)
        out[~np.isfinite(size) | (size > DIV_THRESHOLD)] = LimitKind.INFINITY
        out[size <= 1e-6] = LimitKind.ZERO
        if is_hemophilia(op):
            near = fold_columns(np.maximum, np.abs(cur - RAW_EQUILIBRIUM)) <= 1e-6
            out[near] = LimitKind.EQUILIBRIUM
    return out


def _agreement(op: GonosomalOperator, batch) -> tuple[int, int]:
    """Rows of ``batch`` that :func:`classify_limits` decides, and how many
    of those verdicts :func:`empirical_limits` confirms."""
    kinds = classify_limits(batch)
    decided = kinds != LimitKind.UNDECIDED
    return int(decided.sum()), int((kinds == empirical_limits(op, batch))[decided].sum())


def _refill(rng, draw, accept, count) -> np.ndarray:
    out = None
    while out is None or len(out) < count:
        batch = draw(rng, count)
        good = batch[accept(batch)]
        out = good if out is None else np.concatenate([out, good])
    return out[:count]


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def _check_tensor_rows(op: GonosomalOperator) -> CheckResult:
    rows = op.tensor.rows()
    dev = float(np.abs(rows.sum(axis=1) - 1.0).max())
    return CheckResult(
        name="tensor-rows",
        ok=bool(np.isfinite(rows).all() and dev <= 1e-9),
        detail=f"{rows.shape[0]} rows, worst |sum-1| = {dev:.3g}",
    )


def _check_sum_product(op: GonosomalOperator, rng, samples: int) -> CheckResult:
    states = rng.uniform(-5.0, 5.0, size=(samples, op.dim))
    fs, ms = op.block_sums(states)
    res = op.sum_product_residual(states) / np.maximum(1.0, np.abs(fs * ms))
    worst = float(res.max())
    return CheckResult(
        name="sum-product-identity",
        ok=worst <= 1e-12,
        detail=f"{samples} states, worst relative residual = {worst:.3g}",
    )


def _check_sum_product_random(rng, samples: int) -> CheckResult:
    # random (tensor, state) pairs across block dimensions
    per = 50
    tensors = max(1, samples // per)
    worst = 0.0
    for _ in range(tensors):
        n = int(rng.integers(1, 5))
        nu = int(rng.integers(1, 5))
        t = random_tensor(rng, n, nu, nonnegative=bool(rng.integers(0, 2)))
        o = GonosomalOperator(t)
        states = rng.uniform(-3.0, 3.0, size=(per, n + nu))
        fs, ms = o.block_sums(states)
        res = o.sum_product_residual(states) / np.maximum(1.0, np.abs(fs * ms))
        worst = max(worst, float(res.max()))
    return CheckResult(
        name="sum-product-identity-random-tensors",
        ok=worst <= 1e-12,
        detail=f"{tensors} tensors x {per} states, worst relative residual = {worst:.3g}",
    )


def _check_bilinearity(op: GonosomalOperator, rng, samples: int) -> CheckResult:
    m = min(samples, 2000)
    s = rng.uniform(-3.0, 3.0, size=(m, op.dim))
    a = rng.uniform(0.2, 3.0, size=(m, 1))
    b = rng.uniform(0.2, 3.0, size=(m, 1))
    sa = s.copy()
    sa[:, : op.n] *= a
    sb = s.copy()
    sb[:, op.n :] *= b
    base = op.apply_raw(s)
    scale = np.maximum(1.0, np.abs(base))
    dev_a = np.abs(op.apply_raw(sa) - a * base) / scale
    dev_b = np.abs(op.apply_raw(sb) - b * base) / scale
    worst = float(max(dev_a.max(), dev_b.max()))
    return CheckResult(
        name="bilinearity",
        ok=worst <= 1e-12,
        detail=f"{m} states, worst relative deviation = {worst:.3g}",
    )


def _check_scale_invariance(op: GonosomalOperator, rng, samples: int) -> CheckResult:
    m = min(samples, 2000)
    s = rng.uniform(0.1, 3.0, size=(m, op.dim))
    a = rng.uniform(0.2, 5.0, size=(m, 1))
    b = rng.uniform(0.2, 5.0, size=(m, 1))
    scaled = s.copy()
    scaled[:, : op.n] *= a
    scaled[:, op.n :] *= b
    dev = np.abs(op.apply_normalized(scaled) - op.apply_normalized(s))
    worst = float(dev.max())
    return CheckResult(
        name="normalized-scale-invariance",
        ok=worst <= 1e-12,
        detail=f"{m} states, worst deviation = {worst:.3g}",
    )


def _fd_jacobian(fun, points, h: float) -> np.ndarray:
    k, d = points.shape
    probe = fun(points)
    jac = np.empty((k, probe.shape[1], d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        jac[:, :, j] = (fun(points + e) - fun(points - e)) / (2.0 * h)
    return jac


def _check_jacobian_raw(op: GonosomalOperator, rng, samples: int) -> CheckResult:
    m = min(samples, 1000)
    s = rng.uniform(-3.0, 3.0, size=(m, op.dim))
    dev = np.abs(op.jacobian_raw(s) - _fd_jacobian(op.apply_raw, s, 1e-6))
    worst = float(dev.max())
    return CheckResult(
        name="jacobian-fd-raw",
        ok=worst <= 1e-6,
        detail=f"{m} states, worst deviation from central differences = {worst:.3g}",
    )


def _check_jacobian_reduced(op: GonosomalOperator, rng, samples: int) -> CheckResult:
    m = min(samples, 1000)
    # keep clear of the simplex boundary so the FD stencil stays in-domain
    full = sample_simplex(rng, m, op.n, op.nu, guard=1e-2)
    reduced = np.delete(full, op.n, axis=1)
    analytic = reduced_jacobian_at(full, op)
    fd = _fd_jacobian(partial(reduced_apply, op=op), reduced, 1e-6)
    worst = float(np.abs(analytic - fd).max())
    return CheckResult(
        name="jacobian-fd-reduced",
        ok=worst <= 1e-6,
        detail=f"{m} simplex states, worst deviation from central differences = {worst:.3g}",
    )


def _check_simplex_preservation(op: GonosomalOperator, rng, samples: int) -> CheckResult:
    m = min(samples, 10_000)
    s = sample_simplex(rng, m, op.n, op.nu)
    img = op.apply_normalized(s)
    neg = float(img.min())
    dev = float(np.abs(img.sum(axis=1) - 1.0).max())
    return CheckResult(
        name="simplex-preservation",
        ok=neg >= 0.0 and dev <= 1e-12,
        detail=f"{m} states, min coordinate = {neg:.3g}, worst |sum-1| = {dev:.3g}",
    )


def _check_invariance(op, rng_seed: int, samples: int) -> CheckResult:
    rep = verify_invariance(op, samples=samples, rng_seed=rng_seed)
    bad = [c.name for c in rep.checks if not c.ok]
    return CheckResult(
        name="invariant-sets",
        ok=rep.ok,
        detail=(
            f"{len(rep.checks)} clauses x {samples} samples, "
            + ("all hold" if rep.ok else f"violated: {', '.join(bad)}")
        ),
    )


def _check_closed_form(op: GonosomalOperator) -> CheckResult:
    worst = 0.0
    for x0 in np.linspace(-3.0, 3.0, 25):
        start = np.array([x0, 0.0, x0, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            direct = [x0] + [cur[0] for cur in op.orbit(start, "raw", 12)]  # x at steps 0-12
        for k, d in enumerate(direct):
            cf = closed_form_diagonal(float(x0), k)
            if not np.isfinite(d):
                # direct iteration has overflowed; the closed form must agree
                # that the value left the representable range
                if not np.isinf(cf):
                    worst = np.inf
                break
            if np.isfinite(cf):
                worst = max(worst, abs(cf - d) / max(abs(d), 1.0))
            else:
                worst = np.inf
    return CheckResult(
        name="diagonal-closed-form",
        ok=worst <= 1e-10,
        detail=f"25 starts x 13 steps, worst relative error = {worst:.3g}",
    )


def _check_trichotomy(op: GonosomalOperator, rng) -> CheckResult:
    states = [np.array([x0, 0.0, 1.0, 0.0]) for x0 in (1.0, 3.99, 4.0, 4.01, 9.0)]
    states += [np.array([-4.0, 0.0, 1.0, 0.0]), np.array([2.0, 0.0, 2.0, 0.0])]
    xs = rng.uniform(-3.0, 3.0, size=194)
    us = rng.uniform(-3.0, 3.0, size=194)
    states += [np.array([x, 0.0, u, 0.0]) for x, u in zip(xs, us)]
    batch = np.stack(states)
    bad = len(batch) - _agreement(op, batch)[1]
    return CheckResult(
        name="carrier-free-trichotomy",
        ok=bad == 0,
        detail=f"{len(batch)} carrier-free starts, {bad} disagreements with iteration",
    )


def _check_growth_bound(op: GonosomalOperator, rng, samples: int) -> CheckResult:
    m = min(samples, 5000)

    def draw(r, c):
        return r.uniform(0.0, 4.0, size=(c, 4))

    s = _refill(rng, draw, lambda b: b[:, 0] * b[:, 2] > 4.0, m)
    ratio = s[:, 0] * s[:, 2] / 4.0
    worst = np.inf
    for k, cur in enumerate(op.orbit(s, "raw", 5)):
        floor = 2.0 * ratio ** (2.0**k)
        worst = min(worst, float((cur[:, 0] / floor).min()))
    return CheckResult(
        name="escape-growth-bound",
        ok=worst >= 1.0 - 1e-9,
        detail=f"{m} states x 5 steps, min x_k over its floor = {worst:.6g}",
    )


def _check_classifier_mc(op: GonosomalOperator, rng, samples: int) -> CheckResult:
    per = max(1, samples // 5)

    def subcritical(r, c):
        return r.uniform(0.0, 2.0, size=(c, 4))

    def large(r, c):
        return r.uniform(0.0, 6.0, size=(c, 4))

    def is_sub(b):
        return (b[:, 0] + b[:, 1]) * (b[:, 2] + b[:, 3]) < 4.0

    def is_large(b):
        ratios = np.stack(
            [b[:, 0] * b[:, 2] / 4.0, b[:, 1] * b[:, 2] / 16.0, b[:, 1] * b[:, 3] / 9.0]
        )
        return (b.sum(axis=1) > 4.0) & (ratios.max(axis=0) > 1.0)

    blocks = [
        _refill(rng, subcritical, is_sub, per),
        _refill(rng, large, is_large, per),
        -rng.uniform(0.0, 4.0, size=(per, 4)),
    ]
    mixed = rng.uniform(0.0, 4.0, size=(per, 4))
    mixed[:, :2] *= -1.0
    blocks.append(mixed)
    blocks.append(-mixed)
    batch = np.concatenate(blocks)
    decided, agree = _agreement(op, batch)
    undecided = len(batch) - decided
    return CheckResult(
        name="limit-classifier-agreement",
        ok=agree == decided,
        detail=(
            f"{len(batch)} states: {agree}/{decided} decided verdicts agree with "
            f"iteration, undecided rate {undecided / len(batch):.1%}"
        ),
    )


def _check_estimates(rng, samples: int) -> tuple[CheckResult, CheckResult]:
    m = min(samples, 10_000)
    states = sample_simplex(rng, m)
    rep = check_estimates(states)
    first = CheckResult(
        name="estimate-bounds",
        ok=rep.ok,
        detail=(
            f"{m} simplex states, {len(rep.checks)} bounds, "
            + ("all hold" if rep.ok else f"violated: {', '.join(rep.violations)}")
        ),
    )
    contr = rep.contraction_probes
    worst = rep.contraction_worst_ratio or 0.0
    early = sum(not c.satisfied for c in contr)
    second = CheckResult(
        name="carrier-contraction",
        ok=worst <= 0.8,
        detail=(
            f"{m} states, worst probed ratio v(n+1)/y(n) = {worst:.6g}; a uniform "
            f"contraction holds (ratio <= 0.8 for n >= 2) but the sharper constant "
            f"13/24 fails at {early} of {len(contr)} early probe steps"
        ),
    )
    return first, second


def _check_correspondence(op: GonosomalOperator, rng) -> CheckResult:
    p = normalize_fixed_point(RAW_EQUILIBRIUM)
    res_p = float(np.abs(op.apply_normalized(p) - p).max())
    back = denormalize_fixed_point(p)
    res_back = float(np.abs(op.apply_raw(back) - back).max())
    exact = np.abs(back - RAW_EQUILIBRIUM).max() == 0.0
    control = sample_simplex(rng, 1)[0]
    res_control = float(np.abs(op.apply_normalized(control) - control).max())
    ok = res_p <= 1e-12 and res_back <= 1e-12 and exact and res_control > 1e-8
    return CheckResult(
        name="fixed-point-correspondence",
        ok=ok,
        detail=(
            f"normalized residual {res_p:.3g}, denormalized residual {res_back:.3g}, "
            f"round trip exact: {exact}, control residual {res_control:.3g}"
        ),
    )


def _check_raw_roots(op: GonosomalOperator, rng_seed: int) -> CheckResult:
    found = find_fixed_points(op, mode="raw", n_seeds=1000, rng_seed=rng_seed)
    ok = len(found) == 2
    detail = f"{found.n_converged}/{found.n_seeds} seeds converged, {len(found)} roots"
    if ok:
        d0 = np.abs(found[0].point).max()
        d1 = np.abs(found[1].point - RAW_EQUILIBRIUM).max()
        ok = (
            d0 <= 1e-10
            and d1 <= 1e-10
            and found[0].residual <= 1e-10
            and found[1].residual <= 1e-10
            and found[0].classification is Classification.ATTRACTING
            and found[1].classification is Classification.NON_HYPERBOLIC
            and np.abs(found[0].eigenvalues).max() <= 1e-10
            and np.abs(
                found[1].eigenvalues - np.array([-0.5, 0.0, 1.0, 2.0])
            ).max() <= 1e-8
        )
        detail += f"; distances to the known pair {d0:.2g}, {d1:.2g}"
    return CheckResult(name="raw-fixed-points", ok=bool(ok), detail=detail)


def _check_normalized_root(op: GonosomalOperator, found) -> CheckResult:
    ok = len(found) == 1
    detail = f"{found.n_converged}/{found.n_seeds} seeds converged, {len(found)} roots"
    if ok:
        r = found[0]
        dist = np.abs(r.point - EQUILIBRIUM).max()
        eig_dev = np.abs(r.eigenvalues - np.array([-0.5, 0.0, 1.0])).max()
        # the full Jacobian's spectrum, reached through no chart code
        full = eigenvalues(op.jacobian_normalized(EQUILIBRIUM))
        full_dev = np.abs(full - np.array([-0.5, 0.0, 0.0, 1.0])).max()
        ok = (
            dist <= 1e-10
            and r.residual <= 1e-10
            and eig_dev <= 1e-8
            and full_dev <= 1e-8
            and r.classification is Classification.NON_HYPERBOLIC
        )
        detail += (
            f"; distance to the equilibrium {dist:.2g}, eigenvalue deviation "
            f"{eig_dev:.2g} (reduced) / {full_dev:.2g} (full)"
        )
    return CheckResult(name="normalized-fixed-point", ok=bool(ok), detail=detail)


def _check_local_attraction(op: GonosomalOperator, found, rng) -> CheckResult:
    if len(found) != 1 or found[0].attraction is None:
        return CheckResult("local-attraction", False, f"no unique probed root ({len(found)} roots)")
    before, after = found[0].attraction
    closer = bool((after < before).all())
    d = rng.uniform(-0.3, 0.3, size=8)
    cf = np.zeros((8, 4))
    cf[:, 0] = 0.5 + d
    cf[:, 2] = 0.5 - d
    one_step = float(np.abs(op.apply_normalized(cf) - EQUILIBRIUM).max())
    return CheckResult(
        name="local-attraction",
        ok=closer and one_step == 0.0,
        detail=(
            f"{ATTRACTION_PROBES} probes at "
            f"{np.format_float_scientific(ATTRACTION_RADIUS, trim='-', exp_digits=1)} "
            f"all moved closer over {ATTRACTION_STEPS} steps: {closer} "
            f"(worst remaining {after.max():.2e}, algebraic rate); carrier-free "
            f"probes land exactly in one step: {one_step == 0.0}"
        ),
    )


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------


def run_battery(
    op: GonosomalOperator | None = None,
    samples: int = 10_000,
    rng_seed: int = 0,
) -> list[CheckResult]:
    """Run every applicable check and return the results in a fixed order.

    With no operator the built-in hemophilia model is used.  An operator
    whose pair matrix equals the hemophilia one also gets the
    model-specific checks (invariant sets, closed form, trichotomy,
    estimates, fixed-point values); any other operator gets the algebraic
    and generic-numeric checks only.
    """
    require_count("samples", samples)
    op = hemophilia_operator() if op is None else op
    builtin = is_hemophilia(op)
    rng = np.random.default_rng(rng_seed)
    results = [
        _check_tensor_rows(op),
        _check_sum_product(op, rng, samples),
        _check_sum_product_random(rng, samples),
        _check_bilinearity(op, rng, samples),
        _check_scale_invariance(op, rng, samples),
        _check_jacobian_raw(op, rng, samples),
        _check_jacobian_reduced(op, rng, samples),
    ]
    if op.tensor.is_nonnegative() and preserves_simplex(op.tensor):
        results.append(_check_simplex_preservation(op, rng, samples))
    if builtin:
        results.append(_check_invariance(op, rng_seed, samples))
        results.append(_check_closed_form(op))
        results.append(_check_trichotomy(op, rng))
        results.append(_check_growth_bound(op, rng, samples))
        results.append(_check_classifier_mc(op, rng, samples))
        results.extend(_check_estimates(rng, samples))
        results.append(_check_correspondence(op, rng))
        results.append(_check_raw_roots(op, rng_seed))
        found = find_fixed_points(op, mode="normalized", n_seeds=400, rng_seed=rng_seed)
        results.append(_check_normalized_root(op, found))
        results.append(_check_local_attraction(op, found, rng))
    return results
