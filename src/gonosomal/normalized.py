"""Normalized gonosomal dynamics on the probability simplex.

The normalized map divides the raw image by the product of the block sums,
so states that are probability distributions stay probability distributions.
The map is undefined on the annihilated set (a block with zero total mass);
the punctured simplex excludes it.

For the built-in hemophilia model this module provides the estimate battery
around the unique simplex fixed point p = (1/2, 0, 1/2, 0), a Monte Carlo
scan of global convergence toward p, and reduced Jacobians in the one chart,
which drops the first male coordinate through the simplex constraint.

A note on rates: the reduced Jacobian at p has eigenvalues {-1/2, 0, 1}.
The unit eigenvalue lies in the carrier directions, so the approach to p is
algebraic, not geometric: for generic starts n * ||s_n - p|| (sup norm)
tends to :data:`ALGEBRAIC_RATE` = 9/4.  Carrier-free states map to p in a
single step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operator import (
    GonosomalOperator, InheritanceTensor, as_state_vector, hemophilia_operator, require_count,
    require_finite, require_positive, require_single_state,
)

__all__ = [
    "ALGEBRAIC_RATE",
    "BoundCheck",
    "ConvergenceScanReport",
    "EQUILIBRIUM",
    "EstimateReport",
    "check_estimates",
    "denormalize_fixed_point",
    "normalize_fixed_point",
    "preserves_simplex",
    "reduced_apply",
    "reduced_jacobian_at",
    "require_simplex_state",
    "sample_simplex",
    "scan_global_convergence",
]

# The unique fixed point of the normalized hemophilia dynamics.
EQUILIBRIUM = np.array([0.5, 0.0, 0.5, 0.0])
EQUILIBRIUM.flags.writeable = False

# n * (sup distance of s_n to EQUILIBRIUM) tends to 9/4 for generic starts:
# on the centre manifold the carrier fraction b = y/(x + y) steps to
# b - (2/9) b^2 + O(b^3), so b ~ 9/(2n), and the distance is about b/2.
ALGEBRAIC_RATE = 9 / 4

# Sampler guard: reject simplex draws whose female or male block holds less
# than this much mass, since the normalized map divides by the block sums.
_BOUNDARY_GUARD = 1e-9

_SLACK = 1e-12
_PROBE_TO = 20  # last step of the 13/24 carrier probes


def sample_simplex(
    rng: np.random.Generator,
    size: int,
    n: int = 2,
    nu: int = 2,
    guard: float = _BOUNDARY_GUARD,
) -> np.ndarray:
    """Uniform samples from the punctured simplex, shape (size, n + nu).

    Draws exponential spacings and normalizes, which is uniform on the
    simplex; rows whose female or male block sum falls below ``guard`` are
    redrawn.  Needs ``n, nu >= 1`` and ``0 <= guard < 1/2``, else raises
    ValueError before drawing: with an empty block or ``guard >= 1/2`` no
    row can pass, and the redraws would never end.
    """
    if n < 1 or nu < 1:
        raise ValueError(f"n and nu must be at least 1, got {n} and {nu}")
    if not 0.0 <= guard < 0.5:  # NaN fails too
        raise ValueError(f"guard must be in [0, 1/2), got {guard!r}")
    dim = n + nu
    out = np.empty((size, dim))
    need = np.ones(size, dtype=bool)
    while need.any():
        g = rng.exponential(size=(int(need.sum()), dim))
        out[need] = g / g.sum(axis=1, keepdims=True)
        need = (out[:, :n].sum(axis=1) < guard) | (out[:, n:].sum(axis=1) < guard)
    return out


def require_simplex_state(state, n: int = 2, nu: int = 2, tol: float = _SLACK) -> np.ndarray:
    """Validate membership in the punctured simplex and return the array.

    Requires finite, nonnegative coordinates summing to one (within
    ``tol``) with strictly positive mass in both blocks.  Accepts a batch
    with states along the last axis; every row must pass.
    """
    require_positive("tol", tol)
    vec = as_state_vector(state, n + nu)
    require_finite(vec)  # NaN would pass every test below
    if vec.min() < -tol:
        raise ValueError("state has a negative coordinate")
    if np.abs(vec.sum(axis=-1) - 1.0).max() > tol:
        raise ValueError("state does not sum to 1")
    if vec[..., :n].sum(axis=-1).min() <= 0 or vec[..., n:].sum(axis=-1).min() <= 0:
        raise ValueError("state lies in the annihilated set (a block has no mass)")
    return vec


def preserves_simplex(tensor: InheritanceTensor) -> bool:
    """Whether the normalized map sends the punctured simplex into itself.

    Requires a nonnegative tensor (raises otherwise, since signed
    coefficients make the question meaningless for probability states).
    Holds if and only if every coefficient row, read as a state, has
    positive mass in both offspring blocks.
    """
    if not tensor.is_nonnegative():
        raise ValueError("tensor has negative entries; nonnegativity is required")
    rows = tensor.rows()
    female = rows[:, : tensor.n].sum(axis=1)
    male = rows[:, tensor.n :].sum(axis=1)
    return bool((female > 0).all() and (male > 0).all())


def normalize_fixed_point(s_raw) -> np.ndarray:
    """Project a nonnegative raw fixed point onto the simplex by total mass.

    At a raw fixed point the total mass equals the product of block sums,
    and the projected point is a fixed point of the normalized map.
    """
    vec = require_single_state(s_raw)
    require_finite(vec)
    if vec.min() < 0:
        raise ValueError("raw fixed point has a negative coordinate")
    total = vec.sum()
    if total <= 0:
        raise ValueError("raw fixed point has zero total mass")
    return vec / total


def denormalize_fixed_point(s_simplex, op: GonosomalOperator | None = None) -> np.ndarray:
    """Rescale a simplex fixed point of ``op`` (hemophilia when None) to the
    raw fixed point on its ray.

    The inverse of :func:`normalize_fixed_point`: divide by the product of
    the block sums.  The point must pass :func:`require_simplex_state` with
    ``op``'s block lengths.
    """
    op = hemophilia_operator() if op is None else op
    vec = require_simplex_state(require_single_state(s_simplex), op.n, op.nu)
    fs, ms = op.block_sums(vec)
    return vec / (fs * ms)


# ---------------------------------------------------------------------------
# Reduced dynamics: drop the first male coordinate through sum(s) = 1
# ---------------------------------------------------------------------------


def reduced_apply(reduced, op: GonosomalOperator | None = None) -> np.ndarray:
    """Normalized map in the chart that drops coordinate ``op.n``, put back
    as one minus the rest (the image sums to one, so it drops again).
    Accepts a batch (chart points along the last axis)."""
    op = hemophilia_operator() if op is None else op
    r = as_state_vector(reduced, op.dim - 1)
    image = op.apply_normalized(np.insert(r, op.n, 1.0 - r.sum(axis=-1), axis=-1))
    return np.delete(image, op.n, axis=-1)


def reduced_jacobian_at(state, op: GonosomalOperator | None = None) -> np.ndarray:
    """Jacobian of :func:`reduced_apply` at a full simplex state, the one
    the normalized fixed-point reports print.  Chain rule through the
    embedding, whose derivative is the identity with a row of -1 inserted
    at ``op.n``.  Accepts a batch (states along the last axis)."""
    op = hemophilia_operator() if op is None else op
    full_jac = op.jacobian_normalized(as_state_vector(state, op.dim))
    d_embed = np.insert(np.eye(op.dim - 1), op.n, -1.0, axis=0)
    return np.delete(full_jac, op.n, axis=-2) @ d_embed


# ---------------------------------------------------------------------------
# Estimate battery around the equilibrium (hemophilia model)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    """One verified inequality: ``margin`` is how much slack it held with
    (smallest over the links of a chained bound); negative means violated."""

    name: str
    satisfied: bool
    margin: float


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """Outcome of :func:`check_estimates`; over a batch, each check
    aggregates (satisfied everywhere, worst margin anywhere).

    ``checks`` holds the one- and two-step lemma bounds, which ``ok`` and
    ``violations`` cover; the 13/24 carrier probes, known to fail at early
    steps, are kept apart in ``contraction_probes``.
    """

    state: np.ndarray
    checks: tuple[BoundCheck, ...]
    contraction_probes: tuple[BoundCheck, ...]
    contraction_worst_ratio: float | None

    @property
    def samples(self) -> int:
        return 1 if self.state.ndim == 1 else len(self.state)

    @property
    def ok(self) -> bool:
        return all(c.satisfied for c in self.checks)

    @property
    def violations(self) -> list[str]:
        return [c.name for c in self.checks if not c.satisfied]


def _chain(name: str, *values) -> BoundCheck:
    # values must be nondecreasing; margin is the tightest consecutive gap,
    # over the whole batch when the values are arrays
    margin = min(float(np.min(b - a)) for a, b in zip(values, values[1:]))
    return BoundCheck(name=name, satisfied=margin >= -_SLACK, margin=margin)


def check_estimates(state) -> EstimateReport:
    """Verify the one- and two-step bounds of the hemophilia simplex dynamics.

    For a state s = (x, y, u, v) in the punctured simplex, the image
    (x', y', u', v') is pinned by explicit ratio bounds (see the individual
    check names), the second iterate's female mass lies in [5/12, 1/2], and
    the carrier coordinate is probed for the contraction
    v(n+1) <= (13/24) y(n) at steps n = 2..20, each to a slack of 1e-12.

    The contraction constant 13/24 is exceeded by generic states at early
    probe steps (measured worst ratio is about 0.70 at n = 2, falling below
    13/24 only from n of order 10); the corresponding checks report this
    honestly rather than assuming the constant.  The exact witness
    (0, 1/2, 0, 1/2) reaches s(2) = (1/8, 7/24, 7/24, 7/24), where the ratio
    v(3)/y(2) is 7/10.  The probes are reported in ``contraction_probes``,
    apart from the lemma bounds in ``checks``; ``contraction_worst_ratio``
    carries the largest probed ratio.

    Accepts a batch (states along the last axis); each check then
    aggregates over the whole batch.
    """
    op = hemophilia_operator()
    s = require_simplex_state(state)
    x, y, u, v = (s[..., i] for i in range(4))
    fs, ms = x + y, u + v
    # s(1) to s(_PROBE_TO + 1); each iterate lives until two steps later
    orbit = op.orbit(s, "normalized", _PROBE_TO + 1)
    s1, s2 = next(orbit), next(orbit)
    x1, y1, u1, v1 = (s1[..., i] for i in range(4))

    checks = [
        _chain("image x in [u/(4(u+v)), u/(2(u+v))] cap 1/2",
               u / (4 * ms), x1, u / (2 * ms), 0.5),
        _chain("image y in [v/(3(u+v)), (u+2v)/(4(u+v))] cap 1/2",
               v / (3 * ms), y1, (u + 2 * v) / (4 * ms), 0.5),
        _chain("image u in [(2x+y)/(4(x+y)), (3x+2y)/(6(x+y))] within [1/4, 1/2]",
               0.25, (2 * x + y) / (4 * fs), u1, (3 * x + 2 * y) / (6 * fs), 0.5),
        _chain("image v in [y/(4(x+y)), y/(3(x+y))] cap 1/3",
               y / (4 * fs), v1, y / (3 * fs), 1.0 / 3.0),
        _chain("image female mass in [1/3 + u/(6(u+v)), 1/2]",
               1.0 / 3.0 + u / (6 * ms), x1 + y1, 0.5),
        _chain("image male mass in [1/2, 1/2 + yv/(6(x+y)(u+v))] cap 2/3",
               0.5, u1 + v1, 0.5 + y * v / (6 * fs * ms), 2.0 / 3.0),
        _chain("image ordering v' <= y' <= u'", v1, y1, u1),
        _chain("image ordering x' <= u'", x1, u1),
        _chain("second iterate female mass in [5/12, 1/2]",
               5.0 / 12.0, s2[..., 0] + s2[..., 1], 0.5),
    ]

    probes = []
    worst_ratio = None
    cur = s2
    for n, nxt in enumerate(orbit, start=2):
        probes.append(_chain(f"carrier contraction v({n + 1}) <= 13/24 y({n})",
                             nxt[..., 3], (13.0 / 24.0) * cur[..., 1]))
        mask = cur[..., 1] > _SLACK
        if np.any(mask):
            ratio = float(np.max(nxt[..., 3][mask] / cur[..., 1][mask]))
            worst_ratio = ratio if worst_ratio is None else max(worst_ratio, ratio)
        cur = nxt

    return EstimateReport(
        state=s,
        checks=tuple(checks),
        contraction_probes=tuple(probes),
        contraction_worst_ratio=worst_ratio,
    )


# ---------------------------------------------------------------------------
# Monte Carlo convergence scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConvergenceScanReport:
    """Outcome of :func:`scan_global_convergence`.

    ``steps[i]`` is the first step at which sample i came within ``tol`` of
    the equilibrium (-1 when it never did within the budget); ``failures``
    lists the starting states of the non-converged samples verbatim, as
    candidate counterexamples to global convergence at this tolerance and
    budget.
    """

    samples: int
    converged: int
    max_steps_observed: int
    worst_final_distance: float
    failures: np.ndarray
    steps: np.ndarray
    tol: float
    budget: int
    rng_seed: int

    @property
    def budget_exhausted(self) -> int:
        return self.samples - self.converged


def _distance_to_equilibrium(states) -> np.ndarray:
    # sup distance of each row to EQUILIBRIUM: a running maximum over the
    # columns |c_j - p_j|, with no broadcast over the four-wide state axis
    dist = np.abs(states[:, 0] - EQUILIBRIUM[0])
    for j in range(1, len(EQUILIBRIUM)):
        np.maximum(dist, np.abs(states[:, j] - EQUILIBRIUM[j]), out=dist)
    return dist


def scan_global_convergence(
    samples: int = 10_000,
    rng_seed: int = 42,
    tol: float = 1e-8,
    budget: int = 500,
) -> ConvergenceScanReport:
    """Iterate the normalized hemophilia map from uniform simplex samples.

    Each sample is run up to ``budget`` steps and marked converged the first
    time its sup-norm distance to the equilibrium drops to ``tol``.  Because
    the approach to the equilibrium is algebraic (distance about
    ``ALGEBRAIC_RATE / n`` for generic starts), tight tolerances need budgets
    of order 1/tol;
    non-converged starts are reported, not hidden.

    The sup distance is at least the carrier column's ``|y - p_y|``, formed
    by the same float operations, so each step tests that one column first
    and computes the full distance only for the unconverged rows it passes;
    ``worst_final_distance`` takes the full distance of the last iterate.
    Since ``p_y`` is 0, ``|y - p_y|`` is ``|y|``: a step whose carrier
    column is above ``tol`` in every row, one minimum reduction, leaves no
    row near and skips even that mask, as every step does at the defaults
    with seeds 0, 1, 42, 73411 and 90017.
    The steps come out as the full test on every row would give them.
    """
    require_count("samples", samples)
    require_count("budget", budget)
    require_positive("tol", tol)
    op = hemophilia_operator()
    rng = np.random.default_rng(rng_seed)
    starts = sample_simplex(rng, samples)
    steps = np.full(samples, -1, dtype=int)
    steps[_distance_to_equilibrium(starts) <= tol] = 0
    pending = steps < 0
    left = int(pending.sum())
    for k, current in enumerate(op.orbit(starts, "normalized", budget), start=1):
        # EQUILIBRIUM[1] is 0.0, so |y - p_y| is |y|: when every carrier
        # coordinate is above tol, no row is near and the mask is skipped
        if not np.minimum.reduce(current[:, 1]) > tol:
            near = np.flatnonzero(pending & (np.abs(current[:, 1] - EQUILIBRIUM[1]) <= tol))
            if near.size:
                hit = near[_distance_to_equilibrium(current[near]) <= tol]
                steps[hit] = k
                pending[hit] = False
                left -= hit.size
        if left == 0:
            break
    converged = samples - left
    observed = int(steps.max()) if converged else 0
    return ConvergenceScanReport(
        samples=samples,
        converged=converged,
        max_steps_observed=observed,
        worst_final_distance=float(_distance_to_equilibrium(current).max()),
        failures=starts[steps < 0].copy(),
        steps=steps,
        tol=tol,
        budget=budget,
        rng_seed=rng_seed,
    )
