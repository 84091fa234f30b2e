"""Fixed points of gonosomal dynamics and their linear stability.

Fixed points are located by damped Newton iteration from many random
seeds, run as one batched computation; a seed whose linearization is
singular is dropped, never perturbed.  Both modes solve the one system
W(s) = s on the ambient space.  Since W(a·s) = a²·W(s), a simplex point p
is fixed by the normalized map exactly when p / (fs·ms) is a raw root, and
a raw root s with positive total mass gives p = s / Σs back.  So normalized
mode seeds Newton at p / (fs·ms) from simplex draws p and maps each root s
back to s / Σs.  A nonnegative raw root other than the origin has
fs + ms = fs·ms, so its total mass is at least 4; roots of mass below 2,
the origin among them, are dropped before the division.  The normalized
reports describe the :func:`~gonosomal.normalized.reduced_jacobian_at`
chart that eliminates the first male coordinate through the sum
constraint.  The normalized map is constant along each block's ray, so
its full Jacobian has one zero eigenvalue per block: at p = (1/2, 0, 1/2,
0) its spectrum is {-1/2, 0, 0, 1}.  The chart drops one of those two
zeros, the direction off the simplex, and keeps {-1/2, 0, 1}.  Its unit
eigenvalue is no artifact of the constraint: it is the carrier centre
direction (-2, 2, -1, 1), along which p attracts only algebraically.

A Newton iteration costs what its live seeds need: the full step is
``base + step``, and the seeds it did not improve try all their halvings
in one ``fun`` call, laid out (seed, alpha, coordinate).  The singular
screen takes the largest entry of each matrix with numpy's maximum over
both matrix axes.

Stability is read off the spectrum of the Jacobian at the root: strictly
inside the unit circle is attracting, strictly outside repelling, mixed is
a saddle, and anything on the circle (within tolerance) is flagged
non-hyperbolic, where the linearization alone decides nothing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .operator import (
    GonosomalOperator, fold_columns, format_float, format_state, hemophilia_operator, require_count,
    require_mode, require_positive,
)
from .normalized import reduced_jacobian_at, sample_simplex

__all__ = [
    "DROP_REASONS",
    "Classification",
    "FixedPointReport",
    "FixedPointSearchResult",
    "attraction_probe",
    "classify",
    "eigenvalues",
    "find_fixed_points",
    "format_float",
    "format_report",
]

# Moduli within this distance of 1 make a linearization non-hyperbolic.
UNIT_CIRCLE_TOL = 1e-8

# The empirical attraction probe of a non-hyperbolic simplex root.
ATTRACTION_PROBES = 32
ATTRACTION_RADIUS = 1e-3
ATTRACTION_STEPS = 5000

_MAX_EIG_DIM = 32
_MAX_NEWTON_STEPS = 200
_DEDUP_RADIUS = 1e-6
# A raw root whose simplex point has a coordinate below -_SIMPLEX_SLACK is
# off the simplex, and is not reported as a normalized root.
_SIMPLEX_SLACK = 1e-9
# Near a root with a unit Jacobian eigenvalue the residual scales like
# the squared distance, so the residual test alone would accept points 1e-5
# away; the step test pins the root itself.  Newton halves the step in the
# singular direction, hence this is also (twice) the point accuracy.
_STEP_TOL = 1e-12
_SINGULAR_DET = 1e-14
_MAX_HALVINGS = 40
# Newton's trial step lengths: the full step, then each halving in turn.
_ALPHAS = 0.5 ** np.arange(_MAX_HALVINGS)

# Why a Newton seed was dropped; see FixedPointSearchResult.
DROP_REASONS = ("non_finite", "singular", "no_descent", "max_steps")


class Classification(enum.Enum):
    ATTRACTING = "Attracting"
    REPELLING = "Repelling"
    SADDLE = "Saddle"
    NON_HYPERBOLIC = "NonHyperbolic"


def eigenvalues(matrix) -> np.ndarray:
    """Spectrum of a square matrix, sorted by real then imaginary part."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] > _MAX_EIG_DIM:
        raise ValueError(
            f"matrix side {m.shape[0]} exceeds the supported maximum {_MAX_EIG_DIM}"
        )
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return np.sort_complex(np.linalg.eigvals(m))


def classify(eigs) -> Classification:
    """Stability class from Jacobian eigenvalues at a fixed point; moduli
    within ``UNIT_CIRCLE_TOL`` of 1 are non-hyperbolic."""
    moduli = np.abs(np.asarray(eigs, dtype=complex))
    if moduli.size == 0:
        raise ValueError("empty spectrum")
    if (np.abs(moduli - 1.0) <= UNIT_CIRCLE_TOL).any():
        return Classification.NON_HYPERBOLIC
    if (moduli < 1.0).all():
        return Classification.ATTRACTING
    if (moduli > 1.0).all():
        return Classification.REPELLING
    return Classification.SADDLE


@dataclass(frozen=True, eq=False)
class FixedPointReport:
    """One located fixed point with its linearization.

    In normalized mode ``point`` is the full simplex state while
    ``jacobian`` and ``eigenvalues`` describe the reduced chart, which
    drops the zero eigenvalue of the direction off the simplex and keeps
    every other one, the unit one included.  ``attraction`` holds the
    :func:`attraction_probe` distances of a non-hyperbolic normalized root.
    """

    point: np.ndarray
    residual: float
    jacobian: np.ndarray
    eigenvalues: np.ndarray
    classification: Classification
    mode: str = "raw"
    attraction: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def note(self) -> str | None:
        if self.attraction is None:
            return None
        before, after = self.attraction
        return (
            f"unit-modulus eigenvalue: linearization is inconclusive; "
            f"{int((after < before).sum())} of {ATTRACTION_PROBES} simplex probes at distance "
            f"{ATTRACTION_RADIUS:g} moved closer over {ATTRACTION_STEPS} steps "
            f"(worst remaining distance {after.max():.3g})"
        )


class FixedPointSearchResult(list):
    """Deduplicated fixed-point reports plus multistart bookkeeping.

    ``iterations`` counts the Newton steps the batch took.  ``drops`` maps
    each reason of ``DROP_REASONS`` to the number of seeds that died of it,
    so its counts sum to ``n_dropped``: ``non_finite`` (the starting residual
    is not finite), ``singular`` (a singular or non-finite linearization),
    ``no_descent`` (no step halving lowered the residual) and ``max_steps``
    (still unconverged after the iteration budget).
    """

    def __init__(self, reports, n_seeds: int, n_converged: int, *, iterations: int, drops):
        super().__init__(reports)
        self.n_seeds = int(n_seeds)
        self.n_converged = int(n_converged)
        self.iterations = int(iterations)
        self.drops = {reason: int(drops[reason]) for reason in DROP_REASONS}

    @property
    def n_dropped(self) -> int:
        return self.n_seeds - self.n_converged


class _NewtonRun(NamedTuple):
    points: np.ndarray
    n_converged: int
    iterations: int
    drops: dict[str, int]


def _singular(J) -> np.ndarray:
    """Which matrices of the (k, d, d) stack ``J`` Newton drops as singular:
    those with a non-finite entry, and those whose determinant is below
    ``_SINGULAR_DET`` times ``max(1, max|entry|) ** d``.

    The largest ``|entry|`` of each matrix is ``|J|``'s maximum over both
    matrix axes.  NaN and inf both survive it, so it also flags the
    non-finite matrices, and the copy of ``J`` with their entries zeroed for
    the determinant is made only when there is one.
    """
    d = J.shape[-1]
    top = np.abs(J).max(axis=(1, 2))
    bad = ~np.isfinite(top)
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.linalg.det(np.where(np.isfinite(J), J, 0.0) if bad.any() else J)
        return bad | (np.abs(det) < _SINGULAR_DET * np.maximum(top, 1.0) ** d)


def _newton_multistart(fun, jac, seeds, *, tol):
    """Damped Newton from every seed at once.

    Convergence requires both a small residual and a small final step, so
    a root with a singular Jacobian (where the residual alone can stay
    small over a wide neighborhood) is still pinned to root accuracy of
    order ``_STEP_TOL``.  Each iteration tries the full Newton step
    ``base + step`` of every active seed in one ``fun`` call, then every
    halving ``_ALPHAS[1:]`` of the seeds it did not improve in a second call,
    rows in (seed, alpha) order; a seed takes the longest step that lowers
    its residual.  A batched ``fun`` can round a row differently in another
    grouping, so these two calls and their row order are part of the result.
    A seed dies at once when its residual is non-finite, its linearization
    is singular or non-finite, or no halving lowers its residual; the drop
    counts keep these reasons apart (see :class:`FixedPointSearchResult`).
    """
    pts = np.array(seeds, dtype=float)
    k, d = pts.shape
    F = fun(pts)
    res = fold_columns(np.maximum, np.abs(F))
    res = np.where(np.isfinite(res), res, np.inf)
    last_step = np.full(k, np.inf)
    done = np.zeros(k, dtype=bool)
    dead = np.isinf(res)
    drops = dict.fromkeys(DROP_REASONS, 0)
    drops["non_finite"] = int(dead.sum())
    halvings = np.repeat(_ALPHAS[1:, None], d, axis=1)  # (alpha, coordinate)

    iterations = 0
    while True:
        done |= ~dead & (res <= tol) & (last_step <= _STEP_TOL)
        active = np.flatnonzero(~done & ~dead)
        if active.size == 0 or iterations == _MAX_NEWTON_STEPS:
            break
        iterations += 1
        J = jac(pts[active])
        singular = _singular(J)
        if singular.any():
            dead[active[singular]] = True
            drops["singular"] += int(singular.sum())
            active, J = active[~singular], J[~singular]
        step = np.linalg.solve(J, -F[active][..., None])[..., 0]
        # the full step (alpha = 1 scales exactly), then every halving of the
        # seeds it left: their step and base repeated once per halving
        idx, base, scaled = active, pts[active], step[:, None]
        trial = (base + step)[:, None]
        while idx.size:
            Ft = fun(trial.reshape(-1, d)).reshape(trial.shape)
            rt = fold_columns(np.maximum, np.abs(Ft))
            ok = rt < res[idx][:, None]  # res is finite, so rt < res means rt is too
            found = ok.any(axis=1)
            rows = np.flatnonzero(found)
            take = rows, ok[rows].argmax(axis=1)  # the first, longest, step that descends
            tgt = idx[rows]
            pts[tgt], F[tgt], res[tgt] = trial[take], Ft[take], rt[take]
            last_step[tgt] = fold_columns(np.maximum, np.abs(scaled[take]))
            idx = idx[~found]
            if scaled.shape[1] > 1 or idx.size == 0:
                break
            scaled = step[~found, None].repeat(len(halvings), axis=1)
            scaled *= halvings
            trial = base[~found, None].repeat(len(halvings), axis=1)
            trial += scaled
        dead[idx] = True
        drops["no_descent"] += int(idx.size)

    drops["max_steps"] = int((~done & ~dead).sum())
    return _NewtonRun(pts[done], int(done.sum()), iterations, drops)


def _deduplicate(points, residuals):
    # best residual first; each kept point drops its twins (within the radius)
    order = np.argsort(residuals)
    kept: list[int] = []
    while order.size:
        kept.append(order[0])
        far = fold_columns(np.maximum, np.abs(points[order] - points[order[0]])) > _DEDUP_RADIUS
        order = order[far]
    reps = points[kept]
    return reps[np.lexsort(reps.T[::-1])]


def attraction_probe(op, point, rng):
    """Sup distances to ``point`` of the simplex probes, before and after
    the normalized steps (``ATTRACTION_*``).

    Convex blends toward uniform simplex draws, scaled to a common sup-norm
    radius, stay on the simplex.  At the hemophilia equilibrium the carrier
    block of the linearization has sup norm 3/2, so the horizon must outlast
    transient growth plus an algebraic tail (about ``ALGEBRAIC_RATE / n``
    at the hemophilia equilibrium).
    """
    z = sample_simplex(rng, ATTRACTION_PROBES, op.n, op.nu)
    offset = z - point
    scale = ATTRACTION_RADIUS / np.abs(offset).max(axis=1, keepdims=True)
    probes = point + np.minimum(scale, 1.0) * offset
    before = np.abs(probes - point).max(axis=1)
    for cur in op.orbit(probes, "normalized", ATTRACTION_STEPS):
        pass
    return before, np.abs(cur - point).max(axis=1)


def find_fixed_points(
    op: GonosomalOperator | None = None,
    mode: str = "raw",
    n_seeds: int = 1000,
    seed_box: tuple[float, float] = (-5.0, 5.0),
    rng_seed: int = 0,
    tol: float = 1e-10,
) -> FixedPointSearchResult:
    """Multistart Newton search for fixed points, with stability reports.

    Both modes solve W(s) = s with one residual and one Jacobian; the mode
    picks the seeds, the map of roots to reports and the report's chart.
    Raw mode seeds uniformly in ``seed_box`` per coordinate.  Normalized
    mode (``seed_box`` is unused) draws p on the punctured simplex and
    seeds at p / (fs·ms), the raw root on p's ray when p is fixed.  A raw
    root s of total mass at least 2 is reported as p = s / Σs (every
    nonnegative raw root but the origin has mass at least 4), with the
    reduced Jacobian in the chart without the first male coordinate; a
    non-hyperbolic normalized root additionally carries an empirical
    attraction probe in ``attraction``.

    Raw roots within 1e-6 (sup norm) collapse to the member with the
    smallest residual; reports come back lexicographically sorted.  Raw
    roots of lower mass, and those whose p has a coordinate below -1e-9,
    are not normalized fixed points and are not reported, though
    ``n_converged`` still counts the seeds that reached them, the origin
    included.
    """
    op = hemophilia_operator() if op is None else op
    require_mode(mode)
    require_count("n_seeds", n_seeds)
    require_positive("tol", tol)
    rng = np.random.default_rng(rng_seed)
    dim = op.dim

    if mode == "raw":
        lo, hi = seed_box
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"invalid seed box {seed_box!r}")
        seeds = rng.uniform(lo, hi, size=(n_seeds, dim))
    else:
        # the raw root on each simplex seed's ray: p / (fs * ms)
        seeds = sample_simplex(rng, n_seeds, op.n, op.nu)
        fs, ms = op.block_sums(seeds)
        seeds /= (fs * ms)[:, np.newaxis]
    identity = np.eye(dim)

    def fun(s):
        return op.apply_raw(s) - s

    def jac(s):
        return op.jacobian_raw(s) - identity

    run = _newton_multistart(fun, jac, seeds, tol=tol)
    roots = run.points

    if len(roots):
        roots = _deduplicate(roots, np.abs(fun(roots)).max(axis=1))

    if mode == "normalized":
        # the origin has mass 0 and any other nonnegative root at least 4
        roots = roots[roots.sum(axis=1) >= 2.0]
        roots /= roots.sum(axis=1, keepdims=True)
        roots = roots[(roots >= -_SIMPLEX_SLACK).all(axis=1)]
        roots = roots[np.lexsort(roots.T[::-1])]
    # each root maps on its own: on some tensors a batch product rounds
    # differently from the one-state product, and residuals print in full
    reports = []
    for point in roots:
        if mode == "raw":
            residual = float(np.abs(op.apply_raw(point) - point).max())
            jacobian = op.jacobian_raw(point)
        else:
            residual = float(np.abs(op.apply_normalized(point) - point).max())
            jacobian = reduced_jacobian_at(point, op.n, op)
        eigs = eigenvalues(jacobian)
        label = classify(eigs)
        probed = mode == "normalized" and label is Classification.NON_HYPERBOLIC
        attraction = attraction_probe(op, point, rng) if probed else None
        reports.append(FixedPointReport(point, residual, jacobian, eigs, label, mode, attraction))
    return FixedPointSearchResult(
        reports, n_seeds, run.n_converged, iterations=run.iterations, drops=run.drops
    )


def _fmt_complex(z: complex) -> str:
    imag = format_float(z.imag)
    return f"{format_float(z.real)}{'' if imag[0] == '-' else '+'}{imag}j"


def format_report(report: FixedPointReport) -> str:
    """Flat key=value stanza for one fixed point, stable across runs."""
    lines = [
        f"mode={report.mode}",
        f"point={format_state(report.point)}",
        f"residual={format_float(report.residual)}",
        "jacobian=" + ";".join(map(format_state, report.jacobian)),
        "eigenvalues=" + ";".join(_fmt_complex(z) for z in report.eigenvalues),
        f"classification={report.classification.value}",
    ]
    if report.note is not None:
        lines.append(f"note={report.note}")
    return "\n".join(lines)
