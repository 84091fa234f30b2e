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
reports give the Jacobian of :func:`~gonosomal.normalized.reduced_jacobian_at`,
in the one chart, which drops the first male coordinate through the sum
constraint.  The normalized map is constant along each block's ray, so
its full Jacobian has one zero eigenvalue per block: at p = (1/2, 0, 1/2,
0) its spectrum is {-1/2, 0, 0, 1}.  The chart drops one of those two
zeros, the direction off the simplex, and keeps {-1/2, 0, 1}.  Its unit
eigenvalue is no artifact of the constraint: it is the carrier centre
direction (-2, 2, -1, 1), along which p attracts only algebraically.

A Newton iteration costs what its live seeds need: one LU solve per
Jacobian, whose step also screens out the singular ones, the full step
``base + step``, and one ``fun`` call for all halvings of the seeds it did
not improve, laid out (coordinate, seed, alpha).

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
# the largest condition number Newton's singular screen lets pass
_SINGULAR_KAPPA = 2.0**50
# Newton's trial step lengths after the full step: each halving in turn.
_HALVINGS = 0.5 ** np.arange(1, 40)

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
    is not finite), ``singular`` (a non-finite step or Jacobian, or a κ∞
    reading above 2⁵⁰), ``no_descent`` (no step halving lowered the residual)
    and ``max_steps`` (still unconverged after the iteration budget).
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


def _newton_steps(J, F, res):
    """Newton steps σ = -J⁻¹F for the (k, d, d) stack ``J``, and which
    seeds Newton drops as singular, both read from one solve.

    A seed is singular when σ is not finite, J has a non-finite entry, or
    |σ|∞·max|J| > K·|F|∞, with K = ``_SINGULAR_KAPPA`` and ``res`` the
    finite |F|∞: a NaN or inf in σ or J makes the reading NaN or inf, so one
    comparison makes all three tests.  As |σ|∞ ≤ ‖J⁻¹‖∞·|F|∞ and ‖J‖∞ ≥
    max|J|, the ratio is a lower bound on κ∞(J), unchanged when J and F
    scale together; a seed on a root (F = 0, σ = 0) passes.  K = 2⁵⁰ is
    about 1/(d·u), u = 2⁻⁵³: past it the solve's relative error, of order
    d·u·κ, leaves the step no correct digit.  numpy fails a whole stack for
    one exact zero pivot (or invalid operation, such as inf - inf), so a
    failing stack is solved again in halves, down to the failing matrices.
    """
    try:
        step = np.linalg.solve(J, -F[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(J) == 1:
            return np.full(F.shape, np.nan), np.ones(1, dtype=bool)
        h = len(J) // 2
        halves = _newton_steps(J[:h], F[:h], res[:h]), _newton_steps(J[h:], F[h:], res[h:])
        return tuple(np.concatenate(parts) for parts in zip(*halves))
    top = np.abs(J).max(axis=(1, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        fit = fold_columns(np.maximum, np.abs(step)) * (top / _SINGULAR_KAPPA) <= res
    return step, ~fit


def _newton_multistart(fun, jac, seeds, *, tol):
    """Damped Newton from every seed at once.

    Convergence requires both a small residual and a small final step, so
    a root with a singular Jacobian (where the residual alone can stay
    small over a wide neighborhood) is still pinned to root accuracy of
    order ``_STEP_TOL``.  Each iteration tries the full Newton step
    ``base + step`` of every live seed in one ``fun`` call, then every
    halving ``_HALVINGS`` of the seeds it did not improve in a second call,
    rows in (seed, alpha) order; a seed takes the longest step that lowers
    its residual.  A batched ``fun`` can round a row differently in another
    grouping, so these two calls and their row order are part of the result.
    A seed dies at once when its residual is non-finite, its linearization
    is singular (:func:`_newton_steps`), or no halving lowers its residual;
    :class:`FixedPointSearchResult` counts each reason.  Only the live seeds
    are held, in seed order, and trials are column-major, as ``orbit``'s
    iterates are, so that ``fun`` subtracts them in one layout.
    """
    x = np.array(seeds, dtype=float)
    k, d = x.shape
    F = fun(x)
    res = fold_columns(np.maximum, np.abs(F))
    ids = np.flatnonzero(np.isfinite(res))  # the live seeds
    drops = dict.fromkeys(DROP_REASONS, 0)
    drops["non_finite"] = k - ids.size
    x, F, res, last = x[ids], F[ids], res[ids], np.full(ids.size, np.inf)
    roots, done = np.empty((k, d)), np.zeros(k, dtype=bool)

    iterations = 0
    while True:
        conv = (res <= tol) & (last <= _STEP_TOL)
        if conv.any():
            done[ids[conv]] = True
            roots[ids[conv]] = x[conv]
            ids, x, F, res, last = (a[~conv] for a in (ids, x, F, res, last))
        if ids.size == 0 or iterations == _MAX_NEWTON_STEPS:
            break
        iterations += 1
        step, singular = _newton_steps(jac(x), F, res)
        if singular.any():
            drops["singular"] += int(singular.sum())
            ids, x, F, res, last, step = (a[~singular] for a in (ids, x, F, res, last, step))
        # the full step, then every halving of the seeds it left, built as a
        # C-order (coordinate, seed, alpha) array: both are column-major
        trial = np.add(x, step, order="F")
        Ft = fun(trial)
        rt = fold_columns(np.maximum, np.abs(Ft))
        ok = rt < res  # res is finite, so rt < res means rt is too
        x[ok], F[ok], res[ok] = trial[ok], Ft[ok], rt[ok]
        last[ok] = fold_columns(np.maximum, np.abs(step[ok]))
        miss = np.flatnonzero(~ok)
        if miss.size == 0:
            continue
        trials = np.empty((d, miss.size, len(_HALVINGS)))
        np.multiply(step[miss].T[..., None], _HALVINGS, out=trials)
        trials += x[miss].T[..., None]
        trial = trials.reshape(d, -1).T
        Ft = fun(trial)
        rt = fold_columns(np.maximum, np.abs(Ft))
        ok = rt.reshape(miss.size, -1) < res[miss, None]
        found = ok.any(axis=1)
        first = ok[found].argmax(axis=1)  # the first, longest, step that descends
        take = np.flatnonzero(found) * ok.shape[1] + first
        tgt = miss[found]
        x[tgt], F[tgt], res[tgt] = trial[take], Ft[take], rt[take]
        last[tgt] = fold_columns(np.maximum, np.abs(step[tgt] * _HALVINGS[first, None]))
        if not found.all():
            lost = miss[~found]
            drops["no_descent"] += int(lost.size)
            ids, x, F, res, last = (np.delete(a, lost, axis=0) for a in (ids, x, F, res, last))

    drops["max_steps"] = int(ids.size)
    return _NewtonRun(roots[done], int(done.sum()), iterations, drops)


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
            jacobian = reduced_jacobian_at(point, op)
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
