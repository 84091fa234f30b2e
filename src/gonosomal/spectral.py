"""Fixed points of gonosomal dynamics and their linear stability.

Fixed points are located by damped Newton iteration from many random
seeds, run as one batched computation; a seed whose linearization is
singular is dropped, never perturbed.  Raw mode solves W(s) = s on the
ambient space; normalized mode solves for the map restricted to the
simplex, in the :func:`~gonosomal.normalized.embed_reduced` chart that
eliminates one coordinate through the sum constraint (which removes the
trivial unit eigenvalue the constraint would otherwise contribute).

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

from .operator import GonosomalOperator, can_normalize, hemophilia_operator
from .normalized import embed_reduced, reduced_jacobian_at, sample_simplex

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
# Near a root with a unit Jacobian eigenvalue the chart residual scales like
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
    ``jacobian`` and ``eigenvalues`` describe the reduced chart, so the
    spectrum is free of the sum-constraint artifact.  ``attraction`` holds the
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


def _newton_multistart(fun, jac, seeds, *, tol):
    """Damped Newton from every seed at once.

    Convergence requires both a small residual and a small final step, so
    a root with a singular Jacobian (where the residual alone can stay
    small over a wide neighborhood) is still pinned to root accuracy of
    order ``_STEP_TOL``.  Each iteration tries the full Newton step of every
    active seed in one ``fun`` call, then every halving ``_ALPHAS[1:]`` of the
    seeds it did not improve in a second call; a seed takes the longest step
    that lowers its residual.  A seed dies at once when its residual is
    non-finite, its linearization is singular or non-finite, or no halving
    lowers its residual; the drop counts keep these reasons apart
    (see :class:`FixedPointSearchResult`).
    """
    pts = np.array(seeds, dtype=float)
    k, d = pts.shape
    F = fun(pts)
    res = np.abs(F).max(axis=1)
    res = np.where(np.isfinite(res), res, np.inf)
    last_step = np.full(k, np.inf)
    done = np.zeros(k, dtype=bool)
    dead = np.isinf(res)
    drops = dict.fromkeys(DROP_REASONS, 0)
    drops["non_finite"] = int(dead.sum())

    def accept(tgt, trial, Ft, rt, alpha_step):
        pts[tgt] = trial
        F[tgt] = Ft
        res[tgt] = rt
        last_step[tgt] = np.abs(alpha_step).max(axis=1)

    iterations = 0
    while True:
        done |= ~dead & (res <= tol) & (last_step <= _STEP_TOL)
        active = np.flatnonzero(~done & ~dead)
        if active.size == 0 or iterations == _MAX_NEWTON_STEPS:
            break
        iterations += 1
        J = jac(pts[active])
        scale = np.maximum(np.abs(J).max(axis=(1, 2)), 1.0) ** d
        with np.errstate(over="ignore", invalid="ignore"):
            bad = ~np.isfinite(J).all(axis=(1, 2))
            det = np.where(bad, 0.0, np.linalg.det(np.where(np.isfinite(J), J, 0.0)))
            singular = bad | (np.abs(det) < _SINGULAR_DET * scale)
        dead[active[singular]] = True
        drops["singular"] += int(singular.sum())
        active, J = active[~singular], J[~singular]
        if active.size == 0:
            continue

        step = np.linalg.solve(J, -F[active][..., None])[..., 0]
        trial = pts[active] + step
        Ft = fun(trial)
        rt = np.abs(Ft).max(axis=1)
        ok = np.isfinite(rt) & (rt < res[active])
        accept(active[ok], trial[ok], Ft[ok], rt[ok], step[ok])
        if ok.all():
            continue

        # every halving of every seed the full step did not improve, at once
        idx, step = active[~ok], step[~ok]
        scaled = _ALPHAS[1:, None] * step[:, None, :]
        trial = pts[idx][:, None, :] + scaled
        Ft = fun(trial.reshape(-1, d)).reshape(trial.shape)
        rt = np.abs(Ft).max(axis=2)
        ok = np.isfinite(rt) & (rt < res[idx][:, None])
        found = ok.any(axis=1)
        rows = np.flatnonzero(found)
        take = rows, ok[rows].argmax(axis=1)  # the first, longest, halving that descends
        accept(idx[rows], trial[take], Ft[take], rt[take], scaled[take])
        dead[idx[~found]] = True
        drops["no_descent"] += int((~found).sum())

    drops["max_steps"] = int((~done & ~dead).sum())
    return _NewtonRun(pts[done], int(done.sum()), iterations, drops)


def _deduplicate(points, residuals):
    # best residual first; a point within the radius of a kept one is its twin
    order = np.argsort(residuals)
    kept: list[int] = []
    for i in order:
        if all(np.abs(points[i] - points[j]).max() > _DEDUP_RADIUS for j in kept):
            kept.append(i)
    reps = points[kept]
    if len(reps) > 1:
        reps = reps[np.lexsort(reps.T[::-1])]
    return reps


def attraction_probe(op, point, rng):
    """Sup distances to ``point`` of the simplex probes, before and after
    the normalized steps (``ATTRACTION_*``).

    Convex blends toward uniform simplex draws, scaled to a common sup-norm
    radius, stay on the simplex.  At the hemophilia equilibrium the carrier
    block of the linearization has sup norm 3/2, so the horizon must outlast
    transient growth plus an algebraic (about 2.25/n) tail.
    """
    z = sample_simplex(rng, ATTRACTION_PROBES, op.n, op.nu)
    offset = z - point
    scale = ATTRACTION_RADIUS / np.abs(offset).max(axis=1, keepdims=True)
    probes = point + np.minimum(scale, 1.0) * offset
    before = np.abs(probes - point).max(axis=1)
    cur = probes
    for _ in range(ATTRACTION_STEPS):
        cur = op.apply_normalized(cur)
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

    Raw mode seeds uniformly in ``seed_box`` per coordinate and solves
    W(s) = s.  Normalized mode seeds on the punctured simplex, solves in
    the chart without the first male coordinate (``seed_box`` is unused),
    and reports the reduced Jacobian; a non-hyperbolic normalized root
    additionally carries an empirical attraction probe in ``attraction``.

    Roots within 1e-6 (sup norm) collapse to the member with the smallest
    residual; reports come back lexicographically sorted.
    """
    op = hemophilia_operator() if op is None else op
    if mode not in ("raw", "normalized"):
        raise ValueError(f"mode must be 'raw' or 'normalized', got {mode!r}")
    if n_seeds < 1:
        raise ValueError("n_seeds must be at least 1")
    rng = np.random.default_rng(rng_seed)
    dim = op.dim

    if mode == "raw":
        lo, hi = seed_box
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"invalid seed box {seed_box!r}")
        seeds = rng.uniform(lo, hi, size=(n_seeds, dim))
        identity = np.eye(dim)

        def fun(s):
            return op.apply_raw(s) - s

        def jac(s):
            return op.jacobian_raw(s) - identity
    else:
        eliminate = op.n
        seeds = np.delete(sample_simplex(rng, n_seeds, op.n, op.nu), eliminate, axis=-1)
        identity = np.eye(dim - 1)

        # Newton paths may leave the simplex; evaluate the chart map without
        # the annihilation guard (division blowups surface as non-finite
        # residuals and kill the seed) and refuse a Jacobian off the domain.
        def fun(r):
            full = embed_reduced(r, eliminate, dim)
            fs, ms = op.block_sums(full)
            raw = op.apply_raw(full)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                img = raw / (fs * ms)[..., None]
            return np.delete(img, eliminate, axis=-1) - r

        def jac(r):
            full = embed_reduced(r, eliminate, dim)
            ok = can_normalize(*op.block_sums(full))
            out = np.full(r.shape + (dim - 1,), np.inf)
            if ok.any():
                out[ok] = reduced_jacobian_at(full[ok], eliminate, op) - identity
            return out

    run = _newton_multistart(fun, jac, seeds, tol=tol)
    roots = run.points

    if len(roots):
        residuals = np.abs(fun(roots)).max(axis=1)
        roots = _deduplicate(roots, residuals)

    reports = []
    for root in roots:
        if mode == "raw":
            point = root
            residual = float(np.abs(op.apply_raw(point) - point).max())
            jacobian = op.jacobian_raw(point)
        else:
            point = embed_reduced(root, eliminate, dim)
            residual = float(np.abs(op.apply_normalized(point) - point).max())
            jacobian = reduced_jacobian_at(point, eliminate, op)
        eigs = eigenvalues(jacobian)
        label = classify(eigs)
        probed = mode == "normalized" and label is Classification.NON_HYPERBOLIC
        attraction = attraction_probe(op, point, rng) if probed else None
        reports.append(
            FixedPointReport(
                point=point,
                residual=residual,
                jacobian=jacobian,
                eigenvalues=eigs,
                classification=label,
                mode=mode,
                attraction=attraction,
            )
        )
    return FixedPointSearchResult(
        reports, n_seeds, run.n_converged, iterations=run.iterations, drops=run.drops
    )


def format_float(value: float) -> str:
    """The one float format of every report: ``.17g``, exact round trip."""
    return f"{float(value):.17g}"


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def format_report(report: FixedPointReport) -> str:
    """Flat key=value stanza for one fixed point, stable across runs."""
    lines = [
        f"mode={report.mode}",
        "point=" + ",".join(format_float(c) for c in report.point),
        f"residual={format_float(report.residual)}",
        "jacobian=" + ";".join(
            ",".join(format_float(c) for c in row) for row in report.jacobian
        ),
        "eigenvalues=" + ";".join(_fmt_complex(z) for z in report.eigenvalues),
        f"classification={report.classification.value}",
    ]
    if report.note is not None:
        lines.append(f"note={report.note}")
    return "\n".join(lines)
