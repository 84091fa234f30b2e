"""Invariant sets of the hemophilia operator and limit classification.

The raw hemophilia dynamics on (x, y, u, v) (healthy/carrier females,
healthy/carrier males) preserves a family of structured sets: the
annihilated states collapse to the origin in one step, the carrier-free
plane y = v = 0 and its balanced diagonal x = u are invariant, the
nonnegative orthant is invariant, a coordinate-sum cap of a contracts to
a²/4, and the sign-pattern sets (all coordinates nonpositive, or one block
nonpositive and the other nonnegative) feed into the nonnegative orthant
after one or two steps.  :func:`membership` tests one finite state against
them and :func:`verify_invariance` rechecks every clause on random states.

:func:`classify_limit` decides the trajectory limit from one series.  Let
s be nonnegative with block sums fs, ms > 0, T the normalized map and
t_k = T^k(s).  The raw map is homogeneous of degree two and its image has
total mass fs·ms, so the orbit is s_n = c_n·t_n with c_1 = fs·ms and
c_(n+1) = c_n²·g(t_n), where g = fs·ms of t_n.  With d_n = log(c_n / 4)
this reads d_(n+1) = 2·d_n + log(4·g(t_n)), hence d_n = 2^(n-1)·Λ_n with

    Λ_n = log(fs·ms / 4) + Σ_(k=1)^(n-1) 2^-k·log(4·g(t_k)).

If Λ = lim Λ_n is negative then c_n -> 0 and the orbit goes to the origin
(Zero); if it is positive then c_n -> ∞ (Infinity); if it is zero then
c_n -> 4 and, as t_n -> (1/2, 0, 1/2, 0), the orbit goes to (2, 0, 2, 0)
(Equilibrium).  Every t_k with k >= 1 is in the image of the simplex, where
the female mass fs is in [1/3, 1/2] (the lemma of
:func:`~gonosomal.normalized.check_estimates`).  So 4·g = 4·fs·(1 - fs) is
in [8/9, 1] and every term is in [-log(9/8), 0]: a partial sum after K
terms is an upper bound on Λ, and exceeds it by at most 2^-K·log(9/8).
Since Λ(W(s)) = 2·Λ(s), a signed state that some raw step makes
nonnegative has the verdict of that image.  W is bilinear in the two
blocks, W(εx, δy) = εδ·W(x, y) for signs ε and δ, so a start whose two
blocks each have one sign has the orbit of |s| from its second step on,
and the verdict of |s|.  A signed state needs no series once it is
small: every coordinate of W is bilinear in the two blocks with
nonnegative coefficients, so |W(s)|∞ <= (19/12)·|s|∞², and a state with
|s|∞ < 12/19 goes to the origin.  W maps (x, 0, u, 0) to
(a, 0, a, 0) with a = x·u/2, then a -> a²/2: a carrier-free start has the
sign of |x·u| - 4, which decides it exactly where the float sum cannot.

Both paths of the classifier replace such a start by |s| (zeros count for
either sign), and only the first takes a raw step.  :func:`classify_limit`
is the single-state path: it steps on Python floats with the thread's
``stepper`` of the hemophilia operator (buffers allocated once, bit for
bit ``apply_raw``), asked for at its first step, and reports the sum, the
forward steps and the terms.  It carries a bound on the rounding error of
its forward steps, so that its sup-norm Zero holds for the true orbit; the
band of the series is not such a bound.
:func:`classify_limits` is the batch path: it gives the same kind for each
row of a batch, deciding only on the first partial sum log(fs·ms/4) of
|s|.  Its products and logarithms may round differently in the last bits,
so it hands to :func:`classify_limit` every row it cannot decide with a
margin: a row with a sign change inside a block, which needs forward
steps, or a first partial sum that is not a quarter band clear of both
band edges.  Equilibrium needs a sum inside the band, so only
:func:`classify_limit` claims it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .operator import (
    GonosomalOperator, fold_columns, hemophilia_operator, is_hemophilia, require_batch,
    require_count, require_finite, require_single_state, require_steps,
)

__all__ = [
    "InvarianceReport",
    "LimitKind",
    "LimitVerdict",
    "RAW_EQUILIBRIUM",
    "SetCheck",
    "SetMembership",
    "classify_limit",
    "classify_limits",
    "closed_form_diagonal",
    "membership",
    "verify_invariance",
]

# Tolerance of the set tests, and slack of the sampled sum-cap clause.
MEMBERSHIP_TOL = 1e-12

# The nonzero raw fixed point, the limit of every Equilibrium verdict.
RAW_EQUILIBRIUM = np.array([2.0, 0.0, 2.0, 0.0])
RAW_EQUILIBRIUM.flags.writeable = False


@dataclass(frozen=True, eq=False)
class SetMembership:
    """Which structured sets a state belongs to, at ``MEMBERSHIP_TOL``.

    ``q_level`` is the coordinate sum when the state is nonnegative (the
    smallest sum cap containing it), else None.
    """

    state: np.ndarray
    annihilated: bool
    carrier_free: bool
    balanced: bool
    nonnegative: bool
    nonpositive: bool
    female_nonpositive: bool
    male_nonpositive: bool
    q_level: float | None

    @property
    def subcritical(self) -> bool:
        """Nonnegative with block-sum product below 4: the origin's basin."""
        x, y, u, v = self.state.tolist()
        return self.nonnegative and (x + y) * (u + v) < 4.0


def membership(state) -> SetMembership:
    """Test a single 4-coordinate state against every structured set.

    Raises ValueError on a non-finite coordinate, which no set test can
    place.
    """
    s = require_single_state(state, 4)
    x, y, u, v = c = s.tolist()
    require_finite(c)
    tol = MEMBERSHIP_TOL
    female_zero = max(abs(x), abs(y)) <= tol
    male_zero = max(abs(u), abs(v)) <= tol
    nonneg = min(c) >= -tol
    nonpos = max(c) <= tol
    carrier_free = abs(y) <= tol and abs(v) <= tol
    return SetMembership(
        state=s,
        annihilated=female_zero or male_zero,
        carrier_free=carrier_free,
        balanced=carrier_free and abs(x - u) <= tol,
        nonnegative=nonneg,
        nonpositive=nonpos,
        female_nonpositive=max(x, y) <= tol and min(u, v) >= -tol,
        male_nonpositive=max(u, v) <= tol and min(x, y) >= -tol,
        q_level=float(s.sum()) if nonneg else None,
    )


def closed_form_diagonal(x0: float, k: int) -> float:
    """First coordinate after k steps from the balanced state (x0, 0, x0, 0).

    The diagonal recursion x -> x²/2 solves to 2 (x0/2)^(2^k), computed by
    repeated squaring that stops once the power reaches 0, 1 or infinity
    (at most 64 squarings for a finite start), so huge k yields a clean 0,
    2, or infinity.
    """
    require_steps(k)
    if k == 0:
        return float(x0)
    p = float(x0) / 2.0
    for _ in range(k):
        p *= p
        if p in (0.0, 1.0, math.inf) or math.isnan(p):
            break
    return 2.0 * p


class LimitKind(enum.Enum):
    ZERO = "Zero"
    EQUILIBRIUM = "Equilibrium"
    INFINITY = "Infinity"
    UNDECIDED = "Undecided"


@dataclass(frozen=True, eq=False)
class LimitVerdict:
    """Outcome of :func:`classify_limit`.

    ``escape_sum`` is the last partial sum of the escape series of |s|
    for a start whose two blocks each have one sign, else of the state
    reached by the forward steps: -inf when an exact zero block sends
    it to the origin, None when no series was summed: a Zero proved by the
    sup-norm bound on a state still signed, or an Undecided still signed
    after the forward cap.
    ``forward_steps`` counts the raw steps taken to make the state
    nonnegative (none for such a start), and ``terms`` the series terms
    summed after log(fs·ms/4).
    ``kind`` is Equilibrium only for a carrier-free start with |x·u| = 4.
    """

    kind: LimitKind
    escape_sum: float | None = None
    forward_steps: int = 0
    terms: int = 0


# Raw steps a signed state may take to become nonnegative, and series terms
# summed before the verdict is left Undecided.
_MAX_FORWARD = 64
_MAX_TERMS = 64
# The sup-norm rule for signed states.  Every coordinate of W is bilinear in
# the two blocks with nonnegative coefficients, so |W(s)|∞ <= C·|s|∞², with C
# the largest row sum: u' = xu/2 + xv/2 + yu/4 + yv/3 gives C = 19/12.  C
# bounds W with the exact 1/3 and with its stored double, which is below it.
# A state with |s|∞ < 1/C has C·|s_k|∞ <= (C·|s|∞)^(2^k): it goes to 0.
_SUP_GROWTH = Fraction(19, 12)
_GROWTH = float(_SUP_GROWTH)
_LOG_ZERO_RADIUS = -math.log(_SUP_GROWTH)
# Error terms of one forward step, in units of the scale e^L (u = 2^-53):
# a step rounds each image coordinate by at most γ·W(|w|) <= γ·C, with
# γ = 8u covering the pair products, the four-term dot product, underflow
# and the stored 1/3; the division by the sup norm 2u; and log(top) and
# 2L + log(top) together 4u·(|log(top)| + |L|) in the exponent.  Each
# computed bound is then rounded up by a factor 1 + 2^-30, and the verdict
# keeps 1e-14·(1 + |L|) off log(12/19) for its own rounding.  These also
# cover ``_GROWTH``, which is 19/12 rounded down by 4.7e-17 relative.
_STEP_ERROR = 8.0 * 2.0**-53 * _GROWTH
_DIV_ERROR = 2.0 * 2.0**-53
_LOG_ERROR = 4.0 * 2.0**-53
_ROUND_UP = 1.0 + 2.0**-30
_RULE_SLACK = 1e-14
# On the image of the simplex the female mass is in [1/3, 1/2], so every
# term log(4 g) lies in [-log(9/8), 0].
_LOG_9_8 = math.log(9.0 / 8.0)
_LOG4 = math.log(4.0)


def classify_limit(state) -> LimitVerdict:
    """Decide the trajectory limit of the raw hemophilia dynamics from the
    sign of its escape series Λ (see the module docstring).

    Every step, forward or in the series, goes through the thread's
    ``stepper`` of the hemophilia operator (``apply_raw`` on Python floats,
    with its buffers allocated once), asked for at the first step, so a
    start decided with no step asks for none.  A start whose two blocks
    each have one sign (zeros count for either) is replaced by |s|, which
    has its verdict since W(εx, δy) = εδ·W(x, y).  Any other state with a
    negative coordinate is first stepped until it is nonnegative, for at
    most ``_MAX_FORWARD`` steps.
    The state is kept as w·e^L with sup norm |w| = 1 (L -> 2L + log|W(w)|
    per step), so huge starts and images never overflow.  A state with an
    exactly zero block maps to the origin: Zero, with sum -inf.  A state
    still signed carries a bound r on |s - w·e^L|∞ / e^L for the true orbit
    s: each step adds C·r·(2 + r) with C = 19/12 for the carried error, the
    rounding of the step, of the division by the sup norm and of the two
    logarithms (see ``_STEP_ERROR``).  Once L + log1p(r) is below
    log(12/19), with room for the rounding of that test, |s|∞ < 12/19 and
    the orbit goes to the origin: Zero with sum None and no terms.  C bounds
    W both with the exact 1/3 and with its stored double, so this Zero
    holds for both operators.  On a nonnegative state the partial sums of
    Λ decide Zero once below -band and Infinity once above
    2^-K·log(9/8) + band, where the band 1e-12·(1 + 2|L|) bounds the
    rounding of a sum that starts from 2L.
    A carrier-free start (x, 0, u, 0) whose sum is within the band takes
    Equilibrium, Zero or Infinity from the exact sign (0, -, +) of
    |x·u| - 4, in ``Fraction``s of the input floats (such a start is |s|
    by then).  Anything else still inside the band after ``_MAX_TERMS``
    terms, such as a state that is carrier-free only after forward steps,
    comes back Undecided.
    A state with a non-finite coordinate raises ValueError.
    """
    x, y, u, v = c = require_single_state(state, 4).tolist()
    require_finite(c)
    if not (min(x, y) < 0.0 < max(x, y) or min(u, v) < 0.0 < max(u, v)):
        x, y, u, v = c = [abs(x), abs(y), abs(u), abs(v)]
    step = None  # built at the first step: many starts are decided with none
    log_scale = err = 0.0
    for steps in range(_MAX_FORWARD + 1):
        if steps:
            step = step or hemophilia_operator().stepper()
            x, y, u, v = step([x, y, u, v])
        top = max(abs(x), abs(y), abs(u), abs(v)) or 1.0
        x, y, u, v = x / top, y / top, u / top, v / top
        log_top = math.log(top)
        log_scale = 2.0 * log_scale + log_top
        if not (x or y) or not (u or v):
            return LimitVerdict(LimitKind.ZERO, -math.inf, steps)
        if min(x, y, u, v) >= 0.0:
            break
        # the true state is e^L·(w + e) with |e|∞ <= err: carry the last
        # error through W (none at the exact start), then rescale
        carried = (_GROWTH * err * (2.0 + err) + _STEP_ERROR) * _ROUND_UP if steps else 0.0
        slip = _LOG_ERROR * (abs(log_top) + abs(log_scale))
        grow = 2.0 * slip if slip <= 1.0 else math.inf  # e^slip - 1 <= 2·slip up to 1
        err = (grow + (1.0 + grow) * (_DIV_ERROR + carried / top)) * _ROUND_UP
        if log_scale < _LOG_ZERO_RADIUS and (
            log_scale + math.log1p(err) < _LOG_ZERO_RADIUS - _RULE_SLACK * (1.0 + abs(log_scale))
        ):
            return LimitVerdict(LimitKind.ZERO, None, steps)
    else:
        return LimitVerdict(LimitKind.UNDECIDED, None, _MAX_FORWARD)

    fs, ms = x + y, u + v
    total = 2.0 * log_scale + math.log(fs) + math.log(ms) - _LOG4
    band = 1e-12 * (1.0 + 2.0 * abs(log_scale))
    if c[1] == 0.0 and c[3] == 0.0 and abs(total) <= band:
        gap = Fraction(c[0]) * Fraction(c[2]) - 4
        kind = LimitKind.ZERO if gap < 0 else LimitKind.INFINITY if gap else LimitKind.EQUILIBRIUM
        return LimitVerdict(kind, total, steps)
    weight, terms = 1.0, 0
    while -band <= total <= weight * _LOG_9_8 + band:
        if terms == _MAX_TERMS:
            return LimitVerdict(LimitKind.UNDECIDED, total, steps, terms)
        # the normalized map T(s) = W(x/fs, y/ms): no product of block sums to underflow
        step = step or hemophilia_operator().stepper()
        x, y, u, v = step([x / fs, y / fs, u / ms, v / ms])
        fs, ms = x + y, u + v
        weight *= 0.5
        total += weight * math.log(4.0 * fs * ms)
        terms += 1
    kind = LimitKind.ZERO if total < 0.0 else LimitKind.INFINITY
    return LimitVerdict(kind, total, steps, terms)


# A batch verdict needs its first partial sum a quarter band off each edge.
# The batch and single-state first partial sums differed by at most 0.03%
# of the band on the 34,382 rows of the test batches that both sum.
_EDGE_MARGIN = 0.25


def classify_limits(states) -> np.ndarray:
    """The :func:`classify_limit` kind of each row of a (k, 4) batch, as an
    object array of :class:`LimitKind` members.

    The batch takes no raw step.  Each row is scaled to sup norm 1, and a
    row with an exactly zero block goes to the origin: Zero.  A row whose
    two blocks each have one sign (zeros count for either) has the verdict
    of |s|, as in :func:`classify_limit`, and is decided on the first
    partial sum log(fs·ms/4) of |s| alone: Zero below -band - margin,
    Infinity above log(9/8) + band + margin, with the margin
    ``_EDGE_MARGIN``·band for the last bits in which its products and
    logarithms may round differently from the single-state ones.  Every
    other row goes to :func:`classify_limit`: a row between those edges,
    Equilibrium candidates included, and a row with a sign change inside a
    block, which needs forward steps.
    A non-finite coordinate raises ValueError, and anything but a (k, 4)
    array DimensionMismatchError.
    """
    s = require_batch(states, 4)
    require_finite(s)
    kinds = np.full(len(s), LimitKind.UNDECIDED, dtype=object)
    sign = np.sign(s)
    # a sign change inside a block: classify_limit takes the forward steps
    hard = (sign[:, 0] * sign[:, 1] < 0.0) | (sign[:, 2] * sign[:, 3] < 0.0)
    w = np.abs(s)
    top = fold_columns(np.maximum, w)
    top[top == 0.0] = 1.0
    w /= top[:, None]
    fs, ms = w[:, 0] + w[:, 1], w[:, 2] + w[:, 3]
    zero = (fs == 0.0) | (ms == 0.0)
    kinds[zero] = LimitKind.ZERO
    hard &= ~zero

    # one decision on the first partial sum log(fs·ms/4) of |s|; classify_limit sums the terms
    rows = np.flatnonzero(~zero & ~hard)
    scale = np.log(top[rows])
    total = 2.0 * scale + np.log(fs[rows]) + np.log(ms[rows]) - _LOG4
    band = 1e-12 * (1.0 + 2.0 * np.abs(scale))
    margin = _EDGE_MARGIN * band
    below, above = total < -band - margin, total > _LOG_9_8 + band + margin
    kinds[rows[below]], kinds[rows[above]] = LimitKind.ZERO, LimitKind.INFINITY
    hard[rows[~(below | above)]] = True
    for i in np.flatnonzero(hard):
        kinds[i] = classify_limit(s[i]).kind
    return kinds


# ---------------------------------------------------------------------------
# Sampling battery for the invariance clauses
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SetCheck:
    """One invariance clause checked on ``samples`` random states."""

    name: str
    samples: int
    failures: int
    counterexample: np.ndarray | None

    @property
    def ok(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True, eq=False)
class InvarianceReport:
    checks: tuple[SetCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> int:
        return sum(c.failures for c in self.checks)


def _check(name, states, bad_mask) -> SetCheck:
    bad = np.flatnonzero(bad_mask)
    return SetCheck(
        name=name,
        samples=len(states),
        failures=int(bad.size),
        counterexample=states[bad[0]].copy() if bad.size else None,
    )


def verify_invariance(
    op: GonosomalOperator | None = None,
    samples: int = 10_000,
    rng_seed: int = 0,
) -> InvarianceReport:
    """Recheck every invariance clause on random states, batched.

    The clauses are results on the hemophilia model, so ``op`` must have
    exactly its coefficients (:func:`~gonosomal.operator.is_hemophilia`);
    any other operator, a 2+2 one included, raises ValueError.
    Exact-zero clauses (annihilation, carrier-free, balance, sign
    propagation) are asserted exactly: the images are sums of products each
    carrying a zero or signed factor, so floating point preserves them.
    The sum-cap contraction is checked with slack ``MEMBERSHIP_TOL``.
    Fewer than one sample raises ValueError: a clause checked on no states
    would pass vacuously.
    """
    require_count("samples", samples)
    op = hemophilia_operator() if op is None else op
    if not is_hemophilia(op):
        raise ValueError("the invariance battery needs the hemophilia coefficients")
    rng = np.random.default_rng(rng_seed)
    checks = []

    def u(lo, hi):
        return rng.uniform(lo, hi, size=(samples, 4))

    def check(name, s, bad):
        # ``bad`` maps the images of the states ``s`` to the failing rows
        checks.append(_check(name, s, bad(op.apply_raw(s))))

    s = u(-5.0, 5.0)
    half = samples // 2
    s[:half, :2] = 0.0
    s[half:, 2:] = 0.0
    check("annihilated maps to the origin exactly", s,
          lambda img: fold_columns(np.maximum, np.abs(img)) > 0.0)

    s = u(-5.0, 5.0)
    s[:, 1] = 0.0
    s[:, 3] = 0.0
    check("carrier-free plane is invariant", s, lambda img: (img[:, 1] != 0.0) | (img[:, 3] != 0.0))

    s[:, 2] = s[:, 0]
    check(
        "balanced diagonal is invariant", s,
        lambda img: (img[:, 1] != 0.0) | (img[:, 3] != 0.0) | (img[:, 0] != img[:, 2]),
    )

    check("nonnegative orthant is invariant", u(0.0, 5.0),
          lambda img: fold_columns(np.minimum, img) < 0.0)

    for a in (1.0, 2.0, 3.0, 4.0):
        # Dirichlet over 5 parts, dropping the slack part, is uniform on
        # the solid simplex {nonnegative, sum <= a}
        s = a * rng.dirichlet(np.ones(5), size=samples)[:, :4]
        check(f"sum cap {a:g} contracts to {a * a / 4:g}", s,
              lambda img: fold_columns(np.add, img) > a * a / 4.0 + MEMBERSHIP_TOL)

    check("nonpositive maps into nonnegative", u(-5.0, 0.0),
          lambda img: fold_columns(np.minimum, img) < 0.0)

    s = u(-5.0, 5.0)
    s[:, :2] = -np.abs(s[:, :2])
    s[:, 2:] = np.abs(s[:, 2:])
    check("female-nonpositive maps into nonpositive", s,
          lambda img: fold_columns(np.maximum, img) > 0.0)
    check("male-nonpositive maps into nonpositive", -s,
          lambda img: fold_columns(np.maximum, img) > 0.0)

    return InvarianceReport(checks=tuple(checks))
