"""Invariant sets of the hemophilia operator and limit classification.

The raw hemophilia dynamics on (x, y, u, v) (healthy/carrier females,
healthy/carrier males) preserves a family of structured sets: the
annihilated states collapse to the origin in one step, the carrier-free
plane y = v = 0 and its balanced diagonal x = u are invariant, the
nonnegative orthant is invariant, a coordinate-sum cap of a contracts to
a²/4, and the sign-pattern sets (all coordinates nonpositive, or one block
nonpositive and the other nonnegative) feed into the nonnegative orthant
after one or two steps.

Those facts drive :func:`classify_limit`, which decides the trajectory
limit from the starting state alone wherever the set structure determines
it, and says so when it does not.  :func:`verify_invariance` is the
matching sampling battery that rechecks every invariance clause on random
states.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .operator import GonosomalOperator, as_state_vector, hemophilia_operator

__all__ = [
    "InvarianceReport",
    "LimitKind",
    "LimitVerdict",
    "RAW_EQUILIBRIUM",
    "SetCheck",
    "SetMembership",
    "classify_limit",
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

    @property
    def escape_ratios(self) -> dict[str, float]:
        x, y, u, v = self.state.tolist()
        return {"xu/4": x * u / 4.0, "yu/16": y * u / 16.0, "yv/9": y * v / 9.0}

    @property
    def escaping(self) -> bool:
        """Nonnegative, coordinate sum above 4, and some escape ratio above 1."""
        q = self.q_level
        return q is not None and q > 4.0 and max(self.escape_ratios.values()) > 1.0


def membership(state) -> SetMembership:
    """Test a single 4-coordinate state against every structured set.

    Raises ValueError on a non-finite coordinate, which no set test can
    place.
    """
    s = as_state_vector(state, 4)
    if s.ndim != 1:
        raise ValueError("expected a single state")
    x, y, u, v = c = s.tolist()
    if not all(map(math.isfinite, c)):
        raise ValueError(f"state has a non-finite coordinate: {c}")
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
    if k < 0:
        raise ValueError("step count must be nonnegative")
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

    ``rule`` names the clause that decided (None when undecided);
    ``witness_step`` is the probe step that settled a boundary case;
    ``witness_ratio`` is the escape certificate (name, value) for a
    divergence verdict; ``forwarded`` is the iterate actually classified
    when a sign-pattern clause first pushed the state forward.
    """

    kind: LimitKind
    rule: str | None = None
    witness_step: int | None = None
    witness_ratio: tuple[str, float] | None = None
    forwarded: np.ndarray | None = None


def _carrier_free_verdict(s) -> LimitVerdict:
    """The product trichotomy of the carrier-free plane, for either sign."""
    q = abs(s[0] * s[2])
    if abs(q - 4.0) <= MEMBERSHIP_TOL:
        return LimitVerdict(kind=LimitKind.EQUILIBRIUM, rule="carrier-free |xu| = 4")
    if q < 4.0:
        return LimitVerdict(kind=LimitKind.ZERO, rule="carrier-free |xu| < 4")
    return LimitVerdict(kind=LimitKind.INFINITY, rule="carrier-free |xu| > 4")


def _classify_nonnegative(s, m, op, probe_budget) -> LimitVerdict | None:
    """Clauses for states already known nonnegative (or annihilated)."""
    if m.annihilated:
        return LimitVerdict(kind=LimitKind.ZERO, rule="annihilated")
    if m.subcritical:
        return LimitVerdict(kind=LimitKind.ZERO, rule="subcritical")
    if m.carrier_free:
        return _carrier_free_verdict(s)
    if m.escaping:
        name, value = max(m.escape_ratios.items(), key=lambda kv: kv[1])
        return LimitVerdict(
            kind=LimitKind.INFINITY, rule="escaping", witness_ratio=(name, value)
        )
    if m.q_level is not None and m.q_level <= 4.0 + MEMBERSHIP_TOL:
        # Sum at most 4 but not subcritical forces block sums (2, 2) with
        # carriers present; probe until mixing pulls the product below 4.
        t = s
        for k in range(1, probe_budget + 1):
            t = op.apply_raw(t)
            mt = membership(t)
            if mt.subcritical or mt.annihilated:
                return LimitVerdict(
                    kind=LimitKind.ZERO, rule="boundary-mixing", witness_step=k
                )
            if mt.carrier_free and max(abs(t[0] - 2.0), abs(t[2] - 2.0)) <= MEMBERSHIP_TOL:
                return LimitVerdict(
                    kind=LimitKind.EQUILIBRIUM,
                    rule="boundary-equilibrium",
                    witness_step=k,
                )
        return LimitVerdict(kind=LimitKind.UNDECIDED, rule="boundary-probe-exhausted")
    return None


def classify_limit(state, probe_budget: int = 100) -> LimitVerdict:
    """Decide the trajectory limit of the raw hemophilia dynamics, if the
    invariant-set structure determines it from the start alone.

    Nonnegative states are decided by the basin clauses directly; states
    with a nonpositive sign pattern are advanced the one or two steps that
    provably land them in the nonnegative orthant and classified there.
    States outside every characterized region come back Undecided rather
    than guessed.  A state with a non-finite coordinate raises ValueError.
    """
    op = hemophilia_operator()
    m = membership(state)
    s = m.state

    if m.annihilated:
        return LimitVerdict(kind=LimitKind.ZERO, rule="annihilated")
    if m.nonnegative:
        verdict = _classify_nonnegative(s, m, op, probe_budget)
        if verdict is not None:
            return verdict
        return LimitVerdict(kind=LimitKind.UNDECIDED)
    if m.carrier_free:
        # signed carrier-free states obey the same product trichotomy
        return _carrier_free_verdict(s)

    label = None
    if m.nonpositive:
        label, steps = "nonpositive", 1
    elif m.female_nonpositive:
        label, steps = "female-nonpositive", 2
    elif m.male_nonpositive:
        label, steps = "male-nonpositive", 2
    if label is not None:
        t = s
        for _ in range(steps):
            t = op.apply_raw(t)
        # a finite state of huge magnitude can overflow on the way
        mt = membership(t) if np.isfinite(t).all() else None
        if mt is None or not mt.nonnegative:
            return LimitVerdict(kind=LimitKind.UNDECIDED, rule=f"{label}-forwarding-failed")
        inner = _classify_nonnegative(t, mt, op, probe_budget)
        if inner is None or inner.kind is LimitKind.UNDECIDED:
            return LimitVerdict(
                kind=LimitKind.UNDECIDED, rule=f"{label}->undecided", forwarded=t
            )
        return LimitVerdict(
            kind=inner.kind,
            rule=f"{label}->{inner.rule}",
            witness_step=inner.witness_step,
            witness_ratio=inner.witness_ratio,
            forwarded=t,
        )
    return LimitVerdict(kind=LimitKind.UNDECIDED)


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

    Exact-zero clauses (annihilation, carrier-free, balance, sign
    propagation) are asserted exactly: the images are sums of products each
    carrying a zero or signed factor, so floating point preserves them.
    The sum-cap contraction is checked with slack ``MEMBERSHIP_TOL``.
    """
    op = hemophilia_operator() if op is None else op
    if op.dim != 4 or op.n != 2:
        raise ValueError("the invariance battery is specific to the two-type model")
    rng = np.random.default_rng(rng_seed)
    checks = []

    def u(lo, hi, cols=4, size=samples):
        return rng.uniform(lo, hi, size=(size, cols))

    s = u(-5.0, 5.0)
    half = samples // 2
    s[:half, :2] = 0.0
    s[half:, 2:] = 0.0
    img = op.apply_raw(s)
    checks.append(_check("annihilated maps to the origin exactly", s, np.abs(img).max(axis=1) > 0.0))

    s = u(-5.0, 5.0)
    s[:, 1] = 0.0
    s[:, 3] = 0.0
    img = op.apply_raw(s)
    checks.append(
        _check("carrier-free plane is invariant", s, (img[:, 1] != 0.0) | (img[:, 3] != 0.0))
    )

    s[:, 2] = s[:, 0]
    img = op.apply_raw(s)
    checks.append(
        _check(
            "balanced diagonal is invariant",
            s,
            (img[:, 1] != 0.0) | (img[:, 3] != 0.0) | (img[:, 0] != img[:, 2]),
        )
    )

    s = u(0.0, 5.0)
    img = op.apply_raw(s)
    checks.append(_check("nonnegative orthant is invariant", s, img.min(axis=1) < 0.0))

    for a in (1.0, 2.0, 3.0, 4.0):
        # Dirichlet over 5 parts, dropping the slack part, is uniform on
        # the solid simplex {nonnegative, sum <= a}
        s = a * rng.dirichlet(np.ones(5), size=samples)[:, :4]
        img = op.apply_raw(s)
        checks.append(
            _check(
                f"sum cap {a:g} contracts to {a * a / 4:g}",
                s,
                img.sum(axis=1) > a * a / 4.0 + MEMBERSHIP_TOL,
            )
        )

    s = u(-5.0, 0.0)
    img = op.apply_raw(s)
    checks.append(_check("nonpositive maps into nonnegative", s, img.min(axis=1) < 0.0))

    s = u(-5.0, 5.0)
    s[:, :2] = -np.abs(s[:, :2])
    s[:, 2:] = np.abs(s[:, 2:])
    img = op.apply_raw(s)
    checks.append(_check("female-nonpositive maps into nonpositive", s, img.max(axis=1) > 0.0))

    s = -s
    img = op.apply_raw(s)
    checks.append(_check("male-nonpositive maps into nonpositive", s, img.max(axis=1) > 0.0))

    return InvarianceReport(checks=tuple(checks))
