"""Invariant set membership, the diagonal closed form, limit
classification, and the sampling battery."""

import importlib.util
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gonosomal.invariant_sets import (
    MEMBERSHIP_TOL,
    RAW_EQUILIBRIUM,
    LimitKind,
    classify_limit,
    classify_limits,
    closed_form_diagonal,
    membership,
    verify_invariance,
)
from gonosomal import invariant_sets, verify
from gonosomal.operator import (
    DimensionMismatchError, GonosomalOperator, StopReason, hemophilia_operator, hemophilia_tensor,
)
from gonosomal.spectral import DROP_REASONS, FixedPointSearchResult
from gonosomal.verify import empirical_limits, random_tensor

OP = hemophilia_operator()

nonneg_coord = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_membership_flags():
    m = membership([1.0, 0.0, 2.0, 0.0])
    assert m.carrier_free and not m.balanced
    assert m.nonnegative and not m.nonpositive
    assert not m.annihilated
    assert m.q_level == 3.0

    assert membership([1.5, 0.0, 1.5, 0.0]).balanced
    assert membership([0.0, 0.0, 1.0, 2.0]).annihilated
    assert membership([-1.0, -2.0, -3.0, 0.0]).nonpositive
    assert membership([-1.0, -2.0, 3.0, 4.0]).female_nonpositive
    assert membership([1.0, 2.0, -3.0, -4.0]).male_nonpositive
    assert membership([-1.0, 2.0, 3.0, -4.0]).q_level is None


def test_membership_tolerance():
    assert membership([1.0, 1e-13, 1.0, 0.0]).carrier_free
    assert not membership([1.0, 1e-11, 1.0, 0.0]).carrier_free
    assert membership([-1e-13, 0.5, 0.5, 0.5]).nonnegative


def test_subcritical_membership():
    assert membership([0.5, 0.5, 0.5, 0.5]).subcritical
    assert not membership([1.0, 1.0, 1.0, 1.0]).subcritical  # product exactly 4
    assert not membership([-0.1, 0.0, 0.1, 0.0]).subcritical  # not nonnegative
    assert not membership([6.0, 0.1, 6.0, 0.1]).subcritical


def test_membership_rejects_batches_and_wrong_arity():
    with pytest.raises(ValueError):
        membership(np.zeros((3, 4)))
    with pytest.raises(Exception):
        membership([1.0, 2.0])


def _reference_membership(state, tol=MEMBERSHIP_TOL):
    """The set tests on numpy scalars that ``membership`` must reproduce."""
    s = np.asarray(state, dtype=float)
    x, y, u, v = s
    nonneg = s.min() >= -tol
    carrier_free = abs(y) <= tol and abs(v) <= tol
    return dict(
        annihilated=max(abs(x), abs(y)) <= tol or max(abs(u), abs(v)) <= tol,
        carrier_free=carrier_free,
        balanced=carrier_free and abs(x - u) <= tol,
        nonnegative=nonneg,
        nonpositive=s.max() <= tol,
        female_nonpositive=max(x, y) <= tol and min(u, v) >= -tol,
        male_nonpositive=max(u, v) <= tol and min(x, y) >= -tol,
        subcritical=nonneg and (x + y) * (u + v) < 4.0,
    ), float(s.sum()) if nonneg else None


_TOL = MEMBERSHIP_TOL
# zeros of both signs, the tolerance itself and its neighbours one ulp away
_EDGE = [0.0, -0.0] + [
    sign * t for sign in (1.0, -1.0) for t in (_TOL, _TOL * (1 + 2**-52), _TOL * (1 - 2**-52))
]
edge_or_uniform = st.one_of(st.sampled_from(_EDGE), st.floats(-5.0, 5.0))


@settings(deadline=None, max_examples=500)
@given(st.tuples(*[edge_or_uniform] * 4))
# the coordinate sum depends on the order of the additions here
@example((1.0, 2.0**-53, 2.0**-53, 0.0))
@example((2.0**-53, 2.0**-53, 1.0, 0.0))
def test_membership_matches_numpy_scalar_reference(state):
    m = membership(state)
    flags, q_level = _reference_membership(state)
    assert m.state.tobytes() == np.asarray(state, dtype=float).tobytes()
    for name, expected in flags.items():
        got = getattr(m, name)
        assert type(got) is bool and got == bool(expected), name
    if q_level is None:
        assert m.q_level is None
    else:
        assert m.q_level.hex() == q_level.hex() == float(m.state.sum()).hex()


@pytest.mark.parametrize(
    "state",
    [[np.nan, 0.0, 1.0, 0.0], [np.inf, 0.0, 0.0, 0.0], [1.0, 0.0, -np.inf, 0.0]],
)
def test_non_finite_states_are_rejected_not_classified(state):
    # nan once came back Infinity ("carrier-free |xu| > 4") and inf Zero
    # ("annihilated"); neither verdict is backed by a rule
    with pytest.raises(ValueError, match="non-finite"):
        membership(state)
    with pytest.raises(ValueError, match="non-finite"):
        classify_limit(state)


def test_huge_start_is_prescaled_not_overflowed():
    # its first image overflows in plain floats; scaled by its sup norm, it
    # is one step from the nonnegative image of (-1, 2, 1, 1) at scale 1e400
    start = [-1e200, 2e200, 1e200, 1e200]
    v = classify_limit(start)
    assert v.kind is LimitKind.INFINITY
    assert v.forward_steps == 1 and v.terms == 0
    image = OP.apply_raw([-1.0, 2.0, 1.0, 1.0])
    assert image.min() >= 0.0
    first = np.log(image[:2].sum() * image[2:].sum() / 4.0)
    assert v.escape_sum == pytest.approx(4.0 * np.log(1e200) + first, rel=1e-12)
    assert OP.iterate(start).stop_reason is StopReason.DIVERGED
    # a huge start whose blocks each have one sign is summed as |s|, with no step
    v = classify_limit([-1e200, -1e200, -1e200, -1e200])
    assert (v.kind, v.forward_steps, v.terms) == (LimitKind.INFINITY, 0, 0)
    assert v.escape_sum == pytest.approx(2.0 * np.log(1e200), rel=1e-12)


# ---------------------------------------------------------------------------
# diagonal closed form
# ---------------------------------------------------------------------------


def test_closed_form_matches_direct_iteration():
    for x0 in (-2.5, -1.0, -0.5, 0.5, 1.5, 2.5):
        direct = np.array([x0, 0.0, x0, 0.0])
        for k in range(0, 10):
            value = closed_form_diagonal(x0, k)
            assert value == pytest.approx(direct[0], rel=1e-10, abs=1e-300)
            direct = OP.apply_raw(direct)


def test_closed_form_boundary_and_extremes():
    assert closed_form_diagonal(2.0, 0) == 2.0
    assert closed_form_diagonal(-2.0, 0) == -2.0
    assert closed_form_diagonal(-2.0, 1) == 2.0
    assert closed_form_diagonal(2.0, 5000) == 2.0
    assert closed_form_diagonal(-2.0, 5000) == 2.0
    assert closed_form_diagonal(0.0, 3) == 0.0
    assert closed_form_diagonal(1.0, 5000) == 0.0
    assert closed_form_diagonal(3.0, 200) == np.inf
    assert closed_form_diagonal(-3.0, 200) == np.inf
    assert closed_form_diagonal(2.0, 10**18) == 2.0
    assert closed_form_diagonal(1.0, 10**18) == 0.0
    assert closed_form_diagonal(-3.0, 10**18) == np.inf
    with pytest.raises(ValueError):
        closed_form_diagonal(1.0, -1)


# ---------------------------------------------------------------------------
# limit classification
# ---------------------------------------------------------------------------


def test_trichotomy_on_the_carrier_free_plane():
    cases = {
        (1.0, 1.0): LimitKind.ZERO,
        (3.99, 1.0): LimitKind.ZERO,
        (4.0, 1.0): LimitKind.EQUILIBRIUM,
        (4.01, 1.0): LimitKind.INFINITY,
        (3.0, 3.0): LimitKind.INFINITY,
        (-4.0, 1.0): LimitKind.EQUILIBRIUM,
        (-1.0, -3.0): LimitKind.ZERO,
    }
    for (x0, u0), expected in cases.items():
        verdict = classify_limit([x0, 0.0, u0, 0.0])
        assert verdict.kind is expected, (x0, u0)


def test_annihilated_and_subcritical_rules():
    # an exactly zero block maps to the origin: the sum is log 0
    v = classify_limit([0.0, 0.0, 3.0, 3.0])
    assert v.kind is LimitKind.ZERO and v.escape_sum == -np.inf
    assert classify_limit([0.0, 0.0, -3.0, 3.0]).escape_sum == -np.inf
    # block-sum product below 4: the first partial sum is already negative
    v = classify_limit([0.5, 0.5, 0.5, 0.5])
    assert v.kind is LimitKind.ZERO
    assert v.escape_sum == pytest.approx(np.log(1.0 / 4.0)) and v.terms == 0
    # a block within the set tolerance of zero is not annihilated: the
    # other block is huge, and the orbit escapes
    start = [1e-13, 0.0, 1e20, 0.0]
    assert classify_limit(start).kind is LimitKind.INFINITY
    assert OP.iterate(start).stop_reason is StopReason.DIVERGED


def test_block_sum_product_four_is_zero_from_the_series():
    # log(fs·ms/4) = 0, and the first term is negative since carriers are present
    v = classify_limit([1.0, 1.0, 1.0, 1.0])
    assert v.kind is LimitKind.ZERO
    assert v.forward_steps == 0 and v.terms == 1
    t = OP.apply_normalized([1.0, 1.0, 1.0, 1.0])
    assert v.escape_sum == pytest.approx(0.5 * np.log(4.0 * t[:2].sum() * t[2:].sum()))
    assert v.escape_sum < 0.0


def test_pair_point_is_boundary_equilibrium():
    v = classify_limit([2.0, 0.0, 2.0, 0.0])
    assert v.kind is LimitKind.EQUILIBRIUM
    assert v.escape_sum == 0.0 and v.forward_steps == 0 and v.terms == 0


# W maps (x, 0, u, 0) to (x·u/2, 0, x·u/2, 0) and then squares on the
# diagonal, so the exact sign of |x·u| - 4 is the limit of a carrier-free
# start.  Float iteration is no oracle near |x·u| = 4: iterate stops one
# step from the first witness, next to (2, 0, 2, 0), and rounds the second
# onto it.
def _exact_carrier_free_kind(x, u):
    gap = abs(Fraction(x) * Fraction(u)) - 4
    return LimitKind.EQUILIBRIUM if gap == 0 else LimitKind.ZERO if gap < 0 else LimitKind.INFINITY


CARRIER_FREE_NEAR_MISSES = [
    ([2.0, 0.0, 2.0000000000001, 0.0], LimitKind.INFINITY),  # x·u - 4 = +2.0e-13
    ([3.0, 0.0, 4.0 / 3.0, 0.0], LimitKind.ZERO),  # x·u - 4 = -2.2e-16
]


def test_carrier_free_near_misses_take_the_exact_sign():
    states = [s for s, _ in CARRIER_FREE_NEAR_MISSES]
    kinds = [k for _, k in CARRIER_FREE_NEAR_MISSES]
    assert [_exact_carrier_free_kind(s[0], s[2]) for s in states] == kinds
    for s, kind in CARRIER_FREE_NEAR_MISSES:
        v = classify_limit(s)
        # the float sum is within the band, on either side of 0
        assert v.kind is kind and abs(v.escape_sum) < 1e-12
        assert v.forward_steps == 0 and v.terms == 0
    assert list(classify_limits(states)) == kinds


@settings(deadline=None, max_examples=200)
@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([(1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0)]),
)
def test_carrier_free_starts_near_the_equilibrium_curve_take_the_exact_sign(x, ulps, signs):
    # (x, 0, 4/x nudged by up to 3 ulps, 0), signed starts included
    u = 4.0 / x
    for _ in range(abs(ulps)):
        u = np.nextafter(u, np.inf if ulps > 0 else 0.0)
    state = [signs[0] * x, 0.0, signs[1] * float(u), 0.0]
    expected = _exact_carrier_free_kind(state[0], state[2])
    assert classify_limit(state).kind is expected
    assert list(classify_limits([state])) == [expected]


def test_a_start_carrier_free_only_after_forward_steps_gets_no_equilibrium():
    # each block changes sign, so the start takes a forward step; scaling by
    # the sup norm 2 rounds the carrier coordinates to 0, and the step lands
    # on (1/2, 0, 1/2, 0) up to scale: the band holds it, but no rule says
    # where the carriers of the start lead
    state = [-2.0, 5e-324, -2.0, 5e-324]
    v = classify_limit(state)
    assert v.kind is LimitKind.UNDECIDED and v.forward_steps == 1
    assert list(classify_limits([state])) == [LimitKind.UNDECIDED]


def test_escaping_certificate():
    # the first partial sum exceeds every possible tail, log(9/8)
    v = classify_limit([6.0, 0.1, 6.0, 0.1])
    assert v.kind is LimitKind.INFINITY
    assert v.escape_sum == pytest.approx(np.log(6.1 * 6.1 / 4.0))
    assert v.escape_sum > np.log(9.0 / 8.0) and v.terms == 0


def test_sign_pattern_forwarding():
    # W(εx, δy) = εδ·W(x, y): a start whose blocks each have one sign has
    # the orbit of |s| from its second step on, so it gets the verdict of
    # |s|, sum and terms included, with no forward step
    for state, kind in [
        ([-1.0, -1.0, -1.0, -1.0], LimitKind.ZERO),
        ([-1.0, -1.0, 1.0, 1.0], LimitKind.ZERO),
        ([1.0, 1.0, -1.0, -1.0], LimitKind.ZERO),
        ([-6.0, -0.1, -6.0, -0.1], LimitKind.INFINITY),
        ([-6.0, 0.0, 6.0, 0.1], LimitKind.INFINITY),
    ]:
        v, folded = classify_limit(state), classify_limit(np.abs(state))
        assert v.kind is kind and v.forward_steps == 0, state
        assert (v.escape_sum, v.terms) == (folded.escape_sum, folded.terms), state
        twice = OP.apply_raw(OP.apply_raw(state))
        assert twice.tobytes() == OP.apply_raw(OP.apply_raw(np.abs(state))).tobytes(), state

    # the sum doubles with each step: Λ(W(s)) = 2·Λ(s)
    once = classify_limit(OP.apply_raw([-1.0, -1.0, -1.0, -1.0]))
    assert once.escape_sum == pytest.approx(2.0 * classify_limit([1.0, 1.0, 1.0, 1.0]).escape_sum)


# a mixed-sign start that is still mixed-sign after the forward cap of 64
# steps, and never inside the sup-norm radius 12/19 on the way
FORWARD_CAP = [-2.59612023002479, 0.9064717574701104, -2.5006998091227315, -1.035873299312417]
# mixed-sign starts that the sup-norm rule proves Zero while still signed
STILL_SIGNED = [
    -2.8211426363159307, 1.3599015298514754, 0.7684185564834212, 0.8653637246648396,
]
SHRINKING = [-1.0, 2.0, 3.0, -4.0]


def test_mixed_sign_state_is_forwarded_then_summed():
    # the female block changes sign; one step maps the start into the
    # nonnegative orthant, and the series decides that image
    start = [-1.0, 2.0, 1.0, 1.0]
    image = OP.apply_raw(start)
    assert image.min() >= 0.0
    v = classify_limit(start)
    assert v.kind is LimitKind.ZERO
    assert v.forward_steps == 1 and v.terms == 0 and v.escape_sum < 0.0
    assert v.escape_sum == pytest.approx(np.log(image[:2].sum() * image[2:].sum() / 4.0))

    v = classify_limit(FORWARD_CAP)
    assert v.kind is LimitKind.UNDECIDED
    assert v.forward_steps == 64 and v.escape_sum is None and v.terms == 0
    rec = OP.iterate(FORWARD_CAP)  # float iteration does not settle it either
    assert rec.stop_reason is StopReason.DIVERGED


def _fraction_rows(exact):
    # the stored rows as Fractions; ``exact`` puts the paper's 1/3 back
    rows = [[Fraction(c) for c in row] for row in OP.pair_matrix.tolist()]
    return [[c.limit_denominator(12) for c in row] for row in rows] if exact else rows


STORED_ROWS, EXACT_ROWS = _fraction_rows(False), _fraction_rows(True)


def _exact_orbit(state, steps, rows=STORED_ROWS):
    """s_0 .. s_steps of the raw orbit of ``state``, in Fractions."""
    orbit = [tuple(Fraction(c) for c in state)]
    for _ in range(steps):
        x, y, u, v = orbit[-1]
        pairs = (x * u, x * v, y * u, y * v)
        orbit.append(tuple(sum(p * row[k] for p, row in zip(pairs, rows)) for k in range(4)))
    return orbit


def _sup(s):
    return max(abs(c) for c in s)


def test_the_sup_norm_growth_constant_is_exactly_19_12():
    # each coordinate of W is bilinear in the two blocks, so its modulus
    # on the cube |w|∞ <= 1 peaks at one of the 16 vertices
    assert EXACT_ROWS[3] == [0, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]
    assert np.abs(np.array(EXACT_ROWS, dtype=float) - OP.pair_matrix).max() <= 2.0**-54
    vertices = list(itertools.product([-1, 1], repeat=4))
    exact = max(_sup(_exact_orbit(w, 1, EXACT_ROWS)[1]) for w in vertices)
    stored = max(_sup(_exact_orbit(w, 1, STORED_ROWS)[1]) for w in vertices)
    assert exact == Fraction(19, 12) == invariant_sets._SUP_GROWTH
    assert stored <= Fraction(19, 12)


@pytest.mark.parametrize(
    "state, steps, norm", [(STILL_SIGNED, 3, 0.2619), (SHRINKING, 2, 0.463)],
    ids=["still-signed", "shrinking"],
)
def test_signed_starts_inside_the_sup_norm_radius_are_zero(state, steps, norm):
    v = classify_limit(state)
    assert (v.kind, v.escape_sum, v.forward_steps, v.terms) == (LimitKind.ZERO, None, steps, 0)
    orbit = _exact_orbit(state, steps)
    # the first exact state inside the radius, and still signed
    assert round(float(_sup(orbit[-1])), 4) == pytest.approx(norm)
    assert _sup(orbit[-1]) < Fraction(12, 19) <= min(_sup(s) for s in orbit[:-1])
    assert min(orbit[-1]) < 0
    assert empirical_limits(OP, [state])[0] is LimitKind.ZERO


@pytest.mark.parametrize("k", range(4))
def test_the_sup_norm_rule_is_sound_at_the_radius(k):
    # starts scaled so that the exact norm at forward step k is
    # (12/19)·(1 ± r): a Zero from the rule at step j needs |s_j|∞ < 12/19
    radius = Fraction(12, 19)
    rng = np.random.default_rng(k)
    directions = []
    for d in rng.uniform(-3.0, 3.0, (200, 4)):
        orbit = _exact_orbit(d.tolist(), k)
        if all(min(s) < 0 for s in orbit):  # signed up to step k
            directions.append((d.tolist(), float(_sup(orbit[-1]))))
    assert len(directions) >= 10
    at_k = above = 0
    for d, norm_k in directions[:10]:
        for r in (1e-15, 1e-13, 1e-11, 1e-9):
            for sign in (1.0, -1.0):
                a = (12.0 / 19.0 * (1.0 + sign * r) / norm_k) ** (0.5**k)
                start = [a * c for c in d]
                v = classify_limit(start)
                orbit = _exact_orbit(start, max(k, v.forward_steps))
                above += _sup(orbit[k]) >= radius
                if v.kind is LimitKind.ZERO and v.escape_sum is None:
                    assert _sup(orbit[v.forward_steps]) < radius, (start, v)
                    at_k += v.forward_steps == k
    assert at_k > 0 and above > 0


# (1, 1/2, 1, 1/2) scaled onto Λ = 0: every partial sum stays inside the band
ON_THE_BOUNDARY = [
    1.3339724866900553, 0.6669862433450277, 1.3339724866900553, 0.6669862433450277,
]


def test_series_is_left_undecided_at_the_term_cap():
    v = classify_limit(ON_THE_BOUNDARY)
    assert v.kind is LimitKind.UNDECIDED
    assert v.forward_steps == 0 and v.terms == 64 and abs(v.escape_sum) <= 1e-12
    # rounding pushes the orbit off the boundary: iteration blows up instead
    rec = OP.iterate(ON_THE_BOUNDARY)
    assert rec.stop_reason is StopReason.DIVERGED and rec.steps_taken == 59


@pytest.mark.parametrize(
    "state, message",
    [(np.zeros((3, 4)), "single state"), ([1.0, 2.0], "2 coordinates")],
    ids=["batch", "arity"],
)
def test_classify_limit_validates_as_membership_does(state, message):
    with pytest.raises(ValueError, match=message) as seen:
        membership(state)
    with pytest.raises(type(seen.value), match=message) as err:
        classify_limit(state)
    assert str(err.value) == str(seen.value)


def _reference_classify_limit(state):
    """classify_limit's loop, stepping with apply_raw one state at a time:
    (kind, escape_sum, forward_steps, terms)."""
    x, y, u, v = c = [float(a) for a in state]
    # W(εx, δy) = εδ·W(x, y): blocks of one sign each are classified as |s|
    if all(min(block) >= 0.0 or max(block) <= 0.0 for block in ((x, y), (u, v))):
        x, y, u, v = c = [abs(a) for a in c]

    def step(w):
        return OP.apply_raw(np.array(w)).tolist()

    unit = 2.0**-53
    log_scale = err = 0.0
    for steps in range(invariant_sets._MAX_FORWARD + 1):
        if steps:
            x, y, u, v = step([x, y, u, v])
        top = max(abs(x), abs(y), abs(u), abs(v)) or 1.0
        x, y, u, v = x / top, y / top, u / top, v / top
        log_top = math.log(top)
        log_scale = 2.0 * log_scale + log_top
        if not (x or y) or not (u or v):
            return LimitKind.ZERO, -math.inf, steps, 0
        if min(x, y, u, v) >= 0.0:
            break
        # the sup-norm rule: |s|∞ <= e^L·(1 + err) < 12/19 goes to the origin
        growth = 19.0 / 12.0
        carried = (growth * err * (2.0 + err) + 8.0 * unit * growth) * (1.0 + 2.0**-30)
        slip = 4.0 * unit * (abs(log_top) + abs(log_scale))
        grow = 2.0 * slip if slip <= 1.0 else math.inf
        err = (grow + (1.0 + grow) * (2.0 * unit + (carried / top if steps else 0.0)))
        err *= 1.0 + 2.0**-30
        if log_scale + math.log1p(err) < -math.log(19.0 / 12.0) - 1e-14 * (1.0 + abs(log_scale)):
            return LimitKind.ZERO, None, steps, 0
    else:
        return LimitKind.UNDECIDED, None, invariant_sets._MAX_FORWARD, 0

    fs, ms = x + y, u + v
    total = 2.0 * log_scale + math.log(fs) + math.log(ms) - math.log(4.0)
    band = 1e-12 * (1.0 + 2.0 * abs(log_scale))
    if c[1] == 0.0 and c[3] == 0.0 and abs(total) <= band:
        gap = abs(Fraction(c[0]) * Fraction(c[2])) - 4
        kind = LimitKind.ZERO if gap < 0 else LimitKind.INFINITY if gap else LimitKind.EQUILIBRIUM
        return kind, total, steps, 0
    weight, terms = 1.0, 0
    while -band <= total <= weight * math.log(9.0 / 8.0) + band:
        if terms == invariant_sets._MAX_TERMS:
            return LimitKind.UNDECIDED, total, steps, terms
        x, y, u, v = step([x / fs, y / fs, u / ms, v / ms])
        fs, ms = x + y, u + v
        weight *= 0.5
        total += weight * math.log(4.0 * fs * ms)
        terms += 1
    return (LimitKind.ZERO if total < 0.0 else LimitKind.INFINITY), total, steps, terms


def _classifier_families(rng, per):
    """``per`` starts of each of eight families: subcritical and escaping
    nonnegative starts, the three sign patterns, carrier-free starts, block
    sums (2, 2) with carriers, and a sign change inside a block."""
    sub = rng.uniform(0.0, 2.0, (4 * per, 4))
    sub = sub[(sub[:, 0] + sub[:, 1]) * (sub[:, 2] + sub[:, 3]) < 4.0][:per]
    esc = rng.uniform(0.0, 6.0, (per, 4))
    nonpos = -rng.uniform(0.0, 4.0, (per, 4))
    female_nonpos = rng.uniform(0.0, 4.0, (per, 4)) * [-1.0, -1.0, 1.0, 1.0]
    male_nonpos = rng.uniform(0.0, 4.0, (per, 4)) * [1.0, 1.0, -1.0, -1.0]
    carrier_free = rng.uniform(-3.0, 3.0, (per, 4)) * [1.0, 0.0, 1.0, 0.0]
    carriers = rng.uniform(0.0, 2.0, (per, 2))
    boundary = np.stack(
        [2.0 - carriers[:, 0], carriers[:, 0], 2.0 - carriers[:, 1], carriers[:, 1]], axis=1
    )
    mixed = rng.uniform(-3.0, 3.0, (per, 4))
    mixed[:, 0] = -np.abs(mixed[:, 0])
    mixed[:, 1] = np.abs(mixed[:, 1])
    families = [sub, esc, nonpos, female_nonpos, male_nonpos, carrier_free, boundary, mixed]
    assert all(len(f) == per for f in families)
    return np.concatenate(families)


def test_classify_limit_is_the_reference_loop_bit_for_bit():
    # and the special starts: Equilibrium, Undecided at each cap
    special = [[2.0, 0.0, 2.0, 0.0], [-4.0, 0.0, 1.0, 0.0], FORWARD_CAP, ON_THE_BOUNDARY]
    starts = np.concatenate([_classifier_families(np.random.default_rng(20231), 200), special])
    seen = set()
    for s in starts:
        v = classify_limit(s)
        kind, total, steps, terms = _reference_classify_limit(s)
        assert (v.kind, v.forward_steps, v.terms) == (kind, steps, terms), s
        assert (v.escape_sum is None) == (total is None), s
        if total is not None:
            assert np.float64(v.escape_sum).tobytes() == np.float64(total).tobytes(), s
        seen.add((kind, steps > 0, terms > 0))
    # every verdict, with and without forward steps and series terms
    assert {k for k, _, _ in seen} == set(LimitKind)
    assert {(f, t) for _, f, t in seen} == set(itertools.product([False, True], repeat=2))


def _no_stepper(self):
    raise AssertionError("stepper built")


@pytest.mark.parametrize(
    "state, escape_sum",
    [
        ([0.5, 0.5, 0.5, 0.5], np.log(0.25)),
        ([0.0, 0.0, 1.0, 1.0], -np.inf),
        ([-0.5, -0.5, 0.5, 0.5], np.log(0.25)),  # blocks of one sign each: |s|
    ],
    ids=["first-sum", "zero-block", "one-sign-blocks"],
)
def test_a_start_decided_with_no_step_builds_no_stepper(monkeypatch, state, escape_sum):
    monkeypatch.setattr(GonosomalOperator, "stepper", _no_stepper)
    v = classify_limit(state)
    assert v.kind is LimitKind.ZERO and v.escape_sum == escape_sum
    assert (v.forward_steps, v.terms) == (0, 0)


def test_empirical_limits_returns_limit_kinds():
    starts = [[0.5, 0.5, 0.5, 0.5], [2.0, 0.0, 2.0, 0.0], [3.0, 0.0, 3.0, 0.0]]
    kinds = empirical_limits(OP, starts)
    assert list(kinds) == [LimitKind.ZERO, LimitKind.EQUILIBRIUM, LimitKind.INFINITY]
    assert all(type(k) is LimitKind for k in kinds)
    # one step from (1, 1, 1, 1) is near neither limit nor escaped yet
    assert list(empirical_limits(OP, [[1.0, 1.0, 1.0, 1.0]], steps=1)) == [LimitKind.UNDECIDED]
    # steps=0 judges the rows themselves
    rows = [
        [0.0, 0.0, 0.0, 1e-7],
        [2.0, 0.0, 2.0, 0.0],
        [2e12, 0.0, 0.0, 0.0],
        [np.nan, 0.0, 0.0, 0.0],
        [3.0, 0.0, 3.0, 0.0],
    ]
    assert list(empirical_limits(OP, rows, steps=0)) == [
        LimitKind.ZERO,
        LimitKind.EQUILIBRIUM,
        LimitKind.INFINITY,
        LimitKind.INFINITY,
        LimitKind.UNDECIDED,
    ]


@pytest.mark.parametrize("steps", [0, 5])
@pytest.mark.parametrize(
    "states", [[3.0, 0.0, 3.0, 0.0], np.zeros((2, 3, 4)), np.zeros((3, 5))],
    ids=["one-state", "three-axes", "five-columns"],
)
def test_empirical_limits_refuses_anything_but_a_batch(states, steps):
    # one verdict per row: a single state is not judged coordinate by
    # coordinate, and the width is checked even when no step is taken
    with pytest.raises(DimensionMismatchError):
        empirical_limits(OP, states, steps=steps)


def test_classifier_agrees_with_iteration_on_decided_cases():
    rng = np.random.default_rng(21)
    states = np.concatenate(
        [
            rng.uniform(0.0, 2.0, size=(150, 4)),
            rng.uniform(0.0, 6.0, size=(150, 4)),
            -rng.uniform(0.0, 4.0, size=(100, 4)),
        ]
    )
    targets = {
        LimitKind.ZERO: lambda f: np.abs(f).max() <= 1e-6,
        LimitKind.EQUILIBRIUM: lambda f: np.abs(f - [2, 0, 2, 0]).max() <= 1e-6,
        LimitKind.INFINITY: lambda f: not np.isfinite(f).all() or np.abs(f).max() > 1e12,
    }
    decided = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for s in states:
            verdict = classify_limit(s)
            if verdict.kind is LimitKind.UNDECIDED:
                continue
            decided += 1
            final = s.copy()
            for _ in range(80):
                final = OP.apply_raw(final)
            assert targets[verdict.kind](final), (s, verdict)
    assert decided > 250


def test_verdict_is_the_same_for_a_state_and_its_image():
    # Λ(W(s)) = 2·Λ(s): a decided state and its decided image share a kind
    rng = np.random.default_rng(5)
    states = np.concatenate(
        [rng.uniform(0.0, 3.0, size=(1000, 4)), rng.uniform(-3.0, 3.0, size=(1000, 4))]
    )
    pairs = 0
    for s, image in zip(states, OP.apply_raw(states)):
        kind, image_kind = classify_limit(s).kind, classify_limit(image).kind
        if LimitKind.UNDECIDED in (kind, image_kind):
            continue
        pairs += 1
        assert kind is image_kind, (s, kind, image_kind)
    assert pairs > 1900


def test_classifier_agrees_with_empirical_limits_on_signed_states():
    states = np.random.default_rng(8).uniform(-3.0, 3.0, size=(4000, 4))
    observed = empirical_limits(OP, states)
    decided = 0
    for s, seen in zip(states, observed):
        kind = classify_limit(s).kind
        if kind is LimitKind.UNDECIDED:
            continue
        decided += 1
        assert kind is seen, (s, kind, seen)
    assert decided > 0.95 * len(states)


# ---------------------------------------------------------------------------
# batch limit classification
# ---------------------------------------------------------------------------


def _assert_batch_matches_single(states):
    states = np.asarray(states, dtype=float)
    kinds = classify_limits(states)
    assert kinds.dtype == object and kinds.shape == (len(states),)
    want = [classify_limit(s).kind for s in states]
    bad = [(s, k, w) for s, k, w in zip(states, kinds, want) if k is not w]
    assert not bad, bad[:5]
    return kinds


def _orbit_inputs(seed):
    # the start states of the `orbit` benchmark workload, eight families
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    families = module._orbit_families(np.random.default_rng(seed), 250)
    return np.stack(families, axis=1).reshape(-1, 4)


def _carrier_free(rng, count):
    s = np.zeros((count, 4))
    s[:, [0, 2]] = rng.uniform(-3.0, 3.0, (count, 2))
    return s


def _diagonal(rng, count):
    s = np.zeros((count, 4))
    s[:, 0] = s[:, 2] = rng.uniform(-3.0, 3.0, count)
    return s


BATCHES = {
    "orbit-73411": lambda: _orbit_inputs(73411),
    "orbit-90017": lambda: _orbit_inputs(90017),
    "signed": lambda: np.random.default_rng(0).uniform(-3.0, 3.0, (20_000, 4)),
    "nonnegative": lambda: np.random.default_rng(1).uniform(0.0, 3.0, (20_000, 4)),
    "times-1e200": lambda: np.random.default_rng(2).uniform(-3.0, 3.0, (2000, 4)) * 1e200,
    "times-1e-200": lambda: np.random.default_rng(3).uniform(-3.0, 3.0, (2000, 4)) * 1e-200,
    "carrier-free": lambda: _carrier_free(np.random.default_rng(4), 2000),
    "diagonal": lambda: _diagonal(np.random.default_rng(5), 2000),
    # exact cancellations and zero blocks, at every step
    "grid": lambda: np.array(list(itertools.product([-2, -1, -0.5, 0, 0.5, 1, 2], repeat=4))),
}


@pytest.mark.parametrize("name", list(BATCHES))
def test_batch_kinds_are_the_single_state_kinds(name):
    kinds = _assert_batch_matches_single(BATCHES[name]())
    if name == "times-1e-200":
        # every row is inside the sup-norm radius, or nonnegative and tiny
        assert set(kinds) == {LimitKind.ZERO}
    else:
        assert len(set(kinds)) >= 2  # several verdicts, so the match means something


@pytest.mark.parametrize("seed", [0, 42, 73411, 90017])
def test_batch_kinds_match_on_the_battery_batches(monkeypatch, seed):
    # the two classifier batches of run_battery; the Newton searches, which
    # run after them, are stubbed out
    sizes = []

    def checking(states):
        sizes.append(len(states))
        return _assert_batch_matches_single(states)

    def rootless(op, mode, n_seeds, rng_seed):
        drops = dict.fromkeys(DROP_REASONS, 0) | {"non_finite": n_seeds}
        return FixedPointSearchResult([], n_seeds, 0, iterations=0, drops=drops)

    monkeypatch.setattr(verify, "classify_limits", checking)
    monkeypatch.setattr(verify, "find_fixed_points", rootless)
    verify.run_battery(rng_seed=seed)
    assert sizes == [201, 10_000]


def test_batch_kinds_on_the_special_states():
    special = [
        [0.0, 0.0, 3.0, 3.0],  # exact zero blocks: Zero
        [0.0, 0.0, -3.0, 3.0],
        [3.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [2.0, 0.0, 2.0, 0.0],  # the raw fixed point: Equilibrium
        [4.0, 0.0, 1.0, 0.0],
        [-4.0, 0.0, 1.0, 0.0],
        FORWARD_CAP,  # Undecided: signed after the forward cap
        ON_THE_BOUNDARY,  # Undecided: in the band after the term cap
        [-1e200, -1e200, -1e200, -1e200],
        [1.0, 1.0, 1.0, 1.0],
        STILL_SIGNED,  # Zero: signed, inside the sup-norm radius
        SHRINKING,
    ]
    kinds = _assert_batch_matches_single(special)
    assert list(kinds[:4]) == [LimitKind.ZERO] * 4
    assert list(kinds[4:7]) == [LimitKind.EQUILIBRIUM] * 3
    assert list(kinds[7:9]) == [LimitKind.UNDECIDED] * 2
    assert list(kinds[11:]) == [LimitKind.ZERO] * 2


def test_band_edges_and_carrier_free_rows_go_to_the_single_state_classifier(monkeypatch):
    # (a, a, a, a) sums to 2·log(a) at once.  On the band edges -band and
    # log(9/8) + band rounding alone tells the verdicts apart, and only
    # classify_limit claims Equilibrium, so it decides those rows and the
    # carrier-free rows inside the band; (2, 2, 2, 2) and the carrier-free
    # (3, 0, 3, 0) are well clear of both edges.
    low = np.exp(-1e-12 / 2.0)  # band = 1e-12·(1 + 2|log a|), about 1e-12 here
    high = np.sqrt(9.0 / 8.0)
    for _ in range(3):
        high = np.sqrt(9.0 / 8.0) * np.exp(1e-12 * (1.0 + 2.0 * np.log(high)) / 2.0)
    states = [
        [low] * 4, [high] * 4, [2.0] * 4, [4.0, 0.0, 1.0, 0.0], [-4.0, 0.0, 1.0, 0.0],
        [3.0, 0.0, 3.0, 0.0],
    ]
    calls = []
    real = invariant_sets.classify_limit
    monkeypatch.setattr(invariant_sets, "classify_limit", lambda s: calls.append(s) or real(s))
    kinds = classify_limits(states)
    assert [list(c) for c in calls] == [states[0], states[1], states[3], states[4]]
    assert list(kinds) == [real(s).kind for s in states] == [
        LimitKind.ZERO, LimitKind.INFINITY, LimitKind.INFINITY,
        LimitKind.EQUILIBRIUM, LimitKind.EQUILIBRIUM, LimitKind.INFINITY,
    ]


def test_a_first_partial_sum_inside_the_band_goes_to_the_single_state_classifier(monkeypatch):
    # (a, a, a, a) has the first partial sum log(fs·ms/4) = 2·log(a) = 0.05,
    # strictly between -band and log(9/8) + band: the batch decides nothing
    # past that sum, so classify_limit sums the terms of this row
    a = math.exp(0.025)
    verdict = classify_limit([a] * 4)
    assert (verdict.kind, verdict.terms) == (LimitKind.INFINITY, 2)
    calls = []
    real = invariant_sets.classify_limit
    monkeypatch.setattr(invariant_sets, "classify_limit", lambda s: calls.append(s) or real(s))
    assert list(classify_limits([[a] * 4, [2.0] * 4])) == [LimitKind.INFINITY] * 2
    assert [list(c) for c in calls] == [[a] * 4]


def test_empty_batch_gives_no_kinds():
    kinds = classify_limits(np.zeros((0, 4)))
    assert kinds.shape == (0,) and kinds.dtype == object


@pytest.mark.parametrize(
    "states", [np.zeros(4), np.zeros((3, 3)), np.zeros((2, 3, 4)), [[1.0, 2.0]]],
    ids=["one-state", "three-columns", "three-axes", "arity"],
)
def test_batch_classifier_refuses_other_shapes(states):
    with pytest.raises(DimensionMismatchError):
        classify_limits(states)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_batch_classifier_refuses_non_finite_rows(bad):
    states = np.ones((3, 4))
    states[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        classify_limits(states)


scaled_coord = st.builds(
    lambda c, e: c * 10.0**e,
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.integers(min_value=-60, max_value=60),
)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.lists(scaled_coord, min_size=4, max_size=4), min_size=1, max_size=8))
def test_batch_kinds_match_on_signed_states_at_mixed_scales(rows):
    _assert_batch_matches_single(rows)


# ---------------------------------------------------------------------------
# invariance battery
# ---------------------------------------------------------------------------


def test_invariance_battery_is_clean():
    report = verify_invariance(samples=10_000, rng_seed=0)
    assert report.ok
    assert report.failures == 0
    names = [c.name for c in report.checks]
    assert len(names) == 11
    for check in report.checks:
        assert check.samples == 10_000
        assert check.counterexample is None


def test_invariance_battery_rejects_other_dimensions():
    rng = np.random.default_rng(2)
    op = GonosomalOperator(random_tensor(rng, 3, 2, nonnegative=True))
    with pytest.raises(ValueError):
        verify_invariance(op)


@pytest.mark.parametrize("samples", [0, -1])
def test_invariance_battery_rejects_fewer_than_one_sample(samples):
    # no states would make every clause hold vacuously
    with pytest.raises(ValueError, match="samples must be at least 1"):
        verify_invariance(samples=samples)


def test_model_results_key_on_the_hemophilia_coefficients_not_the_type_counts():
    # a 2+2 operator with other coefficients: its clauses fail (400 failures
    # at 200 samples) and (2, 0, 2, 0) is not its fixed point
    op = GonosomalOperator(random_tensor(np.random.default_rng(2), 2, 2, nonnegative=True))
    assert np.abs(op.apply_raw(RAW_EQUILIBRIUM) - RAW_EQUILIBRIUM).max() > 0.5
    with pytest.raises(ValueError, match="hemophilia coefficients"):
        verify_invariance(op, samples=200)
    assert list(empirical_limits(op, [[2.0, 0.0, 2.0, 0.0]], steps=0)) == [LimitKind.UNDECIDED]
    rebuilt = GonosomalOperator(hemophilia_tensor())
    assert verify_invariance(rebuilt, samples=200).ok
    assert list(empirical_limits(rebuilt, [[2.0, 0.0, 2.0, 0.0]], steps=0)) == [
        LimitKind.EQUILIBRIUM
    ]


@settings(deadline=None, max_examples=200)
@given(nonneg_coord, nonneg_coord, nonneg_coord, nonneg_coord)
def test_nonnegative_orthant_closure(x, y, u, v):
    image = OP.apply_raw(np.array([x, y, u, v]))
    assert image.min() >= 0.0


@settings(deadline=None, max_examples=200)
@given(nonneg_coord, nonneg_coord, nonneg_coord, nonneg_coord)
def test_sum_cap_contraction(x, y, u, v):
    s = np.array([x, y, u, v])
    total = s.sum()
    image_total = OP.apply_raw(s).sum()
    assert image_total <= (total / 2.0) ** 2 + 1e-9 * max(1.0, total**2)


@settings(deadline=None, max_examples=200)
@given(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)
def test_carrier_free_closure(x, u):
    image = OP.apply_raw(np.array([x, 0.0, u, 0.0]))
    assert image[1] == 0.0 and image[3] == 0.0
    assert image[0] == image[2]
