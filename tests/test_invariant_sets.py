"""Invariant set membership, the diagonal closed form, limit
classification, and the sampling battery."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gonosomal.invariant_sets import (
    MEMBERSHIP_TOL,
    LimitKind,
    classify_limit,
    closed_form_diagonal,
    membership,
    verify_invariance,
)
from gonosomal.operator import GonosomalOperator, hemophilia_operator
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


def test_subcritical_and_escaping():
    assert membership([0.5, 0.5, 0.5, 0.5]).subcritical
    assert not membership([1.0, 1.0, 1.0, 1.0]).subcritical  # product exactly 4
    assert not membership([-0.1, 0.0, 0.1, 0.0]).subcritical  # not nonnegative
    m = membership([6.0, 0.1, 6.0, 0.1])
    assert m.escaping
    assert m.escape_ratios["xu/4"] == pytest.approx(9.0)
    # large sum but every certifying product vanishes
    assert not membership([5.0, 0.0, 0.0, 5.0]).escaping


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
    ratios = {
        "xu/4": float(x * u / 4.0),
        "yu/16": float(y * u / 16.0),
        "yv/9": float(y * v / 9.0),
    }
    return dict(
        annihilated=max(abs(x), abs(y)) <= tol or max(abs(u), abs(v)) <= tol,
        carrier_free=carrier_free,
        balanced=carrier_free and abs(x - u) <= tol,
        nonnegative=nonneg,
        nonpositive=s.max() <= tol,
        female_nonpositive=max(x, y) <= tol and min(u, v) >= -tol,
        male_nonpositive=max(u, v) <= tol and min(x, y) >= -tol,
        subcritical=nonneg and (x + y) * (u + v) < 4.0,
        escaping=nonneg and s.sum() > 4.0 and max(ratios.values()) > 1.0,
    ), float(s.sum()) if nonneg else None, ratios


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
    flags, q_level, ratios = _reference_membership(state)
    assert m.state.tobytes() == np.asarray(state, dtype=float).tobytes()
    for name, expected in flags.items():
        got = getattr(m, name)
        assert type(got) is bool and got == bool(expected), name
    if q_level is None:
        assert m.q_level is None
    else:
        assert m.q_level.hex() == q_level.hex() == float(m.state.sum()).hex()
    assert m.escape_ratios.keys() == ratios.keys()
    for name, expected in ratios.items():
        assert m.escape_ratios[name].hex() == expected.hex(), name


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


def test_forwarding_overflow_is_undecided():
    # finite, but its first image overflows: no set clause can place it
    with np.errstate(over="ignore", invalid="ignore"):
        v = classify_limit([-1e200, -1e200, -1e200, -1e200])
    assert v.kind is LimitKind.UNDECIDED
    assert v.rule == "nonpositive-forwarding-failed"


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
    assert classify_limit([0.0, 0.0, 3.0, 3.0]).rule == "annihilated"
    v = classify_limit([0.5, 0.5, 0.5, 0.5])
    assert v.kind is LimitKind.ZERO and v.rule == "subcritical"


def test_boundary_mixing_probe():
    v = classify_limit([1.0, 1.0, 1.0, 1.0])
    assert v.kind is LimitKind.ZERO
    assert v.rule == "boundary-mixing"
    assert v.witness_step == 1


def test_pair_point_is_boundary_equilibrium():
    v = classify_limit([2.0, 0.0, 2.0, 0.0])
    assert v.kind is LimitKind.EQUILIBRIUM


def test_escaping_certificate():
    v = classify_limit([6.0, 0.1, 6.0, 0.1])
    assert v.kind is LimitKind.INFINITY
    assert v.rule == "escaping"
    name, value = v.witness_ratio
    assert name == "xu/4" and value == pytest.approx(9.0)


def test_sign_pattern_forwarding():
    v = classify_limit([-1.0, -1.0, -1.0, -1.0])
    assert v.kind is LimitKind.ZERO
    assert v.rule == "nonpositive->subcritical"
    assert v.forwarded is not None and v.forwarded.min() >= 0.0

    v = classify_limit([-1.0, -1.0, 1.0, 1.0])
    assert v.kind is LimitKind.ZERO
    assert v.rule == "female-nonpositive->subcritical"

    v = classify_limit([1.0, 1.0, -1.0, -1.0])
    assert v.kind is LimitKind.ZERO
    assert v.rule == "male-nonpositive->subcritical"

    v = classify_limit([-6.0, -0.1, -6.0, -0.1])
    assert v.kind is LimitKind.INFINITY
    assert v.rule == "nonpositive->escaping"


def test_uncharacterized_states_are_undecided():
    v = classify_limit([-1.0, 2.0, 3.0, -4.0])
    assert v.kind is LimitKind.UNDECIDED
    assert v.rule is None


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
