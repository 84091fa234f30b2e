"""Core operator tests: tensor validation, the bilinear map, Jacobians,
iteration, the batch orbit, and the tensor file format."""

import copy
import pickle
import sys
import threading
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gonosomal.operator import (
    AnnihilatedStateError,
    DimensionMismatchError,
    GonosomalOperator,
    InheritanceTensor,
    StopReason,
    TensorFormatError,
    as_state_vector,
    can_normalize,
    can_normalize_all,
    dump_tensor,
    fold_columns,
    hemophilia_operator,
    hemophilia_tensor,
    load_tensor,
)
from gonosomal.invariant_sets import classify_limit, membership
from gonosomal.normalized import (
    EQUILIBRIUM, denormalize_fixed_point, normalize_fixed_point, require_simplex_state,
    sample_simplex,
)
from gonosomal.verify import empirical_limits, random_tensor

OP = hemophilia_operator()

# one generation from the all-ones state, as exact fractions
ALL_ONES_IMAGE = (3 / 4, 13 / 12, 19 / 12, 7 / 12)
ALL_ONES_NORMALIZED = (3 / 16, 13 / 48, 19 / 48, 7 / 48)

finite_coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
state_strategy = st.tuples(finite_coord, finite_coord, finite_coord, finite_coord)


# ---------------------------------------------------------------------------
# tensor construction
# ---------------------------------------------------------------------------


def test_hemophilia_rows_sum_to_one_in_float():
    rows = hemophilia_tensor().rows()
    assert rows.shape == (4, 4)
    assert (rows.sum(axis=1) == 1.0).all()


def test_hemophilia_coefficients():
    t = hemophilia_tensor()
    # healthy x healthy: all offspring healthy, split between the sexes
    assert t.gamma_f[0, 0, 0] == 0.5
    assert t.gamma_m[0, 0, 0] == 0.5
    # healthy female x carrier male: daughters are carriers
    assert t.gamma_f[0, 1, 1] == 0.5
    assert t.gamma_m[0, 1, 0] == 0.5
    # carrier female x healthy male: four equally likely outcomes
    assert t.gamma_f[1, 0, 0] == t.gamma_f[1, 0, 1] == 0.25
    assert t.gamma_m[1, 0, 0] == t.gamma_m[1, 0, 1] == 0.25
    # carrier x carrier: the affected daughter genotype is lethal
    assert t.gamma_f[1, 1, 0] == 0.0
    assert t.gamma_f[1, 1, 1] == pytest.approx(1 / 3)
    assert t.gamma_m[1, 1, 0] == pytest.approx(1 / 3)
    assert t.gamma_m[1, 1, 1] == pytest.approx(1 / 3)
    assert t.is_nonnegative()


def test_tensor_shape_validation():
    gf = np.zeros((2, 2, 2))
    gm = np.zeros((2, 2, 2))
    with pytest.raises(ValueError):
        InheritanceTensor(gf, gm)  # rows sum to 0, not 1
    with pytest.raises(ValueError, match="shape"):
        InheritanceTensor(np.zeros((2, 3, 2)), np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        InheritanceTensor(np.full((1, 1, 1), np.nan), np.full((1, 1, 1), 1.0))
    # the sum prints as a plain float, not as a numpy repr
    with pytest.raises(ValueError, match=r"row \(1,1\) sums to 0\.9, expected 1 within 1e-12$"):
        InheritanceTensor(np.full((1, 1, 1), 0.5), np.full((1, 1, 1), 0.4))


def test_tensor_rejects_a_wrong_rank_or_no_types():
    with pytest.raises(ValueError, match="rank-3"):
        InheritanceTensor(np.ones((1, 1)), np.zeros((1, 1, 1)))
    with pytest.raises(ValueError, match="at least one female and one male type"):
        InheritanceTensor(np.zeros((0, 1, 0)), np.zeros((0, 1, 1)))


def test_tensor_row_sum_tolerance():
    gf = np.full((1, 1, 1), 0.5)
    gm = np.full((1, 1, 1), 0.5 + 1e-6)
    with pytest.raises(ValueError):
        InheritanceTensor(gf, gm)
    # loosening the tolerance admits the same data
    t = InheritanceTensor(gf, gm, rowsum_tol=1e-5)
    assert t.n == 1 and t.nu == 1


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0])
def test_a_tolerance_that_is_not_positive_is_refused(tol):
    # NaN fails every comparison, so a NaN tolerance once turned the check
    # off: a row that sums to 20 and a state that sums to 12 both passed
    row = np.full((1, 1, 1), 10.0)
    with pytest.raises(ValueError, match="rowsum_tol must be positive"):
        InheritanceTensor(row, row, rowsum_tol=tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        require_simplex_state([5.0, 0.0, 7.0, 0.0], tol=tol)


def test_tensor_is_immutable():
    t = hemophilia_tensor()
    with pytest.raises(ValueError):
        t.gamma_f[0, 0, 0] = 1.0


# ---------------------------------------------------------------------------
# the bilinear map
# ---------------------------------------------------------------------------


def test_all_ones_image():
    np.testing.assert_allclose(
        OP.apply_raw(np.ones(4)), ALL_ONES_IMAGE, rtol=0, atol=5e-16
    )


def test_all_ones_normalized_image():
    np.testing.assert_allclose(
        OP.apply_normalized(np.ones(4)), ALL_ONES_NORMALIZED, rtol=0, atol=5e-16
    )


def test_accepts_lists():
    np.testing.assert_array_equal(OP.apply_raw([1, 1, 1, 1]), OP.apply_raw(np.ones(4)))


def test_batch_matches_scalar_rows():
    rng = np.random.default_rng(5)
    batch = rng.uniform(-4, 4, size=(64, 4))
    whole = OP.apply_raw(batch)
    for row, img in zip(batch, whole):
        np.testing.assert_array_equal(OP.apply_raw(row), img)


@pytest.mark.parametrize(
    "op",
    [OP, GonosomalOperator(random_tensor(np.random.default_rng(9), 3, 2))],
    ids=["hemophilia", "random-3x2"],
)
def test_kernels_accept_an_empty_batch(op):
    empty = np.empty((0, op.dim))
    for kernel in (op.apply_raw, op.apply_normalized):
        assert kernel(empty).shape == (0, op.dim)
    for kernel in (op.jacobian_raw, op.jacobian_normalized):
        assert kernel(empty).shape == (0, op.dim, op.dim)
    assert op.sum_product_residual(empty).shape == (0,)
    assert empirical_limits(op, empty).shape == (0,)


# The bilinear map and its Jacobian as written in the module docstring; the
# operator computes both on the pair-product matrix instead.
def _einsum_raw(gf, gm, s):
    x, y = s[..., : gf.shape[0]], s[..., gf.shape[0] :]
    xf = np.einsum("ikj,...i,...k->...j", gf, x, y)
    xm = np.einsum("ikl,...i,...k->...l", gm, x, y)
    return np.concatenate([xf, xm], axis=-1)


def _einsum_jacobian(gf, gm, s):
    x, y = s[..., : gf.shape[0]], s[..., gf.shape[0] :]
    top = np.concatenate(
        [np.einsum("ikj,...k->...ji", gf, y), np.einsum("ikj,...i->...jk", gf, x)], axis=-1
    )
    bottom = np.concatenate(
        [np.einsum("ikl,...k->...li", gm, y), np.einsum("ikl,...i->...lk", gm, x)], axis=-1
    )
    return np.concatenate([top, bottom], axis=-2)


batch_shape = st.one_of(
    st.just(()),
    st.just((0,)),
    st.tuples(st.integers(1, 40)),
    st.tuples(st.integers(1, 4), st.integers(1, 4)),
)


@settings(deadline=None, max_examples=150)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    batch_shape,
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_kernel_matches_einsum_definition(n, nu, batch, nonnegative, seed):
    rng = np.random.default_rng(seed)
    t = random_tensor(rng, n, nu, nonnegative=nonnegative)
    op = GonosomalOperator(t)
    s = rng.uniform(-3.0, 3.0, size=batch + (n + nu,))
    gf, gm = t.gamma_f, t.gamma_m
    # relative to the sum of the absolute terms, so cancellation is covered
    raw, jac = op.apply_raw(s), op.jacobian_raw(s)
    assert raw.shape == batch + (n + nu,)
    assert jac.shape == batch + (n + nu, n + nu)
    raw_scale = _einsum_raw(np.abs(gf), np.abs(gm), np.abs(s))
    jac_scale = _einsum_jacobian(np.abs(gf), np.abs(gm), np.abs(s))
    assert (np.abs(raw - _einsum_raw(gf, gm, s)) <= 1e-12 * raw_scale).all()
    assert (np.abs(jac - _einsum_jacobian(gf, gm, s)) <= 1e-12 * jac_scale).all()


# The kernels as numpy broadcasts over the pair and state axes, the form they
# had before they moved to one column at a time; the operator must keep every
# bit of them.
def _broadcast_raw(op, s):
    x, y = s[..., : op.n], s[..., op.n :]
    pairs = x[..., :, None] * y[..., None, :]
    return pairs.reshape(pairs.shape[:-2] + (op.n * op.nu,)) @ op.pair_matrix


def _broadcast_normalized(op, s):
    fs, ms = fold_columns(np.add, s[..., : op.n]), fold_columns(np.add, s[..., op.n :])
    return _broadcast_raw(op, s) / (fs * ms)[..., None]


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    batch_shape,
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_kernels_are_the_broadcast_formulas_bit_for_bit(n, nu, batch, nonnegative, seed):
    rng = np.random.default_rng(seed)
    op = GonosomalOperator(random_tensor(rng, n, nu, nonnegative=nonnegative))
    shape = batch + (n + nu,)
    spread = 10.0 ** rng.integers(-6, 7, size=shape)
    signed = rng.uniform(-3.0, 3.0, size=shape) * spread
    assert _same_bits(op.apply_raw(signed), _broadcast_raw(op, signed))
    # positive states, so that both block sums can be divided by
    positive = rng.uniform(0.01, 1.0, size=shape) * spread
    assert _same_bits(op.apply_raw(positive), _broadcast_raw(op, positive))
    assert _same_bits(op.apply_normalized(positive), _broadcast_normalized(op, positive))


@pytest.mark.parametrize("n, nu", [(2, 2), (1, 3), (3, 2)])
def test_apply_raw_is_the_broadcast_formula_on_special_values(n, nu):
    rng = np.random.default_rng(11)
    op = OP if (n, nu) == (2, 2) else GonosomalOperator(random_tensor(rng, n, nu))
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, -2.0])
    states = rng.choice(special, size=(200, n + nu))
    states[0] = -0.0
    with np.errstate(invalid="ignore"):
        assert _same_bits(op.apply_raw(states), _broadcast_raw(op, states))
        for s in states[:20]:
            assert _same_bits(op.apply_raw(s), _broadcast_raw(op, s))


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 4), batch_shape, st.integers(0, 2**32 - 1))
def test_fold_columns_matches_numpy_reduce(cols, batch, seed):
    a = np.random.default_rng(seed).uniform(-3.0, 3.0, size=batch + (cols,))
    np.testing.assert_array_equal(fold_columns(np.add, a), a.sum(axis=-1))
    np.testing.assert_array_equal(fold_columns(np.maximum, a), a.max(axis=-1))
    np.testing.assert_array_equal(fold_columns(np.minimum, a), a.min(axis=-1))
    if cols == 1 and batch:
        assert not np.shares_memory(fold_columns(np.add, a), a)


@pytest.mark.parametrize(
    "obj, name",
    [(hemophilia_tensor(), "gamma_f"), (GonosomalOperator(hemophilia_tensor()), "_tensor")],
    ids=["InheritanceTensor", "GonosomalOperator"],
)
def test_value_classes_refuse_setting_and_deleting_an_attribute(obj, name):
    message = f"^{type(obj).__name__} is immutable$"
    with pytest.raises(AttributeError, match=message):
        setattr(obj, name, None)
    with pytest.raises(AttributeError, match=message):
        delattr(obj, name)
    with pytest.raises(AttributeError, match=message):
        obj.extra = 1


def _loose_tensor(tmp_path):
    # a row off by 5e-10: inside load_tensor's 1e-9, outside the default 1e-12
    path = tmp_path / "loose.tensor"
    path.write_text("1 1\n0.5 0.5000000005\n")
    return load_tensor(path)[0]


@pytest.mark.parametrize(
    "make",
    [lambda _: hemophilia_tensor(), lambda _: OP, _loose_tensor,
     lambda path: GonosomalOperator(_loose_tensor(path))],
    ids=["hemophilia-tensor", "hemophilia-operator", "loose-tensor", "loose-operator"],
)
def test_value_classes_copy_as_themselves_and_pickle_through_their_constructors(make, tmp_path):
    obj = make(tmp_path)
    assert copy.copy(obj) is obj
    assert copy.deepcopy(obj) is obj
    restored = pickle.loads(pickle.dumps(obj))
    assert type(restored) is type(obj)
    tensors = [getattr(x, "tensor", x) for x in (obj, restored)]
    for name in ("gamma_f", "gamma_m"):
        before, after = (getattr(t, name) for t in tensors)
        np.testing.assert_array_equal(after, before)
        assert not after.flags.writeable
    if isinstance(obj, GonosomalOperator):
        np.testing.assert_array_equal(restored.pair_matrix, obj.pair_matrix)
        assert not restored.pair_matrix.flags.writeable
        state = np.linspace(0.5, 1.5, obj.dim)
        assert restored.apply_raw(state).tobytes() == obj.apply_raw(state).tobytes()


_RECORD_FIELDS = ("iterates", "step_indices", "stop_reason", "steps_taken", "limit", "mode")
_VERDICT_FIELDS = ("kind", "escape_sum", "forward_steps", "terms")


@pytest.mark.parametrize(
    "make, fields",
    [
        (lambda: OP.iterate([2e12, 0.0, 1.0, 1.0]), _RECORD_FIELDS),
        (lambda: OP.iterate([2.0, 0.0, 2.0, 0.0]), _RECORD_FIELDS),
        (lambda: OP.iterate([1.0, 1.0, 1.0, 1.0], budget=5), _RECORD_FIELDS),
        (lambda: OP.iterate([0.3, 0.2, 0.4, 0.1], mode="normalized", budget=1005),
         _RECORD_FIELDS),
        (lambda: classify_limit([0.0, 0.0, 1.0, 1.0]), _VERDICT_FIELDS),
        (lambda: classify_limit([-1.0, 0.5, 0.25, -0.125]), _VERDICT_FIELDS),
        (lambda: classify_limit([2.0, 0.0, 2.0, 0.0]), _VERDICT_FIELDS),
        (lambda: classify_limit([-0.84, -1.88, 1.23, 0.25]), _VERDICT_FIELDS),
    ],
    ids=["diverged", "converged", "budget", "thinned",
         "zero-block", "sup-norm-zero", "carrier-free", "series"],
)
def test_records_and_verdicts_refuse_setting_any_field(make, fields):
    # whatever path built it, no field of a record or verdict can be set
    obj = make()
    before = [getattr(obj, name) for name in fields]
    for name, value in zip(fields, before):
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert all(getattr(obj, name) is value for name, value in zip(fields, before))


def test_hemophilia_operator_is_one_shared_immutable_instance():
    op = hemophilia_operator()
    assert hemophilia_operator() is op
    np.testing.assert_array_equal(op.pair_matrix, hemophilia_tensor().rows())
    with pytest.raises(ValueError):
        op.pair_matrix[0, 0] = 1.0
    with pytest.raises(AttributeError):
        op.tensor = hemophilia_tensor()
    with pytest.raises(AttributeError):
        op.tensor.gamma_f = np.zeros((2, 2, 2))
    np.testing.assert_array_equal(op.pair_matrix, hemophilia_tensor().rows())
    np.testing.assert_array_equal(op.tensor.gamma_f, hemophilia_tensor().gamma_f)


def _raw_step_cases():
    rng = np.random.default_rng(2024)
    yield "hemophilia", OP
    for nonnegative in (False, True):
        for n in range(1, 5):
            for nu in range(1, 5):
                label = f"{'nonnegative' if nonnegative else 'signed'}-{n}x{nu}"
                yield label, GonosomalOperator(random_tensor(rng, n, nu, nonnegative))


def _assert_steps_are_apply_raw(op, step, states):
    for s in states:
        got = step(s.tolist())
        assert type(got) is list and all(type(c) is float for c in got)
        assert _same_bits(np.array(got), op.apply_raw(s)), s


def _every_step_case(dim):
    """States of ``dim`` coordinates for the step tests, then states whose
    pair products overflow to inf, and inf meets -inf in the sum."""
    rng = np.random.default_rng(7)
    regular = np.concatenate([
        rng.uniform(-3.0, 3.0, (300, dim)),
        rng.uniform(0.0, 1.0, (300, dim)) * 10.0 ** rng.integers(-8, 9, (300, 1)),
        # signed zeros, and subnormals beside zeros and ones
        rng.choice([0.0, -0.0, 1.0, -1.0], (100, dim)),
        rng.choice([5e-324, -5e-324, 1e-310, -2.5e-308, 0.0, -0.0, 1.0], (100, dim)),
        # coordinates near 1e150 and near 1e-150: pair products near 1e±300
        rng.uniform(-1.0, 1.0, (200, dim)) * 10.0 ** rng.choice([-150, 150], (200, 1)),
    ])
    overflowing = rng.choice([1e200, -1e200, 1e160, -3.0, 0.5, 0.0], (200, dim))
    return regular, overflowing


def _assert_step_is_apply_raw_on_every_case(op, step):
    regular, overflowing = _every_step_case(op.dim)
    _assert_steps_are_apply_raw(op, step, regular)
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_steps_are_apply_raw(op, step, overflowing)
        images = op.apply_raw(overflowing)
    assert np.isinf(images).any() and (op.dim == 2 or np.isnan(images).any())


@pytest.mark.parametrize("op", [pytest.param(op, id=label) for label, op in _raw_step_cases()])
def test_raw_step_is_apply_raw_bit_for_bit(op):
    # stepper() asked for again before each state: the thread's one
    # stepper for op, its buffers reused over every state
    _assert_step_is_apply_raw_on_every_case(op, lambda values: op.stepper()(values))


@pytest.mark.parametrize("op", [pytest.param(op, id=label) for label, op in _raw_step_cases()])
def test_one_stepper_is_apply_raw_bit_for_bit_over_every_case(op):
    # one stepper, its buffers reused over all 1200 states: a pair or image
    # entry left over from an earlier state would show as a mismatch
    _assert_step_is_apply_raw_on_every_case(op, op.stepper())


def _run_in_thread(work):
    """Run ``work()`` in a new thread, joined before returning; re-raise
    what it raised, else return what it returned."""
    out = []

    def target():
        try:
            out.append((True, work()))
        except BaseException as exc:  # handed to the calling thread
            out.append((False, exc))

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(out) == 1
    ok, value = out[0]
    if not ok:
        raise value
    return value


@pytest.mark.parametrize("op", [pytest.param(op, id=label) for label, op in _raw_step_cases()])
def test_a_fresh_stepper_in_each_thread_is_apply_raw_bit_for_bit(op):
    # ten short-lived threads in turn, each building its own stepper for op
    # and stepping its tenth of the states first on freshly allocated
    # buffers, whose unset entries must not reach the image
    regular, overflowing = _every_step_case(op.dim)
    mine = op.stepper()

    def work(states):
        step = op.stepper()
        assert step is not mine
        with np.errstate(over="ignore", invalid="ignore"):
            _assert_steps_are_apply_raw(op, step, states)
        return step

    steps = [_run_in_thread(partial(work, chunk))
             for chunk in np.array_split(np.concatenate([regular, overflowing]), 10)]
    assert len(set(map(id, steps))) == 10 and op.stepper() is mine


def test_a_thread_gets_the_same_stepper_until_it_asks_for_another_operator():
    other = dict(_raw_step_cases())["signed-2x2"]
    step = OP.stepper()
    assert OP.stepper() is step
    # another thread builds its own, and keeps it over its own calls
    theirs = _run_in_thread(lambda: (OP.stepper(), OP.stepper()))
    assert theirs[0] is theirs[1] is not step
    # asking for another operator replaces the thread's stepper
    assert other.stepper() is other.stepper()
    fresh = OP.stepper()
    assert fresh is not step and OP.stepper() is fresh
    ones = [1.0, 1.0, 1.0, 1.0]
    assert fresh(ones) == step(ones) == OP.apply_raw(ones).tolist()


def test_a_single_pair_step_gives_the_matrix_products_signed_zero():
    # a 1x1 tensor has one pair product, which np.dot multiplies as a
    # scalar: -5e-324 times the female coefficient underflows to -0.0 there,
    # and to the +0.0 of apply_raw in the matrix product
    op = dict(_raw_step_cases())["nonnegative-1x1"]
    state = [1.0, -5e-324]
    expected = op.apply_raw(state)
    assert expected[0] == 0.0 and not np.signbit(expected[0])
    step = op.stepper()
    step([0.5, 0.5])
    assert _same_bits(np.array(step(state)), expected)


@pytest.mark.parametrize(
    "values",
    [
        [1, 1, 1, 1],
        [np.float64(0.3), np.float64(0.2), 0.4, np.float64(0.1)],
        [np.int64(3), np.int64(0), 3, np.int64(-1)],
        [True, 0.5, 1.0, False],
    ],
    ids=["python-ints", "float64-scalars", "int64-scalars", "bools"],
)
def test_a_step_takes_what_numpy_stores_as_a_float(values):
    expected = OP.apply_raw(values)
    step = OP.stepper()
    step([0.3, 0.2, 0.4, 0.1])
    assert _same_bits(np.array(step(values)), expected)


def test_a_step_refuses_an_int_pair_product_too_large_for_a_double():
    with pytest.raises(ValueError):
        OP.stepper()([2**600, 0, 2**600, 0])


def test_a_stepper_returns_a_new_list_that_later_calls_leave_alone():
    step = OP.stepper()
    first = step([1.0, 1.0, 1.0, 1.0])
    kept = list(first)
    second = step([3.0, 0.0, 3.0, 0.0])
    assert first == kept == OP.apply_raw([1.0, 1.0, 1.0, 1.0]).tolist()
    assert second == [4.5, 0.0, 4.5, 0.0] and second is not first


@pytest.mark.parametrize("op", [pytest.param(op, id=label) for label, op in _raw_step_cases()])
def test_two_steppers_used_in_turn_agree(op):
    # two orbits stepped alternately, each by its own stepper, then again
    # with the steppers swapped: each orbit is the same whichever steps it
    # (a signed orbit may reach inf and NaN)
    rng = np.random.default_rng(11)
    a, b = op.stepper(), op.stepper()
    starts = rng.uniform(-1.0, 1.0, (2, op.dim)).tolist()

    def alternate(first, second):
        p, q, orbits = *starts, ([], [])
        for _ in range(20):
            p, q = first(p), second(q)
            orbits[0].append(p)
            orbits[1].append(q)
        return np.array(orbits)

    with np.errstate(over="ignore", invalid="ignore"):
        assert _same_bits(alternate(a, b), alternate(b, a))


@pytest.mark.parametrize(
    "op",
    [pytest.param(op, id=label) for label, op in _raw_step_cases() if not label.startswith("non")],
)
def test_the_kernel_keeps_the_sign_symmetry_bit_for_bit(op):
    # W(εx, δy) = εδ·W(x, y) holds in floats too: each pair product and
    # each sum of them only changes sign, which rounding to nearest keeps.
    # Magnitudes run from 1e-160, whose pair products are subnormal, up to
    # 1e150; the second iterate of the largest overflows, the same way for
    # both signs.  The classifier relies on this to classify a start whose
    # blocks each have one sign as |s|.
    rng = np.random.default_rng(op.dim)
    s = rng.uniform(-1.0, 1.0, (500, op.dim)) * 10.0 ** rng.uniform(-160.0, 150.0, (500, 1))
    step = op.stepper()
    with np.errstate(over="ignore", invalid="ignore"):
        image, second = [z.copy() for z in op.orbit(s, "raw", 2)]
        for signs in [(-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)]:
            flip = np.repeat(signs, [op.n, op.nu])
            sign = signs[0] * signs[1]
            flipped = s * flip
            assert _same_bits(op.apply_raw(flipped), sign * image)
            got = [z.copy() for z in op.orbit(flipped, "raw", 2)]
            assert _same_bits(got[0], sign * image) and _same_bits(got[1], second)
            for row, turned in zip(s[:100].tolist(), flipped[:100].tolist()):
                assert _same_bits(np.array(step(turned)), sign * np.array(step(row)))


def test_wrong_arity_rejected():
    with pytest.raises(DimensionMismatchError):
        OP.apply_raw([1.0, 2.0, 3.0])


@settings(deadline=None, max_examples=200)
@given(state_strategy)
def test_sum_product_identity(state):
    s = np.array(state)
    fs, ms = OP.block_sums(s)
    residual = OP.sum_product_residual(s)
    assert residual <= 1e-12 * max(1.0, abs(fs * ms))


@settings(deadline=None, max_examples=200)
@given(state_strategy, st.floats(min_value=0.1, max_value=5.0))
def test_female_block_scaling(state, a):
    s = np.array(state)
    scaled = s.copy()
    scaled[:2] *= a
    base = OP.apply_raw(s)
    np.testing.assert_allclose(
        OP.apply_raw(scaled), a * base, rtol=0, atol=1e-12 * max(1.0, np.abs(base).max())
    )


def test_normalized_scale_invariance():
    s = np.array([0.4, 0.3, 0.8, 0.1])
    scaled = s * np.array([7.0, 7.0, 0.25, 0.25])
    np.testing.assert_allclose(
        OP.apply_normalized(scaled), OP.apply_normalized(s), rtol=0, atol=1e-14
    )


def test_annihilated_state_raises():
    with pytest.raises(AnnihilatedStateError) as err:
        OP.apply_normalized([0.0, 0.0, 1.0, 1.0])
    assert err.value.step == 0
    with pytest.raises(AnnihilatedStateError):
        OP.apply_normalized([1.0, 1.0, 0.0, 0.0])


# positive block sums whose product underflows to a subnormal or zero, or
# overflows: the quotient would be wrong (0.27087 for 0.270833 on the
# second) or NaN
_UNDIVIDABLE = [[1e-200, 0.0, 1e-200, 0.0], [1e-160] * 4, [1e200, 0.0, 1e200, 0.0]]


@pytest.mark.parametrize("state", _UNDIVIDABLE)
@np.errstate(over="ignore")
def test_block_product_outside_the_normal_range_raises(state):
    with pytest.raises(AnnihilatedStateError):
        OP.apply_normalized(state)
    with pytest.raises(AnnihilatedStateError):
        OP.jacobian_normalized(state)
    # one such row refuses the whole batch
    with pytest.raises(AnnihilatedStateError):
        OP.apply_normalized([[0.25, 0.25, 0.25, 0.25], state])
    if max(state) > 1e12:
        # iterate declares so large a start divergent before stepping
        assert OP.iterate(state, mode="normalized").stop_reason is StopReason.DIVERGED
        return
    with pytest.raises(AnnihilatedStateError) as err:
        OP.iterate(state, mode="normalized")
    assert err.value.step == 0


# Block sums at and around every edge of the guard: NaN, the infinities,
# both zeros, the guard 1e-300 and the next double up, factors whose product
# underflows (1e-160) or overflows (1e200), and ordinary values.
_GUARD_EDGES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, np.nextafter(1e-300, 1.0),
                1e-160, 1e200, 0.5, 1.0]


def _sums(fs, ms):
    # the batch guard's input: the block sums stacked with their product
    return np.stack([fs, ms, fs * ms])


@np.errstate(over="ignore", invalid="ignore")
def test_the_batch_guard_is_can_normalize_all():
    pairs = [(f, m) for f in _GUARD_EDGES for m in _GUARD_EDGES]
    outcomes = set()
    for f, m in pairs:
        fs, ms = np.array([f]), np.array([m])
        want = bool(can_normalize(fs, ms).all())
        assert can_normalize_all(_sums(fs, ms)) is want, (f, m)
        # the same pair beside a row that passes: one bad row refuses all
        fs, ms = np.array([0.5, f]), np.array([0.5, m])
        assert can_normalize_all(_sums(fs, ms)) is bool(can_normalize(fs, ms).all()), (f, m)
        outcomes.add(want)
    assert outcomes == {True, False}
    fs, ms = (np.array(c) for c in zip(*pairs))
    assert can_normalize_all(_sums(fs, ms)) is False
    # the 1e-300 edge, the underflowing and the overflowing product, one each
    assert can_normalize_all(_sums(np.array([np.nextafter(1e-300, 1.0)]), np.array([1.0])))
    assert not can_normalize_all(_sums(np.array([1e-300]), np.array([1.0])))
    assert not can_normalize_all(_sums(np.array([1e-160]), np.array([1e-160])))
    assert not can_normalize_all(_sums(np.array([1e200]), np.array([1e200])))
    # an empty batch passes, as the .all() of an empty mask does
    assert can_normalize_all(_sums(np.empty(0), np.empty(0))) is True
    assert can_normalize_all(_sums(np.empty((0, 3)), np.empty((0, 3)))) is True


@pytest.mark.parametrize("shape", [(3, 4), (2, 1, 5)])
@np.errstate(over="ignore", invalid="ignore")
def test_can_normalize_all_reduces_every_axis_of_a_stack(shape):
    # block sums of stacked batches: the guard must reduce over all axes,
    # not only the first, and agree with the full mask
    rng = np.random.default_rng(len(shape))
    size = int(np.prod(shape))
    for _ in range(200):
        fs = rng.choice(_GUARD_EDGES, size=size).reshape(shape)
        ms = rng.choice(_GUARD_EDGES, size=size).reshape(shape)
        assert can_normalize_all(_sums(fs, ms)) is bool(can_normalize(fs, ms).all())
    ok = rng.uniform(0.5, 1.0, size=shape)
    assert can_normalize_all(_sums(ok, ok)) is True
    for f in _GUARD_EDGES:
        fs = ok.copy()
        fs.flat[size - 1] = f  # one bad entry in the last row of the last batch
        assert can_normalize_all(_sums(fs, ok)) is bool(can_normalize(fs, ok).all()), f


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------


def test_jacobian_raw_matches_finite_differences():
    rng = np.random.default_rng(11)
    s = rng.uniform(-3, 3, size=(20, 4))
    h = 1e-6
    fd = np.empty((20, 4, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        fd[:, :, j] = (OP.apply_raw(s + e) - OP.apply_raw(s - e)) / (2 * h)
    assert np.abs(OP.jacobian_raw(s) - fd).max() <= 1e-6


def test_jacobian_normalized_matches_finite_differences():
    rng = np.random.default_rng(12)
    s = rng.uniform(0.2, 2.0, size=(20, 4))
    h = 1e-6
    fd = np.empty((20, 4, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        fd[:, :, j] = (OP.apply_normalized(s + e) - OP.apply_normalized(s - e)) / (2 * h)
    assert np.abs(OP.jacobian_normalized(s) - fd).max() <= 1e-6


def test_jacobian_eigenvalues_at_known_fixed_points():
    at_origin = np.linalg.eigvals(OP.jacobian_raw(np.zeros(4)))
    assert np.abs(at_origin).max() == 0.0
    at_pair = np.sort(np.linalg.eigvals(OP.jacobian_raw(np.array([2.0, 0, 2.0, 0]))).real)
    np.testing.assert_allclose(at_pair, [-0.5, 0.0, 1.0, 2.0], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------


def test_iterate_converges_to_origin():
    rec = OP.iterate([1.0, 1.0, 1.0, 1.0])
    assert rec.stop_reason is StopReason.CONVERGED
    assert rec.steps_taken == 15
    assert np.abs(rec.limit).max() <= 1e-30
    assert rec.step_indices[0] == 0 and rec.step_indices[-1] == 15


def test_iterate_diverges_fast():
    rec = OP.iterate([3.0, 0.0, 3.0, 0.0])
    assert rec.stop_reason is StopReason.DIVERGED
    assert rec.steps_taken == 7
    assert rec.limit is None


def test_iterate_exhausts_budget_and_thins():
    rec = OP.iterate([0.3, 0.2, 0.4, 0.1], mode="normalized", budget=3000)
    assert rec.stop_reason is StopReason.BUDGET_EXHAUSTED
    idx = set(rec.step_indices.tolist())
    assert rec.step_indices[-1] == 3000
    assert 1000 in idx and 1010 in idx
    assert 1001 not in idx
    assert len(rec.step_indices) == 1201


def test_iterate_normalized_from_annihilated_raises():
    with pytest.raises(AnnihilatedStateError) as err:
        OP.iterate([0.0, 0.0, 0.5, 0.5], mode="normalized")
    assert err.value.step == 0


def test_iterate_normalized_names_a_later_annihilation_step():
    # every pair has only sons: step 0 maps (1, 1) to (0, 1), which step 1
    # cannot divide by
    op = GonosomalOperator(InheritanceTensor([[[0.0]]], [[[1.0]]]))
    with pytest.raises(AnnihilatedStateError, match="at step 1") as err:
        op.iterate([1.0, 1.0], mode="normalized")
    assert err.value.step == 1


def test_iterate_fixed_point_is_immediate():
    rec = OP.iterate([2.0, 0.0, 2.0, 0.0])
    assert rec.stop_reason is StopReason.CONVERGED
    assert rec.steps_taken == 1
    np.testing.assert_array_equal(rec.limit, [2.0, 0.0, 2.0, 0.0])


def _reference_iterate(op, s0, mode="raw", budget=10_000, tol_fp=1e-12):
    """The plain numpy loop ``iterate`` must reproduce bit for bit: public
    maps, array-wide finiteness and sup-norm tests, a copy per kept step."""
    s = np.array(s0, dtype=float)

    def step(vec, k):
        if mode == "raw":
            return op.apply_raw(vec)
        try:
            return op.apply_normalized(vec)
        except AnnihilatedStateError:
            raise AnnihilatedStateError(f"annihilated at step {k}", step=k) from None

    kept_steps, kept = [0], [s.copy()]

    def record(reason, k, limit=None):
        if kept_steps[-1] != k:
            kept_steps.append(k)
            kept.append(s.copy())
        return reason, k, np.array(kept), np.array(kept_steps), limit

    if not np.isfinite(s).all() or np.abs(s).max() > 1e12:
        return record(StopReason.DIVERGED, 0)
    for k in range(1, budget + 1):
        s_next = step(s, k - 1)
        if not np.isfinite(s_next).all() or np.abs(s_next).max() > 1e12:
            s = s_next
            return record(StopReason.DIVERGED, k)
        settled = np.abs(s_next - s).max() <= tol_fp
        s = s_next
        if k <= 1000 or k % 10 == 0:
            kept_steps.append(k)
            kept.append(s.copy())
        if settled and np.abs(step(s, k) - s).max() <= tol_fp:
            return record(StopReason.CONVERGED, k, limit=s.copy())
    return record(StopReason.BUDGET_EXHAUSTED, budget)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@np.errstate(over="ignore", invalid="ignore")
def _assert_iterate_matches_reference(op, s0, **kw):
    try:
        expected = _reference_iterate(op, s0, **kw)
    except AnnihilatedStateError as exc:
        with pytest.raises(AnnihilatedStateError, match=f"at step {exc.step}\\b") as err:
            op.iterate(s0, **kw)
        assert err.value.step == exc.step
        return
    reason, steps, iterates, indices, limit = expected
    rec = op.iterate(s0, **kw)
    assert rec.stop_reason is reason
    assert rec.steps_taken == steps
    assert rec.mode == kw.get("mode", "raw")
    assert _same_bits(rec.step_indices, indices.astype(int))
    assert _same_bits(rec.iterates, iterates)
    assert (rec.limit is None) == (limit is None)
    if limit is not None:
        assert _same_bits(rec.limit, limit)


# sons of type 2 from the pair (1, 1); half daughters, half sons of type 1
# from (1, 2).  From (1/2, 0, 1/2) the orbit settles within 0.6 at step 1,
# on (1/2, 1/2, 0), which is no fixed point: its image (0, 0, 1) has no
# female mass
_SETTLES_THEN_ANNIHILATES = GonosomalOperator(
    InheritanceTensor([[[0.0], [0.5]]], [[[0.0, 1.0], [0.5, 0.0]]])
)


def _huge_signed_tensor(seed):
    """A signed 3+3 tensor whose pairs put ±h on the first two types of
    each block, |h| up to 1e300 (they cancel in the row sum), except the
    pair of the third types, which has none."""
    rng = np.random.default_rng(seed)
    h, g = rng.uniform(-1.0, 1.0, (2, 3, 3)) * 1e300
    h[2, 2] = g[2, 2] = 0.0
    a = rng.uniform(0.0, 1.0, (3, 3))
    return GonosomalOperator(
        InheritanceTensor(np.stack([h, -h, a], axis=-1), np.stack([g, -g, 1.0 - a], axis=-1))
    )


# iterate 1 of this start is near 1e10; iterate 2 overflows, to inf alone
# on the seed-0 tensor and with NaN on the seed-2 one
_HUGE_START = [1e-290, 2e-290, 1.0, 3e-290, 1e-290, 1.0]
_OVERFLOWING = {"inf": _huge_signed_tensor(0), "nan": _huge_signed_tensor(2)}

_ITERATE_CASES = [
    # thinning past step 1000, then budget exhaustion
    (OP, [0.3, 0.2, 0.4, 0.1], dict(mode="normalized", budget=3000)),
    # a last step past 1000 that is not a tenth: kept as well
    (OP, [0.3, 0.2, 0.4, 0.1], dict(mode="normalized", budget=1005)),
    (OP, [1.0, 1.0, 1.0, 1.0], dict(budget=5)),
    (OP, [1.0, 1.0, 1.0, 1.0], {}),
    (OP, [2.0, 0.0, 2.0, 0.0], {}),
    (OP, [3.0, 0.0, 3.0, 0.0], {}),
    # divergence at step 0, by size and by a non-finite start
    (OP, [2e12, 0.0, 1.0, 1.0], {}),
    (OP, [np.nan, 0.0, 1.0, 1.0], {}),
    (OP, [np.inf, 0.0, 1.0, 1.0], {}),
    # a coordinate of exactly ±1e12 is inside the bound (the hypot test
    # fails there and the exact one passes); the next double above is not
    (OP, [1e12, 0.0, -1e12, 0.0], {}),
    (OP, [-1e12, 0.0, 1.0, 0.0], {}),
    (OP, [float(np.nextafter(1e12, np.inf)), 0.0, 1.0, 1.0], {}),
    (OP, [0.0, 0.0, -float(np.nextafter(1e12, np.inf)), 0.0], dict(mode="normalized")),
    # iterate 1 of (4, 0, u, 0) is (2u, 0, 2u, 0), exactly: 1e12, inside
    # the bound, then the double above it
    (OP, [4.0, 0.0, 5e11, 0.0], {}),
    (OP, [4.0, 0.0, float(np.nextafter(1e12, np.inf)) / 2, 0.0], {}),
    # iterate 2 overflows to inf, or to inf and NaN, in both modes
    (_OVERFLOWING["inf"], _HUGE_START, {}),
    (_OVERFLOWING["inf"], _HUGE_START, dict(mode="normalized")),
    (_OVERFLOWING["nan"], _HUGE_START, {}),
    (_OVERFLOWING["nan"], _HUGE_START, dict(mode="normalized")),
    # block sums above the guard whose product underflows
    (OP, [1e-200, 0.0, 1e-200, 0.0], dict(mode="normalized")),
    # settled at step 1 (step 0.105 <= 0.2), but the residual 0.226 is not
    (OP, [2.1, 0.0, 2.1, 0.0], dict(tol_fp=0.2)),
    (OP, [2.1, 0.0, 2.1, 0.0], dict(tol_fp=np.float64(0.2))),
    # an int threshold, which both tests compare with float differences
    (OP, [2.1, 0.0, 2.1, 0.0], dict(tol_fp=1)),
    (OP, [0.3, 0.2, 0.4, 0.1], dict(mode="normalized", tol_fp=1)),
    # a start of Python ints
    (OP, [1, 1, 1, 1], {}),
    (OP, [3, 0, 3, 0], dict(mode="normalized")),
    # annihilation at step 0 and at a later named step
    (OP, [0.0, 0.0, 0.5, 0.5], dict(mode="normalized")),
    (GonosomalOperator(InheritanceTensor([[[0.0]]], [[[1.0]]])), [1.0, 1.0],
     dict(mode="normalized")),
    # the image formed by the convergence test at step 1 is iterate 2,
    # which step 2 cannot divide by
    (_SETTLES_THEN_ANNIHILATES, [0.5, 0.0, 0.5], dict(mode="normalized", tol_fp=0.6)),
]


@pytest.mark.parametrize("op, s0, kw", _ITERATE_CASES)
def test_iterate_matches_reference_loop(op, s0, kw):
    _assert_iterate_matches_reference(op, s0, **kw)


@pytest.mark.parametrize("mode", ["raw", "normalized"])
@pytest.mark.parametrize("kind", ["inf", "nan"])
def test_the_overflow_cases_reach_a_non_finite_iterate_at_step_2(kind, mode):
    # what the overflow cases of _ITERATE_CASES test: iterates 0 and 1
    # finite and inside the bound, iterate 2 not finite
    with np.errstate(over="ignore", invalid="ignore"):
        rec = _OVERFLOWING[kind].iterate(_HUGE_START, mode=mode)
    assert rec.stop_reason is StopReason.DIVERGED and rec.steps_taken == 2
    assert np.abs(rec.iterates[0]).max() == 1.0
    assert 1e9 < np.abs(rec.iterates[1]).max() < 1e11
    last = rec.iterates[2]
    assert np.isinf(last).any() and np.isnan(last).any() == (kind == "nan")


def _count_steppers(monkeypatch):
    built = []
    real = GonosomalOperator.stepper
    monkeypatch.setattr(GonosomalOperator, "stepper", lambda self: built.append(self) or real(self))
    return built


def test_iterate_steps_with_its_own_stepper(monkeypatch):
    # iterate builds one stepper per call, whatever ends it
    # (the normalized cases include annihilations named at steps 0, 1 and 2)
    built = _count_steppers(monkeypatch)
    for op, s0, kw in _ITERATE_CASES:
        built.clear()
        _assert_iterate_matches_reference(op, s0, **kw)
        assert built == [op]


def test_classify_limit_steps_with_its_own_stepper(monkeypatch):
    # a start with a sign change inside a block, two forward steps and
    # three series terms, all taken by the one stepper it builds
    built = _count_steppers(monkeypatch)
    verdict = classify_limit([1.73, -0.02, 0.99, 1.36])
    assert built == [hemophilia_operator()]
    assert verdict.kind.value == "Infinity"
    assert verdict.escape_sum == 0.017937310475815444
    assert (verdict.forward_steps, verdict.terms) == (2, 3)


def test_two_threads_iterate_the_shared_operator_as_sequential_runs():
    # each thread steps with its own stepper, so two threads stepping the
    # one shared hemophilia operator at once cannot mix their orbits.  Each
    # run of a thread is a normalized iterate that runs its whole budget,
    # so the threads overlap, then a raw iterate and a classify_limit with
    # forward steps and series terms, which share the thread's stepper
    starts = [[0.3, 0.2, 0.4, 0.1], [0.1, 0.4, 0.2, 0.3]]
    raw_starts = [[1.0, 1.0, 1.0, 1.0], [2.0, 0.0, 2.001, 0.0]]
    signed = [[1.73, -0.02, 0.99, 1.36], [-1.68, -1.51, -0.37, 1.66]]
    runs = 10

    def record_key(rec):
        return rec.stop_reason, rec.steps_taken, rec.iterates.tobytes(), rec.step_indices.tobytes()

    def key(j):
        verdict = classify_limit(signed[j])
        return (
            record_key(OP.iterate(starts[j], mode="normalized", budget=2000)),
            record_key(OP.iterate(raw_starts[j])),
            (verdict.kind, verdict.escape_sum, verdict.forward_steps, verdict.terms),
        )

    expected = [key(j) for j in range(2)]
    # the raw orbits and the verdicts take steps
    assert all(k[1][1] > 10 and k[2][2] + k[2][3] > 2 for k in expected)
    got = [[], []]

    def work(j):
        got[j] = [key(j) for _ in range(runs)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(j,)) for j in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[expected[0]] * runs, [expected[1]] * runs]


@pytest.mark.parametrize("kw", [dict(tol_fp=0.0), dict(tol_fp=-1.0),
                                dict(tol_fp=np.nan), dict(tol_fp=-np.inf)])
def test_iterate_rejects_thresholds_that_are_not_positive(kw):
    with pytest.raises(ValueError, match="must be positive"):
        OP.iterate([1.0, 1.0, 1.0, 1.0], **kw)


@pytest.mark.parametrize("mode", ["raw", "normalized"])
def test_iterate_matches_reference_loop_on_random_tensors(mode):
    rng = np.random.default_rng(31)
    for n in range(1, 5):
        for nu in range(1, 5):
            op = GonosomalOperator(random_tensor(rng, n, nu, nonnegative=mode == "normalized"))
            starts = np.concatenate([rng.uniform(0.0, 1.5, (3, op.dim)),
                                     rng.uniform(-2.0, 2.0, (3, op.dim))])
            for s0, tol_fp in zip(starts, [1e-12, 1e-6, 0.2] * 2):
                _assert_iterate_matches_reference(op, s0, mode=mode, budget=1200, tol_fp=tol_fp)


@settings(deadline=None, max_examples=150)
@given(
    st.tuples(*[st.floats(-1e6, 1e6, allow_nan=False)] * 4),
    st.sampled_from(["raw", "normalized"]),
    st.sampled_from([1e-12, 1e-6, 0.2]),
)
def test_iterate_matches_reference_loop_on_signed_states(s0, mode, tol_fp):
    _assert_iterate_matches_reference(OP, s0, mode=mode, budget=300, tol_fp=tol_fp)


# ---------------------------------------------------------------------------
# batch orbit
# ---------------------------------------------------------------------------


def _apply_loop(op, states, mode, steps):
    # the loop orbit replaced: one public map call per step, each checking
    # its input and allocating its output afresh
    step = op.apply_raw if mode == "raw" else op.apply_normalized
    cur = states
    for _ in range(steps):
        cur = step(cur)
        yield cur


def _assert_orbit_is_the_apply_loop(op, states, mode, steps):
    compared = 0
    # in step: each iterate is compared before orbit reuses its buffer
    for got, want in zip(op.orbit(states, mode, steps), _apply_loop(op, states, mode, steps)):
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        compared += 1
    assert compared == steps


def _probes_near(point, rng, count=32, radius=1e-3):
    # the attraction probe's starts: blends toward simplex draws at one radius
    z = sample_simplex(rng, count)
    offset = z - point
    scale = radius / np.abs(offset).max(axis=1, keepdims=True)
    return point + np.minimum(scale, 1.0) * offset


@pytest.mark.parametrize("seed", [0, 73411])
def test_orbit_is_the_apply_loop_on_the_attraction_probe(seed):
    probes = _probes_near(EQUILIBRIUM, np.random.default_rng(seed))
    _assert_orbit_is_the_apply_loop(OP, probes, "normalized", 5000)


def test_orbit_is_the_apply_loop_on_a_large_simplex_batch():
    batch = sample_simplex(np.random.default_rng(3), 10_000)
    _assert_orbit_is_the_apply_loop(OP, batch, "normalized", 50)


@np.errstate(over="ignore", invalid="ignore")
def test_orbit_is_the_apply_loop_through_overflow():
    batch = np.random.default_rng(4).uniform(-3.0, 3.0, size=(2000, 4))
    _assert_orbit_is_the_apply_loop(OP, batch, "raw", 80)
    # the batch does leave the finite range: to inf, then to NaN
    seen = [(np.isinf(c).any(), np.isnan(c).any()) for c in OP.orbit(batch, "raw", 80)]
    assert any(inf for inf, _ in seen) and seen[-1][1]


@pytest.mark.parametrize("mode", ["raw", "normalized"])
def test_orbit_is_the_apply_loop_on_one_state(mode):
    state = np.array([0.3, 0.2, 0.4, 0.1])
    _assert_orbit_is_the_apply_loop(OP, state, mode, 60)
    assert next(OP.orbit(list(state), mode, 1)).shape == (4,)


@settings(deadline=None, max_examples=100)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    batch_shape,
    st.sampled_from(["raw", "normalized"]),
    st.integers(0, 2**32 - 1),
)
def test_orbit_is_the_apply_loop_on_any_tensor(n, nu, batch, mode, seed):
    rng = np.random.default_rng(seed)
    nonnegative = mode == "normalized"
    op = GonosomalOperator(random_tensor(rng, n, nu, nonnegative=nonnegative))
    states = rng.uniform(0.01 if nonnegative else -1.0, 1.0, size=batch + (n + nu,))
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_orbit_is_the_apply_loop(op, states, mode, 12)


@pytest.mark.parametrize("mode", ["raw", "normalized"])
def test_orbit_is_the_apply_loop_on_stacked_batches(mode):
    # a 3-D stack used to be stepped column-major, which numpy multiplies
    # outside BLAS: at n = 1, nu = 3 and shape (2, 1, 4) the first raw
    # iterate differed from apply_raw in the last bit
    rng = np.random.default_rng(0)
    nonnegative = mode == "normalized"
    for n, nu in [(1, 3), (2, 2), (3, 1), (4, 4)]:
        op = GonosomalOperator(random_tensor(rng, n, nu, nonnegative=nonnegative))
        for batch in [(2, 1), (3, 4), (1, 5), (2, 2, 3)]:
            states = rng.uniform(0.01 if nonnegative else -1.0, 1.0, size=batch + (op.dim,))
            with np.errstate(over="ignore", invalid="ignore"):
                _assert_orbit_is_the_apply_loop(op, states, mode, 12)


@pytest.mark.parametrize("mode", ["raw", "normalized"])
@pytest.mark.parametrize("n, nu", [(2, 2), (3, 2)])
def test_orbit_is_the_apply_loop_on_every_input_layout(n, nu, mode):
    rng = np.random.default_rng(17)
    op = OP if (n, nu) == (2, 2) else GonosomalOperator(random_tensor(rng, n, nu, nonnegative=True))
    c_order = rng.uniform(0.05, 1.0, size=(30, op.dim))
    f_order = np.asfortranarray(c_order)
    strided = rng.uniform(0.05, 1.0, size=(30, 2 * op.dim))[:, ::2]
    assert f_order.flags.f_contiguous and not strided.flags.contiguous
    for states in (c_order, f_order, strided, rng.uniform(0.05, 1.0, size=(2, 3, op.dim))):
        _assert_orbit_is_the_apply_loop(op, states, mode, 40)
    # the iterates are column-major: each column of a 2-D batch is contiguous
    first = next(op.orbit(c_order, mode, 1))
    assert all(first[:, j].flags.c_contiguous for j in range(op.dim))


def _reference_orbit(op, states, mode, steps):
    # repeated apply_raw, in normalized mode over the block sums folded left
    # to right: apply_normalized is iterate 1 of orbit itself, so this forms
    # it from apply_raw, and refuses where can_normalize fails in any row
    cur = np.asarray(states, dtype=float)
    for _ in range(steps):
        image = op.apply_raw(cur)
        if mode == "normalized":
            fs, ms = fold_columns(np.add, cur[..., : op.n]), fold_columns(np.add, cur[..., op.n :])
            if not can_normalize(fs, ms).all():
                raise AnnihilatedStateError("refused")
            image = image / (fs * ms)[..., np.newaxis]
        cur = image
        yield cur


def _run(iterates):
    # copies of the iterates, and the error that ended the run (None if none did)
    kept = []
    try:
        for cur in iterates:
            kept.append(cur.copy())
    except AnnihilatedStateError as err:
        return kept, err
    return kept, None


def _assert_orbit_steps_and_refuses_as_the_references(op, states, mode, steps):
    got, err = _run(op.orbit(states, mode, steps))
    for reference in (_apply_loop, _reference_orbit):
        want, want_err = _run(reference(op, states, mode, steps))
        assert len(got) == len(want)
        assert all(_same_bits(g, w) for g, w in zip(got, want))
        assert (err is None) == (want_err is None)
    if err is not None:
        assert err.step == len(got)
    return len(got) if err is not None else None


def _male_only_tensor(rng, n, nu):
    # every pair has sons alone: iterate 1 has no female mass, so a
    # normalized orbit refuses at step 1
    return InheritanceTensor(np.zeros((n, nu, n)), rng.dirichlet(np.ones(nu), size=(n, nu)))


# Blocks of 8 and 9 types: numpy's add.reduce over a block of nine or more
# contiguous coordinates sums pairwise, not left to right, so a stepping
# loop that reduced there would lose the bits of the stacked batch.  Spread
# magnitudes make the order of the additions show in the last bits.
@pytest.mark.parametrize("mode", ["raw", "normalized"])
@pytest.mark.parametrize("n, nu", [(9, 2), (2, 9), (8, 8), (9, 1), (1, 9)])
@pytest.mark.parametrize(
    "batch", [(), (1,), (7,), (0,), (3, 4), (2, 0)],
    ids=["one-state", "one-row", "rows", "no-rows", "stack", "empty-stack"],
)
@np.errstate(over="ignore", invalid="ignore")
def test_orbit_is_the_reference_loop_on_wide_blocks_and_edge_shapes(n, nu, batch, mode):
    rng = np.random.default_rng(n * 10 + nu)
    nonnegative = mode == "normalized"
    op = GonosomalOperator(random_tensor(rng, n, nu, nonnegative=nonnegative))
    shape = batch + (op.dim,)
    spread = 10.0 ** rng.integers(-8, 9, size=shape)
    states = rng.uniform(0.01 if nonnegative else -1.0, 1.0, size=shape) * spread
    assert _assert_orbit_steps_and_refuses_as_the_references(op, states, mode, 12) is None
    # the same shapes on an orbit that loses its female mass
    op = GonosomalOperator(_male_only_tensor(rng, n, nu))
    refused = _assert_orbit_steps_and_refuses_as_the_references(op, states, mode, 4)
    assert refused == (1 if mode == "normalized" and 0 not in batch else None)


def _column_major_orbit(op, states, mode, steps):
    # the steps of a 2-D batch with apply_raw's product laid out as orbit
    # lays it out, pairs and image column-major, and the block sums folded
    # left to right
    cur = states
    for _ in range(steps):
        x, y = cur[:, : op.n], cur[:, op.n :]
        pairs = np.asfortranarray((x[:, :, None] * y[:, None, :]).reshape(len(cur), -1))
        image = np.matmul(pairs, op.pair_matrix, out=np.empty(cur.shape, order="F"))
        if mode == "normalized":
            image /= (fold_columns(np.add, x) * fold_columns(np.add, y))[:, np.newaxis]
        cur = image
        yield cur


# A 2-D batch of several rows steps column-major: its pairs and images are
# laid out as orbit lays them out, and formed by an independent loop.
@pytest.mark.parametrize("mode", ["raw", "normalized"])
@pytest.mark.parametrize("n, nu", [(2, 2), (9, 2), (2, 9)])
@np.errstate(over="ignore", invalid="ignore")
def test_a_batch_of_rows_is_stepped_column_major(n, nu, mode):
    rng = np.random.default_rng(n * 10 + nu)
    op = GonosomalOperator(random_tensor(rng, n, nu, nonnegative=True))
    states = rng.uniform(0.01, 1.0, size=(7, op.dim)) * 10.0 ** rng.integers(-8, 9, size=(7, op.dim))
    got, err = _run(op.orbit(states, mode, 12))
    want, _ = _run(_column_major_orbit(op, states, mode, 12))
    assert err is None and len(got) == len(want) == 12
    assert all(_same_bits(g, w) for g, w in zip(got, want))


def _first_pair_tensor(target):
    # 2 + 2 types, with the row of the pair (1, 1) set to ``target`` and the
    # others uniform: the start (1, 0, 1, 0) has block sums 1 and 1 and maps
    # to ``target`` exactly, so ``target`` is the iterate that step 1
    # guards.  The rows need not sum to one here.
    rows = np.array([target] + [(0.25,) * 4] * 3, dtype=float)
    return InheritanceTensor(
        rows[:, :2].reshape(2, 2, 2), rows[:, 2:].reshape(2, 2, 2), rowsum_tol=np.inf
    )


_ABOVE_GUARD = np.nextafter(1e-300, 1.0)


# Iterate 1 of each batch crosses one edge of the guard.  The guard first
# tries every fs, ms and g above 1e-300 with g finite, and falls back to
# can_normalize's exact rule: fs and ms above 1e-300, g normal and finite.
# (refusal step, or None when every step divides)
@pytest.mark.parametrize(
    "target, refused",
    [
        ((_ABOVE_GUARD, 0.0, 0.5, 0.5), None),  # fs just above the guard
        ((1e-300, 0.0, 0.5, 0.5), 1),  # fs at the guard
        # g = 1e-304, normal and below 1e-300: step 1 divides, and its
        # image underflows to zero, which step 2 refuses
        ((1e-152, 0.0, 1e-152, 0.0), 2),
        ((1e200, 0.0, 1e200, 0.0), 1),  # g overflows to inf
        ((1e300, 0.0, 1e10, 1.0 - 1e10), 2),  # inf - inf: iterate 2 is NaN
    ],
    ids=["fs-above", "fs-at", "g-below-shortcut", "g-inf", "nan"],
)
@np.errstate(over="ignore", invalid="ignore")
def test_the_guard_shortcut_never_changes_where_orbit_refuses(target, refused):
    op = GonosomalOperator(_first_pair_tensor(target))
    # the first row reaches target at step 1, the second a uniform state
    batch = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    for states in (batch, batch[0], batch[::-1], np.stack([batch, batch[::-1]])):
        got = _assert_orbit_steps_and_refuses_as_the_references(op, states, "normalized", 4)
        assert got == refused
    first = next(op.orbit(batch, "normalized", 1))
    assert first[0].tobytes() == np.array(target).tobytes()
    if target[0] == 1e-152:
        # the shortcut fails here and the exact rule passes
        fs, ms = np.array([target[0]]), np.array([target[2]])
        assert (fs * ms)[0] <= 1e-300 and can_normalize_all(_sums(fs, ms))


@np.errstate(over="ignore", invalid="ignore")
def test_the_batch_guard_of_views_into_one_array_is_can_normalize_all():
    # orbit hands the guard its (3, rows) buffer whole, with fs, ms and g
    # as its rows; a column view of that buffer gets the same verdict, and
    # a row that passes beside one that fails cannot pass the batch
    outcomes = set()
    for f in _GUARD_EDGES:
        for m in _GUARD_EDGES:
            want = bool(can_normalize(np.array([f]), np.array([m])).all())
            outcomes.add(want)
            block = np.array([[f, 0.5], [m, 0.5], [f * m, 0.25]])
            assert can_normalize_all(block) is want, (f, m)
            assert can_normalize_all(block[:, :1]) is want, (f, m)
            assert can_normalize_all(block[:, 1:]) is True
    assert outcomes == {True, False}


@pytest.mark.parametrize("mode", ["raw", "normalized"])
def test_orbit_of_zero_steps_yields_nothing(mode):
    assert list(OP.orbit(np.full((3, 4), 0.25), mode, 0)) == []


def test_orbit_keeps_two_iterates_and_never_writes_its_input():
    start = sample_simplex(np.random.default_rng(5), 8)
    kept = start.copy()
    orbit = OP.orbit(start, "normalized", 3)
    first = next(orbit)
    first_bits = first.tobytes()
    second = next(orbit)
    # the previous iterate holds while the next is in hand
    assert first.tobytes() == first_bits
    assert not np.shares_memory(first, second)
    np.testing.assert_array_equal(second, OP.apply_normalized(OP.apply_normalized(kept)))
    next(orbit)
    assert start.tobytes() == kept.tobytes()


def test_orbit_checks_its_input():
    with pytest.raises(DimensionMismatchError):
        next(OP.orbit([1.0, 2.0, 3.0], "raw", 1))
    with pytest.raises(ValueError, match="mode must be"):
        next(OP.orbit([0.25] * 4, "other", 1))


def test_normalized_orbit_refuses_an_annihilated_start_at_step_0():
    # a zero block in one row refuses the batch before any division, so no
    # RuntimeWarning escapes
    batch = np.array([[0.25, 0.25, 0.25, 0.25], [0.0, 0.0, 0.5, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AnnihilatedStateError, match="at step 0") as err:
            next(OP.orbit(batch, "normalized", 5))
    assert err.value.step == 0


def test_normalized_orbit_names_a_later_annihilation_step():
    # every pair has only sons: step 0 maps (1, 1) to (0, 1), which step 1
    # cannot divide by; iterate names the same step
    op = GonosomalOperator(InheritanceTensor([[[0.0]]], [[[1.0]]]))
    orbit = op.orbit([[1.0, 1.0], [2.0, 0.5]], "normalized", 5)
    np.testing.assert_array_equal(next(orbit), [[0.0, 1.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AnnihilatedStateError, match="at step 1") as err:
            next(orbit)
    assert err.value.step == 1
    with pytest.raises(AnnihilatedStateError) as err:
        op.iterate([1.0, 1.0], mode="normalized")
    assert err.value.step == 1


# ---------------------------------------------------------------------------
# state containers
# ---------------------------------------------------------------------------


def test_as_state_vector_rejects_a_scalar():
    with pytest.raises(DimensionMismatchError, match="scalar"):
        as_state_vector(1.0)


def test_iterate_rejects_a_bad_mode_budget_or_batch():
    with pytest.raises(ValueError, match="mode must be"):
        OP.iterate([1.0, 1.0, 1.0, 1.0], mode="both")
    with pytest.raises(ValueError, match="budget must be at least 1"):
        OP.iterate([1.0, 1.0, 1.0, 1.0], budget=0)
    with pytest.raises(DimensionMismatchError, match="single state"):
        OP.iterate(np.ones((2, 4)))


@pytest.mark.parametrize(
    "call",
    [OP.iterate, membership, classify_limit, normalize_fixed_point, denormalize_fixed_point],
    ids=["iterate", "membership", "classify_limit", "normalize", "denormalize"],
)
def test_every_single_state_function_rejects_a_batch_alike(call):
    batch = np.tile([0.5, 0.0, 0.5, 0.0], (2, 1))
    with pytest.raises(DimensionMismatchError) as err:
        call(batch)
    assert type(err.value) is DimensionMismatchError
    assert str(err.value) == "expected a single state"


@pytest.mark.parametrize(
    "call",
    [membership, classify_limit, normalize_fixed_point, require_simplex_state],
    ids=["membership", "classify_limit", "normalize", "require_simplex_state"],
)
def test_every_state_check_rejects_a_nan_coordinate_alike(call):
    with pytest.raises(ValueError) as err:
        call([np.nan, 0.5, 0.25, 0.25])
    assert type(err.value) is ValueError
    assert str(err.value) == "state has a non-finite coordinate"


def test_as_state_vector_batch_shape():
    batch = np.zeros((7, 3, 4))
    assert as_state_vector(batch, 4).shape == (7, 3, 4)


# ---------------------------------------------------------------------------
# tensor files
# ---------------------------------------------------------------------------


def test_dump_load_round_trip(tmp_path):
    for mode in ("raw", "normalized"):
        path = tmp_path / f"{mode}.tensor"
        path.write_text(dump_tensor(hemophilia_tensor(), mode=mode))
        loaded, loaded_mode = load_tensor(path)
        assert loaded_mode == mode
        np.testing.assert_array_equal(loaded.gamma_f, hemophilia_tensor().gamma_f)
        np.testing.assert_array_equal(loaded.gamma_m, hemophilia_tensor().gamma_m)


def test_load_tensor_defaults_to_raw_without_mode_line(tmp_path):
    text = dump_tensor(hemophilia_tensor(), mode="raw")
    body = "\n".join(l for l in text.splitlines() if not l.startswith("mode"))
    path = tmp_path / "nomode.tensor"
    path.write_text(body + "\n")
    _, mode = load_tensor(path)
    assert mode == "raw"


def test_load_tensor_accepts_comments_and_blank_lines(tmp_path):
    text = dump_tensor(hemophilia_tensor(), mode="raw")
    lines = ["# crossing table", ""]
    for line in text.splitlines():
        lines.extend([line, "# next"])
    path = tmp_path / "commented.tensor"
    path.write_text("\n".join(lines) + "\n")
    loaded, _ = load_tensor(path)
    np.testing.assert_array_equal(loaded.rows(), hemophilia_tensor().rows())


def test_load_tensor_rejects_bad_row_sum(tmp_path):
    path = tmp_path / "bad.tensor"
    path.write_text("2 2\n0.5 0 0.4 0\n0 0.5 0.5 0\n0.25 0.25 0.25 0.25\n0 0.4 0.3 0.3\n")
    with pytest.raises(TensorFormatError):
        load_tensor(path)


def test_load_tensor_rejects_negative_in_normalized_mode(tmp_path):
    path = tmp_path / "signed.tensor"
    path.write_text(
        "mode normalized\n2 2\n1.5 0 -0.5 0\n0 0.5 0.5 0\n"
        "0.25 0.25 0.25 0.25\n0 0.4 0.3 0.3\n"
    )
    with pytest.raises(TensorFormatError):
        load_tensor(path)


def test_load_tensor_rejects_wrong_row_count(tmp_path):
    path = tmp_path / "short.tensor"
    path.write_text("2 2\n0.5 0 0.5 0\n")
    with pytest.raises(TensorFormatError):
        load_tensor(path)


def test_load_tensor_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.tensor"
    path.write_text("garbage here\n")
    with pytest.raises(TensorFormatError):
        load_tensor(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("# a comment only\n\n", "no content lines"),
        ("mode fancy\n1 1\n0.5 0.5\n", "mode line must read"),
        ("mode raw\n", "missing 'n nu' header"),
        ("0 2\n", "counts must be positive"),
        ("1 1\n0.5 zebra\n", "not whitespace-separated numbers"),
        ("1 1\n0.5 0.25 0.25\n", "expected 2 coefficients, got 3"),
        # NaN fails the row-sum comparison: the row loop must catch it itself
        ("1 1\nnan 1\n", "bad.tensor:2: tensor entries must be finite"),
        ("1 1\n# a comment\n0.5 inf\n", "bad.tensor:3: tensor entries must be finite"),
        ("1 1\n-inf inf\n", "bad.tensor:2: tensor entries must be finite"),
    ],
    ids=["empty", "mode-line", "no-header", "zero-count", "non-numeric", "row-length", "nan",
         "inf", "inf-minus-inf"],
)
def test_load_tensor_rejects_malformed_files(tmp_path, text, message):
    path = tmp_path / "bad.tensor"
    path.write_text(text)
    with pytest.raises(TensorFormatError, match=message):
        load_tensor(path)


@pytest.mark.parametrize("mode", ["raw", "normalized"])
@pytest.mark.parametrize("nonnegative", [True, False], ids=["nonnegative", "signed"])
def test_dump_tensor_writes_only_files_that_load_tensor_accepts(tmp_path, mode, nonnegative):
    tensor = random_tensor(np.random.default_rng(3), 2, 3, nonnegative=nonnegative)
    assert tensor.is_nonnegative() is nonnegative
    if mode == "normalized" and not nonnegative:
        with pytest.raises(ValueError, match="signed tensor cannot be written in mode normalized"):
            dump_tensor(tensor, mode=mode)
        return
    path = tmp_path / "dumped.tensor"
    path.write_text(dump_tensor(tensor, mode=mode))
    loaded, loaded_mode = load_tensor(path)
    assert loaded_mode == mode
    np.testing.assert_array_equal(loaded.rows(), tensor.rows())


def test_dump_tensor_rejects_a_bad_mode():
    with pytest.raises(ValueError, match="mode must be"):
        dump_tensor(hemophilia_tensor(), mode="both")
