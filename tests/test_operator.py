"""Core operator tests: tensor validation, the bilinear map, Jacobians,
iteration, and the tensor file format."""

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
    dump_tensor,
    fold_columns,
    hemophilia_operator,
    hemophilia_tensor,
    load_tensor,
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


def test_tensor_row_sum_tolerance():
    gf = np.full((1, 1, 1), 0.5)
    gm = np.full((1, 1, 1), 0.5 + 1e-6)
    with pytest.raises(ValueError):
        InheritanceTensor(gf, gm)
    # loosening the tolerance admits the same data
    t = InheritanceTensor(gf, gm, rowsum_tol=1e-5)
    assert t.n == 1 and t.nu == 1


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
    st.tuples(st.integers(1, 6)),
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


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 4), batch_shape, st.integers(0, 2**32 - 1))
def test_fold_columns_matches_numpy_reduce(cols, batch, seed):
    a = np.random.default_rng(seed).uniform(-3.0, 3.0, size=batch + (cols,))
    np.testing.assert_array_equal(fold_columns(np.add, a), a.sum(axis=-1))
    np.testing.assert_array_equal(fold_columns(np.maximum, a), a.max(axis=-1))
    if cols == 1 and batch:
        assert not np.shares_memory(fold_columns(np.add, a), a)


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
    assert err.value.step is None
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


@pytest.mark.parametrize(
    "op, s0, kw",
    [
        # thinning past step 1000, then budget exhaustion
        (OP, [0.3, 0.2, 0.4, 0.1], dict(mode="normalized", budget=3000)),
        (OP, [1.0, 1.0, 1.0, 1.0], dict(budget=5)),
        (OP, [1.0, 1.0, 1.0, 1.0], {}),
        (OP, [2.0, 0.0, 2.0, 0.0], {}),
        (OP, [3.0, 0.0, 3.0, 0.0], {}),
        # divergence at step 0, by size and by a non-finite start
        (OP, [2e12, 0.0, 1.0, 1.0], {}),
        (OP, [np.nan, 0.0, 1.0, 1.0], {}),
        (OP, [np.inf, 0.0, 1.0, 1.0], {}),
        # block sums above the guard whose product underflows
        (OP, [1e-200, 0.0, 1e-200, 0.0], dict(mode="normalized")),
        # settled at step 1 (step 0.105 <= 0.2), but the residual 0.226 is not
        (OP, [2.1, 0.0, 2.1, 0.0], dict(tol_fp=0.2)),
        # annihilation at step 0 and at a later named step
        (OP, [0.0, 0.0, 0.5, 0.5], dict(mode="normalized")),
        (GonosomalOperator(InheritanceTensor([[[0.0]]], [[[1.0]]])), [1.0, 1.0],
         dict(mode="normalized")),
    ],
)
def test_iterate_matches_reference_loop(op, s0, kw):
    _assert_iterate_matches_reference(op, s0, **kw)


@pytest.mark.parametrize("kw", [dict(tol_fp=0.0), dict(tol_fp=-1.0),
                                dict(tol_fp=np.nan), dict(tol_fp=-np.inf)])
def test_iterate_rejects_thresholds_that_are_not_positive(kw):
    with pytest.raises(ValueError, match="must be positive"):
        OP.iterate([1.0, 1.0, 1.0, 1.0], **kw)


@settings(deadline=None, max_examples=150)
@given(
    st.tuples(*[st.floats(-1e6, 1e6, allow_nan=False)] * 4),
    st.sampled_from(["raw", "normalized"]),
    st.sampled_from([1e-12, 1e-6, 0.2]),
)
def test_iterate_matches_reference_loop_on_signed_states(s0, mode, tol_fp):
    _assert_iterate_matches_reference(OP, s0, mode=mode, budget=300, tol_fp=tol_fp)


# ---------------------------------------------------------------------------
# state containers
# ---------------------------------------------------------------------------


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
