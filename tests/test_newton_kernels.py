"""The kernels of the fixed-point search against their reference formulas,
bit for bit.

The normalized Jacobian, the reduced chart product and the embedding serve
the reports and checks at a root.  Each must give every bit of its
broadcast formula below (the embedding sums with ``r.sum(axis=-1)``), as
the singular screen must of its ``axis=(1, 2)`` reductions.  Newton itself
solves W(s) = s in both modes: the normalized search must hand it the raw
residual and Jacobian, seeded at ``p / (fs * ms)`` from its simplex draws.
Each comparison includes the sign of each zero.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gonosomal import spectral
from gonosomal.normalized import embed_reduced, reduced_jacobian_at, sample_simplex
from gonosomal.operator import GonosomalOperator, fold_columns, hemophilia_operator
from gonosomal.verify import random_tensor

OP = hemophilia_operator()

# one state, a batch, and a stack of batches
BATCHES = [(), (7,), (2, 3)]


def _assert_same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


# ---------------------------------------------------------------------------
# the oracles
# ---------------------------------------------------------------------------


def _broadcast_jacobian_normalized(op, s):
    x, y = s[..., : op.n], s[..., op.n :]
    fs, ms = fold_columns(np.add, x), fold_columns(np.add, y)
    g = (fs * ms)[..., np.newaxis]
    v = op.apply_raw(s) / g
    dg = np.concatenate(
        [
            np.broadcast_to(ms[..., np.newaxis], fs.shape + (op.n,)),
            np.broadcast_to(fs[..., np.newaxis], fs.shape + (op.nu,)),
        ],
        axis=-1,
    )
    jw = op.jacobian_raw(s)
    return jw / g[..., np.newaxis] - v[..., :, np.newaxis] * (dg / g)[..., np.newaxis, :]


def _sum_embed(r, eliminate, dim):
    eliminate = range(dim)[eliminate]
    full = np.empty(r.shape[:-1] + (dim,))
    full[..., np.arange(dim) != eliminate] = r
    full[..., eliminate] = 1.0 - r.sum(axis=-1)
    return full


def _stacked_reduced_jacobian(op, s, eliminate):
    dim = op.dim
    pts = _sum_embed(np.eye(dim)[:, 1:], eliminate, dim)
    full_jac = _broadcast_jacobian_normalized(op, s)
    return np.delete(full_jac, eliminate, axis=-2) @ (pts[1:] - pts[0]).T


@np.errstate(over="ignore")  # the scale of a matrix with entries near 1e300
def _axis_screen(J):
    d = J.shape[-1]
    scale = np.maximum(np.abs(J).max(axis=(1, 2)), 1.0) ** d
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~np.isfinite(J).all(axis=(1, 2))
        det = np.where(bad, 0.0, np.linalg.det(np.where(np.isfinite(J), J, 0.0)))
        return bad | (np.abs(det) < 1e-14 * scale)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _operators():
    rng = np.random.default_rng(20)
    yield "hemophilia", OP
    for n in range(1, 5):
        for nu in range(1, 5):
            for nonnegative in (True, False):
                sign = "nonneg" if nonnegative else "signed"
                tensor = random_tensor(rng, n, nu, nonnegative=nonnegative)
                yield f"{n}x{nu}-{sign}", GonosomalOperator(tensor)


OPERATORS = [pytest.param(op, id=label) for label, op in _operators()]


def _divisible_states(op, batch, rng):
    # positive block sums spread over twelve decades, then states with exact
    # zeros: one unit per block (a vertex of the two block simplices) and
    # sampled states with one coordinate per block set to 0.0
    shape = batch + (op.dim,)
    states = [rng.uniform(0.01, 1.0, size=shape) * 10.0 ** rng.integers(-6, 7, size=shape)]
    vertex = np.zeros(shape)
    vertex[..., 0] = vertex[..., op.n] = 1.0
    states.append(vertex)
    zeros = sample_simplex(rng, int(np.prod(batch, dtype=int)), op.n, op.nu).reshape(shape)
    zeros[..., op.n - 1] = zeros[..., -1] = 0.0
    if op.n > 1 and op.nu > 1:
        states.append(zeros)
    return states


# ---------------------------------------------------------------------------
# the kernels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("op", OPERATORS)
@pytest.mark.parametrize("batch", BATCHES, ids=["1d", "2d", "3d"])
def test_jacobian_normalized_is_the_broadcast_formula(op, batch):
    rng = np.random.default_rng(op.dim * 10 + len(batch))
    for s in _divisible_states(op, batch, rng):
        _assert_same(op.jacobian_normalized(s), _broadcast_jacobian_normalized(op, s))


@pytest.mark.parametrize("op", OPERATORS)
@pytest.mark.parametrize("batch", BATCHES, ids=["1d", "2d", "3d"])
def test_reduced_jacobian_is_the_stacked_product_in_every_chart(op, batch):
    rng = np.random.default_rng(op.dim * 10 + len(batch) + 1)
    for s in _divisible_states(op, batch, rng):
        for eliminate in list(range(op.dim)) + [-1]:
            _assert_same(
                reduced_jacobian_at(s, eliminate, op), _stacked_reduced_jacobian(op, s, eliminate)
            )


@settings(deadline=None, max_examples=150)
@given(
    st.integers(2, 8),
    st.sampled_from(BATCHES + [(0,), (40,)]),
    st.integers(0, 2**32 - 1),
)
def test_embed_reduced_is_the_sum_formula(dim, batch, seed):
    rng = np.random.default_rng(seed)
    shape = batch + (dim - 1,)
    spread = 10.0 ** rng.integers(-8, 9, size=shape)
    specials = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], size=shape)
    for r in (rng.uniform(-3.0, 3.0, size=shape) * spread, specials):
        for eliminate in range(-dim, dim):
            _assert_same(embed_reduced(r, eliminate, dim), _sum_embed(r, eliminate, dim))


class _Captured(Exception):
    pass


@pytest.mark.parametrize("op", OPERATORS)
def test_normalized_search_hands_newton_the_raw_system(op, monkeypatch):
    # normalized mode solves W(s) = s from the raw points p / (fs * ms) on
    # the rays of its simplex draws, with the raw residual and Jacobian
    seen = {}

    def spy(fun, jac, seeds, *, tol):
        seen.update(fun=fun, jac=jac, seeds=seeds)
        raise _Captured

    monkeypatch.setattr(spectral, "_newton_multistart", spy)
    with pytest.raises(_Captured):
        spectral.find_fixed_points(op, mode="normalized", n_seeds=3, rng_seed=0)
    p = sample_simplex(np.random.default_rng(0), 3, op.n, op.nu)
    fs, ms = op.block_sums(p)
    _assert_same(seen["seeds"], p / (fs * ms)[:, np.newaxis])
    rng = np.random.default_rng(op.dim)
    points = [rng.uniform(-3.0, 3.0, size=batch + (op.dim,)) for batch in BATCHES]
    for s in points + [seen["seeds"], np.zeros(op.dim)]:
        _assert_same(seen["fun"](s), op.apply_raw(s) - s)
        _assert_same(seen["jac"](s), op.jacobian_raw(s) - np.eye(op.dim))


def _jacobian_stacks(rng, d):
    # finite, singular, zero and non-finite matrices side by side
    k = 40
    J = rng.normal(size=(k, d, d)) * 10.0 ** rng.integers(-20, 21, size=(k, 1, 1))
    J[1] = 0.0
    J[2] = -0.0
    J[3] = 1.0  # rank one
    J[4, 0, 0] = np.nan
    J[5, -1, -1] = np.inf
    J[6, 0, -1] = -np.inf
    J[7] = np.nan
    J[8, :, 0] = 1e300  # the scale overflows
    yield J
    yield J[:4]  # all finite
    yield J[4:8]  # none finite
    yield J[:1]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
def test_singular_screen_is_the_axis_reduction_formula(d):
    rng = np.random.default_rng(d)
    for J in _jacobian_stacks(rng, d):
        top = fold_columns(np.maximum, np.abs(J).reshape(-1, d * d))
        _assert_same(top, np.abs(J).max(axis=(1, 2)))
        _assert_same(spectral._singular(J), _axis_screen(J))
