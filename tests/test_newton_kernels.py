"""The kernels of the fixed-point search against their reference formulas,
bit for bit.

The normalized Jacobian, the reduced chart product and the embedding serve
the reports and checks at a root.  Each must give every bit of its
broadcast formula below (the embedding sums with ``r.sum(axis=-1)``).
Newton itself solves W(s) = s in both modes: the normalized search must
hand it the raw residual and Jacobian, seeded at ``p / (fs * ms)`` from its
simplex draws.  Each comparison includes the sign of each zero.  Newton's
singular screen, read from its one solve per iteration, must drop the
zero, rank-deficient, non-finite and ill-conditioned matrices, alone, with
no warning, and keep its verdicts when J and F are scaled together.
"""

import warnings

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
    """Stacks of finite, singular, zero and non-finite matrices side by
    side, each with residual vectors and which matrices are singular."""
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
    J[9] = np.diag([np.inf] + [1.0] * (d - 1))  # a finite step, -F[0] / inf = -0
    F = rng.normal(size=(k, d)) * 10.0 ** rng.integers(-20, 21, size=(k, 1))
    singular = np.zeros(k, dtype=bool)
    singular[[1, 2, 4, 5, 6, 7, 9]] = True
    # a 1 x 1 rank-one matrix is invertible, and a 1e300 column alone is
    # perfectly conditioned
    singular[[3, 8]] = d > 1
    for rows in (slice(None), slice(4), slice(4, 8), slice(1)):  # all, finite, non-finite, one
        yield J[rows], F[rows], singular[rows]


def _screen(J, F):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return spectral._newton_steps(J, F, fold_columns(np.maximum, np.abs(F)))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
def test_singular_screen_drops_degenerate_matrices(d):
    # zero, rank-one and non-finite matrices and the 1e300 column are
    # dropped, with no warning, and the finite random ones keep their steps
    rng = np.random.default_rng(d)
    for J, F, singular in _jacobian_stacks(rng, d):
        step, dropped = _screen(J, F)
        np.testing.assert_array_equal(dropped, singular)
        for i in np.flatnonzero(~singular):
            _assert_same(step[i], np.linalg.solve(J[i], -F[i]))
        # the same verdicts from the search, which lets no LinAlgError out:
        # the seeds start at residuals F and no trial step descends
        residuals = iter([F])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = spectral._newton_multistart(
                lambda x: next(residuals, np.full(x.shape, np.inf)),
                lambda x: J,
                np.zeros(F.shape),
                tol=1e-10,
            )
        assert run.drops["singular"] == singular.sum()
        assert run.drops["no_descent"] == len(J) - singular.sum()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("scale", [2.0**200, 2.0**-200])
def test_singular_screen_is_scale_free(d, scale):
    rng = np.random.default_rng(d)
    for J, F, _ in _jacobian_stacks(rng, d):
        with np.errstate(over="ignore"):
            J2, F2 = J * scale, F * scale
        # only a matrix that overflows to inf (the 1e300 column) may change,
        # and it becomes singular
        overflowed = np.isfinite(J).all(axis=(1, 2)) & ~np.isfinite(J2).all(axis=(1, 2))
        verdicts = _screen(J2, F2)[1]
        assert verdicts[overflowed].all()
        np.testing.assert_array_equal(verdicts[~overflowed], _screen(J, F)[1][~overflowed])


@pytest.mark.parametrize("d", [2, 3, 4, 7])
def test_one_exactly_singular_matrix_drops_its_seed_alone(d):
    # numpy fails the whole stack on the zero pivot; every other matrix gets
    # its own solve, bit for bit
    rng = np.random.default_rng(d + 100)
    J = rng.normal(size=(33, d, d)) + d * np.eye(d)
    F = rng.normal(size=(33, d))
    J[17, :, 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(J, -F[..., None])
    step, singular = _screen(J, F)
    np.testing.assert_array_equal(np.flatnonzero(singular), [17])
    assert np.isnan(step[17]).all()
    keep = np.arange(33) != 17
    _assert_same(step[keep], np.linalg.solve(J[keep], -F[keep][..., None])[..., 0])


def test_singular_screen_reads_the_condition_number_along_the_residual():
    # [[eps, 1], [0, 1]] has kappa about 2 / eps; along F = (1, 0) the step
    # is (-1 / eps, 0), a reading of 1 / eps: dropped above 2**50 (1.1e15)
    for eps, singular in ((1e-17, True), (1e-13, False)):
        J = np.array([[[eps, 1.0], [0.0, 1.0]]])
        step, dropped = _screen(J, np.array([[1.0, 0.0]]))
        np.testing.assert_array_equal(step, [[-1.0 / eps, 0.0]])
        assert dropped.tolist() == [singular]


@pytest.mark.parametrize("d", [1, 2, 4])
def test_singular_screen_keeps_a_seed_on_a_root(d):
    # F = 0 gives the step 0 and a reading 0 <= K * 0
    J = np.random.default_rng(d).normal(size=(5, d, d)) + d * np.eye(d)
    step, singular = _screen(J, np.zeros((5, d)))
    assert not singular.any()
    np.testing.assert_array_equal(step, 0.0)
