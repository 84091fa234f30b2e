"""Core gonosomal evolution operator.

A two-sex population is described by a vector split into a female block of
length ``n`` and a male block of length ``nu``.  Reproduction is encoded by an
inheritance tensor: the pair (female type i, male type k) contributes
``gamma_f[i, k, j]`` offspring of female type j and ``gamma_m[i, k, l]``
offspring of male type l, and each pair's contributions over all offspring
types sum to one.  The raw evolution operator maps a state ``s = (x, y)`` to

    x'_j = sum_{i,k} gamma_f[i, k, j] * x_i * y_k
    y'_l = sum_{i,k} gamma_m[i, k, l] * x_i * y_k

which is bilinear in the two blocks.  Because the coefficients of each pair
sum to one, the total offspring mass equals the product of the block sums:
``sum(W(s)) = sum(x) * sum(y)``.

This module provides the tensor and operator types, the built-in hemophilia
model, trajectory iteration with divergence/convergence detection, a
plain-text tensor file format, and the state checks and float format that
every other module uses.

A per-step bulk path (the kernels, the scan step, Newton's residuals)
never reduces or broadcasts over a two- to four-wide trailing axis, which
numpy does row by row.  It works on whole columns: :func:`fold_columns`
reduces one column at a time, and :meth:`GonosomalOperator.orbit` steps
on transposed ``(dim, rows)`` views, whose rows are the columns, with one
numpy call per operation.  Newton's halving trials broadcast over the seed
axis alone, each seed's (halving, coordinate) block being contiguous:
19-22 us for 72 seeds, against 50-55 us column by column and 62-65 us over
the coordinate axis (timeit minima, shared 2-CPU Xeon VM).  Newton solves
W(s) = s in both of its modes, so
:meth:`GonosomalOperator.jacobian_normalized` and
``normalized.reduced_jacobian_at`` serve only the reports and checks at a
root, and broadcast over the state axis.

Many steps go one of two ways.  :meth:`GonosomalOperator.orbit` is the one
batch kernel, the one batch stepping path and the one guarded normalized
step of a batch: it checks its input once and steps between buffers
allocated up front.  ``apply_raw`` and ``apply_normalized`` are its
iterate 1, so it is bit for bit their repetition, and
``jacobian_normalized`` takes its image from ``apply_normalized``; the
scan, the attraction probe, the estimate probes, ``empirical_limits`` and
``classify_limits`` step with it.  The buffers of a batch are column-major
(``order="F"``), so their ``(dim, rows)`` views are contiguous: a step
forms every pair product with one broadcast multiply, adds each block's
rows left to right, and normalizes with one broadcast divide.  Its guard
:func:`can_normalize_all` shares with the division the one product of the
block sums, and reduces fs, ms and g, rows of one buffer, at once before
it falls back to the exact rule.
:meth:`GonosomalOperator.stepper` is the single-state path: a workspace
whose ``step`` stores the pair products, formed on Python floats, through a
memoryview of a buffer allocated once and makes one matrix product,
``pairs.dot(matrix, out=image)`` bound when the stepper is built (a BLAS
matrix-vector product, without ``np.matmul``'s gufunc dispatch or
``np.dot``'s ``__array_function__`` one), into a second one, bit for bit
``apply_raw``; a single-pair tensor keeps ``np.matmul``.  Each thread
keeps the stepper of the last operator it asked for, so ``iterate`` and
``classify_limit`` (at its first step) ask for one per call and, after the
first, get the same one back: 0.22 us, against 0.87-0.91 us to build one.  A
step took 0.80 us, against 1.00-1.01 us with ``np.dot``.  No buffer lives on the
operator.
``iterate`` tests divergence with ``math.hypot`` first, in 0.12 us against
0.43 us for ``all(map(...))`` over ``abs``, and makes that exact test only
when the first one fails; its convergence test runs ``all(map(...))``
after a test of the first coordinate alone, which fails first on most
steps.  (timeit minima, shared 2-CPU Xeon VM.)
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import count
from operator import ge, sub
from pathlib import Path

import numpy as np

__all__ = [
    "AnnihilatedStateError",
    "DimensionMismatchError",
    "GonosomalOperator",
    "InheritanceTensor",
    "StopReason",
    "TensorFormatError",
    "TrajectoryRecord",
    "dump_tensor",
    "hemophilia_operator",
    "hemophilia_tensor",
    "load_tensor",
]

# Iteration defaults.  A trajectory is declared convergent when two successive
# iterates agree to TOL_FP and the landing point is a fixed point to the same
# tolerance; it is declared divergent past DIV_THRESHOLD in the sup norm.
TOL_FP = 1e-12
DIV_THRESHOLD = 1e12
BUDGET = 10_000

# A sufficient test of |c| <= DIV_THRESHOLD for every coordinate c:
# hypot(*c) bounds each |c| and is accurate far within the 2^-40 margin.
# NaN and inf fail it, and go on to the exact test.
_HYPOT_BOUND = DIV_THRESHOLD * (1.0 - 2.0**-40)

MODES = ("raw", "normalized")  # the raw map W, and W over its block-sum product

# Trajectories store every iterate up to this step, then every tenth.
_THIN_AFTER = 1_000
_THIN_STRIDE = 10

# The normalized map refuses block sums at or below this magnitude, and a
# product of them that underflowed or overflowed, rather than divide by them.
_BLOCK_SUM_GUARD = 1e-300
# a Python float, so that can_normalize on Python floats returns a plain bool
_NORMAL_MIN = float(np.finfo(float).tiny)

# The stepper of the last operator each thread asked for, as ``op`` and
# ``step`` (see GonosomalOperator.stepper).
_THREAD_STEPPER = threading.local()


class DimensionMismatchError(ValueError):
    """State length does not match the operator's type counts."""


class AnnihilatedStateError(ValueError):
    """A block sum vanished where the normalized map must divide by it."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class TensorFormatError(ValueError):
    """Tensor file is malformed or fails coefficient validation."""


def _annihilated(step: int) -> AnnihilatedStateError:
    return AnnihilatedStateError(
        f"annihilated state at step {step}: the normalized map cannot divide by its block sums",
        step=step,
    )


def fold_columns(ufunc, a):
    """``ufunc.reduce`` over the trailing axis of the array ``a``, one
    column at a time.

    numpy reduces the short trailing axis of a row-major batch row by row:
    one max over a row-major 10000 x 4 batch took 498 us, against 27 us
    here (on a column-major one, such as an ``orbit`` iterate, both took
    14 us; timeit minima, shared 2-CPU Xeon VM).  Maximum and minimum give
    the same result at any width; add sums left to right, as numpy itself
    does below eight columns.
    """
    out, width = a[..., 0], a.shape[-1]
    for j in range(1, width):
        out = ufunc(out, a[..., j])
    # one column must not come back as a view of the input
    return out if width > 1 else np.positive(out)


def _add_floats(values):
    """Sum of Python floats, left to right as :func:`fold_columns` adds
    (``sum`` compensates since Python 3.12)."""
    total = values[0]
    for c in values[1:]:
        total += c
    return total


def can_normalize(fs, ms):
    """Where the normalized map can divide by the block sums ``fs``, ``ms``:
    both above the guard and their product a finite normal double.  Arrays
    give a mask; Python floats give a bool."""
    g = fs * ms
    return (fs > _BLOCK_SUM_GUARD) & (ms > _BLOCK_SUM_GUARD) & (g >= _NORMAL_MIN) & (g < np.inf)


def can_normalize_all(fs, ms, g=None) -> bool:
    """``can_normalize(fs, ms).all()`` for arrays of any shape, without a
    full mask.

    It first makes a sufficient test with two whole-array reductions: every
    fs, ms and g above the guard 1e-300 (so every g is a normal double) and
    every g finite.  When fs, ms and g are views into one array, as
    :meth:`GonosomalOperator.orbit` passes the rows of its block-sum
    buffer, the minimum is taken over that array at once, which bounds
    theirs (a spare element there can only send the batch on to the exact
    test); otherwise two element-wise minimums come first.  Only a batch
    that fails the first test gets the exact one, one element-wise minimum
    and three reductions, which also passes a g from the smallest normal
    double up to 1e-300.  A reduction costs 1-2 us on a 32-row batch, such
    as the attraction probe's, and 2-3 us on a 10,000-row one.
    The reductions call ``np.minimum.reduce`` and ``np.maximum.reduce``
    with ``axis=None`` (over every axis, as ``.min()`` does, without its
    Python-level wrapper).  NaN fails each comparison, and an empty batch
    passes before any reduction, which an empty array would refuse.  A
    caller that divides by the product ``fs * ms`` passes it as ``g``, so
    that it is formed once."""
    if fs.size == 0:
        return True
    if g is None:
        g = fs * ms
    # views into one array (orbit's block-sum buffer) take their minimum
    # from that array, every element of theirs being one of its elements
    low = fs.base
    if not (isinstance(low, np.ndarray) and ms.base is low and g.base is low):
        low = np.minimum(np.minimum(fs, ms), g)
    if (
        np.minimum.reduce(low, axis=None) > _BLOCK_SUM_GUARD
        and np.maximum.reduce(g, axis=None) < np.inf
    ):
        return True
    return bool(
        np.minimum.reduce(np.minimum(fs, ms), axis=None) > _BLOCK_SUM_GUARD
        and np.minimum.reduce(g, axis=None) >= _NORMAL_MIN
        and np.maximum.reduce(g, axis=None) < np.inf
    )


def as_state_vector(state, dim: int | None = None) -> np.ndarray:
    """Coerce a state (sequence or array) to a float vector.

    Batched input is allowed: the coordinates live on the trailing axis.
    """
    vec = np.asarray(state, dtype=float)
    if vec.ndim == 0:
        raise DimensionMismatchError("state must be a vector, got a scalar")
    if dim is not None and vec.shape[-1] != dim:
        raise DimensionMismatchError(
            f"state has {vec.shape[-1]} coordinates, operator expects {dim}"
        )
    return vec


def require_single_state(state, dim: int | None = None) -> np.ndarray:
    """:func:`as_state_vector` of one state, refusing a batch."""
    vec = as_state_vector(state, dim)
    if vec.ndim != 1:
        raise DimensionMismatchError("expected a single state")
    return vec


def require_batch(states, dim: int | None = None) -> np.ndarray:
    """:func:`as_state_vector` of a ``(k, dim)`` batch, refusing one state
    or a stack of batches."""
    vec = as_state_vector(states, dim)
    if vec.ndim != 2:
        raise DimensionMismatchError("expected a batch of states, one per row")
    return vec


def require_finite(values) -> None:
    """Refuse a NaN or infinite coordinate in ``values``: an array of any
    shape, or Python floats, which are checked without numpy."""
    arr = isinstance(values, np.ndarray)
    if not (np.isfinite(values).all() if arr else all(map(math.isfinite, values))):
        raise ValueError("state has a non-finite coordinate")


def require_count(name: str, value) -> None:
    """Refuse a count (``samples``, ``budget``, ``n_seeds``) below one."""
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


def require_positive(name: str, value) -> None:
    """Refuse a tolerance that is not positive, NaN included."""
    if not value > 0:  # NaN is not positive either
        raise ValueError(f"{name} must be positive")


def require_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be 'raw' or 'normalized', got {mode!r}")


def format_float(value: float) -> str:
    """The one float format of every report: ``.17g``, exact round trip."""
    return f"{float(value):.17g}"


def format_state(values) -> str:
    """Coordinates joined by commas, each by :func:`format_float`."""
    return ",".join(map(format_float, values))


class _Immutable:
    """Base of the value classes, whose ``__init__`` uses ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__  # called with the name alone


class InheritanceTensor(_Immutable):
    """Inheritance coefficients of a gonosomal operator.

    ``gamma_f`` has shape (n, nu, n) and ``gamma_m`` shape (n, nu, nu).  For
    every parent pair (i, k) the combined row over all offspring types must
    sum to one; individual entries may be negative (signed measures are
    allowed in raw mode).  Instances are immutable.
    """

    __slots__ = ("gamma_f", "gamma_m")

    def __init__(self, gamma_f, gamma_m, *, rowsum_tol: float = 1e-12):
        gamma_f = np.array(gamma_f, dtype=float)
        gamma_m = np.array(gamma_m, dtype=float)
        if gamma_f.ndim != 3 or gamma_m.ndim != 3:
            raise ValueError("gamma_f and gamma_m must be rank-3 arrays")
        n, nu = gamma_f.shape[0], gamma_f.shape[1]
        if n < 1 or nu < 1:
            raise ValueError("need at least one female and one male type")
        if gamma_f.shape != (n, nu, n) or gamma_m.shape != (n, nu, nu):
            raise ValueError(
                "shape mismatch: gamma_f must be (n, nu, n) and gamma_m "
                f"(n, nu, nu); got {gamma_f.shape} and {gamma_m.shape}"
            )
        if not (np.isfinite(gamma_f).all() and np.isfinite(gamma_m).all()):
            raise ValueError("tensor entries must be finite")
        row_sums = gamma_f.sum(axis=2) + gamma_m.sum(axis=2)
        bad = np.abs(row_sums - 1.0) > rowsum_tol
        if bad.any():
            i, k = np.argwhere(bad)[0]
            raise ValueError(
                f"coefficient row ({i + 1},{k + 1}) sums to {float(row_sums[i, k])!r}, "
                f"expected 1 within {rowsum_tol:g}"
            )
        gamma_f.flags.writeable = False
        gamma_m.flags.writeable = False
        object.__setattr__(self, "gamma_f", gamma_f)
        object.__setattr__(self, "gamma_m", gamma_m)

    @property
    def n(self) -> int:
        return self.gamma_f.shape[0]

    @property
    def nu(self) -> int:
        return self.gamma_f.shape[1]

    @property
    def dim(self) -> int:
        return self.n + self.nu

    def rows(self) -> np.ndarray:
        """All coefficient rows as an (n*nu, n+nu) array, pair index i-major."""
        n, nu = self.n, self.nu
        return np.concatenate(
            [self.gamma_f.reshape(n * nu, n), self.gamma_m.reshape(n * nu, nu)],
            axis=1,
        )

    def is_nonnegative(self) -> bool:
        return bool(self.gamma_f.min() >= 0.0 and self.gamma_m.min() >= 0.0)

    def __repr__(self) -> str:
        return f"InheritanceTensor(n={self.n}, nu={self.nu})"


def hemophilia_tensor() -> InheritanceTensor:
    """Inheritance tensor of the X-linked recessive lethal (hemophilia) model.

    Types are female (XX, XX_h) and male (XY, X_hY); affected X_hX_h females
    and a matching share of sons do not survive, so the reduced coefficient
    rows of carrier pairings sum to one over fewer surviving offspring kinds.
    The constant 1/3 is stored as its nearest double.
    """
    gf = np.zeros((2, 2, 2))
    gm = np.zeros((2, 2, 2))
    # (XX, XY): half daughters XX, half sons XY
    gf[0, 0, 0] = 0.5
    gm[0, 0, 0] = 0.5
    # (XX, X_hY): all daughters carriers, sons healthy
    gf[0, 1, 1] = 0.5
    gm[0, 1, 0] = 0.5
    # (XX_h, XY): every surviving kind equally likely
    gf[1, 0, :] = 0.25
    gm[1, 0, :] = 0.25
    # (XX_h, X_hY): affected daughters removed, three kinds remain
    third = 1.0 / 3.0
    gf[1, 1, 1] = third
    gm[1, 1, 0] = third
    gm[1, 1, 1] = third
    return InheritanceTensor(gf, gm)


class StopReason(Enum):
    CONVERGED = "ConvergedToPoint"
    DIVERGED = "Diverged"
    BUDGET_EXHAUSTED = "BudgetExhausted"


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Stored orbit of :meth:`GonosomalOperator.iterate`.

    ``iterates[j]`` is the state at step ``step_indices[j]``; every step is
    stored up to 1000, then every tenth, and the final state always.
    ``limit`` is set only when the run converged.
    """

    iterates: np.ndarray
    step_indices: np.ndarray
    stop_reason: StopReason
    steps_taken: int
    limit: np.ndarray | None = None
    mode: str = "raw"


class GonosomalOperator(_Immutable):
    """Evolution operator generated by an inheritance tensor.

    All state-taking methods accept anything coercible to a float vector of
    length ``n + nu``; batched input works with coordinates on the trailing
    axis.  Operators are immutable and safe to share across threads.

    Every map is computed on the pair-product matrix ``R = tensor.rows()``
    (one row per parent pair (i, k), i-major), built once at construction:
    ``W(x, y) = (x ⊗ y) · R``.
    """

    __slots__ = ("_tensor", "_pair_matrix", "_n", "_dim", "_pair_index")

    def __init__(self, tensor: InheritanceTensor):
        rows = tensor.rows()
        rows.flags.writeable = False
        n, nu = tensor.n, tensor.nu
        object.__setattr__(self, "_tensor", tensor)
        object.__setattr__(self, "_pair_matrix", rows)
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_dim", tensor.dim)
        # (column, i, n + k) of each pair product x_i * y_k, i-major as the rows
        object.__setattr__(
            self, "_pair_index",
            tuple((i * nu + k, i, n + k) for i in range(n) for k in range(nu)),
        )

    @property
    def tensor(self) -> InheritanceTensor:
        return self._tensor

    @property
    def pair_matrix(self) -> np.ndarray:
        """The read-only (n*nu, n+nu) matrix ``tensor.rows()`` every map uses."""
        return self._pair_matrix

    @property
    def n(self) -> int:
        return self._tensor.n

    @property
    def nu(self) -> int:
        return self._tensor.nu

    @property
    def dim(self) -> int:
        return self._dim

    def split(self, state) -> tuple[np.ndarray, np.ndarray]:
        n = self._n
        vec = as_state_vector(state, self._dim)
        return vec[..., :n], vec[..., n:]

    def block_sums(self, state) -> tuple[np.ndarray, np.ndarray]:
        return self._block_sums(*self.split(state))

    @staticmethod
    def _block_sums(x, y) -> tuple[np.ndarray, np.ndarray]:
        return fold_columns(np.add, x), fold_columns(np.add, y)

    def apply_raw(self, state) -> np.ndarray:
        """One generation of the raw (unnormalized) dynamics: iterate 1 of
        :meth:`orbit`.

        A batch and the same rows taken one at a time may differ in the
        last bit: a batch goes through a matrix-matrix product and a single
        state through a matrix-vector product, which round differently.
        So code whose output must not depend on how states were grouped
        maps them one call per state, or compares with a margin.
        """
        return next(self.orbit(state, "raw", 1))

    def stepper(self) -> Callable[[list[float]], list[float]]:
        """The calling thread's function ``step(values) -> list[float]`` for
        this operator: :meth:`apply_raw` of one state, with its workspace
        allocated once.

        ``step`` takes one unvalidated state of ``dim`` Python floats.  It
        stores the pair products ``values[i] * values[n + k]`` through a
        memoryview of a pair buffer of ``n * nu`` floats, makes one matrix
        product, ``pairs.dot(matrix, out=image)`` bound when the stepper is
        built, into an image buffer of ``dim`` floats (the BLAS
        matrix-vector product of ``np.matmul``, bit for bit
        :meth:`apply_raw`), and returns the image as a new list of Python
        floats, which later calls leave alone.  The bound ``ndarray.dot``
        is ``np.dot`` without its ``__array_function__`` dispatch.  With a
        single pair, ``dot`` would multiply as a scalar and turn an
        underflowing negative product into -0.0, so that stepper makes the
        ``np.matmul`` instead.  On the hemophilia operator a step took
        0.80 us, against 1.00-1.01 us with ``np.dot`` (timeit minima,
        shared 2-CPU Xeon VM).

        A coordinate may be anything numpy stores as a float: a Python
        int or bool, or a numpy scalar.  A Python-int pair product too large
        for a double raises ValueError from the memoryview store.

        Each thread keeps the stepper of the last operator it asked for:
        the first call in a thread builds one (0.9 us), and later calls for
        the same operator return that same function (0.22 us) until the
        thread asks for another operator, which replaces it.  A step writes
        and reads its buffers within one call, so the calls of one thread
        may share it; the buffers are the thread's, not the operator's,
        which stays safe to share across threads.  Until it is replaced,
        the thread's stepper keeps its operator alive.
        """
        local = _THREAD_STEPPER
        if getattr(local, "op", None) is self:
            return local.step
        matrix, index = self._pair_matrix, self._pair_index
        pairs, image = np.empty(len(matrix)), np.empty(self._dim)
        store = memoryview(pairs)
        # dot multiplies the product of a single pair as a scalar (see above)
        product = pairs.dot if len(matrix) > 1 else partial(np.matmul, pairs)

        def step(values) -> list[float]:
            for column, i, j in index:
                store[column] = values[i] * values[j]
            product(matrix, out=image)
            return image.tolist()

        local.op, local.step = self, step
        return step

    def _pair_jacobian(self, x, y) -> np.ndarray:
        # with r = R as (n, nu, n+nu): dW_l/dx_i = sum_k r[i,k,l] y_k and
        # dW_l/dy_k = sum_i r[i,k,l] x_i
        n, nu, dim = self.n, self.nu, self.dim
        r = self._pair_matrix.reshape(n, nu, dim)
        batch = x.shape[:-1]
        dx = (y @ r.transpose(1, 0, 2).reshape(nu, n * dim)).reshape(batch + (n, dim))
        dy = (x @ r.reshape(n, nu * dim)).reshape(batch + (nu, dim))
        return np.concatenate([dx, dy], axis=-2).swapaxes(-1, -2)

    def jacobian_raw(self, state) -> np.ndarray:
        """Jacobian of the raw map; rows index outputs, columns inputs."""
        return self._pair_jacobian(*self.split(state))

    def sum_product_residual(self, state):
        """|sum(W(s)) - sum(female) * sum(male)|, the conservation defect.

        Exact row sums make this zero in exact arithmetic for every state;
        in floating point it stays at rounding level relative to the product.
        """
        fs, ms = self.block_sums(state)
        out = np.abs(self.apply_raw(state).sum(axis=-1) - fs * ms)
        return float(out) if np.ndim(out) == 0 else out

    def apply_normalized(self, state) -> np.ndarray:
        """One generation of the normalized dynamics on the simplex.

        The raw image is divided by the product of the block sums, so the
        output always sums to one.  The map depends only on the ray of the
        input: scaling either block by a positive factor leaves it unchanged.
        It is iterate 1 of :meth:`orbit`, whose refusal names ``step`` 0.
        """
        return next(self.orbit(state, "normalized", 1))

    def orbit(self, states, mode: str, steps: int) -> Iterator[np.ndarray]:
        """Yield iterates 1 to ``steps`` of a batch (or of one state), bit
        for bit as repeated :meth:`apply_raw` or :meth:`apply_normalized`,
        which are its iterate 1.

        The input is checked once, when iteration starts.  Each step forms
        its pair products and its image in buffers allocated up front, and
        each yielded iterate is a view into one of ``min(steps, 2)``
        buffers taken in turn: it stays valid until the iterate two steps
        later is formed.  Copy what must outlive that.  ``steps=0`` yields
        nothing.

        One loop steps one state, a 2-D batch and a stack alike, on
        transposed ``(dim, rows)`` views of the buffers, the batch axes
        flattened into ``rows``: row ``j`` of a view is coordinate ``j`` of
        every state.  A step makes one broadcast multiply of the female
        rows by the male rows into an ``(n, nu, rows)`` view of the pair
        buffer, the one matrix product, and in normalized mode one broadcast
        divide by ``g = fs * ms``.  Each block sum adds its rows left to
        right, as :func:`fold_columns` adds columns; ``np.add.reduce`` over
        a block of nine or more contiguous rows would sum pairwise instead.
        fs, ms and g are written into the rows of one ``(3, rows)`` buffer,
        so that :func:`can_normalize_all` reduces them at once (a block of
        one type is its own sum, and then the guard reduces them apart).

        The buffers of one state or a 2-D batch are column-major
        (``order="F"``), so their ``(dim, rows)`` views are contiguous: an
        iterate is indexed ``(..., dim)`` like its input, with each column
        contiguous.  A stack of batches (three or more axes) is stepped
        row-major.  Any input layout is accepted.

        Raises:
            AnnihilatedStateError: in normalized mode, before the division,
                when the block sums of iterate ``k`` fail
                :func:`can_normalize_all`; ``step`` is ``k`` (0 for the input).
        """
        require_mode(mode)
        normalized = mode == "normalized"
        dim, n = self._dim, self._n
        nu = dim - n
        vec = as_state_vector(states, dim)
        rows = math.prod(vec.shape[:-1])
        # a stack of batches stays row-major: the (rows, dim) reshape of a
        # column-major stack would be a copy, not a view of its buffer
        order = "F" if vec.ndim <= 2 else "C"
        bufs = [np.empty(vec.shape, order=order) for _ in range(min(steps, 2))]
        pairs = np.empty(vec.shape[:-1] + (n * nu,), order=order)
        # (dim, rows) views, made once: coordinate j of every state is row j,
        # and the pair (i, k) of column i*nu + k is row [i, k] of an
        # (n, nu, rows) view of the pair buffer
        pair_view = pairs.reshape(rows, n * nu).T.reshape(n, nu, rows)
        views = [b.reshape(rows, dim).T for b in bufs]
        cur = vec.reshape(rows, dim).T
        if normalized:
            # the block sums and their product, rows of one buffer, which
            # the guard reduces at once
            fs_row, ms_row, g = np.empty((3, rows))
        for step in range(steps):
            if normalized:
                # added left to right, as fold_columns adds
                fs = np.add(cur[0], cur[1], out=fs_row) if n > 1 else cur[0]
                for j in range(2, n):
                    np.add(fs, cur[j], out=fs)
                ms = np.add(cur[n], cur[n + 1], out=ms_row) if nu > 1 else cur[n]
                for j in range(n + 2, dim):
                    np.add(ms, cur[j], out=ms)
                np.multiply(fs, ms, out=g)
                if not can_normalize_all(fs, ms, g):
                    raise _annihilated(step=step)
            np.multiply(cur[:n, np.newaxis], cur[n:], out=pair_view)
            out, cur = bufs[step % 2], views[step % 2]
            np.matmul(pairs, self._pair_matrix, out=out)
            if normalized:
                np.divide(cur, g, out=cur)
            yield out

    def jacobian_normalized(self, state) -> np.ndarray:
        """Analytic Jacobian of the normalized map: entry ``[..., l, j]`` is
        ``jw[l, j] / g - v[l] * (dg_j / g)``, with ``jw`` the raw Jacobian,
        ``g = fs * ms``, ``v = W / g`` the normalized image and ``dg_j`` the
        derivative of ``g`` along input ``j``.  Its ``v`` and guard are
        :meth:`apply_normalized`'s.
        """
        v = self.apply_normalized(state)
        x, y = self.split(state)
        fs, ms = self._block_sums(x, y)
        g = (fs * ms)[..., np.newaxis]
        # d(fs*ms)/ds_j is ms on the female block and fs on the male block
        dg = np.repeat(np.stack([ms, fs], axis=-1), [self._n, self.nu], axis=-1)
        jw = self._pair_jacobian(x, y)
        return jw / g[..., np.newaxis] - v[..., :, np.newaxis] * (dg / g)[..., np.newaxis, :]

    def iterate(
        self,
        s0,
        mode: str = "raw",
        budget: int = BUDGET,
        tol_fp: float = TOL_FP,
    ) -> TrajectoryRecord:
        """Run the orbit of ``s0`` until convergence, divergence, or budget.

        The orbit is kept as Python floats and stepped with the thread's
        :meth:`stepper`, asked for once per call, bit for bit as
        :meth:`apply_raw` or :meth:`apply_normalized` step it: raw mode
        calls its ``step`` directly, and normalized mode guards and divides
        its image.  Each iterate is stepped once: the image the convergence
        test forms is the next iterate when the test fails.  The divergence
        test first checks ``math.hypot`` of the iterate against 1e12 less a
        2^-40 margin, which no coordinate beyond 1e12 can pass whether or
        not ``hypot`` rounds correctly; only an iterate that fails it (NaN
        and inf among them) gets the exact test.  The exact test and the
        convergence test run in C, as ``all(map(...))`` over ``abs``: the
        same comparisons as ``abs(d) <= tol_fp``, which NaN fails.  The
        convergence test compares the first coordinate alone first, which
        ends it on most steps.  The kept iterates go into one flat list of
        floats, read once with ``np.fromiter`` when the record is built,
        and the step indices follow from the last step: ``np.arange`` when
        the orbit stopped by step 1000.

        Args:
            s0: starting state, length n + nu.
            mode: "raw" or "normalized".
            budget: maximum number of steps.
            tol_fp: convergence tolerance on both the step difference and
                the fixed-point residual of the landing point.

        Raises:
            AnnihilatedStateError: in normalized mode, when some iterate's
                block sums fail :func:`can_normalize`; the error names the step.
        """
        require_mode(mode)
        require_count("budget", budget)
        require_positive("tol_fp", tol_fp)
        s = require_single_state(s0, self._dim)
        n, dim, raw_step = self._n, self._dim, self.stepper()

        if mode == "raw":
            step = raw_step
        else:
            # the loop steps each iterate once, in order, so the count of
            # calls so far is the index of the iterate being stepped
            stepped = count()

            def step(values):
                # apply_normalized without re-validating the state
                k = next(stepped)
                image = raw_step(values)
                fs, ms = _add_floats(values[:n]), _add_floats(values[n:])
                if not can_normalize(fs, ms):
                    raise _annihilated(step=k)
                g = fs * ms
                return [c / g for c in image]

        # tol_fp >= d, which Python evaluates as d <= tol_fp whatever the
        # type of tol_fp; NaN and inf fail every such test, so a non-finite
        # iterate diverges
        within_tol = partial(ge, tol_fp)
        within_bound = partial(ge, DIV_THRESHOLD)
        hypot = math.hypot

        cur = s.tolist()  # iterates are never written to: no copies
        flat = cur[:]  # the kept iterates, one after another

        def _record(reason, k):
            # every step is kept up to 1000, then every tenth, and step k
            if k <= _THIN_AFTER:
                steps = np.arange(k + 1)
            else:
                thinned = range(_THIN_AFTER + _THIN_STRIDE, k, _THIN_STRIDE)
                steps = np.array([*range(_THIN_AFTER + 1), *thinned, k], dtype=int)
            if len(flat) < len(steps) * dim:  # cur is not kept yet
                flat.extend(cur)
            return TrajectoryRecord(
                np.fromiter(flat, float, len(flat)).reshape(-1, dim),
                steps,
                reason,
                k,
                np.array(cur) if reason is StopReason.CONVERGED else None,
                mode,
            )

        # hypot first: its test passes on every iterate well inside the bound
        if not hypot(*cur) < _HYPOT_BOUND and not all(map(within_bound, map(abs, cur))):
            return _record(StopReason.DIVERGED, 0)

        image = None  # the image of cur, when the convergence test formed it
        for k in range(1, budget + 1):
            # a list of dim >= 2 floats is true: an image formed is not formed again
            prev, cur, image = cur, image or step(cur), None
            if not hypot(*cur) < _HYPOT_BOUND and not all(map(within_bound, map(abs, cur))):
                return _record(StopReason.DIVERGED, k)
            if k <= _THIN_AFTER or k % _THIN_STRIDE == 0:
                flat.extend(cur)
            # the full test's first comparison alone first: most steps fail it
            if within_tol(abs(cur[0] - prev[0])) and all(
                map(within_tol, map(abs, map(sub, cur, prev)))
            ):
                image = step(cur)
                if all(map(within_tol, map(abs, map(sub, image, cur)))):
                    return _record(StopReason.CONVERGED, k)
        return _record(StopReason.BUDGET_EXHAUSTED, budget)


_HEMOPHILIA = GonosomalOperator(hemophilia_tensor())


def hemophilia_operator() -> GonosomalOperator:
    """The operator of :func:`hemophilia_tensor`: one shared immutable
    instance, built once at import."""
    return _HEMOPHILIA


def is_hemophilia(op: GonosomalOperator) -> bool:
    """Whether ``op`` has exactly the hemophilia coefficients, the model
    whose results the invariance battery, the Equilibrium verdict of
    ``empirical_limits`` and the model checks of ``run_battery`` assume."""
    return np.array_equal(op.pair_matrix, _HEMOPHILIA.pair_matrix)


# ---------------------------------------------------------------------------
# Tensor file format
#
#   # comments run to end of line
#   mode raw            (optional; "raw" or "normalized", default raw)
#   2 2                 (counts: n nu)
#   0.5 0 0.5 0         (one row per pair (i,k), i-major; n+nu coefficients,
#   ...                  female offspring first)
#
# Rows must sum to 1 within 1e-9; files flagged "normalized" must in
# addition be nonnegative.
# ---------------------------------------------------------------------------

_FILE_ROWSUM_TOL = 1e-9


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def load_tensor(path) -> tuple[InheritanceTensor, str]:
    """Read an inheritance tensor file; returns (tensor, mode)."""
    text = Path(path).read_text()
    lines = list(_content_lines(text))
    if not lines:
        raise TensorFormatError(f"{path}: no content lines")
    mode = "raw"
    pos = 0
    if lines[0][1].split()[0] == "mode":
        parts = lines[0][1].split()
        if len(parts) != 2 or parts[1] not in MODES:
            raise TensorFormatError(
                f"{path}:{lines[0][0]}: mode line must read 'mode raw' or "
                "'mode normalized'"
            )
        mode = parts[1]
        pos = 1
    if pos >= len(lines):
        raise TensorFormatError(f"{path}: missing 'n nu' header")
    lineno, header = lines[pos]
    parts = header.split()
    try:
        n, nu = (int(p) for p in parts)
    except ValueError:
        raise TensorFormatError(
            f"{path}:{lineno}: header must be two integers 'n nu', got {header!r}"
        ) from None
    if n < 1 or nu < 1:
        raise TensorFormatError(f"{path}:{lineno}: counts must be positive")
    rows = lines[pos + 1 :]
    if len(rows) != n * nu:
        raise TensorFormatError(
            f"{path}: expected {n * nu} coefficient rows, found {len(rows)}"
        )
    gamma_f = np.zeros((n, nu, n))
    gamma_m = np.zeros((n, nu, nu))
    for idx, (lineno, line) in enumerate(rows):
        try:
            values = [float(tok) for tok in line.split()]
        except ValueError:
            raise TensorFormatError(
                f"{path}:{lineno}: row is not whitespace-separated numbers"
            ) from None
        if len(values) != n + nu:
            raise TensorFormatError(
                f"{path}:{lineno}: expected {n + nu} coefficients, got {len(values)}"
            )
        if not all(map(math.isfinite, values)):
            raise TensorFormatError(f"{path}:{lineno}: tensor entries must be finite")
        total = sum(values)
        if abs(total - 1.0) > _FILE_ROWSUM_TOL:
            raise TensorFormatError(
                f"{path}:{lineno}: row sums to {total!r}, expected 1 within "
                f"{_FILE_ROWSUM_TOL:g}"
            )
        if mode == "normalized" and min(values) < 0:
            raise TensorFormatError(
                f"{path}:{lineno}: normalized tensors must be nonnegative"
            )
        i, k = divmod(idx, nu)
        gamma_f[i, k] = values[:n]
        gamma_m[i, k] = values[n:]
    try:
        tensor = InheritanceTensor(gamma_f, gamma_m, rowsum_tol=_FILE_ROWSUM_TOL)
    except ValueError as exc:
        raise TensorFormatError(f"{path}: {exc}") from None
    return tensor, mode


def dump_tensor(tensor: InheritanceTensor, mode: str = "raw") -> str:
    """Serialize a tensor to the text format accepted by :func:`load_tensor`."""
    require_mode(mode)
    out = [f"mode {mode}", f"{tensor.n} {tensor.nu}"]
    for row in tensor.rows():
        out.append(" ".join(map(format_float, row)))
    return "\n".join(out) + "\n"
