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
model, trajectory iteration with divergence/convergence detection, and a
plain-text tensor file format.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
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

# Trajectories store every iterate up to this step, then every tenth.
_THIN_AFTER = 1_000
_THIN_STRIDE = 10

# The normalized map refuses block sums at or below this magnitude, and a
# product of them that underflowed or overflowed, rather than divide by them.
_BLOCK_SUM_GUARD = 1e-300
# a Python float, so that can_normalize on Python floats returns a plain bool
_NORMAL_MIN = float(np.finfo(float).tiny)


class DimensionMismatchError(ValueError):
    """State length does not match the operator's type counts."""


class AnnihilatedStateError(ValueError):
    """A block sum vanished where the normalized map must divide by it."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class TensorFormatError(ValueError):
    """Tensor file is malformed or fails coefficient validation."""


def _annihilated(step: int | None = None) -> AnnihilatedStateError:
    where = "" if step is None else f" at step {step}"
    return AnnihilatedStateError(
        f"annihilated state{where}: the normalized map cannot divide by its block sums",
        step=step,
    )


def fold_columns(ufunc, a):
    """``ufunc.reduce`` over the trailing axis, one column at a time.

    numpy reduces a short trailing axis row by row, which on a 1e4-row
    batch of two to four columns is about 20x slower than this.  Maximum
    gives the same result; add sums left to right, as numpy itself does
    below eight columns.
    """
    out = a[..., 0]
    for j in range(1, a.shape[-1]):
        out = ufunc(out, a[..., j])
    # one column must not come back as a view of the input
    return out if a.shape[-1] > 1 else np.positive(out)


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


class InheritanceTensor:
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
                f"coefficient row ({i + 1},{k + 1}) sums to {row_sums[i, k]!r}, "
                f"expected 1 within {rowsum_tol:g}"
            )
        gamma_f.flags.writeable = False
        gamma_m.flags.writeable = False
        object.__setattr__(self, "gamma_f", gamma_f)
        object.__setattr__(self, "gamma_m", gamma_m)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

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


class GonosomalOperator:
    """Evolution operator generated by an inheritance tensor.

    All state-taking methods accept anything coercible to a float vector of
    length ``n + nu``; batched input works with coordinates on the trailing
    axis.  Operators are immutable and safe to share across threads.

    Every map is computed on the pair-product matrix ``R = tensor.rows()``
    (one row per parent pair (i, k), i-major), built once at construction:
    ``W(x, y) = (x ⊗ y) · R``.
    """

    __slots__ = ("_tensor", "_pair_matrix")

    def __init__(self, tensor: InheritanceTensor):
        rows = tensor.rows()
        rows.flags.writeable = False
        object.__setattr__(self, "_tensor", tensor)
        object.__setattr__(self, "_pair_matrix", rows)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

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
        return self._tensor.dim

    def split(self, state) -> tuple[np.ndarray, np.ndarray]:
        vec = as_state_vector(state, self.dim)
        return vec[..., : self.n], vec[..., self.n :]

    def block_sums(self, state) -> tuple[np.ndarray, np.ndarray]:
        return self._block_sums(*self.split(state))

    @staticmethod
    def _block_sums(x, y) -> tuple[np.ndarray, np.ndarray]:
        return fold_columns(np.add, x), fold_columns(np.add, y)

    def _pair_product(self, x, y) -> np.ndarray:
        pairs = x[..., :, None] * y[..., None, :]
        return pairs.reshape(pairs.shape[:-2] + self._pair_matrix.shape[:1]) @ self._pair_matrix

    def apply_raw(self, state) -> np.ndarray:
        """One generation of the raw (unnormalized) dynamics."""
        return self._pair_product(*self.split(state))

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
        x, y = self.split(state)
        fs, ms = self._block_sums(x, y)
        out = np.abs(self._pair_product(x, y).sum(axis=-1) - fs * ms)
        return float(out) if np.ndim(out) == 0 else out

    def _guarded_block_sums(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        fs, ms = self._block_sums(x, y)
        if not can_normalize(fs, ms).all():
            raise _annihilated()
        return fs, ms

    def apply_normalized(self, state) -> np.ndarray:
        """One generation of the normalized dynamics on the simplex.

        The raw image is divided by the product of the block sums, so the
        output always sums to one.  The map depends only on the ray of the
        input: scaling either block by a positive factor leaves it unchanged.
        """
        x, y = self.split(state)
        fs, ms = self._guarded_block_sums(x, y)
        return self._pair_product(x, y) / (fs * ms)[..., np.newaxis]

    def jacobian_normalized(self, state) -> np.ndarray:
        """Analytic Jacobian of the normalized map."""
        x, y = self.split(state)
        fs, ms = self._guarded_block_sums(x, y)
        g = (fs * ms)[..., np.newaxis]
        v = self._pair_product(x, y) / g
        # d(fs*ms)/ds_j is ms on the female block and fs on the male block
        dg = np.concatenate(
            [
                np.broadcast_to(ms[..., np.newaxis], fs.shape + (self.n,)),
                np.broadcast_to(fs[..., np.newaxis], fs.shape + (self.nu,)),
            ],
            axis=-1,
        )
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
        if mode not in ("raw", "normalized"):
            raise ValueError(f"mode must be 'raw' or 'normalized', got {mode!r}")
        if budget < 1:
            raise ValueError("budget must be at least 1")
        if not tol_fp > 0:  # NaN is not positive either
            raise ValueError("tol_fp must be positive")
        s = as_state_vector(s0, self.dim)
        if s.ndim != 1:
            raise DimensionMismatchError("iterate expects a single state")
        n = self.n

        def _step(vec, k):
            # apply_raw / apply_normalized without re-validating the state
            x, y = vec[:n], vec[n:]
            if mode == "raw":
                return self._pair_product(x, y)
            values = vec.tolist()
            fs, ms = _add_floats(values[:n]), _add_floats(values[n:])
            if not can_normalize(fs, ms):
                raise _annihilated(step=k)
            return self._pair_product(x, y) / (fs * ms)

        kept_steps, kept = [0], [s]  # iterates are never written to: no copies

        def _record(reason, k, limit=None):
            if kept_steps[-1] != k:
                kept_steps.append(k)
                kept.append(s)
            return TrajectoryRecord(
                iterates=np.array(kept),
                step_indices=np.array(kept_steps, dtype=int),
                stop_reason=reason,
                steps_taken=k,
                limit=limit,
                mode=mode,
            )

        # Tests on Python floats: NaN and inf fail every <=, so non-finite diverges.
        cur = s.tolist()
        if not all(abs(c) <= DIV_THRESHOLD for c in cur):
            return _record(StopReason.DIVERGED, 0)

        for k in range(1, budget + 1):
            s_next = _step(s, k - 1)
            nxt = s_next.tolist()
            if not all(abs(c) <= DIV_THRESHOLD for c in nxt):
                s = s_next
                return _record(StopReason.DIVERGED, k)
            # both iterates are finite, so no NaN reaches max()
            settled = max(abs(a - b) for a, b in zip(nxt, cur)) <= tol_fp
            s, cur = s_next, nxt
            if k <= _THIN_AFTER or k % _THIN_STRIDE == 0:
                kept_steps.append(k)
                kept.append(s)
            if settled and np.abs(_step(s, k) - s).max() <= tol_fp:
                return _record(StopReason.CONVERGED, k, limit=s)
        return _record(StopReason.BUDGET_EXHAUSTED, budget)


_HEMOPHILIA = GonosomalOperator(hemophilia_tensor())


def hemophilia_operator() -> GonosomalOperator:
    """The operator of :func:`hemophilia_tensor`: one shared immutable
    instance, built once at import."""
    return _HEMOPHILIA


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
        if len(parts) != 2 or parts[1] not in ("raw", "normalized"):
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
    if mode not in ("raw", "normalized"):
        raise ValueError(f"mode must be 'raw' or 'normalized', got {mode!r}")
    out = [f"mode {mode}", f"{tensor.n} {tensor.nu}"]
    for row in tensor.rows():
        out.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(out) + "\n"
