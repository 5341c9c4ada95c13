"""Sparse and dense numeric kernels shared by every solver module.

Vectors and dense matrices are plain numpy arrays (complex or real double
precision); :class:`SparseMatrix` is a validated CSR container and the only
large operator that is ever multiplied.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

__all__ = [
    "DimensionError",
    "SingularMatrixError",
    "RankDeficientError",
    "SparseMatrix",
    "spmv",
    "dense_solve",
    "dense_lstsq",
]

# |pivot| at or below PIVOT_RTOL * ||M||_F declares a factorization singular;
# matches the breakdown thresholds used by the solver layer.
PIVOT_RTOL = 1e-14


def warn_caller(message: str) -> None:
    """Emit ``message`` as a ``UserWarning`` attributed to the first frame outside kryrec."""
    frame, level = sys._getframe(), 1
    while frame is not None and frame.f_globals.get("__name__", "").startswith(__package__ + "."):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


class DimensionError(ValueError):
    """Operand shapes are inconsistent."""


class SingularMatrixError(np.linalg.LinAlgError):
    """A dense factorization hit an (effectively) zero pivot."""

    def __init__(self, pivot_index: int, message: str | None = None):
        self.pivot_index = pivot_index
        super().__init__(message or f"singular matrix: zero pivot at index {pivot_index}")


class RankDeficientError(np.linalg.LinAlgError):
    """A least-squares matrix does not have full column rank."""


def check_finite(name: str, a: np.ndarray) -> np.ndarray:
    """Reject NaN/Inf entries on construction of a vector or matrix."""
    a = np.asarray(a)
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _as_scalar_array(values, name="values") -> np.ndarray:
    a = np.asarray(values)
    if np.iscomplexobj(a):
        return a.astype(np.complex128, copy=False)
    return a.astype(np.float64, copy=False)


def _as_index_array(name: str, indices) -> np.ndarray:
    """``indices`` as an integer array: integers of any width as given, and
    integral floats (an empty list included) as int64; a fractional, bool or
    complex index is refused rather than truncated."""
    a = np.asarray(indices)
    if a.dtype.kind in "iu":
        return a
    if a.dtype.kind == "f":
        with np.errstate(invalid="ignore"):  # NaN and out-of-range floats fail below
            ints = a.astype(np.int64)
        if np.array_equal(ints, a):
            return ints
    raise ValueError(f"{name} must hold integer values, got dtype {a.dtype}")


@dataclass
class SparseMatrix:
    """Sparse operator in compressed sparse row form.

    ``row_offsets`` has length ``n_rows + 1``, is nondecreasing and brackets
    the ``col_indices``/``values`` slice of each row. Values may be real or
    complex double precision.

    The stored ``row_offsets``, ``col_indices`` and ``values`` are the arrays
    :func:`spmv` reads (scipy's CSR ``indptr``, ``indices`` and ``data``), held
    once and shared with it, and with the caller where no conversion was
    needed; they are read-only by contract. Indices are int32 when every index
    and ``max(n_rows, n_cols)`` fit in int32, and int64 otherwise; integer input
    of any width is taken without an int64 copy, and integral floats are
    converted, but fractional, bool or complex indices raise ``ValueError``.
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        offsets = _as_index_array("row_offsets", self.row_offsets)
        cols = _as_index_array("col_indices", self.col_indices)
        self.values = check_finite("values", _as_scalar_array(self.values))
        if offsets.shape != (self.n_rows + 1,):
            raise DimensionError(
                f"row_offsets must have length n_rows+1={self.n_rows + 1}, "
                f"got {offsets.shape[0]}"
            )
        # compared, not differenced, so unsigned offsets cannot wrap
        if offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1]):
            raise ValueError("row_offsets must start at 0 and be nondecreasing")
        nnz = int(offsets[-1])
        if cols.shape != (nnz,) or self.values.shape != (nnz,):
            raise DimensionError("col_indices/values length must match row_offsets[-1]")
        if nnz and (cols.min() < 0 or cols.max() >= self.n_cols):
            raise ValueError("col_indices out of range")
        self._csr = scipy.sparse.csr_matrix(
            (self.values, cols, offsets), shape=(self.n_rows, self.n_cols)
        )
        self.row_offsets, self.col_indices = self._csr.indptr, self._csr.indices

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "SparseMatrix":
        """Build from triplets; duplicate entries are summed."""
        coords = (_as_index_array("rows", rows), _as_index_array("cols", cols))
        m = scipy.sparse.coo_matrix((_as_scalar_array(vals), coords), shape=shape).tocsr()
        m.sum_duplicates()
        return cls(shape[0], shape[1], m.indptr, m.indices, m.data)

    @classmethod
    def from_dense(cls, a) -> "SparseMatrix":
        m = scipy.sparse.csr_matrix(np.asarray(a))
        return cls(m.shape[0], m.shape[1], m.indptr, m.indices, m.data)

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        idx = np.arange(n)
        return cls.from_coo(idx, idx, np.ones(n), (n, n))

    @classmethod
    def diagonal(cls, d) -> "SparseMatrix":
        d = np.asarray(d)
        idx = np.arange(len(d))
        return cls.from_coo(idx, idx, d, (len(d), len(d)))

    # ---- queries -------------------------------------------------------

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return int(self.row_offsets[-1])

    @property
    def dtype(self):
        return self.values.dtype

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()


def small_pivots(d: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Indices of the pivots or R diagonal entries ``d`` of a factorization of
    ``m`` with ``|d_i| <= PIVOT_RTOL * ||m||_F``; any one makes ``m`` singular
    (or rank-deficient), an all-zero ``m`` included."""
    return np.flatnonzero(np.abs(d) <= PIVOT_RTOL * np.linalg.norm(m))


def spmv(a: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector product ``a @ x`` per CSR row semantics."""
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] != a.n_cols:
        raise DimensionError(
            f"operand length {x.shape} does not match n_cols={a.n_cols}"
        )
    return a._csr @ x


def dense_solve(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the small square system ``m @ y = b`` by partial-pivoted LU.

    Raises :class:`SingularMatrixError` (carrying the pivot index) at the
    first pivot that :func:`small_pivots` flags.
    """
    m = np.asarray(m)
    b = np.asarray(b)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected square matrix, got {m.shape}")
    if b.shape[0] != m.shape[0]:
        raise DimensionError(f"rhs length {b.shape[0]} != {m.shape[0]}")
    if m.shape[0] == 0:
        return np.zeros(0, dtype=np.result_type(m.dtype, b.dtype, np.float64))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    bad = small_pivots(np.diag(lu), m)
    if bad.size:
        raise SingularMatrixError(int(bad[0]))
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def dense_lstsq(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return ``argmin_z ||b - m @ z||_2`` via a reduced QR factorization.

    ``m`` must be tall (or square) with full column rank; rank deficiency is
    detected on the diagonal of R.
    """
    m = np.asarray(m)
    b = np.asarray(b)
    if m.ndim != 2 or m.shape[0] < m.shape[1]:
        raise DimensionError(f"expected tall matrix, got {m.shape}")
    if b.shape[0] != m.shape[0]:
        raise DimensionError(f"rhs length {b.shape[0]} != {m.shape[0]}")
    if m.shape[1] == 0:
        return np.zeros(0, dtype=np.result_type(m.dtype, b.dtype, np.float64))
    q, r = np.linalg.qr(m, mode="reduced")
    if small_pivots(np.diag(r), m).size:
        raise RankDeficientError(
            f"rank-deficient least-squares matrix {m.shape}: "
            f"min |R_ii| = {np.abs(np.diag(r)).min():.3e}"
        )
    return scipy.linalg.solve_triangular(r, q.conj().T @ b, check_finite=False)
