"""Arnoldi process: orthonormal Krylov basis plus upper-Hessenberg matrix.

Works against any linear operator exposed as an :class:`OperatorHandle`, so
the same routine serves the plain matrix and implicitly projected operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse

from .core import DimensionError, SparseMatrix, check_finite, spmv

__all__ = [
    "OperatorHandle",
    "ArnoldiDecomposition",
    "ArnoldiBreakdownError",
    "as_operator",
    "arnoldi",
    "arnoldi_relation_residual",
]

# h_{j+1,j} at or below BREAKDOWN_RTOL times the operator scale (norm of the
# first product) is treated as a lucky breakdown.
BREAKDOWN_RTOL = 1e-14
# With reorthogonalization, a step's second projection h2 = V* w is applied
# only when max|h2| exceeds ORTH_RTOL times ||w||: h2 / ||w|| is, up to
# rounding, the new vector's inner products with the earlier ones, so every
# off-diagonal entry of V* V stays at or below about this bound.
ORTH_RTOL = 2.5e-13


class ArnoldiBreakdownError(RuntimeError):
    """Raised when the start vector is zero (nothing to orthogonalize)."""


class OperatorHandle:
    """A linear operator given by its dimension and an apply function.

    Calls are counted in ``matvec_count`` so solvers can attribute work to a
    particular operator without global state.
    """

    def __init__(self, dimension: int, apply: Callable[[np.ndarray], np.ndarray]):
        self.dimension = int(dimension)
        self._apply = apply
        self.matvec_count = 0

    def __call__(self, v: np.ndarray) -> np.ndarray:
        self.matvec_count += 1
        return self._apply(v)

    @classmethod
    def from_matrix(cls, a) -> "OperatorHandle":
        if scipy.sparse.issparse(a):
            csr = a.tocsr()
            a = SparseMatrix(*csr.shape, csr.indptr, csr.indices, csr.data)
        if isinstance(a, SparseMatrix):
            apply = lambda v: spmv(a, v)
        elif hasattr(a, "matvec"):
            apply = a.matvec
        else:
            if np.asarray(a).dtype.kind not in "biufc":
                raise TypeError(f"operator must be a matrix or a LinearOperator, got {type(a).__name__}")
            a = check_finite("operator", np.asarray(a))
            apply = lambda v: a @ v
        if len(a.shape) != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"operator must be square, got {a.shape}")
        return cls(a.shape[0], apply)


def as_operator(a) -> OperatorHandle:
    """Coerce a handle, a SparseMatrix, a scipy sparse matrix or array (checked
    as a SparseMatrix over its CSR), a LinearOperator (anything with ``shape``
    and ``matvec``) or a numeric array; any other type raises TypeError."""
    if isinstance(a, OperatorHandle):
        return a
    return OperatorHandle.from_matrix(a)


@dataclass
class ArnoldiDecomposition:
    """Result of ``j`` Arnoldi steps: ``A v[:, :j] = v @ hbar``, with ``hbar``
    upper Hessenberg and one row per orthonormal column of ``v``: ``j + 1`` of
    them, or ``j`` after a lucky breakdown at step ``j`` (``A V_j = V_j H_j``),
    so ``j`` and ``breakdown`` are read off the shapes. ``step_norms`` holds a
    solver cycle's ``(i, residual norm)`` pairs, if any, and ``space`` every solver
    cycle's ``(aug, D, E)``: its augmentation space (empty for FOM and GMRES),
    ``D = v* aug.c`` and ``E = v* aug.u``; ``None`` only for :func:`arnoldi`'s own result.
    """

    v: np.ndarray
    hbar: np.ndarray
    step_norms: list = field(default_factory=list)
    space: tuple | None = None

    @property
    def j(self) -> int:
        return self.hbar.shape[1]

    @property
    def breakdown(self) -> int | None:
        return self.j if len(self.hbar) == self.j else None

    @property
    def basis(self) -> np.ndarray:
        """First ``j`` basis columns (the search space)."""
        return self.v[:, : self.j]

    @property
    def h(self) -> np.ndarray:
        """Square Hessenberg: the first ``j`` rows of ``hbar``."""
        return self.hbar[: self.j, :]


def arnoldi(op, r: np.ndarray, m: int, reorth: bool = True, stop=None) -> ArnoldiDecomposition:
    """Run up to ``m`` Arnoldi steps of ``op`` started from ``r``.

    Classical Gram-Schmidt over a row-major basis: a projection ``h = V* w``
    and an update ``w -= V h`` over all rows built so far, or, where every
    coefficient before the last two is at most ``ORTH_RTOL * sqrt(||w||^2 -
    ||h||^2)`` (Lanczos' three-term form, as on a Hermitian operator), over
    the last two rows only, the others recorded as 0. By default a second
    projection ``h2 = V* w`` measures the loss of orthogonality, and its
    update (CGS2) is applied only when ``max|h2| > ORTH_RTOL * ||w||``, which
    keeps ``max|I - V* V|`` at about ``ORTH_RTOL``. A lucky breakdown, a next
    subdiagonal entry that vanishes relative to the operator scale, ends the
    run at step ``j`` with ``j`` basis columns and the square ``H_j``, so
    ``A v[:, :j] = v @ hbar`` holds for every result. The basis ``vt`` is left
    uninitialized and only built rows are read, by ``stop`` too; row ``j + 1``
    is step ``j``'s work vector, and ``op``'s output is copied in, never written.

    Parameters
    ----------
    op : anything :func:`as_operator` takes
    r : ndarray
        Start vector, must be nonzero; the first basis column is ``r/||r||``.
    m : int
        Maximum number of steps, at least 1.
    reorth : bool
        Measure each step's second projection and apply its update where it
        exceeds ``ORTH_RTOL``; without it a single classical pass loses
        orthogonality on nearly dependent Krylov vectors.
    stop : callable, optional
        ``stop(i, vt, hbar)`` after each step ``i`` without breakdown; true ends the run.
    """
    op = as_operator(op)
    n = op.dimension
    r = check_finite("start vector", np.asarray(r))
    if m < 1:
        raise ValueError(f"cycle length must be >= 1, got {m}")
    if r.shape != (n,):
        raise DimensionError(f"start vector shape {r.shape} does not match dimension {n}")
    beta = np.linalg.norm(r)
    if beta == 0.0:
        raise ArnoldiBreakdownError("start vector is zero")

    w0 = op(r / beta)
    if np.shape(w0) != (n,):
        raise DimensionError(f"operator output shape {np.shape(w0)} does not match dimension {n}")
    dtype = np.result_type(r.dtype, w0.dtype, np.float64)
    vt = np.empty((m + 1, n), dtype=dtype)  # one basis vector per row, uninitialized
    hbar = np.zeros((m + 1, m), dtype=dtype)
    scratch = np.empty(n, dtype=dtype)  # each update's V h
    vt[0] = r / beta
    scale = np.linalg.norm(w0)

    rows = 1  # basis vectors built; a breakdown leaves hbar square
    for j in range(m):
        basis, w = vt[: j + 1], vt[j + 1]
        w[...] = w0 if j == 0 else op(vt[j])
        h = (basis @ w.conj()).conj()
        # Lanczos' three-term step: coefficients at most ORTH_RTOL times what
        # the update leaves of w (by Pythagoras) stay in w, recorded as 0
        short = j >= 2 and np.max(np.abs(h[:-2])) <= ORTH_RTOL * np.sqrt(
            max(np.vdot(w, w).real - np.vdot(h, h).real, 0.0))
        first = j - 1 if short else 0  # the first row the update reads
        h[:first] = 0.0
        hbar[: j + 1, j] = h
        w -= np.matmul(h[first:], basis[first:], out=scratch)
        hnext = np.linalg.norm(w)
        if reorth:
            h = (basis @ w.conj()).conj()
            # a step near breakdown has a tiny ||w||, so its correction is
            # applied before the breakdown test reads the norm
            if np.max(np.abs(h)) > ORTH_RTOL * hnext:
                hbar[: j + 1, j] += h
                w -= np.matmul(h, basis, out=scratch)
                hnext = np.linalg.norm(w)
        if hnext <= BREAKDOWN_RTOL * scale:
            break
        hbar[j + 1, j] = hnext
        np.divide(w, hnext, out=w)
        rows = j + 2
        if stop is not None and stop(j + 1, vt, hbar):
            break
    return ArnoldiDecomposition(v=vt[:rows].T, hbar=hbar[:rows, : j + 1].copy())


def arnoldi_relation_residual(dec: ArnoldiDecomposition, op) -> float:
    """Frobenius norm of ``op @ V_j - dec.v @ dec.hbar``.

    Costs ``j`` operator applications; intended for verification, not the
    solve path.
    """
    op = as_operator(op)
    if dec.v.shape[0] != op.dimension:
        raise DimensionError("decomposition dimension does not match operator")
    av = np.column_stack([op(dec.basis[:, i]) for i in range(dec.j)])
    return float(np.linalg.norm(av - dec.v @ dec.hbar))
