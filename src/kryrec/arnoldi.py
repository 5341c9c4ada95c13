"""Arnoldi process: orthonormal Krylov basis plus upper-Hessenberg matrix.

Works against any linear operator exposed as an :class:`OperatorHandle`, so
the same routine serves the plain matrix and implicitly projected operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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
        if isinstance(a, SparseMatrix):
            if a.n_rows != a.n_cols:
                raise DimensionError("operator must be square")
            return cls(a.n_rows, lambda v: spmv(a, v))
        a = np.asarray(a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"operator must be square, got {a.shape}")
        return cls(a.shape[0], lambda v: a @ v)


def as_operator(a) -> OperatorHandle:
    """Coerce a SparseMatrix, dense array or handle into an OperatorHandle."""
    if isinstance(a, OperatorHandle):
        return a
    return OperatorHandle.from_matrix(a)


@dataclass
class ArnoldiDecomposition:
    """Result of ``j`` Arnoldi steps.

    ``v`` holds orthonormal columns: ``j + 1`` of them normally, only ``j``
    when a lucky breakdown truncated the process (the last Hessenberg row is
    then exactly zero). ``hbar`` is the ``(j+1) x j`` upper-Hessenberg matrix.
    ``step_norms`` holds a solver cycle's ``(i, residual norm)`` pairs, if any.
    """

    v: np.ndarray
    hbar: np.ndarray
    j: int
    breakdown: int | None = None
    step_norms: list = field(default_factory=list)

    @property
    def basis(self) -> np.ndarray:
        """First ``j`` basis columns (the search space)."""
        return self.v[:, : self.j]

    @property
    def h(self) -> np.ndarray:
        """Square Hessenberg: ``hbar`` with its last row dropped."""
        return self.hbar[: self.j, :]


def arnoldi(op, r: np.ndarray, m: int, reorth: bool = True, stop=None) -> ArnoldiDecomposition:
    """Run up to ``m`` Arnoldi steps of ``op`` started from ``r``.

    Classical Gram-Schmidt over a row-major basis: a projection ``h = V* w``
    and an update ``w -= V h``, each a matrix-vector product against all rows
    built so far. By default each step then measures its loss of
    orthogonality with a second projection ``h2 = V* w`` and applies that
    update (CGS2) only when ``max|h2| > ORTH_RTOL * ||w||``, which keeps
    ``max|I - V* V|`` at about ``ORTH_RTOL``. Stops early with the breakdown
    flag set when the next subdiagonal entry vanishes relative to the
    operator scale.

    Parameters
    ----------
    op : OperatorHandle, SparseMatrix or square ndarray
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
    r = check_finite("start vector", np.asarray(r))
    if m < 1:
        raise ValueError(f"cycle length must be >= 1, got {m}")
    if r.shape != (op.dimension,):
        raise DimensionError(
            f"start vector shape {r.shape} does not match dimension {op.dimension}"
        )
    beta = np.linalg.norm(r)
    if beta == 0.0:
        raise ArnoldiBreakdownError("start vector is zero")

    n = op.dimension
    w0 = op(r / beta)
    dtype = np.result_type(r.dtype, w0.dtype, np.float64)
    vt = np.zeros((m + 1, n), dtype=dtype)  # one basis vector per row
    hbar = np.zeros((m + 1, m), dtype=dtype)
    vt[0] = r / beta
    scale = np.linalg.norm(w0)

    # w is updated in place, so it must never alias the operator's output
    w = w0.astype(dtype, copy=True)
    for j in range(m):
        if j > 0:
            w = op(vt[j]).astype(dtype, copy=True)
        basis = vt[: j + 1]
        h = (basis @ w.conj()).conj()
        hbar[: j + 1, j] = h
        w -= h @ basis
        hnext = np.linalg.norm(w)
        if reorth:
            h = (basis @ w.conj()).conj()
            # a step near breakdown has a tiny ||w||, so its correction is
            # applied before the breakdown test reads the norm
            if np.max(np.abs(h)) > ORTH_RTOL * hnext:
                hbar[: j + 1, j] += h
                w -= h @ basis
                hnext = np.linalg.norm(w)
        if hnext <= BREAKDOWN_RTOL * scale:
            steps = j + 1
            return ArnoldiDecomposition(
                v=vt[:steps].copy().T,
                hbar=hbar[: steps + 1, :steps].copy(),
                j=steps,
                breakdown=steps,
            )
        hbar[j + 1, j] = hnext
        vt[j + 1] = w / hnext
        if stop is not None and stop(j + 1, vt, hbar) and j + 1 < m:
            return ArnoldiDecomposition(v=vt[: j + 2].T, hbar=hbar[: j + 2, : j + 1].copy(), j=j + 1)
    return ArnoldiDecomposition(v=vt.T, hbar=hbar, j=m)


def arnoldi_relation_residual(dec: ArnoldiDecomposition, op) -> float:
    """Frobenius norm of ``op @ V_j - V_{j+1} @ Hbar_j``.

    Costs ``j`` operator applications; intended for verification, not the
    solve path.
    """
    op = as_operator(op)
    if dec.v.shape[0] != op.dimension:
        raise DimensionError("decomposition dimension does not match operator")
    av = np.column_stack([op(dec.basis[:, i]) for i in range(dec.j)])
    # On breakdown the (zero) last Hessenberg row has no basis column; drop it.
    recon = dec.v @ dec.hbar[: dec.v.shape[1], :]
    return float(np.linalg.norm(av - recon))
