"""Augmentation-space machinery.

An augmentation space is a fixed k-dimensional subspace (basis ``U``) whose
image ``C = A U`` is used to split each solve into a Krylov correction and a
small augmentation correction. This module provides the oblique complement
projector, the coupled block system together with its decoupled solution
path, the coupling matrix linking the two corrections, and an Arnoldi driver
for the implicitly projected operator.

The coupled dense solve is deliberately redundant with the decoupled path:
it is the oracle the equivalence tests check the cheap path against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .arnoldi import OperatorHandle, arnoldi, as_operator
from .core import DimensionError, SingularMatrixError, dense_solve, small_pivots

__all__ = [
    "Constraint",
    "AugmentationSpace",
    "build_augmentation",
    "apply_complement_projector",
    "apply_complement_projector_adjoint",
    "projected_residual",
    "assemble_block_system",
    "solve_block_coupled",
    "compute_coupling",
    "z_correction",
    "projected_arnoldi",
    "krylov_correction_projected",
    "krylov_correction_shifted",
]

# Condition estimate of the k x k test-space product above which we warn.
SMALL_COND_WARN = 1e10


class Constraint(Enum):
    """Which fixed test space the augmentation correction is constrained to.

    GALERKIN tests against the augmentation basis itself (FOM-type methods);
    MINRES tests against its image under the operator (GMRES-type methods).
    """

    GALERKIN = "galerkin"
    MINRES = "minres"


@dataclass
class AugmentationSpace:
    """Augmentation basis ``u``, its image ``c = A u`` and the factored
    k x k test-space product that makes the projector cheap to apply.

    Immutable after construction; safe to share between solves.
    """

    u: np.ndarray
    c: np.ndarray
    choice: Constraint
    c_orthonormal: bool
    small: np.ndarray
    _small_lu: tuple | None

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def k(self) -> int:
        return self.u.shape[1]

    @property
    def u_tilde(self) -> np.ndarray:
        """The fixed test-space basis selected by ``choice``."""
        return self.u if self.choice is Constraint.GALERKIN else self.c

    def solve_small(self, rhs: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Apply the inverse of the k x k test-space product (or its adjoint)."""
        if self.k == 0:
            return np.zeros_like(rhs)
        if self.c_orthonormal and self.choice is Constraint.MINRES:
            # the small product is the identity; skip the factored solves
            return rhs
        return scipy.linalg.lu_solve(
            self._small_lu, rhs, trans=2 if adjoint else 0, check_finite=False
        )

    @classmethod
    def empty(cls, n: int, choice: Constraint = Constraint.GALERKIN) -> "AugmentationSpace":
        z = np.zeros((n, 0))
        return cls(z, z, choice, True, np.zeros((0, 0)), None)


def build_augmentation(
    a, u: np.ndarray, choice: Constraint, orthonormalize_c: bool = False
) -> AugmentationSpace:
    """Form ``c = A u`` (k matvecs), optionally re-basing so the image columns
    are orthonormal, and factor the k x k test-space product.

    When ``orthonormalize_c`` is set the image is QR-factored, ``c`` becomes
    the orthonormal factor and ``u`` absorbs the inverse triangular factor so
    ``c == A u`` is preserved; the residual of that identity is re-validated
    without further operator applications.
    """
    op = as_operator(a)
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != op.dimension:
        raise DimensionError(f"augmentation basis shape {u.shape} does not match n")
    if u.shape[1] < 1:
        raise ValueError("augmentation basis must have at least one column")
    if small_pivots(np.diag(np.linalg.qr(u, mode="r")), u).size:
        raise ValueError("rank-deficient augmentation basis")

    c = np.column_stack([op(u[:, i]) for i in range(u.shape[1])])
    c_orthonormal = False
    if orthonormalize_c:
        q, rfac = np.linalg.qr(c, mode="reduced")
        if small_pivots(np.diag(rfac), c).size:
            raise ValueError("rank-deficient augmentation image (A u)")
        inv_r = scipy.linalg.solve_triangular(
            rfac, np.eye(rfac.shape[0], dtype=rfac.dtype), check_finite=False
        )
        u = u @ inv_r
        # c @ inv_r is A u for the new basis up to triangular round-off only,
        # so this re-validates c == A u without spending matvecs.
        drift = np.linalg.norm(c @ inv_r - q)
        scale = max(1.0, np.linalg.norm(c) * np.linalg.norm(inv_r))
        if drift > 1e-12 * scale:
            raise ValueError(
                f"orthonormalization broke the image identity: drift {drift:.3e}"
            )
        c = q
        c_orthonormal = True

    u_tilde = u if choice is Constraint.GALERKIN else c
    small = u_tilde.conj().T @ c
    cond = np.linalg.cond(small)
    if cond > SMALL_COND_WARN:
        warnings.warn(
            f"test-space product is ill-conditioned (cond ~ {cond:.2e})",
            stacklevel=2,
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        small_lu = scipy.linalg.lu_factor(small, check_finite=False)
    if small_pivots(np.diag(small_lu[0]), small).size:
        space = "augmentation basis" if choice is Constraint.GALERKIN else "augmentation image"
        raise SingularMatrixError(0, f"singular test-space product against the {space}")
    return AugmentationSpace(u, c, choice, c_orthonormal, small, small_lu)


def apply_complement_projector(aug: AugmentationSpace, v: np.ndarray) -> np.ndarray:
    """Remove from ``v`` (vector or columns) its oblique component along the
    augmentation image; the result is orthogonal to the test space."""
    v = np.asarray(v)
    if v.shape[0] != aug.n:
        raise DimensionError(f"operand length {v.shape[0]} != {aug.n}")
    return v - aug.c @ aug.solve_small(aug.u_tilde.conj().T @ v)


def apply_complement_projector_adjoint(aug: AugmentationSpace, v: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`apply_complement_projector`; maps a test vector into
    the shifted constraint space of the unprojected formulation."""
    v = np.asarray(v)
    if v.shape[0] != aug.n:
        raise DimensionError(f"operand length {v.shape[0]} != {aug.n}")
    return v - aug.u_tilde @ aug.solve_small(aug.c.conj().T @ v, adjoint=True)


def projected_residual(aug: AugmentationSpace, r0: np.ndarray):
    """Split the initial residual into its projected part and the paired
    augmentation coefficients.

    Returns ``(r_hat, z0)``: ``r_hat`` is the projected residual and ``u @ z0``
    the matching initial-solution shift, so ``b - A (x0 + u @ z0) == r_hat``.
    """
    r0 = np.asarray(r0)
    if r0.shape[0] != aug.n:
        raise DimensionError(f"residual length {r0.shape[0]} != {aug.n}")
    z0 = aug.solve_small(aug.u_tilde.conj().T @ r0)
    return r0 - aug.c @ z0, z0


def assemble_block_system(
    aug: AugmentationSpace, av: np.ndarray, v_tilde: np.ndarray, r0: np.ndarray
):
    """Dense (k+j) coupled system for the two corrections.

    ``av`` holds the operator applied to the Krylov basis columns and
    ``v_tilde`` the iterative test-space basis. Degenerates to the plain
    Krylov system for k = 0 and to the pure augmentation system for j = 0.
    """
    av = np.atleast_2d(np.asarray(av))
    v_tilde = np.atleast_2d(np.asarray(v_tilde))
    r0 = np.asarray(r0)
    if av.shape[0] != aug.n or v_tilde.shape[0] != aug.n or r0.shape[0] != aug.n:
        raise DimensionError("inconsistent dimensions in block assembly")
    if av.shape[1] != v_tilde.shape[1]:
        raise DimensionError("search and test bases must have equal column counts")
    k, j = aug.k, av.shape[1]
    ut = aug.u_tilde
    dtype = np.result_type(aug.c.dtype, av.dtype, v_tilde.dtype, r0.dtype, np.float64)
    m = np.zeros((k + j, k + j), dtype=dtype)
    rhs = np.zeros(k + j, dtype=dtype)
    m[:k, :k] = aug.small
    m[:k, k:] = ut.conj().T @ av
    m[k:, :k] = v_tilde.conj().T @ aug.c
    m[k:, k:] = v_tilde.conj().T @ av
    rhs[:k] = ut.conj().T @ r0
    rhs[k:] = v_tilde.conj().T @ r0
    return m, rhs


def solve_block_coupled(m: np.ndarray, rhs: np.ndarray, k: int, j: int):
    """Direct dense solve of the coupled system; the oracle path.

    Returns ``(z, y)``: the augmentation and Krylov coefficient blocks.
    """
    m = np.asarray(m)
    if m.shape != (k + j, k + j) or np.asarray(rhs).shape[0] != k + j:
        raise DimensionError(f"expected a ({k + j}) x ({k + j}) system")
    w = dense_solve(m, rhs)
    return w[:k], w[k:]


def compute_coupling(aug: AugmentationSpace, v: np.ndarray, hbar: np.ndarray) -> np.ndarray:
    """k x j coupling matrix: inverse small product times the test-space
    inner products of the Krylov images ``A V_j = V_{j+1} Hbar``."""
    v = np.asarray(v)
    hbar = np.asarray(hbar)
    if v.shape[0] != aug.n:
        raise DimensionError(f"basis length {v.shape[0]} != {aug.n}")
    ncols = min(v.shape[1], hbar.shape[0])
    uv = aug.u_tilde.conj().T @ v[:, :ncols]
    return aug.solve_small(uv @ hbar[:ncols, :])


def z_correction(
    aug: AugmentationSpace, y: np.ndarray, r0: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Augmentation coefficients recovered from the Krylov correction:
    ``z = (small)^{-1} u_tilde* r0 - B y``."""
    if np.asarray(y).shape[0] != np.asarray(b).shape[1]:
        raise DimensionError("coupling matrix and y disagree on j")
    return aug.solve_small(aug.u_tilde.conj().T @ r0) - b @ y


def projected_arnoldi(a, aug: AugmentationSpace, r_hat: np.ndarray, m: int, reorth: bool = True):
    """Arnoldi against the implicitly projected operator.

    Each step applies the plain operator and then removes the image
    component; the removal coefficients are accumulated column by column so
    that ``A V_j == c @ B + V_{j+1} Hbar`` (the extended relation).

    Returns ``(dec, B)``.
    """
    op = as_operator(a)
    coeffs = []

    def apply(x):
        w = op(x)
        s = aug.solve_small(aug.u_tilde.conj().T @ w)
        coeffs.append(s)
        return w - aug.c @ s

    dec = arnoldi(OperatorHandle(op.dimension, apply), r_hat, m, reorth=reorth)
    return dec, np.column_stack(coeffs[: dec.j])


def krylov_correction_projected(
    aug: AugmentationSpace, av: np.ndarray, v_tilde: np.ndarray, r0: np.ndarray
) -> np.ndarray:
    """Krylov coefficients from the projected formulation: project both the
    operator images and the residual, then test against ``v_tilde``."""
    w = apply_complement_projector(aug, av)
    rhs = v_tilde.conj().T @ apply_complement_projector(aug, r0)
    return dense_solve(v_tilde.conj().T @ w, rhs)


def krylov_correction_shifted(
    aug: AugmentationSpace, av: np.ndarray, v_tilde: np.ndarray, r0: np.ndarray
) -> np.ndarray:
    """Krylov coefficients from the unprojected formulation: plain operator
    images and residual, tested against the adjoint-shifted space."""
    t = apply_complement_projector_adjoint(aug, v_tilde)
    return dense_solve(t.conj().T @ av, t.conj().T @ r0)
