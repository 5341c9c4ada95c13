"""Ritz-vector harvesting and augmentation-space refresh.

The space for the next cycle or the next system in a family comes from a
finished cycle: ``A [U V_j] = [C V_{j+1}] blkdiag(I, Hbar)``, for the space
``U`` it ran with and its Arnoldi decomposition, gives Ritz pairs over the
whole search space (standard for the Galerkin constraint, harmonic for the
minimum-residual one) and their images, so a refresh within one solve spends
no matvecs; across systems the image is recomputed against the new operator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .arnoldi import ArnoldiDecomposition, as_operator
from .augmented import AugmentationSpace, Constraint, _factored_space, build_augmentation
from .core import PIVOT_RTOL, small_eig

# A direction of U outside span(V_j) is kept when its squared norm relative to
# U's unit-scaled columns exceeds this: a Gram difference resolves about 1e-16.
GRAM_RTOL = 1e-8

__all__ = [
    "Selection",
    "RefreshPolicy",
    "RecycleSpec",
    "RitzPairs",
    "extract_ritz",
    "refresh",
    "per_cycle_recycler",
]


class Selection(Enum):
    SMALLEST_MAGNITUDE = "mag"
    SMALLEST_REAL = "real"


class RefreshPolicy(Enum):
    PER_SYSTEM = "system"
    PER_CYCLE = "cycle"


@dataclass
class RecycleSpec:
    """How many Ritz vectors to keep, picked how, refreshed when."""

    k: int
    selection: Selection = Selection.SMALLEST_MAGNITUDE
    refresh_policy: RefreshPolicy = RefreshPolicy.PER_SYSTEM

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")


class RitzPairs(NamedTuple):
    """Selected Ritz vectors (unit columns), their values, residual norms
    ``||A u - theta u||`` and images ``A u``. A real problem's conjugate pair
    is the real and imaginary parts of its vector, each with the pair's norm.
    """

    vectors: np.ndarray
    values: np.ndarray
    residuals: np.ndarray
    images: np.ndarray


def _selection_order(values: np.ndarray, selection: Selection) -> np.ndarray:
    # Deterministic: ties broken by smaller real part, then smaller imaginary
    # part, so identical inputs always yield identical bases.
    keys = [values.imag, values.real]  # np.lexsort sorts by the last key first
    if selection is Selection.SMALLEST_MAGNITUDE:
        keys.append(np.abs(values))
    return np.lexsort(keys)


def extract_ritz(
    dec: ArnoldiDecomposition, k: int, selection: Selection = Selection.SMALLEST_MAGNITUDE,
    aug: AugmentationSpace | None = None, choice: Constraint = Constraint.GALERKIN,
) -> RitzPairs:
    """Select ``k`` Ritz pairs of the operator over ``W = [U V_j]``, where
    ``U = aug.u`` (none without ``aug``) is the space the decomposition's cycle
    ran with and ``C = aug.c = A U``.

    GALERKIN takes standard Ritz pairs, ``W*AW y = theta W*W y``; MINRES
    harmonic ones, ``(AW)*AW y = theta (AW)*W y``. The small matrices are read
    off ``A [U V_j] = [C V_{j+1}] blkdiag(I, Hbar)`` through ``E = V_{j+1}* U``,
    ``D = V_{j+1}* C``, ``U*U``, ``U*C`` and ``C*C`` in the orthonormal basis
    ``Q = [(U - V_j E_j) P, V_j]``; with no ``U`` the Galerkin one is the
    square Hessenberg. The vectors ``U y_u + V_j y_v`` come with their images
    ``C y_u + V_{j+1} Hbar y_v``: no operator is applied. Eigenvectors have
    their phase normalized (largest entry real positive), keeping the basis
    deterministic.
    """
    n, j = dec.v.shape[0], dec.j
    u = np.zeros((n, 0)) if aug is None else aug.u
    c = u if aug is None else aug.c
    if k > u.shape[1] + j:
        raise ValueError(f"requested {k} Ritz vectors from a size-{u.shape[1] + j} space")
    if k == 0:
        return RitzPairs(np.zeros((n, 0)), np.zeros(0, dtype=complex), np.zeros(0), np.zeros((n, 0)))
    v = dec.v
    hbar = dec.hbar[: v.shape[1]]  # on a breakdown V_{j+1} is V_j and Hbar's last row is 0
    e = (u.conj().T @ v).conj().T  # never conjugate-copies the basis
    d = (c.conj().T @ v).conj().T
    # (U - V_j E_j) P is an orthonormal basis of span(U) outside span(V_j), from
    # the Gram difference U*U - E_j* E_j of U's unit-scaled columns
    uu = u.conj().T @ u
    scale = np.sqrt(np.diag(uu).real)
    lam, z = np.linalg.eigh((uu - e[:j].conj().T @ e[:j]) / np.outer(scale, scale))
    p = z[:, lam > GRAM_RTOL] / np.outer(scale, np.sqrt(lam[lam > GRAM_RTOL]))
    # Q = [(U - V_j E_j) P, V_j]: V_{j+1}* Q = [[0, I], [E[j] P, 0]] and
    # V_{j+1}* A Q = [(D - Hbar E_j) P, Hbar]; the rest of Q* A Q comes from
    # the parts of U and C outside V_{j+1}
    ph, lph = p.conj().T, (e[j:] @ p).conj().T
    dh = (d - hbar @ e[:j]) @ p
    m = np.block([[lph @ dh[j:], lph @ hbar[j:]], [dh[:j], dec.h]])
    m[: p.shape[1], : p.shape[1]] += ph @ (u.conj().T @ c - e.conj().T @ d) @ p
    if choice is Constraint.GALERKIN:
        values, g = small_eig(m)
    else:  # (AQ)* AQ y = theta (AQ)* Q y, and (AQ)* Q = m*
        top = dh.conj().T @ dh + ph @ (c.conj().T @ c - d.conj().T @ d) @ p
        values, g = small_eig(
            np.block([[top, dh.conj().T @ hbar], [hbar.conj().T @ dh, hbar.conj().T @ hbar]]), m.conj().T
        )
    for i in range(g.shape[1]):
        pivot = g[np.argmax(np.abs(g[:, i])), i]
        if pivot != 0:
            g[:, i] = g[:, i] * (np.conj(pivot) / abs(pivot))
    # an infinite value (a harmonic one where H is singular) has no Ritz vector
    order = _selection_order(values, selection)
    order = order[np.isfinite(values[order])]
    if len(order) < k:
        warnings.warn(f"decomposition supports only {len(order)} of {k} requested Ritz vectors", stacklevel=2)
    # on a real problem a conjugate pair is kept whole, as its vector's real and
    # imaginary parts, or left out when it does not fit; its partner comes with it
    real = not np.iscomplexobj(m)
    cols, picked = [], []
    for i in order:
        width = 2 if real and values[i].imag > 0 else 1
        if not (real and values[i].imag < 0) and len(cols) + width <= k:
            cols += [g[:, i].real, g[:, i].imag][:width] if real else [g[:, i]]
            picked += [values[i], values[i].conj()][:width]
    w = np.column_stack(cols) if cols else np.zeros((g.shape[0], 0))
    values = np.array(picked, dtype=complex)
    y_u = p @ w[: p.shape[1]]
    y_v = w[p.shape[1] :] - e[:j] @ y_u
    basis = dec.basis @ y_v + u @ y_u
    images = v @ (hbar @ y_v) + c @ y_u
    # A [x y] = [x y] [[a, b], [-b, a]] for a pair's columns, which both report
    # the residual of its complex vector x + iy
    theta = np.diag(values.real if real else values)
    pair = np.flatnonzero((values.imag > 0) & real)
    theta[pair, pair + 1], theta[pair + 1, pair] = values[pair].imag, -values[pair].imag
    norms = np.linalg.norm(basis, axis=0)
    norms[norms == 0] = 1.0
    sq = np.stack([np.linalg.norm(images - basis @ theta, axis=0), norms]) ** 2
    sq[:, pair] = sq[:, pair + 1] = sq[:, pair] + sq[:, pair + 1]
    return RitzPairs(basis / norms, values, np.sqrt(sq[0] / sq[1]), images / norms)


def _recycled(aug: AugmentationSpace | None, dec: ArnoldiDecomposition, spec: RecycleSpec, choice: Constraint, build):
    """The next space, ``build(u, c)`` of the Ritz vectors over ``[U V_j]`` and
    their images with dependent vectors dropped, or the empty space."""
    k = min(spec.k, dec.j + (0 if aug is None else aug.k))
    if k < spec.k:
        warnings.warn(f"decomposition supports only {k} of {spec.k} requested Ritz vectors", stacklevel=3)
    pairs = extract_ritz(dec, k, spec.selection, aug, choice)
    if pairs.vectors.shape[1] == 0:
        return AugmentationSpace.empty(dec.v.shape[0], choice)
    _, r, piv = scipy.linalg.qr(pairs.vectors, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    keep = np.sort(piv[diag >= PIVOT_RTOL * max(diag[0], 1e-300)])
    if len(keep) < pairs.vectors.shape[1]:
        warnings.warn(f"dropping {pairs.vectors.shape[1] - len(keep)} dependent Ritz vectors", stacklevel=3)
    return build(pairs.vectors[:, keep], pairs.images[:, keep])


def refresh(
    a,
    old_aug: AugmentationSpace | None,
    dec: ArnoldiDecomposition | None,
    spec: RecycleSpec,
    choice: Constraint,
    orthonormalize_c: bool = False,
) -> AugmentationSpace | None:
    """Rebuild the augmentation space for the operator ``a`` of a new system
    from the latest decomposition and the space ``old_aug`` its cycle ran with.

    Without a decomposition ``old_aug`` is returned untouched, and with
    ``spec.k == 0`` the empty space (zero matvecs either way). Otherwise the
    Ritz vectors of :func:`extract_ritz` over ``[U V_j]`` (standard for
    GALERKIN, harmonic for MINRES) are taken, dependent columns dropped, and
    the image recomputed against ``a`` (k matvecs), so recycling across a
    family always validates the image identity against the current operator.
    """
    if dec is None:
        return old_aug
    op = as_operator(a)
    return _recycled(old_aug, dec, spec, choice, lambda u, _: build_augmentation(op, u, choice, orthonormalize_c))


def per_cycle_recycler(spec: RecycleSpec, choice: Constraint, orthonormalize_c: bool = False):
    """Recycler callback for the augmented solve loop.

    Returns ``None`` between cycles unless the policy is PER_CYCLE, in which
    case the space is rebuilt like :func:`refresh` does, but over the same
    operator, so the images come from the Arnoldi relation: no matvecs.
    """

    def callback(op, aug, dec):
        if spec.refresh_policy is not RefreshPolicy.PER_CYCLE:
            return None
        return _recycled(aug, dec, spec, choice, lambda u, c: _factored_space(u, c, choice, orthonormalize_c))

    return callback
