"""Ritz-vector harvesting and augmentation-space refresh.

The augmentation space for the next cycle or the next system in a family is
built from by-products of a finished solve: eigenpairs of the square
Hessenberg lift to Ritz pairs of the operator restricted to the Krylov
space, and the ones with the smallest eigenvalue estimates are kept.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .arnoldi import ArnoldiDecomposition, as_operator
from .augmented import AugmentationSpace, Constraint, build_augmentation
from .core import PIVOT_RTOL, small_eig

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
    """Selected Ritz vectors (columns), their values, and residual norms.

    The residual norm of pair ``(theta, V w)`` equals
    ``|h_{j+1,j}| * |last entry of w|`` by the Arnoldi relation.
    """

    vectors: np.ndarray
    values: np.ndarray
    residuals: np.ndarray


def _selection_order(values: np.ndarray, selection: Selection) -> np.ndarray:
    # Deterministic: ties broken by smaller real part, then smaller imaginary
    # part, so identical inputs always yield identical bases.
    keys = [values.imag, values.real]  # np.lexsort sorts by the last key first
    if selection is Selection.SMALLEST_MAGNITUDE:
        keys.append(np.abs(values))
    return np.lexsort(keys)


def extract_ritz(
    dec: ArnoldiDecomposition, k: int, selection: Selection = Selection.SMALLEST_MAGNITUDE
) -> RitzPairs:
    """Lift ``k`` eigenpairs of the square Hessenberg to Ritz pairs.

    Eigenvectors have their phase normalized (largest entry real positive)
    before lifting, keeping the returned basis deterministic.
    """
    if k > dec.j:
        raise ValueError(f"requested {k} Ritz vectors from a size-{dec.j} decomposition")
    if k == 0:
        return RitzPairs(
            np.zeros((dec.v.shape[0], 0)), np.zeros(0, dtype=complex), np.zeros(0)
        )
    values, vectors = small_eig(dec.h)
    order = _selection_order(values, selection)[:k]
    values = values[order]
    w = vectors[:, order]
    for i in range(k):
        pivot = w[np.argmax(np.abs(w[:, i])), i]
        if pivot != 0:
            w[:, i] = w[:, i] * (np.conj(pivot) / abs(pivot))
    h_next = abs(dec.hbar[dec.j, dec.j - 1]) if dec.hbar.shape[0] > dec.j else 0.0
    residuals = h_next * np.abs(w[-1, :])
    basis = dec.basis @ w
    norms = np.linalg.norm(basis, axis=0)
    norms[norms == 0] = 1.0
    return RitzPairs(basis / norms, values, residuals)


def _drop_dependent_columns(u: np.ndarray) -> np.ndarray:
    if u.shape[1] == 0:
        return u
    _, r, piv = scipy.linalg.qr(u, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    keep = piv[diag >= PIVOT_RTOL * max(diag[0], 1e-300)]
    if len(keep) < u.shape[1]:
        warnings.warn(
            f"dropping {u.shape[1] - len(keep)} dependent Ritz vectors", stacklevel=3
        )
    return u[:, np.sort(keep)]


def refresh(
    a,
    old_aug: AugmentationSpace | None,
    dec: ArnoldiDecomposition | None,
    spec: RecycleSpec,
    choice: Constraint,
    orthonormalize_c: bool = False,
) -> AugmentationSpace | None:
    """Rebuild the augmentation space from the latest decomposition.

    Without a decomposition ``old_aug`` is returned untouched, and with
    ``spec.k == 0`` the empty space (zero matvecs either way). Otherwise fresh
    Ritz vectors are extracted, dependent columns dropped, and the image
    recomputed against ``a`` (k matvecs), so recycling across a family always
    validates the image identity against the current operator.
    """
    if dec is None:
        return old_aug
    op = as_operator(a)
    k = min(spec.k, dec.j)
    if k < spec.k:
        warnings.warn(
            f"decomposition supports only {k} of {spec.k} requested Ritz vectors",
            stacklevel=2,
        )
    if k == 0:
        return AugmentationSpace.empty(op.dimension, choice)
    u = extract_ritz(dec, k, spec.selection).vectors
    u = _drop_dependent_columns(u)
    if u.shape[1] == 0:
        return AugmentationSpace.empty(op.dimension, choice)
    return build_augmentation(op, u, choice, orthonormalize_c=orthonormalize_c)


def per_cycle_recycler(spec: RecycleSpec, choice: Constraint, orthonormalize_c: bool = False):
    """Recycler callback for the augmented solve loop.

    Returns ``None`` between cycles unless the policy is PER_CYCLE, in which
    case the space is rebuilt from the cycle's decomposition.
    """

    def callback(op, aug, dec):
        if spec.refresh_policy is not RefreshPolicy.PER_CYCLE:
            return None
        return refresh(op, aug, dec, spec, choice, orthonormalize_c)

    return callback
