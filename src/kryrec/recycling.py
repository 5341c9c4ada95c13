"""Ritz-vector harvesting, augmentation-space refresh and the family solve.

A finished cycle gives the space for the next cycle or, in :func:`solve_family`,
the next system: ``A [U V_j] = [C V_{j+1}] blkdiag(I, Hbar)``, for the space
``U`` it ran with and its Arnoldi decomposition, gives Ritz pairs over the
whole search space (standard for the Galerkin constraint, harmonic for the
minimum-residual one) and their images, so a refresh within one solve spends
no matvecs; across systems the image is recomputed against the new operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .arnoldi import ArnoldiDecomposition, as_operator
from .augmented import AugmentationSpace, Constraint, _factored_space
from .baseline import SolverBreakdownError, SolverConfig
from .core import warn_caller
from .unprojected import unproj_solve

# A direction of U outside span(V_j) is kept when its squared norm relative to
# U's unit-scaled columns exceeds this.
GRAM_RTOL = 1e-8

__all__ = [
    "Selection",
    "RefreshPolicy",
    "RecycleSpec",
    "RitzPairs",
    "extract_ritz",
    "refresh",
    "per_cycle_recycler",
    "solve_family",
]


class Selection(Enum):
    SMALLEST_MAGNITUDE = "mag"
    SMALLEST_REAL = "real"


class RefreshPolicy(Enum):
    PER_SYSTEM = "system"
    PER_CYCLE = "cycle"


@dataclass
class RecycleSpec:
    """How many Ritz vectors to keep (``k >= 0``), picked how, refreshed when.
    ``selection`` takes a :class:`Selection` or its value (``"mag"``, ``"real"``),
    ``refresh_policy`` a :class:`RefreshPolicy` or its value (``"system"``,
    ``"cycle"``); anything else raises ``ValueError``."""

    k: int
    selection: Selection = Selection.SMALLEST_MAGNITUDE
    refresh_policy: RefreshPolicy = RefreshPolicy.PER_SYSTEM

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        self.selection = Selection(self.selection)
        self.refresh_policy = RefreshPolicy(self.refresh_policy)


class RitzPairs(NamedTuple):
    """An orthonormal basis ``W`` of the selected Ritz vectors' span, the Ritz
    values, the column norms of ``A W - W T`` and the images ``A W``. ``T`` is the
    leading block of the reordered Schur form (standard pairs) or ``T_b^{-1} S_b``
    of the reordered QZ form's (harmonic pairs), so ``A W - W T`` is orthogonal
    to ``W`` or ``A W``; a real problem's conjugate pair is a 2 x 2 block of it."""

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


def _lapack(name: str, select, *matrices, **options):
    """LAPACK's ``name`` for the matrices' type; its outputs but ``info``. A nonzero
    ``info`` (no convergence, a rejected reordering) raises SolverBreakdownError."""
    *out, info = scipy.linalg.get_lapack_funcs(name, matrices)(select, *matrices, **options)
    if info != 0:
        raise SolverBreakdownError(f"LAPACK {name} failed with info {info}")
    return out


def extract_ritz(
    dec: ArnoldiDecomposition, k: int, selection: Selection = Selection.SMALLEST_MAGNITUDE,
    choice: Constraint = Constraint.GALERKIN,
) -> RitzPairs:
    """Select ``k`` Ritz pairs of the operator over ``W = [U V_j]``, where ``U``
    is the space the decomposition's cycle ran with (``dec.space``; none for
    :func:`arnoldi`'s own result) and ``C = A U``.

    GALERKIN takes standard Ritz pairs, ``W*AW y = theta W*W y``; MINRES harmonic
    ones, ``(AW)*AW y = theta (AW)*W y``. Both are read off the orthonormal basis
    ``Q = [x, V_j]``, with ``x`` an orthonormal basis of U's part outside span(V_j),
    ``U - V_j E_j`` for the cycle's ``E = V_{j+1}* U``, and its image ``A x`` from
    ``A [U V_j] = [C V_{j+1}] blkdiag(I, Hbar)``; with no ``U`` the Galerkin matrix is
    the square Hessenberg. The Schur (QZ) form is reordered so the selected values
    lead, and its leading Schur vectors ``w`` give the orthonormal vectors ``Q w`` and
    their images ``[A x, V_{j+1} Hbar] w``: no operator is applied. Fewer than ``k``
    columns come back where a conjugate pair does not fit or, with one warning, fewer
    than ``k`` values are finite, as where ``k`` exceeds the space's size.
    """
    n, j = dec.v.shape[0], dec.j
    none = np.zeros((len(dec.hbar), 0))  # D and E of arnoldi's own result: no U
    aug, d, e = dec.space or (AugmentationSpace.empty(n), none, none)
    u, c = aug.u, aug.c
    if k == 0:
        return RitzPairs(np.zeros((n, 0)), np.zeros(0, dtype=complex), np.zeros(0), np.zeros((n, 0)))
    v, hbar, vj = dec.v, dec.hbar, dec.basis
    # x: an orthonormal basis of U's part outside span(V_j) (its directions above
    # GRAM_RTOL), ax = A x and vax = V_{j+1}* A x. Where that part has lost over
    # half its squared norm, x is orthogonalized against V_j and normalized a second
    # time, and vax formed from ax ("twice is enough"), so all three hold to rounding
    scale = np.sqrt(np.einsum("ij,ij->j", u.conj(), u).real)
    x, ax, vax = u - vj @ e[:j], c - v @ (hbar @ e[:j]), d - hbar @ e[:j]
    for sweep in range(2):
        lam, z = np.linalg.eigh(x.conj().T @ x / np.outer(scale, scale))
        keep = lam > GRAM_RTOL
        to_unit = z[:, keep] / np.outer(scale, np.sqrt(lam[keep]))
        x, ax, vax = x @ to_unit, ax @ to_unit, vax @ to_unit
        if sweep or np.all(lam[keep] > 0.5):
            break
        again = vj.conj().T @ x
        x, ax, scale = x - vj @ again, ax - v @ (hbar @ again), np.ones(x.shape[1])
        vax = v.conj().T @ ax
    m = np.block([[x.conj().T @ ax, x.conj().T @ v[:, j:] @ hbar[j:]], [vax[:j], dec.h]])
    real = not np.iscomplexobj(m)
    if choice is Constraint.GALERKIN:
        t, _, *ev, z, _ = _lapack("gees", lambda *_: 0, m)
        beta = 1.0
    else:  # (AQ)* AQ y = theta (AQ)* Q y, and (AQ)* Q = m*
        gram = np.block([[ax.conj().T @ ax, vax.conj().T @ hbar], [hbar.conj().T @ vax, hbar.conj().T @ hbar]])
        s, tb, _, *ev, beta, ql, z, _ = _lapack("gges", lambda *_: 0, gram, m.conj().T)
    # beta = 0 where H is singular: an infinite harmonic value has no Ritz vector
    with np.errstate(divide="ignore", invalid="ignore"):
        values = (ev[0] + 1j * ev[1] if real else ev[0]) / beta
    order = _selection_order(values, selection)
    order = order[np.isfinite(values[order])]
    if len(order) < k:
        warn_caller(f"decomposition supports only {len(order)} of {k} requested Ritz vectors")
    # on a real problem a conjugate pair, a 2 x 2 block led by its value with
    # the positive imaginary part, is kept whole or left out when it does not fit
    select = np.zeros(len(values), dtype=np.int32)
    for i in order:
        width = 2 if real and values[i].imag > 0 else 1
        if not (real and values[i].imag < 0) and select.sum() + width <= k:
            select[i : i + width] = 1
    # reordering keeps the order of the values it moves to the front
    values, taken = values[select == 1], select.sum()
    if choice is Constraint.GALERKIN:
        t, z = _lapack("trsen", select, t, z, job="N")[:2]
    else:
        s, tb, *_, z, _, _, _, _ = _lapack("tgsen", select, s, tb, ql, z, ijob=0)
        t = scipy.linalg.solve_triangular(tb[:taken, :taken], s[:taken, :taken], check_finite=False)
    w_x, w_v = z[: x.shape[1], :taken], z[x.shape[1] :, :taken]
    basis = x @ w_x + vj @ w_v
    images = ax @ w_x + v @ (hbar @ w_v)
    return RitzPairs(basis, values, np.linalg.norm(images - basis @ t[:taken, :taken], axis=0), images)


def _recycled(dec: ArnoldiDecomposition, spec: RecycleSpec, choice: Constraint, op):
    """The next space, of :func:`extract_ritz`'s orthonormal basis of ``spec.k`` Ritz vectors
    over ``[U V_j]``, or the empty space. Its image is ``op`` applied in column order or,
    where ``op`` is None, the one the Arnoldi relation gave."""
    u, _, _, c = extract_ritz(dec, spec.k, spec.selection, choice)
    if u.shape[1] == 0:
        return AugmentationSpace.empty(dec.v.shape[0], choice)
    c = c if op is None else np.column_stack([op(x) for x in u.T])
    return _factored_space(u, c, choice)


def _check_orthonormalize_c(choice: Constraint, orthonormalize_c: bool | None) -> None:
    """``choice`` decides the image basis; the retired ``orthonormalize_c`` may only repeat it."""
    if orthonormalize_c not in (None, choice is Constraint.MINRES):
        raise ValueError(f"orthonormalize_c={orthonormalize_c} contradicts {choice}: only MINRES orthonormalizes")


def refresh(
    a,
    old_aug: AugmentationSpace | None,
    dec: ArnoldiDecomposition | None,
    spec: RecycleSpec,
    choice: Constraint,
    orthonormalize_c: bool | None = None,
) -> AugmentationSpace | None:
    """Rebuild the augmentation space for the operator ``a`` of a new system
    from the latest decomposition, which carries the space its cycle ran with.

    Without a decomposition ``old_aug`` is returned untouched, and with ``spec.k == 0``
    the empty space (zero matvecs either way). Otherwise :func:`extract_ritz`'s
    orthonormal basis of ``spec.k`` Ritz vectors over ``[U V_j]`` (standard for GALERKIN,
    harmonic for MINRES; fewer, with one warning, where the decomposition supports fewer)
    is taken and its image recomputed against ``a`` (one matvec a column), so recycling
    across a family always validates the image identity against the current operator.
    ``orthonormalize_c`` is retired: only ``None`` or ``choice is Constraint.MINRES``
    passes, and it goes once the benchmark's call sites stop passing it.
    """
    _check_orthonormalize_c(choice, orthonormalize_c)
    if dec is None:
        return old_aug
    return _recycled(dec, spec, choice, as_operator(a))


def per_cycle_recycler(spec: RecycleSpec, choice: Constraint, orthonormalize_c: bool | None = None):
    """Recycler callback for the augmented solve loop.

    Returns ``None`` between cycles unless the policy is PER_CYCLE, in which
    case the space is rebuilt like :func:`refresh` does, but over the same
    operator, so the images come from the Arnoldi relation: no matvecs.
    ``orthonormalize_c`` is checked as in :func:`refresh`, before any cycle runs.
    """
    _check_orthonormalize_c(choice, orthonormalize_c)

    def callback(op, aug, dec):
        if spec.refresh_policy is not RefreshPolicy.PER_CYCLE:
            return None
        return _recycled(dec, spec, choice, None)

    return callback


def solve_family(systems, method: str, cfg: SolverConfig, spec: RecycleSpec):
    """Solve the ``(a, b, label)`` systems in turn with ``"rfom"`` or ``"rgmres"``,
    yielding ``(result, refresh_matvecs)`` for each. Under PER_SYSTEM, :func:`refresh`
    first rebuilds the space from the previous solve's final decomposition against the
    new operator, spending ``refresh_matvecs`` (0 on the first system), which
    ``result.matvec_count`` leaves out. Every solve gets :func:`per_cycle_recycler`,
    which rebuilds the space between cycles only under PER_CYCLE."""
    choice = Constraint.of(method)
    aug = dec = None
    for a, b, _ in systems:
        op = as_operator(a)
        start = op.matvec_count
        if spec.refresh_policy is RefreshPolicy.PER_SYSTEM:
            aug = refresh(op, aug, dec, spec, choice)
        refresh_matvecs = op.matvec_count - start
        res = unproj_solve(op, b, None, aug, cfg, method, recycler=per_cycle_recycler(spec, choice))
        dec = res.final_decomposition
        yield res, refresh_matvecs
