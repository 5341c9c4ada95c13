"""Unprojected augmented solvers.

Both methods grow the Krylov space with the plain operator (no projector
inside the Arnoldi loop) and fold the augmentation space in afterwards: a
reduced j x j (or normal-equations) system gives the Krylov correction, a
small coupling solve gives the augmentation correction.

``rfom`` imposes a Galerkin constraint against the Krylov space and the
augmentation basis; ``rgmres`` minimizes the residual over the sum of the
Krylov space and the augmentation space, assuming the image columns are
orthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arnoldi import arnoldi, as_operator
from .augmented import (
    AugmentationSpace,
    Constraint,
    build_augmentation,
    compute_coupling,
    projected_residual,
)
from .baseline import (
    SolveResult,
    SolverBreakdownError,
    SolverConfig,
    _check_inputs,
    _krylov_update,
    _run_cycles,
    fom_cycle,
    gmres_cycle,
)
from .core import SingularMatrixError, dense_solve

__all__ = [
    "AugmentedSolveResult",
    "unproj_rfom_cycle",
    "unproj_rgmres_cycle",
    "unproj_solve",
]


@dataclass
class AugmentedSolveResult(SolveResult):
    """Solve outcome plus the per-cycle augmentation correction norms."""

    z_norms: list = field(default_factory=list)
    k_used: int = 0
    final_decomposition: object = None


def _augmented_cycle(a, aug: AugmentationSpace, r0: np.ndarray, m: int, reorth: bool, method: str):
    """The cycle shared by ``rfom`` and ``rgmres``.

    Arnoldi on the plain operator, then one reduced j x j system for the
    Krylov coefficients ``y``, then the augmentation coefficients
    ``z = z0 - B y``, with ``z0`` from ``projected_residual`` (the same bits
    as ``z_correction``). The two methods differ only in that system: the
    Galerkin one is ``(H - V_j* C B) y = V_j* r_hat``; the minimum-residual
    one is the normal equations of
    ``min || r_hat - (I - C C*) V_{j+1} Hbar y ||`` (``C`` orthonormal).
    Applying ``x += V_j y + U z`` and ``r -= V_{j+1} Hbar y + C z``
    completes the cycle.
    """
    if aug.k == 0:
        y, dec = (fom_cycle if method == "rfom" else gmres_cycle)(a, r0, m, reorth=reorth)
        return y, np.zeros(0), dec, np.zeros((0, dec.j))
    dec = arnoldi(as_operator(a), r0, m, reorth=reorth)
    j = dec.j
    coupling = compute_coupling(aug, dec.v, dec.hbar)
    r_hat, z0 = projected_residual(aug, r0)
    vr = dec.v.conj().T @ r_hat
    d = dec.v.conj().T @ aug.c  # basis/image inner products
    if method == "rfom":
        lhs = dec.h - d[:j] @ coupling
        rhs = vr[:j]
    else:
        hb = dec.hbar[: dec.v.shape[1], :]
        hd = hb.conj().T @ d
        lhs = hb.conj().T @ hb - hd @ hd.conj().T
        rhs = hb.conj().T @ vr
    try:
        y = dense_solve(lhs, rhs)
    except SingularMatrixError as exc:
        raise SolverBreakdownError(f"singular reduced system at size {j}", dec) from exc
    z = z0 - coupling @ y
    return y, z, dec, coupling


def unproj_rfom_cycle(a, aug: AugmentationSpace, r0: np.ndarray, m: int, reorth: bool = True):
    """One augmented FOM cycle on the plain-operator Krylov space (Galerkin
    constraint). Returns ``(y, z, dec, coupling)``."""
    if aug.k > 0 and aug.choice is not Constraint.GALERKIN:
        raise ValueError("rfom requires a Galerkin-constrained augmentation space")
    return _augmented_cycle(a, aug, r0, m, reorth, "rfom")


def unproj_rgmres_cycle(a, aug: AugmentationSpace, r0: np.ndarray, m: int, reorth: bool = True):
    """One augmented GMRES cycle on the plain-operator Krylov space (minimum
    residual over the Krylov plus augmentation space); requires orthonormal
    image columns. Returns ``(y, z, dec, coupling)``."""
    if aug.k > 0 and not (aug.choice is Constraint.MINRES and aug.c_orthonormal):
        raise ValueError(
            "rgmres requires a minimum-residual augmentation space with "
            "orthonormal image columns"
        )
    return _augmented_cycle(a, aug, r0, m, reorth, "rgmres")


def unproj_solve(
    a,
    b: np.ndarray,
    x0,
    u0,
    cfg: SolverConfig,
    method: str,
    recycler=None,
) -> AugmentedSolveResult:
    """Restarted unprojected augmented solve.

    ``u0`` seeds the augmentation space (``None`` or zero columns degenerates
    to the plain restarted method). After each cycle the iterate gains the
    cycle's Krylov and augmentation corrections and the residual loses both
    of their images. An optional ``recycler(op, aug, dec)`` callback may
    replace the augmentation space between cycles; it returns the new space
    or ``None`` to keep it.
    """
    if method not in ("rfom", "rgmres"):
        raise ValueError(f"method must be 'rfom' or 'rgmres', got {method!r}")
    op, b, x = _check_inputs(a, b, x0)
    start_count = op.matvec_count

    choice = Constraint.GALERKIN if method == "rfom" else Constraint.MINRES
    if isinstance(u0, AugmentationSpace):
        aug = u0
    elif u0 is None or np.asarray(u0).shape[1] == 0:
        aug = AugmentationSpace.empty(op.dimension, choice)
    else:
        aug = build_augmentation(op, u0, choice, orthonormalize_c=(method == "rgmres"))

    cycle_fn = unproj_rfom_cycle if method == "rfom" else unproj_rgmres_cycle
    base = "fom" if method == "rfom" else "gmres"
    result = AugmentedSolveResult(
        x=x, residual_history=[], matvec_count=0, converged=False, cycles_used=0, k_used=aug.k
    )

    def step(x, r, rnorm, cycle):
        nonlocal aug
        # the recycler sees the previous cycle's decomposition, so it runs
        # only between cycles, never after the last one
        if recycler is not None and cycle > 1:
            new_aug = recycler(op, aug, result.final_decomposition)
            if new_aug is not None:
                aug = new_aug
                result.k_used = max(result.k_used, aug.k)
        y, z, dec, _ = cycle_fn(op, aug, r, cfg.cycle_length, cfg.reorth)
        result.final_decomposition = dec
        result.z_norms.append(float(np.linalg.norm(z)))
        if aug.k == 0:
            return _krylov_update(result.residual_history, cycle, x, r, rnorm, dec, y, base)
        x = x + dec.basis @ y + aug.u @ z
        r = r - dec.v @ (dec.hbar[: dec.v.shape[1], :] @ y) - aug.c @ z
        return x, r, dec.j

    return _run_cycles(op, b, x, cfg, step, result, start_count)
