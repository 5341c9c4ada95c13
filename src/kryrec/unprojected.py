"""Unprojected augmented solvers.

Both methods grow the Krylov space with the plain operator (no projector
inside the Arnoldi loop) and fold the augmentation space in afterwards: a
small system read off the Arnoldi relation (square for ``rfom``, least
squares for ``rgmres``) gives the Krylov correction, and the coupling matrix
turns it into the augmentation correction. With an empty augmentation space
the cycles are FOM and GMRES in the same floating-point operations.

``rfom`` imposes a Galerkin constraint against the Krylov space and the
augmentation basis; ``rgmres`` minimizes the residual over the sum of the
Krylov space and the augmentation space, whose minimum-residual image
columns are orthonormal by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arnoldi import as_operator
from .augmented import AugmentationSpace, Constraint, build_augmentation
from .baseline import (
    SolveResult,
    SolverConfig,
    _ResidualMonitor,
    _check_inputs,
    _krylov_update,
    _run_cycles,
)

__all__ = [
    "AugmentedSolveResult",
    "unproj_rfom_cycle",
    "unproj_rgmres_cycle",
    "unproj_solve",
]


@dataclass
class AugmentedSolveResult(SolveResult):
    """Solve outcome plus the per-cycle augmentation correction norms.
    ``final_decomposition``, the source to recycle from, is the last one that ran
    all ``cycle_length`` steps or broke down: a cycle stopped early is too short."""

    z_norms: list = field(default_factory=list)
    k_used: int = 0
    final_decomposition: object = None


def _augmented_cycle(a, aug: AugmentationSpace, r0: np.ndarray, m: int, reorth, choice, threshold):
    """The cycle shared by ``rfom`` (``choice`` GALERKIN) and ``rgmres`` (MINRES): Arnoldi
    on the plain operator under the residual monitor, stopped at the first norm meeting
    ``threshold``, then the monitor's reduced solution; FOM/GMRES bit for bit at ``k = 0``."""
    if aug.k > 0 and aug.choice is not choice:
        raise ValueError(f"a {choice.value} cycle requires a {choice.value} augmentation space")
    monitor = _ResidualMonitor(r0, choice, threshold, aug)
    dec = monitor.run(as_operator(a), r0, m, reorth)
    y, z, coupling = monitor.reduced(dec.hbar)
    return y, z, dec, coupling


def unproj_rfom_cycle(a, aug: AugmentationSpace, r0: np.ndarray, m: int, reorth=True, threshold=0.0):
    """One augmented FOM cycle on the plain-operator Krylov space (Galerkin
    constraint), stopped at a residual norm <= ``threshold``. Returns ``(y, z, dec, coupling)``."""
    return _augmented_cycle(a, aug, r0, m, reorth, Constraint.GALERKIN, threshold)


def unproj_rgmres_cycle(a, aug: AugmentationSpace, r0: np.ndarray, m: int, reorth=True, threshold=0.0):
    """One augmented GMRES cycle on the plain-operator Krylov space (minimum
    residual over the Krylov plus augmentation space), stopped at a residual norm
    <= ``threshold``; requires a minimum-residual space, whose image columns are
    orthonormal. Returns ``(y, z, dec, coupling)``."""
    return _augmented_cycle(a, aug, r0, m, reorth, Constraint.MINRES, threshold)


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

    ``u0`` seeds the augmentation space (``None`` or a 2-D array of zero
    columns degenerates to the plain restarted method). After each cycle the
    iterate gains the cycle's Krylov and augmentation corrections and the
    residual loses both of their images. An optional ``recycler(op, aug, dec)``
    callback may replace the augmentation space between cycles; it returns the
    new space or ``None`` to keep it.
    """
    choice = Constraint.of(method)
    op, b, x = _check_inputs(a, b, x0)
    start_count = op.matvec_count

    if isinstance(u0, AugmentationSpace):
        aug = u0
    elif u0 is None or np.ndim(u0) == 2 and np.shape(u0)[1] == 0:
        aug = AugmentationSpace.empty(op.dimension, choice)
    else:
        aug = build_augmentation(op, u0, choice)

    cycle_fn = unproj_rfom_cycle if choice is Constraint.GALERKIN else unproj_rgmres_cycle
    result = AugmentedSolveResult(
        x=x, residual_history=[], matvec_count=0, converged=False, cycles_used=0, k_used=aug.k
    )

    def step(x, r, cycle, threshold):
        nonlocal aug
        # the recycler sees the last full cycle's decomposition, so it runs
        # only between cycles, never after the last one
        if recycler is not None and cycle > 1:
            new_aug = recycler(op, aug, result.final_decomposition)
            if new_aug is not None:
                aug = new_aug
                result.k_used = max(result.k_used, aug.k)
        start = op.matvec_count - start_count
        y, z, dec, _ = cycle_fn(op, aug, r, cfg.cycle_length, cfg.reorth, threshold)
        if result.final_decomposition is None or dec.breakdown or dec.j == cfg.cycle_length:
            result.final_decomposition = dec
        result.z_norms.append(float(np.linalg.norm(z)))
        x, r, size = _krylov_update(result, cycle, start, x, r, dec, y)
        return x + aug.u @ z, r - aug.c @ z, size

    return _run_cycles(op, b, x, cfg, step, result, start_count)
