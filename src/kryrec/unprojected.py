"""Unprojected augmented solvers.

Both methods grow the Krylov space with the plain operator (no projector
inside the Arnoldi loop) and fold the augmentation space in afterwards: a
small system read off the Arnoldi relation (square for ``rfom``, least
squares for ``rgmres``) gives the Krylov correction, and the coupling matrix
turns it into the augmentation correction. The cycle and the restart loop are
:mod:`kryrec.baseline`'s: FOM and GMRES are these cycles over the empty space,
and a solve returns the same :class:`~kryrec.baseline.SolveResult`.

``rfom`` imposes a Galerkin constraint against the Krylov space and the
augmentation basis; ``rgmres`` minimizes the residual over the sum of the
Krylov space and the augmentation space, whose minimum-residual image
columns are orthonormal by construction.
"""

from __future__ import annotations

import numpy as np

from .augmented import AugmentationSpace, Constraint, build_augmentation
from .baseline import SolveResult, SolverConfig, _augmented_cycle, _check_inputs, _run_cycles

__all__ = ["unproj_rfom_cycle", "unproj_rgmres_cycle", "unproj_solve"]


def unproj_rfom_cycle(a, aug: AugmentationSpace, r0: np.ndarray, m: int, reorth=True, threshold=0.0):
    """One augmented FOM cycle on the plain-operator Krylov space (Galerkin
    constraint), stopped at a residual norm <= ``threshold``. Returns ``(y, z, dec, coupling)``.
    ``y`` solves the reduced system at the largest leading size ``i <= dec.j`` that is
    nonsingular, so ``len(y)`` may fall short of ``dec.j``; raises
    :class:`~kryrec.baseline.SolverBreakdownError` when none is. Plain FOM is this cycle
    over ``AugmentationSpace.empty(n)``."""
    return _augmented_cycle(a, aug, r0, m, reorth, Constraint.GALERKIN, threshold)


def unproj_rgmres_cycle(a, aug: AugmentationSpace, r0: np.ndarray, m: int, reorth=True, threshold=0.0):
    """One augmented GMRES cycle on the plain-operator Krylov space (minimum
    residual over the Krylov plus augmentation space), stopped at a residual norm
    <= ``threshold``; requires a minimum-residual space, whose image columns are
    orthonormal. Returns ``(y, z, dec, coupling)``. Plain GMRES is this cycle over
    ``AugmentationSpace.empty(n, Constraint.MINRES)``."""
    return _augmented_cycle(a, aug, r0, m, reorth, Constraint.MINRES, threshold)


def unproj_solve(
    a,
    b: np.ndarray,
    x0,
    u0,
    cfg: SolverConfig,
    method: str,
    recycler=None,
) -> SolveResult:
    """Restarted unprojected augmented solve.

    ``u0`` seeds the augmentation space (``None`` or an ``n x 0`` array
    degenerates to the plain restarted method). After each cycle the
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
    elif u0 is None or np.shape(u0) == (op.dimension, 0):
        aug = AugmentationSpace.empty(op.dimension, choice)
    else:
        aug = build_augmentation(op, u0, choice)

    cycle_fn = unproj_rfom_cycle if choice is Constraint.GALERKIN else unproj_rgmres_cycle
    last = None  # the last full cycle's decomposition: the recycling source

    def cycle(r, threshold):
        nonlocal aug, last
        # the recycler reads the last full cycle's decomposition, so it runs
        # only between cycles, never after the last one
        if recycler is not None and last is not None:
            aug = recycler(op, aug, last) or aug
        y, z, dec, coupling = cycle_fn(op, aug, r, cfg.cycle_length, cfg.reorth, threshold)
        if last is None or dec.breakdown or dec.j == cfg.cycle_length:
            last = dec
        return y, z, dec, coupling

    result = _run_cycles(op, b, x, cfg, cycle, start_count)
    result.final_decomposition = last
    return result
