"""Unprojected augmented solvers.

Both methods grow the Krylov space with the plain operator (no projector
inside the Arnoldi loop) and fold the augmentation space in afterwards: a
small system read off the Arnoldi relation (square for ``rfom``, least
squares for ``rgmres``) gives the Krylov correction, and the coupling matrix
turns it into the augmentation correction. With an empty augmentation space
the cycles are FOM and GMRES in the same floating-point operations.

``rfom`` imposes a Galerkin constraint against the Krylov space and the
augmentation basis; ``rgmres`` minimizes the residual over the sum of the
Krylov space and the augmentation space, assuming the image columns are
orthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arnoldi import as_operator
from .augmented import (
    AugmentationSpace,
    Constraint,
    build_augmentation,
    compute_coupling,
)
from .baseline import (
    SolveResult,
    SolverConfig,
    _ResidualMonitor,
    _check_inputs,
    _krylov_update,
    _leading_solve,
    _run_cycles,
)
from .core import dense_lstsq

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


def _augmented_cycle(a, aug: AugmentationSpace, r0: np.ndarray, m: int, reorth, method, threshold):
    """The cycle shared by ``rfom`` and ``rgmres``.

    Every reduced quantity is read off the unprojected Arnoldi relation
    ``r0 = ||r0|| V_{j+1} e_1``, ``A [V_j U] = [V_{j+1} C] blkdiag(Hbar, I)``,
    with ``D = V_{j+1}* C``; the corrections are ``V_i y`` and ``U z`` with
    ``z = z0 - B_i y``. ``rfom`` solves ``(H - D_j B) y = ||r0|| e_1 - D_j z0``
    at the largest nonsingular leading size ``i``; ``rgmres`` takes ``y`` from
    the least-squares problem ``[[Hbar, D], [0, T]] [y; z] ~ ||r0|| e_1`` with
    ``T* T = C* C - D* D``; ``method`` is ``"fom"`` or ``"gmres"``. With
    ``k = 0`` both are FOM/GMRES in the same floating-point operations.
    Arnoldi stops at the first residual norm that meets ``threshold``.
    """
    z0 = aug.solve_small(aug.u_tilde.conj().T @ r0)
    dec = _ResidualMonitor(r0, method, threshold, aug, z0).run(as_operator(a), r0, m, reorth)
    j, k = dec.j, aug.k
    coupling = compute_coupling(aug, dec.v, dec.hbar)
    d = (aug.c.conj().T @ dec.v).conj().T  # never conjugate-copies the basis
    beta_e1 = np.zeros(j + 1 + k, dtype=np.result_type(dec.hbar, d))
    beta_e1[0] = np.linalg.norm(r0)
    if method == "fom":
        y = _leading_solve(dec.h - d[:j] @ coupling, beta_e1[:j] - d[:j] @ z0)
    else:
        # C = V_{j+1} D + Q T, Q orthonormal and orthogonal to V_{j+1}; rounding
        # can push an eigenvalue below 0 when C lies nearly inside the image
        evals, evecs = np.linalg.eigh(aug.small - d.conj().T @ d)
        lsq = np.zeros((j + 1 + k, j + k), dtype=beta_e1.dtype)
        lsq[: j + 1, :j] = dec.hbar
        lsq[: d.shape[0], j:] = d  # on a lucky breakdown row j stays zero
        lsq[j + 1 :, j:] = np.sqrt(np.maximum(evals, 0.0))[:, None] * evecs.conj().T
        y = dense_lstsq(lsq, beta_e1)[:j]
    coupling = coupling[:, : len(y)]
    return y, z0 - coupling @ y, dec, coupling


def unproj_rfom_cycle(a, aug: AugmentationSpace, r0: np.ndarray, m: int, reorth=True, threshold=0.0):
    """One augmented FOM cycle on the plain-operator Krylov space (Galerkin
    constraint), stopped at a residual norm <= ``threshold``. Returns ``(y, z, dec, coupling)``."""
    if aug.k > 0 and aug.choice is not Constraint.GALERKIN:
        raise ValueError("rfom requires a Galerkin-constrained augmentation space")
    return _augmented_cycle(a, aug, r0, m, reorth, "fom", threshold)


def unproj_rgmres_cycle(a, aug: AugmentationSpace, r0: np.ndarray, m: int, reorth=True, threshold=0.0):
    """One augmented GMRES cycle on the plain-operator Krylov space (minimum
    residual over the Krylov plus augmentation space), stopped at a residual norm
    <= ``threshold``; requires orthonormal image columns. Returns ``(y, z, dec, coupling)``."""
    if aug.k > 0 and not (aug.choice is Constraint.MINRES and aug.c_orthonormal):
        raise ValueError(
            "rgmres requires a minimum-residual augmentation space with "
            "orthonormal image columns"
        )
    return _augmented_cycle(a, aug, r0, m, reorth, "gmres", threshold)


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
