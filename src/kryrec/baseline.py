"""Restarted FOM and GMRES.

Each cycle builds an Arnoldi decomposition of the current residual, solves the
small Hessenberg problem for the Krylov correction and updates the iterate and
the recurred residual. These are both the reference solvers and the building
blocks reused by the augmented methods.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .arnoldi import ArnoldiDecomposition, arnoldi, as_operator
from .core import (
    RankDeficientError,
    SingularMatrixError,
    check_finite,
    dense_lstsq,
    dense_solve,
)

__all__ = [
    "SolverConfig",
    "SolveResult",
    "SolverBreakdownError",
    "fom_cycle",
    "gmres_cycle",
    "restarted_solve",
]

# A full cycle leaving the residual norm unchanged at this relative level
# counts as stagnation; restarting from the same residual cannot make
# progress. Sign-free so that Galerkin-style residual oscillation (which
# still reduces the error) is not mistaken for a stall.
STAGNATION_RTOL = 1e-14

# Cycles between recurred-vs-true residual cross-checks.
DRIFT_CHECK_EVERY = 10
DRIFT_WARN_RTOL = 1e-6


class SolverBreakdownError(RuntimeError):
    """Singular small system inside a cycle; carries the decomposition."""

    def __init__(self, message: str, dec: ArnoldiDecomposition | None = None):
        super().__init__(message)
        self.dec = dec


@dataclass
class SolverConfig:
    """Restart parameters shared by all outer solve loops.

    ``tol`` is compared against the residual 2-norm: relative to ``||b||``
    when ``tol_mode == 'rel'`` (default), as given when ``'abs'``.
    """

    cycle_length: int
    tol: float
    max_cycles: int = 100
    reorth: bool = True
    tol_mode: str = "rel"

    def __post_init__(self):
        if self.cycle_length < 1:
            raise ValueError(f"cycle_length must be >= 1, got {self.cycle_length}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {self.max_cycles}")
        if self.tol_mode not in ("abs", "rel"):
            raise ValueError(f"tol_mode must be 'abs' or 'rel', got {self.tol_mode!r}")

    def threshold(self, b_norm: float) -> float:
        return self.tol * b_norm if self.tol_mode == "rel" else self.tol


@dataclass
class SolveResult:
    """Outcome of an outer solve loop.

    ``residual_history`` rows are ``(cycle, inner_step, norm)``; row 0 is the
    initial residual, and the row with ``inner_step == achieved cycle size``
    holds the recurred norm used for the convergence check. ``cycle_matvecs``
    gives the cumulative matvec count at each cycle end.
    """

    x: np.ndarray
    residual_history: list
    matvec_count: int
    converged: bool
    cycles_used: int
    stop_reason: str = "converged"
    cycle_matvecs: list = field(default_factory=list)
    setup_matvecs: int = 0
    max_drift_gap: float = 0.0

    @property
    def cycle_norms(self) -> np.ndarray:
        """Residual norm at the end of each cycle (initial value first)."""
        per_cycle = {}
        for cycle, _, norm in self.residual_history:
            per_cycle[cycle] = norm
        return np.array([per_cycle[c] for c in sorted(per_cycle)])

    @property
    def final_residual_norm(self) -> float:
        return self.residual_history[-1][2]


def _leading_solve(lhs: np.ndarray, rhs: np.ndarray, dec: ArnoldiDecomposition) -> np.ndarray:
    """Solve ``lhs[:i, :i] y = rhs[:i]`` at the largest leading size ``i``
    whose block is nonsingular, so ``len(y)`` may fall short of
    ``len(lhs)``. Raises :class:`SolverBreakdownError` carrying ``dec`` when
    no size is nonsingular."""
    for size in range(lhs.shape[0], 0, -1):
        try:
            return dense_solve(lhs[:size, :size], rhs[:size])
        except SingularMatrixError:
            pass
    raise SolverBreakdownError(f"singular reduced system at every size up to {dec.j}", dec)


def fom_cycle(a, r: np.ndarray, m: int, reorth: bool = True):
    """One FOM cycle: Arnoldi plus the Galerkin correction.

    Returns ``(y, dec)`` where ``y`` solves ``H_i y = ||r|| e_1`` at the
    largest leading size ``i <= dec.j`` whose Hessenberg is nonsingular, so
    ``len(y)`` may fall short of ``dec.j``. Raises
    :class:`SolverBreakdownError` carrying the decomposition when no size is
    nonsingular.
    """
    op = as_operator(a)
    dec = arnoldi(op, r, m, reorth=reorth)
    rhs = np.zeros(dec.j, dtype=dec.hbar.dtype)
    rhs[0] = np.linalg.norm(r)
    return _leading_solve(dec.h, rhs, dec), dec


def gmres_cycle(a, r: np.ndarray, m: int, reorth: bool = True):
    """One GMRES cycle: Arnoldi plus the small least-squares correction.

    Returns ``(y, dec)`` with ``y = argmin_z || ||r|| e_1 - Hbar z ||``.
    """
    op = as_operator(a)
    dec = arnoldi(op, r, m, reorth=reorth)
    rhs = np.zeros(dec.j + 1, dtype=dec.hbar.dtype)
    rhs[0] = np.linalg.norm(r)
    return dense_lstsq(dec.hbar, rhs), dec


def inner_residual_norms(dec: ArnoldiDecomposition, beta: float, method: str):
    """Small-problem residual norms at sizes 1..j-1 of one cycle.

    Observational only: reconstructed from the Hessenberg after the cycle,
    skipping sizes where the square solve is singular. GMRES values are
    least-squares objectives and therefore nonincreasing.
    """
    out = []
    for i in range(1, dec.j):
        rhs = np.zeros(i + 1, dtype=dec.hbar.dtype)
        rhs[0] = beta
        try:
            if method == "gmres":
                yi = dense_lstsq(dec.hbar[: i + 1, :i], rhs)
                val = float(np.linalg.norm(rhs - dec.hbar[: i + 1, :i] @ yi))
            else:
                yi = dense_solve(dec.hbar[:i, :i], rhs[:i])
                val = float(abs(dec.hbar[i, i - 1] * yi[-1]))
        except (SingularMatrixError, RankDeficientError):
            continue
        out.append((i, val))
    return out


def _krylov_update(history, cycle, x, r, rnorm, dec, y, method):
    """Record the inner norms of a FOM/GMRES cycle (none when ``method`` is
    ``None``), then update ``x += V_i y`` and ``r -= V_{i+1} Hbar_i y`` at
    the size ``i = len(y)``.

    Returns ``(x, r, i)``.
    """
    size = len(y)
    if method is not None:
        for i, val in inner_residual_norms(dec, rnorm, method):
            if i < size:
                history.append((cycle, i, val))
    x = x + dec.v[:, :size] @ y
    t = dec.hbar[: size + 1, :size] @ y
    ncols = min(size + 1, dec.v.shape[1])
    r = r - dec.v[:, :ncols] @ t[:ncols]
    return x, r, size


def _run_cycles(op, b, x, cfg: SolverConfig, step, result: SolveResult, start_count: int):
    """The restart loop shared by every solver.

    ``step(x, r, rnorm, cycle)`` runs one cycle and returns ``(x, r, size)``
    with the achieved cycle size; it may append inner rows to
    ``result.residual_history``. A breakdown inside a step ends the loop with
    ``stop_reason == "breakdown"``. The residual is recurred by the steps and
    cross-checked against ``b - A x`` every ``DRIFT_CHECK_EVERY`` cycles.
    """
    r = b - op(x) if np.any(x) else b.copy()
    rnorm = float(np.linalg.norm(r))
    threshold = cfg.threshold(float(np.linalg.norm(b)))
    history = result.residual_history
    history.append((0, 0, rnorm))
    result.setup_matvecs = op.matvec_count - start_count
    result.converged = rnorm <= threshold
    if result.converged:
        result.matvec_count = op.matvec_count - start_count
        return result

    for cycle in range(1, cfg.max_cycles + 1):
        try:
            x, r, size = step(x, r, rnorm, cycle)
        except (SolverBreakdownError, RankDeficientError):
            result.stop_reason = "breakdown"
            break
        rnorm_new = float(np.linalg.norm(r))
        history.append((cycle, size, rnorm_new))
        result.x = x
        result.cycles_used = cycle

        if cycle % DRIFT_CHECK_EVERY == 0:
            true_r = b - op(x)
            gap = float(np.linalg.norm(r - true_r) / max(np.linalg.norm(b), 1e-300))
            result.max_drift_gap = max(result.max_drift_gap, gap)
            if gap > DRIFT_WARN_RTOL:
                warnings.warn(
                    f"recurred residual drifted from true residual: "
                    f"relative gap {gap:.2e} at cycle {cycle}",
                    stacklevel=3,
                )
        result.cycle_matvecs.append(op.matvec_count - start_count)
        if rnorm_new <= threshold:
            result.converged = True
            break
        if abs(rnorm - rnorm_new) < STAGNATION_RTOL * rnorm:
            result.stop_reason = "stagnation"
            break
        rnorm = rnorm_new
    else:
        result.stop_reason = "max_cycles"

    result.matvec_count = op.matvec_count - start_count
    return result


def _check_inputs(a, b, x0):
    """Operator handle, rhs and starting iterate, validated."""
    op = as_operator(a)
    b = check_finite("b", np.asarray(b))
    if b.shape != (op.dimension,):
        raise ValueError(f"rhs shape {b.shape} does not match dimension {op.dimension}")
    if x0 is None:
        return op, b, np.zeros_like(b)
    return op, b, check_finite("x0", np.asarray(x0)).copy()


def restarted_solve(a, b, x0, cfg: SolverConfig, method: str) -> SolveResult:
    """Restarted FOM or GMRES down to the configured tolerance.

    The residual is recurred cheaply from the Arnoldi relation and
    cross-checked against ``b - A x`` every ``DRIFT_CHECK_EVERY`` cycles.
    Stagnation or breakdown ends the loop with ``converged=False`` rather
    than raising.
    """
    if method not in ("fom", "gmres"):
        raise ValueError(f"method must be 'fom' or 'gmres', got {method!r}")
    op, b, x = _check_inputs(a, b, x0)
    start_count = op.matvec_count
    cycle_fn = fom_cycle if method == "fom" else gmres_cycle
    result = SolveResult(x=x, residual_history=[], matvec_count=0, converged=False, cycles_used=0)

    def step(x, r, rnorm, cycle):
        y, dec = cycle_fn(op, r, cfg.cycle_length, cfg.reorth)
        return _krylov_update(result.residual_history, cycle, x, r, rnorm, dec, y, method)

    return _run_cycles(op, b, x, cfg, step, result, start_count)
