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
import scipy.linalg

from .arnoldi import arnoldi, as_operator
from .augmented import compute_coupling
from .core import (
    PIVOT_RTOL,
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
    """Singular small system at every leading size inside a cycle."""


@dataclass
class SolverConfig:
    """Restart parameters shared by all outer solve loops.

    ``tol`` is compared against the residual 2-norm: relative to ``||b||``
    when ``tol_mode == 'rel'`` (default), as given when ``'abs'``.
    ``reorth`` has each Arnoldi step measure its orthogonality with a second
    Gram-Schmidt projection and apply it where it exceeds
    ``arnoldi.ORTH_RTOL``; off, every step runs a single classical pass.
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

    ``residual_history`` rows are ``(cycle, inner_step, norm)``: row 0 is the
    initial residual; a cycle's rows below its size are its residual monitor's
    norms, and its last row (``inner_step`` = size) is the recurred norm, or
    the true one where a recurred norm met the tolerance and the true did not.
    ``history_matvecs[i]`` is the solve's matvec count when row ``i`` was
    written, matvecs spent between cycles included.
    """

    x: np.ndarray
    residual_history: list
    matvec_count: int
    converged: bool
    cycles_used: int
    stop_reason: str = "converged"
    history_matvecs: list = field(default_factory=list)
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


def _leading_solve(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``lhs[:i, :i] y = rhs[:i]`` at the largest leading size ``i``
    whose block is nonsingular, so ``len(y)`` may fall short of
    ``len(lhs)``. Raises :class:`SolverBreakdownError` when no size is
    nonsingular."""
    for size in range(lhs.shape[0], 0, -1):
        try:
            return dense_solve(lhs[:size, :size], rhs[:size])
        except SingularMatrixError:
            pass
    raise SolverBreakdownError(f"singular reduced system at every size up to {lhs.shape[0]}")


class _ResidualMonitor:
    """Arnoldi ``stop`` callback: keeps the cycle's residual norm after each
    step ``i`` as ``(i, norm)`` in ``norms`` (none where it is infinite), true
    at the first norm <= ``threshold``. ``w`` spans the null space of
    ``Hbar_i*``, ``w_1 = 1``: GMRES's norm is ``beta/||w||``, FOM's
    ``beta/|w_{i+1}|``. With augmentation, ``D = V_{i+1}* C`` and
    ``P = C* C - D* D`` grow a row per step, and the least residual over
    ``[V_i U]`` is ``(beta/||w||)/sqrt(1 + a P^+ a*)``, ``a = w* D/||w||``:
    rgmres's norm, and a bound below rfom's, computed where the bound meets
    ``threshold`` only.
    """

    def __init__(self, r, method: str, threshold: float, aug=None, z0=None):
        self.beta, self.threshold = float(np.linalg.norm(r)), threshold
        self.method, self.aug, self.z0, self.k = method, aug, z0, aug.k if aug else 0
        self.norms, self.w = [], [1.0]

    def run(self, op, r, m: int, reorth: bool):
        """Arnoldi under this monitor; its norms go on the decomposition."""
        dec = arnoldi(op, r, m, reorth=reorth, stop=self)
        dec.step_norms = self.norms
        return dec

    def __call__(self, i: int, vt, hbar) -> bool:
        self.w.append(-np.vdot(hbar[:i, i - 1], self.w) / hbar[i, i - 1])
        if self.method == "fom" and not self.k:
            norm = self.beta / abs(self.w[i]) if self.w[i] else np.inf
        else:
            norm = self._min_residual(i, vt)
            if self.method == "fom":
                if norm > self.threshold:
                    return False
                norm = self._galerkin_norm(i, vt, hbar)
        if norm < np.inf:
            self.norms.append((i, float(norm)))
        return norm <= self.threshold

    def _min_residual(self, i: int, vt) -> float:
        """The least residual over ``[V_i U]``, by a Cholesky solve with ``P``; where
        rounding left ``P`` indefinite, only over its eigenvalues clearly above 0."""
        wnorm = np.linalg.norm(self.w)
        if not self.k:
            return float(self.beta / wnorm)
        c = self.aug.c
        if i == 1:
            gram = self.aug.small if self.method == "gmres" else c.conj().T @ c  # rgmres's is C* C
            self.d = np.empty((len(vt), self.k), np.result_type(vt, c))
            self.p = np.array(gram, dtype=self.d.dtype)
            self.posv = scipy.linalg.get_lapack_funcs("posv", (self.p,))
        for row in (0, 1) if i == 1 else (i,):
            self.d[row] = vt[row].conj() @ c
            self.p -= np.outer(self.d[row].conj(), self.d[row])
        a = (self.w @ self.d[: i + 1].conj()) / wnorm  # D* w/||w||
        _, x, info = self.posv(self.p, a)
        if info:
            evals, evecs = np.linalg.eigh(self.p)
            keep = evecs[:, evals > PIVOT_RTOL * max(evals[-1], 0.0)]
            x = keep @ np.linalg.solve(keep.conj().T @ self.p @ keep, keep.conj().T @ a)
        return float(self.beta / wnorm / np.sqrt(1.0 + np.vdot(a, x).real))

    def _galerkin_norm(self, i: int, vt, hbar) -> float:
        """rfom's residual norm at size ``i``; infinite where its matrix is singular."""
        hb, d, rhs = hbar[: i + 1, :i], self.d[: i + 1], self.beta * np.eye(i + 1)[0]
        coupling = compute_coupling(self.aug, vt[: i + 1].T, hb)
        try:
            y = dense_solve(hb[:i] - d[:i] @ coupling, rhs[:i] - d[:i] @ self.z0)
        except SingularMatrixError:
            return np.inf
        z = self.z0 - coupling @ y
        top = rhs - hb @ y - d @ z
        return float(np.sqrt(np.vdot(top, top).real + max(np.vdot(z, self.p @ z).real, 0.0)))


def fom_cycle(a, r: np.ndarray, m: int, reorth: bool = True, threshold: float = 0.0):
    """One FOM cycle: Arnoldi plus the Galerkin correction.

    Returns ``(y, dec)`` where ``y`` solves ``H_i y = ||r|| e_1`` at the
    largest leading size ``i <= dec.j`` whose Hessenberg is nonsingular, so
    ``len(y)`` may fall short of ``dec.j``. Raises
    :class:`SolverBreakdownError` when no size is nonsingular. Stops at the
    first residual norm ``<= threshold``.
    """
    dec = _ResidualMonitor(r, "fom", threshold).run(as_operator(a), r, m, reorth)
    rhs = np.zeros(dec.j, dtype=dec.hbar.dtype)
    rhs[0] = np.linalg.norm(r)
    return _leading_solve(dec.h, rhs), dec


def gmres_cycle(a, r: np.ndarray, m: int, reorth: bool = True, threshold: float = 0.0):
    """One GMRES cycle: Arnoldi plus the small least-squares correction.

    Returns ``(y, dec)`` with ``y = argmin_z || ||r|| e_1 - Hbar z ||``;
    stops at the first residual norm ``<= threshold``.
    """
    dec = _ResidualMonitor(r, "gmres", threshold).run(as_operator(a), r, m, reorth)
    rhs = np.zeros(dec.j + 1, dtype=dec.hbar.dtype)
    rhs[0] = np.linalg.norm(r)
    return dense_lstsq(dec.hbar, rhs), dec


def _krylov_update(result, cycle, start, x, r, dec, y):
    """Record the cycle's monitored norms below the size ``i = len(y)``, each
    at the matvec count ``start`` (the count before the cycle) plus its step,
    then update ``x += V_i y`` and ``r -= V_{i+1} Hbar_i y``.

    Returns ``(x, r, i)``.
    """
    size = len(y)
    rows = [(cycle, i, val) for i, val in dec.step_norms if i < size]
    result.residual_history.extend(rows)
    result.history_matvecs.extend(start + i for _, i, _ in rows)
    x = x + dec.v[:, :size] @ y
    t = dec.hbar[: size + 1, :size] @ y
    ncols = min(size + 1, dec.v.shape[1])
    r = r - dec.v[:, :ncols] @ t[:ncols]
    return x, r, size


def _run_cycles(op, b, x, cfg: SolverConfig, step, result: SolveResult, start_count: int):
    """The restart loop shared by every solver.

    ``step(x, r, cycle, threshold)`` runs one cycle and returns ``(x, r, size)``
    with the achieved cycle size; it may append inner rows to
    ``result.residual_history`` with their counts to ``result.history_matvecs``.
    A breakdown inside a step ends the loop with ``stop_reason == "breakdown"``.
    The residual is recurred by the steps and checked against ``b - A x`` every
    ``DRIFT_CHECK_EVERY`` cycles and where it meets the threshold; a true
    residual that fails it there goes on instead, unless it is no smaller than
    at the last such failure, which ends the loop as stagnation.
    """
    r = b - op(x) if np.any(x) else b.copy()
    rnorm = float(np.linalg.norm(r))
    threshold = cfg.threshold(float(np.linalg.norm(b)))
    history = result.residual_history
    history.append((0, 0, rnorm))
    result.history_matvecs.append(op.matvec_count - start_count)
    result.converged = rnorm <= threshold
    if result.converged:
        result.matvec_count = op.matvec_count - start_count
        return result

    failed_norm = np.inf  # true norm at the last confirmation that failed
    for cycle in range(1, cfg.max_cycles + 1):
        try:
            x, r, size = step(x, r, cycle, threshold)
        except (SolverBreakdownError, RankDeficientError):
            result.stop_reason = "breakdown"
            break
        rnorm_new = float(np.linalg.norm(r))
        result.x = x
        result.cycles_used = cycle
        stalled = False

        if rnorm_new <= threshold or cycle % DRIFT_CHECK_EVERY == 0:
            true_r = b - op(x)
            gap = float(np.linalg.norm(r - true_r) / max(np.linalg.norm(b), 1e-300))
            result.max_drift_gap = max(result.max_drift_gap, gap)
            if gap > DRIFT_WARN_RTOL:
                warnings.warn(
                    f"recurred residual drifted from true residual: "
                    f"relative gap {gap:.2e} at cycle {cycle}",
                    stacklevel=3,
                )
            true_norm = float(np.linalg.norm(true_r))
            if rnorm_new <= threshold < true_norm:
                stalled = true_norm >= failed_norm
                r, rnorm_new, failed_norm = true_r, true_norm, true_norm
        history.append((cycle, size, rnorm_new))
        result.history_matvecs.append(op.matvec_count - start_count)
        if rnorm_new <= threshold:
            result.converged = True
            break
        if stalled or abs(rnorm - rnorm_new) < STAGNATION_RTOL * rnorm:
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

    Cycles stop at the first step that meets the tolerance. The residual is
    recurred from the Arnoldi relation and checked against ``b - A x`` at
    convergence and every ``DRIFT_CHECK_EVERY`` cycles.
    Stagnation or breakdown ends the loop with ``converged=False`` rather
    than raising.
    """
    if method not in ("fom", "gmres"):
        raise ValueError(f"method must be 'fom' or 'gmres', got {method!r}")
    op, b, x = _check_inputs(a, b, x0)
    start_count = op.matvec_count
    cycle_fn = fom_cycle if method == "fom" else gmres_cycle
    result = SolveResult(x=x, residual_history=[], matvec_count=0, converged=False, cycles_used=0)

    def step(x, r, cycle, threshold):
        start = op.matvec_count - start_count
        y, dec = cycle_fn(op, r, cfg.cycle_length, cfg.reorth, threshold)
        return _krylov_update(result, cycle, start, x, r, dec, y)

    return _run_cycles(op, b, x, cfg, step, result, start_count)
