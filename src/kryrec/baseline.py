"""Restarted FOM and GMRES, and the cycle and restart loop all four methods share.

Each cycle runs Arnoldi from the current residual under a residual monitor,
then solves the small reduced problem for the corrections that update the
iterate and the recurred residual: over the empty space for FOM and GMRES, over
an augmentation space in :mod:`kryrec.unprojected`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .arnoldi import arnoldi, as_operator
from .augmented import AugmentationSpace, Constraint
from .core import (
    DimensionError,
    RankDeficientError,
    SingularMatrixError,
    check_finite,
    dense_lstsq,
    dense_solve,
    warn_caller,
)

__all__ = ["SolverConfig", "SolveResult", "SolverBreakdownError", "restarted_solve"]

# A full cycle leaving the residual norm unchanged at this relative level
# counts as stagnation; restarting from the same residual cannot make
# progress. Sign-free so that Galerkin-style residual oscillation (which
# still reduces the error) is not mistaken for a stall.
STAGNATION_RTOL = 1e-14

# Cycles between recurred-vs-true residual cross-checks.
DRIFT_CHECK_EVERY = 10
DRIFT_WARN_RTOL = 1e-6


class SolverBreakdownError(RuntimeError):
    """Singular small system at every leading size inside a cycle, or a failed small eigensolve."""


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
    initial residual; a cycle's rows below its size are the norms its residual
    monitor kept (one per step; for ``rfom`` with augmentation, often none), and
    its last row (``inner_step`` = size) is the recurred norm, or the true one
    where a recurred norm met the tolerance and the true did not.
    ``history_matvecs[i]`` is the solve's matvec count when row ``i`` was
    written, matvecs spent between cycles included.
    Every solve fills ``z_norms`` (each cycle's augmentation correction norm; 0.0
    over the empty space) and ``k_used`` (the largest space dimension a cycle ran over).
    ``final_decomposition``, the source to recycle from (the last cycle to run all
    ``cycle_length`` steps or break down), is set only by ``unproj_solve``.
    """

    x: np.ndarray
    residual_history: list
    matvec_count: int
    converged: bool
    cycles_used: int
    stop_reason: str = "converged"
    history_matvecs: list = field(default_factory=list)
    max_drift_gap: float = 0.0
    z_norms: list = field(default_factory=list)
    k_used: int = 0
    final_decomposition: object = None

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
    """Arnoldi ``stop`` callback, true at the first residual norm <= ``threshold`` under
    ``choice`` (GALERKIN for fom/rfom, MINRES for gmres/rgmres), and owner of the cycle's reduced
    problem (:meth:`reduced`) over ``aug`` (empty for fom and gmres). ``w`` spans the null space
    of ``Hbar_i*``, ``w_1 = 1``: GMRES's norm is ``beta/||w||``, FOM's ``beta/|w_{i+1}|``.
    ``D = V_{i+1}* C`` and ``P = C* C - D* D`` grow a row per step. For a fixed ``z`` the best
    ``y`` leaves ``|c - a* z|^2 + z* P z``, ``c = beta/||w||``, ``a = D* w/||w||``, least,
    ``c/sqrt(1 + a* x)``, at ``z = c x/(1 + a* x)``, ``x = P^+ a``: rgmres's norm and ``z``, and a
    bound below rfom's, computed only where it meets ``threshold``, from ``E = V_{i+1}* U``. Each
    finite norm computed after step ``i`` is kept as ``(i, norm)`` in ``norms``: one per step,
    except for rfom with ``k > 0``, which keeps only those steps. :meth:`run` extends ``D`` and
    ``E`` to the whole basis and puts them on the decomposition, with the space, as ``space``.
    """

    def __init__(self, r, choice: Constraint, threshold: float, aug: AugmentationSpace):
        self.beta, self.threshold = float(np.linalg.norm(r)), threshold
        self.galerkin, self.aug, self.k = choice is Constraint.GALERKIN, aug, aug.k
        self.norms, self.w = [], [1.0]
        # z0, the least-residual z, and D, E and P over no basis vector yet
        self.z0, self.z = aug.solve_small(aug.u_tilde.conj().T @ r), np.zeros(self.k)
        self.d = self.e = np.zeros((0, self.k))
        self.p = aug.c.conj().T @ aug.c
        self.tiny = np.finfo(float).eps * np.linalg.norm(self.p)  # P's rounding level

    def run(self, op, r, m: int, reorth: bool):
        """Arnoldi under this monitor; its norms and projections go on the decomposition."""
        dec = arnoldi(op, r, m, reorth=reorth, stop=self)
        dec.step_norms = self.norms
        self._cover(dec.v.T, len(dec.hbar), True)  # a breakdown at step 1 ends the run before any call
        dec.space = (self.aug, self.d, self.e)
        return dec

    def _cover(self, vt, rows: int, with_e: bool = False):
        """Extend ``D`` and ``P``, and with ``with_e`` also ``E``, to the first
        ``rows`` basis vectors by block products of the rows not yet covered."""
        new = (vt[len(self.d) : rows] @ self.aug.c.conj()).conj()  # never conjugate-copies the basis
        self.d, self.p = np.concatenate([self.d, new]), self.p - new.conj().T @ new
        if with_e:
            self.e = np.concatenate([self.e, (vt[len(self.e) : rows] @ self.aug.u.conj()).conj()])

    def __call__(self, i: int, vt, hbar) -> bool:
        self.w.append(-np.vdot(hbar[:i, i - 1], self.w) / hbar[i, i - 1])
        if self.galerkin and not self.k:
            norm = self.beta / abs(self.w[i]) if self.w[i] else np.inf
        else:
            norm = self._min_residual(i, vt)
            if self.galerkin:
                if norm > self.threshold:
                    return False
                norm = self._galerkin_norm(i, vt, hbar)
        if norm < np.inf:
            self.norms.append((i, float(norm)))
        return norm <= self.threshold

    def _min_residual(self, i: int, vt) -> float:
        """The least residual over ``[V_i U]`` and its ``z`` (``self.z``), by a Cholesky solve with
        ``P``; where ``P`` is singular to rounding, by ``[a*; S] z ~ c e_1``, ``S* S = P`` clipped
        at 0, over singular values above rounding, so ``z`` is 0 along ``C`` inside ``A V_i``."""
        wnorm = np.linalg.norm(self.w)
        c = self.beta / wnorm
        if not self.k:
            return float(c)
        self._cover(vt, i + 1)
        a = (self.w @ self.d.conj()) / wnorm  # D* w/||w||
        chol, x, info = scipy.linalg.get_lapack_funcs("posv", (self.p,))(self.p, a)
        if info or np.min(np.abs(np.diag(chol))) ** 2 <= self.tiny:
            evals, evecs = np.linalg.eigh(self.p)
            lsq = np.vstack([a.conj(), np.sqrt(np.maximum(evals, 0.0))[:, None] * evecs.conj().T])
            self.z = c * scipy.linalg.pinv(lsq, atol=np.sqrt(self.tiny))[:, 0]
            return float(np.linalg.norm(lsq @ self.z - c * np.eye(self.k + 1)[0]))
        denom = 1.0 + np.vdot(a, x).real
        self.z = c * x / denom
        return float(c / np.sqrt(denom))

    def _galerkin_norm(self, i: int, vt, hbar) -> float:
        """rfom's residual norm at size ``i``; infinite where its matrix is singular."""
        self._cover(vt, i + 1, True)
        hb = hbar[: i + 1, :i]
        try:
            y, z, _ = self.reduced(hb, dense_solve)
        except SingularMatrixError:
            return np.inf
        top = self.beta * np.eye(i + 1)[0] - hb @ y - self.d @ z
        return float(np.sqrt(np.vdot(top, top).real + max(np.vdot(z, self.p @ z).real, 0.0)))

    def reduced(self, hbar, square_solve=_leading_solve):
        """The corrections ``V_i y`` and ``U z`` over the covered ``(rows, j)``
        Hessenberg ``hbar``, read off ``A [V_j U] = [V_{j+1} C] blkdiag(Hbar, I)``:
        ``z = z0 - B_i y``, ``B = (small)^{-1} X* Hbar`` with ``X`` = ``E`` for
        Galerkin, ``D`` for MINRES (whose small product is ``I``). Galerkin solves
        ``(H - D_j B) y = beta e_1 - D_j z0`` by ``square_solve``, which may return
        a leading ``y``; MINRES solves ``Hbar y ~ beta e_1 - D z`` at the least-residual
        ``z`` of the last step (0 after a breakdown, where ``H`` is square and exact), so
        ``hbar`` has every covered row. Returns ``(y, z, B_i)``."""
        (rows, j), d = hbar.shape, self.d[: len(hbar)]
        coupling = self.aug.solve_small((self.e[:rows] if self.galerkin else d).conj().T @ hbar)
        beta_e1 = self.beta * np.eye(rows, dtype=np.result_type(hbar, d))[0]
        if self.galerkin:
            y = square_solve(hbar[:j] - d[:j] @ coupling, beta_e1[:j] - d[:j] @ self.z0)
        else:
            y = dense_lstsq(hbar, beta_e1 - d @ self.z if rows > j else beta_e1)
        coupling = coupling[:, : len(y)]
        return y, self.z0 - coupling @ y, coupling


def _augmented_cycle(a, aug: AugmentationSpace, r0: np.ndarray, m: int, reorth, choice, threshold):
    """The cycle shared by ``fom``/``rfom`` (``choice`` GALERKIN) and ``gmres``/``rgmres``
    (MINRES): Arnoldi on the plain operator under the residual monitor, stopped at the
    first norm meeting ``threshold``, then the monitor's reduced solution. Returns
    ``(y, z, dec, coupling)``."""
    if aug.n != len(r0):
        raise DimensionError(f"augmentation space of dimension {aug.n} for a residual of length {len(r0)}")
    if aug.k > 0 and aug.choice is not choice:
        raise ValueError(f"a {choice.value} cycle requires a {choice.value} augmentation space")
    monitor = _ResidualMonitor(r0, choice, threshold, aug)
    dec = monitor.run(a, r0, m, reorth)
    y, z, coupling = monitor.reduced(dec.hbar)
    return y, z, dec, coupling


def _apply_cycle(result, cycle, x, r, y, z, dec, _coupling, count):
    """Record the cycle's monitored norms below the size ``i = len(y)``, each at its
    step's matvec count (``count``, read after the cycle's ``dec.j`` steps, less those
    after it), its ``z`` norm and its space's dimension, then update
    ``x += V_i y + U z`` and ``r -= V_{i+1} Hbar_i y + C z``.

    Returns ``(x, r, i)``.
    """
    size, aug = len(y), dec.space[0]
    rows = [(cycle, i, val) for i, val in dec.step_norms if i < size]
    result.residual_history.extend(rows)
    result.history_matvecs.extend(count - dec.j + i for _, i, _ in rows)
    result.z_norms.append(float(np.linalg.norm(z)))
    result.k_used = max(result.k_used, aug.k)
    x = x + dec.v[:, :size] @ y
    t = dec.hbar[: size + 1, :size] @ y
    r = r - dec.v[:, : len(t)] @ t
    if aug.k:  # over the empty space the products add zeros and cost four n-vectors
        x, r = x + aug.u @ z, r - aug.c @ z
    return x, r, size


def _run_cycles(op, b, x, cfg: SolverConfig, cycle_fn, start_count: int) -> SolveResult:
    """The restart loop shared by every solver, and the one place that applies a cycle.

    ``cycle_fn(r, threshold)`` runs one cycle from the residual ``r`` and returns
    ``(y, z, dec, coupling)`` as :func:`_augmented_cycle` does. Its outputs go straight
    into :func:`_apply_cycle` and are never bound here: a ``dec`` kept across cycles
    would hold its basis while the next cycle builds one (a peak of 2.3 bases, not 1.3).
    A breakdown inside a cycle, a singular small system or a recycled space that
    cannot be factored, ends the loop with ``stop_reason == "breakdown"``.
    The residual is recurred by the update and checked against ``b - A x`` every
    ``DRIFT_CHECK_EVERY`` cycles and where it meets the threshold; a true
    residual that fails it there goes on instead, unless it is no smaller than
    at the last such failure, which ends the loop as stagnation.
    """
    result = SolveResult(x=x, residual_history=[], matvec_count=0, converged=False, cycles_used=0)
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
            x, r, size = _apply_cycle(result, cycle, x, r, *cycle_fn(r, threshold), op.matvec_count - start_count)
        except (SolverBreakdownError, RankDeficientError, SingularMatrixError):
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
                warn_caller(f"recurred residual drifted from true residual: relative gap {gap:.2e} at cycle {cycle}")
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
        raise DimensionError(f"rhs shape {b.shape} does not match dimension {op.dimension}")
    if x0 is None:
        return op, b, np.zeros_like(b)
    x0 = check_finite("x0", np.asarray(x0))
    if x0.shape != b.shape:
        raise DimensionError(f"x0 shape {x0.shape} does not match dimension {op.dimension}")
    return op, b, x0.copy()


def restarted_solve(a, b, x0, cfg: SolverConfig, method: str) -> SolveResult:
    """Restarted FOM or GMRES down to the configured tolerance.

    Cycles stop at the first step that meets the tolerance. The residual is
    recurred from the Arnoldi relation and checked against ``b - A x`` at
    convergence and every ``DRIFT_CHECK_EVERY`` cycles. Stagnation or breakdown
    ends the loop with ``converged=False`` rather than raising. Unlike
    ``unproj_solve`` it keeps no decomposition: one basis is live at a time.
    """
    if method not in ("fom", "gmres"):
        raise ValueError(f"method must be 'fom' or 'gmres', got {method!r}")
    op, b, x = _check_inputs(a, b, x0)
    choice = Constraint.GALERKIN if method == "fom" else Constraint.MINRES
    aug = AugmentationSpace.empty(op.dimension, choice)

    def cycle(r, threshold):
        return _augmented_cycle(op, aug, r, cfg.cycle_length, cfg.reorth, choice, threshold)

    return _run_cycles(op, b, x, cfg, cycle, op.matvec_count)
