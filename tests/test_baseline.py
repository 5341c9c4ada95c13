import re
import tracemalloc

import numpy as np
import pytest

from kryrec.arnoldi import OperatorHandle, as_operator
from kryrec.augmented import AugmentationSpace, Constraint
from kryrec.baseline import SolveResult, SolverConfig, restarted_solve
from kryrec.core import DimensionError, SparseMatrix
from kryrec.io import tridiagonal_matrix
from kryrec.unprojected import unproj_rfom_cycle, unproj_rgmres_cycle, unproj_solve


def random_spd(rng, n):
    m = rng.standard_normal((n, n))
    return SparseMatrix.from_dense(m @ m.T / n + 2 * np.eye(n))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(0, 1e-8)
        with pytest.raises(ValueError):
            SolverConfig(5, -1.0)
        with pytest.raises(ValueError):
            SolverConfig(5, 1e-8, max_cycles=0)
        with pytest.raises(ValueError):
            SolverConfig(5, 1e-8, tol_mode="nope")

    def test_threshold_modes(self):
        assert SolverConfig(5, 1e-2, tol_mode="rel").threshold(10.0) == 0.1
        assert SolverConfig(5, 1e-2, tol_mode="abs").threshold(10.0) == 1e-2


class TestFomCycle:
    def test_identity_exact_in_one_step(self):
        a = SparseMatrix.identity(5)
        r = np.array([3.0, 0.0, 4.0, 0.0, 0.0])
        y, _, dec, _ = unproj_rfom_cycle(a, AugmentationSpace.empty(len(r)), r, 5)
        assert y.shape == (1,)
        assert y[0] == pytest.approx(5.0)  # ||r||
        new_r = r - dec.v @ (dec.hbar[: dec.v.shape[1]] @ y)
        assert np.linalg.norm(new_r) < 1e-14

    def test_grade_two_exact(self):
        a = SparseMatrix.diagonal([1.0, 2.0])
        r = np.array([1.0, 1.0]) / np.sqrt(2)
        y, _, dec, _ = unproj_rfom_cycle(a, AugmentationSpace.empty(len(r)), r, 2)
        new_r = r - dec.v @ (dec.hbar[: dec.v.shape[1]] @ y)
        assert np.linalg.norm(new_r) < 1e-14

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_explicit_galerkin_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 50, 10
        a = random_spd(rng, n)
        r = rng.standard_normal(n)
        y, _, dec, _ = unproj_rfom_cycle(a, AugmentationSpace.empty(len(r)), r, m)
        ad = a.to_dense()
        v = dec.basis
        y_oracle = np.linalg.solve(v.conj().T @ ad @ v, v.conj().T @ r)
        assert np.linalg.norm(y - y_oracle) <= 1e-10 * np.linalg.norm(y_oracle)

    @pytest.mark.parametrize("seed", range(5))
    def test_galerkin_orthogonality(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 50, 10
        a = random_spd(rng, n)
        r = rng.standard_normal(n)
        y, _, dec, _ = unproj_rfom_cycle(a, AugmentationSpace.empty(len(r)), r, m)
        new_r = r - dec.v @ (dec.hbar[: dec.v.shape[1]] @ y)
        assert np.linalg.norm(dec.basis.conj().T @ new_r) <= 1e-10 * np.linalg.norm(r)


class TestGmresCycle:
    def test_identity_exact(self):
        a = SparseMatrix.identity(4)
        r = np.array([1.0, 2.0, 2.0, 0.0])
        y, _, dec, _ = unproj_rgmres_cycle(a, AugmentationSpace.empty(len(r), Constraint.MINRES), r, 4)
        assert y[0] == pytest.approx(3.0)

    def test_one_dimensional_minimization(self):
        a = SparseMatrix.diagonal([1.0, 2.0])
        r = np.array([1.0, 1.0]) / np.sqrt(2)
        y, _, dec, _ = unproj_rgmres_cycle(a, AugmentationSpace.empty(len(r), Constraint.MINRES), r, 1)
        # closed form: argmin ||r - t*A r|| = <Ar, r> / <Ar, Ar>
        ar = np.array([1.0, 2.0]) / np.sqrt(2)
        t_star = np.dot(ar, r) / np.dot(ar, ar)
        assert y[0] == pytest.approx(t_star * np.linalg.norm(r))
        new_r = r - dec.v @ (dec.hbar[: dec.v.shape[1]] @ y)
        assert np.linalg.norm(new_r) < np.linalg.norm(r)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_krylov_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 50, 10
        a = SparseMatrix.from_dense(rng.standard_normal((n, n)) + 4 * np.eye(n))
        r = rng.standard_normal(n)
        y, _, dec, _ = unproj_rgmres_cycle(a, AugmentationSpace.empty(len(r), Constraint.MINRES), r, m)
        new_norm = np.linalg.norm(r - dec.v @ (dec.hbar @ y))
        # explicit Krylov columns, dense least squares
        ad = a.to_dense()
        cols = [r]
        for _ in range(m - 1):
            cols.append(ad @ cols[-1])
        k = np.column_stack(cols)
        w, *_ = np.linalg.lstsq(ad @ k, r, rcond=None)
        brute = np.linalg.norm(r - ad @ (k @ w))
        assert abs(new_norm - brute) <= 1e-8 * brute

    @pytest.mark.parametrize("seed", range(5))
    def test_petrov_galerkin_orthogonality(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 50, 10
        a = SparseMatrix.from_dense(rng.standard_normal((n, n)) + 4 * np.eye(n))
        r = rng.standard_normal(n)
        y, _, dec, _ = unproj_rgmres_cycle(a, AugmentationSpace.empty(len(r), Constraint.MINRES), r, m)
        new_r = r - dec.v @ (dec.hbar @ y)
        av = a.to_dense() @ dec.basis
        bound = 1e-10 * a.frobenius_norm() * np.linalg.norm(r)
        assert np.linalg.norm(av.conj().T @ new_r) <= bound

    def test_objective_predicts_new_norm(self):
        rng = np.random.default_rng(9)
        n, m = 40, 8
        a = SparseMatrix.from_dense(rng.standard_normal((n, n)) + 4 * np.eye(n))
        r = rng.standard_normal(n)
        y, _, dec, _ = unproj_rgmres_cycle(a, AugmentationSpace.empty(len(r), Constraint.MINRES), r, m)
        rhs = np.zeros(dec.j + 1)
        rhs[0] = np.linalg.norm(r)
        objective = np.linalg.norm(rhs - dec.hbar @ y)
        new_norm = np.linalg.norm(r - dec.v @ (dec.hbar @ y))
        assert abs(objective - new_norm) <= 1e-10 * max(new_norm, 1e-300)


class TestRestartedSolve:
    def test_exact_initial_guess_returns_immediately(self):
        rng = np.random.default_rng(0)
        a = random_spd(rng, 20)
        x_star = rng.standard_normal(20)
        b = a.to_dense() @ x_star
        cfg = SolverConfig(5, 1e-8)
        res = restarted_solve(a, b, x_star, cfg, "gmres")
        assert res.converged
        assert res.cycles_used == 0

    def test_identity_one_cycle(self):
        b = np.array([1.0, 2.0, 3.0])
        cfg = SolverConfig(3, 1e-12, tol_mode="abs")
        res = restarted_solve(SparseMatrix.identity(3), b, None, cfg, "fom")
        assert res.converged
        assert res.cycles_used == 1
        assert np.allclose(res.x, b)

    @pytest.mark.parametrize("method", ["fom", "gmres"])
    def test_tridiag_converges_to_true_solution(self, method):
        n = 100
        a = tridiagonal_matrix(n)
        rng = np.random.default_rng(4)
        b = rng.standard_normal(n)
        eps = 1e-8 * np.linalg.norm(b)
        cfg = SolverConfig(20, eps, max_cycles=2000, tol_mode="abs")
        res = restarted_solve(a, b, None, cfg, method)
        assert res.converged
        true = np.linalg.norm(b - a.to_dense() @ res.x)
        assert true <= 1.1 * eps

    @pytest.mark.parametrize("seed", range(10))
    def test_gmres_inner_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        n = 60
        a = SparseMatrix.from_dense(rng.standard_normal((n, n)) + 3 * np.eye(n))
        b = rng.standard_normal(n)
        cfg = SolverConfig(12, 1e-10, max_cycles=30, tol_mode="abs")
        res = restarted_solve(a, b, None, cfg, "gmres")
        by_cycle = {}
        for cycle, inner, norm in res.residual_history:
            by_cycle.setdefault(cycle, []).append((inner, norm))
        for cycle, entries in by_cycle.items():
            if cycle == 0:
                continue
            norms = [v for _, v in sorted(entries)]
            for earlier, later in zip(norms, norms[1:]):
                assert later <= earlier * (1 + 1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_recurred_matches_true_residual_at_convergence(self, seed):
        rng = np.random.default_rng(seed)
        n = 80
        a = SparseMatrix.from_dense(
            rng.standard_normal((n, n)) / np.sqrt(n) + 2 * np.eye(n)
        )
        b = rng.standard_normal(n)
        cfg = SolverConfig(15, 1e-10, max_cycles=60)
        res = restarted_solve(a, b, None, cfg, "gmres")
        assert res.converged
        true_r = b - a.to_dense() @ res.x
        gap = abs(np.linalg.norm(true_r) - res.final_residual_norm)
        assert gap <= 1e-8 * np.linalg.norm(b)

    def test_stagnation_reported_not_raised(self):
        # 2x2 rotation-like system that one-step GMRES cannot improve:
        # r is mapped to an orthogonal direction, the 1-d minimizer is 0.
        a = SparseMatrix.from_dense(np.array([[0.0, -1.0], [1.0, 0.0]]))
        b = np.array([1.0, 0.0])
        cfg = SolverConfig(1, 1e-10, max_cycles=10, tol_mode="abs")
        res = restarted_solve(a, b, None, cfg, "gmres")
        assert not res.converged
        assert res.stop_reason == "stagnation"

    def test_matvec_accounting(self):
        n = 50
        a = tridiagonal_matrix(n)
        rng = np.random.default_rng(2)
        b = rng.standard_normal(n)
        cfg = SolverConfig(10, 1e-30, max_cycles=25, tol_mode="abs", reorth=True)
        op = as_operator(a)
        res = restarted_solve(op, b, None, cfg, "gmres")
        cycles = res.cycles_used
        drift_checks = cycles // 10
        assert res.matvec_count == op.matvec_count
        assert res.matvec_count == 10 * cycles + drift_checks

    @pytest.mark.parametrize("solver", ["restarted_solve", "unproj_solve"])
    def test_drift_warning_names_the_caller(self, solver):
        # the operator shifts by 1e-3 I once the first cycle is done, so the
        # recurred residual parts from b - A x by about 1e-3 ||x_1||
        n, m, k = 60, 5, 3
        ad = tridiagonal_matrix(n).to_dense()
        switch_at = m if solver == "restarted_solve" else k + m
        op = OperatorHandle(n, lambda v: ad @ v + (1e-3 * v if op.matvec_count > switch_at else 0.0))
        b = np.random.default_rng(6).standard_normal(n)
        cfg = SolverConfig(m, 1e-30, max_cycles=10, tol_mode="abs")
        with pytest.warns(UserWarning, match="drifted") as caught:
            if solver == "restarted_solve":
                res = restarted_solve(op, b, None, cfg, "gmres")
            else:
                u = np.random.default_rng(7).standard_normal((n, k))
                res = unproj_solve(op, b, None, u, cfg, "rfom")
        assert res.cycles_used == 10
        assert res.max_drift_gap > 1e-6
        drift = [w for w in caught if "drifted" in str(w.message)]
        assert [w.filename for w in drift] == [__file__]

    @pytest.mark.parametrize("method", ["fom", "gmres", "rfom", "rgmres"])
    def test_convergence_is_confirmed_by_the_true_residual(self, method):
        # The operator shifts by 1e-3 I right after the first cycle's
        # Arnoldi steps, so the recurred residual that meets the tolerance
        # there is not b - A x for the operator that A has become.
        n, tol = 60, 1e-10
        ad = tridiagonal_matrix(n).to_dense() + 2 * np.eye(n)
        rng = np.random.default_rng(8)
        b = rng.standard_normal(n)
        u = rng.standard_normal((n, 3))
        cfg = SolverConfig(40, tol, max_cycles=20)

        def solve(op):
            if method in ("fom", "gmres"):
                return restarted_solve(op, b, None, cfg, method)
            return unproj_solve(op, b, None, u, cfg, method)

        fixed = solve(OperatorHandle(n, lambda v: ad @ v))
        assert fixed.converged and fixed.cycles_used == 1
        switch_at = fixed.history_matvecs[-1] - 1  # all but the confirming matvec
        op = OperatorHandle(n, lambda v: ad @ v + (1e-3 * v if op.matvec_count > switch_at else 0.0))
        with pytest.warns(UserWarning, match="drifted"):
            res = solve(op)
        true_norm = np.linalg.norm(b - (ad + 1e-3 * np.eye(n)) @ res.x)
        assert res.converged and true_norm <= tol * np.linalg.norm(b)
        # the first cycle did not count as converged: the solve went on from
        # the true residual, which its history row shows
        assert res.cycles_used >= 2
        first_end = [norm for cycle, _, norm in res.residual_history if cycle == 1][-1]
        assert first_end > tol * np.linalg.norm(b)
        assert res.history_matvecs[-1] == res.matvec_count == op.matvec_count

    @pytest.mark.parametrize("method", ["fom", "gmres", "rfom", "rgmres"])
    def test_unattainable_tolerance_stops_as_stagnation(self, method):
        # tol = 1e-17 lies below what the arithmetic reaches here (a true
        # relative residual near 7e-16): recurred norms keep meeting it and
        # their confirmations keep failing without getting any smaller
        n = 300
        rng = np.random.default_rng(0)
        a = SparseMatrix.from_dense(2 * np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n))
        b = rng.standard_normal(n)
        u = rng.standard_normal((n, 4))
        cfg = SolverConfig(30, 1e-17, max_cycles=200)
        if method in ("fom", "gmres"):
            res = restarted_solve(a, b, None, cfg, method)
        else:
            res = unproj_solve(a, b, None, u, cfg, method)
        assert res.stop_reason == "stagnation" and not res.converged
        assert res.matvec_count < 150
        # the last row holds the failed confirmation's true norm
        true_norm = np.linalg.norm(b - as_operator(a)(res.x))
        assert true_norm == res.final_residual_norm <= 1e-15 * np.linalg.norm(b)

    def test_history_rows_well_formed(self):
        a = tridiagonal_matrix(30)
        b = np.ones(30)
        cfg = SolverConfig(5, 1e-6, max_cycles=50)
        res = restarted_solve(a, b, None, cfg, "fom")
        assert isinstance(res, SolveResult)
        assert res.residual_history[0] == (0, 0, pytest.approx(np.linalg.norm(b)))
        assert len(res.residual_history) > 1
        final_cycle_rows = [r for r in res.residual_history if r[0] == res.cycles_used]
        assert final_cycle_rows[-1][2] == res.final_residual_norm
        # one matvec count per row, never decreasing; a solve that ends with a
        # cycle-end row (here at max_cycles) ends at its own count
        assert len(res.history_matvecs) == len(res.residual_history)
        assert res.history_matvecs == sorted(res.history_matvecs)
        assert res.stop_reason == "max_cycles" and res.history_matvecs[-1] == res.matvec_count
        # inner steps rise within each cycle; the cycle's size comes last
        for cycle in range(1, res.cycles_used + 1):
            steps = [inner for c, inner, _ in res.residual_history if c == cycle]
            assert steps == sorted(set(steps)) and steps[-1] <= 5


def test_inner_norms_skip_singular_sizes():
    # Hessenberg whose 1x1 leading block is zero: the size-1 FOM solve is
    # singular, so FOM's history has no row for that size; GMRES's has one.
    a = SparseMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    b = np.array([1.0, 0.0])
    cfg = SolverConfig(2, 1e-10, tol_mode="abs")
    inner = {}
    for method in ("fom", "gmres"):
        res = restarted_solve(a, b, None, cfg, method)
        assert res.converged and res.cycles_used == 1
        inner[method] = [i for cycle, i, _ in res.residual_history if cycle == 1]
    assert inner == {"fom": [2], "gmres": [1, 2]}


@pytest.mark.parametrize("method", ["fom", "rfom"])
def test_singular_reduced_system_at_every_size_is_a_breakdown(method):
    # H = [[0]] after one step: no leading size of the FOM system is nonsingular
    a = SparseMatrix.from_dense(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    b = np.array([1.0, 0.0])
    cfg = SolverConfig(1, 1e-10)
    if method == "fom":
        res = restarted_solve(a, b, None, cfg, method)
    else:
        res = unproj_solve(a, b, None, None, cfg, method)
    assert res.stop_reason == "breakdown" and not res.converged
    assert res.cycles_used == 0 and res.matvec_count == 1


@pytest.mark.parametrize("method", ["fom", "gmres"])
def test_no_basis_outlives_its_cycle(method):
    """A restarted solve holds one Krylov basis at a time (its peak reads 1.29
    bases): keeping the last cycle's decomposition while the next cycle builds
    its own would read about 2.3 and lift the process's peak memory with it."""
    n, m = 20_000, 20
    a, b = tridiagonal_matrix(n), np.random.default_rng(0).standard_normal(n)
    tracemalloc.start()
    try:
        res = restarted_solve(a, b, None, SolverConfig(m, 1e-12, max_cycles=4), method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.cycles_used == 4 and res.final_decomposition is None
    assert peak < 1.8 * (m + 1) * n * 8


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (
            lambda op, cfg: restarted_solve(op, np.ones(30), np.zeros((30, 1)), cfg, "gmres"),
            DimensionError,
            "x0 shape (30, 1) does not match dimension 30",
        ),
        (
            lambda op, cfg: restarted_solve(op, np.ones(30), np.zeros(31), cfg, "gmres"),
            DimensionError,
            "x0 shape (31,) does not match dimension 30",
        ),
        (
            lambda op, cfg: restarted_solve(op, np.ones(31), None, cfg, "gmres"),
            DimensionError,
            "rhs shape (31,) does not match dimension 30",
        ),
        (
            lambda op, cfg: restarted_solve(op, np.ones(30), None, cfg, "rfom"),
            ValueError,
            "method must be 'fom' or 'gmres', got 'rfom'",
        ),
        (
            lambda op, cfg: unproj_solve(op, np.ones(30), np.zeros((30, 1)), None, cfg, "rgmres"),
            DimensionError,
            "x0 shape (30, 1) does not match dimension 30",
        ),
        (
            lambda op, cfg: unproj_solve(op, np.ones(30), np.zeros(31), None, cfg, "rgmres"),
            DimensionError,
            "x0 shape (31,) does not match dimension 30",
        ),
        (
            lambda op, cfg: unproj_solve(op, np.ones(30), None, np.zeros((7, 0)), cfg, "rgmres"),
            DimensionError,
            "augmentation basis shape (7, 0) does not match n",
        ),
    ],
    ids=[
        "restarted-x0-column",
        "restarted-x0-long",
        "restarted-rhs-long",
        "restarted-unknown-method",
        "unproj-x0-column",
        "unproj-x0-long",
        "unproj-empty-basis-of-7-rows",
    ],
)
def test_an_input_of_another_shape_is_refused_before_any_matvec(call, error, fragment):
    op = as_operator(tridiagonal_matrix(30))
    with pytest.raises(error, match=re.escape(fragment)):
        call(op, SolverConfig(10, 1e-8, max_cycles=50))
    assert op.matvec_count == 0
