import warnings
from unittest import mock

import numpy as np
import pytest

import kryrec.baseline
from kryrec.arnoldi import arnoldi, arnoldi_relation_residual, as_operator
from kryrec.augmented import (
    AugmentationSpace,
    Constraint,
    assemble_block_system,
    build_augmentation,
    solve_block_coupled,
    z_correction,
)
from kryrec.baseline import SolveResult, SolverConfig, restarted_solve
from kryrec.core import DimensionError, SparseMatrix
from kryrec.io import tridiagonal_matrix
from kryrec.unprojected import (
    unproj_rfom_cycle,
    unproj_rgmres_cycle,
    unproj_solve,
)


def well_conditioned(rng, n):
    return SparseMatrix.from_dense(rng.standard_normal((n, n)) / np.sqrt(n) + 2 * np.eye(n))


def rfom_instance(seed, n=60, k=5, m=8):
    rng = np.random.default_rng(seed)
    a = well_conditioned(rng, n)
    u = rng.standard_normal((n, k))
    r0 = rng.standard_normal(n)
    aug = build_augmentation(a, u, Constraint.GALERKIN)
    return a, aug, r0


def rgmres_instance(seed, n=60, k=5, m=8):
    rng = np.random.default_rng(seed)
    a = well_conditioned(rng, n)
    u = rng.standard_normal((n, k))
    r0 = rng.standard_normal(n)
    aug = build_augmentation(a, u, Constraint.MINRES)
    return a, aug, r0


def singular_hessenberg_system():
    a = SparseMatrix.from_dense(
        np.array(
            [[2.0, -1.0, 0.0, -1.0], [1.0, -0.5, 0.0, 0.0], [0.0, 1.0, 1.0, -2.0], [0.0, 0.0, 1.0, 2.0]]
        )
    )
    return a, np.eye(4)[0]


def low_grade_system(dtype):
    """Four distinct eigenvalues, five times each: every Arnoldi run breaks
    down by step 4, up to rounding."""
    rng = np.random.default_rng(7)
    vals = rng.uniform(1, 3, 4) + (1j * rng.uniform(-1, 1, 4) if dtype is complex else 0)
    b = rng.standard_normal(20) + (1j * rng.standard_normal(20) if dtype is complex else 0)
    return SparseMatrix.diagonal(np.repeat(vals, 5)), b


def recorded_decompositions(monkeypatch):
    """Every decomposition the solvers build from here on."""
    decs = []

    def spy(*args, **kwargs):
        decs.append(arnoldi(*args, **kwargs))
        return decs[-1]

    monkeypatch.setattr(kryrec.baseline, "arnoldi", spy)
    return decs


def assert_shape_rule(decs, a):
    """One hbar row per basis column, and A v[:, :j] = v @ hbar."""
    for dec in decs:
        assert dec.v.shape[1] == dec.hbar.shape[0]
        assert arnoldi_relation_residual(dec, a) <= 1e-12 * a.frobenius_norm()


def cycle_residual(aug, dec, y, z, r0):
    """Recompute the post-cycle residual vector from its definition."""
    r = r0 - dec.v @ (dec.hbar[: dec.v.shape[1], :] @ y)
    if aug.k:
        r = r - aug.c @ z
    return r


class TestRfomCycle:
    def test_k_zero_matches_plain_fom(self):
        # plain FOM: the explicit Galerkin solve over the basis of a plain Arnoldi run
        rng = np.random.default_rng(0)
        a = well_conditioned(rng, 40)
        r0 = rng.standard_normal(40)
        y, z, dec, b = unproj_rfom_cycle(a, AugmentationSpace.empty(40), r0, 6)
        assert z.shape == (0,)
        assert b.shape == (0, 6)
        assert np.array_equal(dec.hbar, arnoldi(a, r0, 6).hbar)
        v = dec.basis
        y_ref = np.linalg.solve(v.conj().T @ a.to_dense() @ v, v.conj().T @ r0)
        assert np.linalg.norm(y - y_ref) <= 1e-10 * np.linalg.norm(y_ref)

    def test_k_zero_singular_hessenberg_solved_at_smaller_size(self):
        a, e1 = singular_hessenberg_system()
        y, z, dec, b = unproj_rfom_cycle(a, AugmentationSpace.empty(4), e1, 2)
        assert dec.j == 2 and len(y) == 1
        v = dec.basis[:, :1]
        y_ref = np.linalg.solve(v.conj().T @ a.to_dense() @ v, v.conj().T @ e1)
        assert np.linalg.norm(y - y_ref) <= 1e-12 * np.linalg.norm(y_ref)

    def test_singular_size_keeps_no_norm(self):
        # H_1 = 0 on the skew block, so the monitor's Galerkin system at size 1
        # is singular: that size keeps no norm, and size 2 meets the threshold
        skew = np.diag([1.0, 2.0, 3.0], -1) - np.diag([1.0, 2.0, 3.0], 1)
        dense = np.zeros((8, 8))
        dense[:4, :4], dense[4:, 4:] = skew, np.diag([1.0, 2.0, 3.0, 4.0])
        a = SparseMatrix.from_dense(dense)
        aug = build_augmentation(a, np.eye(8)[:, 7:], Constraint.GALERKIN)
        norms, galerkin_norm = [], kryrec.baseline._ResidualMonitor._galerkin_norm

        def spy(self, *args):
            norms.append(galerkin_norm(self, *args))
            return norms[-1]

        with mock.patch.object(kryrec.baseline._ResidualMonitor, "_galerkin_norm", spy):
            y, z, dec, _ = unproj_rfom_cycle(a, aug, np.eye(8)[0], 4, threshold=1e3)
        assert norms == [np.inf, 2.0]
        assert dec.step_norms == [(2, 2.0)] and dec.j == 2

    def test_decoupled_spaces(self):
        # augmentation basis orthogonal to the whole Krylov space: the
        # reduced system is plain FOM's and z only carries the r0 overlap
        n = 12
        a = SparseMatrix.diagonal(np.arange(1.0, n + 1))
        u = np.eye(n)[:, 10:]
        aug = build_augmentation(a, u, Constraint.GALERKIN)
        r0 = np.zeros(n)
        r0[:6] = np.random.default_rng(1).standard_normal(6)
        y, z, dec, b = unproj_rfom_cycle(a, aug, r0, 4)
        assert np.linalg.norm(b) <= 1e-14
        rhs = np.zeros(dec.j)
        rhs[0] = np.linalg.norm(r0)
        y_plain = np.linalg.solve(dec.h, rhs)
        assert np.linalg.norm(y - y_plain) <= 1e-12 * np.linalg.norm(y_plain)
        assert np.linalg.norm(z - aug.solve_small(u.conj().T @ r0)) <= 1e-14

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_block_system_oracle(self, seed):
        a, aug, r0 = rfom_instance(seed)
        y, z, dec, b = unproj_rfom_cycle(a, aug, r0, 8)
        av = a.to_dense() @ dec.basis
        m_blk, rhs = assemble_block_system(aug, av, dec.basis, r0)
        z_blk, y_blk = solve_block_coupled(m_blk, rhs, aug.k, dec.j)
        assert np.linalg.norm(y - y_blk) <= 1e-9 * np.linalg.norm(y_blk)
        assert np.linalg.norm(z - z_blk) <= 1e-9 * max(np.linalg.norm(z_blk), 1e-300)

    @pytest.mark.parametrize("seed", range(8))
    def test_residual_constraints(self, seed):
        a, aug, r0 = rfom_instance(seed)
        y, z, dec, b = unproj_rfom_cycle(a, aug, r0, 8)
        r_new = cycle_residual(aug, dec, y, z, r0)
        scale = np.linalg.norm(r0)
        assert np.linalg.norm(dec.basis.conj().T @ r_new) <= 1e-9 * scale
        assert np.linalg.norm(aug.u.conj().T @ r_new) <= 1e-9 * scale


class TestRgmresCycle:
    def test_k_zero_matches_plain_gmres(self):
        # plain GMRES: the dense least squares over the images A V_j
        rng = np.random.default_rng(0)
        a = well_conditioned(rng, 40)
        r0 = rng.standard_normal(40)
        aug = AugmentationSpace.empty(40, Constraint.MINRES)
        y, z, dec, b = unproj_rgmres_cycle(a, aug, r0, 6)
        y_ref, *_ = np.linalg.lstsq(a.to_dense() @ dec.basis, r0, rcond=None)
        assert np.linalg.norm(y - y_ref) <= 1e-10 * np.linalg.norm(y_ref)

    def test_image_orthogonal_to_krylov_space(self):
        # image columns orthogonal to the whole Krylov span: the reduced
        # system collapses to plain GMRES normal equations
        n = 12
        a = SparseMatrix.diagonal(np.arange(1.0, n + 1))
        u = np.eye(n)[:, 10:]
        aug = build_augmentation(a, u, Constraint.MINRES)
        r0 = np.zeros(n)
        r0[:6] = np.random.default_rng(2).standard_normal(6)
        y, z, dec, b = unproj_rgmres_cycle(a, aug, r0, 4)
        rhs = np.zeros(dec.j + 1)
        rhs[0] = np.linalg.norm(r0)
        hb = dec.hbar
        y_plain = np.linalg.solve(hb.conj().T @ hb, hb.conj().T @ rhs)
        assert np.linalg.norm(y - y_plain) <= 1e-10 * np.linalg.norm(y_plain)

    def test_image_inside_the_krylov_image_is_solved(self):
        # A e1 = e1 ends Arnoldi after one step, and C = e1 repeats its only
        # column: the minimizer exists, with an exactly zero residual
        a = SparseMatrix.diagonal(np.arange(1.0, 7.0))
        e1 = np.eye(6)[0]
        aug = build_augmentation(a, e1[:, None], Constraint.MINRES)
        y, z, dec, _ = unproj_rgmres_cycle(a, aug, e1, 4)
        assert dec.breakdown == 1
        assert np.array_equal(y, [1.0]) and np.array_equal(z, [0.0])
        assert not np.any(e1 - a.to_dense() @ (dec.basis @ y + aug.u @ z))

    def test_singular_hessenberg_raises(self):
        # A e1 = 0 ends Arnoldi after one step with H = [[0]]
        from kryrec.core import RankDeficientError

        a = SparseMatrix.diagonal(np.arange(0.0, 6.0))
        aug = build_augmentation(a, np.eye(6)[:, 3:4], Constraint.MINRES)
        with pytest.raises(RankDeficientError):
            unproj_rgmres_cycle(a, aug, np.eye(6)[0], 4)

    def test_requires_orthonormal_image(self):
        a, aug, r0 = rfom_instance(0)  # a Galerkin space
        with pytest.raises(ValueError):
            unproj_rgmres_cycle(a, aug, r0, 5)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_full_minimization_oracle(self, seed):
        a, aug, r0 = rgmres_instance(seed)
        y, z, dec, b = unproj_rgmres_cycle(a, aug, r0, 8)
        r_new = cycle_residual(aug, dec, y, z, r0)
        cols = np.column_stack([aug.c, a.to_dense() @ dec.basis])
        w, *_ = np.linalg.lstsq(cols, r0, rcond=None)
        brute = np.linalg.norm(r0 - cols @ w)
        assert abs(np.linalg.norm(r_new) - brute) <= 1e-8 * brute

    @pytest.mark.parametrize("seed", range(8))
    def test_residual_constraints(self, seed):
        a, aug, r0 = rgmres_instance(seed)
        y, z, dec, b = unproj_rgmres_cycle(a, aug, r0, 8)
        r_new = cycle_residual(aug, dec, y, z, r0)
        scale = a.frobenius_norm() * np.linalg.norm(r0)
        av = a.to_dense() @ dec.basis
        assert np.linalg.norm(av.conj().T @ r_new) <= 1e-9 * scale
        assert np.linalg.norm(aug.c.conj().T @ r_new) <= 1e-9 * scale

    @pytest.mark.parametrize("seed", range(8))
    def test_never_worse_than_plain_gmres(self, seed):
        a, aug, r0 = rgmres_instance(seed)
        y, z, dec, b = unproj_rgmres_cycle(a, aug, r0, 8)
        r_new = np.linalg.norm(cycle_residual(aug, dec, y, z, r0))
        y_g, _, dec_g, _ = unproj_rgmres_cycle(a, AugmentationSpace.empty(len(r0), Constraint.MINRES), r0, 8)
        r_gmres = np.linalg.norm(r0 - dec_g.v @ (dec_g.hbar @ y_g))
        assert r_new <= r_gmres + 1e-10


@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
@pytest.mark.parametrize("method", ["rfom", "rgmres"])
def test_cycle_z_is_the_z_correction_oracle(method, dtype):
    # the cycle forms its own z0 = small⁻¹ Ũ* r0; z must stay the same bits
    # as z_correction, which the block-decoupling oracle tests use
    rng = np.random.default_rng(4)
    n, k = 60, 5
    dense = rng.standard_normal((n, n)) / np.sqrt(n) + 2 * np.eye(n)
    u = rng.standard_normal((n, k))
    r0 = rng.standard_normal(n)
    if dtype is complex:
        dense = dense + 1j * rng.standard_normal((n, n)) / np.sqrt(n)
        u = u + 1j * rng.standard_normal((n, k))
        r0 = r0 + 1j * rng.standard_normal(n)
    a = SparseMatrix.from_dense(dense)
    if method == "rfom":
        aug = build_augmentation(a, u, Constraint.GALERKIN)
        y, z, dec, b = unproj_rfom_cycle(a, aug, r0, 8)
    else:
        aug = build_augmentation(a, u, Constraint.MINRES)
        y, z, dec, b = unproj_rgmres_cycle(a, aug, r0, 8)
    assert np.array_equal(z, z_correction(aug, y, r0, b))


class TestUnprojSolve:
    def test_exact_initial_guess(self):
        rng = np.random.default_rng(0)
        a = well_conditioned(rng, 20)
        x_star = rng.standard_normal(20)
        b = a.to_dense() @ x_star
        cfg = SolverConfig(5, 1e-8)
        res = unproj_solve(a, b, x_star, None, cfg, "rfom")
        assert res.converged and res.cycles_used == 0

    @pytest.mark.parametrize("method,base", [("rfom", "fom"), ("rgmres", "gmres")])
    def test_degeneration_matches_baseline(self, method, base):
        n = 200
        a = tridiagonal_matrix(n)
        rng = np.random.default_rng(5)
        b = rng.standard_normal(n)
        b /= np.linalg.norm(b)
        cfg = SolverConfig(20, 1e-8, max_cycles=40, tol_mode="abs")
        res_aug = unproj_solve(a, b, None, None, cfg, method)
        res_base = restarted_solve(a, b, None, cfg, base)
        ha, hb = res_aug.cycle_norms, res_base.cycle_norms
        assert len(ha) == len(hb)
        assert np.max(np.abs(ha - hb) / np.maximum(ha, 1e-300)) <= 1e-12

    @pytest.mark.parametrize("method,base", [("rfom", "fom"), ("rgmres", "gmres")])
    @pytest.mark.parametrize(
        "system", ["tridiagonal", "singular_hessenberg", "lucky_breakdown_real", "lucky_breakdown_complex"]
    )
    def test_k_zero_equals_baseline_in_every_field(self, system, method, base, monkeypatch):
        if system == "tridiagonal":
            a = tridiagonal_matrix(200)
            b = np.random.default_rng(5).standard_normal(200)
            b /= np.linalg.norm(b)
            cfg = SolverConfig(20, 1e-8, max_cycles=40, tol_mode="abs")
        elif system == "singular_hessenberg":
            # H_2 of the first cycle is exactly singular: FOM solves at size 1
            a, b = singular_hessenberg_system()
            cfg = SolverConfig(2, 1e-10, max_cycles=50)
        else:
            # an unreachable tolerance keeps restarting: every cycle breaks down
            a, b = low_grade_system(complex if system.endswith("complex") else float)
            cfg = SolverConfig(6, 1e-300, max_cycles=8, tol_mode="abs")
        decs = recorded_decompositions(monkeypatch)
        res_aug = unproj_solve(a, b, None, None, cfg, method)
        res_base = restarted_solve(a, b, None, cfg, base)
        assert_shape_rule(decs, a)
        if system.startswith("lucky_breakdown"):
            assert len(decs) == 16 and all(dec.breakdown for dec in decs)
        assert np.array_equal(res_aug.x, res_base.x)
        assert res_aug.residual_history == res_base.residual_history
        assert res_aug.matvec_count == res_base.matvec_count
        assert res_aug.history_matvecs == res_base.history_matvecs
        assert res_aug.cycles_used == res_base.cycles_used
        assert res_aug.stop_reason == res_base.stop_reason

    @pytest.mark.parametrize("method", ["rfom", "rgmres"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, "complex"])
    def test_update_consistency_every_cycle(self, method, seed):
        rng = np.random.default_rng(seed if seed != "complex" else 4)
        n, k = 70, 4
        a = well_conditioned(rng, n)
        u = rng.standard_normal((n, k))
        b = rng.standard_normal(n)
        if seed == "complex":
            cplx = lambda shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            a = SparseMatrix.from_dense(cplx((n, n)) / np.sqrt(2 * n) + 2 * np.eye(n))
            u, b = cplx((n, k)), cplx(n)
        ad = a.to_dense()

        recorded = []

        class Spy:
            def __call__(self, op, aug, dec):
                recorded.append(None)
                return None

        cfg = SolverConfig(6, 1e-9, max_cycles=30)
        res = unproj_solve(a, b, None, u, cfg, method, recycler=Spy())
        assert res.converged
        assert res.x.dtype == (np.complex128 if seed == "complex" else np.float64)
        true_r = b - ad @ res.x
        assert (
            abs(np.linalg.norm(true_r) - res.final_residual_norm)
            <= 1e-9 * np.linalg.norm(b)
        )

    def test_per_cycle_z_norms_recorded(self):
        rng = np.random.default_rng(1)
        n, k = 50, 3
        a = well_conditioned(rng, n)
        u = rng.standard_normal((n, k))
        b = rng.standard_normal(n)
        cfg = SolverConfig(5, 1e-9, max_cycles=40)
        res = unproj_solve(a, b, None, u, cfg, "rfom")
        assert isinstance(res, SolveResult)
        assert res.k_used == k
        assert len(res.z_norms) == res.cycles_used

    def test_matvec_accounting_with_augmentation(self):
        n, k, m = 80, 4, 10
        a = tridiagonal_matrix(n)
        rng = np.random.default_rng(3)
        u = rng.standard_normal((n, k))
        b = rng.standard_normal(n)
        op = as_operator(a)
        cfg = SolverConfig(m, 1e-30, max_cycles=25, tol_mode="abs")
        res = unproj_solve(op, b, None, u, cfg, "rfom")
        cycles = res.cycles_used
        drift_checks = cycles // 10
        builds = 1
        assert res.matvec_count == op.matvec_count
        assert res.matvec_count == m * cycles + k * builds + drift_checks

    def test_recycler_callback_invoked_between_cycles(self):
        rng = np.random.default_rng(8)
        n = 60
        a = tridiagonal_matrix(n)
        b = rng.standard_normal(n)
        calls = []

        def recycler(op, aug, dec):
            calls.append(dec.j)
            return None

        cfg = SolverConfig(5, 1e-10, max_cycles=12, tol_mode="abs")
        res = unproj_solve(a, b, None, None, cfg, "rfom", recycler=recycler)
        # called between cycles only: never after the final one
        assert len(calls) == res.cycles_used - 1

    def test_unknown_method_rejected(self):
        a = tridiagonal_matrix(10)
        with pytest.raises(ValueError):
            unproj_solve(a, np.ones(10), None, None, SolverConfig(2, 1e-8), "cg")
        # a 1-D seed is not the empty space: its shape is rejected before any matvec
        with pytest.raises(DimensionError):
            unproj_solve(a, np.ones(10), None, np.ones(10), SolverConfig(2, 1e-8), "rfom")

    def test_a_space_of_another_dimension_is_a_dimension_error(self):
        a, b = tridiagonal_matrix(50), np.ones(50)
        aug = build_augmentation(tridiagonal_matrix(40), np.eye(40)[:, :3], Constraint.MINRES)
        with pytest.raises(DimensionError, match="dimension 40 for a residual of length 50"):
            unproj_solve(a, b, None, aug, SolverConfig(5, 1e-8), "rgmres")
        with pytest.raises(DimensionError):
            unproj_rgmres_cycle(a, aug, b, 5)

    def test_inner_rows_count_the_matvecs_a_recycler_spends(self):
        # a recycler that applies the operator twice between cycles moves every
        # later row, inner rows included, by two matvecs a cycle
        a, b = tridiagonal_matrix(40), np.random.default_rng(2).standard_normal(40)
        cfg = SolverConfig(6, 1e-12, max_cycles=5)

        def spending(op, aug, dec):
            op(op(b))  # keeps the space

        for method in ("rfom", "rgmres"):
            quiet = unproj_solve(a, b, None, None, cfg, method)
            spent = unproj_solve(a, b, None, None, cfg, method, recycler=spending)
            assert [row[:2] for row in spent.residual_history] == [row[:2] for row in quiet.residual_history]
            assert any(i < 6 and c > 1 for c, i, _ in quiet.residual_history)
            assert spent.history_matvecs == [
                mv + 2 * max(c - 1, 0) for (c, _, _), mv in zip(quiet.residual_history, quiet.history_matvecs)
            ]

    def test_exact_smallest_eigenvectors_accelerate_fom(self):
        # second-difference operator has analytic eigenpairs:
        # vectors sin(pi k (i+1) / (n+1)), values 2 - 2 cos(pi k / (n+1))
        n, m, k = 200, 20, 5
        a = tridiagonal_matrix(n)
        i = np.arange(1, n + 1)
        u = np.column_stack(
            [np.sin(np.pi * kk * i / (n + 1)) for kk in range(1, k + 1)]
        )
        u /= np.linalg.norm(u, axis=0)
        rng = np.random.default_rng(9)
        b = rng.standard_normal(n)
        b /= np.linalg.norm(b)
        cfg = SolverConfig(m, 1e-8, max_cycles=2000, tol_mode="abs")
        plain = restarted_solve(a, b, None, cfg, "fom")
        seeded = unproj_solve(a, b, None, u, cfg, "rfom")
        assert plain.converged and seeded.converged
        assert seeded.cycles_used < plain.cycles_used


@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
@pytest.mark.parametrize("method", ["fom", "gmres"])
def test_restarted_solve_is_unproj_solve_over_the_empty_space(method, dtype):
    """Both run the one cycle over the empty space through the one restart loop:
    every result field agrees bit for bit, and only unproj_solve keeps a source."""
    rng = np.random.default_rng(11)
    n = 40
    a = rng.standard_normal((n, n)) / np.sqrt(n) + 2 * np.eye(n)
    b, x0 = rng.standard_normal(n), rng.standard_normal(n)
    if dtype is complex:
        a = a + 1j * rng.standard_normal((n, n)) / np.sqrt(4 * n)
        b, x0 = b + 1j * rng.standard_normal(n), x0 + 1j * rng.standard_normal(n)
    a = SparseMatrix.from_dense(a)
    cfg = SolverConfig(7, 1e-10, max_cycles=30)
    plain = restarted_solve(a, b, x0, cfg, method)
    empty = unproj_solve(a, b, x0, None, cfg, "r" + method)
    assert plain.cycles_used > 1 and plain.converged
    assert plain.x.tobytes() == empty.x.tobytes()
    for field in ("residual_history", "history_matvecs", "z_norms"):
        assert np.array(getattr(plain, field)).tobytes() == np.array(getattr(empty, field)).tobytes()
    assert plain.z_norms == [0.0] * plain.cycles_used
    for field in ("matvec_count", "cycles_used", "stop_reason", "k_used", "max_drift_gap"):
        assert repr(getattr(plain, field)) == repr(getattr(empty, field))
    assert plain.k_used == 0
    assert plain.final_decomposition is None and empty.final_decomposition is not None


@pytest.mark.parametrize("method", ["rfom", "rgmres"])
def test_recycling_source_is_the_last_full_cycle(method):
    # The last cycle stops early at the tolerance; recycling its few steps
    # would give poor Ritz vectors, so the source stays the cycle before it.
    rng = np.random.default_rng(5)
    a = well_conditioned(rng, 200)
    b = rng.standard_normal(200)
    m = 10
    res = unproj_solve(a, b, None, None, SolverConfig(m, 1e-8, max_cycles=200), method)
    assert res.converged and res.cycles_used >= 2
    last_cycle, last_size, _ = res.residual_history[-1]
    assert last_cycle == res.cycles_used and last_size < m
    assert res.final_decomposition.j == m
    # with a single cycle, that cycle is the source whatever its length
    one = unproj_solve(a, b, None, None, SolverConfig(m, 0.9, max_cycles=200), method)
    assert one.cycles_used == 1 and one.final_decomposition.j == one.residual_history[-1][1] < m


@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
@pytest.mark.parametrize("method", ["rfom", "rgmres"])
def test_augmented_cycle_over_a_lucky_breakdown(method, dtype, monkeypatch):
    a, b = low_grade_system(dtype)
    u = np.random.default_rng(8).standard_normal((20, 2))
    decs = recorded_decompositions(monkeypatch)
    res = unproj_solve(a, b, None, u, SolverConfig(6, 1e-10), method)
    assert res.converged and decs and all(dec.breakdown for dec in decs)
    assert_shape_rule(decs, a)
    assert np.linalg.norm(b - a.to_dense() @ res.x) <= 1e-10 * np.linalg.norm(b)


def test_rfom_with_augmentation_writes_inner_rows_only_where_its_bound_meets_the_tolerance():
    # rfom computes its own norm only where the least residual over [V_i U], a
    # bound below it, meets the tolerance: here never below a cycle's last
    # step, so each cycle writes 1 row, where rgmres and rfom at k = 0 write 20
    a = tridiagonal_matrix(400, -1.3, 2, -0.7)
    rng = np.random.default_rng(0)
    b, u = rng.standard_normal(400), rng.standard_normal((400, 4))
    cfg = SolverConfig(20, 1e-8, max_cycles=3)
    for method, u0, rows in (("rfom", u, 1), ("rgmres", u, 20), ("rfom", None, 20)):
        res = unproj_solve(a, b, None, u0, cfg, method)
        assert res.cycles_used == 3 and not res.converged
        assert [row[:2] for row in res.residual_history] == [(0, 0)] + [
            (c, i) for c in (1, 2, 3) for i in range(21 - rows, 21)
        ]


class TestDegenerateAugmentation:
    """rgmres with augmentation spaces that overlap the Krylov space."""

    def test_image_containing_the_residual_converges_in_one_cycle(self):
        rng = np.random.default_rng(11)
        n = 60
        a = well_conditioned(rng, n)
        b = rng.standard_normal(n)
        u = np.linalg.solve(a.to_dense(), b)[:, None]  # A u = r0
        cfg = SolverConfig(8, 1e-10, max_cycles=20)
        with warnings.catch_warnings():
            # P = C* C - D* D is singular here: its solve must not give NaN
            warnings.simplefilter("error", RuntimeWarning)
            res = unproj_solve(a, b, None, u, cfg, "rgmres")
        assert res.converged and res.cycles_used == 1
        assert all(np.isfinite(norm) for _, _, norm in res.residual_history)
        assert np.linalg.norm(b - a.to_dense() @ res.x) <= 1e-9 * np.linalg.norm(b)

    def test_image_inside_the_krylov_image_stops_with_a_typed_outcome(self):
        from kryrec.arnoldi import arnoldi

        rng = np.random.default_rng(12)
        n = 60
        a = well_conditioned(rng, n)
        b = rng.standard_normal(n)
        u = arnoldi(a, b, 8).v[:, :2]  # A u lies in span V_3
        cfg = SolverConfig(8, 1e-10, max_cycles=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = unproj_solve(a, b, None, u, cfg, "rgmres")
        assert res.converged or res.stop_reason == "breakdown"
        if res.converged:
            assert np.linalg.norm(b - a.to_dense() @ res.x) <= 1e-9 * np.linalg.norm(b)

    @pytest.mark.parametrize("seed", range(8))
    def test_space_inside_the_krylov_space_costs_no_accuracy(self, seed):
        # U = b/||b|| is V_1, so C = A U lies exactly inside the Krylov image and z
        # is free along it: rgmres must neither break down nor let z grow until x drifts
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((30, 30)) / np.sqrt(30) + 2 * np.eye(30)
        b = rng.standard_normal(30)
        cfg = SolverConfig(8, 1e-8, max_cycles=50)
        res = unproj_solve(a, b, None, (b / np.linalg.norm(b))[:, None], cfg, "rgmres")
        assert res.converged and res.max_drift_gap <= 1e-12
        assert res.matvec_count <= restarted_solve(a, b, None, cfg, "gmres").matvec_count + 1
