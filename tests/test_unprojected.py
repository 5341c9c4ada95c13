import warnings

import numpy as np
import pytest

from kryrec.arnoldi import as_operator
from kryrec.augmented import (
    Constraint,
    assemble_block_system,
    build_augmentation,
    solve_block_coupled,
    z_correction,
)
from kryrec.baseline import SolverConfig, gmres_cycle, restarted_solve
from kryrec.core import SparseMatrix
from kryrec.io import tridiagonal_matrix
from kryrec.unprojected import (
    AugmentedSolveResult,
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
    aug = build_augmentation(a, u, Constraint.MINRES, orthonormalize_c=True)
    return a, aug, r0


def singular_hessenberg_system():
    a = SparseMatrix.from_dense(
        np.array(
            [[2.0, -1.0, 0.0, -1.0], [1.0, -0.5, 0.0, 0.0], [0.0, 1.0, 1.0, -2.0], [0.0, 0.0, 1.0, 2.0]]
        )
    )
    return a, np.eye(4)[0]


def cycle_residual(aug, dec, y, z, r0):
    """Recompute the post-cycle residual vector from its definition."""
    r = r0 - dec.v @ (dec.hbar[: dec.v.shape[1], :] @ y)
    if aug.k:
        r = r - aug.c @ z
    return r


class TestRfomCycle:
    def test_k_zero_matches_plain_fom(self):
        from kryrec.augmented import AugmentationSpace
        from kryrec.baseline import fom_cycle

        rng = np.random.default_rng(0)
        a = well_conditioned(rng, 40)
        r0 = rng.standard_normal(40)
        aug = AugmentationSpace.empty(40)
        y, z, dec, b = unproj_rfom_cycle(a, aug, r0, 6)
        y_ref, dec_ref = fom_cycle(a, r0, 6)
        assert z.shape == (0,)
        assert b.shape == (0, 6)
        assert np.array_equal(y, y_ref)
        assert np.array_equal(dec.hbar, dec_ref.hbar)

    def test_k_zero_singular_hessenberg_solved_at_smaller_size(self):
        from kryrec.augmented import AugmentationSpace
        from kryrec.baseline import fom_cycle

        a, e1 = singular_hessenberg_system()
        y_ref, dec_ref = fom_cycle(a, e1, 2)
        assert dec_ref.j == 2 and len(y_ref) == 1
        y, z, dec, b = unproj_rfom_cycle(a, AugmentationSpace.empty(4), e1, 2)
        assert np.array_equal(y, y_ref)

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
        from kryrec.augmented import AugmentationSpace

        rng = np.random.default_rng(0)
        a = well_conditioned(rng, 40)
        r0 = rng.standard_normal(40)
        aug = AugmentationSpace.empty(40, Constraint.MINRES)
        y, z, dec, b = unproj_rgmres_cycle(a, aug, r0, 6)
        y_ref, _ = gmres_cycle(a, r0, 6)
        assert np.array_equal(y, y_ref)

    def test_image_orthogonal_to_krylov_space(self):
        # image columns orthogonal to the whole Krylov span: the reduced
        # system collapses to plain GMRES normal equations
        n = 12
        a = SparseMatrix.diagonal(np.arange(1.0, n + 1))
        u = np.eye(n)[:, 10:]
        aug = build_augmentation(a, u, Constraint.MINRES, orthonormalize_c=True)
        r0 = np.zeros(n)
        r0[:6] = np.random.default_rng(2).standard_normal(6)
        y, z, dec, b = unproj_rgmres_cycle(a, aug, r0, 4)
        rhs = np.zeros(dec.j + 1)
        rhs[0] = np.linalg.norm(r0)
        hb = dec.hbar
        y_plain = np.linalg.solve(hb.conj().T @ hb, hb.conj().T @ rhs)
        assert np.linalg.norm(y - y_plain) <= 1e-10 * np.linalg.norm(y_plain)

    def test_rank_deficient_problem_raises(self):
        # A e1 = e1 ends Arnoldi after one step, and C = e1 repeats its only
        # column, so the least-squares matrix has an exactly zero pivot
        from kryrec.core import RankDeficientError

        a = SparseMatrix.diagonal(np.arange(1.0, 7.0))
        e1 = np.eye(6)[0]
        aug = build_augmentation(a, e1[:, None], Constraint.MINRES, orthonormalize_c=True)
        with pytest.raises(RankDeficientError):
            unproj_rgmres_cycle(a, aug, e1, 4)

    def test_requires_orthonormal_image(self):
        a, aug, r0 = rfom_instance(0)  # Galerkin, not orthonormalized
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
        y_g, dec_g = gmres_cycle(a, r0, 8)
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
        aug = build_augmentation(a, u, Constraint.MINRES, orthonormalize_c=True)
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
    @pytest.mark.parametrize("system", ["tridiagonal", "singular_hessenberg"])
    def test_k_zero_equals_baseline_in_every_field(self, system, method, base):
        if system == "tridiagonal":
            a = tridiagonal_matrix(200)
            b = np.random.default_rng(5).standard_normal(200)
            b /= np.linalg.norm(b)
            cfg = SolverConfig(20, 1e-8, max_cycles=40, tol_mode="abs")
        else:
            # H_2 of the first cycle is exactly singular: FOM solves at size 1
            a, b = singular_hessenberg_system()
            cfg = SolverConfig(2, 1e-10, max_cycles=50)
        res_aug = unproj_solve(a, b, None, None, cfg, method)
        res_base = restarted_solve(a, b, None, cfg, base)
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
        assert isinstance(res, AugmentedSolveResult)
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
