import numpy as np
import pytest

from kryrec.arnoldi import arnoldi, as_operator
from kryrec.augmented import (
    AugmentationSpace,
    Constraint,
    apply_complement_projector,
    apply_complement_projector_adjoint,
    assemble_block_system,
    build_augmentation,
    compute_coupling,
    krylov_correction_projected,
    krylov_correction_shifted,
    projected_arnoldi,
    projected_residual,
    solve_block_coupled,
    z_correction,
)
from kryrec.core import SparseMatrix


def well_conditioned(rng, n, complex_values=False):
    m = rng.standard_normal((n, n)) / np.sqrt(n)
    if complex_values:
        m = m + 1j * rng.standard_normal((n, n)) / np.sqrt(n)
    return SparseMatrix.from_dense(m + 2 * np.eye(n))


def make_instance(seed, n=80, k=4, j=10, choice=Constraint.GALERKIN, ortho=False):
    rng = np.random.default_rng(seed)
    a = well_conditioned(rng, n)
    u = rng.standard_normal((n, k))
    r0 = rng.standard_normal(n)
    aug = build_augmentation(a, u, choice, orthonormalize_c=ortho)
    dec = arnoldi(a, r0, j)
    return rng, a, aug, dec, r0


class TestBuildAugmentation:
    def test_identity_single_column(self):
        a = SparseMatrix.identity(3)
        u = np.array([[1.0], [0.0], [0.0]])
        aug = build_augmentation(a, u, Constraint.GALERKIN)
        assert np.allclose(aug.c, u)
        assert aug.small[0, 0] == pytest.approx(1.0)

    def test_orthonormalization_preserves_image(self):
        a = SparseMatrix.diagonal([1.0, 2.0])
        u = np.eye(2)
        aug = build_augmentation(a, u, Constraint.MINRES, orthonormalize_c=True)
        assert aug.c_orthonormal
        assert np.linalg.norm(aug.c.conj().T @ aug.c - np.eye(2)) <= 1e-12
        assert np.linalg.norm(a.to_dense() @ aug.u - aug.c) <= 1e-14

    def test_rank_deficient_basis_rejected(self):
        a = SparseMatrix.identity(4)
        u = np.column_stack([np.ones(4), np.ones(4)])
        with pytest.raises(ValueError, match="augmentation basis"):
            build_augmentation(a, u, Constraint.GALERKIN)

    def test_zero_basis_rejected_before_any_matvec(self):
        op = as_operator(SparseMatrix.diagonal(np.arange(1.0, 6.0)))
        with pytest.raises(ValueError, match="rank-deficient augmentation basis") as exc:
            build_augmentation(op, np.zeros((5, 2)), Constraint.GALERKIN)
        assert not isinstance(exc.value, np.linalg.LinAlgError)
        assert op.matvec_count == 0

    def test_image_annihilated_by_the_operator_rejected(self):
        # A u = 0: the rgmres path must not leak an untyped LinAlgError
        a = SparseMatrix.diagonal([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"rank-deficient augmentation image \(A u\)") as exc:
            build_augmentation(a, np.eye(4)[:, :1], Constraint.MINRES, orthonormalize_c=True)
        assert not isinstance(exc.value, np.linalg.LinAlgError)

    @pytest.mark.parametrize("seed", range(5))
    def test_image_identity_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 50, 5
        a = well_conditioned(rng, n)
        u = rng.standard_normal((n, k))
        aug = build_augmentation(a, u, Constraint.MINRES, orthonormalize_c=True)
        err = np.linalg.norm(a.to_dense() @ aug.u - aug.c)
        scale = a.frobenius_norm() * np.linalg.norm(aug.u)
        assert err <= 1e-12 * scale

    def test_ill_conditioned_test_space_warns(self):
        a = SparseMatrix.identity(4)
        u = np.zeros((4, 2))
        u[0, 0] = 1.0
        u[:, 1] = u[:, 0]
        u[1, 1] = 1e-6  # nearly dependent columns: cond(U*C) ~ 4e12
        with pytest.warns(UserWarning, match="ill-conditioned"):
            build_augmentation(a, u, Constraint.GALERKIN)


class TestComplementProjector:
    @pytest.mark.parametrize("choice,ortho", [(Constraint.GALERKIN, False), (Constraint.MINRES, True)])
    def test_annihilates_image(self, choice, ortho):
        _, _, aug, _, _ = make_instance(0, choice=choice, ortho=ortho)
        rng = np.random.default_rng(1)
        w = rng.standard_normal(aug.k)
        v = aug.c @ w
        out = apply_complement_projector(aug, v)
        assert np.linalg.norm(out) <= 1e-12 * np.linalg.norm(v)

    def test_fixes_orthogonal_complement_of_test_space(self):
        _, _, aug, _, _ = make_instance(2)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(aug.n)
        v -= aug.u_tilde @ np.linalg.lstsq(aug.u_tilde, v, rcond=None)[0]
        out = apply_complement_projector(aug, v)
        assert np.linalg.norm(out - v) <= 1e-10 * np.linalg.norm(v)

    @pytest.mark.parametrize("seed", range(5))
    def test_idempotent(self, seed):
        _, _, aug, _, _ = make_instance(seed)
        rng = np.random.default_rng(seed + 100)
        v = rng.standard_normal(aug.n)
        once = apply_complement_projector(aug, v)
        twice = apply_complement_projector(aug, once)
        assert np.linalg.norm(twice - once) <= 1e-12 * np.linalg.norm(v)

    @pytest.mark.parametrize("seed", range(5))
    def test_result_orthogonal_to_test_space(self, seed):
        _, _, aug, _, _ = make_instance(seed)
        rng = np.random.default_rng(seed + 200)
        v = rng.standard_normal(aug.n)
        out = apply_complement_projector(aug, v)
        assert np.linalg.norm(aug.u_tilde.conj().T @ out) <= 1e-12 * np.linalg.norm(v)

    @pytest.mark.parametrize("seed", range(5))
    def test_adjoint_consistency(self, seed):
        # <(I-P)x, y> == <x, (I-P)*y> for random vectors
        _, _, aug, _, _ = make_instance(seed)
        rng = np.random.default_rng(seed + 300)
        x = rng.standard_normal(aug.n)
        y = rng.standard_normal(aug.n)
        lhs = np.vdot(apply_complement_projector(aug, x), y)
        rhs = np.vdot(x, apply_complement_projector_adjoint(aug, y))
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)

    def test_empty_space_is_identity(self):
        rng = np.random.default_rng(0)
        n, j = 7, 3
        for choice in Constraint:
            for complex_values in (False, True):
                aug = AugmentationSpace.empty(n, choice)
                v = np.arange(n) - 3.0 + (1j * np.arange(n) if complex_values else 0)
                for apply in (apply_complement_projector, apply_complement_projector_adjoint):
                    w = apply(aug, v)
                    assert np.array_equal(w, v) and w is not v
                r_hat, z0 = projected_residual(aug, v)
                assert np.array_equal(r_hat, v) and r_hat is not v and r_hat.dtype == v.dtype
                assert z0.shape == (0,) and z0.dtype == v.dtype
                dec = arnoldi(well_conditioned(rng, n, complex_values), v, j)
                b = compute_coupling(aug, dec.v, dec.hbar)
                assert b.shape == (0, j) and b.dtype == dec.hbar.dtype
                assert np.array_equal(z_correction(aug, np.ones(j), v, b), np.zeros(0))


class TestProjectedResidual:
    def test_residual_orthogonal_to_test_space_passes_through(self):
        _, _, aug, _, _ = make_instance(4)
        rng = np.random.default_rng(5)
        r0 = rng.standard_normal(aug.n)
        r0 -= aug.u_tilde @ np.linalg.lstsq(aug.u_tilde, r0, rcond=None)[0]
        r_hat, z0 = projected_residual(aug, r0)
        assert np.linalg.norm(r_hat - r0) <= 1e-10 * np.linalg.norm(r0)
        assert np.linalg.norm(z0) <= 1e-10 * np.linalg.norm(r0)

    def test_image_residual_fully_removed(self):
        _, _, aug, _, _ = make_instance(6)
        rng = np.random.default_rng(7)
        r0 = aug.c @ rng.standard_normal(aug.k)
        r_hat, _ = projected_residual(aug, r0)
        assert np.linalg.norm(r_hat) <= 1e-12 * np.linalg.norm(r0)

    @pytest.mark.parametrize("seed", range(5))
    def test_paired_solution_shift_consistent(self, seed):
        rng, a, aug, _, r0 = make_instance(seed)
        x0 = rng.standard_normal(aug.n)
        b = a.to_dense() @ x0 + r0  # so that r0 == b - A x0
        r_hat, z0 = projected_residual(aug, r0)
        x_hat = x0 + aug.u @ z0
        assert np.linalg.norm(b - a.to_dense() @ x_hat - r_hat) <= 1e-12 * np.linalg.norm(b)


class TestBlockSystem:
    def test_k_zero_degenerates_to_plain_projection(self):
        rng = np.random.default_rng(0)
        n, j = 30, 5
        a = well_conditioned(rng, n)
        aug = AugmentationSpace.empty(n)
        dec = arnoldi(a, rng.standard_normal(n), j)
        av = a.to_dense() @ dec.basis
        vt = dec.basis
        r0 = rng.standard_normal(n)
        m, rhs = assemble_block_system(aug, av, vt, r0)
        assert m.shape == (j, j)
        assert np.allclose(m, vt.conj().T @ av)
        assert np.allclose(rhs, vt.conj().T @ r0)

    def test_j_zero_degenerates_to_augmentation_block(self):
        _, _, aug, _, r0 = make_instance(1)
        av = np.zeros((aug.n, 0))
        vt = np.zeros((aug.n, 0))
        m, rhs = assemble_block_system(aug, av, vt, r0)
        assert m.shape == (aug.k, aug.k)
        assert np.allclose(m, aug.small)
        assert np.allclose(rhs, aug.u_tilde.conj().T @ r0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_reconstruction(self, seed):
        rng, a, aug, dec, r0 = make_instance(seed)
        ad = a.to_dense()
        av = ad @ dec.basis
        vt = np.linalg.qr(rng.standard_normal((aug.n, dec.j)))[0]
        m, rhs = assemble_block_system(aug, av, vt, r0)
        ut = aug.u_tilde
        m_ref = np.block(
            [
                [ut.conj().T @ ad @ aug.u, ut.conj().T @ av],
                [vt.conj().T @ ad @ aug.u, vt.conj().T @ av],
            ]
        )
        rhs_ref = np.concatenate([ut.conj().T @ r0, vt.conj().T @ r0])
        assert np.linalg.norm(m - m_ref) <= 1e-10 * np.linalg.norm(m_ref)
        assert np.linalg.norm(rhs - rhs_ref) <= 1e-10 * np.linalg.norm(rhs_ref)

    def test_block_diagonal_case_decouples(self):
        # orthogonal U-image and Krylov test spaces: blocks solve separately
        n = 8
        a = SparseMatrix.identity(n)
        u = np.eye(n)[:, :2]
        aug = build_augmentation(a, u, Constraint.GALERKIN)
        vt = np.eye(n)[:, 2:5]
        av = vt.copy()  # A = I
        r0 = np.arange(1.0, n + 1)
        m, rhs = assemble_block_system(aug, av, vt, r0)
        z, y = solve_block_coupled(m, rhs, 2, 3)
        assert np.allclose(z, np.linalg.solve(m[:2, :2], rhs[:2]))
        assert np.allclose(y, np.linalg.solve(m[2:, 2:], rhs[2:]))

    @pytest.mark.parametrize("choice,ortho", [(Constraint.GALERKIN, False), (Constraint.MINRES, True)])
    @pytest.mark.parametrize("seed", range(5))
    def test_coupled_equals_decoupled(self, seed, choice, ortho):
        rng, a, aug, dec, r0 = make_instance(seed, choice=choice, ortho=ortho)
        av = a.to_dense() @ dec.basis
        vt = np.linalg.qr(rng.standard_normal((aug.n, dec.j)))[0]
        m, rhs = assemble_block_system(aug, av, vt, r0)
        z_blk, y_blk = solve_block_coupled(m, rhs, aug.k, dec.j)
        y_dec = krylov_correction_projected(aug, av, vt, r0)
        b = compute_coupling(aug, dec.v, dec.hbar)
        z_dec = z_correction(aug, y_dec, r0, b)
        assert np.linalg.norm(y_blk - y_dec) <= 1e-10 * np.linalg.norm(y_blk)
        assert np.linalg.norm(z_blk - z_dec) <= 1e-10 * max(np.linalg.norm(z_blk), 1e-300)


class TestCoupling:
    def test_zero_when_test_space_orthogonal_to_basis(self):
        n = 10
        a = SparseMatrix.identity(n)
        u = np.eye(n)[:, 8:]
        aug = build_augmentation(a, u, Constraint.GALERKIN)
        # Krylov basis confined to the first 8 coordinates
        v = np.eye(n)[:, :4]
        hbar = np.triu(np.ones((4, 3)), k=-1)
        b = compute_coupling(aug, v, hbar)
        assert np.linalg.norm(b) == 0.0

    def test_one_by_one_hand_value(self):
        a = SparseMatrix.diagonal([2.0, 1.0])
        u = np.array([[1.0], [0.0]])
        aug = build_augmentation(a, u, Constraint.GALERKIN)
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        hbar = np.array([[3.0], [1.0]])
        # small = u* A u = 2; u* V_{2} hbar = 3 ; b = 3/2
        b = compute_coupling(aug, v, hbar)
        assert b.shape == (1, 1)
        assert b[0, 0] == pytest.approx(1.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_extended_relation_split(self, seed):
        # A V_j = C B + residual with residual orthogonal to the test space
        _, a, aug, dec, _ = make_instance(seed)
        b = compute_coupling(aug, dec.v, dec.hbar)
        av = a.to_dense() @ dec.basis
        resid = av - aug.c @ b
        assert (
            np.linalg.norm(aug.u_tilde.conj().T @ resid)
            <= 1e-10 * a.frobenius_norm() * np.linalg.norm(dec.basis)
        )


class TestZCorrection:
    def test_zero_y_reduces_to_initial_coefficients(self):
        _, _, aug, dec, r0 = make_instance(3)
        b = compute_coupling(aug, dec.v, dec.hbar)
        z = z_correction(aug, np.zeros(dec.j), r0, b)
        _, z0 = projected_residual(aug, r0)
        assert np.allclose(z, z0)

    def test_orthogonal_residual_and_zero_y_gives_zero(self):
        _, _, aug, dec, _ = make_instance(4)
        rng = np.random.default_rng(11)
        r0 = rng.standard_normal(aug.n)
        r0 -= aug.u_tilde @ np.linalg.lstsq(aug.u_tilde, r0, rcond=None)[0]
        b = compute_coupling(aug, dec.v, dec.hbar)
        z = z_correction(aug, np.zeros(dec.j), r0, b)
        assert np.linalg.norm(z) <= 1e-10 * np.linalg.norm(r0)


class TestProjectedArnoldi:
    def test_k_zero_matches_plain_arnoldi(self):
        rng = np.random.default_rng(0)
        n = 40
        a = well_conditioned(rng, n)
        r = rng.standard_normal(n)
        aug = AugmentationSpace.empty(n)
        dec_p, b = projected_arnoldi(a, aug, r, 6)
        dec = arnoldi(a, r, 6)
        assert b.shape == (0, 6)
        assert np.array_equal(dec_p.hbar, dec.hbar)
        assert np.array_equal(dec_p.v, dec.v)

    def test_projected_start_vector_in_image_rejected(self):
        from kryrec.arnoldi import ArnoldiBreakdownError

        _, a, aug, _, _ = make_instance(5)
        rng = np.random.default_rng(6)
        v = aug.c @ rng.standard_normal(aug.k)
        r_hat, _ = projected_residual(aug, v)
        # the projection annihilates v up to round-off; a residual that is
        # exactly zero must be rejected as an Arnoldi start
        assert np.linalg.norm(r_hat) <= 1e-12 * np.linalg.norm(v)
        with pytest.raises(ArnoldiBreakdownError):
            projected_arnoldi(a, aug, np.zeros(aug.n), 3)

    @pytest.mark.parametrize("choice,ortho", [(Constraint.GALERKIN, False), (Constraint.MINRES, True)])
    @pytest.mark.parametrize("seed", range(5))
    def test_extended_relation(self, seed, choice, ortho):
        rng = np.random.default_rng(seed)
        n, k, m = 80, 4, 10
        a = well_conditioned(rng, n)
        u = rng.standard_normal((n, k))
        aug = build_augmentation(a, u, choice, orthonormalize_c=ortho)
        r0 = rng.standard_normal(n)
        r_hat, _ = projected_residual(aug, r0)
        dec, b = projected_arnoldi(a, aug, r_hat, m)
        av = a.to_dense() @ dec.basis
        recon = aug.c @ b + dec.v @ dec.hbar[: dec.v.shape[1], :]
        assert np.linalg.norm(av - recon) <= 1e-10 * a.frobenius_norm()

    @pytest.mark.parametrize("seed", range(5))
    def test_full_residual_update_consistency(self, seed):
        # After one projected cycle the cheaply recurred residual equals the
        # true residual of the fully updated iterate.
        rng = np.random.default_rng(seed)
        n, k, m = 60, 3, 8
        a = well_conditioned(rng, n)
        u = rng.standard_normal((n, k))
        aug = build_augmentation(a, u, Constraint.GALERKIN)
        x0 = rng.standard_normal(n)
        b_rhs = rng.standard_normal(n)
        ad = a.to_dense()
        r0 = b_rhs - ad @ x0
        r_hat, z0 = projected_residual(aug, r0)
        dec, bmat = projected_arnoldi(a, aug, r_hat, m)
        # Galerkin step on the projected operator: H_j y = ||r_hat|| e_1
        rhs = np.zeros(dec.j)
        rhs[0] = np.linalg.norm(r_hat)
        y = np.linalg.solve(dec.h, rhs)
        x_j = x0 + aug.u @ z0 + dec.basis @ y - aug.u @ (bmat @ y)
        r_j = r_hat - dec.v @ (dec.hbar[: dec.v.shape[1], :] @ y)
        true_r = b_rhs - ad @ x_j
        assert np.linalg.norm(true_r - r_j) <= 1e-10 * np.linalg.norm(r0)


class TestEquivalenceOracles:
    @pytest.mark.parametrize("choice,ortho", [(Constraint.GALERKIN, False), (Constraint.MINRES, True)])
    @pytest.mark.parametrize("seed", range(8))
    def test_projected_equals_shifted_constraint(self, seed, choice, ortho):
        rng, a, aug, dec, r0 = make_instance(seed, choice=choice, ortho=ortho)
        av = a.to_dense() @ dec.basis
        vt = np.linalg.qr(rng.standard_normal((aug.n, dec.j)))[0]
        y1 = krylov_correction_projected(aug, av, vt, r0)
        y2 = krylov_correction_shifted(aug, av, vt, r0)
        assert np.linalg.norm(y1 - y2) <= 1e-10 * np.linalg.norm(y1)

    def test_complex_instance(self):
        rng = np.random.default_rng(42)
        n, k, j = 40, 3, 6
        a = well_conditioned(rng, n, complex_values=True)
        u = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        aug = build_augmentation(a, u, Constraint.GALERKIN)
        r0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        dec = arnoldi(a, r0, j)
        av = a.to_dense() @ dec.basis
        vt = np.linalg.qr(rng.standard_normal((n, dec.j)) + 1j * rng.standard_normal((n, dec.j)))[0]
        y1 = krylov_correction_projected(aug, av, vt, r0)
        y2 = krylov_correction_shifted(aug, av, vt, r0)
        assert np.linalg.norm(y1 - y2) <= 1e-10 * np.linalg.norm(y1)
