import numpy as np
import pytest

from kryrec.arnoldi import ArnoldiDecomposition, arnoldi, as_operator
from kryrec.augmented import Constraint
from kryrec.baseline import SolverConfig
from kryrec.core import SparseMatrix
from kryrec.io import tridiagonal_matrix
from kryrec.recycling import (
    RecycleSpec,
    RefreshPolicy,
    Selection,
    extract_ritz,
    per_cycle_recycler,
    refresh,
)


def full_grade_decomposition():
    # Arnoldi run to the full grade of (A, r): Ritz pairs become exact
    a = SparseMatrix.diagonal(np.arange(1.0, 11.0))
    r = np.ones(10)
    return a, arnoldi(a, r, 10)


class TestExtractRitz:
    def test_exact_grade_recovers_spectrum(self):
        a, dec = full_grade_decomposition()
        pairs = extract_ritz(dec, 10)
        assert np.allclose(np.sort(pairs.values.real), np.arange(1.0, 11.0), atol=1e-10)
        assert np.max(pairs.residuals) <= 1e-10

    def test_smallest_magnitude_selection(self):
        a, dec = full_grade_decomposition()
        pairs = extract_ritz(dec, 3, Selection.SMALLEST_MAGNITUDE)
        assert np.allclose(np.sort(pairs.values.real), [1.0, 2.0, 3.0], atol=1e-9)
        ad = a.to_dense()
        for i in range(3):
            v = pairs.vectors[:, i]
            theta = pairs.values[i]
            assert np.linalg.norm(ad @ v - theta * v) <= 1e-9 * np.linalg.norm(ad)

    def test_smallest_real_selection(self):
        a = SparseMatrix.diagonal([-3.0, 5.0, 1.0, -1.0])
        dec = arnoldi(a, np.ones(4), 4)
        pairs = extract_ritz(dec, 2, Selection.SMALLEST_REAL)
        assert np.allclose(np.sort(pairs.values.real), [-3.0, -1.0], atol=1e-9)

    def test_k_zero_empty(self):
        _, dec = full_grade_decomposition()
        pairs = extract_ritz(dec, 0)
        assert pairs.vectors.shape == (10, 0)

    def test_k_full_spans_basis(self):
        _, dec = full_grade_decomposition()
        pairs = extract_ritz(dec, dec.j)
        # selected vectors span exactly the Krylov space
        q = np.linalg.qr(dec.basis)[0]
        proj = pairs.vectors - q @ (q.conj().T @ pairs.vectors)
        assert np.linalg.norm(proj) <= 1e-9
        assert np.linalg.matrix_rank(pairs.vectors) == dec.j

    def test_k_too_large_rejected(self):
        _, dec = full_grade_decomposition()
        with pytest.raises(ValueError):
            extract_ritz(dec, 11)

    def test_residual_formula_matches_direct_computation(self):
        rng = np.random.default_rng(0)
        n, m = 50, 12
        a = SparseMatrix.from_dense(rng.standard_normal((n, n)) / np.sqrt(n) + 2 * np.eye(n))
        dec = arnoldi(a, rng.standard_normal(n), m)
        pairs = extract_ritz(dec, 4)
        ad = a.to_dense()
        # the complex Ritz vectors lifted from H; a real column of a conjugate
        # pair reports the residual of its pair's complex vector
        values, w = np.linalg.eig(dec.h)
        for i in range(4):
            z = dec.basis @ w[:, np.argmin(np.abs(values - pairs.values[i]))]
            direct = np.linalg.norm(ad @ z - pairs.values[i] * z) / np.linalg.norm(z)
            assert direct == pytest.approx(pairs.residuals[i], abs=1e-10)

    def test_determinism(self):
        _, dec = full_grade_decomposition()
        p1 = extract_ritz(dec, 5)
        p2 = extract_ritz(dec, 5)
        assert np.array_equal(p1.vectors, p2.vectors)
        assert np.array_equal(p1.values, p2.values)

    @pytest.mark.parametrize("choice", list(Constraint))
    def test_space_over_a_lucky_breakdown(self, choice):
        from kryrec.augmented import build_augmentation

        # four distinct eigenvalues: Arnoldi breaks down at step 4, so V has
        # no (j+1)-th column
        a = SparseMatrix.diagonal(np.repeat([1.0, 2.0, 3.0, 5.0], 5))
        dec = arnoldi(a, np.ones(20), 10)
        assert dec.breakdown == 4 and dec.v.shape == (20, 4)
        u = np.random.default_rng(0).standard_normal((20, 3))
        aug = build_augmentation(a, u, choice, orthonormalize_c=choice is Constraint.MINRES)
        pairs = extract_ritz(dec, 5, Selection.SMALLEST_MAGNITUDE, aug, choice)
        assert np.linalg.norm(a.to_dense() @ pairs.vectors - pairs.images) <= 1e-12 * a.frobenius_norm()
        # the Krylov space is invariant, so its smallest eigenpairs are exact
        assert np.allclose(pairs.values[:2], [1.0, 2.0], atol=1e-12)
        assert np.max(pairs.residuals[:2]) <= 1e-12

    def test_magnitude_ties_broken_by_real_then_imaginary_part(self):
        from kryrec.recycling import _selection_order

        values = np.array([1.0 + 0j, -1.0 + 0j, 1j, -1j, 0.5 + 0j])
        order = _selection_order(values, Selection.SMALLEST_MAGNITUDE)
        # 0.5 first; among the unit-magnitude ties: real part -1, then the
        # real-0 pair ordered by imaginary part, then +1
        assert list(values[order]) == [0.5 + 0j, -1.0 + 0j, -1j, 1j, 1.0 + 0j]

    def test_infinite_harmonic_values_left_out(self):
        # H = [[0]] is singular, so the harmonic pencil's only value is infinite
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        dec = arnoldi(a, np.array([1.0, 0.0]), 1)
        with pytest.warns(UserWarning, match="supports only 0 of 1 requested Ritz vectors") as record:
            pairs = extract_ritz(dec, 1, choice=Constraint.MINRES)
        assert pairs.vectors.shape == (2, 0) and pairs.values.shape == (0,)
        with pytest.warns(UserWarning, match="supports only 0 of 1 requested Ritz vectors") as more:
            aug = refresh(a, None, dec, RecycleSpec(k=1), Constraint.MINRES)
        assert aug.k == 0
        # no numpy warning escapes alongside the selection's own
        assert [w.category for w in record.list + more.list] == [UserWarning, UserWarning]


class TestRefresh:
    def test_frozen_returns_old_space(self):
        from kryrec.augmented import build_augmentation

        a = SparseMatrix.diagonal(np.arange(1.0, 11.0))
        old = build_augmentation(a, np.eye(10)[:, :2], Constraint.GALERKIN)
        spec = RecycleSpec(k=2)
        op = as_operator(a)
        before = op.matvec_count
        out = refresh(op, old, None, spec, Constraint.GALERKIN)
        assert out is old
        assert op.matvec_count == before

    def test_per_system_rebuilds_image_against_new_operator(self):
        a0 = SparseMatrix.diagonal(np.arange(1.0, 11.0))
        dec = arnoldi(a0, np.ones(10), 10)
        a1 = SparseMatrix.diagonal(np.arange(1.0, 11.0) + 0.5)
        spec = RecycleSpec(k=3)
        aug = refresh(a1, None, dec, spec, Constraint.GALERKIN)
        err = np.linalg.norm(a1.to_dense() @ aug.u - aug.c)
        assert err <= 1e-12 * a1.frobenius_norm() * np.linalg.norm(aug.u)

    def test_recycling_reduces_iterations_on_shifted_family(self):
        from kryrec.baseline import SolverConfig
        from kryrec.unprojected import unproj_solve

        rng = np.random.default_rng(7)
        n = 300
        # SPD with a handful of small outlying eigenvalues
        diag = np.concatenate([np.array([1e-3, 2e-3, 3e-3, 4e-3, 5e-3]), rng.uniform(1.0, 4.0, n - 5)])
        a0 = SparseMatrix.diagonal(diag)
        a1 = SparseMatrix.diagonal(diag + 1e-4)
        b = rng.standard_normal(n)
        b /= np.linalg.norm(b)
        cfg = SolverConfig(20, 1e-8, max_cycles=300, tol_mode="abs")

        cold = unproj_solve(a1, b, None, None, cfg, "rfom")
        first = unproj_solve(a0, b, None, None, cfg, "rfom")
        aug = refresh(a1, None, first.final_decomposition, RecycleSpec(k=5), Constraint.GALERKIN)
        warm = unproj_solve(a1, b, None, aug, cfg, "rfom")
        assert cold.converged and warm.converged
        assert warm.cycles_used < cold.cycles_used

    def test_k_clamped_with_warning(self):
        a = SparseMatrix.diagonal(np.arange(1.0, 11.0))
        dec = arnoldi(a, np.ones(10), 4)
        with pytest.warns(UserWarning, match="Ritz vectors"):
            aug = refresh(a, None, dec, RecycleSpec(k=9), Constraint.GALERKIN)
        assert aug.k == 4

    def test_dependent_ritz_vectors_dropped_with_warning(self):
        # a 2x2 Jordan block: both Ritz vectors are the same basis column
        v = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 3)))[0]
        dec = ArnoldiDecomposition(v=v, hbar=np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.5]]), j=2)
        a = SparseMatrix.diagonal(np.arange(1.0, 7.0))
        with pytest.warns(UserWarning, match="dropping 1 dependent Ritz vectors"):
            aug = refresh(a, None, dec, RecycleSpec(k=2), Constraint.GALERKIN)
        assert aug.k == 1


class TestPerCycleRecycler:
    def test_noop_unless_per_cycle(self):
        cb = per_cycle_recycler(RecycleSpec(k=2, refresh_policy=RefreshPolicy.PER_SYSTEM), Constraint.GALERKIN)
        assert cb(None, None, None) is None

    def test_rebuilds_each_cycle(self):
        a = SparseMatrix.diagonal(np.arange(1.0, 21.0))
        dec = arnoldi(a, np.ones(20), 8)
        cb = per_cycle_recycler(RecycleSpec(k=3, refresh_policy=RefreshPolicy.PER_CYCLE), Constraint.GALERKIN)
        op = as_operator(a)
        aug = cb(op, None, dec)
        assert aug is not None and aug.k == 3
        # the image comes from the Arnoldi relation, not from the operator
        assert op.matvec_count == 0
        assert np.linalg.norm(a.to_dense() @ aug.u - aug.c) <= 1e-12 * a.frobenius_norm()


class TestRealOperator:
    @pytest.mark.parametrize("method", ["rfom", "rgmres"])
    def test_conjugate_pairs_keep_the_recycled_space_real(self, method):
        from kryrec.unprojected import unproj_solve

        # a real nonsymmetric operator whose smallest Ritz values come in
        # conjugate pairs
        a = tridiagonal_matrix(400, -1.3, 2.0, -0.7)
        b = np.random.default_rng(0).standard_normal(400)
        cfg = SolverConfig(20, 1e-8, max_cycles=500)
        choice = Constraint.GALERKIN if method == "rfom" else Constraint.MINRES
        ortho = method == "rgmres"
        first = unproj_solve(a, b, None, None, cfg, method)
        pairs = extract_ritz(first.final_decomposition, 6, Selection.SMALLEST_MAGNITUDE, None, choice)
        assert np.count_nonzero(pairs.values.imag) >= 2
        assert pairs.vectors.dtype == pairs.images.dtype == np.float64

        aug = refresh(a, None, first.final_decomposition, RecycleSpec(k=6), choice, ortho)
        res = unproj_solve(a, b, None, aug, cfg, method)
        assert res.converged
        assert aug.u.dtype == aug.c.dtype == res.x.dtype == np.float64

        spaces = []
        recycler = per_cycle_recycler(RecycleSpec(k=6, refresh_policy=RefreshPolicy.PER_CYCLE), choice, ortho)

        def recording(op, aug, dec):
            spaces.append(recycler(op, aug, dec))
            return spaces[-1]

        res = unproj_solve(a, b, None, None, cfg, method, recycler=recording)
        assert res.converged and spaces
        assert all(s.u.dtype == s.c.dtype == np.float64 for s in spaces)
        assert res.x.dtype == np.float64
