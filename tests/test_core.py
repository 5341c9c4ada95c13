import numpy as np
import pytest

from kryrec.core import (
    PIVOT_RTOL,
    DimensionError,
    RankDeficientError,
    SingularMatrixError,
    SparseMatrix,
    dense_lstsq,
    dense_solve,
    small_eig,
    spmv,
)


class TestSparseMatrix:
    def test_identity_matvec(self):
        a = SparseMatrix.identity(3)
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(spmv(a, x), x)

    def test_zero_vector(self):
        a = SparseMatrix.diagonal([1.0, 2.0])
        assert np.array_equal(spmv(a, np.zeros(2)), np.zeros(2))

    def test_hand_multiplication(self):
        # [[2,1],[0,3]] @ (1,1) = (3,3)
        a = SparseMatrix(2, 2, [0, 2, 3], [0, 1, 1], [2.0, 1.0, 3.0])
        assert np.allclose(spmv(a, np.array([1.0, 1.0])), [3.0, 3.0])

    def test_dimension_mismatch(self):
        a = SparseMatrix.identity(3)
        with pytest.raises(DimensionError):
            spmv(a, np.ones(4))

    def test_duplicates_summed(self):
        a = SparseMatrix.from_coo([0, 0], [0, 0], [1.0, 2.0], (1, 1))
        assert a.nnz == 1
        assert a.values[0] == 3.0

    def test_invalid_offsets_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [0, 2, 1], [0, 1, 0], [1.0, 1.0, 1.0])

    def test_column_index_out_of_range(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 1, [0, 1], [5], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 1, [0, 1], [0], [np.nan])

    @pytest.mark.parametrize("seed", range(5))
    def test_matvec_linearity(self, seed):
        rng = np.random.default_rng(seed)
        a = SparseMatrix.from_dense(rng.standard_normal((20, 20)))
        x, y = rng.standard_normal(20), rng.standard_normal(20)
        al, be = rng.standard_normal(2)
        lhs = spmv(a, al * x + be * y)
        rhs = al * spmv(a, x) + be * spmv(a, y)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(lhs), 1.0)

    def test_complex_values(self):
        a = SparseMatrix.from_dense(np.array([[1j, 0], [0, 2]]))
        assert np.allclose(spmv(a, np.array([1.0, 1.0])), [1j, 2.0])

    @pytest.mark.parametrize(
        "offsets,cols",
        [
            ([0.0, 2.5, 3.0], [0, 1, 1]),
            ([0, 2, 3], [0, 1.9, 1]),
            ([0, 2, 3], [True, False, True]),
            ([False, True, True], [0]),
            ([0, 2, 3], [0, np.nan, 1]),
        ],
        ids=["fractional-offsets", "fractional-cols", "bool-cols", "bool-offsets", "nan-cols"],
    )
    def test_non_integer_indices_rejected(self, offsets, cols):
        # a truncating cast would store [0, 2, 3] and [0, 1, 1]
        with pytest.raises(ValueError, match="integer values"):
            SparseMatrix(2, 2, offsets, cols, [2.0, 1.0, 3.0][: len(cols)])

    @pytest.mark.parametrize(
        "rows,cols",
        [([0.0, 1.5], [0, 1]), ([0, 1], [0.5, 1]), ([False, True], [0, 1])],
        ids=["fractional-rows", "fractional-cols", "bool-rows"],
    )
    def test_from_coo_rejects_non_integer_indices(self, rows, cols):
        with pytest.raises(ValueError, match="integer values"):
            SparseMatrix.from_coo(rows, cols, [1.0, 2.0], (2, 2))

    def test_integral_float_and_empty_indices_accepted(self):
        a = SparseMatrix(2, 2, [0.0, 2.0, 3.0], [0.0, 1.0, 1.0], [2.0, 1.0, 3.0])
        assert a.to_dense().tolist() == [[2.0, 1.0], [0.0, 3.0]]
        b = SparseMatrix.from_coo([0.0, 1.0], [1.0, 0.0], [4.0, 5.0], (2, 2))
        assert b.to_dense().tolist() == [[0.0, 4.0], [5.0, 0.0]]
        # the per-line reader passes empty lists for a file without entries
        for empty in (SparseMatrix.from_coo([], [], [], (2, 2)), SparseMatrix(2, 2, [0, 0, 0], [], [])):
            assert empty.nnz == 0 and np.array_equal(spmv(empty, np.ones(2)), np.zeros(2))

    def test_unsigned_offsets_must_not_decrease(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            SparseMatrix(2, 2, np.array([0, 2, 1], np.uint8), [0, 1, 0], [1.0, 1.0, 1.0])

    def test_index_dtype_follows_scipy(self):
        small = SparseMatrix.from_coo([0, 1], [1, 0], [1.0, 2.0], (2, 2))
        assert small.row_offsets.dtype == small.col_indices.dtype == np.int32
        wide = SparseMatrix.from_coo([0], [2**31 + 4], [1.0], (1, 2**31 + 5))
        assert wide.row_offsets.dtype == wide.col_indices.dtype == np.int64
        assert wide.row_offsets.tolist() == [0, 1] and wide.col_indices.tolist() == [2**31 + 4]

    def test_index_arrays_are_the_ones_spmv_reads(self):
        offsets, cols = np.array([0, 2, 3], np.int32), np.array([0, 1, 1], np.int32)
        a = SparseMatrix(2, 2, offsets, cols, [2.0, 1.0, 3.0])
        for stored, given, read in [(a.row_offsets, offsets, a._csr.indptr), (a.col_indices, cols, a._csr.indices)]:
            assert np.shares_memory(stored, given) and np.shares_memory(stored, read)
        wide = SparseMatrix(2, 2, offsets.astype(np.int64), cols.astype(np.int64), [2.0, 1.0, 3.0])
        assert wide.col_indices.dtype == np.int32 and np.shares_memory(wide.col_indices, wide._csr.indices)


class TestDenseSolve:
    def test_identity(self):
        assert np.allclose(dense_solve(np.eye(2), np.array([5.0, 7.0])), [5.0, 7.0])

    def test_diagonal(self):
        m = np.diag([2.0, 4.0])
        assert np.allclose(dense_solve(m, np.array([2.0, 8.0])), [1.0, 2.0])

    def test_constructed_solution(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((8, 8)) + 4 * np.eye(8)
        e = rng.standard_normal(8)
        y = dense_solve(m, m @ e)
        assert np.linalg.norm(y - e) <= 1e-12 * np.linalg.norm(e)

    def test_singular_reports_pivot(self):
        m = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(SingularMatrixError) as exc:
            dense_solve(m, np.ones(2))
        assert exc.value.pivot_index == 1

    def test_zero_matrix_singular(self):
        with pytest.raises(SingularMatrixError):
            dense_solve(np.zeros((2, 2)), np.ones(2))

    def test_pivot_at_the_threshold_is_singular(self):
        # ||m||_F rounds to 1, so the second pivot ties PIVOT_RTOL * ||m||_F
        m = np.diag([1.0, PIVOT_RTOL])
        assert np.linalg.norm(m) == 1.0
        with pytest.raises(SingularMatrixError) as exc:
            dense_solve(m, np.ones(2))
        assert exc.value.pivot_index == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((10, 10)) + 5 * np.eye(10)
        b = rng.standard_normal(10)
        y = dense_solve(m, b)
        assert np.linalg.norm(m @ y - b) <= 1e-10 * np.linalg.norm(b)

    def test_empty(self):
        assert dense_solve(np.zeros((0, 0)), np.zeros(0)).shape == (0,)


class TestDenseLstsq:
    def test_projection_on_first_axis(self):
        m = np.array([[1.0], [0.0]])
        z = dense_lstsq(m, np.array([3.0, 4.0]))
        assert np.allclose(z, [3.0])

    def test_identity_over_zero_row(self):
        m = np.vstack([np.eye(3), np.zeros(3)])
        b = np.array([1.0, 2.0, 3.0, 9.0])
        assert np.allclose(dense_lstsq(m, b), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_normal_equations(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        z = dense_lstsq(m, b)
        z_ne = np.linalg.solve(m.T @ m, m.T @ b)
        assert np.linalg.norm(z - z_ne) <= 1e-10 * np.linalg.norm(z_ne)

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_orthogonal_to_range(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((9, 5))
        b = rng.standard_normal(9)
        z = dense_lstsq(m, b)
        resid = b - m @ z
        assert np.linalg.norm(m.T @ resid) <= 1e-10 * np.linalg.norm(m) * np.linalg.norm(b)

    def test_rank_deficiency_detected(self):
        m = np.ones((4, 2))  # identical columns
        with pytest.raises(RankDeficientError):
            dense_lstsq(m, np.ones(4))

    def test_zero_matrix_is_rank_deficient(self):
        with pytest.raises(RankDeficientError):
            dense_lstsq(np.zeros((3, 2)), np.ones(3))


class TestSmallEig:
    def test_diagonal(self):
        values, vectors = small_eig(np.diag([3.0, 1.0, 2.0]))
        assert sorted(np.real(values)) == pytest.approx([1.0, 2.0, 3.0])
        for i in range(3):
            w = vectors[:, i]
            assert np.linalg.norm(np.diag([3.0, 1.0, 2.0]) @ w - values[i] * w) < 1e-12

    def test_symmetric_pair(self):
        values, _ = small_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert sorted(np.real(values)) == pytest.approx([-1.0, 1.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_residuals_on_random_hessenberg(self, seed):
        rng = np.random.default_rng(seed)
        h = np.triu(rng.standard_normal((10, 10)), k=-1)
        values, vectors = small_eig(h)
        hf = np.linalg.norm(h)
        for i in range(10):
            w = vectors[:, i]
            assert abs(np.linalg.norm(w) - 1.0) < 1e-12
            assert np.linalg.norm(h @ w - values[i] * w) <= 1e-10 * hf

    def test_cap_enforced(self):
        with pytest.raises(DimensionError):
            small_eig(np.eye(513))

    @pytest.mark.parametrize("seed", range(3))
    def test_pencil_residuals(self, seed):
        rng = np.random.default_rng(seed)
        h, b = rng.standard_normal((8, 8)), rng.standard_normal((8, 8)) + 4 * np.eye(8)
        values, vectors = small_eig(h, b)
        for i in range(8):
            w = vectors[:, i]
            assert np.linalg.norm(h @ w - values[i] * (b @ w)) <= 1e-10 * np.linalg.norm(h)

    def test_pencil_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            small_eig(np.eye(3), np.eye(2))
