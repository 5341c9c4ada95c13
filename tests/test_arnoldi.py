import numpy as np
import pytest

from kryrec.arnoldi import (
    ORTH_RTOL,
    ArnoldiBreakdownError,
    OperatorHandle,
    arnoldi,
    arnoldi_relation_residual,
    as_operator,
)
from kryrec.core import DimensionError, SparseMatrix
from test_acceptance import sparse_random


def random_sparse(rng, n, shift=0.0):
    return SparseMatrix.from_dense(rng.standard_normal((n, n)) + shift * np.eye(n))


def test_identity_breaks_down_at_step_one():
    r = np.array([2.0, 1.0, 2.0]) / 3.0
    dec = arnoldi(SparseMatrix.identity(3), r, 3)
    assert dec.breakdown == 1
    assert dec.j == 1
    assert dec.v.shape == (3, 1)
    assert np.allclose(dec.hbar, [[1.0], [0.0]])
    assert np.allclose(dec.v[:, 0], r)


def test_start_vector_in_the_null_space_breaks_down_at_step_one():
    # A v_1 = 0: the operator scale is zero, and the zero product is a breakdown
    dec = arnoldi(SparseMatrix.diagonal([0.0, 1.0, 2.0]), np.array([1.0, 0.0, 0.0]), 3)
    assert dec.j == dec.breakdown == 1
    assert np.array_equal(dec.hbar, np.zeros((2, 1)))


def test_two_by_two_hand_values():
    a = SparseMatrix.diagonal([1.0, 2.0])
    r = np.array([1.0, 1.0]) / np.sqrt(2)
    dec = arnoldi(a, r, 2)
    assert dec.hbar[0, 0] == pytest.approx(1.5)
    assert dec.hbar[1, 0] == pytest.approx(0.5)
    assert dec.hbar[0, 1] == pytest.approx(0.5)
    assert dec.hbar[1, 1] == pytest.approx(1.5)
    # grade 2: the process terminates exactly
    assert dec.breakdown == 2


@pytest.mark.parametrize("seed", range(10))
def test_orthonormality_and_relation(seed):
    rng = np.random.default_rng(seed)
    n, m = 100, 20
    a = random_sparse(rng, n)
    r = rng.standard_normal(n)
    dec = arnoldi(a, r, m)
    gram = dec.v.conj().T @ dec.v
    assert np.max(np.abs(gram - np.eye(dec.v.shape[1]))) <= 1e-12
    assert arnoldi_relation_residual(dec, a) <= 1e-12 * a.frobenius_norm()


@pytest.mark.parametrize("seed", range(5))
def test_orthonormality_without_reorth(seed):
    rng = np.random.default_rng(seed)
    n, m = 200, 50
    a = random_sparse(rng, n)
    dec = arnoldi(a, rng.standard_normal(n), m, reorth=False)
    gram = dec.v.conj().T @ dec.v
    assert np.max(np.abs(gram - np.eye(dec.v.shape[1]))) <= 1e-8


def test_no_correction_gives_the_single_pass():
    # a well-separated spectrum and a short cycle: V_j* v_{j+1}, which is each
    # step's second projection over ||w|| up to rounding, stays far below
    # ORTH_RTOL, so no update is applied and the result is the single pass's
    a = SparseMatrix.diagonal(np.arange(1.0, 51.0))
    single = arnoldi(a, np.ones(50), 6, reorth=False)
    assert np.max(np.abs(single.v.T @ single.v - np.eye(7))) <= 0.1 * ORTH_RTOL
    dec = arnoldi(a, np.ones(50), 6, reorth=True)
    assert np.array_equal(dec.v, single.v)
    assert np.array_equal(dec.hbar, single.hbar)


@pytest.mark.parametrize("seed", range(10))
def test_loss_stays_within_orth_rtol(seed):
    # the operators and start vectors of acceptance criterion 7
    rng = np.random.default_rng(seed)
    a = sparse_random(rng, 120)
    dec = arnoldi(a, rng.standard_normal(120), 24, reorth=True)
    assert np.max(np.abs(dec.v.T @ dec.v - np.eye(dec.v.shape[1]))) <= 2 * ORTH_RTOL


def near_grade_operator(rng, complex_):
    """n=400 normal operator with 8 eigenvalue clusters of width 1e-4 down to
    1e-10: after about 8 steps each new Krylov vector is nearly in the span
    of the previous ones, where a single Gram-Schmidt pass loses
    orthogonality."""
    n, clusters = 400, 8
    widths = np.logspace(-4, -10, clusters)
    centres = np.arange(1, clusters + 1) * (np.exp(0.25j * np.arange(clusters)) if complex_ else 1.0)
    lam = np.concatenate([c + w * np.linspace(0.0, 1.0, n // clusters) for c, w in zip(centres, widths)])
    g = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_ else 0.0)
    q, _ = np.linalg.qr(g)
    r = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_ else 0.0)
    return (q * lam) @ q.conj().T, r


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_near_grade_spectrum_keeps_orthogonality(complex_):
    a, r = near_grade_operator(np.random.default_rng(0), complex_)
    dec = arnoldi(a, r, 40, reorth=True)
    assert dec.j == 40
    gram = dec.v.conj().T @ dec.v
    assert np.max(np.abs(gram - np.eye(dec.v.shape[1]))) <= 1e-12
    assert arnoldi_relation_residual(dec, a) <= 1e-12 * np.linalg.norm(a)
    # the second update is applied here: the result is not the single pass's
    assert not np.array_equal(dec.v, arnoldi(a, r, 40, reorth=False).v)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("kind", ["reused-buffer", "input-view"])
def test_operator_output_aliasing_is_harmless(kind, complex_):
    # the new vector is updated in place: neither a buffer the operator hands
    # back on every call nor a view of the basis row it was given may be
    # written through
    rng = np.random.default_rng(6)
    n = 50
    dense = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_ else 0.0)
    r = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_ else 0.0)
    if kind == "reused-buffer":
        buf = np.empty(n, dtype=dense.dtype)

        def aliased(v):
            buf[:] = dense @ v
            return buf

        def fresh(v):
            return dense @ v

    else:

        def aliased(v):
            return v[::-1]

        def fresh(v):
            return v[::-1].copy()

    dec = arnoldi(OperatorHandle(n, aliased), r, 20)
    ref = arnoldi(OperatorHandle(n, fresh), r, 20)
    assert np.array_equal(dec.v, ref.v)
    assert np.array_equal(dec.hbar, ref.hbar)


def test_grade_detection_on_constructed_operator():
    # minimal polynomial degree 3 w.r.t. a vector touching 3 eigenspaces
    a = SparseMatrix.diagonal([1.0, 2.0, 3.0, 3.0])
    r = np.array([1.0, 1.0, 1.0, 0.0])
    dec = arnoldi(a, r, 4)
    assert dec.breakdown == 3
    assert np.all(dec.hbar[-1, :] == 0.0)


def test_zero_start_vector_rejected():
    with pytest.raises(ArnoldiBreakdownError):
        arnoldi(SparseMatrix.identity(2), np.zeros(2), 2)


def test_bad_cycle_length_rejected():
    with pytest.raises(ValueError):
        arnoldi(SparseMatrix.identity(2), np.ones(2), 0)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionError):
        arnoldi(SparseMatrix.identity(3), np.ones(2), 2)


def test_complex_operator():
    rng = np.random.default_rng(3)
    n = 30
    dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = SparseMatrix.from_dense(dense)
    dec = arnoldi(a, rng.standard_normal(n), 8)
    gram = dec.v.conj().T @ dec.v
    assert np.max(np.abs(gram - np.eye(dec.v.shape[1]))) <= 1e-12
    assert arnoldi_relation_residual(dec, a) <= 1e-12 * a.frobenius_norm()


class TestRelationResidual:
    def test_valid_decomposition_is_tiny(self):
        rng = np.random.default_rng(0)
        a = random_sparse(rng, 40)
        dec = arnoldi(a, rng.standard_normal(40), 10)
        assert arnoldi_relation_residual(dec, a) <= 1e-12 * a.frobenius_norm()

    def test_zeroed_hessenberg_gives_av_norm(self):
        rng = np.random.default_rng(1)
        a = random_sparse(rng, 40)
        dec = arnoldi(a, rng.standard_normal(40), 6)
        dec.hbar[:] = 0.0
        av = np.column_stack([a.to_dense() @ dec.basis[:, i] for i in range(dec.j)])
        assert arnoldi_relation_residual(dec, a) == pytest.approx(np.linalg.norm(av))

    def test_perturbation_shows_up_linearly(self):
        rng = np.random.default_rng(2)
        a = random_sparse(rng, 40)
        dec = arnoldi(a, rng.standard_normal(40), 6)
        delta = 1e-3
        dec.hbar[2, 3] += delta
        assert arnoldi_relation_residual(dec, a) == pytest.approx(delta, rel=1e-6)


class TestOperatorHandle:
    def test_counts_applications(self):
        a = SparseMatrix.identity(4)
        op = as_operator(a)
        op(np.ones(4))
        op(np.ones(4))
        assert op.matvec_count == 2

    def test_callable_wrapper(self):
        op = OperatorHandle(3, lambda v: 2.0 * v)
        dec = arnoldi(op, np.array([1.0, 0.0, 0.0]), 3)
        assert dec.breakdown == 1
        assert dec.hbar[0, 0] == pytest.approx(2.0)

    def test_as_operator_passthrough(self):
        op = OperatorHandle(2, lambda v: v)
        assert as_operator(op) is op

    def test_wrapped_apply_is_linear(self):
        # spot check, not enforced at runtime
        rng = np.random.default_rng(0)
        op = as_operator(random_sparse(rng, 20))
        x, y = rng.standard_normal(20), rng.standard_normal(20)
        assert np.allclose(op(x + 2.0 * y), op(x) + 2.0 * op(y))
