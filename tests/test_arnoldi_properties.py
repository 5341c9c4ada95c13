"""Property tests of the Arnoldi invariants over real and complex inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kryrec.arnoldi import arnoldi, arnoldi_relation_residual


def draw(rng, shape, complex_):
    return rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_ else 0.0)


def graded_operator(rng, n, grade, op_complex, start_complex):
    """A permuted ``blockdiag(S, B)`` with ``S`` a (scaled) cyclic shift of
    size ``grade`` and ``B`` random, and a start vector supported on the
    ``S`` block: its Krylov space has dimension exactly ``grade``, and the
    block structure holds with no rounding."""
    a = np.zeros((n, n), dtype=complex if op_complex else float)
    a[:grade, :grade] = np.roll(np.eye(grade), 1, axis=0) * (np.exp(0.7j) if op_complex else 1.0)
    a[grade:, grade:] = draw(rng, (n - grade, n - grade), op_complex)
    r = np.zeros(n, dtype=complex if start_complex else float)
    r[:grade] = draw(rng, grade, start_complex)
    p = rng.permutation(n)
    return a[np.ix_(p, p)], r[p]


@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    m=st.integers(1, 60),
    extra=st.integers(2, 40),
    op_complex=st.booleans(),
    start_complex=st.booleans(),
    grade=st.one_of(st.none(), st.integers(1, 8)),
    seed=st.integers(0, 2**32 - 1),
)
def test_arnoldi_invariants(m, extra, op_complex, start_complex, grade, seed):
    rng = np.random.default_rng(seed)
    n = m + extra
    if grade is None:
        a, r = draw(rng, (n, n), op_complex), draw(rng, n, start_complex)
    else:
        grade = min(grade, n - 1)
        a, r = graded_operator(rng, n, grade, op_complex, start_complex)
    dec = arnoldi(a, r, m, reorth=True)

    gram = dec.v.conj().T @ dec.v
    assert np.max(np.abs(gram - np.eye(dec.v.shape[1]))) <= 1e-12
    assert arnoldi_relation_residual(dec, a) <= 1e-12 * np.linalg.norm(a)

    if grade is not None and m >= grade:
        assert dec.breakdown == grade
    if dec.breakdown is None:
        assert dec.j == m
        assert dec.v.shape == (n, m + 1) and dec.hbar.shape == (m + 1, m)
    else:
        assert dec.j == dec.breakdown <= m
        assert dec.v.shape == (n, dec.j) and dec.hbar.shape == (dec.j, dec.j)
