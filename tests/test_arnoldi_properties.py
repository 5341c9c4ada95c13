"""Property tests of the Arnoldi invariants over real and complex inputs."""

import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kryrec.arnoldi import arnoldi, arnoldi_relation_residual
from kryrec.baseline import SolverConfig, restarted_solve
from kryrec.unprojected import unproj_solve
from test_arnoldi import full_update_arnoldi


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


def hermitian_operator(rng, n, complex_, definite):
    """``Q diag(lam) Q*`` with ``|lam|`` in [1, 10]: both signs unless ``definite``."""
    q, _ = np.linalg.qr(draw(rng, (n, n), complex_))
    lam = rng.uniform(1.0, 10.0, n) * (1.0 if definite else rng.choice([-1.0, 1.0], n))
    a = (q * lam) @ q.conj().T
    return (a + a.conj().T) / 2  # Hermitian to the last bit


def run_with_step(solve, step):
    """``solve()`` with ``step`` as the cycles' Arnoldi process, and the
    categories of the warnings it gave."""
    with mock.patch("kryrec.baseline.arnoldi", step), warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        return solve(), [w.category for w in seen]


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    n=st.integers(20, 60),
    m=st.integers(3, 12),
    k=st.integers(0, 4),
    complex_=st.booleans(),
    definite=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_hermitian_solves_match_the_full_update(n, m, k, complex_, definite, seed):
    # every solver over Hermitian draws, where the three-term update applies,
    # against the same solver over the full-update reference step
    rng = np.random.default_rng(seed)
    a, b, u = hermitian_operator(rng, n, complex_, definite), draw(rng, n, complex_), draw(rng, (n, k), complex_)
    cfg = SolverConfig(m, 1e-8, max_cycles=20)
    solves = [lambda method=method: restarted_solve(a, b, None, cfg, method) for method in ("fom", "gmres")]
    solves += [lambda method=method: unproj_solve(a, b, None, u, cfg, method) for method in ("rfom", "rgmres")]
    for solve in solves:
        (res, warned), (ref, warned_ref) = run_with_step(solve, arnoldi), run_with_step(solve, full_update_arnoldi)
        # a FOM solve on an indefinite draw can diverge, and warn of drift: both alike
        assert warned == warned_ref
        assert res.matvec_count == ref.matvec_count and res.cycles_used == ref.cycles_used
        assert res.stop_reason == ref.stop_reason
        # a diverging Galerkin solve amplifies its rounding every cycle, so the
        # iterates are compared where the reference converged
        if ref.converged:
            assert np.linalg.norm(res.x - ref.x) <= 1e-10 * np.linalg.norm(ref.x)
