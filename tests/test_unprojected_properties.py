"""Property tests of the unprojected augmented cycle over real and complex
inputs, augmentation sizes ``k`` and cycle lengths ``m``."""

import itertools
import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kryrec.arnoldi import arnoldi
from kryrec.augmented import AugmentationSpace, Constraint, build_augmentation, compute_coupling
from kryrec.baseline import SolverConfig, _ResidualMonitor
from kryrec.unprojected import unproj_rfom_cycle, unproj_rgmres_cycle, unproj_solve

# Bounds relative to ||r0||. Over 4,000 seeded draws of ``cycle_instance``
# the largest values seen were 1.7e-15 (Galerkin) and 5.2e-15 (minimum
# residual), so the bounds leave a margin of about 200.
GALERKIN_RTOL = 1e-12
MINRES_RTOL = 1e-12
# rgmres against the dense minimum when the image C lies near the Krylov image,
# relative to ||r0||. The largest gap over the draws below is 5.4e-11, at
# eps = 1e-7, where P = C* C - D* D resolves C's part outside V_{m+1} no better
# than its rounding. Over 420 draws at n = 300, m = 20 and seven eps from 1e-5
# to 0 the largest gap was 1.4e-12.
NEAR_KRYLOV_RTOL = 1e-10
# A k = 0 cycle's y against the dense FOM and GMRES solves, relative to their
# norm. Over 2,000 seeded k = 0 draws of ``cycle_instance`` the largest gaps were
# 1.2e-15 (Galerkin) and 7.7e-15 (least squares).
REFERENCE_RTOL = 1e-10
# The cycle's D, E, P and coupling against the dense products, relative to
# the size of what they are formed from; over 3,000 seeded draws of the test
# below the largest gap was 8.6e-16.
PROJECTION_RTOL = 1e-13


def draw(rng, shape, complex_):
    return rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_ else 0.0)


def cycle_instance(method, k, m, extra, complex_, seed):
    """A well-conditioned dense operator of size ``m + k + extra``, a random
    residual and a random unit-column augmentation basis, run through one
    cycle. Returns ``(a, aug, r0, (y, z, dec, coupling))``."""
    rng = np.random.default_rng(seed)
    n = m + k + extra
    a = draw(rng, (n, n), complex_) / np.sqrt(2 * n if complex_ else n) + 2 * np.eye(n)
    r0 = draw(rng, n, complex_)
    choice = Constraint.GALERKIN if method == "rfom" else Constraint.MINRES
    if k == 0:
        aug = AugmentationSpace.empty(n, choice)
    else:
        u = draw(rng, (n, k), complex_)
        u /= np.linalg.norm(u, axis=0)
        aug = build_augmentation(a, u, choice)
    cycle = unproj_rfom_cycle if method == "rfom" else unproj_rgmres_cycle
    return a, aug, r0, cycle(a, aug, r0, m)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    method=st.sampled_from(["rfom", "rgmres"]),
    k=st.integers(0, 12),
    m=st.integers(1, 60),
    extra=st.integers(1, 20),
    complex_=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_augmented_cycle(method, k, m, extra, complex_, seed):
    a, aug, r0, (y, z, dec, coupling) = cycle_instance(method, k, m, extra, complex_, seed)
    if k == 0:
        # plain FOM's explicit Galerkin solve and plain GMRES's dense least squares at
        # len(y), over the basis a plain Arnoldi run builds
        assert np.array_equal(dec.hbar, arnoldi(a, r0, m).hbar)
        v = dec.v[:, : len(y)]
        if method == "rfom":
            y_ref = np.linalg.solve(v.conj().T @ a @ v, v.conj().T @ r0)
        else:
            y_ref = np.linalg.lstsq(a @ v, r0, rcond=None)[0]
        assert np.linalg.norm(y - y_ref) <= REFERENCE_RTOL * np.linalg.norm(y_ref)
    assert coupling.shape == (k, len(y))

    scale = np.linalg.norm(r0)
    r_new = r0 - a @ (dec.v[:, : len(y)] @ y + aug.u @ z)
    if method == "rfom":
        # Galerkin: the new residual is orthogonal to V_i and to U
        assert np.linalg.norm(dec.v[:, : len(y)].conj().T @ r_new) <= GALERKIN_RTOL * scale
        assert np.linalg.norm(aug.u.conj().T @ r_new) <= GALERKIN_RTOL * scale
    else:
        # minimum residual over span(A V_j, C), against a dense lstsq
        cols = np.column_stack([aug.c, a @ dec.basis])
        w, *_ = np.linalg.lstsq(cols, r0, rcond=None)
        brute = np.linalg.norm(r0 - cols @ w)
        assert abs(np.linalg.norm(r_new) - brute) <= MINRES_RTOL * scale


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    method=st.sampled_from(["rfom", "rgmres"]),
    k=st.integers(1, 4),
    m=st.integers(1, 20),
    extra=st.integers(1, 10),
    complex_=st.booleans(),
    stop=st.sampled_from(["none", "threshold", "breakdown"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_cycle_reads_its_projections_off_the_monitor(method, k, m, extra, complex_, stop, seed):
    """``D = V* C``, ``E = V* U`` and ``P = C* C - D* D``, which the cycle reads
    off its residual monitor, cover the whole basis, and its coupling is
    :func:`compute_coupling`'s: for a full cycle, one a threshold stops early
    and one whose Arnoldi breaks down at step 1, before any monitor call."""
    rng = np.random.default_rng(seed)
    n = m + k + extra
    a = draw(rng, (n, n), complex_) / np.sqrt(2 * n if complex_ else n) + 2 * np.eye(n)
    r0 = draw(rng, n, complex_)
    if stop == "breakdown":  # e_1 is then an eigenvector
        a[1:, 0], r0 = 0.0, np.eye(n)[0]
    threshold = np.linalg.norm(r0) * 10.0 ** -rng.uniform(1, 6) if stop == "threshold" else 0.0
    u = draw(rng, (n, k), complex_)
    choice = Constraint.GALERKIN if method == "rfom" else Constraint.MINRES
    aug = build_augmentation(a, u / np.linalg.norm(u, axis=0), choice)
    monitors, run = [], _ResidualMonitor.run

    def spy(self, *args):
        monitors.append(self)
        return run(self, *args)

    cycle = unproj_rfom_cycle if method == "rfom" else unproj_rgmres_cycle
    with mock.patch.object(_ResidualMonitor, "run", spy):
        y, _, dec, coupling = cycle(a, aug, r0, m, threshold=threshold)
    (monitor,) = monitors
    if stop == "breakdown":
        assert dec.breakdown == 1

    def close(got, want, scale):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= PROJECTION_RTOL * scale

    v, gram = dec.v, aug.c.conj().T @ aug.c
    d = (aug.c.conj().T @ v).conj().T
    close(monitor.d, d, np.linalg.norm(d))
    if method == "rfom":
        e = (aug.u.conj().T @ v).conj().T
        close(monitor.e, e, np.linalg.norm(e))
    close(monitor.p, gram - d.conj().T @ d, np.linalg.norm(gram))
    want = compute_coupling(aug, v, dec.hbar)[:, : len(y)]
    close(coupling, want, np.linalg.norm(want))


def test_rgmres_with_an_image_near_the_krylov_image():
    """With ``C = V_{m+1} X + eps N``, ``P = C* C - D* D`` is ``eps^2`` at step ``m`` and
    rounding can leave it singular or indefinite. A minimizer still exists: rgmres reaches the
    dense minimum over ``span(C, A V_m)`` without a breakdown, also where the monitor
    falls back from its Cholesky solve (its only ``eigh`` call)."""
    eigh, fallbacks = np.linalg.eigh, []

    def counted(p):
        fallbacks.append(p.shape)
        return eigh(p)

    n, m = 40, 12
    draws = itertools.product((1e-5, 1e-7, 1e-9, 1e-12, 0.0), (False, True), range(1, 5), range(2))
    with mock.patch.object(np.linalg, "eigh", counted):
        for eps, complex_, k, seed in draws:
            rng = np.random.default_rng([seed, k, complex_])
            a = draw(rng, (n, n), complex_) / np.sqrt(2 * n if complex_ else n) + 2 * np.eye(n)
            r0 = draw(rng, n, complex_)
            c = arnoldi(a, r0, m).v @ draw(rng, (m + 1, k), complex_) + eps * draw(rng, (n, k), complex_)
            aug = build_augmentation(a, np.linalg.solve(a, c), Constraint.MINRES)
            y, z, dec, _ = unproj_rgmres_cycle(a, aug, r0, m)
            r_new = r0 - a @ (dec.basis @ y) - aug.c @ z
            cols = np.column_stack([aug.c, a @ dec.basis])
            w, *_ = np.linalg.lstsq(cols, r0, rcond=None)
            brute = np.linalg.norm(r0 - cols @ w)
            assert abs(np.linalg.norm(r_new) - brute) <= NEAR_KRYLOV_RTOL * np.linalg.norm(r0)
    assert fallbacks


def test_a_space_near_the_krylov_space_gives_an_honest_answer():
    """``U = b/||b|| + eps N`` puts ``U`` inside (``eps = 0``) or near the first Krylov
    vector. Every solve converges, confirmed by its true residual, or stops with a
    typed reason; rgmres never breaks down, and no warning escapes but kryrec's own.
    rfom may stop as ``"breakdown"`` at ``eps = 0``, where ``[V_j U]`` is rank-deficient
    and its Galerkin matrix is singular at every size."""
    n, tol = 30, 1e-8
    cfg = SolverConfig(8, tol, max_cycles=50)
    for seed, eps, method in itertools.product(range(20), (0.0, 1e-10, 1e-6), ("rfom", "rgmres")):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) / np.sqrt(n) + 2 * np.eye(n)
        b = rng.standard_normal(n)
        u = b / np.linalg.norm(b) + eps * rng.standard_normal(n)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = unproj_solve(a, b, None, u[:, None], cfg, method)
        assert all(w.category is UserWarning for w in caught), [str(w.message) for w in caught]
        if res.converged:
            assert res.stop_reason == "converged"
            assert np.linalg.norm(b - a @ res.x) <= tol * np.linalg.norm(b)
        else:
            assert res.stop_reason in ("breakdown", "stagnation", "max_cycles")
        assert method == "rfom" or res.stop_reason != "breakdown"
