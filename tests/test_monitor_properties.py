"""Property tests of the residual monitor that stops a cycle early, for all
four methods, over real and complex inputs, augmentation sizes ``k`` and
cycle lengths ``m``. The oracles are dense least-squares and Galerkin
solves in the full space, independent of the Arnoldi relation."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kryrec.augmented import AugmentationSpace, Constraint, build_augmentation
from kryrec.baseline import _ResidualMonitor
from kryrec.unprojected import unproj_rfom_cycle, unproj_rgmres_cycle

METHODS = ["fom", "gmres", "rfom", "rgmres"]

# |monitor - oracle| <= NORM_RTOL * oracle + NORM_ATOL * ||r0||. The absolute
# part is the rounding floor of any dense oracle: over 300 seeded draws the
# monitor and the dense lstsq parted by at most about 2e-15 ||r0||, which is
# the whole gap at norms near 1e-15 ||r0||; above 1e-4 ||r0|| the relative
# gap stayed below 2e-12.
NORM_RTOL = 1e-10
NORM_ATOL = 1e-13

CASES = dict(
    k=st.integers(0, 12),
    m=st.integers(1, 60),
    extra=st.integers(1, 20),
    complex_=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


def draw(rng, shape, complex_):
    return rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_ else 0.0)


def instance(method, k, m, extra, complex_, seed):
    """A dense operator whose spectrum fills a disk of radius about 1 around
    a shift in [1.1, 2], so most cycle sizes stay above rounding; a random
    residual and, for rfom/rgmres, a random augmentation basis (``k`` is
    ignored for fom/gmres)."""
    rng = np.random.default_rng(seed)
    if method in ("fom", "gmres"):
        k = 0
    n = m + k + extra
    a = draw(rng, (n, n), complex_) / np.sqrt(2 * n if complex_ else n)
    a += rng.uniform(1.1, 2.0) * np.eye(n)
    r0 = draw(rng, n, complex_)
    choice = Constraint.GALERKIN if method in ("fom", "rfom") else Constraint.MINRES
    if k == 0:
        return a, AugmentationSpace.empty(n, choice), r0, rng
    u = draw(rng, (n, k), complex_)
    aug = build_augmentation(a, u / np.linalg.norm(u, axis=0), choice)
    return a, aug, r0, rng


def run_cycle(method, a, aug, r0, m, threshold):
    """The cycle of ``method``; for fom/gmres, ``aug`` is the empty space of its constraint."""
    cycle = unproj_rfom_cycle if method in ("fom", "rfom") else unproj_rgmres_cycle
    return cycle(a, aug, r0, m, threshold=threshold)[2]


def oracle_norms(a, aug, r0, v, sizes):
    """``{i: (minimum residual over [V_i U], Galerkin residual against
    [V_i U])}``, both in the full space."""
    out = {}
    for i in sizes:
        cols = np.column_stack([a @ v[:, :i], aug.c])
        w, *_ = np.linalg.lstsq(cols, r0, rcond=None)
        test = np.column_stack([v[:, :i], aug.u])
        g = np.linalg.solve(test.conj().T @ cols, test.conj().T @ r0)
        out[i] = (np.linalg.norm(r0 - cols @ w), np.linalg.norm(r0 - cols @ g))
    return out


def close(value, oracle, beta):
    return abs(value - oracle) <= NORM_RTOL * oracle + NORM_ATOL * beta


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(**CASES)
def test_monitor_norms_match_dense_oracle(method, k, m, extra, complex_, seed):
    a, aug, r0, _ = instance(method, k, m, extra, complex_, seed)
    beta = np.linalg.norm(r0)
    dec = run_cycle(method, a, aug, r0, m, 0.0)
    assert dec.j == m  # without a threshold the cycle runs all m steps
    if method == "rfom" and aug.k:
        # exact rfom norms are computed only where the bound meets a threshold
        assert dec.step_norms == []
        return
    assert [i for i, _ in dec.step_norms] == list(range(1, m + 1))
    oracle = oracle_norms(a, aug, r0, dec.v, range(1, m + 1))
    galerkin = method in ("fom", "rfom")
    for i, norm in dec.step_norms:
        assert close(norm, oracle[i][galerkin], beta), (i, norm, oracle[i])


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(**CASES)
def test_cycle_stops_at_first_size_meeting_threshold(method, k, m, extra, complex_, seed):
    a, aug, r0, rng = instance(method, k, m, extra, complex_, seed)
    beta = np.linalg.norm(r0)
    full = run_cycle(method, a, aug, r0, m, 0.0)
    sizes = range(1, m + 1)
    oracle = oracle_norms(a, aug, r0, full.v, sizes)
    galerkin = method in ("fom", "rfom")
    # a threshold between two of the norms, at least 0.5% from every norm and
    # above the rounding floor; or below all of them
    floor = 1e-11 * beta
    levels = sorted({value for pair in oracle.values() for value in pair})
    gaps = [(lo, hi) for lo, hi in zip(levels, levels[1:]) if hi > 1.01 * lo and lo > floor]
    if gaps and rng.random() < 0.9:
        lo, hi = gaps[int(rng.integers(len(gaps)))]
        threshold = np.sqrt(lo * hi)
    else:
        threshold = levels[0] / 2 if levels[0] > floor else 0.0

    bounds, exact = [], []
    original_min, original_galerkin = _ResidualMonitor._min_residual, _ResidualMonitor._galerkin_norm

    def min_spy(self, i, vt):
        bounds.append((i, original_min(self, i, vt)))
        return bounds[-1][1]

    def galerkin_spy(self, i, vt, hbar):
        exact.append((i, original_galerkin(self, i, vt, hbar)))
        return exact[-1][1]

    with mock.patch.object(_ResidualMonitor, "_min_residual", min_spy), \
            mock.patch.object(_ResidualMonitor, "_galerkin_norm", galerkin_spy):
        dec = run_cycle(method, a, aug, r0, m, threshold)

    met = [i for i in sizes if oracle[i][galerkin] <= threshold]
    assert dec.j == (met[0] if met else m)
    assert dec.breakdown is None and dec.hbar.shape == (dec.j + 1, dec.j)
    assert np.array_equal(dec.hbar, full.hbar[: dec.j + 1, : dec.j])
    for i, norm in dec.step_norms:
        assert close(norm, oracle[i][galerkin], beta)
    if method == "rfom" and aug.k:
        # rfom's bound is the minimum residual, below its exact norm; the
        # exact norm is computed at the steps where the bound meets the
        # threshold, and only there
        for i, bound in bounds:
            assert close(bound, oracle[i][0], beta)
        assert [i for i, _ in exact] == [i for i, bound in bounds if bound <= threshold]
        bound_at = dict(bounds)
        for i, norm in exact:
            assert bound_at[i] <= norm * (1 + NORM_RTOL)
        assert dec.step_norms == exact
    else:
        assert not exact


@pytest.mark.parametrize("method", ["rfom", "rgmres"])
@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    k=st.integers(1, 4),
    m=st.integers(1, 30),
    extra=st.integers(1, 10),
    complex_=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stopped_cycle_has_the_residual_its_monitor_kept(method, k, m, extra, complex_, seed):
    """The cycle's reduced solution and the monitor's norm come from one
    reduced problem: the true residual of the corrections a threshold stopped
    at is the last norm the monitor kept."""
    a, aug, r0, rng = instance(method, k, m, extra, complex_, seed)
    beta = np.linalg.norm(r0)
    full = run_cycle(method, a, aug, r0, m, 0.0)
    oracle = oracle_norms(a, aug, r0, full.v, range(1, m + 1))
    norms = {i: pair[method == "rfom"] for i, pair in oracle.items()}
    # a threshold just above the norm at a size well above the rounding floor,
    # so the cycle stops there or earlier
    sizes = [i for i, norm in norms.items() if norm > 1e-8 * beta]
    if not sizes:
        return
    threshold = norms[sizes[int(rng.integers(len(sizes)))]] * (1 + 1e-3)
    cycle = unproj_rfom_cycle if method == "rfom" else unproj_rgmres_cycle
    y, z, dec, _ = cycle(a, aug, r0, m, threshold=threshold)
    i, norm = dec.step_norms[-1]
    assert i == dec.j == len(y) and norm <= threshold
    r_new = r0 - a @ (dec.v[:, :i] @ y + aug.u @ z)
    assert abs(np.linalg.norm(r_new) - norm) <= 1e-12 * beta
