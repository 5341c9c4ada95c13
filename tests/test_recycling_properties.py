"""Property tests of the Ritz extraction over ``W = [U V_j]`` over real and
complex inputs, recycled sizes ``k``, space sizes and cycle lengths ``m``,
for both constraints."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kryrec.arnoldi import arnoldi
from kryrec.augmented import AugmentationSpace, Constraint, build_augmentation
from kryrec.recycling import GRAM_RTOL, Selection, extract_ritz
from kryrec.unprojected import unproj_rfom_cycle, unproj_rgmres_cycle

# Bounds relative to ||A||_F; the orthogonality one also to cond(W), since
# the small matrices are Gram matrices of W's blocks. Over 5,000 seeded draws
# of ``space_instance`` the largest values seen were 7.0e-15 (image identity)
# and 1.2e-14 (orthogonality of the Ritz basis's A W - W T to the test space).
IMAGE_RTOL = 1e-12
ORTH_RTOL = 1e-13
# A cycle's D, E and P against their definitions, relative to the size of the
# definitions, and the Ritz values and ||A W - W T||_F read off them against
# those read off the definitions, relative to ||A||_F. Over 53,000 seeded
# draws of the test below the largest projection gap was 6.4e-16; over 5,000
# the largest gaps were 1.3e-15 (values) and 5.2e-16 (||A W - W T||_F).
PROJECTION_RTOL = 1e-13
RITZ_RTOL = 1e-12
# cond - 1 of the Ritz basis; over the same 5,000 draws the largest value
# seen was 3.5e-13, and 1.6e-13 in ``test_space_near_the_krylov_space``
BASIS_COND_RTOL = 1e-10


def draw(rng, shape, complex_):
    return rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_ else 0.0)


def space_instance(choice, k_u, m, extra, complex_, seed):
    """A well-conditioned dense operator of size ``m + k_u + extra``, a
    random unit-column space ``U`` with its image, and ``m`` Arnoldi steps
    from a random start. Returns ``(a, aug, dec)``."""
    rng = np.random.default_rng(seed)
    n = m + k_u + extra
    a = draw(rng, (n, n), complex_) / np.sqrt(2 * n if complex_ else n) + 2 * np.eye(n)
    if k_u == 0:
        aug = AugmentationSpace.empty(n, choice)
    else:
        u = draw(rng, (n, k_u), complex_)
        u /= np.linalg.norm(u, axis=0)
        aug = build_augmentation(a, u, choice)
    return a, aug, arnoldi(a, draw(rng, n, complex_), m)


def carrying(dec, aug):
    """``dec`` carrying the space ``aug``, with ``D`` and ``E`` formed from their definitions."""
    return dataclasses.replace(dec, space=(aug, dec.v.conj().T @ aug.c, dec.v.conj().T @ aug.u))


def schur_residual(pairs, choice):
    """``A W - W T`` for the Ritz basis ``W``, read through the images ``A W``,
    and ``T``: the block that makes it orthogonal to ``W`` (GALERKIN) or to
    ``A W`` (MINRES)."""
    w, aw = pairs.vectors, pairs.images
    test = w if choice is Constraint.GALERKIN else aw
    t = np.linalg.solve(test.conj().T @ w, test.conj().T @ aw)
    return aw - w @ t, t


def assert_same_values(got, want, rtol, atol):
    """``got`` and ``want`` hold the same values, each matched to its nearest
    unmatched partner: the real parts of a conjugate pair may differ by
    rounding, so a sort cannot pair them."""
    want = list(want)
    assert len(got) == len(want)
    for value in got:
        i = int(np.argmin(np.abs(np.array(want) - value)))
        assert abs(want[i] - value) <= atol + rtol * abs(value)
        del want[i]


def assert_orthonormal(basis):
    """``basis`` has ``cond <= 1 + BASIS_COND_RTOL``: it is the reordered Schur
    (QZ) form's leading vectors in an orthonormal basis, with no QR after."""
    sv = np.linalg.svd(basis, compute_uv=False)
    assert sv.size == 0 or sv[0] / sv[-1] <= 1 + BASIS_COND_RTOL


def worst_residual_against(pairs, test_basis, choice):
    """Largest column norm of ``Q* (A W - W T)`` with ``Q`` an orthonormal
    basis of ``test_basis``, after checking that ``T`` has the Ritz values and
    ``A W - W T`` the reported column norms."""
    r, t = schur_residual(pairs, choice)
    assert_same_values(np.linalg.eigvals(t), pairs.values, rtol=1e-10, atol=1e-12)
    assert np.allclose(np.linalg.norm(r, axis=0), pairs.residuals, rtol=1e-10, atol=1e-12)
    q = np.linalg.qr(test_basis)[0]
    return np.max(np.linalg.norm(q.conj().T @ r, axis=0), initial=0.0)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    choice=st.sampled_from([Constraint.GALERKIN, Constraint.MINRES]),
    k=st.integers(1, 8),
    k_u=st.integers(0, 8),
    m=st.sampled_from([1, 2, 5, 12, 30]),
    extra=st.integers(1, 20),
    complex_=st.booleans(),
    selection=st.sampled_from(list(Selection)),
    seed=st.integers(0, 2**32 - 1),
)
def test_ritz_pairs_over_the_whole_search_space(choice, k, k_u, m, extra, complex_, selection, seed):
    a, aug, dec = space_instance(choice, k_u, m, extra, complex_, seed)
    k = min(k, k_u + m)
    pairs = extract_ritz(carrying(dec, aug), k, selection, choice)
    scale = np.linalg.norm(a)
    # a conjugate pair that does not fit in k is left out whole
    assert k - (not complex_) <= pairs.vectors.shape[1] <= k
    assert np.iscomplexobj(pairs.vectors) == complex_
    assert_orthonormal(pairs.vectors)
    # the images read off the Arnoldi relation are the operator's
    assert np.linalg.norm(a @ pairs.vectors - pairs.images) <= IMAGE_RTOL * scale
    w = np.column_stack([aug.u, dec.basis])
    test_basis = w if choice is Constraint.GALERKIN else a @ w
    # Galerkin residuals are orthogonal to W, harmonic ones to AW
    bound = ORTH_RTOL * scale * np.linalg.cond(w)
    assert worst_residual_against(pairs, test_basis, choice) <= bound


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    m=st.sampled_from([1, 2, 5, 12, 30]),
    extra=st.integers(1, 20),
    complex_=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_galerkin_values_without_a_space_are_the_hessenberg_eigenvalues(m, extra, complex_, seed):
    a, aug, dec = space_instance(Constraint.GALERKIN, 0, m, extra, complex_, seed)
    expected = np.sort_complex(np.linalg.eigvals(dec.h))
    for source in (dec, carrying(dec, aug)):
        values = extract_ritz(source, dec.j, Selection.SMALLEST_MAGNITUDE).values
        assert np.allclose(np.sort_complex(values), expected, rtol=0, atol=1e-12 * np.linalg.norm(dec.h))


@pytest.mark.parametrize("eps", [1e-3, 3e-4, 1e-5, 1e-7, 1e-9])
@pytest.mark.parametrize("choice", list(Constraint))
@pytest.mark.parametrize("complex_", [False, True])
def test_space_near_the_krylov_space(eps, choice, complex_):
    """``U = V_j X + eps N`` with unit-column ``X`` and ``N``, so U's part
    outside span(V_j) has norm about ``eps``, and once more with two of its
    four columns drawn at random instead. Where that part is kept (``eps**2 > GRAM_RTOL``)
    its image is ``C - V_{j+1} Hbar E_j``, which cancels down to ``eps``, so
    the image identity and the orthogonality lose a factor of about ``1/eps``;
    below the threshold the part is dropped, the pairs are those of ``V_j`` and
    the far columns alone, and ``U`` is only orthogonal to ``eps``. The Ritz
    basis stays orthonormal either way: U's part outside span(V_j) is
    orthogonalized against V_j and normalized a second time where it is small."""
    n, m = 300, 20
    loss = 1e-2 / eps if eps**2 > GRAM_RTOL else 1.0
    for seed, far in itertools.product(range(5), (0, 2)):
        rng = np.random.default_rng(seed)
        a = draw(rng, (n, n), complex_) / np.sqrt(2 * n if complex_ else n) + 2 * np.eye(n)
        dec = arnoldi(a, draw(rng, n, complex_), m)
        x, noise = draw(rng, (dec.j, 4), complex_), draw(rng, (n, 4), complex_)
        u = dec.basis @ (x / np.linalg.norm(x, axis=0)) + eps * noise / np.linalg.norm(noise, axis=0)
        u[:, 4 - far :] = noise[:, 4 - far :] / np.linalg.norm(noise[:, 4 - far :], axis=0)
        aug = build_augmentation(a, u, choice)
        pairs = extract_ritz(carrying(dec, aug), 4, Selection.SMALLEST_MAGNITUDE, choice)
        assert_orthonormal(pairs.vectors)
        assert np.linalg.norm(a @ pairs.vectors - pairs.images) <= 1e-14 * loss * np.linalg.norm(a)
        r = schur_residual(pairs, choice)[0]
        r_norms = np.linalg.norm(r, axis=0)
        assert np.max(np.abs(r_norms - pairs.residuals)) <= 1e-13
        # Galerkin residuals are orthogonal to V_j and U, harmonic ones to A V_j and C
        krylov, space = (dec.basis, aug.u) if choice is Constraint.GALERKIN else (a @ dec.basis, aug.c)
        q = np.linalg.qr(krylov)[0]
        assert np.max(np.linalg.norm(q.conj().T @ r, axis=0) / r_norms) <= 1e-11 * loss
        space = space / np.linalg.norm(space, axis=0)
        assert np.max(np.abs(space.conj().T @ r) / r_norms) <= eps


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    method=st.sampled_from(["rfom", "rgmres"]),
    k=st.integers(0, 4),
    ritz=st.integers(1, 4),
    m=st.integers(1, 12),
    extra=st.integers(1, 10),
    complex_=st.booleans(),
    breakdown=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_cycle_carries_its_projections_to_the_ritz_step(method, k, ritz, m, extra, complex_, breakdown, seed):
    """An augmented cycle's decomposition carries the space it ran with and
    ``D = V* C`` and ``E = V* U`` over its whole basis, also
    after a lucky breakdown at step 1, before any monitor call; the Ritz pairs
    read off them are those of the definitions. The basis and the column norms
    of ``A W - W T`` are left out of the comparison: they rotate within the
    selected span with the gap between Ritz values (the column norms moved by
    up to 7.7e-2 ||A||_F over 20,000 draws), but the basis stays the
    operator's and ``||A W - W T||_F`` does not depend on it. FOM and GMRES
    cycles carry the empty space of their constraint; ``arnoldi``'s own
    decomposition carries none."""
    rng = np.random.default_rng(seed)
    n = m + k + extra
    a = draw(rng, (n, n), complex_) / np.sqrt(2 * n if complex_ else n) + 2 * np.eye(n)
    r0 = draw(rng, n, complex_)
    if breakdown:  # e_1 is then an eigenvector
        a[1:, 0], r0 = 0.0, np.eye(n)[0]
    choice = Constraint.GALERKIN if method == "rfom" else Constraint.MINRES
    u = draw(rng, (n, k), complex_)
    aug = build_augmentation(a, u / np.linalg.norm(u, axis=0), choice) if k else AugmentationSpace.empty(n, choice)
    cycle = unproj_rfom_cycle if method == "rfom" else unproj_rgmres_cycle
    dec = cycle(a, aug, r0, m)[2]
    assert dec.j == (1 if breakdown else m) and (dec.breakdown == 1) == breakdown
    defined = carrying(dataclasses.replace(dec, space=None), aug)
    assert dec.space[0] is aug
    for got, want in zip(dec.space[1:], defined.space[1:]):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= PROJECTION_RTOL * np.linalg.norm(want)

    scale, k_ritz = np.linalg.norm(a), min(ritz, k + dec.j)
    got, want = (extract_ritz(x, k_ritz, Selection.SMALLEST_MAGNITUDE, choice) for x in (dec, defined))
    assert got.vectors.shape == want.vectors.shape
    assert np.linalg.norm(got.values - want.values) <= RITZ_RTOL * scale
    assert abs(np.linalg.norm(got.residuals) - np.linalg.norm(want.residuals)) <= RITZ_RTOL * scale
    assert np.linalg.norm(a @ got.vectors - got.images) <= IMAGE_RTOL * scale

    assert arnoldi(a, r0, m).space is None
    for plain, constraint in ((unproj_rfom_cycle, Constraint.GALERKIN), (unproj_rgmres_cycle, Constraint.MINRES)):
        empty = AugmentationSpace.empty(len(r0), constraint)
        space, d, e = plain(a, empty, r0, m)[2].space
        assert space is empty
        assert d.shape[1] == e.shape[1] == 0
