import warnings

import numpy as np
import pytest
import scipy.linalg

from kryrec.arnoldi import ArnoldiDecomposition, arnoldi, as_operator
from kryrec.augmented import Constraint
from kryrec.baseline import SolverConfig
from kryrec.core import SparseMatrix
from kryrec.io import generate_family, tridiagonal_matrix
from kryrec.recycling import (
    RecycleSpec,
    RefreshPolicy,
    Selection,
    extract_ritz,
    per_cycle_recycler,
    refresh,
    solve_family,
)
from kryrec.unprojected import unproj_solve
from test_recycling_properties import assert_same_values, carrying, schur_residual


def full_grade_decomposition():
    # Arnoldi run to the full grade of (A, r): Ritz pairs become exact
    a = SparseMatrix.diagonal(np.arange(1.0, 11.0))
    r = np.ones(10)
    return a, arnoldi(a, r, 10)


class TestRecycleSpec:
    def test_values_behave_like_members(self):
        spec = RecycleSpec(k=3, selection="mag", refresh_policy="cycle")
        assert spec.selection is Selection.SMALLEST_MAGNITUDE
        assert spec.refresh_policy is RefreshPolicy.PER_CYCLE
        # a string kept as is would sort by real part and pick -3 and -2 first
        a = SparseMatrix.diagonal(np.concatenate([[-3.0, -2.0], np.linspace(0.01, 5.0, 198)]))
        dec = arnoldi(a, np.ones(200), 20)
        from_value = refresh(a, None, dec, RecycleSpec(k=3, selection="mag"), Constraint.GALERKIN)
        from_member = refresh(a, None, dec, RecycleSpec(k=3), Constraint.GALERKIN)
        assert np.array_equal(from_value.u, from_member.u)
        assert np.all(np.abs(np.diag(from_value.u.T @ a.to_dense() @ from_value.u)) < 1.0)
        # and would never match PER_CYCLE, so the space would stay empty
        a = tridiagonal_matrix(200, -1.3, 2.0, -0.7)
        b = np.random.default_rng(0).standard_normal(200)
        cfg = SolverConfig(20, 1e-8, max_cycles=500)
        runs = []
        for policy in ("cycle", RefreshPolicy.PER_CYCLE):
            recycler = per_cycle_recycler(RecycleSpec(k=4, refresh_policy=policy), Constraint.MINRES)
            runs.append(unproj_solve(a, b, None, None, cfg, "rgmres", recycler=recycler))
        assert runs[0].k_used == runs[1].k_used == 4
        assert np.array_equal(runs[0].x, runs[1].x) and runs[0].matvec_count == runs[1].matvec_count

    @pytest.mark.parametrize("field", ["selection", "refresh_policy"])
    def test_unknown_value_rejected(self, field):
        with pytest.raises(ValueError, match="bogus"):
            RecycleSpec(k=3, **{field: "bogus"})


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
        # at full grade the orthonormal basis W spans an invariant subspace:
        # A W = W T, with T = W* A W the leading Schur block
        ad, w = a.to_dense(), pairs.vectors
        assert np.linalg.norm(ad @ w - w @ (w.conj().T @ ad @ w)) <= 1e-9 * np.linalg.norm(ad)

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

    def test_k_above_the_space_warns_once(self):
        # the space holds 10 Ritz vectors: all 10 come back, with one warning
        _, dec = full_grade_decomposition()
        with pytest.warns(UserWarning, match="supports only 10 of 11 requested Ritz vectors") as record:
            pairs = extract_ritz(dec, 11)
        assert len(record) == 1
        assert pairs.vectors.shape == (10, 10)
        assert np.allclose(pairs.vectors.conj().T @ pairs.vectors, np.eye(10), atol=1e-12)

    def test_residual_formula_matches_direct_computation(self):
        rng = np.random.default_rng(0)
        n, m = 50, 12
        a = SparseMatrix.from_dense(rng.standard_normal((n, n)) / np.sqrt(n) + 2 * np.eye(n))
        dec = arnoldi(a, rng.standard_normal(n), m)
        pairs = extract_ritz(dec, 4)
        ad, w = a.to_dense(), pairs.vectors
        # the columns of A W - W T, T = W* A W the leading block of H's reordered
        # Schur form; a conjugate pair is one real 2 x 2 block of T
        t = w.conj().T @ ad @ w
        assert_same_values(np.linalg.eigvals(t), pairs.values, rtol=0, atol=1e-10)
        assert np.linalg.norm(ad @ w - w @ t, axis=0) == pytest.approx(pairs.residuals, abs=1e-10)

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
        aug = build_augmentation(a, u, choice)
        pairs = extract_ritz(carrying(dec, aug), 5, Selection.SMALLEST_MAGNITUDE, choice)
        assert np.linalg.norm(a.to_dense() @ pairs.vectors - pairs.images) <= 1e-12 * a.frobenius_norm()
        # the Krylov space is invariant, so its smallest eigenvalues are exact
        # Ritz values; the others come from U and lie above them
        assert np.allclose(np.sort(pairs.values.real)[:2], [1.0, 2.0], atol=1e-12)
        r, t = schur_residual(pairs, choice)
        assert_same_values(np.linalg.eigvals(t), pairs.values, rtol=0, atol=1e-12)
        assert np.allclose(np.linalg.norm(r, axis=0), pairs.residuals, atol=1e-12)

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
        # a refresh asking for more than the space holds warns once, from extract_ritz
        with pytest.warns(UserWarning, match="supports only 0 of 2 requested Ritz vectors") as above:
            aug = refresh(a, None, dec, RecycleSpec(k=2), Constraint.MINRES)
        assert aug.k == 0 and len(above) == 1
        # no numpy warning escapes alongside the selection's own
        assert [w.category for w in record.list + more.list + above.list] == [UserWarning] * 3


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

    def test_a_jordan_blocks_schur_basis_keeps_both_directions(self):
        # a 2x2 Jordan block: both its Ritz vectors are the first basis column,
        # while its Schur basis spans both columns
        v = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 3)))[0]
        dec = ArnoldiDecomposition(v=v, hbar=np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.5]]))
        a = SparseMatrix.diagonal(np.arange(1.0, 7.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            aug = refresh(a, None, dec, RecycleSpec(k=2), Constraint.GALERKIN)
        assert aug.k == 2
        assert np.allclose(aug.u.T @ aug.u, np.eye(2), rtol=0, atol=1e-14)
        assert np.allclose(aug.u @ (aug.u.T @ v[:, :2]), v[:, :2], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("choice", list(Constraint))
    def test_retired_orthonormalize_c_only_repeats_the_constraint(self, choice):
        # the benchmark's positional form: refresh(op, None, dec, spec, choice, choice is MINRES)
        a = SparseMatrix.diagonal(np.arange(1.0, 21.0))
        dec = arnoldi(a, np.ones(20), 8)
        op = as_operator(a)
        spec = RecycleSpec(k=3, refresh_policy=RefreshPolicy.PER_CYCLE)
        decided = choice is Constraint.MINRES
        aug = refresh(op, None, dec, spec, choice, decided)
        default = refresh(op, None, dec, spec, choice)
        assert np.array_equal(aug.u, default.u) and np.array_equal(aug.c, default.c)
        rebuilt = per_cycle_recycler(spec, choice, decided)(op, None, dec)
        assert rebuilt.choice is choice and rebuilt.k == 3
        before = op.matvec_count
        with pytest.raises(ValueError, match="orthonormalize_c"):
            refresh(op, None, dec, spec, choice, not decided)
        with pytest.raises(ValueError, match="orthonormalize_c"):
            per_cycle_recycler(spec, choice, not decided)
        assert op.matvec_count == before


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

    @pytest.mark.parametrize("delta", [1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12])
    def test_near_defective_pairs_recycle_without_warning(self, delta):
        # two 2x2 blocks, eigenvalues 0.05 +- delta and 0.07 +- delta, whose
        # eigenvectors are about delta apart: Ritz vectors for them are nearly
        # dependent and made U* C ill-conditioned; a Schur basis is orthonormal
        n = 300
        rng = np.random.default_rng(0)
        d = np.diag(np.linspace(1.0, 10.0, n))
        d[:2, :2] = [[0.05, 1.0], [delta**2, 0.05]]
        d[2:4, 2:4] = [[0.07, 1.0], [delta**2, 0.07]]
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        a, b = q @ d @ q.T, rng.standard_normal(n)
        recycler = per_cycle_recycler(RecycleSpec(4, refresh_policy="cycle"), Constraint.GALERKIN)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = unproj_solve(a, b, None, None, SolverConfig(15, 1e-8, max_cycles=500), "rfom", recycler=recycler)
        # the counts of the eigenvector basis, which warned at every delta
        assert res.converged and (res.matvec_count, res.cycles_used) == (54, 4)


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
        first = unproj_solve(a, b, None, None, cfg, method)
        pairs = extract_ritz(first.final_decomposition, 6, Selection.SMALLEST_MAGNITUDE, choice)
        assert np.count_nonzero(pairs.values.imag) >= 2
        assert pairs.vectors.dtype == pairs.images.dtype == np.float64

        aug = refresh(a, None, first.final_decomposition, RecycleSpec(k=6), choice)
        res = unproj_solve(a, b, None, aug, cfg, method)
        assert res.converged
        assert aug.u.dtype == aug.c.dtype == res.x.dtype == np.float64

        spaces = []
        recycler = per_cycle_recycler(RecycleSpec(k=6, refresh_policy=RefreshPolicy.PER_CYCLE), choice)

        def recording(op, aug, dec):
            spaces.append(recycler(op, aug, dec))
            return spaces[-1]

        res = unproj_solve(a, b, None, None, cfg, method, recycler=recording)
        assert res.converged and spaces
        assert all(s.u.dtype == s.c.dtype == np.float64 for s in spaces)
        assert res.x.dtype == np.float64


def reference_family_loop(family, method, cfg, rspec):
    """The family loop as the CLI wrote it inline, kept as the reference for
    :func:`solve_family`; yields each result with the matvecs spent outside it."""
    choice = Constraint.GALERKIN if method == "rfom" else Constraint.MINRES
    aug = None
    last_dec = None
    for a, b, label in family:
        op = as_operator(a)
        if rspec.refresh_policy is RefreshPolicy.PER_SYSTEM:
            aug = refresh(op, aug, last_dec, rspec, choice)
        res = unproj_solve(op, b, None, aug, cfg, method, recycler=per_cycle_recycler(rspec, choice))
        last_dec = res.final_decomposition
        # Matvecs spent before the solve loop started (cross-system refresh).
        offset = op.matvec_count - res.matvec_count
        yield res, offset


class TestSolveFamily:
    @pytest.mark.parametrize("kind", ["shifted", "perturbed"])
    @pytest.mark.parametrize("k", [0, 4])
    @pytest.mark.parametrize("policy", list(RefreshPolicy))
    @pytest.mark.parametrize("method", ["rfom", "rgmres"])
    def test_matches_the_reference_loop(self, method, policy, k, kind):
        family = generate_family(kind, 200, 3)
        cfg = SolverConfig(15, 1e-8, max_cycles=60)
        rspec = RecycleSpec(k=k, refresh_policy=policy)
        pairs = list(zip(solve_family(family, method, cfg, rspec), reference_family_loop(family, method, cfg, rspec)))
        assert len(pairs) == 3
        for i, ((res, spent), (ref, ref_spent)) in enumerate(pairs):
            assert np.array_equal(res.x, ref.x)
            assert np.array_equal(res.residual_history, ref.residual_history)
            assert np.array_equal(res.history_matvecs, ref.history_matvecs)
            assert spent == ref_spent
            recycled = i > 0 and k > 0 and policy is RefreshPolicy.PER_SYSTEM
            assert spent == (k if recycled else 0)

    def test_refresh_matvecs_leave_out_earlier_applications(self):
        # the second system's operator handle has already counted a matvec
        family = generate_family("shifted", 200, 2)
        op = as_operator(family.systems[1][0])
        op(np.ones(200))
        systems = [family.systems[0], (op, family.systems[1][1], "used")]
        cfg = SolverConfig(15, 1e-8, max_cycles=60)
        spent = [s for _, s in solve_family(systems, "rfom", cfg, RecycleSpec(k=4))]
        assert spent == [0, 4]

    def test_a_recycled_space_that_cannot_be_factored_ends_the_solve(self):
        # a zero eigenvalue: the per-cycle Ritz vectors come to meet a singular U* C
        d = np.arange(1.0, 61.0)
        d[0] = 0.0
        b = np.random.default_rng(0).standard_normal(60)
        systems = [(SparseMatrix.diagonal(d), b / np.linalg.norm(b), "s")]
        cfg, spec = SolverConfig(8, 1e-8, max_cycles=200), RecycleSpec(3, refresh_policy="cycle")
        with pytest.warns(UserWarning, match="ill-conditioned") as record:
            res, _ = next(solve_family(systems, "rfom", cfg, spec))
        # each warning names this file, the caller, not a line inside kryrec
        assert {w.filename for w in record} == {__file__}
        assert res.stop_reason == "breakdown" and not res.converged
        assert (res.cycles_used, res.matvec_count) == (6, 48)

    @pytest.mark.parametrize("method", ["rfom", "rgmres"])
    def test_a_rejected_schur_reordering_ends_the_solve(self, method, monkeypatch):
        # LAPACK's trsen and tgsen reject a reordering (info 1) that would swap
        # eigenvalues too close to separate; stand in for that with a reported info 1
        lapack = scipy.linalg.get_lapack_funcs

        def rejecting(name, arrays):
            routine = lapack(name, arrays)
            if name not in ("trsen", "tgsen"):
                return routine
            return lambda *args, **kwargs: (*routine(*args, **kwargs)[:-1], 1)

        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", rejecting)
        cfg, spec = SolverConfig(15, 1e-8, max_cycles=60), RecycleSpec(4, refresh_policy="cycle")
        res, _ = next(solve_family(generate_family("shifted", 200, 1), method, cfg, spec))
        # the first cycle runs with no space; rebuilding one after it fails
        assert res.stop_reason == "breakdown" and not res.converged
        assert res.cycles_used == 1
