"""Acceptance suite.

One test per criterion, each printing a PASS line (run with ``pytest -s``
to see them). Tolerances are fixed here, not configurable.
"""

import time

import numpy as np
import pytest

from kryrec.arnoldi import arnoldi, arnoldi_relation_residual, as_operator
from kryrec.augmented import (
    Constraint,
    assemble_block_system,
    build_augmentation,
    compute_coupling,
    krylov_correction_projected,
    krylov_correction_shifted,
    solve_block_coupled,
    z_correction,
)
from kryrec.baseline import SolverConfig, restarted_solve
from kryrec.cli import cli_main
from kryrec.core import SparseMatrix
from kryrec.io import tridiagonal_matrix
from kryrec.recycling import RecycleSpec, refresh
from kryrec.unprojected import unproj_rfom_cycle, unproj_rgmres_cycle, unproj_solve


def sparse_random(rng, n, density=0.05, shift=3.0):
    nnz = int(density * n * n)
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, n, nnz)
    vals = rng.standard_normal(nnz)
    diag = np.arange(n)
    return SparseMatrix.from_coo(
        np.concatenate([rows, diag]),
        np.concatenate([cols, diag]),
        np.concatenate([vals, np.full(n, shift)]),
        (n, n),
    )


def oracle_instances():
    """The shared battery: 50 instances over k x j x constraint-choice."""
    grid = [
        (k, j, choice)
        for k in (1, 4, 8)
        for j in (5, 15)
        for choice in (Constraint.GALERKIN, Constraint.MINRES)
    ]
    out = []
    for i in range(50):
        k, j, choice = grid[i % len(grid)]
        rng = np.random.default_rng(1000 + i)
        a = sparse_random(rng, 100)
        u = rng.standard_normal((100, k))
        r0 = rng.standard_normal(100)
        aug = build_augmentation(a, u, choice)
        dec = arnoldi(a, r0, j)
        vt = np.linalg.qr(rng.standard_normal((100, dec.j)))[0]
        av = a.to_dense() @ dec.basis
        out.append((a, aug, dec, av, vt, r0))
    return out


@pytest.fixture(scope="module")
def battery():
    return oracle_instances()


def test_criterion_1_projected_unprojected_equivalence(battery):
    start = time.perf_counter()
    worst = 0.0
    for a, aug, dec, av, vt, r0 in battery:
        y1 = krylov_correction_projected(aug, av, vt, r0)
        y2 = krylov_correction_shifted(aug, av, vt, r0)
        worst = max(worst, np.linalg.norm(y1 - y2) / np.linalg.norm(y1))
        assert np.linalg.norm(y1 - y2) <= 1e-10 * np.linalg.norm(y1)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 1 projected/unprojected equivalence over 50 instances: "
        f"PASS (worst rel diff {worst:.2e}, {elapsed:.2f}s)"
    )


def test_criterion_2_block_decoupling_oracle(battery):
    worst = 0.0
    for a, aug, dec, av, vt, r0 in battery:
        m, rhs = assemble_block_system(aug, av, vt, r0)
        z_blk, y_blk = solve_block_coupled(m, rhs, aug.k, dec.j)
        y_dec = krylov_correction_projected(aug, av, vt, r0)
        b = compute_coupling(aug, dec.v, dec.hbar)
        z_dec = z_correction(aug, y_dec, r0, b)
        dy = np.linalg.norm(y_blk - y_dec) / np.linalg.norm(y_blk)
        dz = np.linalg.norm(z_blk - z_dec) / max(np.linalg.norm(z_blk), 1e-300)
        worst = max(worst, dy, dz)
        assert dy <= 1e-10 and dz <= 1e-10
    print(f"ACCEPTANCE 2 block-coupled vs decoupled paths: PASS (worst rel diff {worst:.2e})")


def test_criterion_3_residual_minimization_equivalence():
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(2000 + i)
        n, k, m = 80, 5, 10
        a = sparse_random(rng, n)
        u = rng.standard_normal((n, k))
        r0 = rng.standard_normal(n)
        aug = build_augmentation(a, u, Constraint.MINRES)
        y, z, dec, b = unproj_rgmres_cycle(a, aug, r0, m)
        r_new = r0 - dec.v @ (dec.hbar @ y) - aug.c @ z
        cols = np.column_stack([aug.c, a.to_dense() @ dec.basis])
        w, *_ = np.linalg.lstsq(cols, r0, rcond=None)
        brute = np.linalg.norm(r0 - cols @ w)
        gap = abs(np.linalg.norm(r_new) - brute) / brute
        worst = max(worst, gap)
        assert gap <= 1e-8
    print(f"ACCEPTANCE 3 augmented GMRES equals brute-force minimizer: PASS (worst rel gap {worst:.2e})")


def test_criterion_4_rfom_constraint_suite():
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(3000 + i)
        n, k, m = 80, 5, 10
        a = sparse_random(rng, n)
        u = rng.standard_normal((n, k))
        r0 = rng.standard_normal(n)
        aug = build_augmentation(a, u, Constraint.GALERKIN)
        y, z, dec, b = unproj_rfom_cycle(a, aug, r0, m)
        r_new = r0 - dec.v @ (dec.hbar @ y) - aug.c @ z
        scale = np.linalg.norm(r0)
        gv = np.linalg.norm(dec.basis.conj().T @ r_new) / scale
        gu = np.linalg.norm(aug.u.conj().T @ r_new) / scale
        worst = max(worst, gv, gu)
        assert gv <= 1e-9 and gu <= 1e-9
    print(f"ACCEPTANCE 4 recycled-FOM residual constraints: PASS (worst {worst:.2e})")


def test_criterion_5_degeneration_to_baselines():
    n = 200
    a = tridiagonal_matrix(n)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(n)
    b /= np.linalg.norm(b)
    cfg = SolverConfig(20, 1e-8, max_cycles=40, tol_mode="abs")
    worst = 0.0
    for method, base in (("rfom", "fom"), ("rgmres", "gmres")):
        res_aug = unproj_solve(a, b, None, None, cfg, method)
        res_base = restarted_solve(a, b, None, cfg, base)
        ha, hb = res_aug.cycle_norms, res_base.cycle_norms
        assert len(ha) == len(hb)
        gap = float(np.max(np.abs(ha - hb) / np.maximum(ha, 1e-300)))
        worst = max(worst, gap)
        assert gap <= 1e-12
    print(f"ACCEPTANCE 5 k=0 degeneration to restarted baselines: PASS (worst rel gap {worst:.2e})")


def deflated_spd(n=1000, n_small=5, delta=1e-3, bulk_shift=0.5):
    """SPD operator: decoupled small diagonal block, shifted tridiagonal bulk."""
    rows, cols, vals = [], [], []
    for i in range(n_small):
        rows.append(i), cols.append(i), vals.append(delta * (i + 1))
    nb = n - n_small
    for i in range(nb):
        gi = n_small + i
        if i > 0:
            rows.append(gi), cols.append(gi - 1), vals.append(-1.0)
        rows.append(gi), cols.append(gi), vals.append(2.0 + bulk_shift)
        if i < nb - 1:
            rows.append(gi), cols.append(gi + 1), vals.append(-1.0)
    return SparseMatrix.from_coo(rows, cols, vals, (n, n))


def test_criterion_6_recycling_speedup():
    start = time.perf_counter()
    n = 1000
    a = deflated_spd(n)
    rng = np.random.default_rng(0)
    b1 = rng.standard_normal(n)
    b1 /= np.linalg.norm(b1)
    b2 = rng.standard_normal(n)
    b2 /= np.linalg.norm(b2)
    cfg = SolverConfig(40, 1e-8, max_cycles=500, tol_mode="abs")

    first = unproj_solve(a, b1, None, None, cfg, "rfom")
    assert first.converged
    source = first.final_decomposition

    total = {}
    solve_mv = {}
    for k in (0, 5, 10):
        op = as_operator(a)
        aug = refresh(op, None, source, RecycleSpec(k=k), Constraint.GALERKIN) if k else None
        res = unproj_solve(op, b2, None, aug, cfg, "rfom")
        assert res.converged
        total[k] = op.matvec_count
        solve_mv[k] = res.matvec_count
    # recycled run beats the cold start by at least 20% in total matvecs
    assert total[10] <= 0.8 * total[0]
    # solver work shrinks monotonically with the recycle dimension
    assert solve_mv[10] <= solve_mv[5] <= solve_mv[0]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 6 recycling speedup: PASS "
        f"(total matvecs cold={total[0]} k5={total[5]} k10={total[10]}, "
        f"saving {1 - total[10] / total[0]:.0%}, {elapsed:.1f}s)"
    )


def test_criterion_7_kernel_invariant_suite():
    worst_orth = worst_rel = worst_gap = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n, m = 120, 24
        a = sparse_random(rng, n)
        r = rng.standard_normal(n)
        dec = arnoldi(a, r, m, reorth=True)
        orth = float(np.max(np.abs(dec.v.conj().T @ dec.v - np.eye(dec.v.shape[1]))))
        rel = arnoldi_relation_residual(dec, a) / a.frobenius_norm()
        worst_orth = max(worst_orth, orth)
        worst_rel = max(worst_rel, rel)
        assert orth <= 1e-12
        assert rel <= 1e-12

        b = rng.standard_normal(n)
        cfg = SolverConfig(12, 1e-10, max_cycles=80)
        res = restarted_solve(a, b, None, cfg, "gmres")
        assert res.converged
        by_cycle = {}
        for cycle, inner, norm in res.residual_history:
            by_cycle.setdefault(cycle, []).append((inner, norm))
        for cycle, entries in by_cycle.items():
            if cycle == 0:
                continue
            norms = [v for _, v in sorted(entries)]
            for earlier, later in zip(norms, norms[1:]):
                assert later <= earlier * (1 + 1e-12)
        true_r = np.linalg.norm(b - a.to_dense() @ res.x)
        gap = abs(true_r - res.final_residual_norm) / np.linalg.norm(b)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-8
    print(
        f"ACCEPTANCE 7 kernel invariants (seeds 0-9): PASS "
        f"(orth {worst_orth:.2e}, relation {worst_rel:.2e}, resid gap {worst_gap:.2e})"
    )


def test_criterion_8_byte_identical_reruns(tmp_path):
    args = [
        "compare", "--family", "tridiag:n=100,count=2", "--methods", "fom,rfom,gmres,rgmres",
        "-m", "15", "-k", "4", "--tol", "1e-8", "--max-cycles", "600", "--seed", "11",
    ]
    assert cli_main(args + ["--out", str(tmp_path / "x_")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "y_")]) == 0
    for method in ("fom", "rfom", "gmres", "rgmres"):
        b1 = (tmp_path / f"x_{method}.csv").read_bytes()
        b2 = (tmp_path / f"y_{method}.csv").read_bytes()
        assert b1 == b2
    print("ACCEPTANCE 8 byte-identical history files on rerun: PASS")
