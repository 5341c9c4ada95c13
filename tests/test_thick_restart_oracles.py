"""Per-cycle recycling, and restarted FOM and GMRES, against two dense
multi-cycle references.

Within one solve, a cycle of ``rgmres`` or ``rfom`` that recycles the previous
cycle's Ritz space searches ``span(U) + K_m(A, r)``: the space of GMRES-DR
(Morgan, SISC 2002; GCRO-DR equals it, Parks et al., SISC 2006) and of FOM
thick-restarted with its Ritz vectors plus the residual direction (Morgan,
Math. Comp. 1996; Wu & Simon, SIMAX 2000). The references below form that
space densely and keep the ``k`` harmonic (GMRES-DR) or standard (FOM) Ritz
vectors over it. They see only spans, so they pin the iterates whatever basis
the library recycles. With ``k = 0`` the space is ``K_m(A, r)`` alone, so the
same references are restarted GMRES and FOM: an anchor for ``restarted_solve``
that shares no arithmetic with the library's cycle.
"""

import numpy as np
import pytest
import scipy.linalg

from kryrec.augmented import Constraint
from kryrec.baseline import SolverConfig, restarted_solve
from kryrec.io import tridiagonal_matrix
from kryrec.recycling import RecycleSpec, per_cycle_recycler
from kryrec.unprojected import unproj_solve

M, CYCLES = 20, 10
# relative agreement of cycle-end residual norms; the largest gap over the
# cases below is 1.8e-13 (1.2e-13 for restarted FOM and GMRES)
NORM_RTOL = 1e-10


def krylov_basis(a, r, m):
    """Orthonormal basis of ``K_m(a, r)``: Arnoldi with two Gram-Schmidt passes."""
    v = np.zeros((len(r), m), dtype=np.result_type(a, r))
    v[:, 0] = r / np.linalg.norm(r)
    for i in range(1, m):
        w = a @ v[:, i - 1]
        for _ in range(2):
            w = w - v[:, :i] @ (v[:, :i].conj().T @ w)
        v[:, i] = w / np.linalg.norm(w)
    return v


def select(values, k, real):
    """Indices of the ``k`` smallest-magnitude values (ties by real, then
    imaginary part), a real problem's conjugate pair taken whole, by its
    ``+`` member, or left out. Returns ``(picked, left_out)``, ``left_out``
    counting pairs that did not fit while there was room."""
    picked, width_of, left_out = [], {}, 0
    for i in np.lexsort([values.imag, values.real, np.abs(values)]):
        if not np.isfinite(values[i]) or real and values[i].imag < 0:
            continue
        width = 2 if real and values[i].imag > 0 else 1
        used = sum(width_of.values())
        if used + width <= k:
            picked.append(i)
            width_of[i] = width
        elif used < k:
            left_out += 1
    return picked, left_out


def dense_recycling(a, b, m, k, cycles, harmonic):
    """Cycle-end residual norms of ``cycles`` restarts over ``span(U) + K_m(A, r)``
    from ``x = 0``, ``U`` the ``k`` Ritz vectors of the previous search space
    (empty at first), with the number of pairs kept and left out. GMRES-DR
    minimizes the residual and takes harmonic Ritz vectors; thick-restart FOM
    makes it orthogonal to the space and takes standard ones."""
    real = not np.iscomplexobj(a)
    x, u = np.zeros_like(b), np.zeros((len(b), 0), dtype=b.dtype)
    norms, kept, left_out = [], 0, 0
    for _ in range(cycles):
        r = b - a @ x
        q = np.linalg.qr(np.column_stack([u, krylov_basis(a, r, m)]))[0]
        aq = a @ q
        if harmonic:
            x = x + q @ np.linalg.lstsq(aq, r, rcond=None)[0]
            values, g = scipy.linalg.eig(aq.conj().T @ aq, aq.conj().T @ q)
        else:
            x = x + q @ np.linalg.solve(q.conj().T @ aq, q.conj().T @ r)
            values, g = scipy.linalg.eig(q.conj().T @ aq)
        norms.append(np.linalg.norm(b - a @ x))
        picked, missed = select(values, k, real)
        left_out += missed
        cols = []
        for i in picked:
            pair = real and values[i].imag > 0
            kept += pair
            cols += ([g[:, i].real, g[:, i].imag] if pair else [g[:, i].real]) if real else [g[:, i]]
        u = q @ np.column_stack(cols) if cols else q[:, :0]
    return np.array(norms), kept, left_out


def cycle_end_norms(a, b, method, k):
    """Cycle-end norms of ``method``: ``rfom``/``rgmres`` recycling ``k`` Ritz
    vectors every cycle, or plain restarted ``fom``/``gmres`` (``k = 0``)."""
    cfg = SolverConfig(M, 1e-8, max_cycles=CYCLES)
    if method in ("fom", "gmres"):
        res = restarted_solve(a, b, None, cfg, method)
    else:
        choice = Constraint.GALERKIN if method == "rfom" else Constraint.MINRES
        recycler = per_cycle_recycler(RecycleSpec(k, refresh_policy="cycle"), choice)
        res = unproj_solve(a, b, None, None, cfg, method, recycler=recycler)
    assert res.stop_reason == "max_cycles"  # every cycle ran its M steps
    ends = {cycle: norm for cycle, _, norm in res.residual_history}  # a cycle's last row is its end
    return np.array([ends[c] for c in range(1, CYCLES + 1)])


OPERATORS = {
    "real": (lambda: tridiagonal_matrix(400, -1.3, 2.0, -0.7), 6),
    "complex": (lambda: tridiagonal_matrix(400, -1.3, 2.0 + 0.1j, -0.7), 4),
    # its smallest Ritz values come in conjugate pairs that meet k = 3
    "pair_at_odd_k": (lambda: tridiagonal_matrix(400, -1.6, 2.0, -0.4), 3),
}


def system(operator):
    a = OPERATORS[operator][0]()
    rng = np.random.default_rng(0)
    return a, rng.standard_normal(400) + (1j * rng.standard_normal(400) if operator == "complex" else 0.0)


def assert_follows_reference(a, b, method, k):
    """The reference's harmonic (GMRES) or standard (FOM) variant at ``k``;
    returns its pair counts."""
    want, kept, left_out = dense_recycling(a.to_dense(), b, M, k, CYCLES, harmonic=method.endswith("gmres"))
    got = cycle_end_norms(a, b, method, k)
    assert np.max(np.abs(got - want) / want) <= NORM_RTOL
    return kept, left_out


@pytest.mark.parametrize("operator", list(OPERATORS))
@pytest.mark.parametrize("method", ["rgmres", "rfom"])
def test_per_cycle_recycling_follows_the_thick_restart_reference(method, operator):
    a, b = system(operator)
    # GMRES-DR for rgmres, thick-restart FOM for rfom
    kept, left_out = assert_follows_reference(a, b, method, OPERATORS[operator][1])
    if operator == "pair_at_odd_k":
        assert kept > 0 and left_out > 0


@pytest.mark.parametrize("operator", ["real", "complex"])
@pytest.mark.parametrize("method", ["gmres", "fom"])
def test_restarted_solve_follows_the_reference_without_recycling(method, operator):
    a, b = system(operator)
    assert assert_follows_reference(a, b, method, 0) == (0, 0)
