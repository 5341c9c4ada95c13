#!/usr/bin/env python3
# Restarted FOM and GMRES on a second-difference operator.
#
# Builds the classic tridiagonal test matrix, solves it with both baseline
# methods at a couple of cycle lengths, and prints how the residual falls
# per restart cycle.

import numpy as np

from kryrec import SolverConfig, restarted_solve, tridiagonal_matrix

n = 400
a = tridiagonal_matrix(n)
rng = np.random.default_rng(0)
b = rng.standard_normal(n)
b /= np.linalg.norm(b)

print(f"operator: tridiagonal(-1, 2, -1), n = {n}, ||b|| = 1")
print()

for m in (10, 30):
    print(f"--- cycle length m = {m} ---")
    for method in ("fom", "gmres"):
        cfg = SolverConfig(cycle_length=m, tol=1e-8, max_cycles=5000, tol_mode="abs")
        res = restarted_solve(a, b, None, cfg, method)
        true = np.linalg.norm(b - a.to_dense() @ res.x)
        print(
            f"{method:>6}: converged={res.converged} cycles={res.cycles_used:4d} "
            f"matvecs={res.matvec_count:6d} final ||r||={res.final_residual_norm:.2e} "
            f"true ||b-Ax||={true:.2e}"
        )
    print()

# The recurred residual is cross-checked against b - A x every 10 cycles
# (and once more where it meets the tolerance); the worst relative drift
# over a long run stays near machine precision.
cfg = SolverConfig(cycle_length=20, tol=1e-10, max_cycles=5000, tol_mode="abs")
res = restarted_solve(a, b, None, cfg, "gmres")
print(f"long gmres run: {res.cycles_used} cycles, max recurrence drift {res.max_drift_gap:.2e}")
