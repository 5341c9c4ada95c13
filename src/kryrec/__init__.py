"""Krylov subspace solvers with augmentation and recycling.

Restarted FOM/GMRES baselines, the augmented-subspace projection framework,
unprojected augmented solvers (recycled FOM and augmented GMRES) and
Ritz-vector recycling across sequences of linear systems.
"""

from .arnoldi import (
    ArnoldiBreakdownError,
    ArnoldiDecomposition,
    OperatorHandle,
    arnoldi,
    arnoldi_relation_residual,
    as_operator,
)
from .augmented import (
    AugmentationSpace,
    Constraint,
    apply_complement_projector,
    apply_complement_projector_adjoint,
    assemble_block_system,
    build_augmentation,
    compute_coupling,
    krylov_correction_projected,
    krylov_correction_shifted,
    projected_arnoldi,
    projected_residual,
    solve_block_coupled,
    z_correction,
)
from .baseline import SolveResult, SolverBreakdownError, SolverConfig, restarted_solve
from .core import (
    DimensionError,
    RankDeficientError,
    SingularMatrixError,
    SparseMatrix,
    dense_lstsq,
    dense_solve,
    spmv,
)
from .io import (
    ConvergenceRecord,
    MatrixMarketError,
    ProblemFamily,
    generate_family,
    read_history,
    read_matrix_market,
    tridiagonal_matrix,
    write_history,
)
from .recycling import (
    RecycleSpec,
    RefreshPolicy,
    RitzPairs,
    Selection,
    extract_ritz,
    per_cycle_recycler,
    refresh,
    solve_family,
)
from .unprojected import unproj_rfom_cycle, unproj_rgmres_cycle, unproj_solve

__version__ = "0.1.0"
