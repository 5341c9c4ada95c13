"""Seeded inputs for the benchmark workloads.

Everything here is plain numpy and writes plain files; nothing imports
kryrec, so the inputs (and the reference matrices the answers are checked
against) do not depend on the code under test.

The same seed always gives the same arrays and the same file bytes.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

# Deflated SPD operator (the acceptance-6 operator of the test suite, rebuilt
# here): a decoupled diagonal block with eigenvalues DELTA * (1..N_SMALL) and
# a second-difference tridiagonal bulk shifted by BULK_SHIFT, so the bulk
# spectrum lies in (BULK_SHIFT, 4 + BULK_SHIFT).
N_SMALL = 5
DELTA = 1e-3
BULK_SHIFT = 0.5

# Banded real symmetric positive definite Matrix Market file.
BANDED_N = 100_000
BANDED_HALF_BANDWIDTH = 5
BANDED_DIAG_MARGIN = 4.0

# Complex general Matrix Market file: complex diagonal plus four
# off-diagonals at fixed (wrapped) offsets, diagonally dominant.
COMPLEX_N = 20_000
COMPLEX_OFFSETS = (1, -1, 37, -101)
COMPLEX_OFF_SCALE = 0.3

# Bump when a generator changes so stale cached files are never reused.
CACHE_VERSION = 1


def deflated_spd_coo(n: int):
    """COO triplets ``(rows, cols, vals)`` of the deflated SPD operator."""
    if n <= N_SMALL + 1:
        raise ValueError(f"n must exceed {N_SMALL + 1}, got {n}")
    diag = np.concatenate(
        [DELTA * np.arange(1, N_SMALL + 1), np.full(n - N_SMALL, 2.0 + BULK_SHIFT)]
    )
    i = np.arange(N_SMALL, n - 1)
    ones = np.ones(len(i))
    rows = np.concatenate([np.arange(n), i, i + 1])
    cols = np.concatenate([np.arange(n), i + 1, i])
    vals = np.concatenate([diag, -ones, -ones])
    return rows, cols, vals


def planted_rhs(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit right-hand side for the deflated operator.

    Gaussian entries, except that the components on the planted
    eigenvectors (the first ``N_SMALL`` unit vectors) get equal magnitude and
    seeded signs. Every seed then poses the same difficulty, so cycle and
    matvec counts do not swing with the seed.
    """
    b = rng.standard_normal(n)
    b[:N_SMALL] = rng.choice([-1.0, 1.0], N_SMALL)
    return b / np.linalg.norm(b)


def cli_rhs(seed: int, n: int) -> np.ndarray:
    """The right-hand side ``kryrec solve --seed <seed>`` documents: a
    normalized Gaussian vector from ``default_rng(seed)``."""
    b = np.random.default_rng(seed).standard_normal(n)
    return b / np.linalg.norm(b)


def banded_spd_lower(seed: int):
    """Lower triangle (diagonal included) of a banded SPD matrix.

    Off-diagonals are uniform in [-1, 1); each diagonal entry is the absolute
    sum of its full row plus ``BANDED_DIAG_MARGIN``, so Gershgorin keeps the
    spectrum in [margin, margin + 2 * 2w] and GMRES converges inside one
    cycle of 40 steps. Entries are ordered by row, then column.
    """
    n, w = BANDED_N, BANDED_HALF_BANDWIDTH
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    absrow = np.zeros(n)
    for d in range(1, w + 1):
        r = np.arange(d, n)
        v = rng.uniform(-1.0, 1.0, n - d)
        rows.append(r)
        cols.append(r - d)
        vals.append(v)
        absrow[d:] += np.abs(v)
        absrow[: n - d] += np.abs(v)
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(absrow + BANDED_DIAG_MARGIN)
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], vals[order]


def complex_general(seed: int):
    """COO triplets of a diagonally dominant complex general matrix, ordered
    by row, then by offset; no duplicate positions."""
    n = COMPLEX_N
    rng = np.random.default_rng(seed)
    base = np.arange(n)
    rows = [base]
    cols = [base]
    vals = [4.0 + 2.0j * rng.uniform(-1.0, 1.0, n)]
    for off in COMPLEX_OFFSETS:
        rows.append(base)
        cols.append((base + off) % n)
        phase = rng.uniform(0.0, 2.0 * np.pi, n)
        vals.append(COMPLEX_OFF_SCALE * rng.uniform(0.5, 1.0, n) * np.exp(1j * phase))
    rows, cols, vals = (np.stack(a, axis=1).ravel() for a in (rows, cols, vals))
    return rows, cols, vals


def _format_lines(rows, cols, vals) -> str:
    # repr(float(v)) is the shortest round-trip form; repr of an np.float64
    # itself would print "np.float64(...)", which the reader rejects.
    if np.iscomplexobj(vals):
        return "".join(
            f"{i + 1} {j + 1} {float(v.real)!r} {float(v.imag)!r}\n"
            for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist())
        )
    return "".join(
        f"{i + 1} {j + 1} {v!r}\n"
        for i, j, v in zip(rows.tolist(), cols.tolist(), vals.astype(float).tolist())
    )


def write_matrix_market(path: Path, rows, cols, vals, n: int, symmetry: str, note: str):
    """Write coordinate entries atomically, in row chunks to keep memory low."""
    field = "complex" if np.iscomplexobj(vals) else "real"
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    chunk = 50_000
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate {field} {symmetry}\n")
        fh.write(f"% {note}\n")
        fh.write(f"{n} {n} {len(vals)}\n")
        for s in range(0, len(vals), chunk):
            fh.write(_format_lines(rows[s : s + chunk], cols[s : s + chunk], vals[s : s + chunk]))
    os.replace(tmp, path)


def cached_matrix_market(cache_dir: Path, kind: str, seed: int) -> Path:
    """Path of the generated ``banded`` or ``complex`` file for ``seed``,
    writing it first if it is not cached yet."""
    path = cache_dir / f"mm-{kind}-seed{seed}-v{CACHE_VERSION}.mtx"
    if path.is_file():
        return path
    cache_dir.mkdir(parents=True, exist_ok=True)
    if kind == "banded":
        rows, cols, vals = banded_spd_lower(seed)
        write_matrix_market(
            path, rows, cols, vals, BANDED_N, "symmetric",
            f"banded SPD, half-bandwidth {BANDED_HALF_BANDWIDTH}, seed {seed}",
        )
    elif kind == "complex":
        rows, cols, vals = complex_general(seed)
        write_matrix_market(path, rows, cols, vals, COMPLEX_N, "general", f"complex general, seed {seed}")
    else:
        raise ValueError(f"unknown matrix kind {kind!r}")
    return path


def reference_csr(kind: str, seed: int):
    """Full-storage scipy CSR of a generated file, built from the generator's
    arrays (not by parsing the file); the checks compare against it."""
    import scipy.sparse

    if kind == "banded":
        rows, cols, vals = banded_spd_lower(seed)
        off = rows != cols
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, vals[off]]),
        )
        n = BANDED_N
    else:
        rows, cols, vals = complex_general(seed)
        n = COMPLEX_N
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
