"""Problem ingestion and result persistence.

Matrix Market coordinate files (real/complex, general/symmetric) are parsed
into :class:`~kryrec.core.SparseMatrix`; synthetic problem families provide
deterministic desk-scale sequences of systems; convergence histories are
written as CSV (or an equivalent JSON mirror).
"""

from __future__ import annotations

import csv
import io
import json
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .core import SparseMatrix

__all__ = [
    "MatrixMarketError",
    "ProblemFamily",
    "ConvergenceRecord",
    "read_matrix_market",
    "generate_family",
    "write_history",
    "read_history",
    "tridiagonal_matrix",
]

# np.loadtxt reads a body of only these bytes exactly as the per-line loop does
_NUMERIC_BODY = b"0123456789+-.eE \t\n"
# a whole-line comment that str.splitlines does not break (dropped with the \n before it)
_COMMENT_LINE = re.compile(rb"\n[ \t]*%[^\n\x0b\x0c\x1c-\x1e]*(?=\n|\Z)")
# header, comments, size line, in bytes with every \r already read as \n;
# [ \t\x0b\x0c\x1c-\x1f] is the rest of str.isspace()
_HEAD = re.compile(rb"[^\n]*\n?(?:[ \t\x0b\x0c\x1c-\x1f]*(?:%[^\n]*)?\n)*[^\n]*\n?")
HISTORY_COLUMNS = ["solver", "system_label", "cycle", "matvecs", "residual_norm", "wall_time_ms"]


class MatrixMarketError(ValueError):
    """Malformed or unsupported Matrix Market content, with the line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"{message}{where}")


@dataclass
class ProblemFamily:
    """Ordered sequence of systems sharing one dimension."""

    systems: list  # (SparseMatrix, ndarray rhs, str label)
    provenance: str = ""

    def __post_init__(self):
        if not self.systems:
            raise ValueError("a problem family needs at least one system")
        n = self.systems[0][0].n_rows
        for a, b, _ in self.systems:
            if a.n_rows != n or a.n_cols != n or b.shape != (n,):
                raise ValueError("all systems in a family must share one dimension")

    def __len__(self):
        return len(self.systems)

    def __iter__(self):
        return iter(self.systems)


@dataclass
class ConvergenceRecord:
    """One history row; ``wall_time`` is in milliseconds (the file unit, so
    written values round-trip exactly)."""

    solver: str
    system_label: str
    cycle: int
    matvecs: int
    residual_norm: float
    wall_time: float = 0.0

    def __post_init__(self):
        if self.residual_norm < 0:
            raise ValueError("residual_norm must be nonnegative")


def read_matrix_market(path) -> SparseMatrix:
    """Parse a Matrix Market coordinate file.

    Supports real/complex values and general/symmetric storage; symmetric
    files are expanded to full storage, 1-based indices converted, duplicate
    entries summed. Pattern and array formats are rejected. numpy's C reader
    parses a body of plain numbers; the per-line loop, which gives every error
    its line number, parses any body that reader or its checks refuse.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        bad = re.search(rb"[\x80-\xff]", data).start()
        # its line as the loop counts lines: one more than the breaks before it
        raise MatrixMarketError(
            f"non-ASCII byte {data[bad]:#04x}", len((data[:bad].decode("ascii") + ".").splitlines())
        )
    if b"\r" in data:  # text mode's newlines: \r\n, then any other \r, read as \n
        data = data.replace(b"\r\n", b"\n")
        data = data.replace(b"\r", b"\n")
    cut = _HEAD.match(data).end()
    lines = data[:cut].decode("ascii").splitlines()  # a prefix of the file's str.splitlines()
    body = [data[cut:]]  # the rest, held once: _numeric_body empties the list
    del data
    if not lines:
        raise MatrixMarketError("empty file", 1)
    header = lines[0].strip().split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise MatrixMarketError("missing %%MatrixMarket header", 1)
    _, obj, fmt, fieldtype, symmetry = (t.lower() for t in header)
    if obj != "matrix":
        raise MatrixMarketError(f"unsupported object {obj!r}", 1)
    if fmt != "coordinate":
        raise MatrixMarketError(f"unsupported format {fmt!r} (coordinate only)", 1)
    if fieldtype not in ("real", "complex", "integer"):
        raise MatrixMarketError(f"unsupported field {fieldtype!r}", 1)
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(f"unsupported symmetry {symmetry!r}", 1)

    idx = 1
    while idx < len(lines) and (not lines[idx].strip() or lines[idx].lstrip().startswith("%")):
        idx += 1
    if idx >= len(lines):
        raise MatrixMarketError("missing size line", len(lines))
    size_parts = lines[idx].split()
    if len(size_parts) != 3:
        raise MatrixMarketError("size line must be 'rows cols nnz'", idx + 1)
    try:
        n_rows, n_cols, nnz = (int(t) for t in size_parts)
    except ValueError as exc:
        raise MatrixMarketError(f"bad size line: {exc}", idx + 1) from exc

    complex_vals = fieldtype == "complex"
    if idx == len(lines) - 1:  # else str.splitlines saw more breaks than _HEAD
        try:
            coo = _numeric_body(body, complex_vals, symmetry, n_rows, n_cols, nnz)
        except (ValueError, Warning):
            pass
        else:
            return SparseMatrix.from_coo(*coo, (n_rows, n_cols))
    # the head ends at a \n or at the end of the file, so the two splits join
    lines += body.pop().decode("ascii").splitlines()
    rows, cols, vals = [], [], []
    seen = 0
    for line_no in range(idx + 1, len(lines)):
        raw = lines[line_no].strip()
        if not raw or raw.startswith("%"):
            continue
        parts = raw.split()
        want = 4 if complex_vals else 3
        if len(parts) != want:
            raise MatrixMarketError(
                f"expected {want} fields per entry, got {len(parts)}", line_no + 1
            )
        try:
            i = int(parts[0]) - 1
            j = int(parts[1]) - 1
            if complex_vals:
                v = complex(float(parts[2]), float(parts[3]))
            else:
                v = float(parts[2])
        except ValueError as exc:
            raise MatrixMarketError(f"bad entry: {exc}", line_no + 1) from exc
        if not (0 <= i < n_rows and 0 <= j < n_cols):
            raise MatrixMarketError(f"index ({i + 1},{j + 1}) out of range", line_no + 1)
        rows.append(i)
        cols.append(j)
        vals.append(v)
        if symmetry == "symmetric" and i != j:
            rows.append(j)
            cols.append(i)
            vals.append(v)
        seen += 1
    if seen != nnz:
        raise MatrixMarketError(f"header promised {nnz} entries, found {seen}")
    return SparseMatrix.from_coo(rows, cols, vals, (n_rows, n_cols))


def _numeric_body(body: list, complex_vals: bool, symmetry: str, n_rows: int, n_cols: int, nnz: int):
    """The loop's COO triplets, read by np.loadtxt from ``body``, a list holding
    the bytes after the size line. Raises ``ValueError`` or a warning where the
    loop must decide; once it cannot, empties ``body``, and drops every array
    as soon as the next one is built, so each stage is held once."""
    data = body[0]
    if b"%" in data:
        data = _COMMENT_LINE.sub(b"", b"\n" + data)
    if data.translate(None, _NUMERIC_BODY):
        raise ValueError("body is not plain numbers")
    dtype = [("i", np.int64), ("j", np.int64), ("v", np.float64, (1 + complex_vals,))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty body only warns
        e = np.loadtxt(io.BytesIO(data), dtype=dtype, ndmin=1)
    i, j = e["i"] - 1, e["j"] - 1
    if len(e) != nnz or not np.all((i >= 0) & (i < n_rows) & (j >= 0) & (j < n_cols)):
        raise ValueError("entry count or index out of range")
    body.clear()
    del data
    # (re, im) pairs reinterpreted, so every bit is the parsed one
    vals = np.ascontiguousarray(e["v"]).view(np.complex128 if complex_vals else np.float64)[:, 0]
    del e
    if symmetry == "symmetric":
        # each entry then its mirror, the loop's order, so duplicates sum alike
        reps = 1 + (i != j)
        i = np.repeat(i, reps)
        j = np.repeat(j, reps)
        vals = np.repeat(vals, reps)
        mirror = np.cumsum(reps)[reps == 2] - 1
        i[mirror], j[mirror] = j[mirror], i[mirror]
    return i, j, vals


def tridiagonal_matrix(n: int, lower=-1.0, diag=2.0, upper=-1.0) -> SparseMatrix:
    """Standard second-difference style tridiagonal test operator."""
    i = np.arange(n)
    rows = np.concatenate([i[1:], i, i[:-1]])
    cols = np.concatenate([i[:-1], i, i[1:]])
    vals = np.repeat([lower, diag, upper], [max(n - 1, 0), n, max(n - 1, 0)])
    return SparseMatrix.from_coo(rows, cols, vals, (n, n))


def _random_unit_vector(rng, n: int) -> np.ndarray:
    b = rng.standard_normal(n)
    return b / np.linalg.norm(b)


def _random_sparse(rng, n: int, density: float) -> SparseMatrix:
    nnz = max(1, int(density * n * n))
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    vals = rng.standard_normal(nnz)
    return SparseMatrix.from_coo(rows, cols, vals, (n, n))


def generate_family(kind: str, n: int, count: int, params: dict | None = None) -> ProblemFamily:
    """Deterministic synthetic problem family.

    Kinds: ``tridiag`` repeats the tridiagonal operator with fresh right-hand
    sides; ``shifted`` adds per-system diagonal shifts to a base operator;
    ``perturbed`` adds per-system scaled sparse random perturbations. All
    randomness comes from ``params['seed']`` (default 0).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    params = dict(params or {})
    kind = kind.lower()
    seed = int(params.pop("seed", 0))
    rng = np.random.default_rng(seed)

    base = params.pop("base", None)
    if base is None:
        base = tridiagonal_matrix(n)
    if base.n_rows != n:
        raise ValueError("base operator size does not match n")

    systems = []
    if kind == "tridiag":
        for i in range(count):
            systems.append((base, _random_unit_vector(rng, n), f"tridiag-{i}"))
        provenance = f"tridiag(n={n},count={count},seed={seed})"
    elif kind == "shifted":
        sigmas = params.pop("sigmas", [0.1 * i for i in range(count)])
        if len(sigmas) != count:
            raise ValueError(f"need {count} shifts, got {len(sigmas)}")
        eye = SparseMatrix.identity(n)
        for i, sigma in enumerate(sigmas):
            shifted = _scaled_sum(base, sigma, eye)
            systems.append((shifted, _random_unit_vector(rng, n), f"shifted-{i}"))
        provenance = f"shifted(n={n},count={count},sigmas={list(sigmas)},seed={seed})"
    elif kind == "perturbed":
        eps = params.pop("eps", 1e-3)
        density = params.pop("density", 0.01)
        for i in range(count):
            combined = _scaled_sum(base, eps, _random_sparse(rng, n, density))
            systems.append((combined, _random_unit_vector(rng, n), f"perturbed-{i}"))
        provenance = f"perturbed(n={n},count={count},eps={eps},density={density},seed={seed})"
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    if params:
        raise ValueError(f"unused family parameters: {sorted(params)}")
    return ProblemFamily(systems, provenance)


def _scaled_sum(base: SparseMatrix, scale: float, other: SparseMatrix) -> SparseMatrix:
    """``base + scale * other`` in ``base``'s shape, by one COO assembly."""
    rows = [np.repeat(np.arange(a.n_rows), np.diff(a.row_offsets)) for a in (base, other)]
    return SparseMatrix.from_coo(
        np.concatenate(rows),
        np.concatenate([base.col_indices, other.col_indices]),
        np.concatenate([base.values, scale * other.values]),
        base.shape,
    )


def write_history(records, path, format: str = "csv") -> None:
    """Persist convergence records; CSV columns are fixed and floats use the
    shortest round-trip decimal form."""
    fmt = format.lower()
    rows = [
        [r.solver, r.system_label, r.cycle, r.matvecs, float(r.residual_norm), float(r.wall_time)]
        for r in records
    ]
    if fmt == "csv":  # csv writes a float as its repr
        with open(path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(HISTORY_COLUMNS)
            writer.writerows(rows)
    elif fmt == "json":
        with open(path, "w", encoding="ascii") as fh:
            json.dump([dict(zip(HISTORY_COLUMNS, row)) for row in rows], fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown history format {format!r}")


def read_history(path) -> list:
    """Parse a CSV history file back into records (round-trip helper)."""
    out = []
    with open(path, "r", newline="", encoding="ascii") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != HISTORY_COLUMNS:
            raise ValueError(f"unexpected history columns: {reader.fieldnames}")
        for row in reader:
            out.append(
                ConvergenceRecord(
                    solver=row["solver"],
                    system_label=row["system_label"],
                    cycle=int(row["cycle"]),
                    matvecs=int(row["matvecs"]),
                    residual_norm=float(row["residual_norm"]),
                    wall_time=float(row["wall_time_ms"]),
                )
            )
    return out
