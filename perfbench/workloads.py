"""The benchmark workloads.

Each workload builds its operators through kryrec's constructors, then runs
a fixed sequence of solves through kryrec's public functions. Calls go
through module attributes (``kr.baseline.restarted_solve``), so the tracing
wrappers installed at those attributes see them.

Every solve yields a :class:`SolveRecord`, checked by the benchmark itself:
the true residual is recomputed with scipy from CSR data, and every operator
application is counted outside kryrec.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import time
import types
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

import inputs
from tracing import SpmvCounter, Tracer, patched

# Shared solver settings of every workload.
CYCLE_LENGTH = 40
TOL = 1e-8
MAX_CYCLES = 200
REORTH = True

MODULES = ("core", "arnoldi", "baseline", "augmented", "unprojected", "recycling", "io", "cli")


def load_kryrec() -> types.SimpleNamespace:
    """The eight kryrec modules, by short name."""
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"kryrec.{name}") for name in MODULES}
    )


@dataclass
class SolveRecord:
    label: str
    seconds: float
    matvecs: int  # operator applications counted by the benchmark
    cycles: int
    converged: bool
    finite: bool
    rel_residual: float
    digest: str  # hash of x (and of the history file, for the CLI)
    problems: list = field(default_factory=list)

    def failed(self) -> bool:
        return not (self.converged and self.finite and self.rel_residual <= TOL)


def scipy_csr(a):
    """scipy CSR built from a SparseMatrix's public CSR arrays."""
    return scipy.sparse.csr_matrix((a.values, a.col_indices, a.row_offsets), shape=a.shape)


def true_rel_residual(csr, b, x) -> float:
    return float(np.linalg.norm(b - csr @ x) / np.linalg.norm(b))


def digest(*arrays_or_bytes) -> str:
    h = hashlib.sha256()
    for item in arrays_or_bytes:
        h.update(item if isinstance(item, bytes) else np.ascontiguousarray(item).tobytes())
    return h.hexdigest()[:16]


class Workload:
    """Base: subclasses set ``name`` and implement ``build`` and ``sequence``."""

    name = ""

    def __init__(self, kr, seed: int, cache_dir, out_dir, tracer: Tracer):
        self.kr = kr
        self.seed = seed
        self.cache_dir = cache_dir
        self.out_dir = out_dir
        self.tracer = tracer

    def prepare(self):
        """Generate the benchmark's own inputs and cached files (never timed)."""

    def build(self):
        """Operators through kryrec's constructors; returns the state the
        sequence runs on. Timed as set-up."""
        raise NotImplementedError

    def references(self, state):
        """Benchmark-side reference data for the checks (never timed), with
        a list of ``problems`` found while making it."""
        return {"problems": []}

    def same_state(self, a, b) -> bool:
        """Whether two builds gave identical operators and right-hand sides."""
        return True

    def sequence(self, state, refs, max_cycles=MAX_CYCLES) -> list:
        raise NotImplementedError

    def params(self) -> dict:
        raise NotImplementedError

    def working_set(self) -> dict:
        return {}

    def config(self, max_cycles):
        return self.kr.baseline.SolverConfig(
            cycle_length=CYCLE_LENGTH, tol=TOL, max_cycles=max_cycles, reorth=REORTH, tol_mode="rel"
        )

    def counting_operator(self, a):
        """An OperatorHandle whose every application the benchmark counts."""
        counter = SpmvCounter(self.tracer, self.kr.core.spmv)
        return counter, self.kr.arnoldi.OperatorHandle(a.n_rows, lambda v: counter(a, v))


def _same_csr(a, b) -> bool:
    return (scipy_csr(a) != scipy_csr(b)).nnz == 0


class ColdLarge(Workload):
    """Restarted FOM and GMRES, no recycling, on the large deflated operator."""

    name = "cold-large"
    N = 50_000
    METHODS = ("fom", "gmres")

    def params(self):
        return {
            "n": self.N, "methods": list(self.METHODS), "k": 0,
            "planted_eigenvalues": [inputs.DELTA * (i + 1) for i in range(inputs.N_SMALL)],
            "bulk_shift": inputs.BULK_SHIFT, "rhs": "planted_rhs(default_rng(seed))",
        }

    def working_set(self):
        return {"krylov_basis_bytes": self.N * (CYCLE_LENGTH + 1) * 8, "vector_bytes": self.N * 8}

    def prepare(self):
        self.coo = inputs.deflated_spd_coo(self.N)
        self.b = inputs.planted_rhs(np.random.default_rng(self.seed), self.N)

    def build(self):
        a = self.kr.core.SparseMatrix.from_coo(*self.coo, (self.N, self.N))
        return {"a": a, "b": self.b}

    def references(self, state):
        rows, cols, vals = self.coo
        ref = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(self.N, self.N))
        csr = scipy_csr(state["a"])
        problems = [] if (csr != ref).nnz == 0 else ["SparseMatrix.from_coo changed the operator"]
        return {"csr": csr, "problems": problems}

    def same_state(self, s1, s2):
        return _same_csr(s1["a"], s2["a"]) and np.array_equal(s1["b"], s2["b"])

    def sequence(self, state, refs, max_cycles=MAX_CYCLES):
        cfg = self.config(max_cycles)
        a, b = state["a"], state["b"]
        out = []
        for method in self.METHODS:
            counter, op = self.counting_operator(a)
            t0 = time.perf_counter()
            res = self.kr.baseline.restarted_solve(op, b, None, cfg, method)
            seconds = time.perf_counter() - t0
            out.append(_record(method, seconds, counter.count, res, 0, refs["csr"], b))
        return out


def _record(label, seconds, counted, res, refresh_matvecs, csr, b, extra_digest=b"") -> SolveRecord:
    """Check one solve: its answer against the true residual, and the
    matvecs counted outside kryrec against what it reported."""
    x = np.asarray(res.x)
    finite = bool(np.all(np.isfinite(x)))
    rel = true_rel_residual(csr, b, x) if finite else float("inf")
    rec = SolveRecord(
        label=label, seconds=seconds, matvecs=counted, cycles=res.cycles_used,
        converged=bool(res.converged), finite=finite, rel_residual=rel,
        digest=digest(x, extra_digest),
    )
    if counted != res.matvec_count + refresh_matvecs:
        rec.problems.append(
            f"{label}: counted {counted} matvecs, kryrec reported {res.matvec_count} "
            f"plus {refresh_matvecs} in the refresh"
        )
    return rec


class RecycleFamily(Workload):
    """rfom and rgmres with Ritz recycling across two families of systems."""

    name = "recycle-family"
    N = 10_000
    COUNT = 5
    K = 10
    SIGMA_STEP = 2e-4
    EPS = 1e-4
    NNZ_PER_ROW = 5
    # (method, refresh policy)
    CONFIGS = (("rfom", "system"), ("rgmres", "system"), ("rgmres", "cycle"))
    FAMILIES = ("shifted", "perturbed")

    def params(self):
        return {
            "n": self.N, "count": self.COUNT, "k": self.K, "configs": [list(c) for c in self.CONFIGS],
            "shifted_sigmas": [self.SIGMA_STEP * i for i in range(self.COUNT)],
            "perturbed_eps": self.EPS, "perturbed_nnz_per_row": self.NNZ_PER_ROW,
            "rhs": "planted_rhs(default_rng([seed, family, system]))",
        }

    def working_set(self):
        return {"krylov_basis_bytes": self.N * (CYCLE_LENGTH + 1) * 8, "recycle_basis_bytes": 2 * self.N * self.K * 8}

    def prepare(self):
        self.coo = inputs.deflated_spd_coo(self.N)
        self.rhs = [
            [inputs.planted_rhs(np.random.default_rng([self.seed, f, i]), self.N) for i in range(self.COUNT)]
            for f in range(len(self.FAMILIES))
        ]

    def build(self):
        kr = self.kr
        base = kr.core.SparseMatrix.from_coo(*self.coo, (self.N, self.N))
        extra = {
            "shifted": {"sigmas": [self.SIGMA_STEP * i for i in range(self.COUNT)]},
            "perturbed": {"eps": self.EPS, "density": self.NNZ_PER_ROW / self.N},
        }
        families = []
        for kind, rhs in zip(self.FAMILIES, self.rhs):
            fam = kr.io.generate_family(kind, self.N, self.COUNT, {"seed": self.seed, "base": base, **extra[kind]})
            # Same operators, planted right-hand sides (see inputs.planted_rhs).
            systems = [(a, b, label) for (a, _, label), b in zip(fam, rhs)]
            families.append(kr.io.ProblemFamily(systems, provenance=fam.provenance))
        return {"families": families}

    def references(self, state):
        return {"csr": [[scipy_csr(a) for a, _, _ in fam] for fam in state["families"]], "problems": []}

    def same_state(self, s1, s2):
        return all(
            _same_csr(a1, a2) and np.array_equal(b1, b2)
            for f1, f2 in zip(s1["families"], s2["families"])
            for (a1, b1, _), (a2, b2, _) in zip(f1, f2)
        )

    def sequence(self, state, refs, max_cycles=MAX_CYCLES):
        kr = self.kr
        cfg = self.config(max_cycles)
        out = []
        for method, policy in self.CONFIGS:
            spec = kr.recycling.RecycleSpec(k=self.K, refresh_policy=kr.recycling.RefreshPolicy(policy))
            choice = kr.augmented.Constraint.GALERKIN if method == "rfom" else kr.augmented.Constraint.MINRES
            ortho = method == "rgmres"
            for fam, csrs in zip(state["families"], refs["csr"]):
                aug = None
                last_dec = None
                for (a, b, label), csr in zip(fam, csrs):
                    counter, op = self.counting_operator(a)
                    t0 = time.perf_counter()
                    if policy == "system" and last_dec is not None:
                        aug = kr.recycling.refresh(op, aug, last_dec, spec, choice, ortho)
                    refresh_matvecs = counter.count
                    recycler = kr.recycling.per_cycle_recycler(spec, choice, ortho) if policy == "cycle" else None
                    res = kr.unprojected.unproj_solve(op, b, None, aug, cfg, method, recycler=recycler)
                    seconds = time.perf_counter() - t0
                    last_dec = res.final_decomposition
                    out.append(_record(f"{method}/{policy}/{label}", seconds, counter.count, res, refresh_matvecs, csr, b))
        return out


class MmIngest(Workload):
    """``kryrec solve`` in-process on two generated Matrix Market files."""

    name = "mm-ingest"
    KINDS = ("banded", "complex")

    def params(self):
        return {
            "banded": {"n": inputs.BANDED_N, "half_bandwidth": inputs.BANDED_HALF_BANDWIDTH,
                       "diag_margin": inputs.BANDED_DIAG_MARGIN, "symmetry": "symmetric"},
            "complex": {"n": inputs.COMPLEX_N, "offsets": list(inputs.COMPLEX_OFFSETS),
                        "off_scale": inputs.COMPLEX_OFF_SCALE, "symmetry": "general"},
            "method": "gmres", "rhs": "kryrec --seed <seed>", "history": "csv",
        }

    def working_set(self):
        return {"krylov_basis_bytes": inputs.BANDED_N * (CYCLE_LENGTH + 1) * 8}

    def prepare(self):
        self.paths = {kind: inputs.cached_matrix_market(self.cache_dir, kind, self.seed) for kind in self.KINDS}

    def build(self):
        # The CLI builds its own operators from the files; set-up is the
        # import of the CLI module.
        importlib.import_module("kryrec.cli")
        return {}

    def references(self, state):
        out = {"problems": []}
        for kind in self.KINDS:
            ref = inputs.reference_csr(kind, self.seed)
            out[kind] = (ref, inputs.cli_rhs(self.seed, ref.shape[0]))
        return out

    def sequence(self, state, refs, max_cycles=MAX_CYCLES):
        kr = self.kr
        counter = SpmvCounter(self.tracer, kr.arnoldi.spmv)
        seen = {}

        def capture_read(fn):
            def read(path):
                seen["a"] = fn(path)
                return seen["a"]
            return read

        def capture_solve(fn):
            def solve(op, b, *args, **kwargs):
                seen["b"] = b
                seen["res"] = fn(op, b, *args, **kwargs)
                return seen["res"]
            return solve

        out = []
        with patched([
            (kr.arnoldi, "spmv", counter),
            (kr.cli, "read_matrix_market", capture_read(kr.cli.read_matrix_market)),
            (kr.cli, "restarted_solve", capture_solve(kr.cli.restarted_solve)),
        ]):
            for kind in self.KINDS:
                history = self.out_dir / f"history-{kind}-seed{self.seed}.csv"
                argv = [
                    "solve", "--matrix", str(self.paths[kind]), "--method", "gmres",
                    "-m", str(CYCLE_LENGTH), "--tol", repr(TOL), "--tol-mode", "rel",
                    "--reorth", "on" if REORTH else "off", "--max-cycles", str(max_cycles),
                    "--seed", str(self.seed), "--out", str(history), "--format", "csv",
                ]
                seen.clear()
                before = counter.count
                stdout = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(stdout):
                    code = kr.cli.cli_main(argv)
                seconds = time.perf_counter() - t0
                out.append(self._check(kind, seconds, counter.count - before, code, seen, history, refs[kind]))
        return out

    def _check(self, kind, seconds, counted, code, seen, history, ref):
        ref_csr, ref_b = ref
        res = seen["res"]
        data = history.read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode("ascii"))))
        rec = _record(f"gmres/{kind}", seconds, counted, res, 0, ref_csr, ref_b, data)
        if code != 0:
            rec.converged = False
            rec.problems.append(f"{kind}: kryrec solve exited {code}")
        if (scipy_csr(seen["a"]) != ref_csr).nnz:
            rec.problems.append(f"{kind}: parsed matrix differs from the generated one")
        if not np.array_equal(seen["b"], ref_b):
            rec.problems.append(f"{kind}: right-hand side differs from the documented --seed vector")
        if not rows or int(rows[-1]["matvecs"]) != counted:
            rec.problems.append(f"{kind}: history reports {rows[-1]['matvecs'] if rows else None} matvecs, counted {counted}")
        if not rows or int(rows[-1]["cycle"]) != res.cycles_used:
            rec.problems.append(f"{kind}: history cycles disagree with the solve result")
        return rec


WORKLOADS = {cls.name: cls for cls in (ColdLarge, RecycleFamily, MmIngest)}
