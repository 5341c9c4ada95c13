"""Spans recorded from outside kryrec, at the binding sites of its layers.

kryrec modules import each other with ``from .x import y``, so a function is
reachable under several module attributes (``kryrec.baseline.arnoldi`` and
``kryrec.unprojected.arnoldi`` are both the Arnoldi process). A span is
recorded by replacing every such attribute with a wrapper for the duration
of a ``with patched(...)`` block and restoring the originals afterwards.

Spans are kept in memory as ``[name, start, end, parent, phase, extra]``
rows and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
import time
from collections import defaultdict

import numpy as np

# Benchmark-side work done inside a traced call (annotations such as the
# orthogonality loss). It is a child span, so no layer's self time includes
# it, and it is left out of every layer metric.
CHECK = "bench.check"

# (module, attribute, span name): every binding site of each traced layer.
# A site whose attribute no longer exists is skipped, so the table survives
# refactors that remove an internal name.
SITES = [
    ("kryrec.baseline", "arnoldi", "arnoldi.arnoldi"),
    ("kryrec.unprojected", "arnoldi", "arnoldi.arnoldi"),
    ("kryrec.augmented", "arnoldi", "arnoldi.arnoldi"),
    ("kryrec.baseline", "dense_solve", "core.dense_solve"),
    ("kryrec.unprojected", "dense_solve", "core.dense_solve"),
    ("kryrec.augmented", "dense_solve", "core.dense_solve"),
    ("kryrec.baseline", "dense_lstsq", "core.dense_lstsq"),
    ("kryrec.recycling", "small_eig", "core.small_eig"),
    ("kryrec.baseline", "inner_residual_norms", "baseline.inner_residual_norms"),
    ("kryrec.unprojected", "inner_residual_norms", "baseline.inner_residual_norms"),
    ("kryrec.baseline", "restarted_solve", "baseline.restarted_solve"),
    ("kryrec.cli", "restarted_solve", "baseline.restarted_solve"),
    ("kryrec.unprojected", "build_augmentation", "augmented.build_augmentation"),
    ("kryrec.recycling", "build_augmentation", "augmented.build_augmentation"),
    ("kryrec.unprojected", "compute_coupling", "augmented.compute_coupling"),
    ("kryrec.unprojected", "z_correction", "augmented.z_correction"),
    ("kryrec.unprojected", "projected_residual", "augmented.projected_residual"),
    ("kryrec.unprojected", "unproj_rfom_cycle", "unprojected.cycle"),
    ("kryrec.unprojected", "unproj_rgmres_cycle", "unprojected.cycle"),
    ("kryrec.unprojected", "unproj_solve", "unprojected.unproj_solve"),
    ("kryrec.cli", "unproj_solve", "unprojected.unproj_solve"),
    ("kryrec.recycling", "refresh", "recycling.refresh"),
    ("kryrec.cli", "refresh", "recycling.refresh"),
    ("kryrec.recycling", "extract_ritz", "recycling.extract_ritz"),
    ("kryrec.io", "generate_family", "io.generate_family"),
    ("kryrec.cli", "generate_family", "io.generate_family"),
    ("kryrec.cli", "read_matrix_market", "io.read_matrix_market"),
    ("kryrec.cli", "write_history", "io.write_history"),
    ("kryrec.cli", "cli_main", "cli.cli_main"),
]

# Loops that own the restart cycle: a matvec made directly under one of
# them (not inside Arnoldi or a refresh) is a drift check or an initial
# residual.
SOLVE_LOOPS = ("baseline.restarted_solve", "unprojected.unproj_solve")


class Tracer:
    """In-memory span recorder. Disabled, :meth:`call` is a plain call."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.phase = None
        self.spans = []
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = self.clock()
            self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield None
            return
        rec = self._open(name)
        try:
            yield rec
        finally:
            rec[2] = self.clock()
            self._stack.pop()

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.phase, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = self.clock()
        return rec

    def annotate(self, rec_index, fn):
        """Run ``fn()`` (benchmark-side) under a check span; store its dict
        result on span ``rec_index``."""
        with self.span(CHECK):
            self.spans[rec_index][5] = fn()

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, start, end, parent, phase, extra) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end, "parent": parent, "phase": phase}
                if extra:
                    row["extra"] = {k: v for k, v in extra.items() if isinstance(v, (int, float, str))}
                fh.write(json.dumps(row) + "\n")


def _annotator(span_name, args, kwargs, result):
    """Extra data recorded for a finished span, or ``None``."""
    if span_name == "arnoldi.arnoldi":
        reorth = kwargs.get("reorth", args[3] if len(args) > 3 else True)
        return lambda: arnoldi_extra(result, reorth)
    if span_name == "io.read_matrix_market":
        path = args[0]
        return lambda: read_extra(path)
    if span_name == "io.write_history":
        records = args[0]
        return lambda: {"rows": len(records)}
    return None


def arnoldi_extra(dec, reorth) -> dict:
    """Steps, breakdown, computed bytes of the modified Gram-Schmidt loop, and
    the orthogonality loss ``||I - V^H V||_2`` of the returned basis.

    Byte model: each projection of ``w`` on ``v_i`` reads two vectors for the
    inner product and reads two and writes one for the update (5 vector
    passes); each step adds 3 for the norm and the scaling. A second pass
    doubles the projections.
    """
    v = dec.v
    n, ncols = v.shape
    steps = int(dec.j)
    passes = 2 if reorth else 1
    projections = passes * steps * (steps + 1) // 2
    vec_bytes = n * v.dtype.itemsize
    gram = v.conj().T @ v
    loss = float(np.linalg.norm(np.eye(ncols) - gram, 2)) if ncols else 0.0
    return {
        "steps": steps,
        "breakdown": int(dec.breakdown is not None),
        "orth_bytes": (5 * projections + 3 * steps) * vec_bytes,
        "orth_loss": loss,
    }


def read_extra(path) -> dict:
    """Entries promised by the size line, and the file size in bytes."""
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if not line.startswith("%"):
                entries = int(line.split()[2])
                break
    return {"entries": entries, "file_bytes": os.path.getsize(path)}


def spmv_bytes(a, x_dtype) -> int:
    """Computed bytes of one CSR product: the stored CSR arrays read once,
    ``x`` read once, ``y`` written once."""
    x_item = np.dtype(x_dtype).itemsize
    y_item = np.result_type(a.values.dtype, x_dtype).itemsize
    return int(
        a.values.nbytes + a.col_indices.nbytes + a.row_offsets.nbytes
        + x_item * a.n_cols + y_item * a.n_rows
    )


def make_wrapper(tracer: Tracer, span_name: str, fn):
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        index = len(tracer.spans)
        result = tracer.call(span_name, fn, *args, **kwargs)
        extra = _annotator(span_name, args, kwargs, result)
        if extra is not None:
            tracer.annotate(index, extra)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


@contextlib.contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples; restore them on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def trace_replacements(tracer: Tracer):
    """Wrappers for every binding site in :data:`SITES`, plus
    ``SparseMatrix.from_coo`` (a classmethod, patched on the class)."""
    out = []
    for module_name, attr, span_name in SITES:
        module = importlib.import_module(module_name)
        if attr in module.__dict__:
            out.append((module, attr, make_wrapper(tracer, span_name, module.__dict__[attr])))
    core = importlib.import_module("kryrec.core")
    cls = core.SparseMatrix
    original = cls.__dict__["from_coo"].__func__

    def from_coo(klass, *args, **kwargs):
        return tracer.call("core.from_coo", original, klass, *args, **kwargs)

    out.append((cls, "from_coo", classmethod(from_coo)))
    return out


class SpmvCounter:
    """Counts (and, when tracing, times) every sparse product.

    Used as the apply function of a counting ``OperatorHandle`` and, for the
    CLI, in place of ``kryrec.arnoldi.spmv``.
    """

    def __init__(self, tracer: Tracer, spmv):
        self.tracer = tracer
        self.spmv = spmv
        self.count = 0

    def __call__(self, a, x):
        self.count += 1
        tracer = self.tracer
        if not tracer.enabled:
            return self.spmv(a, x)
        index = len(tracer.spans)
        y = tracer.call("core.spmv", self.spmv, a, x)
        # Only references are stored here; bytes are computed at the end.
        tracer.spans[index][5] = {"a": a, "x_dtype": x.dtype}
        return y


def _self_times(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _, _), c in zip(spans, child)]


def _ancestors(spans, i):
    names = []
    parent = spans[i][3]
    while parent >= 0:
        names.append(spans[parent][0])
        parent = spans[parent][3]
    return names


def phase_totals(spans) -> dict:
    """Per phase, the layer totals: ``{phase: {metric: value}}``."""
    selft = _self_times(spans)
    per_phase = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, phase, extra) in enumerate(spans):
        if name == CHECK:
            continue
        t = per_phase[phase]
        t[f"{name}.calls"] += 1
        t[f"{name}.s"] += end - start
        t[f"{name}.self_s"] += selft[i]
        if name == "core.spmv":
            t["core.spmv.bytes"] += spmv_bytes(extra["a"], extra["x_dtype"])
            up = _ancestors(spans, i)
            if "augmented.build_augmentation" in up:
                t["augmented.build_augmentation.matvecs"] += 1
            if "recycling.refresh" in up:
                t["recycling.refresh.matvecs"] += 1
            if parent >= 0 and spans[parent][0] in SOLVE_LOOPS:
                t["baseline.drift_check_matvecs"] += 1
        elif name == "arnoldi.arnoldi" and extra:
            t["arnoldi.arnoldi.steps"] += extra["steps"]
            t["arnoldi.breakdowns"] += extra["breakdown"]
            t["arnoldi.orth_bytes"] += extra["orth_bytes"]
            t["arnoldi.orth_loss.max"] = max(t["arnoldi.orth_loss.max"], extra["orth_loss"])
        elif name == "io.read_matrix_market" and extra:
            t["io.read_matrix_market.entries"] += extra["entries"]
            t["io.read_matrix_market.bytes"] += extra["file_bytes"]
        elif name == "io.write_history" and extra:
            t["io.write_history.rows"] += extra["rows"]
    return {phase: dict(t) for phase, t in per_phase.items()}


def check_seconds(spans) -> dict:
    """Benchmark-side check time per phase."""
    out = defaultdict(float)
    for name, start, end, _, phase, _ in spans:
        if name == CHECK:
            out[phase] += end - start
    return out


def _ratio(num, den):
    return lambda t: t.get(num, 0.0) / t[den] if t.get(den) else 0.0


# Per-layer metrics: name -> (unit, function of the phase totals ``t``);
# ``None`` reads the phase total of the same name.
LAYER_METRICS = {
    "arnoldi.arnoldi.calls": ("count", None),
    "arnoldi.arnoldi.steps": ("count", None),
    "arnoldi.arnoldi.self_s": ("s", None),
    "arnoldi.orth_s_per_step": ("s", _ratio("arnoldi.arnoldi.self_s", "arnoldi.arnoldi.steps")),
    "arnoldi.orth_gb_computed": ("GB", lambda t: t.get("arnoldi.orth_bytes", 0) / 1e9),
    "arnoldi.orth_loss.max": ("1", None),
    "arnoldi.breakdowns": ("count", None),
    "core.spmv.calls": ("count", None),
    "core.spmv.s": ("s", None),
    "core.spmv.gb_computed": ("GB", lambda t: t.get("core.spmv.bytes", 0) / 1e9),
    "core.dense_solve.calls": ("count", None),
    "core.dense_solve.s": ("s", None),
    "core.dense_lstsq.calls": ("count", None),
    "core.dense_lstsq.s": ("s", None),
    "core.small_eig.calls": ("count", None),
    "core.small_eig.s": ("s", None),
    "core.from_coo.s": ("s", None),
    "baseline.inner_residual_norms.calls": ("count", None),
    "baseline.inner_residual_norms.s": ("s", None),
    "baseline.restarted_solve.self_s": ("s", None),
    "baseline.drift_check_matvecs": ("count", None),
    "augmented.build_augmentation.calls": ("count", None),
    "augmented.build_augmentation.s": ("s", None),
    "augmented.build_augmentation.matvecs": ("count", None),
    "augmented.compute_coupling.calls": ("count", None),
    "augmented.compute_coupling.s": ("s", None),
    "augmented.z_correction.s": ("s", None),
    "augmented.projected_residual.s": ("s", None),
    "unprojected.unproj_solve.self_s": ("s", None),
    "unprojected.cycle.self_s": ("s", None),
    "recycling.refresh.calls": ("count", None),
    "recycling.refresh.s": ("s", None),
    "recycling.refresh.self_s": ("s", None),
    "recycling.refresh.matvecs": ("count", None),
    "recycling.extract_ritz.s": ("s", None),
    "io.read_matrix_market.calls": ("count", None),
    "io.read_matrix_market.s": ("s", None),
    "io.read_matrix_market.self_s": ("s", None),
    "io.read_matrix_market.entries_per_s": (
        "1/s", _ratio("io.read_matrix_market.entries", "io.read_matrix_market.s")
    ),
    "io.read_matrix_market.mb_per_s": (
        "MB/s", lambda t: _ratio("io.read_matrix_market.bytes", "io.read_matrix_market.s")(t) / 1e6
    ),
    "io.write_history.s": ("s", None),
    "io.write_history.rows": ("count", None),
    "io.generate_family.s": ("s", None),
    "cli.cli_main.self_s": ("s", None),
}


def layer_metrics(spans, build_phase, sequence_phases) -> tuple[dict, list]:
    """Per-layer metrics for one workload pass: the build phase (operators
    made before the first solve) plus the median over traced sequences.

    Returns ``(metrics, problems)``; counts must repeat exactly across the
    traced sequences, otherwise a problem is reported.
    """
    totals = phase_totals(spans)
    build = totals.get(build_phase, {})
    passes = [_merge(build, totals.get(p, {})) for p in sequence_phases] or [build]
    out, problems = {}, []
    for name, (unit, fn) in LAYER_METRICS.items():
        values = [fn(t) if fn else t.get(name, 0) for t in passes]
        if unit == "count":
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced sequences: {values}")
            out[name] = (int(values[0]), unit)
        else:
            out[name] = (statistics.median(values), unit)
    return out, problems


def _merge(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, value in b.items():
        if key.endswith(".max"):
            out[key] = max(out.get(key, value), value)
        else:
            out[key] = out.get(key, 0) + value
    return out
