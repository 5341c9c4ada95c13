"""The benchmark's family loop and restarted solves at toy size: a library
change that breaks the benchmark's positional ``refresh``/``per_cycle_recycler``
calls or its matvec accounting, or that moves its recycled or cold counts, fails
here, not first in a benchmark run; so does one that orphans a binding site the
tracer patches."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # its modules import each other by bare name
    import workloads

    return workloads


def run_clean(workloads, toy, tmp_path):
    """One seed-0 sequence of a toy-sized workload, every check passed."""
    w = toy(workloads.load_kryrec(), 0, tmp_path / "cache", tmp_path / "out", workloads.Tracer())
    w.prepare()
    state = w.build()
    refs = w.references(state)
    records = w.sequence(state, refs)
    assert refs["problems"] == []
    for rec in records:
        assert rec.problems == [] and not rec.failed(), rec
    return records


def test_recycle_family_runs_clean_at_toy_size(workloads, tmp_path):
    class Toy(workloads.RecycleFamily):
        N, COUNT = 600, 2

    records = run_clean(workloads, Toy, tmp_path)
    assert len(records) == len(Toy.CONFIGS) * len(Toy.FAMILIES) * Toy.COUNT
    # the totals of the Ritz-eigenvector basis, which an orthonormal Schur basis keeps
    assert (sum(r.matvecs for r in records), sum(r.cycles for r in records)) == (1739, 45)


def test_cold_large_runs_clean_at_toy_size(workloads, tmp_path):
    class Toy(workloads.ColdLarge):
        N = 2_000

    records = run_clean(workloads, Toy, tmp_path)
    assert [(r.label, r.matvecs, r.cycles) for r in records] == [("fom", 266, 7), ("gmres", 242, 7)]


# Sites in perfbench's table that name no attribute of the library. The tracer
# skips such a site, so a library move that orphans a live one would silently
# read 0 for its layer metric; this set pins which ones are expected dead.
DEAD_SITES = {
    ("kryrec.unprojected", "arnoldi"),
    ("kryrec.unprojected", "dense_solve"),
    ("kryrec.unprojected", "compute_coupling"),
    ("kryrec.unprojected", "z_correction"),
    ("kryrec.unprojected", "projected_residual"),
    ("kryrec.unprojected", "inner_residual_norms"),
    ("kryrec.baseline", "inner_residual_norms"),
    ("kryrec.recycling", "small_eig"),
    ("kryrec.recycling", "build_augmentation"),
    ("kryrec.cli", "unproj_solve"),
    ("kryrec.cli", "refresh"),
}


def test_every_traced_binding_site_binds_but_the_known_dead_ones(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    unbound = {
        (module, attr) for module, attr, _ in tracing.SITES if attr not in vars(importlib.import_module(module))
    }
    assert unbound == DEAD_SITES
