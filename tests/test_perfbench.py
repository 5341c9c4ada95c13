"""The benchmark's family loop at toy size: a library change that breaks the
benchmark's positional ``refresh``/``per_cycle_recycler`` calls or its matvec
accounting, or that moves its recycled counts, fails here, not first in a
benchmark run."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # its modules import each other by bare name
    import workloads

    return workloads


def test_recycle_family_runs_clean_at_toy_size(workloads, tmp_path):
    class Toy(workloads.RecycleFamily):
        N, COUNT = 600, 2

    w = Toy(workloads.load_kryrec(), 0, tmp_path / "cache", tmp_path / "out", workloads.Tracer())
    w.prepare()
    state = w.build()
    refs = w.references(state)
    records = w.sequence(state, refs)
    assert refs["problems"] == []
    assert len(records) == len(Toy.CONFIGS) * len(Toy.FAMILIES) * Toy.COUNT
    for rec in records:
        assert rec.problems == [] and not rec.failed(), rec
    # the totals of the Ritz-eigenvector basis, which an orthonormal Schur basis keeps
    assert (sum(r.matvecs for r in records), sum(r.cycles for r in records)) == (1739, 45)
