"""Entry point of the kryrec benchmark.

    python3 perfbench/run.py --workload cold-large --seed 0 --seconds 30 --trace 0

Runs one workload (see ``perfbench/README.md``) from the root of a source
checkout, against ``src/kryrec``. Set-up is timed in fresh interpreters
(``setup_probe.py``); then one untimed warm-up pass runs, then whole
sequences of solves repeat for about ``--seconds``. Every answer is
checked by the benchmark itself.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced sequences and reports the per-layer metrics and the
tracing overhead. Human-readable lines come first; the last line of
standard output is one JSON object. The exit code is 0 only when every check
passed. Full results (and, traced, all spans) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE_DIR = ROOT / ".perfbench_cache"
OUT_DIR = ROOT / ".perfbench_out"

# One BLAS thread: steadier timings on a small shared machine. Set before
# numpy is imported; a value already in the environment is kept and recorded.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description="kryrec benchmark")
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def environment() -> dict:
    """Versions, BLAS, CPU and thread settings the numbers were taken with."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpu_model": None,
        "caches": {},
    }
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_root.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            env["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return env


def setup_probe(workload: str, seed: int) -> float:
    """Set-up (import plus operator build) timed in a fresh interpreter,
    which is waited for."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        fail(f"set-up probe failed:\n{proc.stderr}", 1)
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["import_s"] + probe["build_s"]


def run_sequences(workload, state, refs, tracer, seconds, trace, replacements, between):
    """Repeat the workload's sequence for about ``seconds`` of sequence time:
    stop once less than half an average sequence is left. ``between()`` runs
    after each sequence, outside that time.

    Traced runs alternate untraced (even) and traced (odd) sequences, and
    run at least one of each. Returns ``[(traced, records)]``.
    """
    from tracing import patched

    runs = []
    spent = 0.0
    while True:
        start = time.perf_counter()
        traced = trace and len(runs) % 2 == 1
        if traced:
            tracer.phase = len(runs)
            tracer.enabled = True
            try:
                with patched(replacements):
                    records = workload.sequence(state, refs)
            finally:
                tracer.enabled = False
        else:
            records = workload.sequence(state, refs)
        runs.append((traced, records))
        spent += time.perf_counter() - start
        between()
        if spent + spent / len(runs) / 2 >= seconds and (not trace or len(runs) >= 2):
            return runs


def check_runs(runs) -> tuple[int, int, list]:
    """Attempted and failed solves, plus every violated check: failed solves,
    matvec accounting, and counts or answers that differ between sequences
    (traced or not) of the same inputs."""
    attempted = failed = 0
    problems = []
    first = runs[0][1]
    for index, (traced, records) in enumerate(runs):
        if len(records) != len(first):
            problems.append(f"sequence {index} ran {len(records)} solves, expected {len(first)}")
            continue
        for rec, ref in zip(records, first):
            attempted += 1
            problems.extend(rec.problems)
            if rec.failed():
                failed += 1
                problems.append(
                    f"{rec.label}: failed (converged={rec.converged}, finite={rec.finite}, "
                    f"true relative residual {rec.rel_residual:.3e})"
                )
            if (rec.matvecs, rec.cycles, rec.digest) != (ref.matvecs, ref.cycles, ref.digest):
                problems.append(
                    f"{rec.label}: sequence {index}{' (traced)' if traced else ''} gave "
                    f"matvecs={rec.matvecs} cycles={rec.cycles} x#{rec.digest}, first gave "
                    f"matvecs={ref.matvecs} cycles={ref.cycles} x#{ref.digest}"
                )
    return attempted, failed, problems


def declared_metric_problems(metrics: dict, section: str) -> list:
    """Differences between the metrics printed and those BENCHMARK.json
    declares (names and units)."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return []
    declared = {m["name"]: m["unit"] for m in json.loads(path.read_text())[section]}
    printed = {name: m["unit"] for name, m in metrics.items()}
    if declared == printed:
        return []
    return [f"metrics differ from BENCHMARK.json {section}: declared-only "
            f"{sorted(set(declared.items()) - set(printed.items()))}, printed-only "
            f"{sorted(set(printed.items()) - set(declared.items()))}"]


def run_all(args) -> int:
    """Every workload, each in its own process (so peak memory stays per
    workload); their output is passed through, then one combined JSON line
    with metrics named ``<workload>.<metric>``."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            fail(f"workload {name} exited {proc.returncode} without a result", 1)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kryrec" / "__init__.py").is_file():
        fail(f"no kryrec sources under {SRC}; run from a kryrec checkout")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS, load_kryrec

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    import kryrec

    if Path(kryrec.__file__).resolve().parent != (SRC / "kryrec").resolve():
        fail(f"imported kryrec from {kryrec.__file__}, not from {SRC}")

    from tracing import Tracer, check_seconds, layer_metrics, patched, trace_replacements

    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer()
    workload = WORKLOADS[args.workload](load_kryrec(), args.seed, CACHE_DIR, OUT_DIR, tracer)
    workload.prepare()
    # Set-up probes are spread over the run (one before the warm-up, then one
    # after each sequence), so their median samples more than one moment of
    # a machine whose speed drifts.
    setup = []

    def probe():
        if not args.trace and len(setup) < SETUP_PROBES:
            setup.append(setup_probe(args.workload, args.seed))

    probe()

    state = workload.build()
    refs = workload.references(state)
    problems = list(refs["problems"])
    workload.sequence(state, refs, max_cycles=1)  # warm-up, not checked

    replacements = trace_replacements(tracer) if args.trace else []
    if args.trace:
        # The operator build, traced once, for the set-up layers.
        tracer.phase = "build"
        tracer.enabled = True
        try:
            with patched(replacements):
                traced_state = workload.build()
        finally:
            tracer.enabled = False
        if not workload.same_state(state, traced_state):
            problems.append("the traced operator build differs from the untraced one")
        del traced_state

    runs = run_sequences(workload, state, refs, tracer, args.seconds, args.trace, replacements, probe)
    for _ in range(SETUP_PROBES):
        probe()  # any probes still missing
    attempted, failed, run_problems = check_runs(runs)
    problems.extend(run_problems)

    untraced = [sum(r.seconds for r in recs) for traced, recs in runs if not traced]
    solve_times = [r.seconds for traced, recs in runs if not traced for r in recs]
    first = runs[0][1]
    metrics = {}
    notes = {
        "sequences": len(runs), "solves_per_sequence": len(first),
        "untraced_sequence_seconds": untraced,
    }
    if args.trace:
        checks = check_seconds(tracer.spans)
        traced_phases = [i for i, (traced, _) in enumerate(runs) if traced]
        traced_times = [sum(r.seconds for r in runs[i][1]) - checks.get(i, 0.0) for i in traced_phases]
        layers, layer_problems = layer_metrics(tracer.spans, "build", traced_phases)
        problems.extend(layer_problems)
        for name, (value, unit) in layers.items():
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_times) - statistics.median(untraced), "unit": "s"
        }
        notes["traced_sequences"] = len(traced_times)
        notes["spans"] = len(tracer.spans)
    else:
        import resource

        deciles = statistics.quantiles(solve_times, n=10, method="inclusive")
        metrics = {
            "time_to_solution_s": {"value": statistics.median(untraced), "unit": "s"},
            "matvecs": {"value": sum(r.matvecs for r in first), "unit": "count"},
            "cycles": {"value": sum(r.cycles for r in first), "unit": "count"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"
            },
        }
        # Reported, not gated: which solves sit near a percentile changes
        # with the seed, and the spread over seeds exceeded the largest
        # bound allowed.
        notes["solve_samples"] = len(solve_times)
        notes["solve_s.p50"] = deciles[4]
        notes["solve_s.p90"] = deciles[8]
        notes["setup_probes"] = setup

    problems.extend(declared_metric_problems(metrics, "per_layer" if args.trace else "end_to_end"))
    correct = not problems and failed == 0
    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "params": workload.params(), "working_set_bytes": workload.working_set(),
        "environment": env, "notes": notes, "metrics": metrics, "problems": problems,
        "worst_true_rel_residual": max(r.rel_residual for _, recs in runs for r in recs),
        "first_sequence": [
            {"label": r.label, "seconds": r.seconds, "matvecs": r.matvecs, "cycles": r.cycles,
             "rel_residual": r.rel_residual}
            for r in first
        ],
    }
    with open(OUT_DIR / f"result-{tag}.json", "w", encoding="ascii") as fh:
        json.dump(detail, fh, indent=1)
    if args.trace:
        tracer.dump(OUT_DIR / f"spans-{tag}.jsonl")

    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed}: {json.dumps(notes)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for name in ("solve_s.p50", "solve_s.p90"):
        if name in notes:
            print(f"{name:40s} {notes[name]:.6g} s (reported, not gated; {notes['solve_samples']} solves)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
