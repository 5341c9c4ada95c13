"""Time kryrec's set-up in a fresh interpreter and print it as one JSON line.

Set-up is the import of kryrec plus building the workload's operators
through kryrec's constructors, up to the first solver call. Generating the
benchmark's own input arrays is not timed. ``run.py`` starts this script
several times per run and reports the median.

    python3 perfbench/setup_probe.py --workload cold-large --seed 0
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    import kryrec  # noqa: F401

    import_s = time.perf_counter() - t0

    from tracing import Tracer
    from workloads import WORKLOADS, load_kryrec

    cache = ROOT / ".perfbench_cache"
    workload = WORKLOADS[args.workload](load_kryrec(), args.seed, cache, ROOT / ".perfbench_out", Tracer())
    workload.prepare()
    t1 = time.perf_counter()
    workload.build()
    build_s = time.perf_counter() - t1
    print(json.dumps({"import_s": import_s, "build_s": build_s}))


if __name__ == "__main__":
    main()
