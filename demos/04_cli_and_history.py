#!/usr/bin/env python3
# Driving the command-line interface and reading back convergence history.
#
# Runs the `compare` subcommand on a shifted problem family (two systems,
# second one mildly shifted), with plain FOM against recycled FOM, then
# loads the CSV history files and prints a per-system summary. The CSV files
# are byte-identical from run to run; they are written into a temporary
# directory that is removed when the script ends.

import tempfile
from pathlib import Path

from kryrec.cli import cli_main
from kryrec.io import read_history

with tempfile.TemporaryDirectory(prefix="kryrec_demo_") as workdir:
    prefix = str(Path(workdir) / "demo_")

    code = cli_main(
        [
            "compare",
            "--family", "shifted:n=300,count=2,sigmas=0.0/0.002",
            "--methods", "fom,rfom",
            "-m", "20",
            "-k", "8",
            "--tol", "1e-8",
            "--max-cycles", "3000",
            "--seed", "1",
            "--out", prefix,
        ]
    )
    print(f"\ncli exit code: {code}")

    for method in ("fom", "rfom"):
        path = f"{prefix}{method}.csv"
        records = read_history(path)
        print(f"\n{path}: {len(records)} rows")
        by_system = {}
        for rec in records:
            by_system[rec.system_label] = rec
        for label, last in by_system.items():
            print(
                f"  {label}: final cycle={last.cycle} matvecs={last.matvecs} "
                f"residual={last.residual_norm:.2e}"
            )
