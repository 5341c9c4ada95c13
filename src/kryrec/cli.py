"""Command-line driver.

``kryrec solve`` runs one method on one system; ``kryrec compare`` runs
several methods over a problem family (``rfom`` and ``rgmres`` through
:func:`kryrec.recycling.solve_family`, which recycles the augmentation space
across systems) and writes one history file per method.

Wall-clock times are written as 0.0 unless ``--timing`` is given, so that
identical arguments and seed produce byte-identical history files.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .arnoldi import ORTH_RTOL
from .baseline import SolverConfig, restarted_solve
from .core import check_finite
from .io import ConvergenceRecord, ProblemFamily, generate_family, read_matrix_market, write_history
from .recycling import RecycleSpec, solve_family

__all__ = ["main", "cli_main"]

METHODS = ("fom", "gmres", "rfom", "rgmres")


class _Parser(argparse.ArgumentParser):
    # Usage errors must exit 1 (argparse default is 2).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p: _Parser):
    p.add_argument("--matrix", help="Matrix Market coordinate file")
    p.add_argument("--family", help="synthetic family spec, e.g. tridiag:n=200,count=3")
    p.add_argument("-m", "--cycle-length", type=int, default=40)
    p.add_argument("-k", "--recycle-dim", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--tol-mode", choices=("abs", "rel"), default="rel")
    p.add_argument("--max-cycles", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rhs", default=None, help="ones | random:<seed> | file:<path>")
    p.add_argument("--out", default=None, help="history file (solve) or prefix (compare)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument(
        "--reorth", choices=("on", "off"), default="on",
        help=f"on: apply each Arnoldi step's second Gram-Schmidt projection where it exceeds "
        f"{ORTH_RTOL:g} times the vector's norm; off: one classical pass",
    )
    p.add_argument("--ritz-select", choices=("mag", "real"), default="mag")
    p.add_argument("--refresh", choices=("system", "cycle"), default="system")
    p.add_argument("--timing", action="store_true", help="record real wall times (breaks byte determinism)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="kryrec", description="Krylov solvers with subspace recycling")
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run one method on one system")
    solve.add_argument("--method", choices=METHODS, required=True)
    _add_common(solve)
    compare = sub.add_parser("compare", help="run several methods over a problem family")
    compare.add_argument("--methods", required=True, help="comma-separated subset of " + ",".join(METHODS))
    _add_common(compare)
    return parser


def _parse_family_spec(spec: str, seed: int) -> ProblemFamily:
    kind, _, rest = spec.partition(":")
    params: dict = {"seed": seed}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise ValueError(f"bad family parameter {item!r}")
            if key in ("n", "count", "seed"):
                params[key] = int(val)
            elif key == "sigmas":
                params[key] = [float(t) for t in val.split("/")]
            else:
                params[key] = float(val)
    n = int(params.pop("n", 100))
    count = int(params.pop("count", 1))
    return generate_family(kind, n, count, params)


def _make_rhs(spec: str | None, n: int, seed: int) -> np.ndarray:
    if spec is None or spec.startswith("random"):
        _, _, s = (spec or "random").partition(":")
        rng = np.random.default_rng(int(s) if s else seed)
        b = rng.standard_normal(n)
        return b / np.linalg.norm(b)
    if spec == "ones":
        return np.ones(n)
    if spec.startswith("file:"):
        path = spec[len("file:") :]
        with open(path, "r", encoding="ascii") as fh:
            toks = fh.read().split()
        for tok in toks:  # complex() would read "1_0" as 10
            if "_" in tok:
                raise ValueError(f"--rhs {spec}: digit separator '_' in {tok!r}")
        vals = [complex(tok) for tok in toks]
        if len(vals) != n:
            raise ValueError(f"--rhs {spec} has {len(vals)} entries; the system has {n} rows")
        b = check_finite("--rhs file", np.array(vals))
        return b.real if np.all(b.imag == 0) else b
    raise ValueError(f"bad --rhs spec {spec!r}")


def _load_family(args) -> ProblemFamily:
    if args.matrix and args.family:
        raise ValueError("give either --matrix or --family, not both")
    if args.matrix:
        a = read_matrix_market(args.matrix)
        b = _make_rhs(args.rhs, a.n_rows, args.seed)
        return ProblemFamily([(a, b, args.matrix)], provenance=args.matrix)
    if args.family:
        fam = _parse_family_spec(args.family, args.seed)
        if args.rhs is not None:
            fam = ProblemFamily(
                [(a, _make_rhs(args.rhs, a.n_rows, args.seed), lbl) for a, b, lbl in fam],
                provenance=fam.provenance,
            )
        return fam
    raise ValueError("one of --matrix or --family is required")


def _run_method(method: str, family: ProblemFamily, cfg: SolverConfig, rspec: RecycleSpec, timing: bool):
    if method in ("fom", "gmres"):
        solves = ((restarted_solve(a, b, None, cfg, method), 0) for a, b, _ in family)
    else:
        solves = solve_family(family, method, cfg, rspec)
    records, summary = [], []
    for _, b, label in family:
        t0 = time.perf_counter()
        res, refresh_matvecs = next(solves)
        wall = (time.perf_counter() - t0) * 1e3 if timing else 0.0
        records.extend(
            ConvergenceRecord(method, label, cycle, refresh_matvecs + mv, norm, wall)
            for (cycle, _, norm), mv in zip(res.residual_history, res.history_matvecs)
        )
        final_rel = res.final_residual_norm / max(np.linalg.norm(b), 1e-300)
        summary.append((method, label, res.cycles_used, refresh_matvecs + res.matvec_count, final_rel, res.converged))
    return records, summary


def _print_summary(summary):
    print(f"{'solver':<8} {'system':<24} {'cycles':>6} {'matvecs':>8} {'final rel resid':>16} {'ok':>4}")
    for method, label, cycles, matvecs, rel, ok in summary:
        print(f"{method:<8} {label:<24} {cycles:>6} {matvecs:>8} {rel:>16.3e} {'yes' if ok else 'NO':>4}")


def cli_main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = SolverConfig(
            cycle_length=args.cycle_length,
            tol=args.tol,
            max_cycles=args.max_cycles,
            reorth=args.reorth == "on",
            tol_mode=args.tol_mode,
        )
        rspec = RecycleSpec(k=args.recycle_dim, selection=args.ritz_select, refresh_policy=args.refresh)
        if args.command == "solve":
            methods = [args.method]
        else:
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            bad = [m for m in methods if m not in METHODS]
            if bad:
                raise ValueError(f"unknown methods: {', '.join(bad)}")
            repeated = sorted({m for m in methods if methods.count(m) > 1})
            if repeated:  # a repeat would rewrite its method's history file and summary row
                raise ValueError(f"duplicate methods: {', '.join(repeated)}")
            if not methods:
                raise ValueError("--methods must name at least one method")
        # a recycling flag that no method reads would change nothing
        flags = [flag for flag, given in (
            (f"-k {args.recycle_dim}", args.recycle_dim > 0),
            ("--refresh cycle", args.refresh == "cycle"),
            ("--ritz-select real", args.ritz_select == "real"),
        ) if given]
        if flags and not {"rfom", "rgmres"} & set(methods):
            raise ValueError(f"{flags[0]} applies only to rfom and rgmres")
        if flags and args.recycle_dim == 0:
            raise ValueError(f"{flags[0]} needs a recycled space: give -k > 0")
        family = _load_family(args)
    except (OSError, ValueError) as exc:
        print(f"kryrec: error: {exc}", file=sys.stderr)
        return 1

    all_summaries = []
    any_failed = False
    try:
        for method in methods:
            records, summary = _run_method(method, family, cfg, rspec, args.timing)
            all_summaries.extend(summary)
            any_failed |= any(not ok for *_, ok in summary)
            if args.command == "solve":
                out = args.out or f"history.{args.format}"
            else:
                prefix = args.out or "history_"
                out = f"{prefix}{method}.{args.format}"
            write_history(records, out, format=args.format)
            print(f"wrote {out} ({len(records)} rows)")
    except OSError as exc:
        print(f"kryrec: error: {exc}", file=sys.stderr)
        return 1
    _print_summary(all_summaries)
    return 2 if any_failed else 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
