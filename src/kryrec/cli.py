"""Command-line driver.

``kryrec solve`` runs one method on one system; ``kryrec compare`` runs
several methods over a problem family (recycling the augmentation space
across systems where the method supports it) and writes one history file per
method.

Wall-clock times are written as 0.0 unless ``--timing`` is given, so that
identical arguments and seed produce byte-identical history files.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .arnoldi import ORTH_RTOL, as_operator
from .augmented import Constraint
from .baseline import SolverConfig, restarted_solve
from .core import check_finite
from .io import (
    ConvergenceRecord,
    ProblemFamily,
    generate_family,
    read_matrix_market,
    write_history,
)
from .recycling import (
    RecycleSpec,
    RefreshPolicy,
    Selection,
    per_cycle_recycler,
    refresh,
)
from .unprojected import unproj_solve

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
            vals = [complex(tok) for tok in fh.read().split()]
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
    choice = Constraint.GALERKIN if method == "rfom" else Constraint.MINRES
    ortho = method == "rgmres"

    records = []
    summary = []
    aug = None
    last_dec = None
    for a, b, label in family:
        op = as_operator(a)
        t0 = time.perf_counter()
        if method in ("fom", "gmres"):
            res = restarted_solve(op, b, None, cfg, method)
        else:
            if rspec.refresh_policy is RefreshPolicy.PER_SYSTEM:
                aug = refresh(op, aug, last_dec, rspec, choice, ortho)
            res = unproj_solve(op, b, None, aug, cfg, method, recycler=per_cycle_recycler(rspec, choice, ortho))
            last_dec = res.final_decomposition
        wall = (time.perf_counter() - t0) * 1e3 if timing else 0.0
        # Matvecs spent before the solve loop started (cross-system refresh).
        offset = op.matvec_count - res.matvec_count
        records.extend(
            ConvergenceRecord(method, label, cycle, offset + mv, norm, wall)
            for (cycle, _, norm), mv in zip(res.residual_history, res.history_matvecs)
        )
        final_rel = res.final_residual_norm / max(np.linalg.norm(b), 1e-300)
        summary.append(
            (method, label, res.cycles_used, op.matvec_count, final_rel, res.converged)
        )
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
        rspec = RecycleSpec(
            k=args.recycle_dim,
            selection=Selection.SMALLEST_MAGNITUDE if args.ritz_select == "mag" else Selection.SMALLEST_REAL,
            refresh_policy=RefreshPolicy(args.refresh),
        )
        family = _load_family(args)
        if args.command == "solve":
            methods = [args.method]
        else:
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            bad = [m for m in methods if m not in METHODS]
            if bad:
                raise ValueError(f"unknown methods: {', '.join(bad)}")
            if not methods:
                raise ValueError("--methods must name at least one method")
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
