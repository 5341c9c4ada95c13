from unittest import mock

import numpy as np
import pytest

import kryrec.cli
from kryrec.cli import cli_main
from kryrec.io import read_history
from kryrec.unprojected import unproj_solve


@pytest.fixture
def identity_mtx(tmp_path):
    p = tmp_path / "eye.mtx"
    n = 8
    body = "\n".join(f"{i} {i} 1.0" for i in range(1, n + 1))
    p.write_text(f"%%MatrixMarket matrix coordinate real general\n{n} {n} {n}\n{body}\n")
    return p


def run(args, capsys=None):
    code = cli_main(args)
    return code


class TestSolve:
    def test_happy_path(self, identity_mtx, tmp_path, capsys):
        out = tmp_path / "h.csv"
        code = run(
            ["solve", "--matrix", str(identity_mtx), "--method", "gmres",
             "-m", "4", "--tol", "1e-8", "--out", str(out)]
        )
        assert code == 0
        recs = read_history(out)
        assert recs and recs[-1].residual_norm <= 1e-8
        captured = capsys.readouterr()
        assert "gmres" in captured.out

    def test_missing_file_exits_1(self, capsys):
        code = run(["solve", "--matrix", "does_not_exist.mtx", "--method", "fom"])
        assert code == 1
        assert "does_not_exist.mtx" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [b"% caf\xc3\xa9", b"1 1 1.0\xb5"], ids=["comment", "entry"])
    def test_non_ascii_matrix_exits_1(self, tmp_path, capsys, line):
        p = tmp_path / "m.mtx"
        p.write_bytes(b"%%MatrixMarket matrix coordinate real general\n1 1 1\n" + line + b"\n")
        assert run(["solve", "--matrix", str(p), "--method", "gmres"]) == 1
        assert capsys.readouterr().err.startswith("kryrec: error: non-ASCII byte")

    def test_unknown_flag_exits_1(self, capsys):
        code = run(["solve", "--matrix", "x.mtx", "--method", "fom", "--bogus"])
        assert code == 1

    def test_unknown_method_rejected(self, identity_mtx):
        code = run(["solve", "--matrix", str(identity_mtx), "--method", "cg"])
        assert code == 1

    def test_nonconvergence_exits_2(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        code = run(
            ["compare", "--family", "tridiag:n=120,count=1", "--methods", "gmres",
             "-m", "5", "--tol", "1e-12", "--max-cycles", "3", "--out", str(tmp_path / "p_")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--family", "tridiag:n=10", "--method", "gmres", "-m", "0"],
            ["solve", "--family", "tridiag:n=10", "--method", "gmres", "--tol", "0"],
            ["solve", "--family", "tridiag:n=10", "--method", "gmres", "--max-cycles", "0"],
            ["compare", "--family", "tridiag:n=10", "--methods", "fom,rfom", "-k", "-1"],
            ["solve", "--family", "tridiag:n=10", "--method", "gmres", "--rhs", "file:{nan_rhs}"],
            ["compare", "--family", "tridiag:n=10", "--methods", "rfom", "--refresh", "frozen", "-k", "2"],
        ],
        ids=["m0", "tol0", "max_cycles0", "k_negative", "rhs_nan", "refresh_frozen"],
    )
    def test_bad_config_exits_1_with_message(self, argv, tmp_path, capsys):
        nan_rhs = tmp_path / "b.txt"
        nan_rhs.write_text("1.0 nan" + " 1.0" * 8)
        argv = [a.format(nan_rhs=nan_rhs) for a in argv] + ["--out", str(tmp_path / "h_")]
        assert run(argv) == 1
        assert "error" in capsys.readouterr().err
        assert not list(tmp_path.glob("h_*"))

    def test_rhs_ones(self, identity_mtx, tmp_path):
        out = tmp_path / "h.csv"
        code = run(
            ["solve", "--matrix", str(identity_mtx), "--method", "fom",
             "--rhs", "ones", "-m", "2", "--out", str(out)]
        )
        assert code == 0
        recs = read_history(out)
        assert recs[0].residual_norm == pytest.approx(np.sqrt(8.0))

    def test_rhs_file(self, identity_mtx, tmp_path):
        rhs = tmp_path / "b.txt"
        rhs.write_text("\n".join(str(float(i)) for i in range(1, 9)))
        out = tmp_path / "h.csv"
        code = run(
            ["solve", "--matrix", str(identity_mtx), "--method", "fom",
             "--rhs", f"file:{rhs}", "-m", "2", "--out", str(out)]
        )
        assert code == 0

    def test_json_output(self, identity_mtx, tmp_path):
        import json

        out = tmp_path / "h.json"
        code = run(
            ["solve", "--matrix", str(identity_mtx), "--method", "gmres",
             "-m", "4", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert isinstance(data, list) and data


class TestCompare:
    def test_two_methods_two_files(self, tmp_path, capsys):
        prefix = str(tmp_path / "run_")
        code = run(
            ["compare", "--family", "tridiag:n=64,count=2", "--methods", "fom,rfom",
             "-m", "16", "-k", "4", "--tol", "1e-8", "--max-cycles", "400",
             "--out", prefix]
        )
        assert code == 0
        assert (tmp_path / "run_fom.csv").exists()
        assert (tmp_path / "run_rfom.csv").exists()
        out = capsys.readouterr().out
        assert "fom" in out and "rfom" in out

    def test_recycling_helps_on_family(self, tmp_path):
        prefix = str(tmp_path / "cmp_")
        code = run(
            ["compare", "--family", "shifted:n=200,count=2,sigmas=0.0/0.001",
             "--methods", "fom,rfom", "-m", "20", "-k", "8",
             "--tol", "1e-8", "--max-cycles", "2000", "--out", prefix, "--seed", "3"]
        )
        assert code == 0
        fom = read_history(str(tmp_path / "cmp_fom.csv"))
        rfom = read_history(str(tmp_path / "cmp_rfom.csv"))
        # second system: recycled rFOM should use no more matvecs than FOM
        fom2 = max(r.matvecs for r in fom if r.system_label.endswith("-1"))
        rfom2 = max(r.matvecs for r in rfom if r.system_label.endswith("-1"))
        assert rfom2 <= fom2

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "compare", "--family", "tridiag:n=64,count=2", "--methods", "gmres,rgmres",
            "-m", "16", "-k", "4", "--tol", "1e-8", "--max-cycles", "300", "--seed", "7",
        ]
        out1 = str(tmp_path / "a_")
        out2 = str(tmp_path / "b_")
        assert run(args + ["--out", out1]) == 0
        assert run(args + ["--out", out2]) == 0
        for method in ("gmres", "rgmres"):
            b1 = (tmp_path / f"a_{method}.csv").read_bytes()
            b2 = (tmp_path / f"b_{method}.csv").read_bytes()
            assert b1 == b2

    def test_matrix_and_family_conflict(self, identity_mtx):
        code = run(
            ["compare", "--matrix", str(identity_mtx), "--family", "tridiag:n=8",
             "--methods", "fom"]
        )
        assert code == 1

    def test_requires_input(self):
        assert run(["compare", "--methods", "fom"]) == 1

    def test_matvec_accounting_in_records(self, tmp_path):
        # Every row's matvecs is the operator's count when the row was written:
        # row 0's when the solve starts, an inner row's when the residual
        # monitor computed its norm, and a cycle's end row's when the next
        # cycle's refresh starts (or when the solve returns).
        out = str(tmp_path / "acc_")
        solves = []
        monitor_call = kryrec.baseline._ResidualMonitor.__call__

        def spy(op, *args, recycler, **kwargs):
            start, inner_counts, end_counts = op.matvec_count, {}, []

            def monitor(self, i, vt, hbar):
                stop = monitor_call(self, i, vt, hbar)
                if self.norms and self.norms[-1][0] == i:
                    inner_counts[self.norms[-1]] = op.matvec_count
                return stop

            def counting_recycler(*rargs):
                end_counts.append(op.matvec_count)
                return recycler(*rargs)

            with mock.patch.object(kryrec.baseline._ResidualMonitor, "__call__", monitor):
                res = unproj_solve(op, *args, recycler=counting_recycler, **kwargs)
            end_counts.append(op.matvec_count)
            solves.append((op, res, start, inner_counts, end_counts))
            return res

        with mock.patch.object(kryrec.recycling, "unproj_solve", spy):
            code = run(
                ["compare", "--family", "tridiag:n=32,count=1", "--methods", "rfom,rgmres",
                 "-m", "8", "-k", "3", "--refresh", "cycle", "--tol", "1e-8",
                 "--max-cycles", "100", "--out", out]
            )
        assert code == 0
        late_inner_rows = {}
        for method, (op, res, start, inner_counts, end_counts) in zip(("rfom", "rgmres"), solves):
            recs = read_history(str(tmp_path / f"acc_{method}.csv"))
            history = res.residual_history
            assert [(r.cycle, r.residual_norm) for r in recs] == [(c, norm) for c, _, norm in history]
            expected, late_inner_rows[method] = [], 0
            for idx, (cycle, inner, norm) in enumerate(history):
                if cycle == 0:
                    expected.append(start)
                elif idx + 1 == len(history) or history[idx + 1][0] != cycle:
                    expected.append(end_counts[cycle - 1])
                else:
                    expected.append(inner_counts[inner, norm])
                    late_inner_rows[method] += cycle > 1
            assert [r.matvecs for r in recs] == expected
            # the last cycle stops at the tolerance; its size ends the history
            cycles = res.cycles_used
            last_cycle, last_size, _ = history[-1]
            assert last_cycle == cycles and 1 <= last_size <= 8
            # m per full cycle, none for the between-cycle rebuilds (their images
            # come from the Arnoldi relation), and a true residual every 10
            # cycles and at the stop
            checks = cycles // 10 + (cycles % 10 != 0)
            total = 8 * (cycles - 1) + last_size + checks
            assert recs[-1].matvecs == total == op.matvec_count
        # inner rows after the first rebuild are the ones the count must cover
        assert late_inner_rows["rgmres"] > 0
