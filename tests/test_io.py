import tracemalloc

import numpy as np
import pytest
import scipy.io

from kryrec.io import (
    ConvergenceRecord,
    MatrixMarketError,
    ProblemFamily,
    generate_family,
    read_history,
    read_matrix_market,
    tridiagonal_matrix,
    write_history,
)


class TestMatrixMarket:
    def write(self, tmp_path, text, name="m.mtx"):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_identity_coordinate(self, tmp_path):
        p = self.write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1.0\n",
        )
        a = read_matrix_market(p)
        assert np.allclose(a.to_dense(), np.eye(2))

    def test_symmetric_expansion(self, tmp_path):
        p = self.write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 4\n1 1 2.0\n2 1 -1.0\n2 2 2.0\n3 3 2.0\n",
        )
        a = read_matrix_market(p)
        dense = a.to_dense()
        assert a.nnz == 2 * 4 - 3  # off-diagonals doubled, diagonals once
        assert np.allclose(dense, dense.T)
        assert dense[0, 1] == -1.0 and dense[1, 0] == -1.0

    def test_complex_entries(self, tmp_path):
        p = self.write(
            tmp_path,
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 2.0 -3.0\n",
        )
        a = read_matrix_market(p)
        assert a.values[0] == 2.0 - 3.0j

    def test_duplicates_summed(self, tmp_path):
        p = self.write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n1 1 2\n1 1 1.5\n1 1 2.5\n",
        )
        a = read_matrix_market(p)
        assert a.nnz == 1 and a.values[0] == 4.0

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = self.write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n\n2 2 1\n% another\n2 1 7.0\n",
        )
        a = read_matrix_market(p)
        assert a.to_dense()[1, 0] == 7.0

    def test_cross_reader_oracle(self, tmp_path):
        # moderately sized random matrix, checked against scipy's reader
        rng = np.random.default_rng(0)
        n, nnz = 25, 140
        rows = rng.integers(1, n + 1, nnz)
        cols = rng.integers(1, n + 1, nnz)
        vals = rng.standard_normal(nnz).round(6)
        body = "\n".join(f"{r} {c} {v}" for r, c, v in zip(rows, cols, vals))
        p = self.write(
            tmp_path,
            f"%%MatrixMarket matrix coordinate real general\n{n} {n} {nnz}\n{body}\n",
        )
        mine = read_matrix_market(p)
        ref = scipy.io.mmread(p).tocsr()
        ref.sum_duplicates()
        assert mine.nnz == ref.nnz
        assert np.linalg.norm(mine.to_dense() - ref.toarray()) <= 1e-14 * np.linalg.norm(ref.toarray())

    @pytest.mark.parametrize(
        "text,line",
        [
            ("%%MatrixMarket matrix array real general\n2 2\n1.0\n", 1),
            ("%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n", 1),
            ("%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1.0\n", 1),
            ("not a header\n1 1 1\n1 1 1.0\n", 1),
            ("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1\n", 3),
            ("%%MatrixMarket matrix coordinate real general\n1 1 1\n2 1 1.0\n", 3),
            ("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 abc\n", 3),
        ],
    )
    def test_errors_carry_line_numbers(self, tmp_path, text, line):
        p = self.write(tmp_path, text)
        with pytest.raises(MatrixMarketError) as exc:
            read_matrix_market(p)
        assert exc.value.line_no == line

    @pytest.mark.parametrize(
        "entry",
        [
            "1 1 1.2.3",
            "1 1 1-2",
            "1 1 1e5e",
            "1 1 1e",
            "1 1 1.0,",
            "1 1 1.5abc",
            "1 1 1.0 5.0",
            "1 1 2.0 % c",
            "1 1\x0c2.0",
            "1.0 1 2.0",
        ],
    )
    def test_malformed_entries_rejected_with_line_numbers(self, tmp_path, entry):
        # a lenient number parser would read each of these as some entry;
        # the reader must reject them with the line of the bad entry
        p = self.write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            f"% comment\n2 2 2\n2 2 1.0\n{entry}\n",
        )
        with pytest.raises(MatrixMarketError) as exc:
            read_matrix_market(p)
        assert exc.value.line_no == 5

    def test_nnz_mismatch_detected(self, tmp_path):
        p = self.write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n2 2 1.0\n",
        )
        with pytest.raises(MatrixMarketError, match="promised 3"):
            read_matrix_market(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_matrix_market(tmp_path / "nope.mtx")

    @pytest.mark.parametrize(
        "data,line",
        [
            (b"%%MatrixMarket matrix coordinate real general\n% caf\xc3\xa9\n2 2 1\n1 1 1.0\n", 2),
            (b"%%MatrixMarket matrix coordinate real general\n2 2 1\n% caf\xe9\n1 1 1.0\n", 3),
            (b"%%MatrixMarket matrix coordinate real general\r\n2 2 1\r\n1 1 1.0\xb5\r\n", 3),
        ],
        ids=["head-comment", "body-comment", "entry"],
    )
    def test_non_ascii_bytes_rejected(self, tmp_path, data, line):
        # a body comment would otherwise be dropped unread by numpy's path
        p = tmp_path / "m.mtx"
        p.write_bytes(data)
        with pytest.raises(MatrixMarketError, match="non-ASCII") as exc:
            read_matrix_market(p)
        assert exc.value.line_no == line

    def test_memory_is_bounded_and_arrays_are_shared(self, tmp_path):
        # lower triangle of a symmetric banded matrix: about 60k entries, 1.8 MB
        # (numpy's reader runs about twenty times slower while traced)
        n, half = 10_000, 5
        rows = np.repeat(np.arange(n), half + 1)
        cols = rows - np.tile(np.arange(half + 1), n)
        keep = cols >= 0
        rows, cols = rows[keep] + 1, cols[keep] + 1
        vals = np.random.default_rng(0).standard_normal(rows.size)
        body = "".join(f"{r} {c} {v!r}\n" for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()))
        p = tmp_path / "banded.mtx"
        p.write_text(f"%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {rows.size}\n{body}")
        tracemalloc.start()
        try:
            a = read_matrix_market(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a.nnz == 2 * rows.size - n
        # file text, parsed records and expanded triplets each held once
        assert peak <= 3.5 * p.stat().st_size
        assert np.shares_memory(a.col_indices, a._csr.indices)
        assert np.shares_memory(a.row_offsets, a._csr.indptr)


class TestGenerateFamily:
    def test_tridiag_rows(self):
        fam = generate_family("tridiag", 4, 1)
        dense = fam.systems[0][0].to_dense()
        assert np.allclose(dense[0], [2.0, -1.0, 0.0, 0.0])
        assert np.allclose(dense[1], [-1.0, 2.0, -1.0, 0.0])

    def test_shifted_zero_sigma_is_base(self):
        fam = generate_family("shifted", 10, 1, {"sigmas": [0.0]})
        base = tridiagonal_matrix(10)
        assert np.allclose(fam.systems[0][0].to_dense(), base.to_dense())

    def test_shifted_adds_diagonal(self):
        fam = generate_family("shifted", 6, 2, {"sigmas": [0.0, 0.5]})
        d0 = fam.systems[0][0].to_dense()
        d1 = fam.systems[1][0].to_dense()
        assert np.allclose(d1 - d0, 0.5 * np.eye(6))

    def test_perturbed_changes_matrix(self):
        fam = generate_family("perturbed", 12, 2, {"eps": 1e-2, "density": 0.1})
        d0 = fam.systems[0][0].to_dense()
        d1 = fam.systems[1][0].to_dense()
        assert np.linalg.norm(d0 - d1) > 0

    def test_determinism(self):
        f1 = generate_family("perturbed", 15, 3, {"seed": 5})
        f2 = generate_family("perturbed", 15, 3, {"seed": 5})
        for (a1, b1, l1), (a2, b2, l2) in zip(f1, f2):
            assert np.array_equal(a1.values, a2.values)
            assert np.array_equal(b1, b2)
            assert l1 == l2

    def test_unit_rhs(self):
        fam = generate_family("tridiag", 50, 3, {"seed": 1})
        for _, b, _ in fam:
            assert np.linalg.norm(b) == pytest.approx(1.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            generate_family("tridiag", 1, 1)
        with pytest.raises(ValueError):
            generate_family("tridiag", 4, 0)
        with pytest.raises(ValueError):
            generate_family("nope", 4, 1)
        with pytest.raises(ValueError):
            generate_family("shifted", 4, 2, {"sigmas": [0.0]})
        with pytest.raises(ValueError):
            generate_family("tridiag", 4, 1, {"bogus": 1.0})

    def test_family_requires_consistent_dimension(self):
        a = tridiagonal_matrix(4)
        with pytest.raises(ValueError):
            ProblemFamily([(a, np.ones(5), "bad")])


class TestHistory:
    def rec(self, i=0):
        return ConvergenceRecord("gmres", "sys", i, 10 * i, 0.5**i, wall_time=1.0 * i)

    def test_empty_list_gives_header_only(self, tmp_path):
        p = tmp_path / "h.csv"
        write_history([], p)
        assert p.read_text() == "solver,system_label,cycle,matvecs,residual_norm,wall_time_ms\n"

    def test_single_record_roundtrip(self, tmp_path):
        p = tmp_path / "h.csv"
        write_history([self.rec(1)], p)
        lines = p.read_text().splitlines()
        assert len(lines) == 2
        back = read_history(p)
        assert back == [self.rec(1)]

    def test_large_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        recs = [
            ConvergenceRecord("fom", f"s{i % 7}", i, 3 * i, float(rng.random()), float(rng.random()))
            for i in range(1000)
        ]
        p = tmp_path / "h.csv"
        write_history(recs, p)
        assert read_history(p) == recs

    def test_json_mirror(self, tmp_path):
        import json

        p = tmp_path / "h.json"
        write_history([self.rec(2)], p, format="json")
        data = json.loads(p.read_text())
        assert data == [
            {
                "solver": "gmres",
                "system_label": "sys",
                "cycle": 2,
                "matvecs": 20,
                "residual_norm": 0.25,
                "wall_time_ms": 2.0,
            }
        ]

    def test_float_values_roundtrip_exactly(self, tmp_path):
        rec = ConvergenceRecord("g", "s", 1, 1, 0.1 + 0.2, wall_time=1 / 3)
        p = tmp_path / "h.csv"
        write_history([rec], p)
        assert read_history(p) == [rec]

    def test_negative_residual_rejected(self):
        with pytest.raises(ValueError):
            ConvergenceRecord("x", "y", 0, 0, -1.0)
