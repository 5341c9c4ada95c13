"""Property test of the Matrix Market reader: on random files, well formed
or not, it must agree with its per-line loop bit for bit."""

import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kryrec.io
from kryrec.io import MatrixMarketError, read_matrix_market

# Replacements for one token or one line of an entry. Some of them the loop
# accepts ('+1', 'nan'), most it rejects.
BAD_VALUES = ["1.2.3", "1-2", "1e5e", "1e", "1.0,", "1.5abc", "nan", "inf", "1_0", "abc", "--1"]
BAD_INDICES = ["1.0", "1e0", "0", "-1", "+1", "01", "1_0", "99999999999999999999"]
# 'comment' lines are whole-line comments that numpy's path drops; 'split'
# adds comments holding a break of str.splitlines, which the loop reads as a
# comment and then an entry, or as a comment alone.
NOISE_LINES = {
    None: [],
    "blank": ["", "   ", "\t"],
    "comment": ["% comment", " %% 1 2 3", "", "\t% 50% done"],
    "split": ["% comment", "% split\x0b1 1 1.0", "% split\r1 1 1.0", "% split\x1e"],
}


def plain_line(line):
    """A line numpy's path may take: no '%', or only pieces (as str.splitlines
    breaks it) that are blank or whole-line comments."""
    return "%" not in line or all(not p.strip() or p.lstrip().startswith("%") for p in line.splitlines())


def fmt_value(rng, v, integer):
    if integer:
        s = str(int(v))
    else:
        s = rng.choice([repr, "{:.17g}".format, "{:.3e}".format, "{:E}".format, "{:.6f}".format])(v)
        if s.startswith("0."):
            s = s[1:]
    return ("+" + s) if rng.random() < 0.2 and not s.startswith("-") else s


def draw_value(rng, integer):
    if integer:
        return float(rng.integers(-50, 50))
    return float(
        rng.choice(
            [
                rng.standard_normal(),
                rng.standard_normal() * 10.0 ** rng.integers(-300, 300),
                -0.0,
                0.0,
                5e-324,
                1.7976931348623157e308,
                float(rng.integers(-9, 9)),
            ]
        )
    )


def mm_text(rng, field, symmetric, n_rows, n_cols, n_entries, dups, noise, crlf, corrupt):
    """Text of a coordinate file, and whether numpy's reader should take it:
    a body of plain numbers and whole-line comments after a head that
    str.splitlines breaks as '\\n' does."""
    integer = field == "integer"
    width = 2 if field == "complex" else 1
    entries = []
    for _ in range(n_entries):
        i, j = int(rng.integers(n_rows)), int(rng.integers(n_cols))
        if symmetric and j > i:
            i, j = j, i
        entries.append((i, j, [draw_value(rng, integer) for _ in range(width)]))
    if entries and dups:
        # up to seven entries at one position, in both triangles when symmetric;
        # values of one scale, so the order of summation shows in the bits
        i, j, _ = entries[int(rng.integers(len(entries)))]
        for d in range(dups):
            pos = (j, i) if symmetric and d % 2 else (i, j)
            vals = [draw_value(rng, integer) if integer else rng.standard_normal() for _ in range(width)]
            entries.insert(int(rng.integers(len(entries) + 1)), (*pos, vals))

    def sep():
        return str(rng.choice([" ", "\t", "  ", " \t "]))

    lines = []
    for i, j, vals in entries:
        tokens = [str(i + 1), str(j + 1)] + [fmt_value(rng, v, integer) for v in vals]
        pad = str(rng.choice(["", " ", "\t", "  "]))
        lines.append(pad + sep().join(tokens) + str(rng.choice(["", " ", "\t"])))
        if noise and rng.random() < 0.3:
            lines.append(str(rng.choice(NOISE_LINES[noise])))
    plain = all(plain_line(line) for line in lines)

    nnz = len(entries)
    if corrupt == "count":
        nnz += int(rng.choice([-1, 1]))
    elif corrupt and lines:
        k = int(rng.integers(len(lines)))
        parts = lines[k].split()
        if not parts:
            parts = ["1", "1", "1.0"]
        if corrupt == "value":
            parts[-1] = str(rng.choice(BAD_VALUES))
        elif corrupt == "index":
            parts[int(rng.integers(2))] = str(rng.choice(BAD_INDICES))
        elif corrupt == "extra":
            parts.append("5.0")
        elif corrupt == "missing":
            parts.pop()
        elif corrupt == "separator":
            parts[0] += str(rng.choice(["\x0c", "\x0b", "\x1c", "\x1f"])) + parts.pop(1)
        elif corrupt == "trailing":
            parts.append("% c")
        lines[k] = " ".join(parts)

    head = [f"%%MatrixMarket matrix coordinate {field} {'symmetric' if symmetric else 'general'}"]
    # a form feed ends a line for str.splitlines only: the loop reads 'hidden'
    # as the size line and the size line below it as an entry
    hidden = f"% hidden\x0c{n_rows} {n_cols} {nnz + int(rng.integers(2))}"
    extra = str(rng.choice(["% generated", "", "% form\x0cfeed", hidden])) if noise in ("comment", "split") else ""
    head += [extra, f"{n_rows} {n_cols} {nnz}"]
    eol = "\r\n" if crlf else "\n"
    text = eol.join(head + lines) + (eol if rng.random() < 0.8 else "")
    return text, plain and not corrupt and extra in ("", "% generated")


def outcome(path):
    try:
        a = read_matrix_market(path)
    except (ValueError, OSError) as exc:
        return (type(exc), str(exc), getattr(exc, "line_no", None))
    return [(x.dtype, x.tobytes()) for x in (a.row_offsets, a.col_indices, a.values)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    field=st.sampled_from(["real", "integer", "complex"]),
    symmetric=st.booleans(),
    n_rows=st.integers(1, 6),
    n_cols=st.integers(1, 6),
    n_entries=st.integers(0, 12),
    dups=st.integers(0, 6),
    noise=st.sampled_from(list(NOISE_LINES)),
    crlf=st.booleans(),
    corrupt=st.none()
    | st.sampled_from(["count", "value", "index", "extra", "missing", "separator", "trailing"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_reader_matches_per_line_loop(
    field, symmetric, n_rows, n_cols, n_entries, dups, noise, crlf, corrupt, seed
):
    if symmetric:
        n_cols = n_rows
    rng = np.random.default_rng(seed)
    text, plain = mm_text(rng, field, symmetric, n_rows, n_cols, n_entries, dups, noise, crlf, corrupt)
    numeric_body = kryrec.io._numeric_body
    fast_returned = []

    def spy(*args):
        fast_returned.append(numeric_body(*args))
        return fast_returned[-1]

    def refuse(*args):
        raise ValueError("per-line loop only")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.mtx"
        path.write_bytes(text.encode("ascii"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with mock.patch.object(kryrec.io, "_numeric_body", spy):
                got = outcome(path)
        with mock.patch.object(kryrec.io, "_numeric_body", refuse):
            want = outcome(path)
    assert got == want
    assert not caught, [str(w.message) for w in caught]
    if plain and n_entries:
        assert fast_returned, "a plain numeric body must not need the per-line loop"
    if isinstance(want, tuple) and want[0] is not MatrixMarketError:
        # only non-finite values get past the loop to fail in SparseMatrix
        assert "non-finite" in want[1]


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["LF", "CRLF"])
def test_comment_lines_keep_the_numpy_path(tmp_path, eol):
    # whole-line comments first, mid-body and last (without a final newline)
    lines = ["%%MatrixMarket matrix coordinate real symmetric", "3 3 3", "% first",
             "1 1 2.0", "  % 50% mid", "2 1 -1.5", "\t%", "% page\x0c% break\x0b%\x1e", "3 2 4e-3", "% last"]
    path = tmp_path / "m.mtx"
    path.write_bytes(eol.join(lines).encode("ascii"))
    with mock.patch.object(kryrec.io, "_numeric_body", side_effect=ValueError("loop only")):
        want = outcome(path)
    numeric_body, returned = kryrec.io._numeric_body, []

    def spy(*args):
        returned.append(numeric_body(*args))
        return returned[-1]

    with mock.patch.object(kryrec.io, "_numeric_body", spy):
        assert outcome(path) == want
    assert returned, "whole-line comments must not send the body to the per-line loop"
    assert read_matrix_market(path).to_dense().tolist() == [[2.0, -1.5, 0.0], [-1.5, 0.0, 4e-3], [0.0, 4e-3, 0.0]]


def test_symmetric_duplicates_sum_in_loop_order(tmp_path):
    # The loop appends each entry and then its mirror, so position (2, 1)
    # sums 1.0, then the mirror of 1e-16, then -1.0, which rounds to 0.0;
    # summing the mirrors after all stored entries would give 1e-16 there.
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n2 1 1.0\n1 2 1e-16\n2 1 -1.0\n"
    )
    with mock.patch.object(kryrec.io, "_numeric_body", side_effect=ValueError("loop only")):
        want = outcome(path)
    assert outcome(path) == want
    assert read_matrix_market(path).to_dense().tolist() == [[0.0, 0.0], [0.0, 0.0]]
