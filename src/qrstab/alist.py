"""Alist-style interchange for binary check matrices.

Layout (1-based indices, zero-padded index lists):

    line 1: rows cols
    line 2: max_row_weight max_col_weight
    line 3: row weights
    line 4: column weights
    next ``rows`` lines: column indices of the ones in each row
    next ``cols`` lines: row indices of the ones in each column

Round trips are bit exact.
"""

from __future__ import annotations

import numpy as np

from .errors import MalformedAlist
from .gf2 import Gf2Matrix, row_supports


def export_alist(matrix: Gf2Matrix) -> str:
    dense = matrix.to_dense()
    rows, cols = dense.shape
    row_idx, row_w = row_supports(dense, -1)
    col_idx, col_w = row_supports(dense.T, -1)
    names = [str(i) for i in range(max(rows, cols) + 1)]

    def lines_of(grid):  # 1-based, so the -1 padding prints as 0
        return [" ".join([names[v] for v in line]) for line in (grid + 1).tolist()]

    lines = [
        f"{rows} {cols}",
        f"{row_idx.shape[1]} {col_idx.shape[1]}",
        " ".join(names[w] for w in row_w.tolist()),
        " ".join(names[w] for w in col_w.tolist()),
    ]
    return "\n".join(lines + lines_of(row_idx) + lines_of(col_idx)) + "\n"


def import_alist(text: str) -> Gf2Matrix:
    lines = text.splitlines()

    def ints(lineno: int, expect: int | None = None) -> list[int]:
        if lineno >= len(lines):
            raise MalformedAlist("unexpected end of file", lineno + 1)
        try:
            vals = [int(tok) for tok in lines[lineno].split()]
        except ValueError:
            raise MalformedAlist("non-integer token", lineno + 1) from None
        if expect is not None and len(vals) != expect:
            raise MalformedAlist(f"expected {expect} values, got {len(vals)}", lineno + 1)
        return vals

    rows, cols = ints(0, 2)
    if rows < 0 or cols <= 0:
        raise MalformedAlist("bad dimensions", 1)
    max_rw, max_cw = ints(1, 2)
    row_weights = ints(2, rows)
    col_weights = ints(3, cols)
    dense = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        vals = ints(4 + i, max_rw)
        live = [v for v in vals if v != 0]
        if len(live) != row_weights[i]:
            raise MalformedAlist(f"row weight mismatch (stated {row_weights[i]})", 5 + i)
        if len(set(live)) != len(live):
            raise MalformedAlist("repeated column index", 5 + i)
        for v in live:
            if not 1 <= v <= cols:
                raise MalformedAlist(f"column index {v} out of range", 5 + i)
            dense[i, v - 1] = 1
    for j in range(cols):
        lineno = 4 + rows + j
        vals = ints(lineno, max_cw)
        live = sorted(v for v in vals if v != 0)
        expect = sorted((np.nonzero(dense[:, j])[0] + 1).tolist())
        if live != expect or len(live) != col_weights[j]:
            raise MalformedAlist("column list inconsistent with row lists", lineno + 1)
    return Gf2Matrix.from_dense(dense)
