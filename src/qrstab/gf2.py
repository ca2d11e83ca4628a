"""Dense bit-packed GF(2) matrices and the circulant lift.

Rows are stored as little-endian uint64 words, so elimination works a word
at a time.  ``row_reduce`` is the one elimination routine: rank, RREF,
independent rows, row-space membership, the standard form and the
information-set searches run on it.  It takes one matrix or a stack of
them, so a search eliminates many rounds in one call.  Matrices are
immutable from the outside: every operation returns a fresh instance and
never mutates its inputs, so each matrix caches its RREF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch

WORD = 64


def _n_words(cols: int) -> int:
    return (cols + WORD - 1) // WORD


def pack(dense) -> np.ndarray:
    """(..., m, n) 0/1 array -> (..., m, words) uint64, little-endian within
    rows; a 1-D array is one row."""
    dense = np.atleast_2d(np.asarray(dense, dtype=np.uint8))
    n = dense.shape[-1]
    padded = np.zeros(dense.shape[:-1] + (_n_words(n) * WORD,), dtype=np.uint8)
    padded[..., :n] = dense & 1
    return np.packbits(padded, axis=-1, bitorder="little").view(np.uint64)


def unpack(words: np.ndarray, cols: int) -> np.ndarray:
    """(m, words) uint64 -> (m, cols) 0/1 uint8; the inverse of ``pack``."""
    bits = np.unpackbits(np.atleast_2d(words).view(np.uint8), axis=1, bitorder="little")
    return bits[:, :cols].copy()


def row_reduce(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced row echelon form of packed rows; the one GF(2) elimination.

    ``words`` is one (rows, words) matrix or a (B, rows, words) stack of B
    matrices, all eliminated in the same pass over the row index.  In each
    matrix, each row in turn takes its lowest set bit as its pivot, and
    that bit is cleared from every other row.  A row reduced to zero by the
    pivots before it depends on the rows above it, so the rows that take a
    pivot are the first-wins independent subset.  Sorting the pivot rows by
    pivot gives the unique RREF for natural column order.

    For a stack, returns per matrix the reduced words (pivot rows by
    increasing pivot, then zero rows), the pivot column of each row and
    the source row of each pivot row, both -1 at the zero rows: shapes
    (B, rows, words), (B, rows) and (B, rows).  For one matrix, returns its
    reduced words and the pivots and sources of its pivot rows only.
    """
    stacked = words.ndim == 3
    # word-major planes (B, words, rows): a word of every row is contiguous
    planes = np.swapaxes(words if stacked else words[None], 1, 2).copy()
    n_mats, n_words, n_rows = planes.shape
    mats = np.arange(n_mats)
    pivots = [[-1] * n_mats] * n_rows  # per row index, each matrix's pivot or -1
    for i in range(n_rows if n_words else 0):
        lead, shift, piv = [0] * n_mats, [WORD] * n_mats, [-1] * n_mats
        for b, row in enumerate(planes[:, :, i].tolist()):
            for j, word in enumerate(row):
                if word:
                    lead[b], shift[b] = j, (word & -word).bit_length() - 1
                    piv[b] = j * WORD + shift[b]
                    break
        pivots[i] = piv
        # each matrix's pivot word across its rows; a shift of WORD reads
        # no bit, so a zero row clears nothing
        lo = min(lead)
        at = planes[:, lo:lo + 1] if lo == max(lead) else planes[mats, lead][:, None]
        hits = (at >> np.array(shift, dtype=np.uint64).reshape(-1, 1, 1)) & np.uint64(1)
        hits[:, 0, i] = 0
        tail = planes[:, lo:]  # every pivot row is zero below its pivot word
        tail ^= planes[:, lo:, i:i + 1] * hits
    pivots = np.array(pivots, dtype=np.int64).reshape(n_rows, n_mats).T
    order = np.argsort(np.where(pivots < 0, n_words * WORD, pivots), axis=1, kind="stable")
    picked = mats[:, None], order
    reduced = np.swapaxes(planes, 1, 2)[picked]
    pivots = pivots[picked]
    sources = np.where(pivots < 0, -1, order)
    if stacked:
        return reduced, pivots, sources
    rank = int((pivots >= 0).sum())
    return reduced[0], pivots[0, :rank], sources[0, :rank]


class Gf2Matrix:
    """Binary matrix with word-packed rows.

    Use the ``from_*`` constructors; the raw constructor takes a packed word
    array and trusts that padding bits beyond ``cols`` are zero.
    """

    __slots__ = ("rows", "cols", "_words", "_rref")

    def __init__(self, rows: int, cols: int, words: np.ndarray):
        self.rows = rows
        self.cols = cols
        self._words = words
        self._rref = None  # RrefResult in natural column order, on demand

    # ---------------- constructors ----------------

    @classmethod
    def from_dense(cls, dense) -> "Gf2Matrix":
        dense = np.atleast_2d(np.asarray(dense, dtype=np.uint8))
        return cls(dense.shape[0], dense.shape[1], pack(dense))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Gf2Matrix":
        return cls(rows, cols, np.zeros((rows, _n_words(cols)), dtype=np.uint64))

    # ---------------- accessors ----------------

    def to_dense(self) -> np.ndarray:
        return unpack(self._words, self.cols)

    def words(self) -> np.ndarray:
        """Packed row words (copy; callers may scribble on it)."""
        return self._words.copy()

    def get(self, i: int, j: int) -> int:
        return int(self._words[i, j // WORD] >> np.uint64(j % WORD)) & 1

    def row_weights(self) -> np.ndarray:
        return np.bitwise_count(self._words).sum(axis=1).astype(np.int64)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Gf2Matrix):
            return NotImplemented
        return (self.shape == other.shape) and bool(np.array_equal(self._words, other._words))

    def __repr__(self) -> str:
        return f"Gf2Matrix({self.rows}x{self.cols})"

    # ---------------- algebra ----------------

    def __add__(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.shape != other.shape:
            raise ShapeMismatch(f"cannot add {self.shape} and {other.shape}")
        return Gf2Matrix(self.rows, self.cols, self._words ^ other._words)

    def __matmul__(self, other: "Gf2Matrix") -> "Gf2Matrix":
        """Product over GF(2): one float64 product of the dense operands,
        reduced mod 2.  Every entry is an integer at most the inner dimension,
        which float64 holds exactly while that dimension is below 2^53."""
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot multiply {self.shape} by {other.shape}")
        prod = self.to_dense().astype(np.float64) @ other.to_dense().astype(np.float64)
        return Gf2Matrix.from_dense(prod % 2)

    def transpose(self) -> "Gf2Matrix":
        return Gf2Matrix.from_dense(self.to_dense().T)

    def hstack(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.rows != other.rows:
            raise ShapeMismatch("row counts differ")
        return Gf2Matrix.from_dense(np.hstack([self.to_dense(), other.to_dense()]))

    def take_rows(self, indices) -> "Gf2Matrix":
        idx = np.asarray(indices, dtype=np.int64)
        return Gf2Matrix(len(idx), self.cols, self._words[idx].copy())

    def columns(self, lo: int, hi: int) -> "Gf2Matrix":
        return Gf2Matrix.from_dense(self.to_dense()[:, lo:hi])

    # ---------------- elimination ----------------

    def rank(self) -> int:
        return len(self.rref().pivot_cols)

    def rref(self) -> "RrefResult":
        """Reduced row echelon form over GF(2) in natural column order,
        computed once and cached.  ``independent_rows`` is the first-wins
        spanning subset: scanning top to bottom, a row is listed iff it is
        independent of all rows listed before it.  Eliminations in another
        column order call ``row_reduce`` on the reordered columns.
        """
        if self._rref is None:
            reduced, pivots, sources = row_reduce(self._words)
            self._rref = RrefResult(Gf2Matrix(self.rows, self.cols, reduced),
                                    tuple(pivots.tolist()),
                                    tuple(sorted(sources.tolist())))
        return self._rref

    def independent_row_subset(self) -> list[int]:
        """First-wins independent spanning rows, scanning top to bottom."""
        return list(self.rref().independent_rows)

    def in_row_space(self, row: "Gf2Matrix") -> bool:
        """True iff every row of ``row`` lies in this matrix's row space.

        A query q is in the row space iff it equals the XOR of the RREF rows
        at the pivot columns where q has a 1.
        """
        if row.cols != self.cols:
            raise ShapeMismatch("column counts differ")
        res = self.rref()
        pivots = np.asarray(res.pivot_cols, dtype=np.int64)
        basis = res.matrix._words[:len(pivots)]
        hits = (row._words[:, pivots // WORD] >> (pivots % WORD).astype(np.uint64)) & 1
        combos = np.bitwise_xor.reduce(
            np.where(hits[:, :, None].astype(bool), basis[None], np.uint64(0)), axis=1)
        return bool(np.array_equal(combos, row._words))


@dataclass(frozen=True)
class RrefResult:
    matrix: Gf2Matrix
    pivot_cols: tuple[int, ...]
    independent_rows: tuple[int, ...]


# ---------------- lifting ----------------


def lift(p: int, cells) -> Gf2Matrix:
    """Lift a grid of exponent lists to a binary matrix of p x p blocks.

    Block (i, j) is the mod-2 sum, over the exponents d in ``cells[i][j]``,
    of the circulant permutation matrix with ones at (r, (r + d) mod p).
    Any int is taken mod p and repeats cancel, so an exponent list is a
    polynomial modulo x**p - 1 and the 1 x 1 grid ``[[f]]`` gives the
    circulant of f, each row the previous one shifted right by one.
    """
    dense = np.zeros((len(cells) * p, len(cells[0]) * p), dtype=np.uint8)
    rows = np.arange(p)
    for i, row in enumerate(cells):
        for j, cell in enumerate(row):
            block = dense[i * p:(i + 1) * p, j * p:(j + 1) * p]
            for d in cell:
                block[rows, (rows + d) % p] ^= 1
    return Gf2Matrix.from_dense(dense)
