"""Dense bit-packed GF(2) matrices and circulant constructors.

Rows are stored as little-endian uint64 words, so elimination works a word
at a time.  ``row_reduce`` is the one elimination routine: rank, RREF,
independent rows, row-space membership, the standard form and every
information-set round run on it.  Matrices are immutable from the outside:
every operation returns a fresh instance and never mutates its inputs, so
each matrix caches its RREF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch

WORD = 64


def _n_words(cols: int) -> int:
    return (cols + WORD - 1) // WORD


def pack(dense) -> np.ndarray:
    """(m, n) 0/1 array -> (m, words) uint64, little-endian within rows."""
    dense = np.atleast_2d(np.asarray(dense, dtype=np.uint8))
    m, n = dense.shape
    padded = np.zeros((m, _n_words(n) * WORD), dtype=np.uint8)
    padded[:, :n] = dense & 1
    packed = np.packbits(padded, axis=1, bitorder="little")
    return packed.view(np.uint64)


def unpack(words: np.ndarray, cols: int) -> np.ndarray:
    """(m, words) uint64 -> (m, cols) 0/1 uint8; the inverse of ``pack``."""
    bits = np.unpackbits(np.atleast_2d(words).view(np.uint8), axis=1, bitorder="little")
    return bits[:, :cols].copy()


def row_reduce(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced row echelon form of packed rows; the one GF(2) elimination.

    Each row in turn takes its lowest set bit as its pivot, and that bit is
    cleared from every other row.  A row reduced to zero by the pivots
    before it depends on the rows above it, so the rows that take a pivot
    are the first-wins independent subset.  Sorting the pivot rows by pivot
    gives the unique RREF for natural column order.

    Returns the reduced words (pivot rows by increasing pivot, then zero
    rows), the pivot columns, and the source row of each pivot row.
    """
    w = words.copy()
    pivots = np.full(len(w), -1, dtype=np.int64)
    for i in range(len(w)):
        row = w[i]
        for wj, word in enumerate(row.tolist()):
            if word:
                break
        else:
            continue
        bit = (word & -word).bit_length() - 1
        hits = (w[:, wj] >> np.uint64(bit)) & np.uint64(1)
        hits[i] = 0
        w ^= hits[:, None] * row
        pivots[i] = wj * WORD + bit
    sources = np.flatnonzero(pivots >= 0)
    sources = sources[np.argsort(pivots[sources])]
    order = np.concatenate([sources, np.flatnonzero(pivots < 0)])
    return w[order], pivots[sources], sources


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

    @classmethod
    def identity(cls, n: int) -> "Gf2Matrix":
        return cls.from_dense(np.eye(n, dtype=np.uint8))

    @classmethod
    def ones(cls, rows: int, cols: int) -> "Gf2Matrix":
        return cls.from_dense(np.ones((rows, cols), dtype=np.uint8))

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

    def is_zero(self) -> bool:
        return not self._words.any()

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


# ---------------- circulants ----------------


@dataclass(frozen=True)
class SupportPoly:
    """A binary polynomial modulo x**p - 1, stored as its exponent support."""

    modulus: int
    support: frozenset[int]

    def __post_init__(self):
        if not all(0 <= e < self.modulus for e in self.support):
            object.__setattr__(self, "support",
                               frozenset(e % self.modulus for e in self.support))

    @property
    def weight(self) -> int:
        return len(self.support)

    def __add__(self, other: "SupportPoly") -> "SupportPoly":
        return SupportPoly(self.modulus, self.support ^ other.support)

    def __mul__(self, other: "SupportPoly") -> "SupportPoly":
        """Product modulo x**p - 1, coefficients mod 2."""
        p = self.modulus
        counts: dict[int, int] = {}
        for a in self.support:
            for b in other.support:
                e = (a + b) % p
                counts[e] = counts.get(e, 0) ^ 1
        return SupportPoly(p, frozenset(e for e, c in counts.items() if c))

    def reciprocal(self) -> "SupportPoly":
        """Exponent negation; the circulant of the reciprocal is the transpose."""
        return SupportPoly(self.modulus, frozenset((-e) % self.modulus for e in self.support))


def support_poly(modulus: int, exponents) -> SupportPoly:
    return SupportPoly(modulus, frozenset(int(e) % modulus for e in exponents))


def fill_circulant(block: np.ndarray, exponents) -> None:
    """XOR the circulant permutation matrix of each exponent d, the ones at
    (i, (i + d) mod p), into the square 0/1 array ``block`` in place."""
    rows = np.arange(len(block))
    for d in exponents:
        block[rows, (rows + d) % len(block)] ^= 1


def circulant(poly: SupportPoly) -> Gf2Matrix:
    """Mod-2 sum of cpm(p, e) over the support; each row is the previous
    row shifted right by one."""
    dense = np.zeros((poly.modulus, poly.modulus), dtype=np.uint8)
    fill_circulant(dense, poly.support)
    return Gf2Matrix.from_dense(dense)


def cpm(p: int, d: int) -> Gf2Matrix:
    """Circulant permutation matrix: entry (i, (i + d) mod p) = 1."""
    return circulant(support_poly(p, (d,)))


def integer_product_sum(h1: Gf2Matrix, h2: Gf2Matrix) -> np.ndarray:
    """H1 @ H2.T + H2 @ H1.T over the integers (not mod 2)."""
    a = h1.to_dense().astype(np.int64)
    b = h2.to_dense().astype(np.int64)
    return a @ b.T + b @ a.T
