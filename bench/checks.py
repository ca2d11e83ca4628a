"""Checks of qrstab's outputs that share no code with qrstab.

A GF(2) vector is a Python integer, bit i holding column i.  A Pauli
operator on N qubits is a pair (x, z) of such integers; its symplectic form
is the single integer x | z << N.  Row spaces are kept as an elimination
basis over these integers, and commutation between many operators is one
symplectic Gram matrix computed with numpy.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

# Pauli symbol -> (x bit, z bit)
PAULI_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


class CheckError(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------- parsers ----------------


def parse_pauli(text: str) -> tuple[int, int]:
    """A Pauli string over I, X, Y, Z -> (x, z) with qubit i at bit i."""
    x = z = 0
    for i, ch in enumerate(text):
        if ch not in PAULI_BITS:
            raise CheckError(f"symbol {ch!r} at position {i} of a Pauli string")
        bx, bz = PAULI_BITS[ch]
        x |= bx << i
        z |= bz << i
    return x, z


def parse_alist(text: str) -> np.ndarray:
    """An alist file -> its dense 0/1 matrix, after checking that the
    stated weights and the column lists agree with the row lists."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    def ints(i: int) -> list[int]:
        require(i < len(lines), f"alist ends before line {i + 1}")
        try:
            return [int(t) for t in lines[i].split()]
        except ValueError:
            raise CheckError(f"alist line {i + 1} is not integers") from None

    rows, cols = ints(0)
    max_rw, max_cw = ints(1)
    row_w, col_w = ints(2), ints(3)
    require(len(row_w) == rows and len(col_w) == cols, "alist weight lists have wrong length")
    require(len(lines) == 4 + rows + cols, "alist has the wrong number of lines")
    dense = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        vals = ints(4 + i)
        live = [v for v in vals if v]
        require(len(vals) == max_rw and len(live) == row_w[i], f"alist row {i + 1} weight")
        for v in live:
            require(1 <= v <= cols, f"alist row {i + 1} names column {v}")
            dense[i, v - 1] = 1
    for j in range(cols):
        vals = ints(4 + rows + j)
        live = sorted(v for v in vals if v)
        require(len(vals) == max_cw and len(live) == col_w[j], f"alist column {j + 1} weight")
        require(live == [i + 1 for i in np.flatnonzero(dense[:, j])],
                f"alist column {j + 1} disagrees with the row lists")
    return dense


# ---------------- GF(2) over Python integers ----------------


def bits_to_int(bits) -> int:
    """A 0/1 sequence -> integer with element i at bit i."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def int_to_bits(v: int, n: int) -> np.ndarray:
    raw = np.frombuffer(v.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n]


class Span:
    """Row space of GF(2) vectors, kept as a basis keyed by leading bit."""

    def __init__(self, rows=()):
        self.basis: dict[int, int] = {}
        for v in rows:
            self.add(v)

    def reduce(self, v: int) -> int:
        while v:
            b = self.basis.get(v.bit_length() - 1)
            if b is None:
                return v
            v ^= b
        return 0

    def add(self, v: int) -> None:
        v = self.reduce(v)
        if v:
            self.basis[v.bit_length() - 1] = v

    def __contains__(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def rank(self) -> int:
        return len(self.basis)


# ---------------- Pauli operators ----------------


def weight(op: tuple[int, int]) -> int:
    return (op[0] | op[1]).bit_count()


def symplectic(op: tuple[int, int], n: int) -> int:
    return op[0] | op[1] << n


def halves(ops: list[tuple[int, int]], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The X and Z parts of the operators as rows of 0/1 float64 matrices."""
    x = np.array([int_to_bits(o[0], n) for o in ops], dtype=np.float64).reshape(-1, n)
    z = np.array([int_to_bits(o[1], n) for o in ops], dtype=np.float64).reshape(-1, n)
    return x, z


def gram(left, right) -> np.ndarray:
    """Symplectic Gram matrix of two operator lists given by ``halves``:
    entry (i, j) is 1 iff left[i] and right[j] anticommute.

    The 0/1 products are summed in float64, where every partial sum is an
    integer below 2**53 and so exact; the parity is taken afterwards.
    """
    (lx, lz), (rx, rz) = left, right
    counts = lx @ rz.T + lz @ rx.T
    return counts.astype(np.int64) % 2


class Stabilizer:
    """Generators of a stabilizer group, checked on construction to commute
    pairwise and to be independent."""

    def __init__(self, gens: list[tuple[int, int]], n: int):
        self.gens = gens
        self.n = n
        self.span = Span(symplectic(g, n) for g in gens)
        self.halves = halves(gens, n)
        require(not gram(self.halves, self.halves).any(), "generators do not commute pairwise")
        require(self.span.rank == len(gens),
                f"generator rank {self.span.rank} != {len(gens)} generators")

    @classmethod
    def from_pauli(cls, strings: list[str]) -> "Stabilizer":
        require(len({len(s) for s in strings}) == 1, "generators act on different qubit counts")
        return cls([parse_pauli(s) for s in strings], len(strings[0]))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "Stabilizer":
        """Rows of a binary check matrix [X part | Z part]."""
        n = dense.shape[1] // 2
        return cls([(bits_to_int(r[:n]), bits_to_int(r[n:])) for r in dense], n)

    @property
    def m(self) -> int:
        return len(self.gens)

    @property
    def k(self) -> int:
        return self.n - self.m

    def lightest_generator(self) -> int:
        return min(weight(g) for g in self.gens)

    def commutes_with_all(self, op: tuple[int, int]) -> bool:
        return not gram(halves([op], self.n), self.halves).any()

    def contains(self, op: tuple[int, int]) -> bool:
        return symplectic(op, self.n) in self.span

    def check_logicals(self, lx: list[str], lz: list[str]) -> None:
        """K pairs that commute with every generator, X_i anticommuting with
        Z_i only, and independent of the generators and of each other."""
        xs = [parse_pauli(s) for s in lx]
        zs = [parse_pauli(s) for s in lz]
        k = self.k
        require(len(xs) == len(zs) == k, f"{len(xs)}/{len(zs)} logicals for K = {k}")
        if not k:
            return
        hx, hz = halves(xs, self.n), halves(zs, self.n)
        require(not gram(hx, self.halves).any() and not gram(hz, self.halves).any(),
                "a logical operator anticommutes with a generator")
        require(np.array_equal(gram(hx, hz), np.eye(k, dtype=np.int64)),
                "logical X_i must anticommute with Z_i and with no other Z_j")
        require(not gram(hx, hx).any() and not gram(hz, hz).any(),
                "logical X (or Z) operators do not commute among themselves")
        full = Span(self.span.basis.values())
        for op in xs + zs:
            full.add(symplectic(op, self.n))
        require(full.rank == self.m + 2 * k,
                f"generators and logicals have rank {full.rank} != m + 2K = {self.m + 2 * k}")

    def check_d_dagger_witness(self, value: int, witness: str) -> None:
        op = parse_pauli(witness)
        require(len(witness) == self.n, "witness acts on the wrong number of qubits")
        require(weight(op) == value, f"witness weighs {weight(op)}, value is {value}")
        require(weight(op) > 0 and self.contains(op),
                "d_dagger witness is not a nonzero stabilizer element")

    def check_d_min_witness(self, value: int, witness: str) -> None:
        op = parse_pauli(witness)
        require(len(witness) == self.n, "witness acts on the wrong number of qubits")
        require(weight(op) == value, f"witness weighs {weight(op)}, value is {value}")
        require(self.commutes_with_all(op), "d_min witness anticommutes with a generator")
        require(not self.contains(op), "d_min witness is a stabilizer element")

    def lightest_logical(self, wmax: int) -> int | None:
        """Brute force: the smallest w <= wmax at which some Pauli operator
        commutes with every generator and lies outside the stabilizer, or
        None when there is none that light.

        The syndrome of an operator is the XOR of the syndromes of its
        single-qubit factors, so all 3^w factor choices on a set of w qubits
        are scored at once.
        """
        n, m = self.n, self.m
        require(m <= 63, "brute force supports at most 63 generators")
        # syndrome of X, Z, Y on each qubit: bit g set iff generator g anticommutes
        single = np.zeros((n, 3), dtype=np.uint64)
        for g, (gx, gz) in enumerate(self.gens):
            for q in range(n):
                bx, bz = (gx >> q) & 1, (gz >> q) & 1
                for s, (px, pz) in enumerate(((1, 0), (0, 1), (1, 1))):
                    if (px & bz) ^ (pz & bx):
                        single[q, s] |= np.uint64(1 << g)
        factors = ((1, 0), (0, 1), (1, 1))
        for w in range(1, wmax + 1):
            supports = np.array(list(combinations(range(n), w)), dtype=np.int64)
            syn = single[supports[:, 0]]
            for j in range(1, w):
                syn = (syn[:, :, None] ^ single[supports[:, j]][:, None, :]).reshape(len(supports), -1)
            for row, pattern in zip(*np.nonzero(syn == 0)):
                x = z = 0
                for j in reversed(range(w)):
                    px, pz = factors[pattern % 3]
                    pattern //= 3
                    x |= px << int(supports[row, j])
                    z |= pz << int(supports[row, j])
                if not self.contains((x, z)):
                    return w
        return None
