"""Binary representation of Pauli operators and the twisted inner product.

An N-qubit Pauli operator (phase dropped) is a pair of binary N-vectors
(a | b): a marks bit-flip components, b marks phase-flip components, and a
position with both set is Y.  Two operators commute exactly when the twisted
inner product a.b' + a'.b vanishes mod 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSymbol, LengthMismatch, ShapeMismatch
from .gf2 import Gf2Matrix

_SYMBOLS = "IXZY"  # index = a + 2b
_SYMBOL_BYTES = np.frombuffer(_SYMBOLS.encode(), dtype=np.uint8)

# Pauli strings are plain str over the alphabet I, X, Y, Z; from_pauli
# validates the alphabet and to_pauli produces it.
PauliString = str


@dataclass(frozen=True)
class SymplecticVector:
    """One Pauli operator as an (a | b) pair of length-N binary vectors."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.uint8) & 1
        b = np.asarray(self.b, dtype=np.uint8) & 1
        if a.shape != b.shape or a.ndim != 1:
            raise LengthMismatch("a and b must be equal-length vectors")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n_qubits(self) -> int:
        return len(self.a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymplecticVector):
            return NotImplemented
        return np.array_equal(self.a, other.a) and np.array_equal(self.b, other.b)

    def __mul__(self, other: "SymplecticVector") -> "SymplecticVector":
        """Phaseless product: component-wise XOR."""
        if self.n_qubits != other.n_qubits:
            raise LengthMismatch("operators act on different qubit counts")
        return SymplecticVector(self.a ^ other.a, self.b ^ other.b)


def symplectic_product(u: SymplecticVector, v: SymplecticVector) -> int:
    """(u.a . v.b + v.a . u.b) mod 2; zero iff the operators commute."""
    if u.n_qubits != v.n_qubits:
        raise LengthMismatch("operators act on different qubit counts")
    return int((int(u.a @ v.b) + int(v.a @ u.b)) % 2)


def weight(u: SymplecticVector) -> int:
    """Number of qubits on which the operator acts non-trivially."""
    return int((u.a | u.b).sum())


def to_pauli(u: SymplecticVector) -> str:
    return _SYMBOL_BYTES[u.a + 2 * u.b].tobytes().decode()


def from_pauli(s: str) -> SymplecticVector:
    a = np.zeros(len(s), dtype=np.uint8)
    b = np.zeros(len(s), dtype=np.uint8)
    for i, ch in enumerate(s):
        try:
            code = _SYMBOLS.index(ch)
        except ValueError:
            raise InvalidSymbol(f"symbol {ch!r} at position {i}") from None
        a[i] = code & 1
        b[i] = code >> 1
    return SymplecticVector(a, b)


def sip_check(h1: Gf2Matrix, h2: Gf2Matrix) -> bool:
    """True iff H1 @ H2.T + H2 @ H1.T = 0 (mod 2).

    This is the pairwise-commutation condition on the rows of [H1 | H2].
    With G = H1 @ H2.T the second term is G.T, so the condition is that G
    is symmetric.  G is the packed GF(2) product: for m rows of weight w in
    H1, m * w * words(m) word XORs.
    """
    if h1.shape != h2.shape:
        raise ShapeMismatch(f"halves differ in shape: {h1.shape} vs {h2.shape}")
    g = h1 @ h2.transpose()
    return g == g.transpose()


def syndrome(code_h: Gf2Matrix, e: SymplecticVector) -> np.ndarray:
    """Measurement outcome of every generator row on the error e.

    Row i of the result is the symplectic product of row i of H = [H1 | H2]
    with e, under the eigenvalue convention +1 -> 0, -1 -> 1.
    """
    if code_h.cols != 2 * e.n_qubits:
        raise ShapeMismatch(
            f"check matrix has {code_h.cols} columns, error acts on {e.n_qubits} qubits")
    n = e.n_qubits
    dense = code_h.to_dense()
    h1, h2 = dense[:, :n], dense[:, n:]
    return ((h1 @ e.b + h2 @ e.a) % 2).astype(np.uint8)
