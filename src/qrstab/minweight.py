"""Minimum symplectic-weight search engines.

Two regimes:

* exact enumeration of a whole GF(2) span (or cosets of one) with the
  X and Z halves packed into uint64 words, split meet-in-the-middle so the
  inner loop is pure vectorized XOR / OR / popcount;
* randomized information-set search for spaces too large to enumerate,
  working on qubit-interleaved columns so a systematic basis exposes
  low-weight elements directly.

Both report the achieving vector along with the weight.  All randomness is
seeded by the caller; identical seeds give identical results.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InvalidParameters
from .gf2 import pack, row_reduce, unpack

# bit 2q of a word of interleaved (x_q, z_q) columns
_EVEN_BITS = np.uint64(0x5555_5555_5555_5555)
# elements per vectorized step of the exact scan; keeps temporaries in cache
_CHUNK = 1 << 16


@dataclass
class SearchResult:
    weight: int
    a: np.ndarray  # dense uint8, length N
    b: np.ndarray
    evaluated: int = 0


def xor_table(rows: np.ndarray) -> np.ndarray:
    """All 2^m XOR combinations of the given packed rows, combo index bit i
    selecting row i."""
    out = np.zeros((1, rows.shape[1]), dtype=np.uint64)
    for i in range(rows.shape[0]):
        out = np.vstack([out, out ^ rows[i]])
    return out


def min_weight_affine(pa: np.ndarray, pb: np.ndarray,
                      offset_a: np.ndarray, offset_b: np.ndarray,
                      n_qubits: int, exclude_zero: bool = False) -> SearchResult:
    """Exact minimum symplectic weight over the union of the cosets
    {offset + span(rows)}, one per offset.

    pa, pb: (m, words) packed X/Z halves of the basis rows; offset_a,
    offset_b: one (words,) offset or a (c, words) stack of them.  Splits the
    span in half and scans the other half, shifted by each offset in turn,
    against a table of one half; both tables are built once for all offsets
    and the inner loop touches ``_CHUNK`` elements per vectorized step.  Ties
    go to the first offset, then to the first element in scan order.
    """
    m, words = pa.shape
    offsets_a, offsets_b = np.atleast_2d(offset_a), np.atleast_2d(offset_b)
    t1 = m // 2
    A1, B1 = xor_table(pa[:t1]), xor_table(pb[:t1])
    A2, B2 = xor_table(pa[t1:]), xor_table(pb[t1:])
    # uint8 popcounts cap at 64 per word; multi-word sums fit uint32
    sentinel = 255 if words == 1 else (1 << 31) - 1
    best_w, best_row, best_i1 = sentinel, 0, 0
    n1, n2 = A1.shape[0], A2.shape[0]
    step = max(1, _CHUNK // n1)
    # scan rows run over (offset, second-half index) pairs, offset-major
    for s in range(0, len(offsets_a) * n2, step):
        k, i2 = np.divmod(np.arange(s, min(s + step, len(offsets_a) * n2)), n2)
        a2, b2 = A2[i2] ^ offsets_a[k], B2[i2] ^ offsets_b[k]
        if words == 1:
            a = a2 ^ A1[None, :, 0]
            b = b2 ^ B1[None, :, 0]
            np.bitwise_or(a, b, out=a)
            w = np.bitwise_count(a)
        else:
            a = a2[:, None, :] ^ A1[None, :, :]
            b = b2[:, None, :] ^ B1[None, :, :]
            np.bitwise_or(a, b, out=a)
            w = np.bitwise_count(a).sum(axis=-1, dtype=np.uint32)
        if exclude_zero:
            w[w == 0] = sentinel
        idx = np.unravel_index(int(np.argmin(w)), w.shape)
        wm = int(w[idx])
        if wm < best_w:
            best_w, best_row, best_i1 = wm, s + int(idx[0]), int(idx[1])
    k, i2 = divmod(best_row, n2)
    va = A2[i2] ^ offsets_a[k] ^ A1[best_i1]
    vb = B2[i2] ^ offsets_b[k] ^ B1[best_i1]
    return SearchResult(best_w, unpack(va, n_qubits)[0], unpack(vb, n_qubits)[0],
                        evaluated=len(offsets_a) << m)


def min_weight_span(pa: np.ndarray, pb: np.ndarray, n_qubits: int) -> SearchResult:
    """Exact minimum symplectic weight over the nonzero elements of a span."""
    words = pa.shape[1]
    zero = np.zeros(words, dtype=np.uint64)
    return min_weight_affine(pa, pb, zero, zero, n_qubits, exclude_zero=True)


def low_weight_commuting(ha: np.ndarray, hb: np.ndarray,
                         n_qubits: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """All symplectic vectors of weight 1 or 2 commuting with every row of
    (ha | hb), ordered by weight, then by Pauli pattern (X < Z < Y, lowest
    qubit first), then by qubits.

    Used as an exact pre-scan: if the lightest of these lies outside the
    stabilizer, the distance is settled without enumerating the dual space.
    The syndrome of X on qubit q is column q of hb, of Z column q of ha, and
    of Y their XOR.  A weight-1 vector commutes iff its syndrome is zero and
    a weight-2 vector iff its two syndromes are equal, so the scan buckets
    the 3N packed syndrome columns by value and pairs within each bucket
    instead of testing candidates.
    """
    sx, sz = pack(hb.T), pack(ha.T)
    buckets = defaultdict(list)
    for k, s in enumerate(np.vstack([sx, sz, sx ^ sz])):
        buckets[s.tobytes()].append(divmod(k, n_qubits))  # (pattern, qubit)
    # each vector as (patterns..., qubits...), lowest qubit first; tuples sort
    # in the documented order
    singles = buckets.get(bytes(sx[0].nbytes), [])
    pairs = sorted((p0, p1, q0, q1) if q0 < q1 else (p1, p0, q1, q0)
                   for bucket in buckets.values()
                   for (p0, q0), (p1, q1) in combinations(bucket, 2) if q0 != q1)

    out = []
    for w, cells in ((1, singles), (2, pairs)):
        cells = np.array(cells, dtype=np.int64).reshape(-1, 2 * w)
        pats, qubits = cells[:, :w], cells[:, w:]
        rows = np.arange(len(cells))[:, None]
        a = np.zeros((len(cells), n_qubits), dtype=np.uint8)
        b = np.zeros_like(a)
        a[rows, qubits] = pats != 1  # X or Y
        b[rows, qubits] = pats != 0  # Z or Y
        out += [(w, a[r], b[r]) for r in range(len(cells))]
    return out


# ---------------- randomized information-set search ----------------


def _interleave(basis_a: np.ndarray, basis_b: np.ndarray) -> np.ndarray:
    """Columns reordered as x_q, z_q pairs: x_q at column 2q, z_q at 2q + 1."""
    r, n = basis_a.shape
    out = np.empty((r, 2 * n), dtype=np.uint8)
    out[:, 0::2] = basis_a
    out[:, 1::2] = basis_b
    return out


def isd_search(basis_a: np.ndarray, basis_b: np.ndarray, n_qubits: int,
               budget: int, seed: int, accept=None) -> SearchResult:
    """Randomized low-weight search over the span of the given basis.

    Each round permutes the qubits, row-reduces the basis on interleaved
    (x, z) columns, and scores all single rows and row pairs of the reduced
    basis; systematic bases concentrate weight outside the pivot block, so
    minimum-weight elements surface quickly for structured codes.

    ``accept`` optionally filters candidates (given dense a, b vectors);
    elements failing it are scored but never returned.  ``budget`` (at least
    1) caps the number of scored candidates.  Never returns the zero vector.
    """
    if budget < 1:
        raise InvalidParameters(f"search budget must be at least 1, got {budget}")
    rng = np.random.default_rng(seed)
    r = basis_a.shape[0]
    sentinel = n_qubits + 1
    best = SearchResult(sentinel, np.zeros(n_qubits, np.uint8),
                        np.zeros(n_qubits, np.uint8))
    evaluated = 0
    interleaved = _interleave(basis_a, basis_b)
    ii, jj = np.triu_indices(r, 1)
    while evaluated < budget:
        perm = rng.permutation(n_qubits)
        cols = np.stack([2 * perm, 2 * perm + 1], axis=1).ravel()  # pairs, permuted
        reduced = row_reduce(pack(interleaved[:, cols]))[0]
        cands = np.vstack([reduced, reduced[ii] ^ reduced[jj]])
        w = np.bitwise_count((cands | cands >> np.uint64(1)) & _EVEN_BITS).sum(axis=1)
        w = np.where(w == 0, sentinel, w)
        evaluated += len(cands)
        for idx in np.argsort(w, kind="stable"):
            wm = int(w[idx])
            if wm >= best.weight:
                break
            bits = unpack(cands[idx], 2 * n_qubits)[0]
            a = np.empty(n_qubits, dtype=np.uint8)
            b = np.empty(n_qubits, dtype=np.uint8)
            a[perm], b[perm] = bits[0::2], bits[1::2]
            if accept is not None and not accept(a, b):
                continue
            best = SearchResult(wm, a, b)
            break
    best.evaluated = evaluated
    return best
