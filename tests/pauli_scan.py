"""Brute-force enumeration of Pauli operators by weight.

Every symplectic vector up to a weight cap is built directly and checked for
commutation and stabilizer membership.  The distance engines enumerate
normalizer cosets meet-in-the-middle instead; the two paths share no
enumeration code, so agreement between them certifies a distance.
"""

from itertools import combinations, islice

import numpy as np

from qrstab.gf2 import Gf2Matrix, pack, unpack

_PATTERNS = ((1, 0), (0, 1), (1, 1))


def commuting_vectors_of_weight(code, w, chunk=2000):
    """Yield (a, b) dense vectors of symplectic weight w commuting with all
    generator rows."""
    n = code.n_qubits
    dense = code.h.to_dense()
    pa, pb = pack(dense[:, :n]), pack(dense[:, n:])
    words = pa.shape[1]
    pattern_grid = np.array(
        np.meshgrid(*([range(3)] * w), indexing="ij")).reshape(w, -1).T

    pos_iter = combinations(range(n), w)
    while True:
        block = list(islice(pos_iter, chunk))
        if not block:
            return
        pos = np.array(block)  # (B, w)
        B = len(pos)
        P = len(pattern_grid)
        ca = np.zeros((B * P, words), dtype=np.uint64)
        cb = np.zeros_like(ca)
        for slot in range(w):
            q = np.repeat(pos[:, slot], P)
            pat = np.tile(pattern_grid[:, slot], B)
            xa = np.array([_PATTERNS[t][0] for t in pat], dtype=np.uint64)
            xb = np.array([_PATTERNS[t][1] for t in pat], dtype=np.uint64)
            rows = np.arange(B * P)
            np.bitwise_or.at(ca, (rows, q // 64), xa << (q % 64).astype(np.uint64))
            np.bitwise_or.at(cb, (rows, q // 64), xb << (q % 64).astype(np.uint64))
        alive = np.arange(B * P)
        for i in range(pa.shape[0]):
            if alive.size == 0:
                break
            par = (np.bitwise_count(ca[alive] & pb[i]).sum(axis=1)
                   + np.bitwise_count(cb[alive] & pa[i]).sum(axis=1)) & 1
            alive = alive[par == 0]
        for j in alive:
            yield unpack(ca[j], n)[0], unpack(cb[j], n)[0]


def lightest_logical_weight(code, wmax):
    """Smallest w <= wmax at which a commuting non-stabilizer element exists,
    or None when there is none that light."""
    for w in range(1, wmax + 1):
        for a, b in commuting_vectors_of_weight(code, w):
            row = Gf2Matrix.from_dense(np.concatenate([a, b])[None, :])
            if not code.h.in_row_space(row):
                return w
    return None


def certify_distance(code, d):
    """True iff no commuting non-stabilizer element has weight < d and one
    exists at weight d."""
    return lightest_logical_weight(code, d) == d
