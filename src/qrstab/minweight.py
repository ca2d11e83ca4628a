"""Minimum symplectic-weight search engines.

Two engines and a reference scan:

* the Brouwer-Zimmermann engine for any additive code: combinations of few
  rows of several systematic bases on qubit-interleaved columns, with one
  element per omega-orbit on GF(4)-linear codes; run to completion it
  returns a lightest element and proves it minimal;
* randomized information-set search for upper bounds where the engine's
  proof does not fit the budget, working on qubit-interleaved columns so a
  systematic basis exposes low-weight elements directly, its rounds
  eliminated and scored as stacks;
* a full meet-in-the-middle scan of cosets of a span, with the X and Z
  halves packed into uint64 words; no distance uses it, it is the
  reference the engine is tested against.

The searches report the achieving vector along with the weight.  All
randomness is seeded by the caller; identical seeds give identical results.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InvalidParameters
from .gf2 import pack, row_reduce, unpack

# bit 2q of a word of interleaved (x_q, z_q) columns
_EVEN_BITS = np.uint64(0x5555_5555_5555_5555)
# elements per vectorized step of the exact scan and candidates per step of
# the information-set search; keeps temporaries in cache
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
                      n_qubits: int) -> SearchResult:
    """Exact minimum symplectic weight over the union of the cosets
    {offset + span(rows)}, one per offset, by scanning every element.

    pa, pb: (m, words) packed X/Z halves of the basis rows; offset_a,
    offset_b: one (words,) offset or a (c, words) stack of them.  Splits the
    span in half and scans the other half, shifted by each offset in turn,
    against a table of one half; both tables are built once for all offsets
    and the inner loop touches ``_CHUNK`` elements per vectorized step.  Ties
    go to the first offset, then to the first element in scan order.
    ``evaluated`` counts the elements scanned.
    """
    offsets_a, offsets_b = np.atleast_2d(offset_a), np.atleast_2d(offset_b)
    t1 = len(pa) // 2
    A1, B1 = xor_table(pa[:t1]), xor_table(pb[:t1])
    A2, B2 = xor_table(pa[t1:]), xor_table(pb[t1:])
    best_w, best_row, best_i1 = n_qubits + 1, 0, 0
    n1, n2 = A1.shape[0], A2.shape[0]
    step = max(1, _CHUNK // n1)
    # scan rows run over (offset, second-half index) pairs, offset-major
    for s in range(0, len(offsets_a) * n2, step):
        k, i2 = np.divmod(np.arange(s, min(s + step, len(offsets_a) * n2)), n2)
        a2, b2 = A2[i2] ^ offsets_a[k], B2[i2] ^ offsets_b[k]
        a = a2[:, None, :] ^ A1[None, :, :]
        b = b2[:, None, :] ^ B1[None, :, :]
        np.bitwise_or(a, b, out=a)
        w = np.bitwise_count(a).sum(axis=-1, dtype=np.uint32)
        idx = np.unravel_index(int(np.argmin(w)), w.shape)
        if w[idx] < best_w:
            best_w, best_row, best_i1 = int(w[idx]), s + int(idx[0]), int(idx[1])
    k, i2 = divmod(best_row, n2)
    va = A2[i2] ^ offsets_a[k] ^ A1[best_i1]
    vb = B2[i2] ^ offsets_b[k] ^ B1[best_i1]
    return SearchResult(best_w, unpack(va, n_qubits)[0], unpack(vb, n_qubits)[0],
                        evaluated=len(offsets_a) * n1 * n2)


def low_weight_commuting(ha: np.ndarray, hb: np.ndarray, n_qubits: int) -> np.ndarray:
    """All symplectic vectors of weight 1 or 2 commuting with every row of
    (ha | hb), ordered by weight, then by Pauli pattern (X < Z < Y, lowest
    qubit first), then by qubits.

    Each vector is a row of two cells, lowest qubit first: cell
    pattern * N + qubit holds X (pattern 0), Z (1) or Y (2) on that qubit,
    and cell -1 nothing, so a weight-1 vector's second cell is -1.  Used as
    an exact pre-scan: if the lightest of these lies outside the
    stabilizer, the distance is settled without enumerating the dual space.
    The syndrome of X on qubit q is column q of hb, of Z column q of ha, and
    of Y their XOR.  A weight-1 vector commutes iff its syndrome is zero and
    a weight-2 vector iff its two syndromes are equal, so the scan buckets
    the 3N packed syndrome columns, one per cell, by value and pairs within
    each bucket instead of testing candidates.
    """
    sx, sz = pack(hb.T), pack(ha.T)
    buckets = defaultdict(list)
    for k, s in enumerate(np.vstack([sx, sz, sx ^ sz])):
        buckets[s.tobytes()].append(divmod(k, n_qubits))  # (pattern, qubit)
    singles = [(p * n_qubits + q, -1) for p, q in buckets.get(bytes(sx[0].nbytes), [])]
    # each pair as (patterns..., qubits...), lowest qubit first; tuples sort
    # in the documented order
    pairs = sorted((p0, p1, q0, q1) if q0 < q1 else (p1, p0, q1, q0)
                   for bucket in buckets.values()
                   for (p0, q0), (p1, q1) in combinations(bucket, 2) if q0 != q1)
    pairs = [(p0 * n_qubits + q0, p1 * n_qubits + q1) for p0, p1, q0, q1 in pairs]
    return np.array(singles + pairs, dtype=np.int64).reshape(-1, 2)


def cell_sums(x_rows: np.ndarray, z_rows: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Per vector given as cells (rows of ``low_weight_commuting``), the XOR
    over its cells of x_rows[q] for X on qubit q, z_rows[q] for Z and their
    XOR for Y.  With x_rows the logicals' Z half transposed and z_rows their
    X half transposed, that is each vector's symplectic products with the
    logicals."""
    table = np.vstack([x_rows, z_rows, x_rows ^ z_rows, np.zeros_like(x_rows[:1])])
    return table[cells[:, 0]] ^ table[cells[:, 1]]  # cell -1: the zero row


def cell_vector(cells: np.ndarray, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense halves (a, b) of one vector given as cells."""
    a, b = np.zeros((2, n_qubits), dtype=np.uint8)
    for pattern, q in (divmod(int(c), n_qubits) for c in cells if c >= 0):
        a[q], b[q] = pattern != 1, pattern != 0  # X or Y, Z or Y
    return a, b


# ---------------- randomized information-set search ----------------


def _interleave(basis_a: np.ndarray, basis_b: np.ndarray) -> np.ndarray:
    """Columns reordered as x_q, z_q pairs: x_q at column 2q, z_q at 2q + 1."""
    r, n = basis_a.shape
    out = np.empty((r, 2 * n), dtype=np.uint8)
    out[:, 0::2] = basis_a
    out[:, 1::2] = basis_b
    return out


def _deinterleave(word: np.ndarray, order: np.ndarray,
                  n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense (a, b) of one packed row whose interleaved columns hold the
    qubits in ``order``: x_order[i] at column 2i, z_order[i] at 2i + 1."""
    bits = unpack(word, 2 * n_qubits)[0]
    a = np.empty(n_qubits, dtype=np.uint8)
    b = np.empty(n_qubits, dtype=np.uint8)
    a[order], b[order] = bits[0::2], bits[1::2]
    return a, b


def _weights(words: np.ndarray) -> np.ndarray:
    """Symplectic weights of packed rows of interleaved (x_q, z_q) columns,
    over the last axis."""
    counts = np.bitwise_count((words | words >> np.uint64(1)) & _EVEN_BITS)
    weights = np.zeros(counts.shape[:-1], dtype=np.int32)
    for j in range(counts.shape[-1]):  # numpy's sum over a few words is slower
        weights += counts[..., j]
    return weights


def isd_search(basis_a: np.ndarray, basis_b: np.ndarray, n_qubits: int,
               budget: int, seed: int, tags: np.ndarray | None = None) -> SearchResult:
    """Randomized low-weight search over the span of the given basis.

    Each round permutes the qubits, row-reduces the basis on interleaved
    (x, z) columns, and scores all single rows and row pairs of the reduced
    basis; systematic bases concentrate weight outside the pivot block, so
    minimum-weight elements surface quickly for structured codes.

    ``tags`` works as in ``weight_bounds``: tag columns ride along after
    the code columns, word-aligned, and candidates whose tags sum to zero
    are scored but never returned.  ``budget`` (at least 1) fixes the
    number of rounds: the fewest whose candidates reach it, r + r(r-1)/2 a
    round for r basis rows, so ``evaluated`` is rounds times that.  Each
    round draws its permutation in turn; the rounds are eliminated as a
    stack, one ``row_reduce`` call per step of about ``_CHUNK`` candidates,
    and scored together.  Ties go to the earliest round, then to the first
    candidate in it: rows, then pairs in ``triu_indices`` order.  Never
    returns the zero vector; raises ``InvalidParameters`` for an empty
    basis.
    """
    if budget < 1:
        raise InvalidParameters(f"search budget must be at least 1, got {budget}")
    r = basis_a.shape[0]
    if r == 0:
        raise InvalidParameters("search basis has no rows")
    rng = np.random.default_rng(seed)
    ii, jj = np.triu_indices(r, 1)
    per_round = r + len(ii)
    rounds = -(-budget // per_round)
    # a round holds per_round candidates and a permutation of n_qubits
    step = max(1, _CHUNK // max(per_round, n_qubits))
    sentinel = n_qubits + 1
    best = SearchResult(sentinel, np.zeros(n_qubits, np.uint8),
                        np.zeros(n_qubits, np.uint8))
    interleaved = _interleave(basis_a, basis_b)
    tag_words = pack(np.zeros((r, 0), dtype=np.uint8) if tags is None else tags)
    code_words = -(-2 * n_qubits // 64)
    evaluated = 0
    for start in range(0, rounds, step):
        perms = np.array([rng.permutation(n_qubits) for _ in range(min(step, rounds - start))])
        cols = np.stack([2 * perms, 2 * perms + 1], axis=2).reshape(len(perms), -1)  # pairs, permuted
        code = pack(interleaved[:, cols].transpose(1, 0, 2))
        stack = np.concatenate([code, np.broadcast_to(tag_words, (len(perms), *tag_words.shape))],
                               axis=2)
        reduced = row_reduce(stack)[0]
        pairs = np.take(reduced, ii, axis=1) ^ np.take(reduced, jj, axis=1)
        cands = np.concatenate([reduced, pairs], axis=1)
        w = _weights(cands[..., :code_words])
        counted = w > 0
        if tag_words.shape[1]:
            counted &= cands[..., code_words:].any(axis=-1)
        w = np.where(counted, w, sentinel)
        evaluated += w.size
        k, i = np.unravel_index(int(np.argmin(w)), w.shape)
        if w[k, i] < best.weight:
            best = SearchResult(int(w[k, i]),
                                *_deinterleave(cands[k, i, :code_words], perms[k], n_qubits))
    best.evaluated = evaluated
    return best


# ---------------- Brouwer-Zimmermann engine ----------------


def _information_sets(inter: np.ndarray, tags: np.ndarray,
                      n_qubits: int) -> list[tuple[int, np.ndarray, list[np.ndarray]]]:
    """Systematic forms of the interleaved basis, each reduced with the
    qubits that hold no pivot yet first, until no fresh qubit takes one.

    Each form is (overlap, order, groups): ``overlap`` counts the distinct
    already-used qubits holding its pivots, ``order`` is the qubit order of
    its columns, and each pivot qubit's group is the packed array of its
    nonzero row choices, code columns then tag columns: one row, or its
    X-pivot row, Z-pivot row and their sum.
    """
    used = np.zeros(n_qubits, dtype=bool)
    tag_words = pack(tags)  # after the code words, so word-aligned
    sets = []
    while True:
        order = np.concatenate([np.flatnonzero(~used), np.flatnonzero(used)])
        cols = np.stack([2 * order, 2 * order + 1], axis=1).ravel()
        reduced, pivots, _ = row_reduce(np.hstack([pack(inter[:, cols]), tag_words]))
        qubits = order[pivots // 2]
        if used[qubits].all():
            return sets
        overlap = len(np.unique(qubits[used[qubits]]))
        used[qubits] = True
        groups = []
        for pos in np.unique(pivots // 2):
            rows = reduced[np.flatnonzero(pivots // 2 == pos)]
            groups.append(rows if len(rows) == 1 else np.vstack([rows, rows[0] ^ rows[1]]))
        sets.append((overlap, order, groups))


def _level_sizes(groups: list[np.ndarray], gf4: bool) -> list[int]:
    """Entry s is the number of combinations touching s pivot qubits: the
    coefficients of the product of (1 + c x) over the groups' choice counts
    c, a third of them past s = 0 when only one element per omega-orbit is
    formed."""
    sizes = [1]
    for g in groups:
        sizes = [a + len(g) * b for a, b in zip(sizes + [0], [0] + sizes)]
    return sizes[:1] + [s // 3 for s in sizes[1:]] if gf4 else sizes


def _extend(level: tuple[np.ndarray, np.ndarray], groups: list[np.ndarray],
            size: int, choices: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``size`` combinations touching one more pivot qubit, each after
    the last one its parent touched, with the first ``choices`` choices
    there; the parent level is sorted by that last qubit, and so is the
    result."""
    words, last = level
    out = np.empty((size, words.shape[1]), dtype=np.uint64)
    out_last = np.empty(size, dtype=np.int64)
    at = 0
    for g, group in enumerate(groups):
        parents = words[:np.searchsorted(last, g)]
        for row in group[:choices]:
            out[at:at + len(parents)] = parents ^ row
            out_last[at:at + len(parents)] = g
            at += len(parents)
    return out, out_last


def weight_bounds(basis_a: np.ndarray, basis_b: np.ndarray, n_qubits: int,
                  cap: float = math.inf, gf4: bool = False,
                  tags: np.ndarray | None = None) -> tuple[int, SearchResult]:
    """Brouwer-Zimmermann bounds on the minimum symplectic weight of the
    nonzero elements of the span of independent rows (basis_a | basis_b):
    ``(lower, lightest)``, where ``lightest`` is the lightest element formed
    and its weight ``upper`` (N + 1 and the zero vector if none).
    ``lower == upper`` proves it minimal, which always holds without a
    ``cap``.  Ties go to the first lightest element formed: t rises, each t
    takes the information sets in order, each set its new levels in rising
    order, and each level its rows in level order.  ``lightest.evaluated``
    counts the elements formed.

    With ``tags`` (one 0/1 row per basis row), only elements whose tags sum
    to nonzero count: for the normalizer with tags the symplectic products
    with the logicals, the elements outside the stabilizer.

    Information sets come from repeated row reductions (see
    ``_information_sets``); set j has ``overlap`` O_j.  Level t enumerates,
    on every set with O_j <= t, each combination touching t of its pivot
    qubits.  An element not yet seen touches at least t + 1 pivot qubits of
    each such set, at least t + 1 - O_j of them fresh, and the fresh qubits
    of the sets are disjoint, so it weighs at least
    L_t = sum_j max(0, t + 1 - O_j).  Levels rise until L_t reaches
    ``upper``, or until the next one would take the elements formed past
    ``cap``; then ``lower`` is L_t of the last level done.

    ``gf4`` declares the span closed under omega: (x_q, z_q) -> (z_q,
    x_q + z_q) on every qubit, which keeps weight and the tags' zero-ness.
    Every pivot qubit then holds an X- and a Z-pivot row, and omega rotates
    its choices X-row -> Z-row -> both while keeping the touched qubits, so
    fixing the first touched qubit to its X-row forms one element per orbit.
    """
    inter = _interleave(basis_a, basis_b)
    tags = np.zeros((len(inter), 0), dtype=np.uint8) if tags is None else tags
    sets = _information_sets(inter, tags, n_qubits)
    if gf4 and any(len(g) != 3 for _, _, groups in sets for g in groups):
        raise InvalidParameters("the span is not closed under omega")
    code_words = -(-2 * n_qubits // 64)
    sizes = [_level_sizes(groups, gf4) + [0] * n_qubits for _, _, groups in sets]
    width = sets[0][2][0].shape[1] if sets else 0
    levels = [(np.zeros((1, width), dtype=np.uint64), np.array([-1]))] * len(sets)
    done = [0] * len(sets)
    zero = np.zeros(n_qubits, dtype=np.uint8)
    best = SearchResult(n_qubits + 1, zero, zero)
    formed = 0
    t, lower = 0, sum(o == 0 for o, _, _ in sets)
    while sets and lower < best.weight:
        t += 1
        active = [j for j, (o, _, _) in enumerate(sets) if o <= t]
        cost = sum(sum(sizes[j][done[j] + 1:t + 1]) for j in active)
        if formed + cost > cap:
            break
        formed += cost
        for j in active:
            _, order, groups = sets[j]
            for s in range(done[j] + 1, t + 1):
                levels[j] = _extend(levels[j], groups, sizes[j][s],
                                    1 if gf4 and s == 1 else 3)
                words = levels[j][0][:, :code_words]
                if tags.shape[1]:
                    words = words[levels[j][0][:, code_words:].any(axis=1)]
                if len(words):
                    w = _weights(words)
                    i = int(np.argmin(w))
                    if w[i] < best.weight:
                        best = SearchResult(int(w[i]), *_deinterleave(words[i], order, n_qubits))
            done[j] = t
        lower = sum(max(0, t + 1 - o) for o, _, _ in sets)
    best.evaluated = formed
    return min(lower, best.weight), best
