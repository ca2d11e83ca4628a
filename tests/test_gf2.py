import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrstab import gf2
from qrstab.errors import ShapeMismatch
from qrstab.gf2 import Gf2Matrix, lift, row_reduce, unpack
from qrstab.numtheory import classify_prime

rng = np.random.default_rng(20240811)


def random_dense(m, n):
    return rng.integers(0, 2, (m, n), dtype=np.uint8)


def rank_oracle(dense):
    """Plain uint8 Gaussian elimination, independent of the packed path."""
    a = dense.copy() % 2
    m, n = a.shape
    r = 0
    for c in range(n):
        if r >= m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + nz[0]
        a[[r, pr]] = a[[pr, r]]
        for o in np.nonzero(a[:, c])[0]:
            if o != r:
                a[o] ^= a[r]
        r += 1
    return r


def test_pack_round_trip_and_padding():
    for n in (1, 63, 64, 65, 130):
        d = random_dense(5, n)
        m = Gf2Matrix.from_dense(d)
        assert np.array_equal(m.to_dense(), d)
        # padding bits beyond n are zero in every word
        full = np.unpackbits(m.words().view(np.uint8), axis=1, bitorder="little")
        assert not full[:, n:].any()


def test_cpm_identity_and_shift():
    assert np.array_equal(lift(3, [[[0]]]).to_dense(), np.eye(3, dtype=np.uint8))
    m = lift(7, [[[2]]])
    assert m.get(0, 2) == 1 and m.row_weights().tolist() == [1] * 7
    assert lift(5, [[[7]]]) == lift(5, [[[2]]])  # exponent reduction mod p


def test_circulant_weights_and_shift_structure():
    m = lift(7, [[[0, 3, 5, 6]]])
    assert m.row_weights().tolist() == [4] * 7
    d = m.to_dense()
    for i in range(1, 7):
        assert np.array_equal(d[i], np.roll(d[i - 1], 1))
    assert not lift(5, [[[]]]).to_dense().any()
    m13 = lift(13, [[[1, 3, 4, 9, 10, 12]]])
    assert m13.row_weights().tolist() == [6] * 13


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 11), st.integers(1, 3), st.integers(1, 3), st.data())
def test_lift_matches_entry_definition(p, n_rows, n_cols, data):
    # entry (i*p + r, j*p + c) is the parity of #{d in cells[i][j] : r + d = c mod p}
    cell = st.lists(st.integers(-2 * p, 2 * p), max_size=6)
    cells = data.draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols),
                               min_size=n_rows, max_size=n_rows))
    expect = [[sum((r + d) % p == c for d in cells[i][j]) % 2
               for j in range(n_cols) for c in range(p)]
              for i in range(n_rows) for r in range(p)]
    assert np.array_equal(lift(p, cells).to_dense(), np.array(expect, dtype=np.uint8))
    assert not lift(5, [[[2, 7]]]).to_dense().any()  # 7 = 2 mod 5: a repeat cancels


def test_rank_examples():
    ctx = classify_prime(7)
    q_bar = lift(7, [[(0, *ctx.qnr)]])
    q = lift(7, [[ctx.qr]])
    assert q_bar.rank() == 3
    assert q.rank() == 4
    ctx13 = classify_prime(13)
    assert lift(13, [[ctx13.qr]]).rank() == 12


def test_rref_identity_and_all_ones():
    eye = Gf2Matrix.from_dense(np.eye(4, dtype=np.uint8))
    res = eye.rref()
    assert res.matrix == eye
    assert res.pivot_cols == (0, 1, 2, 3)
    ones = Gf2Matrix.from_dense(np.ones((3, 3), dtype=np.uint8)).rref()
    assert len(ones.pivot_cols) == 1
    assert ones.matrix.row_weights().tolist() == [3, 0, 0]


def test_rref_joint_pair_rank():
    ctx = classify_prime(7)
    joint = lift(7, [[(0, *ctx.qnr), ctx.qr]])
    res = joint.rref()
    assert len(res.pivot_cols) == 4 == joint.rank()
    assert len(res.independent_rows) == 4


def test_independent_row_subset():
    eye = Gf2Matrix.from_dense(np.eye(5, dtype=np.uint8))
    assert eye.independent_row_subset() == [0, 1, 2, 3, 4]
    two_equal = Gf2Matrix.from_dense([[1, 0, 1], [1, 0, 1]])
    assert two_equal.independent_row_subset() == [0]


def test_independent_rows_span_and_first_wins():
    for _ in range(20):
        d = random_dense(12, 9)
        m = Gf2Matrix.from_dense(d)
        keep = m.independent_row_subset()
        assert len(keep) == m.rank() == rank_oracle(d)
        assert m.take_rows(keep).rank() == len(keep)
        # first-wins: a row is kept exactly when it is independent of all
        # previously kept rows
        kept_so_far = []
        for j in range(m.rows):
            base = m.take_rows(kept_so_far) if kept_so_far else Gf2Matrix.zeros(1, m.cols)
            in_span = base.in_row_space(m.take_rows([j]))
            if j in keep:
                assert not in_span
                kept_so_far.append(j)
            else:
                assert in_span


@pytest.mark.parametrize("shape", [(8, 8), (40, 17), (64, 64), (100, 130), (256, 512)])
def test_rank_matches_oracle(shape):
    d = random_dense(*shape)
    m = Gf2Matrix.from_dense(d)
    assert m.rank() == rank_oracle(d) == len(m.rref().independent_rows)


def test_rref_is_canonical():
    for _ in range(10):
        d = random_dense(9, 14)
        res = Gf2Matrix.from_dense(d).rref()
        red = res.matrix.to_dense()
        r = len(res.pivot_cols)
        for i, c in enumerate(res.pivot_cols):
            col = red[:, c]
            assert col[i] == 1 and col.sum() == 1  # unit pivot columns
        assert not red[r:].any()  # zero rows at the bottom
        # row space preserved
        assert Gf2Matrix.from_dense(np.vstack([d, red])).rank() == r


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 2, 5]), st.integers(0, 9), st.integers(1, 3), st.data())
def test_stacked_row_reduce_matches_each_matrix(n_mats, n_rows, n_words, data):
    """A stack is eliminated as its matrices one by one would be: same
    reduced words, pivots and sources, padded with -1 past each rank."""
    seed = data.draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    # sparse words, so pivots land in every word; some rows zero or sums of others
    words = gen.integers(0, 2**64, (n_mats, n_rows, n_words), dtype=np.uint64)
    words &= gen.integers(0, 2**64, words.shape, dtype=np.uint64)
    words[gen.random(words.shape) < 0.3] = 0
    for b in range(n_mats):
        for i in range(n_rows):
            kind = data.draw(st.sampled_from(["random", "zero", "sum"]))
            if kind == "zero":
                words[b, i] = 0
            elif kind == "sum" and i >= 2:
                pick = gen.integers(0, 2, i).astype(bool)
                words[b, i] = np.bitwise_xor.reduce(words[b, :i][pick], axis=0)
    before = words.copy()
    reduced, pivots, sources = row_reduce(words)
    assert np.array_equal(words, before)  # the input is not modified
    assert reduced.shape == words.shape and pivots.shape == sources.shape == words.shape[:2]
    for b in range(n_mats):
        one = row_reduce(words[b])
        rank = len(one[1])
        assert rank == rank_oracle(unpack(words[b], n_words * 64))
        assert np.array_equal(reduced[b], one[0])
        assert np.array_equal(pivots[b, :rank], one[1])
        assert np.array_equal(sources[b, :rank], one[2])
        assert (pivots[b, rank:] == -1).all() and (sources[b, rank:] == -1).all()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 200), st.integers(0, 200), st.integers(0, 200), st.data())
def test_matmul_matches_numpy(m, k, n, data):
    # shapes cross 64-bit word boundaries; each row of a draws its own
    # density, so all-zero, sparse, half-full and all-one rows mix
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    density = gen.choice([0.0, 0.02, 0.5, 1.0], size=(m, 1))
    a = (gen.random((m, k)) < density).astype(np.uint8)
    b = gen.integers(0, 2, (k, n), dtype=np.uint8)
    got = Gf2Matrix.from_dense(a) @ Gf2Matrix.from_dense(b)
    assert got.shape == (m, n)
    assert np.array_equal(got.to_dense(), (a.astype(int) @ b.astype(int)) % 2)
    with pytest.raises(ShapeMismatch):
        Gf2Matrix.zeros(3, 3) @ Gf2Matrix.zeros(4, 4)


@pytest.mark.parametrize("m,k,bound", [
    (150, 150, 2**14),  # a few rows per chunk
    (20, 300, 2**10),   # one row's gather alone exceeds the bound
])
def test_matmul_gathers_in_bounded_chunks(monkeypatch, m, k, bound):
    monkeypatch.setattr(gf2, "_GATHER_WORDS", bound)
    a = np.ones((m, k), dtype=np.uint8)
    b = random_dense(k, 40 * 64)
    ma, mb = Gf2Matrix.from_dense(a), Gf2Matrix.from_dense(b)
    tracemalloc.start()
    try:
        got = ma @ mb
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got.to_dense(), (a.astype(int) @ b.astype(int)) % 2)
    # an unchunked gather alone would hold m * k * 40 words of 8 bytes
    assert peak < m * k * 40 * 8 // 4


def test_add_is_xor():
    a = random_dense(6, 6)
    b = random_dense(6, 6)
    s = Gf2Matrix.from_dense(a) + Gf2Matrix.from_dense(b)
    assert np.array_equal(s.to_dense(), a ^ b)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 130), st.data())
def test_in_row_space_matches_rank_oracle(m, rank_cap, n, data):
    # self is a product of random factors, so it is often rank-deficient
    seed = data.draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    d = (gen.integers(0, 2, (m, rank_cap)) @ gen.integers(0, 2, (rank_cap, n))) % 2
    d = d.astype(np.uint8)
    m_gf2 = Gf2Matrix.from_dense(d)
    queries = [np.zeros(n, dtype=np.uint8),                     # the zero row
               gen.integers(0, 2, n, dtype=np.uint8),            # usually outside
               (gen.integers(0, 2, m) @ d % 2).astype(np.uint8)]  # always inside
    for q in queries:
        inside = rank_oracle(np.vstack([d, q])) == rank_oracle(d)
        assert m_gf2.in_row_space(Gf2Matrix.from_dense(q[None, :])) == inside
    with pytest.raises(ShapeMismatch):
        m_gf2.in_row_space(Gf2Matrix.zeros(1, n + 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 31).filter(lambda p: p in {3, 5, 7, 11, 13, 17, 19, 23, 29, 31}),
       st.data())
def test_circulant_polynomial_homomorphism(p, data):
    f = data.draw(st.lists(st.integers(-2 * p, 2 * p), max_size=p))
    g = data.draw(st.lists(st.integers(-2 * p, 2 * p), max_size=p))
    assert lift(p, [[f]]) @ lift(p, [[g]]) == lift(p, [[[a + b for a in f for b in g]]])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([5, 7, 11, 13]), st.data())
def test_circulant_transpose_is_reciprocal(p, data):
    f = data.draw(st.lists(st.integers(-2 * p, 2 * p), max_size=p))
    assert lift(p, [[f]]).transpose() == lift(p, [[[-d for d in f]]])


def test_exponent_list_arithmetic():
    f, g = lift(7, [[[1, 2]]]), lift(7, [[[0, 2]]])
    assert f + g == lift(7, [[[0, 1]]])
    # (x + x^2)(1 + x^2) = x + x^2 + x^3 + x^4
    assert f @ g == lift(7, [[[1, 2, 3, 4]]])
    assert f.transpose() == lift(7, [[[5, 6]]])


def test_take_rows_and_hstack():
    d = random_dense(5, 10)
    m = Gf2Matrix.from_dense(d)
    assert np.array_equal(m.take_rows([4, 1]).to_dense(), d[[4, 1]])
    h = m.hstack(m)
    assert h.shape == (5, 20)
    assert np.array_equal(h.to_dense(), np.hstack([d, d]))
