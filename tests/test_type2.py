import numpy as np
import pytest

from qrstab.errors import DependentRows, RowIndexOutOfRange, WrongForm
from qrstab.gf2 import cpm, integer_product_sum
from qrstab.numtheory import classify_prime
from qrstab.type2 import (Layout, ProtoMatrix, QcsSpec, QcsVariant, arrange,
                          build_proto_qcs_a, build_proto_qcs_b, build_qcs,
                          default_removal, expected_component_rank, lift)

QCS_PRIMES = [5, 7, 11, 13, 17, 19, 23, 29]


def variant_for(p):
    return QcsVariant.A if p % 4 == 3 else QcsVariant.B


def cells_as_ints(proto):
    return [[next(iter(c)) for c in row] for row in proto.cells]


def test_proto_a_p7():
    h1, h2 = build_proto_qcs_a(classify_prime(7))
    assert cells_as_ints(h1) == [[2, 4, 1], [4, 1, 2], [1, 2, 4]]
    assert cells_as_ints(h2) == [[5, 3, 6], [3, 6, 5], [6, 5, 3]]
    adj = h2.adjoin_zero()
    assert adj.cells[0][0] == frozenset({0, 5})
    assert adj.cells[0][1] == frozenset({0, 3})
    assert adj.cells[0][2] == frozenset({0, 6})
    assert h1.cells[0][0] == frozenset({2})  # generator element beta


def test_proto_a_p11_latin():
    ctx = classify_prime(11)
    h1, h2 = build_proto_qcs_a(ctx)
    assert h1.is_latin_square() and h2.is_latin_square()
    assert set(cells_as_ints(h1)[0]) == set(ctx.qr)
    assert h1.is_commutative() and h2.is_commutative()


def test_proto_b_p13():
    h1, h2 = build_proto_qcs_b(classify_prime(13))
    ints1, ints2 = cells_as_ints(h1), cells_as_ints(h2)
    assert ints1[0] == [4, 3, 12, 9, 10, 1]
    assert ints1[1] == [1, 4, 3, 12, 9, 10]
    assert ints2[0] == [8, 6, 11, 5, 7, 2]
    assert min(classify_prime(13).qnr) == 2  # gamma
    assert h2.is_commutative() and not h1.is_commutative()
    assert h1.is_latin_square() and h2.is_latin_square()


def test_proto_b_p5():
    h1, h2 = build_proto_qcs_b(classify_prime(5))
    assert cells_as_ints(h1) == [[4, 1], [1, 4]]
    assert cells_as_ints(h2) == [[3, 2], [2, 3]]


def test_proto_sum_is_constant_p():
    for p in (7, 11, 19, 23):
        h1, h2 = build_proto_qcs_a(classify_prime(p))
        a, b = np.array(cells_as_ints(h1)), np.array(cells_as_ints(h2))
        assert ((a + b) % p == 0).all()  # negation pairs


def test_wrong_form():
    with pytest.raises(WrongForm):
        build_proto_qcs_a(classify_prime(13))
    with pytest.raises(WrongForm):
        build_proto_qcs_b(classify_prime(7))
    with pytest.raises(WrongForm):
        build_qcs(QcsSpec(classify_prime(13), QcsVariant.A))


def test_lift_blocks_p7():
    ctx = classify_prime(7)
    spec = QcsSpec(ctx, QcsVariant.A, Layout.H1_ADJ2)
    left_proto, right_proto = arrange(spec)
    left, right = lift(left_proto), lift(right_proto)
    ld, rd = left.to_dense(), right.to_dense()
    expected_left = [[2, 4, 1], [4, 1, 2], [1, 2, 4]]
    for i in range(3):
        for j in range(3):
            blk = ld[7 * i:7 * (i + 1), 7 * j:7 * (j + 1)]
            assert np.array_equal(blk, cpm(7, expected_left[i][j]).to_dense())
    blk = rd[:7, :7]
    assert np.array_equal(blk, (cpm(7, 0) + cpm(7, 5)).to_dense())
    assert left.row_weights().tolist() == [3] * 21
    assert right.row_weights().tolist() == [6] * 21


def test_lift_empty_cell_is_zero_block():
    proto = ProtoMatrix(3, 2, (
        (frozenset({1}), frozenset()),
        (frozenset(), frozenset({0, 2})),
    ))
    dense = lift(proto).to_dense()
    assert not dense[:3, 3:].any()
    assert not dense[3:, :3].any()
    assert np.array_equal(dense[3:, 3:], (cpm(3, 0) + cpm(3, 2)).to_dense())


@pytest.mark.parametrize("p", QCS_PRIMES)
def test_component_ranks_and_relation(p):
    ctx = classify_prime(p)
    variant = variant_for(p)
    expect = expected_component_rank(ctx, variant)
    for layout in (Layout if variant is QcsVariant.A else [Layout.H1_ADJ2]):
        spec = QcsSpec(ctx, variant, layout)
        left_proto, right_proto = arrange(spec)
        left, right = lift(left_proto), lift(right_proto)
        # "h1-adj2" and "h2-adj1" keep the plain half on the left
        plain, adjunct = (left, right) if layout.value.startswith("h") else (right, left)
        if variant is QcsVariant.A:
            assert plain.rank() == expect
            assert adjunct.rank() == expect - 1   # adjunct half is one short
        else:
            assert left.rank() == right.rank() == expect
        # the provenance ranks, from one elimination, match direct ones
        provenance = build_qcs(spec).provenance
        assert provenance["rank_full"] == left.hstack(right).rank()
        assert provenance["rank_plain_half"] == plain.rank()


@pytest.mark.parametrize("p,expect_removed,expect_k", [
    (7, 5, 5),     # even n: 2k - 1 rows
    (13, 5, 5),    # odd n, variant B: k - 1 rows
    (19, 26, 26),  # odd n, 3 | k, variant A: p + k - 2 rows
    (29, 13, 13),  # odd n, variant B
])
def test_default_removal_counts_and_dimension(p, expect_removed, expect_k, make_qcs):
    ctx = classify_prime(p)
    removed = default_removal(ctx, variant_for(p))
    assert len(removed) == expect_removed
    code = make_qcs(p)
    assert code.k_logical == expect_k
    assert code.m == ctx.p * ctx.k - expect_removed
    code.validate()


def test_example_removal_p7(make_qcs):
    code = make_qcs(7, removed=(2, 3, 8, 11, 21))
    assert code.m == 16 and code.k_logical == 5
    code.validate()


def test_qcs_b_p13_ranks(make_qcs):
    code = make_qcs(13)
    assert code.provenance["rank_full"] == 73
    assert code.provenance["rank_plain_half"] == 73
    assert code.k_logical == 5


@pytest.mark.parametrize("p", QCS_PRIMES)
def test_retained_rows_independent_for_default_policy(p, make_qcs):
    code = make_qcs(p)
    assert code.h.rank() == code.m
    assert code.m == expected_component_rank(classify_prime(p), variant_for(p))


def test_removal_validation():
    ctx = classify_prime(7)
    with pytest.raises(RowIndexOutOfRange):
        build_qcs(QcsSpec(ctx, QcsVariant.A, removed_rows=(0,)))
    with pytest.raises(RowIndexOutOfRange):
        build_qcs(QcsSpec(ctx, QcsVariant.A, removed_rows=(22,)))
    with pytest.raises(RowIndexOutOfRange):
        build_qcs(QcsSpec(ctx, QcsVariant.A, removed_rows=(3, 3)))
    # removing nothing leaves the dependent full matrix
    with pytest.raises(DependentRows):
        build_qcs(QcsSpec(ctx, QcsVariant.A, removed_rows=()))


@pytest.mark.parametrize("p", [7, 11])
def test_integer_commutation_identity(p):
    """Over the integers the mixed Gram sum is 2 everywhere except the
    within-block diagonals, which vanish: 2 * (J_k (x) (J_p - I_p))."""
    ctx = classify_prime(p)
    spec = QcsSpec(ctx, QcsVariant.A, Layout.H1_ADJ2)
    left_proto, right_proto = arrange(spec)
    left, right = lift(left_proto), lift(right_proto)
    got = integer_product_sum(left, right)
    k = ctx.k
    expect = 2 * np.kron(np.ones((k, k), dtype=np.int64),
                         np.ones((p, p), dtype=np.int64) - np.eye(p, dtype=np.int64))
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("p", [5, 13, 17, 29])
def test_qcs_b_cancellation_supports(p):
    """{beta^j} and {-beta^j} coincide as sets for p = 4n + 1, which is what
    makes the mixed products cancel termwise."""
    ctx = classify_prime(p)
    powers = set(ctx.beta_powers)
    assert {(p - x) % p for x in powers} == powers


@pytest.mark.parametrize("layout", list(Layout))
def test_all_layouts_commute_and_build(layout, make_qcs):
    code = make_qcs(7, layout=layout.value)
    code.validate()
    assert code.k_logical == 5


def test_smallest_prime_edge():
    """p = 3 has k = 1 and beta = 1; both families produce valid trivial
    codes (odd n, so there is no redundancy to remove)."""
    ctx = classify_prime(3)
    code = build_qcs(QcsSpec(ctx, QcsVariant.A))
    assert code.params() == "[[3,0]]" and code.m == 3
    code.validate()


def test_any_removal_preserves_commutation():
    """Row removal is a pairwise condition: whatever rows survive still
    commute (they may just be dependent)."""
    rng = np.random.default_rng(3)
    ctx = classify_prime(7)
    built = 0
    while built < 5:
        rows = tuple(sorted(rng.choice(21, size=5, replace=False) + 1))
        try:
            code = build_qcs(QcsSpec(ctx, QcsVariant.A, Layout.H1_ADJ2, rows))
        except DependentRows:
            continue
        code.validate()
        built += 1
