import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrstab.errors import InvalidSymbol, LengthMismatch, ShapeMismatch
from qrstab.gf2 import Gf2Matrix, lift
from qrstab.numtheory import classify_prime, is_prime
from qrstab.symplectic import (SymplecticVector, from_pauli, sip_check,
                               symplectic_product, syndrome, to_pauli, weight)
from qrstab.type1 import Type1Spec, default_variant, half_polys
from qrstab.type2 import Layout, QcsSpec, QcsVariant, arrange

pauli_strings = st.text(alphabet="IXYZ", min_size=1, max_size=24)


def test_phi_mapping_examples():
    e = from_pauli("XYYZI")
    assert e.a.tolist() == [1, 1, 1, 0, 0]
    assert e.b.tolist() == [0, 1, 1, 1, 0]
    f = from_pauli("XYZYY")
    assert f.a.tolist() == [1, 1, 0, 1, 1]
    assert f.b.tolist() == [0, 1, 1, 1, 1]
    assert to_pauli(SymplecticVector([1, 1, 0, 1, 1], [0, 1, 1, 1, 1])) == "XYZYY"
    assert to_pauli(SymplecticVector([0] * 5, [0] * 5)) == "IIIII"


def test_commutation_examples():
    assert symplectic_product(from_pauli("XYYZI"), from_pauli("XYZYY")) == 0
    u = from_pauli("XZYI")
    assert symplectic_product(u, u) == 0
    assert symplectic_product(from_pauli("X"), from_pauli("Z")) == 1
    with pytest.raises(LengthMismatch):
        symplectic_product(from_pauli("X"), from_pauli("XX"))


def test_weight_examples():
    assert weight(from_pauli("IXXZZ")) == "IXXZZ".count("X") + "IXXZZ".count("Z")
    assert weight(SymplecticVector([0] * 4, [0] * 4)) == 0
    assert weight(from_pauli("XYYZI")) == 4


@settings(max_examples=60, deadline=None)
@given(pauli_strings)
def test_pauli_round_trip(s):
    assert to_pauli(from_pauli(s)) == s


def test_invalid_symbol():
    with pytest.raises(InvalidSymbol):
        from_pauli("XQZ")


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.data())
def test_product_symmetric_and_bilinear(n, data):
    def vec():
        return SymplecticVector(
            data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
            data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    u, v, w = vec(), vec(), vec()
    assert symplectic_product(u, v) == symplectic_product(v, u)
    assert (symplectic_product(u * v, w)
            == (symplectic_product(u, w) + symplectic_product(v, w)) % 2)


@settings(max_examples=40, deadline=None)
@given(pauli_strings)
def test_weight_subadditive(s):
    u = from_pauli(s)
    wa, wb = int(u.a.sum()), int(u.b.sum())
    assert weight(u) <= wa + wb
    assert (weight(u) == wa + wb) == (not (u.a & u.b).any())


def _type1_pair(p):
    ctx = classify_prime(p)
    return lift(p, [[(0, *ctx.qnr)]]), lift(p, [[ctx.qr]])


def test_sip_check_examples():
    h1, h2 = _type1_pair(7)
    assert sip_check(h1, h2)
    rng = np.random.default_rng(7)
    a = Gf2Matrix.from_dense(rng.integers(0, 2, (6, 6), dtype=np.uint8))
    assert sip_check(a, a)
    assert not sip_check(lift(5, [[[0]]]), lift(5, [[[1]]]))
    with pytest.raises(ShapeMismatch):
        sip_check(Gf2Matrix.zeros(3, 3), Gf2Matrix.zeros(4, 4))


def test_sip_check_equals_exhaustive_row_pairs():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = 6
        h1 = rng.integers(0, 2, (4, n), dtype=np.uint8)
        h2 = rng.integers(0, 2, (4, n), dtype=np.uint8)
        pairwise = all(
            symplectic_product(SymplecticVector(h1[i], h2[i]),
                               SymplecticVector(h1[j], h2[j])) == 0
            for i in range(4) for j in range(4))
        assert sip_check(Gf2Matrix.from_dense(h1), Gf2Matrix.from_dense(h2)) == pairwise


def _stock_halves():
    """(id, h1, h2): the lifted halves of every stock QCS code for p <= 37,
    of the four variant-A layouts at p = 23, and of every default Type-I
    code for p <= 101."""
    cases = []
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        ctx = classify_prime(p)
        variant = QcsVariant.A if p % 4 == 3 else QcsVariant.B
        for layout in (Layout if p == 23 else [Layout.H1_ADJ2]):
            left, right = arrange(QcsSpec(ctx, variant, layout))
            cases.append((f"qcs-{p}-{variant.value}-{layout.value}",
                          lift(p, left.cells), lift(p, right.cells)))
    for p in range(3, 102):
        if is_prime(p) and (p % 4 == 3 or (p - 1) // 4 % 2 == 1):
            ctx = classify_prime(p)
            left, right = half_polys(Type1Spec(ctx, default_variant(ctx)))
            cases.append((f"type1-{p}", lift(p, [[left]]), lift(p, [[right]])))
    return cases


STOCK_HALVES = _stock_halves()


def _flip(m, i, j):
    dense = m.to_dense()
    dense[i, j] ^= 1
    return Gf2Matrix.from_dense(dense)


@pytest.mark.parametrize("h1,h2", [c[1:] for c in STOCK_HALVES],
                         ids=[c[0] for c in STOCK_HALVES])
def test_sip_check_on_stock_halves(h1, h2):
    assert sip_check(h1, h2)
    if h1.cols > 64:
        # every column of either half has weight >= 2, so one flipped bit
        # changes an off-diagonal entry of G and not its mirror
        i, j = h1.rows // 2, h1.cols - 1  # a bit of the last word
        assert not sip_check(_flip(h1, i, j), h2)
        assert not sip_check(h1, _flip(h2, i, j))


def test_syndrome_single_y_errors(make_type1):
    code = make_type1(7)
    assert syndrome(code.h, from_pauli("IIIYIII")).tolist() == [1, 1, 1, 1]
    assert syndrome(code.h, from_pauli("IIYIIII")).tolist() == [1, 1, 1, 1]
    assert not syndrome(code.h, from_pauli("I" * 7)).any()
    with pytest.raises(ShapeMismatch):
        syndrome(code.h, from_pauli("XX"))


def test_syndrome_components_match_products(make_type1):
    code = make_type1(7)
    n = code.n_qubits
    dense = code.h.to_dense()
    err = from_pauli("XZYIIXI")
    syn = syndrome(code.h, err)
    for i in range(code.m):
        row = SymplecticVector(dense[i, :n], dense[i, n:])
        assert syn[i] == symplectic_product(row, err)
