import numpy as np
import pytest

from qrstab.errors import DependentRows, RowIndexOutOfRange, UnsupportedForm
from qrstab.gf2 import Gf2Matrix, lift
from qrstab.numtheory import classify_prime, is_prime
from qrstab.type1 import (Type1Spec, Type1Variant, build_type1,
                          expected_component_ranks, idempotents)

MINUS_PRIMES = [p for p in range(3, 201) if is_prime(p) and p % 4 == 3]
PLUS_ODD_PRIMES = [p for p in range(5, 201) if is_prime(p) and p % 4 == 1
                   and ((p - 1) // 4) % 2 == 1]


def test_idempotent_supports():
    idem7 = idempotents(classify_prime(7))
    assert idem7.residue_complement == frozenset({0, 3, 5, 6})
    idem13 = idempotents(classify_prime(13))
    assert idem13.nonresidues == frozenset({2, 5, 6, 7, 8, 11})
    idem5 = idempotents(classify_prime(5))
    assert idem5.residues == frozenset({1, 4})


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
def test_squaring_action_on_characteristic_polys(p):
    """Squaring fixes the four polynomials when 2 is a residue and swaps the
    residue/non-residue pair otherwise."""
    ctx = classify_prime(p)
    idem = idempotents(ctx)
    doubles_fix = 2 in set(ctx.qr)
    pairs = [(idem.residues, idem.nonresidues),
             (idem.residue_complement, idem.nonresidue_complement)]
    for f, g in pairs:
        a, b = lift(p, [[f]]), lift(p, [[g]])  # the circulants of f and g
        if doubles_fix:
            assert a @ a == a and b @ b == b
        else:
            assert a @ a == b and b @ b == a


def test_build_7_residue_pair(make_type1):
    code = make_type1(7)
    assert (code.n_qubits, code.k_logical, code.m) == (7, 3, 4)
    assert not code.trivial
    code.validate()


def test_build_13_plus_form(make_type1):
    code = make_type1(13)
    assert (code.n_qubits, code.k_logical) == (13, 1)
    assert code.m == 12
    code.validate()


def test_build_11_trivial(make_type1):
    code = make_type1(11)
    assert code.k_logical == 0
    assert code.trivial
    assert code.provenance["trivial"] is True
    code.validate()


def test_plus_form_even_n_is_gated():
    ctx = classify_prime(17)  # n = 4
    with pytest.raises(UnsupportedForm):
        build_type1(Type1Spec(ctx, Type1Variant.PLUS_FORM))
    forced = build_type1(Type1Spec(ctx, Type1Variant.PLUS_FORM, force=True))
    forced.validate()  # commutativity holds even though ranks differ


def test_variant_form_mismatch():
    with pytest.raises(UnsupportedForm):
        build_type1(Type1Spec(classify_prime(13), Type1Variant.RESIDUE_PAIR))
    with pytest.raises(UnsupportedForm):
        build_type1(Type1Spec(classify_prime(7), Type1Variant.PLUS_FORM))


def test_row_subset_override():
    ctx = classify_prime(7)
    code = build_type1(Type1Spec(ctx, Type1Variant.RESIDUE_PAIR,
                                 row_subset=(2, 3, 5, 6)))
    assert code.provenance["row_subset"] == [2, 3, 5, 6]
    code.validate()
    with pytest.raises(RowIndexOutOfRange):
        build_type1(Type1Spec(ctx, Type1Variant.RESIDUE_PAIR, row_subset=(0, 1)))
    with pytest.raises(RowIndexOutOfRange):
        build_type1(Type1Spec(ctx, Type1Variant.RESIDUE_PAIR, row_subset=(1, 1)))
    # rows 1..5 of the p=7 joint matrix have rank 4 only
    with pytest.raises(DependentRows):
        build_type1(Type1Spec(ctx, Type1Variant.RESIDUE_PAIR,
                              row_subset=(1, 2, 3, 4, 5)))


@pytest.mark.parametrize("p", MINUS_PRIMES)
def test_component_rank_formulas(p):
    """Circulant ranks for p = 4n - 1.

    Even n: residues side has rank p - k, complement side p - k - 1.
    Odd n: residues side is full rank p, complement side p - 1.
    """
    ctx = classify_prime(p)
    idem = idempotents(ctx)
    expect_res, expect_comp = expected_component_ranks(ctx)
    assert lift(p, [[idem.residues]]).rank() == expect_res
    assert lift(p, [[idem.residue_complement]]).rank() == expect_comp
    if ctx.n % 2 == 0:
        assert (expect_res, expect_comp) == (p - ctx.k, p - ctx.k - 1)
    else:
        assert (expect_res, expect_comp) == (p, p - 1)


@pytest.mark.parametrize("p", MINUS_PRIMES)
def test_joint_rank_fixes_dimension(p, make_type1):
    """The joint matrix rank (hence K) follows the component formulas:
    p - k generators for even n, all p for odd n (trivial code)."""
    ctx = classify_prime(p)
    code = make_type1(p)
    if ctx.n % 2 == 0:
        assert code.m == p - ctx.k and code.k_logical == ctx.k
    else:
        assert code.m == p and code.k_logical == 0


@pytest.mark.parametrize("p", PLUS_ODD_PRIMES)
def test_plus_form_dimension_all_primes(p, make_type1):
    code = make_type1(p)
    assert code.m == p - 1 and code.k_logical == 1


@pytest.mark.parametrize("p", PLUS_ODD_PRIMES[:6])
def test_plus_form_single_error_syndromes_distinct(p, make_type1):
    """All 3N single-qubit error syndromes are nonzero and pairwise
    distinct, which is what forces d_min >= 3 for these codes."""
    from qrstab.symplectic import SymplecticVector, syndrome
    code = make_type1(p)
    seen = set()
    for q in range(p):
        for xa, xb in ((1, 0), (0, 1), (1, 1)):
            a = np.zeros(p, dtype=np.uint8)
            b = np.zeros(p, dtype=np.uint8)
            a[q], b[q] = xa, xb
            s = bytes(syndrome(code.h, SymplecticVector(a, b)))
            assert any(s), "single error with trivial syndrome"
            seen.add(s)
    assert len(seen) == 3 * p


@pytest.mark.parametrize("p", MINUS_PRIMES[:8])
def test_complementarity(p):
    idem = idempotents(classify_prime(p))
    total = lift(p, [[idem.residue_complement]]) + lift(p, [[idem.residues]])
    assert total == Gf2Matrix.from_dense(np.ones((p, p), dtype=np.uint8))


@pytest.mark.parametrize("p", PLUS_ODD_PRIMES)
def test_squaring_identities(p):
    """For p = 4n + 1 with odd n the two circulants square (as Gram
    matrices) into each other mod 2."""
    idem = idempotents(classify_prime(p))
    h1 = lift(p, [[idem.residues]])
    h2 = lift(p, [[idem.nonresidues]])
    assert h1 @ h1.transpose() == h2
    assert h2 @ h2.transpose() == h1


@pytest.mark.parametrize("p", [5, 13])
def test_even_code_rowspace_exhaustive(p):
    """Every nonzero row-space element of the residue circulant has even
    weight, with minimum weight exactly 2."""
    idem = idempotents(classify_prime(p))
    m = lift(p, [[idem.residues]])
    res = m.rref()
    basis = res.matrix.to_dense()[:len(res.pivot_cols)]
    r = len(basis)
    weights = set()
    for mask in range(1, 1 << r):
        v = np.zeros(p, dtype=np.uint8)
        for i in range(r):
            if (mask >> i) & 1:
                v ^= basis[i]
        weights.add(int(v.sum()))
    assert all(w % 2 == 0 for w in weights)
    assert min(weights) == 2


def test_even_code_rowspace_sampled_29():
    p = 29
    idem = idempotents(classify_prime(p))
    m = lift(p, [[idem.residues]])
    # weight-2 word: 1 + x is in the row space since the rank is p - 1
    pair = np.zeros(p, dtype=np.uint8)
    pair[0] = pair[1] = 1
    assert m.in_row_space(Gf2Matrix.from_dense(pair[None, :]))
    rng = np.random.default_rng(5)
    dense = m.to_dense()
    for _ in range(300):
        sel = rng.integers(0, 2, p, dtype=np.uint8)
        v = (sel @ dense) % 2
        assert int(v.sum()) % 2 == 0


@pytest.mark.parametrize("p", [13, 29])
def test_reduced_z_half_row_weights(p, make_type1):
    """After row reduction the Z half rows weigh k or k + 2."""
    from qrstab.analysis import standard_form
    code = make_type1(p)
    sf = standard_form(code)
    k = classify_prime(p).k
    weights = set(sf.h2.row_weights().tolist())
    assert weights <= {k, k + 2}
