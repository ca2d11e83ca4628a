import numpy as np
import pytest

from pauli_scan import certify_distance, lightest_logical_weight, witness_holds
from qrstab.analysis import (DistanceValue, classify_degeneracy, d_dagger,
                             d_min, distance_report, gf4_linear, standard_form)
from qrstab.code import StabilizerCode
from qrstab.errors import (BudgetExhausted, DependentRows, InexactInputs,
                           InvalidParameters)
from qrstab.gf2 import Gf2Matrix, pack
from qrstab.minweight import min_weight_affine, weight_bounds, xor_table
from qrstab.numtheory import classify_prime
from qrstab.symplectic import (SymplecticVector, from_pauli,
                               symplectic_product, to_pauli)
from qrstab.type1 import Type1Spec, Type1Variant, build_type1
from qrstab.type2 import QcsSpec, QcsVariant, build_qcs

# Reduced generators and logical operators of the p = 13 plus-form code.
GENERATORS_13 = [
    "XZZIZIIIZIZZX",
    "IYIZZZIIZZZIY",
    "ZZXIIZZIZZIIX",
    "IIIXZIZZZZIZX",
    "IZZIYZIZIZIZY",
    "ZZIZZYZIIIIZY",
    "ZIIIIZYZZIZZY",
    "ZIZIZIZYIZZIY",
    "ZIZZZZIZXIIIX",
    "IIZZIZZIIXZZX",
    "IZZZIIZZZIYIY",
    "ZZIZIIIZIZZXX",
]


def relations_hold(sf):
    K = len(sf.logical_x)
    m = sf.h1.rows
    h1d, h2d = sf.h1.to_dense(), sf.h2.to_dense()
    gens = [SymplecticVector(h1d[i], h2d[i]) for i in range(m)]
    for i in range(K):
        for g in gens:
            if symplectic_product(sf.logical_x[i], g):
                return False
            if symplectic_product(sf.logical_z[i], g):
                return False
        for j in range(K):
            if symplectic_product(sf.logical_x[i], sf.logical_x[j]):
                return False
            if symplectic_product(sf.logical_z[i], sf.logical_z[j]):
                return False
            expect = 1 if i == j else 0
            if symplectic_product(sf.logical_x[i], sf.logical_z[j]) != expect:
                return False
    return True


def test_standard_form_13(make_type1):
    sf = standard_form(make_type1(13))
    h1d, h2d = sf.h1.to_dense(), sf.h2.to_dense()
    got = [to_pauli(SymplecticVector(h1d[i], h2d[i])) for i in range(12)]
    assert got == GENERATORS_13
    assert to_pauli(sf.logical_x[0]) == "IZIIZZZZIIZIX"
    assert to_pauli(sf.logical_z[0]) == "Z" * 13
    assert sf.x_rank == 12
    assert relations_hold(sf)


def test_standard_form_5(make_type1):
    sf = standard_form(make_type1(5))
    assert len(sf.logical_x) == len(sf.logical_z) == 1
    assert relations_hold(sf)


def test_standard_form_various_codes(make_type1, make_qcs):
    for code in (make_type1(7), make_type1(29),
                 make_qcs(5), make_qcs(7), make_qcs(13)):
        assert relations_hold(standard_form(code))


def test_standard_form_z_only_row():
    code = StabilizerCode(2, Gf2Matrix.from_dense([[0, 0, 1, 1]]), "manual")
    sf = standard_form(code)
    assert sf.x_rank == 0
    assert relations_hold(sf)


def reference_swap_sequence(code):
    """Column-by-column elimination with explicit qubit swaps, on dense
    arrays: the X half first, then the Z half on the remaining rows."""
    n, m = code.n_qubits, code.m
    dense = code.h.to_dense()
    h1, h2 = dense[:, :n].copy(), dense[:, n:].copy()
    colperm = list(range(n))

    def eliminate(block, r):
        c = r
        while r < m and c < n:
            live = [c2 for c2 in range(c, n) if block[r:, c2].any()]
            if not live:
                break
            for half in (h1, h2):
                half[:, [c, live[0]]] = half[:, [live[0], c]]
            colperm[c], colperm[live[0]] = colperm[live[0]], colperm[c]
            pr = r + int(np.nonzero(block[r:, c])[0][0])
            for half in (h1, h2):
                half[[r, pr]] = half[[pr, r]]
            for o in np.nonzero(block[:, c])[0]:
                if o != r:
                    h1[o] ^= h1[r]
                    h2[o] ^= h2[r]
            r += 1
            c += 1
        return r

    r = eliminate(h1, 0)
    assert eliminate(h2, r) == m
    inv = np.argsort(colperm)
    return r, tuple(colperm), h1[:, inv], h2[:, inv]


def test_standard_form_matches_dense_swap_reference(make_type1, make_qcs):
    rng = np.random.default_rng(7)
    codes = [make_type1(p) for p in (5, 7, 13, 23, 29)]
    codes += [make_qcs(p) for p in (7, 11, 13, 17)]
    codes.append(StabilizerCode(2, Gf2Matrix.from_dense([[0, 0, 1, 1]]), "manual"))
    for layout in ("h1-adj2", "adj1-h2", "adj2-h1", "h2-adj1"):
        for _ in range(6):
            removal = tuple(sorted(rng.choice(np.arange(1, 22), 5, replace=False).tolist()))
            try:
                codes.append(make_qcs(7, layout, removal))
            except DependentRows:
                pass
    assert len(codes) > 20
    for code in codes:
        sf = standard_form(code)
        r, colperm, h1, h2 = reference_swap_sequence(code)
        assert (sf.x_rank, sf.column_permutation) == (r, colperm)
        assert np.array_equal(sf.h1.to_dense(), h1)
        assert np.array_equal(sf.h2.to_dense(), h2)
        assert relations_hold(sf)


def test_standard_form_trivial_code(make_type1):
    sf = standard_form(make_type1(11))
    assert sf.logical_x == () and sf.logical_z == ()


def test_d_dagger_examples(make_type1):
    assert d_dagger(make_type1(13)).value == 6
    assert d_dagger(make_type1(7)).value == 4
    single = StabilizerCode(4, Gf2Matrix.from_dense(
        [from_pauli("XYZI").a.tolist() + from_pauli("XYZI").b.tolist()]), "manual")
    got = d_dagger(single)
    assert got.value == 3 and got.is_exact  # row weight
    assert got.witness == "XYZI"


def test_d_min_examples(make_type1, make_qcs):
    five = d_min(make_type1(5))
    assert (five.value, five.tag) == (3, "exact")
    thirteen = d_min(make_type1(13))
    assert (thirteen.value, thirteen.tag) == (5, "exact")
    seven = d_min(make_type1(7))
    assert (seven.value, seven.tag) == (2, "exact")
    ten = d_min(make_qcs(5))
    assert (ten.value, ten.tag) == (3, "exact")


def test_witnesses_are_valid(make_type1, make_qcs):
    for code in (make_type1(5), make_type1(13), make_qcs(5), make_qcs(7)):
        dd = d_dagger(code)
        v = from_pauli(dd.witness)
        assert int((v.a | v.b).sum()) == dd.value
        row = Gf2Matrix.from_dense(np.concatenate([v.a, v.b])[None, :])
        assert code.h.in_row_space(row)
        dm = d_min(code)
        w = from_pauli(dm.witness)
        assert int((w.a | w.b).sum()) == dm.value
        n = code.n_qubits
        dense = code.h.to_dense()
        assert not ((dense[:, :n] @ w.b + dense[:, n:] @ w.a) % 2).any()
        row = Gf2Matrix.from_dense(np.concatenate([w.a, w.b])[None, :])
        assert not code.h.in_row_space(row)


def test_paper_style_witness_13(make_type1):
    # g2 g4 Xbar1 of the reduced basis is a weight-5 normalizer element
    code = make_type1(13)
    sf = standard_form(code)
    h1d, h2d = sf.h1.to_dense(), sf.h2.to_dense()
    e = SymplecticVector(h1d[1] ^ h1d[3] ^ sf.logical_x[0].a,
                         h2d[1] ^ h2d[3] ^ sf.logical_x[0].b)
    assert to_pauli(e) == "IXIYZIIIIIIZY"
    assert int((e.a | e.b).sum()) == 5


def test_oracle_matches_exact_small(make_type1, make_qcs):
    for code in (make_type1(5), make_type1(7), make_qcs(5)):
        assert d_min(code).value == lightest_logical_weight(code, code.n_qubits)


def test_bounded_mode_tagging(make_type1):
    code = make_type1(13)
    bounded = d_min(code, budget=200_000, seed=1, exact_max_dual=-1)
    assert bounded.tag == "upper_bound"
    assert bounded.value == 5  # the search still converges on this size
    bd = d_dagger(code, budget=200_000, seed=1, exact_max_m=-1)
    assert bd.tag == "upper_bound"
    assert bd.value >= 6 or bd.value == 6


def test_bounded_mode_deterministic(make_type1):
    code = make_type1(13)
    a = d_min(code, budget=100_000, seed=3, exact_max_dual=-1)
    b = d_min(code, budget=100_000, seed=3, exact_max_dual=-1)
    assert (a.value, a.witness) == (b.value, b.witness)


@pytest.mark.parametrize("limit", [None, -1], ids=["exact", "bound"])
@pytest.mark.parametrize("budget", [0, -5])
def test_bounded_mode_rejects_a_budget_below_one(make_type1, budget, limit):
    # the budget caps the proof as well as the search
    code = make_type1(13)  # no weight <= 2 logical, so the search must run
    with pytest.raises(InvalidParameters):
        d_min(code, budget=budget, exact_max_dual=limit)
    with pytest.raises(InvalidParameters):
        d_dagger(code, budget=budget, exact_max_m=limit)


def test_budget_caps_the_proof(make_type1):
    """The p = 29 d_dagger proof forms 385 504 elements: one fewer leaves an
    upper bound with a valid witness, that many gives the uncapped run."""
    code = make_type1(29)
    short = d_dagger(code, budget=385_503)
    assert short.tag == "upper_bound"
    assert witness_holds(code, short.witness, short.value, in_stabilizer=True)
    proven, uncapped = d_dagger(code, budget=385_504), d_dagger(code)
    assert proven.tag == uncapped.tag == "exact" and proven.value == 12
    assert proven.witness == uncapped.witness


def test_trivial_code_has_no_distance(make_type1):
    with pytest.raises(BudgetExhausted):
        d_min(make_type1(11))


@pytest.mark.parametrize("exact_max_m", [28, -1], ids=["exact", "bound"])
def test_code_without_generators_has_no_d_dagger(make_qcs, exact_max_m):
    code = make_qcs(5, removed=tuple(range(1, 11)))
    assert code.m == 0 and code.k_logical == code.n_qubits
    with pytest.raises(BudgetExhausted):
        d_dagger(code, budget=1000, exact_max_m=exact_max_m)


def test_classify_degeneracy():
    def dv(v, tag="exact"):
        return DistanceValue(v, tag, "I")
    assert classify_degeneracy(dv(6), dv(5)) is False   # p = 13 values
    assert classify_degeneracy(dv(4), dv(2)) is False   # p = 7 values
    assert classify_degeneracy(dv(2), dv(3)) is True
    with pytest.raises(InexactInputs):
        classify_degeneracy(dv(2, "upper_bound"), dv(3))


def test_distance_report(make_type1):
    rep = distance_report(make_type1(13))
    assert (rep.d_dagger.value, rep.d_min.value) == (6, 5)
    assert rep.degenerate is False


@pytest.mark.parametrize("p,k", [(13, 6), (29, 14)])
def test_distance_upper_bounds_vs_set_size(p, k, make_type1):
    """For the [[p,1]] codes with n >= 3 the stabilizer minimum weight is at
    most k and the distance at most k - 1."""
    code = make_type1(p)
    assert d_dagger(code).value <= k
    assert d_min(code).value <= k - 1


def test_dual_space_dimension(make_type1, make_qcs):
    """The commutant of the row space has dimension 2N - m; the stabilizer
    row space sits inside it.  Checked by full enumeration on small codes."""
    from itertools import product as iproduct
    for code in (make_type1(5), make_type1(7)):
        n, m = code.n_qubits, code.m
        dense = code.h.to_dense()
        h1d, h2d = dense[:, :n], dense[:, n:]
        count = 0
        for bits in iproduct((0, 1), repeat=2 * n):
            a = np.array(bits[:n], dtype=np.uint8)
            b = np.array(bits[n:], dtype=np.uint8)
            if not ((h1d @ b + h2d @ a) % 2).any():
                count += 1
        assert count == 1 << (2 * n - m)


def test_half_rate_71_stabilizer_weight_is_12(make_type1):
    """Regression pin for the p = 71 stabilizer minimum weight: the
    Brouwer-Zimmermann engine proves 12 within the table budget, and the
    witness's membership verifies.  (A classical-code argument agrees: the
    nontrivial elements below weight 71 are the Y-type words of an even
    cyclic code whose augmented parent has odd minimum weight 11.)"""
    code = make_type1(71)
    dd = d_dagger(code, budget=2_000_000, seed=0)
    assert dd.tag == "exact" and dd.value == 12
    v = from_pauli(dd.witness)
    assert int((v.a | v.b).sum()) == 12
    row = Gf2Matrix.from_dense(np.concatenate([v.a, v.b])[None, :])
    assert code.h.in_row_space(row)


# ---------------- one coset per omega-orbit on GF(4)-linear codes ----------------


def _omega(rows, n):
    """omega: (a | b) -> (b | a ^ b) on each 2N-bit row."""
    return np.hstack([rows[:, n:], rows[:, :n] ^ rows[:, n:]])


def _gf4_13_3():
    """The p = 13 code less one (g, omega g) generator pair: an omega-closed
    [[13,3]] code whose d = 4 the weight <= 2 pre-scan cannot settle."""
    dense = build_type1(Type1Spec(classify_prime(13), Type1Variant.PLUS_FORM)).h.to_dense()
    basis = np.zeros((0, 26), dtype=np.uint8)
    for row in dense:  # a basis of (g, omega g) pairs, first-wins
        cand = np.vstack([basis, row, _omega(row[None, :], 13)])
        if Gf2Matrix.from_dense(cand).rank() == len(cand):
            basis = cand
    return StabilizerCode(13, Gf2Matrix.from_dense(basis[2:]), family="example")


def _codes_for_orbit_scan():
    yield "t1-5", build_type1(Type1Spec(classify_prime(5), Type1Variant.PLUS_FORM))
    yield "t1-13", build_type1(Type1Spec(classify_prime(13), Type1Variant.PLUS_FORM))
    yield "t1-17-forced", build_type1(Type1Spec(classify_prime(17), Type1Variant.PLUS_FORM,
                                                force=True))
    yield "gf4-13-3", _gf4_13_3()


@pytest.mark.parametrize("p,variant,closed", [
    (5, "plus-form", True), (13, "plus-form", True), (29, "plus-form", True),
    # the forced even-n plus form is not: [H; omega H] has rank 2m
    (17, "plus-form", False),
    (7, "residue-pair", False), (23, "residue-pair", False),
    (11, "nonresidue-pair", False),
])
def test_gf4_linear_type1(p, variant, closed):
    code = build_type1(Type1Spec(classify_prime(p), Type1Variant(variant), force=True))
    assert gf4_linear(code) is closed
    joint = np.vstack([code.h.to_dense(), _omega(code.h.to_dense(), p)])
    assert (Gf2Matrix.from_dense(joint).rank() == code.m) is closed


@pytest.mark.parametrize("p,variant", [(7, "A"), (13, "B")])
def test_gf4_linear_qcs(p, variant):
    assert not gf4_linear(build_qcs(QcsSpec(classify_prime(p), QcsVariant(variant))))


@pytest.mark.parametrize("name,code", list(_codes_for_orbit_scan()),
                         ids=[name for name, _ in _codes_for_orbit_scan()])
def test_orbit_scan_matches_all_cosets(name, code):
    # d_min forms one element per omega-orbit on the GF(4)-linear codes; the
    # reference scans every element of all 4^K - 1 logical cosets
    n = code.n_qubits
    sf = standard_form(code)
    logs = np.array([np.concatenate([v.a, v.b]) for v in sf.logical_x + sf.logical_z])
    dense = code.h.to_dense()
    full = min_weight_affine(pack(dense[:, :n]), pack(dense[:, n:]),
                             xor_table(pack(logs[:, :n]))[1:],
                             xor_table(pack(logs[:, n:]))[1:], n)
    got = d_min(code)
    assert (got.value, got.tag) == (full.weight, "exact")
    assert witness_holds(code, got.witness, got.value, in_stabilizer=False)


def test_multi_word_scan_matches_one_word(make_qcs):
    # 50 idle qubits in front push the 21 code qubits across the 64-bit word
    # boundary, so the padded engine works on multi-word rows
    code = make_qcs(7, removed=(2, 3, 8, 11, 21))
    n, pad = code.n_qubits, 50
    sf = standard_form(code)
    logs = np.array([np.concatenate([v.a, v.b]) for v in sf.logical_x + sf.logical_z])
    rows = np.vstack([code.h.to_dense(), logs])
    tags = (rows[:, :n] @ logs[:, n:].T + rows[:, n:] @ logs[:, :n].T) % 2

    def lightest(idle):
        zeros = np.zeros((len(rows), idle), dtype=np.uint8)
        a, b = np.hstack([zeros, rows[:, :n]]), np.hstack([zeros, rows[:, n:]])
        return (weight_bounds(a[:code.m], b[:code.m], n + idle)[1],
                weight_bounds(a, b, n + idle, tags=tags)[1])

    assert 2 * n <= 64 < 2 * (n + pad)
    for one, multi in zip(lightest(0), lightest(pad)):
        assert multi.weight == one.weight
        assert multi.a.tolist() == [0] * pad + one.a.tolist()
        assert multi.b.tolist() == [0] * pad + one.b.tolist()


def test_gf4_13_3_distance_is_certified():
    code = _gf4_13_3()
    assert code.params() == "[[13,3]]" and gf4_linear(code)
    assert d_min(code).value == 4
    # nothing commuting and outside the stabilizer below weight 4, so the
    # weight <= 2 pre-scan cannot settle it
    assert certify_distance(code, 4)
