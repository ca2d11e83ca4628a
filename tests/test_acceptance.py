"""Acceptance suite: one test (or parametrized family) per criterion, each
printing a PASS/FAIL line.  Values are asserted exactly as stated, except
for the cells in ``qrstab.tables.ERRATA``: there the test asserts the listed
reproduced value and re-checks the evidence that refutes the published one
(README, "Known reference mismatches").

Criteria map: C1 commutativity everywhere; C2 table of half-rate cyclic
codes; C3 unit-dimension cyclic codes at desk scale; C4 quasi-cyclic ranks
and dimensions; C5 the 21-qubit worked example; C6 the nine 21-qubit rows;
C7 standard form and logical operators; C8 structural property suites;
C9 oracle equivalence; C10 coding bounds.
"""

import numpy as np
import pytest

from pauli_scan import lightest_logical_weight
from qrstab.analysis import (d_dagger, d_min, standard_form)
from qrstab.bounds import (asymptotic_curves, gv_bound, hamming_bound,
                           singleton_bound)
from qrstab.gf2 import Gf2Matrix, circulant, integer_product_sum
from qrstab.numtheory import classify_prime, is_prime
from qrstab.symplectic import (SymplecticVector, from_pauli, sip_check,
                               symplectic_product, syndrome, to_pauli, weight)
from qrstab.tables import ERRATA, TABLE_IV
from qrstab.type1 import (Type1Spec, Type1Variant, build_type1, idempotents)
from qrstab.type2 import (Layout, QcsSpec, QcsVariant, arrange,
                          expected_component_rank, lift)

QCS_PRIMES = [5, 7, 11, 13, 17, 19, 23, 29]
MINUS_PRIMES = [p for p in range(3, 201) if is_prime(p) and p % 4 == 3]
PLUS_ODD_PRIMES = [p for p in range(5, 201) if is_prime(p) and p % 4 == 1
                   and ((p - 1) // 4) % 2 == 1]


def check(criterion: str, label: str, ok: bool):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"{criterion}: {label}"


# ---------------- errata: listed cells and their evidence ----------------

LISTED = {(e.table, e.row, e.field): e for e in ERRATA}
TABLE_IV_D = {(layout, removal): d for layout, removal, _, d in TABLE_IV}


def listed(table, row, field, published):
    """The errata entry for a cell, or None; an entry must quote the value
    that the test holds as published."""
    e = LISTED.get((table, row, field))
    assert e is None or e.published == published, e
    return e


def check_distance(criterion, label, got, published, e, exact=True):
    """An unlisted cell must equal the published value (exactly, if
    ``exact``); a listed one must equal the listed value under its tag."""
    if e is None:
        check(criterion, f"{label}: got {got.value} ({got.tag}), want {published}",
              (got.is_exact or not exact) and got.value == published)
    else:
        check(criterion, f"{label}: got {got.value} ({got.tag}), listed "
              f"{e.reproduced} ({e.tag}), published {e.published}",
              got.value == e.reproduced and got.tag == e.tag)


@pytest.fixture(scope="session")
def qcs_d_min(make_qcs):
    """Exact d_min of a 21-qubit row, computed once per session, so a swap
    partner's distance is not enumerated twice."""
    cache = {}

    def factory(layout, removal):
        key = (layout, tuple(removal))
        if key not in cache:
            cache[key] = d_min(make_qcs(7, layout=layout, removed=key[1]))
        return cache[key]
    return factory


def _row(v):
    return Gf2Matrix.from_dense(np.concatenate([v.a, v.b])[None, :])


def _is_logical(code, v):
    """Commutes with every generator and lies outside the stabilizer."""
    return not syndrome(code.h, v).any() and not code.h.in_row_space(_row(v))


def check_witness(criterion, code, e):
    """The listed witness has the reproduced weight, below the published
    value, and is a stabilizer element (d_dagger) or a logical (d_min)."""
    v = from_pauli(e.witness)
    member = (code.h.in_row_space(_row(v)) if e.field == "d_dagger"
              else _is_logical(code, v))
    check(criterion, f"{e.table} {e.row} {e.field} witness {e.witness}: "
          f"weight {weight(v)}, published {e.published}",
          member and weight(v) == e.reproduced < e.published)


def check_certified(criterion, code, e, dm):
    """Brute force finds no logical lighter than the reproduced value, the
    engine's witness is a logical of that weight, and the retained rows span
    the whole lifted matrix, so every removal of as many rows that leaves
    them independent gives this same stabilizer group."""
    v = from_pauli(dm.witness)
    lighter = lightest_logical_weight(code, e.reproduced - 1)
    check(criterion, f"{e.table} {e.row}: no logical below {e.reproduced} "
          f"(found {lighter}), witness weight {weight(v)}, "
          f"span rank {code.provenance['rank_full']} of {code.m}",
          lighter is None and weight(v) == e.reproduced and _is_logical(code, v)
          and code.provenance["rank_full"] == code.m)


def check_swap(criterion, code, e, dm, make_qcs, qcs_d_min):
    """The row is its partner with the halves swapped (X and Z relabelled),
    both have the same exact distance, and the table gives them different
    values."""
    layout, removal = e.partner
    partner = make_qcs(7, layout=layout, removed=removal)
    pd = qcs_d_min(layout, removal)
    check(criterion, f"{e.row} is {e.partner} with halves swapped: d "
          f"{dm.value} vs {pd.value}, published {e.published} vs "
          f"{TABLE_IV_D[e.partner]}",
          code.h == partner.h2.hstack(partner.h1) and pd.is_exact
          and pd.value == dm.value and e.published != TABLE_IV_D[e.partner])


# ---------------- C1: commutativity of every construction ----------------


def test_c1_sip_type1_all_primes(make_type1):
    bad = []
    for p in MINUS_PRIMES:
        for variant in (Type1Variant.RESIDUE_PAIR, Type1Variant.NONRESIDUE_PAIR):
            code = build_type1(Type1Spec(classify_prime(p), variant))
            if not sip_check(code.h1, code.h2):
                bad.append((p, variant.value))
    for p in PLUS_ODD_PRIMES:
        code = make_type1(p)
        if not sip_check(code.h1, code.h2):
            bad.append((p, "plus-form"))
    check("C1", f"type1 SIP for all valid primes <= 200 (violations: {bad})", not bad)


@pytest.mark.parametrize("p", QCS_PRIMES)
def test_c1_sip_qcs(p, make_qcs):
    code = make_qcs(p)
    ok = sip_check(code.h1, code.h2)
    check("C1", f"QCS SIP p={p}", ok)


# ---------------- C2: half-rate cyclic code table ----------------

C2_ROWS = [  # (n, p, K, d_min, d_dagger)
    (2, 7, 3, 2, 4),
    (6, 23, 11, 2, 8),
    (8, 31, 15, 2, 8),
    (12, 47, 23, 2, 12),
    (18, 71, 35, 2, 16),
    (20, 79, 39, 2, 16),
]


@pytest.mark.parametrize("n,p,K,dmin_tab,ddag_tab", C2_ROWS)
def test_c2_half_rate_rows(n, p, K, dmin_tab, ddag_tab, make_type1):
    code = make_type1(p)
    check("C2", f"p={p} K: got {code.k_logical}, want {K}", code.k_logical == K)
    dm = d_min(code)
    check("C2", f"p={p} d_min exact: got {dm.value} ({dm.tag}), want {dmin_tab}",
          dm.is_exact and dm.value == dmin_tab)
    dd = d_dagger(code, budget=2_000_000, seed=0)
    e = listed("II", p, "d_dagger", ddag_tab)
    # sampled tag allowed beyond exact reach, value must match
    check_distance("C2", f"p={p} d_dagger", dd, ddag_tab, e, exact=code.m <= 28)
    if e is not None:
        check_witness("C2", code, e)


# ---------------- C3: unit-dimension cyclic codes ----------------


def test_c3_five_qubit_exact(make_type1):
    code = make_type1(5)
    dm, dd = d_min(code), d_dagger(code)
    check("C3", f"[[5,1,3]]: d_min {dm.value}/{dm.tag}, d_dagger {dd.value}/{dd.tag}",
          dm.is_exact and dm.value == 3 and dd.is_exact and dd.value == 4)


def test_c3_thirteen_exact(make_type1):
    code = make_type1(13)
    dm, dd = d_min(code), d_dagger(code)
    check("C3", f"[[13,1,5]]: d_min {dm.value}, d_dagger {dd.value}",
          dm.is_exact and dm.value == 5 and dd.is_exact and dd.value == 6)


def test_c3_twentynine_exact(make_type1):
    code = make_type1(29)
    dm = d_min(code)  # full 2^30-scale dual enumeration
    dd = d_dagger(code)
    check("C3", f"[[29,1,11]]: d_min {dm.value}/{dm.tag}, d_dagger {dd.value}/{dd.tag}",
          dm.is_exact and dm.value == 11 and dd.is_exact and dd.value == 12)


def test_c3_thirty_seven_exact_past_the_thresholds(make_type1):
    # 2^36- and 2^38-element spans, proven within the default budget
    code = make_type1(37)
    dd = d_dagger(code)
    dm = d_min(code)
    e = listed("I", 37, "d_min", 12)
    vd, vm = from_pauli(dd.witness), from_pauli(dm.witness)
    check("C3", f"[[37,1]]: d_dagger {dd.value}/{dd.tag} witness weight {weight(vd)}, "
          f"d_min {dm.value}/{dm.tag} witness weight {weight(vm)}, listed {e.reproduced}",
          dd.is_exact and dd.value == weight(vd) == 12 and code.h.in_row_space(_row(vd))
          and dm.is_exact and dm.value == weight(vm) == e.reproduced == 11
          and _is_logical(code, vm))


@pytest.mark.parametrize("n,p,d_tab", [(9, 37, 12), (13, 53, 15),
                                       (15, 61, 17), (25, 101, 21)])
def test_c3_large_rows_bounded(n, p, d_tab, make_type1):
    code = make_type1(p)
    check("C3", f"p={p} K=1 rank={code.m}", code.k_logical == 1 and code.m == p - 1)
    dm = d_min(code, budget=10_000_000, seed=0)
    check("C3", f"p={p} d_min bound {dm.value} <= {d_tab} ({dm.tag})",
          dm.value <= d_tab)
    e = listed("I", p, "d_min", d_tab)
    if e is not None:
        check_distance("C3", f"p={p} d_min", dm, d_tab, e)
        check_witness("C3", code, e)


# ---------------- C4: quasi-cyclic ranks and dimensions ----------------

C4_ROWS = [  # (p, variant, N, K)
    (5, "B", 10, 1), (7, "A", 21, 5), (11, "A", 55, 4), (13, "B", 78, 5),
    (17, "B", 136, 15), (19, "A", 171, 26), (23, "A", 253, 21), (29, "B", 406, 13),
]


@pytest.mark.parametrize("p,variant,N,K", C4_ROWS)
def test_c4_rank_formulas(p, variant, N, K, make_qcs):
    ctx = classify_prime(p)
    code = make_qcs(p)
    expect_rank = expected_component_rank(ctx, QcsVariant(variant))
    got_rank = code.provenance["rank_plain_half"]
    check("C4", f"p={p} component rank: got {got_rank}, closed form {expect_rank}",
          got_rank == expect_rank)
    check("C4", f"p={p} [[{N},{K}]]: got [[{code.n_qubits},{code.k_logical}]]",
          code.n_qubits == N and code.k_logical == K)


def test_c4_six_logical_row(make_qcs):
    code = make_qcs(7, layout="adj1-h2", removed=(7, 11, 12, 14, 15, 21))
    check("C4", f"[[21,6]]: got [[21,{code.k_logical}]]", code.k_logical == 6)


# ---------------- C5: the 21-qubit worked example ----------------


def test_c5_worked_example(make_qcs):
    removal = (2, 3, 8, 11, 21)
    code = make_qcs(7, layout="h1-adj2", removed=removal)
    check("C5", f"[[21,5]]: got K={code.k_logical}, 16 generators={code.m == 16}",
          code.k_logical == 5 and code.m == 16)
    dm = d_min(code)
    e = listed("worked example", ("h1-adj2", removal), "d_min", 4)
    check_distance("C5", "worked example d_min", dm, 4, e)
    if e is not None:
        check_certified("C5", code, e, dm)


# ---------------- C6: the nine 21-qubit rows ----------------


@pytest.mark.parametrize("layout,removal,K,d_tab", TABLE_IV,
                         ids=[f"{l}-{'.'.join(map(str, r))}" for l, r, _, _ in TABLE_IV])
def test_c6_layout_rows(layout, removal, K, d_tab, make_qcs, qcs_d_min):
    code = make_qcs(7, layout=layout, removed=tuple(removal))
    check("C6", f"{layout} remove {list(removal)}: got K={code.k_logical}, "
          f"want {K}", code.k_logical == K)
    dm = qcs_d_min(layout, removal)
    e = listed("IV", (layout, removal), "d_min", d_tab)
    check_distance("C6", f"{layout} remove {list(removal)} d_min", dm, d_tab, e)
    if e is not None and e.evidence == "certified":
        check_certified("C6", code, e, dm)
    elif e is not None:
        check_swap("C6", code, e, dm, make_qcs, qcs_d_min)


# ---------------- C7: standard form ----------------


def test_c7_thirteen_logicals(make_type1):
    sf = standard_form(make_type1(13))
    xbar = to_pauli(sf.logical_x[0])
    zbar = to_pauli(sf.logical_z[0])
    check("C7", f"Xbar1 = {xbar}", xbar == "IZIIZZZZIIZIX")
    check("C7", f"Zbar1 = {zbar}", zbar == "Z" * 13)


def test_c7_commutation_relations(make_type1, make_qcs):
    codes = [make_type1(p) for p in (5, 7, 13, 23, 29, 31)]
    codes += [make_qcs(p) for p in (5, 7, 11, 13)]
    codes += [make_qcs(7, layout=l.value) for l in Layout]
    bad = []
    for code in codes:
        if code.trivial:
            continue
        sf = standard_form(code)
        m = sf.h1.rows
        h1d, h2d = sf.h1.to_dense(), sf.h2.to_dense()
        gens = [SymplecticVector(h1d[i], h2d[i]) for i in range(m)]
        K = len(sf.logical_x)
        for i in range(K):
            if any(symplectic_product(sf.logical_x[i], g) for g in gens) or \
               any(symplectic_product(sf.logical_z[i], g) for g in gens):
                bad.append(code.params())
                break
            for j in range(K):
                want = 1 if i == j else 0
                if (symplectic_product(sf.logical_x[i], sf.logical_x[j]) != 0
                        or symplectic_product(sf.logical_z[i], sf.logical_z[j]) != 0
                        or symplectic_product(sf.logical_x[i], sf.logical_z[j]) != want):
                    bad.append(code.params())
                    break
    check("C7", f"logical commutation relations (violations: {bad})", not bad)


# ---------------- C8: property suites ----------------


def test_c8_residue_closure():
    bad = []
    for p in [q for q in range(3, 201) if is_prime(q)]:
        ctx = classify_prime(p)
        qr, qnr = set(ctx.qr), set(ctx.qnr)
        for i in (1, 2, ctx.k):
            b = pow(ctx.beta, i, p)
            if {b * r % p for r in qr} != qr or {b * r % p for r in qnr} != qnr:
                bad.append(p)
    check("C8", f"residue-set closure under the generator (violations: {bad})",
          not bad)


def test_c8_rank_identities():
    bad = []
    for p in MINUS_PRIMES:
        ctx = classify_prime(p)
        idem = idempotents(ctx)
        r_res = circulant(idem.residues).rank()
        r_comp = circulant(idem.residue_complement).rank()
        if ctx.n % 2 == 0:
            ok = r_res == p - ctx.k and r_comp == p - ctx.k - 1
        else:
            ok = r_res == p and r_comp == p - 1
        if not ok:
            bad.append(p)
    check("C8", f"circulant rank identities p <= 200 (violations: {bad})", not bad)


def test_c8_complementarity():
    bad = []
    for p in MINUS_PRIMES:
        idem = idempotents(classify_prime(p))
        if circulant(idem.residue_complement) + circulant(idem.residues) \
                != Gf2Matrix.ones(p, p):
            bad.append(p)
    check("C8", f"complementary circulants sum to all-ones (violations: {bad})",
          not bad)


def test_c8_squaring_identities():
    bad = []
    for p in PLUS_ODD_PRIMES:
        idem = idempotents(classify_prime(p))
        h1 = circulant(idem.residues)
        h2 = circulant(idem.nonresidues)
        if h1 @ h1.transpose() != h2 or h2 @ h2.transpose() != h1:
            bad.append(p)
    check("C8", f"Gram squaring identities (violations: {bad})", not bad)


def test_c8_even_weight_row_spaces():
    bad = []
    for p in (5, 13):  # exhaustive below 17
        idem = idempotents(classify_prime(p))
        res = circulant(idem.residues).rref()
        basis = res.matrix.to_dense()[:len(res.pivot_cols)]
        weights = set()
        for mask in range(1, 1 << len(basis)):
            v = np.zeros(p, dtype=np.uint8)
            for i in range(len(basis)):
                if (mask >> i) & 1:
                    v ^= basis[i]
            weights.add(int(v.sum()))
        if any(w % 2 for w in weights) or min(weights) != 2:
            bad.append(p)
    rng = np.random.default_rng(0)
    for p in (29, 37):  # sampled above 17
        idem = idempotents(classify_prime(p))
        dense = circulant(idem.residues).to_dense()
        for _ in range(200):
            v = (rng.integers(0, 2, p, dtype=np.uint8) @ dense) % 2
            if int(v.sum()) % 2:
                bad.append(p)
                break
    check("C8", f"even-weight row spaces (violations: {bad})", not bad)


@pytest.mark.parametrize("p", [7, 11])
def test_c8_integer_identity(p):
    """Entrywise integer identity for the lifted pair: every entry is 2
    except the within-block diagonals, which are 0 (the all-ones factor in
    the source formula excludes the zero shift)."""
    ctx = classify_prime(p)
    left_proto, right_proto = arrange(QcsSpec(ctx, QcsVariant.A, Layout.H1_ADJ2))
    got = integer_product_sum(lift(left_proto), lift(right_proto))
    expect = 2 * np.kron(np.ones((ctx.k, ctx.k), dtype=np.int64),
                         np.ones((p, p), dtype=np.int64) - np.eye(p, dtype=np.int64))
    check("C8", f"integer SIP identity p={p}", bool(np.array_equal(got, expect)))


# ---------------- C9: oracle equivalence ----------------


def test_c9_oracle_equivalence(make_type1, make_qcs):
    results = []
    codes = [("[[5,1,3]]", make_type1(5)),
             ("[[7,3,2]] residue", make_type1(7)),
             ("[[7,3,2]] nonresidue",
              build_type1(Type1Spec(classify_prime(7), Type1Variant.NONRESIDUE_PAIR))),
             ("[[10,1,3]]", make_qcs(5))]
    ok = True
    for name, code in codes:
        exact = d_min(code).value
        oracle = lightest_logical_weight(code, code.n_qubits)
        results.append((name, exact, oracle))
        ok &= exact == oracle
    check("C9", f"coset enumeration vs increasing-weight oracle: {results}", ok)


# ---------------- C10: bounds ----------------


def test_c10_bounds():
    h_ok, h_tight = hamming_bound(5, 1, 3)
    s_ok, s_tight = singleton_bound(5, 1, 3)
    check("C10", "[[5,1,3]] tight on Hamming and Singleton",
          h_ok and h_tight and s_ok and s_tight)
    check("C10", "[[10,1,3]] and [[21,5,4]] finite GV inequality",
          gv_bound(10, 1, 3) and gv_bound(21, 5, 4))
    rows = asymptotic_curves(201)
    at_zero = [r for r in rows if r[1] == 0.0]
    ok = len(at_zero) == 4 and all(abs(r[2] - 1.0) < 1e-12 for r in at_zero)
    by_name = {}
    for name, delta, rate in rows:
        by_name.setdefault(name, []).append((delta, rate))
    ok &= set(by_name) == {"hamming", "gv", "css-gv", "singleton"}
    ok &= all(len(v) == 201 for v in by_name.values())
    check("C10", "curve data regenerates with entropy endpoint conventions", ok)
