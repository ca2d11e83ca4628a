"""The Brouwer-Zimmermann engine, its bounds and its lightest element,
checked against brute force and against the full scan; the stacked
information-set search against its rounds run one by one; the full scan
against brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_scan import lightest_logical_weight, witness_holds
from qrstab import minweight
from qrstab.analysis import gf4_linear, standard_form
from qrstab.code import StabilizerCode
from qrstab.errors import InvalidParameters
from qrstab.gf2 import Gf2Matrix, pack, row_reduce
from qrstab.minweight import min_weight_affine, weight_bounds, xor_table
from qrstab.numtheory import classify_prime
from qrstab.symplectic import SymplecticVector, to_pauli
from qrstab.type1 import Type1Spec, Type1Variant, build_type1
from qrstab.type2 import Layout, QcsSpec, QcsVariant, build_qcs

UNCAPPED = 1 << 40


def _combinations(r):
    """Every nonzero 0/1 selection of r rows, one per row."""
    return (np.arange(1, 1 << r)[:, None] >> np.arange(r)) & 1


def _span_minimum(a, b, tags=None):
    """Lightest nonzero combination of the rows (with nonzero tags, if
    given), by enumerating all 2^r of them; N + 1 if there is none."""
    sel = _combinations(len(a))
    wa, wb = sel @ a % 2, sel @ b % 2
    weights = (wa | wb).sum(axis=1)
    if tags is not None:
        weights = weights[(sel @ tags % 2).any(axis=1)]
    return int(weights.min()) if len(weights) else a.shape[1] + 1


def _check_element(a, b, res, tags=None):
    """The engine's element is a nonzero combination of the rows, of weight
    ``res.weight`` and with nonzero tags if given; the zero vector when the
    weight is N + 1 (nothing formed counts)."""
    if res.weight == a.shape[1] + 1:
        assert not (res.a.any() or res.b.any())
        return
    sel = _combinations(len(a))
    hit = np.flatnonzero(((sel @ a % 2) == res.a).all(axis=1)
                         & ((sel @ b % 2) == res.b).all(axis=1))
    assert len(hit) == 1
    assert int((res.a | res.b).sum()) == res.weight
    if tags is not None:
        assert (sel[hit[0]] @ tags % 2).any()


def _check_bounds(a, b, n, cap, brute, **kwargs):
    lower, res = weight_bounds(a, b, n, cap, **kwargs)
    upper = res.weight
    assert lower <= brute <= upper
    if lower == upper or cap == UNCAPPED:
        assert lower == brute == upper
    _check_element(a, b, res, kwargs.get("tags"))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 7), tagged=st.booleans(),
       cap=st.sampled_from([0, 4, 40, UNCAPPED]))
def test_span_bounds_bracket_brute_force(data, n, tagged, cap):
    r = data.draw(st.integers(1, min(2 * n, 9)))
    bits = data.draw(st.lists(st.integers(0, 1), min_size=r * (2 * n + 2),
                              max_size=r * (2 * n + 2)))
    rows = np.array(bits, dtype=np.uint8).reshape(r, 2 * n + 2)
    a, b = rows[:, :n], rows[:, n:2 * n]
    if Gf2Matrix.from_dense(rows[:, :2 * n]).rank() < r:
        return  # the bound takes independent rows
    tags = rows[:, 2 * n:] if tagged else None
    _check_bounds(a, b, n, cap, _span_minimum(a, b, tags), tags=tags)


def test_uncapped_bounds_equal_brute_force_on_denser_spans():
    # larger and denser than the examples above: here the lightest element
    # is often formed only at the last level the bound needs
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(5, 9))
        rows = (rng.random((int(rng.integers(n, 11)), 2 * n)) < rng.uniform(0.2, 0.8))
        rows = rows.astype(np.uint8)
        if Gf2Matrix.from_dense(rows).rank() == len(rows):
            a, b = rows[:, :n], rows[:, n:]
            lower, res = weight_bounds(a, b, n)
            assert lower == res.weight == _span_minimum(a, b)
            _check_element(a, b, res)
            checked += 1


def _plus_form(p):
    return build_type1(Type1Spec(classify_prime(p), Type1Variant.PLUS_FORM)).h.to_dense()


_STABILIZERS = {p: _plus_form(p) for p in (5, 13)}


@settings(max_examples=25, deadline=None)
@given(data=st.data(), p=st.sampled_from([5, 13]),
       cap=st.sampled_from([0, 40, UNCAPPED]))
def test_code_bounds_match_brute_force(data, p, cap):
    """Codes from a random subset of a plus-form code's generators, some of
    them closed under omega: the bound on d_dagger over the stabilizer, and
    on d_min over the normalizer counting only elements outside the
    stabilizer."""
    dense = _STABILIZERS[p]
    keep = data.draw(st.lists(st.integers(0, len(dense) - 1), min_size=1,
                              max_size=len(dense), unique=True))
    code = StabilizerCode(p, Gf2Matrix.from_dense(dense[sorted(keep)]), family="example")
    ha, hb = dense[sorted(keep), :p], dense[sorted(keep), p:]
    gf4 = gf4_linear(code)
    _check_bounds(ha, hb, p, cap, _span_minimum(ha, hb), gf4=gf4)

    norm_a, norm_b, tags = _normalizer(code)
    lower, res = weight_bounds(norm_a, norm_b, p, cap, gf4=gf4, tags=tags)
    upper = res.weight
    brute = lightest_logical_weight(code, upper)
    assert brute == upper if lower == upper else lower <= brute <= upper
    if cap == UNCAPPED:
        assert lower == upper
    if upper <= p:
        assert witness_holds(code, to_pauli(SymplecticVector(res.a, res.b)), upper,
                             in_stabilizer=False)


def _normalizer(code):
    """The normalizer basis [H; logicals] and, as tags, each row's
    symplectic products with the logicals."""
    n = code.n_qubits
    sf = standard_form(code)
    logs = np.array([np.concatenate([v.a, v.b]) for v in sf.logical_x + sf.logical_z])
    dense = code.h.to_dense()
    norm_a = np.vstack([dense[:, :n], logs[:, :n]])
    norm_b = np.vstack([dense[:, n:], logs[:, n:]])
    return norm_a, norm_b, (norm_a @ logs[:, n:].T + norm_b @ logs[:, :n].T) % 2


@pytest.mark.parametrize("p,d_dagger,d_min", [(5, 4, 3), (13, 6, 5), (29, 12, 11)])
def test_omega_orbits_give_the_same_bounds(p, d_dagger, d_min):
    code = build_type1(Type1Spec(classify_prime(p), Type1Variant.PLUS_FORM))
    assert gf4_linear(code)
    dense = code.h.to_dense()
    norm_a, norm_b, tags = _normalizer(code)
    for gf4 in (True, False):
        lower, res = weight_bounds(dense[:, :p], dense[:, p:], p, gf4=gf4)
        assert (lower, res.weight) == (d_dagger, d_dagger)
        lower, res = weight_bounds(norm_a, norm_b, p, gf4=gf4, tags=tags)
        assert (lower, res.weight) == (d_min, d_min)
        # with nothing formed, each element still touches a pivot qubit of
        # each of the two disjoint information sets
        lower, res = weight_bounds(dense[:, :p], dense[:, p:], p, 0, gf4=gf4)
        assert (lower, res.weight, res.evaluated) == (2, p + 1, 0)


def test_gf4_needs_an_omega_closed_span():
    qcs_like = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.uint8)  # X1, X2
    with pytest.raises(InvalidParameters):
        weight_bounds(qcs_like[:, :2], qcs_like[:, 2:], 2, UNCAPPED, gf4=True)


# ---------------- the engine's lightest element ----------------


def _worked_example(idle=0):
    """The [[21,5]] worked example's dense generators and logicals
    X_1..X_5, Z_1..Z_5, as (X half, Z half) pairs; ``idle`` qubits in front
    push the code qubits across the 64-bit word boundary."""
    code = build_qcs(QcsSpec(classify_prime(7), QcsVariant.A, Layout("h1-adj2"),
                             (2, 3, 8, 11, 21)))
    n = code.n_qubits
    sf = standard_form(code)
    logs = np.array([np.concatenate([v.a, v.b]) for v in sf.logical_x + sf.logical_z])

    def halves(rows):
        zeros = np.zeros((len(rows), idle), dtype=np.uint8)
        return np.hstack([zeros, rows[:, :n]]), np.hstack([zeros, rows[:, n:]])

    return *halves(code.h.to_dense()), *halves(logs), n + idle


@pytest.mark.parametrize("idle", [0, 50], ids=["one-word", "multi-word"])
def test_lightest_element_lies_in_the_span(idle):
    ha, hb, la, lb, n = _worked_example(idle)
    assert (pack(np.hstack([ha, hb])).shape[1] > 1) == (idle > 0)
    norm_a, norm_b = np.vstack([ha, la]), np.vstack([hb, lb])
    # the tags: symplectic products with the logicals, nonzero exactly
    # outside the stabilizer
    tags = (norm_a @ lb.T + norm_b @ la.T) % 2
    for a, b, kwargs, d in ((ha, hb, {}, 8), (norm_a, norm_b, {"tags": tags}, 5)):
        lower, res = weight_bounds(a, b, n, **kwargs)
        assert lower == res.weight == d
        assert int((res.a | res.b).sum()) == d
        element = np.concatenate([res.a, res.b])[None, :]
        assert Gf2Matrix.from_dense(np.hstack([a, b])).in_row_space(
            Gf2Matrix.from_dense(element))
        if kwargs:
            assert ((res.a @ lb.T + res.b @ la.T) % 2).any()
        again = weight_bounds(a, b, n, **kwargs)[1]
        assert (again.a.tolist(), again.b.tolist()) == (res.a.tolist(), res.b.tolist())


@pytest.mark.parametrize("columns", [slice(None), slice(0, 1)], ids=["all", "one"])
@pytest.mark.parametrize("seed", range(4))
def test_isd_returns_only_tagged_elements(seed, columns):
    """With tags, the search returns only elements whose tags sum to
    nonzero: here products with all logicals or with X_1 alone, so each
    result is a logical, whatever the budget."""
    code = build_qcs(QcsSpec(classify_prime(7), QcsVariant.A, Layout("h1-adj2"),
                             (2, 3, 8, 11, 21)))
    ha, hb, la, lb, n = _worked_example()
    norm_a, norm_b = np.vstack([ha, la]), np.vstack([hb, lb])
    tags = ((norm_a @ lb.T + norm_b @ la.T) % 2)[:, columns]
    for budget in (1, 300, 5000):
        res = minweight.isd_search(norm_a, norm_b, n, budget, seed, tags=tags)
        assert ((res.a @ lb[columns].T + res.b @ la[columns].T) % 2).any()
        pauli = to_pauli(SymplecticVector(res.a, res.b))
        assert witness_holds(code, pauli, res.weight, in_stabilizer=False)


def _isd_round_by_round(basis_a, basis_b, n_qubits, budget, seed, tags=None):
    """The information-set search one round at a time: each round its own
    permutation, elimination and scoring, until the candidates scored reach
    the budget; a later round replaces the best only when strictly lighter."""
    rng = np.random.default_rng(seed)
    r = basis_a.shape[0]
    halves = np.hstack([basis_a, basis_b])
    tags = np.zeros((r, 0), dtype=np.uint8) if tags is None else tags
    pad = np.zeros((r, -2 * n_qubits % 64), dtype=np.uint8)  # tags word-aligned
    code_words = -(-2 * n_qubits // 64)
    ii, jj = np.triu_indices(r, 1)
    best = (n_qubits + 1, np.zeros(n_qubits, np.uint8), np.zeros(n_qubits, np.uint8))
    evaluated = 0
    while evaluated < budget:
        perm = rng.permutation(n_qubits)
        # x then z of each qubit in the permuted order
        cols = np.stack([perm, n_qubits + perm], axis=1).ravel()
        reduced = row_reduce(pack(np.hstack([halves[:, cols], pad, tags])))[0]
        cands = np.vstack([reduced, reduced[ii] ^ reduced[jj]])
        words = cands[:, :code_words]
        bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
        w = (bits[:, 0::2] | bits[:, 1::2]).sum(axis=1)
        counted = (w > 0) & (cands[:, code_words:].any(axis=1) if tags.shape[1] else True)
        w = np.where(counted, w, n_qubits + 1)
        evaluated += len(cands)
        i = int(np.argmin(w))
        if w[i] < best[0]:
            a, b = np.empty((2, n_qubits), dtype=np.uint8)
            a[perm], b[perm] = bits[i, 0:2 * n_qubits:2], bits[i, 1:2 * n_qubits:2]
            best = (int(w[i]), a, b)
    return (*best, evaluated)


@pytest.mark.parametrize("chunk", [minweight._CHUNK, 2000], ids=["chunk", "small-chunk"])
@pytest.mark.parametrize("tagged", [False, True], ids=["untagged", "tagged"])
@pytest.mark.parametrize("basis", ["worked-example", "type1-37"])
def test_stacked_isd_matches_round_by_round(basis, tagged, chunk, monkeypatch):
    """Rounds eliminated and scored as stacks give the weight, witness and
    count of the search run one round at a time, ties included; a small
    chunk puts many rounds' boundaries inside the budget."""
    if basis == "worked-example":
        ha, hb, la, lb, n = _worked_example()
        a, b = np.vstack([ha, la]), np.vstack([hb, lb])
        tags = (a @ lb.T + b @ la.T) % 2
    else:
        n = 37
        a, b, tags = _normalizer(build_type1(Type1Spec(classify_prime(n),
                                                       Type1Variant.PLUS_FORM)))
    tags = tags if tagged else None
    monkeypatch.setattr(minweight, "_CHUNK", chunk)
    for seed in range(4):
        for budget in (1, 300, 50_000):
            res = minweight.isd_search(a, b, n, budget, seed, tags=tags)
            weight, wa, wb, evaluated = _isd_round_by_round(a, b, n, budget, seed, tags)
            assert (res.weight, res.evaluated) == (weight, evaluated)
            assert np.array_equal(res.a, wa) and np.array_equal(res.b, wb)


def test_isd_rejects_an_empty_basis():
    empty = np.zeros((0, 5), dtype=np.uint8)
    with pytest.raises(InvalidParameters, match="no rows"):
        minweight.isd_search(empty, empty, 5, 100, 0)


@pytest.mark.parametrize("n", [5, 70], ids=["one-word", "multi-word"])
def test_affine_scan_matches_brute_force(n):
    """The reference scan against every element of every coset, formed
    densely: the weight, the first lightest element (offsets in order, then
    row selections in table order) and the count."""
    rng = np.random.default_rng(n)
    for _ in range(60):
        m, c = int(rng.integers(0, 8)), int(rng.integers(1, 5))
        density = rng.uniform(0.05, 0.5)
        rows = (rng.random((m, 2 * n)) < density).astype(np.uint8)
        offsets = (rng.random((c, 2 * n)) < density).astype(np.uint8)
        sel = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1  # bit j: row j
        elements = ((offsets[:, None, :] + (sel @ rows)[None]) % 2).reshape(-1, 2 * n)
        weights = (elements[:, :n] | elements[:, n:]).sum(axis=1)
        i = int(np.argmin(weights))
        res = min_weight_affine(pack(rows[:, :n]), pack(rows[:, n:]),
                                pack(offsets[:, :n]), pack(offsets[:, n:]), n)
        assert (res.weight, res.evaluated) == (weights[i], c << m)
        assert res.a.tolist() == elements[i, :n].tolist()
        assert res.b.tolist() == elements[i, n:].tolist()


def test_evaluated_counts_the_elements_scanned(monkeypatch):
    ha, hb, la, lb, n = _worked_example()
    pa, pb = pack(ha), pack(hb)
    oa, ob = xor_table(pack(la))[1:], xor_table(pack(lb))[1:]
    m = pa.shape[0]
    assert min_weight_affine(pa, pb, oa, ob, n).evaluated == len(oa) << m
    assert min_weight_affine(pa[:10], pb[:10], oa[0], ob[0], n).evaluated == 1 << 10

    # the engine counts every element of every level it forms
    formed = []
    extend = minweight._extend

    def spy(*args):
        level = extend(*args)
        formed.append(len(level[0]))
        return level

    monkeypatch.setattr(minweight, "_extend", spy)
    norm_a, norm_b = np.vstack([ha, la]), np.vstack([hb, lb])
    tags = (norm_a @ lb.T + norm_b @ la.T) % 2
    for a, b, kwargs in ((ha, hb, {}), (norm_a, norm_b, {"tags": tags})):
        for cap in (UNCAPPED, 1000, 0):
            formed.clear()
            res = weight_bounds(a, b, n, cap, **kwargs)[1]
            assert res.evaluated == sum(formed) <= cap
