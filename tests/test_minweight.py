"""The Brouwer-Zimmermann bound and the early-stopping exact scan, checked
against brute force and against the full scan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_scan import lightest_logical_weight
from qrstab.analysis import gf4_linear, standard_form
from qrstab.code import StabilizerCode
from qrstab.errors import InvalidParameters
from qrstab.gf2 import Gf2Matrix, pack
from qrstab.minweight import (min_weight_affine, min_weight_span, weight_bounds,
                              xor_table)
from qrstab.numtheory import classify_prime
from qrstab.type1 import Type1Spec, Type1Variant, build_type1
from qrstab.type2 import Layout, QcsSpec, QcsVariant, build_qcs

UNCAPPED = 1 << 40


def _span_minimum(a, b, tags=None):
    """Lightest nonzero combination of the rows (with nonzero tags, if
    given), by enumerating all 2^r of them; N + 1 if there is none."""
    r, n = a.shape
    sel = (np.arange(1, 1 << r)[:, None] >> np.arange(r)) & 1
    wa, wb = sel @ a % 2, sel @ b % 2
    weights = (wa | wb).sum(axis=1)
    if tags is not None:
        weights = weights[(sel @ tags % 2).any(axis=1)]
    return int(weights.min()) if len(weights) else n + 1


def _check_bounds(a, b, n, cap, brute, **kwargs):
    lower, upper = weight_bounds(a, b, n, cap, **kwargs)
    assert lower <= brute <= upper
    if lower == upper or cap == UNCAPPED:
        assert lower == brute == upper


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
            assert weight_bounds(a, b, n, UNCAPPED) == (_span_minimum(a, b),) * 2
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
    lower, upper = weight_bounds(norm_a, norm_b, p, cap, gf4=gf4, tags=tags)
    brute = lightest_logical_weight(code, upper)
    assert brute == upper if lower == upper else lower <= brute <= upper
    if cap == UNCAPPED:
        assert lower == upper


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
        assert weight_bounds(dense[:, :p], dense[:, p:], p, UNCAPPED, gf4=gf4) == \
            (d_dagger, d_dagger)
        assert weight_bounds(norm_a, norm_b, p, UNCAPPED, gf4=gf4, tags=tags) == (d_min, d_min)
        # with nothing formed, each element still touches a pivot qubit of
        # each of the two disjoint information sets
        assert weight_bounds(dense[:, :p], dense[:, p:], p, 0, gf4=gf4) == (2, p + 1)


def test_gf4_needs_an_omega_closed_span():
    qcs_like = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.uint8)  # X1, X2
    with pytest.raises(InvalidParameters):
        weight_bounds(qcs_like[:, :2], qcs_like[:, 2:], 2, UNCAPPED, gf4=True)


# ---------------- the exact scan's early stop ----------------


def _worked_example(idle=0):
    """The [[21,5]] worked example's packed generators and logicals
    X_1..X_5, Z_1..Z_5; ``idle`` qubits in front push the code qubits across
    the 64-bit word boundary."""
    code = build_qcs(QcsSpec(classify_prime(7), QcsVariant.A, Layout("h1-adj2"),
                             (2, 3, 8, 11, 21)))
    n = code.n_qubits
    sf = standard_form(code)
    logs = np.array([np.concatenate([v.a, v.b]) for v in sf.logical_x + sf.logical_z])

    def halves(rows):
        zeros = np.zeros((len(rows), idle), dtype=np.uint8)
        return (pack(np.hstack([zeros, rows[:, :n]])), pack(np.hstack([zeros, rows[:, n:]])))

    return *halves(code.h.to_dense()), *halves(logs), n + idle


@pytest.mark.parametrize("idle", [0, 50], ids=["one-word", "multi-word"])
def test_stop_at_a_lower_bound_gives_the_full_scan(idle):
    pa, pb, la, lb, n = _worked_example(idle)
    assert pa.shape[1] == (1 if idle == 0 else 2)
    # 63 logical cosets, last first, and the span of H with X_1..X_4: in
    # both the first minimum-weight element lies past the first step
    oa, ob = xor_table(la[:6])[:0:-1], xor_table(lb[:6])[:0:-1]
    sa, sb = np.vstack([pa, la[:4]]), np.vstack([pb, lb[:4]])
    scans = [lambda **kw: min_weight_affine(pa, pb, oa, ob, n, **kw),
             lambda **kw: min_weight_span(sa, sb, n, **kw)]
    for scan in scans:
        full = scan()
        assert full.weight == 5
        for stop_at in (0, full.weight - 1, full.weight):
            got = scan(stop_at=stop_at)
            assert (got.weight, got.a.tolist(), got.b.tolist()) == \
                (full.weight, full.a.tolist(), full.b.tolist())
        assert scan(stop_at=full.weight).evaluated < full.evaluated


def test_evaluated_counts_the_elements_scanned():
    pa, pb, la, lb, n = _worked_example()
    oa, ob = xor_table(la)[1:], xor_table(lb)[1:]
    m = pa.shape[0]
    step = 1 << 16  # 2^8 second-half rows against the 2^8-row first-half table
    assert min_weight_affine(pa, pb, oa, ob, n).evaluated == len(oa) << m
    assert min_weight_affine(pa, pb, oa, ob, n, stop_at=-1).evaluated == len(oa) << m
    # 2^5 second-half rows, fewer than one step holds
    assert min_weight_span(pa[:10], pb[:10], n).evaluated == 1 << 10
    # no element weighs more than n, so the first step meets it
    assert min_weight_affine(pa, pb, oa, ob, n, stop_at=n).evaluated == step
    reversed_cosets = min_weight_affine(pa, pb, oa[:63][::-1], ob[:63][::-1], n, stop_at=5)
    assert reversed_cosets.evaluated == 15 * step
