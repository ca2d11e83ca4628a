"""Independent certification of the 21-qubit distances.

The distance engine enumerates normalizer cosets meet-in-the-middle; this
module re-certifies its answers from the other direction, with the
weight-by-weight brute force in ``pauli_scan``.  The two paths share no
enumeration code.
"""

import numpy as np
import pytest

from pauli_scan import certify_distance, commuting_vectors_of_weight
from qrstab.analysis import d_min
from qrstab.code import StabilizerCode
from qrstab.gf2 import Gf2Matrix
from qrstab.minweight import cell_sums, cell_vector, low_weight_commuting
from qrstab.numtheory import classify_prime
from qrstab.symplectic import from_pauli
from qrstab.tables import TABLE_IV
from qrstab.type1 import Type1Spec, Type1Variant, build_type1
from qrstab.type2 import Layout, QcsSpec, QcsVariant, build_qcs


@pytest.mark.parametrize("layout,removal", [(l, r) for l, r, _, _ in TABLE_IV],
                         ids=[f"{l}-{'.'.join(map(str, r))}" for l, r, _, _ in TABLE_IV])
def test_certify_21_qubit_distances(layout, removal):
    ctx = classify_prime(7)
    code = build_qcs(QcsSpec(ctx, QcsVariant.A, Layout(layout), tuple(removal)))
    d = d_min(code).value
    assert certify_distance(code, d)


def test_certify_worked_example_distance():
    ctx = classify_prime(7)
    code = build_qcs(QcsSpec(ctx, QcsVariant.A, Layout.H1_ADJ2, (2, 3, 8, 11, 21)))
    assert d_min(code).value == 5
    assert certify_distance(code, 5)
    assert not certify_distance(code, 4)


def _prescan_codes():
    yield "t1-residue-7", build_type1(Type1Spec(classify_prime(7), Type1Variant.RESIDUE_PAIR))
    yield "t1-residue-23", build_type1(Type1Spec(classify_prime(23), Type1Variant.RESIDUE_PAIR))
    yield "t1-nonresidue-11", build_type1(
        Type1Spec(classify_prime(11), Type1Variant.NONRESIDUE_PAIR))
    # d = 1: the pre-scan finds a weight-1 logical
    yield "adj2-h1-7.11.12.14.15.21", build_qcs(
        QcsSpec(classify_prime(7), QcsVariant.A, Layout.ADJ2_H1, (7, 11, 12, 14, 15, 21)))
    yield "qcs-b-13", build_qcs(QcsSpec(classify_prime(13), QcsVariant.B, Layout.H1_ADJ2))
    # the codes above give one Pauli pattern (YY) at most; this one gives
    # X, Z and Y on the idle qubits and XX, ZZ, YY and mixed pairs
    rows = [from_pauli(s) for s in ("XXXXII", "ZZZZII")]
    yield "xxxx-zzzz-6", StabilizerCode(6, Gf2Matrix.from_dense(
        [np.concatenate([v.a, v.b]) for v in rows]), family="example")


@pytest.mark.parametrize("name,code", list(_prescan_codes()),
                         ids=[name for name, _ in _prescan_codes()])
def test_prescan_matches_brute_force(name, code):
    n = code.n_qubits
    dense = code.h.to_dense()
    cells = low_weight_commuting(dense[:, :n], dense[:, n:], n)
    found = [(2 - int(c[1] < 0), *cell_vector(c, n)) for c in cells]
    for w in (1, 2):
        got = {(a.tobytes(), b.tobytes()) for v, a, b in found if v == w}
        want = {(a.tobytes(), b.tobytes()) for a, b in commuting_vectors_of_weight(code, w)}
        assert got == want
        assert all(int((a | b).sum()) == w for v, a, b in found if v == w)
    # strictly increasing in (weight, patterns, qubits), patterns X < Z < Y
    # read from the lowest qubit up
    rank = {(1, 0): 0, (0, 1): 1, (1, 1): 2}
    keys = []
    for w, a, b in found:
        qubits = tuple(np.flatnonzero(a | b).tolist())
        keys.append((w, tuple(rank[int(a[q]), int(b[q])] for q in qubits), qubits))
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))
    # the tags from the cells are the symplectic products with the logicals
    sf = code.standard_form
    logs = np.array([np.concatenate([v.a, v.b]) for v in sf.logical_x + sf.logical_z],
                    dtype=np.uint8).reshape(-1, 2 * n)  # no rows when K = 0
    vectors = np.array([np.concatenate([a, b]) for _, a, b in found]).reshape(-1, 2 * n)
    products = (vectors[:, :n] @ logs[:, n:].T + vectors[:, n:] @ logs[:, :n].T) % 2
    assert np.array_equal(cell_sums(logs[:, n:].T, logs[:, :n].T, cells), products)
