"""Independent certification of the 21-qubit distances and of the pre-scan.

The distance engines combine rows of systematic bases of the normalizer,
after a pre-scan that pairs syndrome columns; this module re-certifies
their answers from the other direction, with the weight-by-weight brute
force in ``pauli_scan``.  The two paths share no enumeration code.
"""

import numpy as np
import pytest

from pauli_scan import certify_distance, commuting_vectors_of_weight
from qrstab.analysis import d_min
from qrstab.code import StabilizerCode
from qrstab.gf2 import Gf2Matrix
from qrstab.minweight import low_weight_commuting
from qrstab.numtheory import classify_prime
from qrstab.symplectic import SymplecticVector, from_pauli, to_pauli
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


def _stabilizer(*paulis):
    rows = [from_pauli(s) for s in paulis]
    return StabilizerCode(len(paulis[0]), Gf2Matrix.from_dense(
        [np.concatenate([v.a, v.b]) for v in rows]), family="example")


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
    yield "xxxx-zzzz-6", _stabilizer("XXXXII", "ZZZZII")
    # the first commuting vector, X on qubit 0, is a stabilizer element
    yield "x-zz-3", _stabilizer("XII", "IZZ")
    # K = 0, no logical rows: XX, ZZ and YY commute but are all stabilizers
    yield "xx-zz-2", _stabilizer("XX", "ZZ")
    # ZIXI is lighter in patterns read from the highest qubit down
    yield "ixix-yiyi-xzzz-4", _stabilizer("IXIX", "YIYI", "XZZZ")


_PINNED = {"x-zz-3": "IZI", "xx-zz-2": None, "ixix-yiyi-xzzz-4": "XIZI"}
_RANK = {(1, 0): 0, (0, 1): 1, (1, 1): 2}  # X < Z < Y


def _first_outside_stabilizer(code):
    """The first commuting Pauli of weight <= 2 outside the stabilizer, in
    order of weight, patterns read from the lowest qubit, then qubits; by
    brute force, with stabilizer membership tested on the row space."""
    for w in (1, 2):
        found = []
        for a, b in commuting_vectors_of_weight(code, w):
            if not code.h.in_row_space(Gf2Matrix.from_dense(np.concatenate([a, b])[None, :])):
                qubits = tuple(np.flatnonzero(a | b).tolist())
                found.append((tuple(_RANK[int(a[q]), int(b[q])] for q in qubits), qubits,
                              to_pauli(SymplecticVector(a, b))))
        if found:
            return min(found)[2]
    return None


@pytest.mark.parametrize("name,code", list(_prescan_codes()),
                         ids=[name for name, _ in _prescan_codes()])
def test_prescan_matches_brute_force(name, code):
    n = code.n_qubits
    dense = code.h.to_dense()
    sf = code.standard_form
    logs = np.array([np.concatenate([v.a, v.b]) for v in sf.logical_x + sf.logical_z],
                    dtype=np.uint8).reshape(-1, 2 * n)  # no rows when K = 0
    res = low_weight_commuting(dense[:, :n], dense[:, n:], logs[:, :n], logs[:, n:], n)
    got = None if res is None else to_pauli(SymplecticVector(res.a, res.b))
    want = _first_outside_stabilizer(code)
    assert got == want
    if res is not None:
        assert res.weight == n - got.count("I")
    if name in _PINNED:
        assert want == _PINNED[name]
