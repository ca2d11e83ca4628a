import pytest

from qrstab.code import StabilizerCode
from qrstab.errors import DependentRows, SipViolation
from qrstab.gf2 import Gf2Matrix
from qrstab.numtheory import classify_prime
from qrstab.type1 import Type1Spec, Type1Variant, build_type1
from qrstab.type2 import QcsSpec, QcsVariant, build_qcs

BUILDS = {
    "type1": lambda: build_type1(Type1Spec(classify_prime(7), Type1Variant.RESIDUE_PAIR)),
    "type1-rows": lambda: build_type1(Type1Spec(classify_prime(7), Type1Variant.RESIDUE_PAIR,
                                                row_subset=(2, 3, 5, 6))),
    "qcs-a": lambda: build_qcs(QcsSpec(classify_prime(7), QcsVariant.A)),
    "qcs-b": lambda: build_qcs(QcsSpec(classify_prime(13), QcsVariant.B)),
}


@pytest.mark.parametrize("name", BUILDS)
def test_builders_raise_sip_violation_from_the_gate(monkeypatch, name):
    BUILDS[name]()  # commutes as built
    monkeypatch.setattr("qrstab.code.sip_check", lambda h1, h2: False)
    with pytest.raises(SipViolation, match="do not commute"):
        BUILDS[name]()


def test_default_type1_rows_need_no_rank(monkeypatch):
    # the first-wins subset is independent by construction
    def boom(self):
        raise AssertionError("the default Type-I rows were eliminated again")

    monkeypatch.setattr(Gf2Matrix, "rank", boom)
    code = build_type1(Type1Spec(classify_prime(23), Type1Variant.RESIDUE_PAIR))
    assert code.m == 12


def test_validate_goes_through_the_gate():
    # XX, ZZ commute and are independent; XX twice is dependent; X, Z anticommute
    xx_zz = Gf2Matrix.from_dense([[1, 1, 0, 0], [0, 0, 1, 1]])
    StabilizerCode(2, xx_zz, "type1").validate()
    with pytest.raises(DependentRows):
        StabilizerCode(2, xx_zz.take_rows([0, 0]), "type1").validate()
    with pytest.raises(SipViolation):
        StabilizerCode(2, Gf2Matrix.from_dense([[1, 0, 0, 0], [0, 0, 1, 0]]),
                       "type1").validate()
