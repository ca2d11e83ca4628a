import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrstab.alist import export_alist, import_alist
from qrstab.errors import MalformedAlist
from qrstab.gf2 import Gf2Matrix


def test_header_for_five_qubit_code(make_type1):
    code = make_type1(5)
    text = export_alist(code.h)
    assert text.splitlines()[0] == "4 10"


def test_header_for_21_qubit_code(make_qcs):
    code = make_qcs(7, removed=(2, 3, 8, 11, 21))
    assert export_alist(code.h).splitlines()[0] == "16 42"


def test_round_trip_codes(make_type1, make_qcs):
    for code in (make_type1(5), make_type1(13), make_qcs(5), make_qcs(7)):
        assert import_alist(export_alist(code.h)) == code.h


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 20), st.integers(0, 2 ** 32 - 1))
def test_round_trip_random(rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = Gf2Matrix.from_dense(rng.integers(0, 2, (rows, cols), dtype=np.uint8))
    assert import_alist(export_alist(m)) == m


def test_zero_rows_and_columns_round_trip():
    m = Gf2Matrix.from_dense([[0, 0, 1], [0, 0, 0]])
    assert import_alist(export_alist(m)) == m


def test_malformed_truncated():
    good = export_alist(Gf2Matrix.from_dense(np.eye(3, dtype=np.uint8)))
    lines = good.splitlines()
    with pytest.raises(MalformedAlist) as err:
        import_alist("\n".join(lines[:4]))
    assert err.value.line == 5


def test_malformed_token():
    with pytest.raises(MalformedAlist) as err:
        import_alist("3 x\n1 1\n1 1 1\n1 1 1\n1\n2\n3\n1\n2\n3\n")
    assert err.value.line == 1


def test_malformed_weight_mismatch():
    good = export_alist(Gf2Matrix.from_dense(np.eye(2, dtype=np.uint8)))
    lines = good.splitlines()
    lines[2] = "2 1"  # wrong row weight
    with pytest.raises(MalformedAlist):
        import_alist("\n".join(lines))


def test_malformed_column_inconsistency():
    good = export_alist(Gf2Matrix.from_dense(np.eye(2, dtype=np.uint8)))
    lines = good.splitlines()
    lines[-1] = "1"  # column list now disagrees with rows
    with pytest.raises(MalformedAlist):
        import_alist("\n".join(lines))


def test_malformed_repeated_index():
    # row 1 states weight 2 but lists column 2 twice
    with pytest.raises(MalformedAlist) as err:
        import_alist("2 3\n2 1\n2 1\n0 1 1\n2 2\n3 0\n0\n1\n2\n")
    assert err.value.line == 5
    # column 2 lists row 2 twice: not the row lists' column 2
    with pytest.raises(MalformedAlist) as err:
        import_alist("2 2\n1 2\n1 1\n1 2\n1\n2\n1 0\n2 2\n")
    assert err.value.line == 8


def test_column_index_out_of_range():
    with pytest.raises(MalformedAlist):
        import_alist("1 2\n1 1\n1\n1 0\n5\n1\n0\n")
