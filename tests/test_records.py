import json

import pytest

from qrstab.analysis import distance_report
from qrstab.errors import MalformedRecord
from qrstab.records import CodeRecord, make_record, pauli_text


def test_record_round_trip(make_type1):
    code = make_type1(13)
    rep = distance_report(code)
    rec = make_record(code, "thirteen", rep.d_dagger, rep.d_min, rep.degenerate)
    text = rec.to_json()
    back = CodeRecord.from_json(text)
    assert back == rec
    assert back.to_json() == text


def test_record_fields(make_qcs):
    code = make_qcs(7, removed=(2, 3, 8, 11, 21))
    rec = make_record(code, "example")
    assert (rec.n_qubits, rec.k_logical, rec.rank) == (21, 5, 16)
    assert rec.family == "qcs-a"
    assert rec.layout == "h1-adj2"
    assert rec.removed_rows == [2, 3, 8, 11, 21]
    assert len(rec.generators) == 16
    assert len(rec.logical_x) == len(rec.logical_z) == 5
    assert rec.d_min is None


def test_distances_always_tagged(make_type1):
    code = make_type1(5)
    rep = distance_report(code)
    rec = make_record(code, "five", rep.d_dagger, rep.d_min, rep.degenerate)
    assert rec.d_min["tag"] == "exact" and rec.d_min["value"] == 3
    assert rec.d_dagger["tag"] == "exact" and rec.d_dagger["value"] == 4
    assert rec.degenerate is False


def test_json_is_key_sorted(make_type1):
    rec = make_record(make_type1(5), "five")
    data = json.loads(rec.to_json())
    assert list(data) == sorted(data)
    assert data["schema_version"] == 1


def test_schema_version_checked(make_type1):
    rec = make_record(make_type1(5), "five")
    data = json.loads(rec.to_json())
    data["schema_version"] = 99
    with pytest.raises(ValueError):
        CodeRecord.from_json(json.dumps(data))


@pytest.mark.parametrize("text", [
    "not json",
    '{"schema_version": 99}',
    '{"schema_version": 1}',
    '[1, 2]',
], ids=["not-json", "schema-version", "missing-fields", "json-list"])
def test_malformed_record_is_one_typed_error(text):
    with pytest.raises(MalformedRecord):
        CodeRecord.from_json(text)


@pytest.mark.parametrize("name,value", [
    ("generators", 7), ("n_qubits", "many"), ("n_qubits", True),
    ("removed_rows", [2, "3"]), ("logical_x", ["XZ", None]), ("layout", 3),
    ("d_min", [3]), ("degenerate", 0), ("provenance", None),
])
def test_mistyped_field_is_malformed(make_type1, name, value):
    code = make_type1(5)
    rep = distance_report(code)
    data = json.loads(make_record(code, "five", rep.d_dagger, rep.d_min,
                                  rep.degenerate).to_json())
    data[name] = value
    with pytest.raises(MalformedRecord, match=name):
        CodeRecord.from_json(json.dumps(data))


def test_check_matrix_rebuild(make_type1):
    code = make_type1(13)
    rec = make_record(code, "thirteen")
    assert rec.check_matrix() == code.h


def test_pauli_text(make_type1):
    rec = make_record(make_type1(5), "five")
    lines = pauli_text(rec).strip().split("\n")
    assert len(lines) == 4 + 2
    assert lines[-2].startswith("X1 ") and lines[-1].startswith("Z1 ")
    assert all(len(line) == 5 for line in lines[:4])
