"""Tests of the benchmark's checkers: each must accept a correct output and
reject a deliberately wrong one.

    python3 -m pytest bench/test_checks.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from checks import CheckError, Stabilizer, parse_alist, parse_pauli, weight  # noqa: E402

# the [[5,1,3]] code: four cyclic shifts of XZZXI, logicals XXXXX and ZZZZZ
FIVE = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
LOGICAL_3 = "IYYIX"  # XZZXI times XXXXX: a weight-3 logical


def test_accepts_the_five_qubit_code():
    stab = Stabilizer.from_pauli(FIVE)
    stab.check_logicals(["XXXXX"], ["ZZZZZ"])
    stab.check_d_min_witness(3, LOGICAL_3)
    stab.check_d_dagger_witness(4, "XZZXI")
    assert stab.lightest_logical(3) == 3
    assert stab.lightest_logical(2) is None


def test_rejects_a_flipped_generator_bit():
    with pytest.raises(CheckError, match="commute"):
        Stabilizer.from_pauli(["YZZXI"] + FIVE[1:])


def test_rejects_a_witness_one_qubit_too_heavy():
    stab = Stabilizer.from_pauli(FIVE)
    heavy = "XXXXX"  # a logical of weight 5, stated as the distance 4
    with pytest.raises(CheckError, match="weighs 5"):
        stab.check_d_min_witness(4, heavy)
    with pytest.raises(CheckError, match="weighs 4"):
        stab.check_d_dagger_witness(3, "XZZXI")


def pauli(x: int, z: int, n: int) -> str:
    return "".join("IXZY"[(x >> i & 1) | (z >> i & 1) << 1] for i in range(n))


def test_rejects_a_stabilizer_element_presented_as_a_logical():
    stab = Stabilizer.from_pauli(FIVE)
    (x0, z0), (x1, z1) = parse_pauli(FIVE[0]), parse_pauli(FIVE[1])
    product = pauli(x0 ^ x1, z0 ^ z1, 5)  # XYIYX, in the stabilizer
    with pytest.raises(CheckError, match="stabilizer element"):
        stab.check_d_min_witness(weight(parse_pauli(product)), product)
    with pytest.raises(CheckError, match="anticommute with Z_i"):
        stab.check_logicals([product], ["ZZZZZ"])


ALIST = "2 3\n2 2\n2 2\n1 1 2\n1 3\n2 3\n1 0\n2 0\n1 2\n"


def test_alist_parser():
    assert parse_alist(ALIST).tolist() == [[1, 0, 1], [0, 1, 1]]
    with pytest.raises(CheckError, match="column 2"):
        parse_alist(ALIST.replace("\n1 3\n", "\n1 2\n"))


def test_qcs_record_check_rejects_a_flipped_generator_bit(tmp_path):
    qrstab = pytest.importorskip("qrstab")
    from workloads import QcsBuild

    code = qrstab.build_qcs(qrstab.QcsSpec(qrstab.classify_prime(5), qrstab.QcsVariant.B))
    text = qrstab.make_record(code, "p=5").to_json()
    workload = QcsBuild(None, tmp_path)
    gens = json.loads(text)["generators"]
    assert workload._check_json(5, text, gens) >= 1
    rec = json.loads(text)
    g = rec["generators"][0]
    rec["generators"][0] = {"I": "Z", "Z": "I", "X": "Y", "Y": "X"}[g[0]] + g[1:]
    bad = json.dumps(rec)
    with pytest.raises(CheckError):
        workload._check_json(5, bad, rec["generators"])


def test_benchmark_json_lists_what_the_benchmark_reports():
    from run import END_TO_END
    from spans import LAYER_METRICS
    from workloads import WORKLOADS

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
