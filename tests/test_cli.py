import hashlib
import json

import pytest

from qrstab.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_qrset_7(capsys):
    rc, out, _ = run(capsys, "qrset", "7")
    assert rc == 0
    assert "QR: 1 2 4" in out
    assert "QNR: 3 5 6" in out
    assert "beta = 2" in out


def test_qrset_13(capsys):
    rc, out, _ = run(capsys, "qrset", "13")
    assert rc == 0
    assert "QR: 1 3 4 9 10 12" in out


def test_qrset_not_prime(capsys):
    rc, _, err = run(capsys, "qrset", "4")
    assert rc == 2
    assert "NotPrime" in err


def test_build_type1_13(capsys):
    rc, out, _ = run(capsys, "build", "--type", "1", "--p", "13")
    assert rc == 0
    rec = json.loads(out)
    assert rec["n_qubits"] == 13 and rec["k_logical"] == 1


def test_build_example_removal_with_distance(capsys):
    rc, out, _ = run(capsys, "build", "--type", "2", "--p", "7",
                     "--variant", "A", "--layout", "h1-adj2",
                     "--remove", "2,3,8,11,21", "--distance", "exact")
    assert rc == 0
    rec = json.loads(out)
    assert rec["k_logical"] == 5
    assert rec["d_min"]["tag"] == "exact"


def test_build_layout_swap_gives_same_distance(capsys):
    rc1, out1, _ = run(capsys, "build", "--type", "2", "--p", "7",
                       "--variant", "A", "--layout", "adj2-h1",
                       "--remove", "7,11,12,14,21", "--distance", "exact")
    rc2, out2, _ = run(capsys, "build", "--type", "2", "--p", "7",
                       "--variant", "A", "--layout", "h1-adj2",
                       "--remove", "7,11,12,14,21", "--distance", "exact")
    assert rc1 == rc2 == 0
    d1 = json.loads(out1)["d_min"]["value"]
    d2 = json.loads(out2)["d_min"]["value"]
    # swapping the halves relabels X and Z and cannot change the distance
    assert d1 == d2 == 5


def test_build_trivial_skips_distance(capsys):
    rc, out, _ = run(capsys, "build", "--type", "1", "--p", "11",
                     "--distance", "exact")
    assert rc == 0
    rec = json.loads(out)
    assert rec["k_logical"] == 0 and rec["d_min"] is None


def test_build_alist_and_pauli_formats(tmp_path, capsys):
    out_path = tmp_path / "code.alist"
    rc, out, _ = run(capsys, "build", "--type", "1", "--p", "5",
                     "--format", "alist", "--out", str(out_path))
    assert rc == 0 and "wrote" in out
    assert out_path.read_text().splitlines()[0] == "4 10"
    rc, out, _ = run(capsys, "build", "--type", "1", "--p", "5",
                     "--format", "pauli")
    assert rc == 0
    assert len(out.strip().split("\n")) == 6


# sha256 of the file each build writes; any change to elimination, standard
# form, record layout or a seeded search shows up here
GOLDEN_BUILDS = [
    ("--type 2 --p 23 --variant A --format json",
     "7f29aa8d001ce435462af7cf4cff7cd38490b99cb7523fe92631ec4e28cbde48"),
    ("--type 2 --p 23 --variant A --format alist",
     "932318769f011a3a1adcb9696de5622afc4358a4b4aa7714a89e9306a0b0aa7d"),
    ("--type 2 --p 23 --variant A --format pauli",
     "1f54b410afff07614c569c2a9ae79f349d2d2ffeabacc78ac47b1dd6765f2c45"),
    ("--type 2 --p 29 --variant B --format json",
     "c8a55a2915b59fef2588182441ec8c34aec0b40332a60c79b2d3b6fa072aa0c1"),
    ("--type 2 --p 37 --variant B --format json",
     "5e1fbe18555229aa51f7388f5f1c68a68f11136fdf130d755b4f8fdbafd5026e"),
    ("--type 1 --p 29 --format json",
     "36d0259abc5bf8d4d56ef16429e0cf7d2aff3d7c4beaa12ad2eb99baa2bba2c4"),
    ("--type 1 --p 101 --format json",
     "1cabc802148224dc47da1d7325aae9d1ef43e7079ba5f23944d362a795369311"),
    ("--type 2 --p 7 --variant A --layout adj1-h2 --remove 7,11,12,14,15,21 "
     "--distance exact --format json",
     "e34d450c1bf80dac325e3bde8cca71655f5e995f72dc09bece100fecd59b153b"),
    ("--type 1 --p 37 --distance bound --budget 300000 --seed 0 --format json",
     "4a8f5274774437685d1fe491d928a0f0c9a04331c9b04cdb2682047f51868bd6"),
    ("--type 1 --p 101 --distance bound --budget 300000 --seed 0 --format json",
     "96f7242516c42063c59964462b912e711b6ce1245e42a890617a17058a6d35f6"),
    # d_min settled by the weight <= 2 pre-scan's witness
    ("--type 1 --p 23 --distance bound --budget 20000 --format json",
     "6f52fd760f503ea231cf873ed53316cb8b0fce3699b1342446af52964ae1a934"),
    # the pre-scan finds nothing; ISD, then the trivial witness
    ("--type 2 --p 23 --variant A --distance bound --budget 20000 --format json",
     "c53087eea2b2477df75f9b7bf3b3368947e162b2d3e98748e193805106776773"),
    # the other three layouts: which half is plain feeds rank_plain_half
    ("--type 2 --p 23 --variant A --layout adj2-h1 --format json",
     "6a6d042a6fe51c4a687b12b09a04dbde00e579f3af95470a20387dd65e16de08"),
    ("--type 2 --p 23 --variant A --layout h2-adj1 --format json",
     "d842935baf03d8f82193d718d3281c2f42591d1f80ccc893c9af9a255bc909cd"),
    ("--type 2 --p 23 --variant A --layout adj1-h2 --format json",
     "619a73e9ef35d3ea4c373cd67bd833beea659ab89dbd4038bcbdc062d780c5f6"),
    ("--type 1 --p 23 --variant nonresidue-pair --format json",
     "f11536d25bf2dec2503b5ab4d1be11b2741efbbb8c2dc2f8dcf59bc4ea4f35c2"),
    # an explicit row subset, checked for independence by the gate
    ("--type 1 --p 7 --rows 2,3,5,6 --format json",
     "47ef6e71cbd09e4f88665418aaee77a2807cfccda47b2c02da50b9eea3881219"),
    # the forced even-n plus form
    ("--type 1 --p 17 --force --format json",
     "207be3686cea759a69f252905e4f1ee9c877b64204b0365f3f237fc20032da27"),
]


@pytest.mark.parametrize("args,digest", GOLDEN_BUILDS, ids=[a for a, _ in GOLDEN_BUILDS])
def test_build_output_is_unchanged(tmp_path, capsys, args, digest):
    out_path = tmp_path / "code.out"
    rc, _, _ = run(capsys, "build", *args.split(), "--out", str(out_path))
    assert rc == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def test_build_alist_skips_standard_form(tmp_path, capsys, monkeypatch):
    def boom(code):
        raise AssertionError("alist output has no use for the standard form")

    monkeypatch.setattr("qrstab.records.standard_form", boom)
    monkeypatch.setattr("qrstab.analysis.standard_form", boom)
    args, digest = GOLDEN_BUILDS[1]
    assert "--format alist" in args
    test_build_output_is_unchanged(tmp_path, capsys, args, digest)


def test_build_errors_are_reported(capsys):
    rc, _, err = run(capsys, "build", "--type", "2", "--p", "13",
                     "--variant", "A")
    assert rc == 2 and "WrongForm" in err


def test_build_force_gated_variant(capsys):
    rc, _, err = run(capsys, "build", "--type", "1", "--p", "17")
    assert rc == 2 and "UnsupportedForm" in err
    rc, out, _ = run(capsys, "build", "--type", "1", "--p", "17", "--force")
    assert rc == 0
    assert json.loads(out)["n_qubits"] == 17


def test_build_rejects_mismatched_row_flags(capsys):
    rc, _, err = run(capsys, "build", "--type", "1", "--p", "7",
                     "--remove", "1,2")
    assert rc == 2 and "--type 2" in err
    rc, _, err = run(capsys, "build", "--type", "2", "--p", "7",
                     "--rows", "1,2")
    assert rc == 2 and "--type 1" in err


def test_tables_3_matches(capsys):
    rc, out, _ = run(capsys, "tables", "--which", "3")
    assert rc == 0
    assert "all checked cells match" in out


def test_tables_2_fast(capsys):
    rc, out, _ = run(capsys, "tables", "--which", "2", "--level", "fast",
                     "--budget", "300000")
    # exact cells match; the two sampled cells pass as labeled upper bounds
    assert rc == 0


def test_tables_4_reports_known_mismatches(capsys):
    rc, out, _ = run(capsys, "tables", "--which", "4")
    assert rc == 1
    assert "mismatching cell" in out
    # the reproducible rows are absent from the diff, the others are present
    assert "[[21,5,5]]" not in out.split("MISMATCH")[0]
    assert "[[21,5,4]]" in out


def test_bounds_check(capsys):
    rc, out, _ = run(capsys, "bounds", "--check", "5,1,3")
    assert rc == 0
    assert out.count("tight") == 2


def test_bounds_csv(tmp_path, capsys):
    path = tmp_path / "curves.csv"
    rc, out, _ = run(capsys, "bounds", "--resolution", "21", "--out", str(path))
    assert rc == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "bound_name,delta_q,rate"
    assert len(lines) == 1 + 4 * 21
