"""Exit statuses, payload round-trips, and report determinism of the CLI."""

import json
import random

import pytest

from superweil.algebra import Signature
from superweil.cli import main
from superweil.flag import BigCellPoint, poincare_act
from superweil.matrix import SuperMatrix
from superweil import sampling
from superweil import serialize as S

SIG = Signature(0, 4)


def write(path, obj):
    path.write_text(S.dumps(obj))
    return str(path)


def test_verify_default_small(capsys):
    assert main(["verify", "--trials", "2", "--odd", "4"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" not in out
    assert "jacobian/rank_sl" in out


def test_verify_zero_trials(capsys):
    assert main(["verify", "--trials", "0", "--odd", "4"]) == 0
    out = capsys.readouterr().out
    assert "passed=0 failed=0" in out


def test_verify_suite_selection(capsys):
    assert main(["verify", "--trials", "1", "--odd", "4",
                 "--suite", "algebra"]) == 0
    out = capsys.readouterr().out
    assert "algebra/" in out and "matrix/" not in out


def test_verify_config_errors(tmp_path, capsys):
    assert main(["verify", "--trials", "-3"]) == 2
    assert main(["verify", "--suite", "nope"]) == 2
    assert main(["verify", "--odd", "40"]) == 2
    assert main(["verify", "--trials", "2", "--only-trial", "7"]) == 2
    # a report into a missing directory
    assert main(["verify", "--trials", "1", "--odd", "4", "--suite", "algebra",
                 "--report", str(tmp_path / "gone" / "r.json")]) == 2
    out = capsys.readouterr()
    assert "config error" in out.err
    assert out.out == ""  # the path is checked before any suite runs


def test_verify_report_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--trials", "2", "--odd", "4", "--seed", "5",
                 "--report", str(p1)]) == 0
    assert main(["verify", "--trials", "2", "--odd", "4", "--seed", "5",
                 "--report", str(p2)]) == 0
    r1 = json.loads(p1.read_text())
    r2 = json.loads(p2.read_text())
    r1.pop("wall_time")
    r2.pop("wall_time")
    assert r1 == r2
    capsys.readouterr()


def test_verify_only_trial(tmp_path, capsys):
    p = tmp_path / "r.json"
    assert main(["verify", "--trials", "5", "--odd", "4", "--seed", "3",
                 "--suite", "flag", "--only-trial", "2",
                 "--report", str(p)]) == 0
    rep = json.loads(p.read_text())
    for res in rep["results"]:
        assert res["passed"] + res["failed"] + res["resampled"] == 1
    capsys.readouterr()


def test_compute_pi_identity_is_origin(tmp_path, capsys):
    I5 = SuperMatrix.identity(SIG, (4, 1))
    path = write(tmp_path / "g.json", S.matrix_to_obj(I5))
    assert main(["compute", "pi", "--in", path]) == 0
    out = capsys.readouterr().out.strip()
    pt = S.point_from_obj(S.loads(out))
    assert pt == BigCellPoint.origin(SIG)


def test_compute_ber_identity_is_one(tmp_path, capsys):
    I = SuperMatrix.identity(SIG, (2, 2))
    path = write(tmp_path / "g.json", S.matrix_to_obj(I))
    assert main(["compute", "ber", "--in", path]) == 0
    out = capsys.readouterr().out.strip()
    assert S.element_from_obj(S.loads(out)) == SIG.one()


def test_compute_ber_matches_library(tmp_path, capsys):
    from superweil.matrix import berezinian

    g = sampling.random_group_matrix(SIG, (2, 2), random.Random(8))
    path = write(tmp_path / "g.json", S.matrix_to_obj(g))
    assert main(["compute", "ber", "--in", path]) == 0
    out = capsys.readouterr().out.strip()
    assert S.element_from_obj(S.loads(out)) == berezinian(g)


def test_compute_act(tmp_path, capsys):
    rng = random.Random(9)
    P = sampling.random_poincare(SIG, rng)
    pt = sampling.random_point(SIG, rng)
    path = write(tmp_path / "act.json",
                 {"poincare": S.poincare_to_obj(P), "point": S.point_to_obj(pt)})
    outfile = tmp_path / "out.json"
    assert main(["compute", "act", "--in", path, "--out", str(outfile)]) == 0
    capsys.readouterr()
    got = S.point_from_obj(S.loads(outfile.read_text()))
    assert got == poincare_act(P, pt)


def test_compute_jacobian(capsys):
    assert main(["compute", "jacobian", "--basis", "sl"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["basis_label"] == "sl"
    assert obj["even_rank"] == 4 and obj["odd_rank"] == 4
    assert main(["compute", "jacobian", "--basis", "stabilizer"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["even_rank"] == 0 and obj["odd_rank"] == 0


def test_compute_errors(tmp_path, capsys):
    assert main(["compute", "ber"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["compute", "ber", "--in", str(bad)]) == 3
    # structurally fine JSON that is not a canonical matrix payload
    notm = tmp_path / "notm.json"
    notm.write_text('{"a": 1}')
    assert main(["compute", "ber", "--in", str(notm)]) == 3
    # domain failure: singular matrix
    z = SuperMatrix.zeros(SIG, (2, 2), (2, 2))
    zp = write(tmp_path / "z.json", S.matrix_to_obj(z))
    assert main(["compute", "ber", "--in", zp]) == 3
    # a missing input file or output directory is a config problem
    assert main(["compute", "ber", "--in", str(tmp_path / "gone.json")]) == 2
    ip = write(tmp_path / "i.json", S.matrix_to_obj(SuperMatrix.identity(SIG, (2, 2))))
    assert main(["compute", "ber", "--in", ip,
                 "--out", str(tmp_path / "gone" / "x.json")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    b"\xff\xfe not utf-8",
    # the identity with one coefficient beyond the int string limit
    S.dumps(S.matrix_to_obj(SuperMatrix.identity(SIG, (2, 2))))
    .replace('"c":"1"', '"c":"' + "1" * 5000 + '"', 1).encode(),
    b"[" * 100000 + b"]" * 100000,
    # the identity behind a bogus first "rows" key
    S.dumps(S.matrix_to_obj(SuperMatrix.identity(SIG, (2, 2))))
    .replace('{"rows":', '{"rows":{"even":9,"odd":9},"rows":', 1).encode(),
], ids=["not_utf8", "long_coefficient", "deep_nesting", "duplicate_keys"])
def test_compute_input_failures_are_parse_errors(tmp_path, capsys, payload):
    path = tmp_path / "in.json"
    path.write_bytes(payload)
    assert main(["compute", "ber", "--in", str(path)]) == 3
    assert "parse error" in capsys.readouterr().err


def test_pi_outside_big_cell_is_domain_error(tmp_path, capsys):
    rows = [[SIG.zero()] * 5 for _ in range(5)]
    rows[0][2] = rows[1][3] = rows[2][0] = rows[3][1] = rows[4][4] = SIG.one()
    g = SuperMatrix(SIG, (4, 1), (4, 1), rows)
    path = write(tmp_path / "g.json", S.matrix_to_obj(g))
    assert main(["compute", "pi", "--in", path]) == 3
    err = capsys.readouterr().err
    assert "domain error" in err


def test_argparse_statuses(capsys):
    assert main(["--help"]) == 0
    assert main(["compute", "nope"]) == 2
    assert main(["bogus"]) == 2
    assert main(["bench"]) == 2
    capsys.readouterr()

