import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spinweil.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv, "--json")
    return rc, json.loads(out)


B_JSON = ('[["0","1","0","0"],["-1","0","0","0"],'
          '["0","0","0","2"],["0","0","-2","0"]]')


def test_spinor_forward(capsys):
    rc, doc = run_json(capsys, "spinor", "--B", B_JSON)
    assert rc == 0
    assert doc["z"] == ["1", "1", "0", "0", "2", "-2", "0", "0"]
    assert doc["isotropic"] is True


def test_spinor_invert(capsys):
    rc, doc = run_json(capsys, "spinor", "--invert",
                       '["1","1","0","0","2","-2","0","0"]')
    assert rc == 0
    assert doc["B"][0][1] == "1"
    assert doc["B"][2][3] == "2"
    assert doc["roundtrip_z"] == ["1", "1", "0", "0", "2", "-2", "0", "0"]


def test_spinor_roundtrip_through_input(capsys, tmp_path):
    rc, doc = run_json(capsys, "spinor", "--B", B_JSON)
    path = tmp_path / "spinor.json"
    path.write_text(json.dumps(doc))
    rc2, doc2 = run_json(capsys, "spinor", "--input", str(path))
    assert rc2 == 0
    assert doc2 == doc


def test_spinor_invert_requires_isotropic(capsys):
    rc = main(["spinor", "--invert", '["1","0","0","0","1","0","0","0"]'])
    assert rc == 1


def test_spinor_needs_an_input(capsys):
    rc = main(["spinor"])
    assert rc == 2


def test_malformed_json_is_usage_error(capsys):
    rc = main(["spinor", "--B", "[[not json"])
    assert rc == 2


def test_malformed_matrix_entry_is_usage_error(capsys):
    rc = main(["spinor", "--B", '[[0,"x"]]'])
    assert rc == 2
    assert "malformed JSON input" in capsys.readouterr().err


def test_malformed_vector_object_is_usage_error(capsys):
    rc = main(["cayley", "--s", '{"a":1}'])
    assert rc == 2
    assert "malformed JSON input" in capsys.readouterr().err


def test_tower_scalar_with_m_minus_one_is_usage_error(capsys):
    tower = '{"c": ["0", "1", "1", "0"], "m": -1}'
    rc = main(["cayley", "--s", f'[{tower}, 0, 0, 0, 0, 0, 0, 0]'])
    assert rc == 2
    err = capsys.readouterr().err
    assert "malformed JSON input" in err and "not -1, 0 or 1" in err


def test_unknown_verb_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_cayley_n_two(capsys):
    rc, doc = run_json(capsys, "cayley", "--n", "2")
    assert rc == 0
    assert doc["closed_form_constant"] == "1/4"
    # the closed form for n = 2 is -2 alpha^2 + 16 beta + 4 gamma
    closed = {tuple(t["indices"]): t["coeff"] for t in doc["closed_form"]}
    assert closed[(1, 2, 3, 4)] == "16"
    assert closed[(5, 6, 7, 8)] == "4"
    assert closed[(1, 2, 5, 6)] == "4"  # -2 * (-2) on the sorted blade


def test_cayley_roundtrip_through_input(capsys, tmp_path):
    rc, doc = run_json(capsys, "cayley", "--n", "3")
    path = tmp_path / "cayley.json"
    path.write_text(json.dumps(doc))
    rc2, doc2 = run_json(capsys, "cayley", "--input", str(path))
    assert rc2 == 0 and doc2 == doc


def test_weil_family_default(capsys):
    rc, doc = run_json(capsys, "weil-family", "--seed", "5")
    assert rc == 0
    assert doc["report"]["discriminant_trivial"] is True
    assert doc["d"] == "4"
    assert doc["h2_split"]["profile"] == [16, 6, 6]


def test_weil_family_roundtrip(capsys, tmp_path):
    rc, doc = run_json(capsys, "weil-family", "--seed", "5")
    path = tmp_path / "weil.json"
    path.write_text(json.dumps(doc))
    rc2, doc2 = run_json(capsys, "weil-family", "--input", str(path))
    assert rc2 == 0 and doc2 == doc


def test_weil_field_scan(capsys):
    rc, doc = run_json(capsys, "weil-family", "--field-scan", "--seed", "5")
    assert rc == 0
    parts = [row["squarefree_part"] for row in doc["fields"]]
    assert parts == [1, 2, 3, 5]
    assert all(row["discriminant_trivial"] for row in doc["fields"])


def test_ks_verb(capsys):
    rc, doc = run_json(capsys, "ks", "--seed", "5")
    assert rc == 0
    assert doc["report"]["even_algebra_dim"] == 32
    assert doc["report"]["center_center_dim"] == 2


def test_ks_with_no_equivariant_map_fails(capsys, monkeypatch):
    # an empty Hom must read false on both certificate fields and exit 1
    from spinweil import kuga
    monkeypatch.setattr(kuga, "ks_hom", lambda datum, h, s: [])
    rc, doc = run_json(capsys, "ks")
    assert rc == 1
    assert doc["report"]["isogeny_hom_dim"] == 0
    assert doc["report"]["isogeny_joint_rank"] == 0
    assert doc["report"]["isogeny_even_algebra_is_V4"] is False
    assert doc["report"]["isogeny_intertwines_J"] is False


def test_invariants_verb(capsys):
    rc, doc = run_json(capsys, "invariants")
    assert rc == 0
    assert doc["stabilizer_of_spinor_dim"] == 21
    assert doc["stabilizer_of_pair_dim"] == 15


def test_verify_single_suite(capsys):
    rc, doc = run_json(capsys, "verify", "--suite", "mukai")
    assert rc == 0
    assert all(r["passed"] for r in doc["results"])


def test_verify_json_times_every_check(capsys):
    rc, doc = run_json(capsys, "verify", "--suite", "mukai")
    assert rc == 0
    for r in doc["results"]:
        assert isinstance(r["elapsed_s"], (int, float))
        assert r["elapsed_s"] >= 0
        assert isinstance(r["cpu_s"], (int, float))
        assert r["cpu_s"] >= 0


def test_verify_text_output_has_no_timing(capsys):
    rc, out = run(capsys, "verify", "--suite", "mukai")
    assert rc == 0
    assert "elapsed" not in out
    assert out.splitlines()[-1] == "1/1 checks passed"


def test_python_m_spinweil_runs_the_cli():
    # fresh interpreters, so the verb-local imports of verify, weil and
    # kuga run cold
    root = Path(__file__).resolve().parents[1]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(root / "src") +
               (os.pathsep + path if path else ""))

    def spinweil(*argv):
        proc = subprocess.run([sys.executable, "-m", "spinweil", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert "1/1 checks passed" in spinweil("verify", "--suite", "mukai")
    for argv, golden in [(["weil-family", "--field-scan"],
                          "weil_family_field_scan"), (["ks"], "ks")]:
        assert spinweil(*argv, "--json") == \
            (root / "tests" / "golden" / f"{golden}.json").read_text(
                encoding="utf-8")


def test_verify_unknown_suite(capsys):
    rc = main(["verify", "--suite", "nonsense"])
    assert rc == 2


@pytest.mark.parametrize("verb", ["spinor", "cayley", "weil-family", "ks"])
@pytest.mark.parametrize("text", ["[1,2]", '{"inputs": [1]}', '"z"'])
def test_input_document_not_an_object_is_usage_error(capsys, tmp_path,
                                                      verb, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    rc = main([verb, "--input", str(path)])
    assert rc == 2
    assert "must be JSON objects" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [{"n": "x"}, {"n": 1.5}, {"n": True}])
def test_cayley_input_n_not_an_integer_is_usage_error(capsys, tmp_path, doc):
    path = tmp_path / "cayley.json"
    path.write_text(json.dumps(doc))
    rc = main(["cayley", "--input", str(path)])
    assert rc == 2
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("scan", ["yes", 1, None, [True]])
def test_weil_input_field_scan_not_a_boolean_is_usage_error(capsys, tmp_path,
                                                            scan):
    path = tmp_path / "weil.json"
    path.write_text(json.dumps({"inputs": {
        "h": [0, 1, 0, 0, 0, 1, 0, 0], "s": [1, 0, 0, 0, 1, 0, 0, 0],
        "seed": 5, "field_scan": scan}}))
    rc = main(["weil-family", "--input", str(path)])
    assert rc == 2
    assert "'field_scan' must be a boolean" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cayley", "--s", '["1","2"]'],
    ["spinor", "--invert", '["1","1","0","0","2","-2","0"]'],
    ["weil-family", "--h", '[0,1,0,0,0,1,0,0,0]'],
    ["ks", "--s", '[]'],
])
def test_wrong_length_vector_is_usage_error(capsys, argv):
    rc = main(argv)
    assert rc == 2
    assert "needs eight coordinates" in capsys.readouterr().err


@pytest.mark.parametrize("verb, doc", [
    ("cayley", {"inputs": {"s": ["1", "2"]}}),
    ("spinor", {"inputs": {"z": ["1"] * 9}}),
    ("ks", {"inputs": {"h": [0] * 8, "s": [1, 0], "seed": 5}}),
])
def test_wrong_length_vector_in_input_is_usage_error(capsys, tmp_path,
                                                     verb, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    rc = main([verb, "--input", str(path)])
    assert rc == 2
    assert "needs eight coordinates" in capsys.readouterr().err


NOT_4X4 = ["[[0]]", "[[0,1],[2]]", "[]",
           "[[0,1,0,0],[-1,0,0,0],[0,0,0,1]]",
           "[[0,1,0,0],[-1,0,0,0],[0,0,0,1],[0,0,-1]]",
           "[[0,0,0,0,0],[0,0,0,0,0],[0,0,0,0,0],[0,0,0,0,0],[0,0,0,0,0]]"]


@pytest.mark.parametrize("b", NOT_4X4)
def test_spinor_b_not_4x4_is_usage_error(capsys, b):
    rc = main(["spinor", "--B", b])
    assert rc == 2
    assert "four rows of four" in capsys.readouterr().err


@pytest.mark.parametrize("b", NOT_4X4)
def test_spinor_b_not_4x4_in_input_is_usage_error(capsys, tmp_path, b):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"inputs": {"B": json.loads(b)}}))
    rc = main(["spinor", "--input", str(path)])
    assert rc == 2
    assert "four rows of four" in capsys.readouterr().err


def test_spinor_b_not_alternating_is_verification_failure(capsys):
    rc = main(["spinor", "--B", "[[0,1,0,0],[1,0,0,0],[0,0,0,1],[0,0,-1,0]]"])
    assert rc == 1
    assert "not alternating" in capsys.readouterr().err
