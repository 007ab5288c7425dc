import ast
import fcntl
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from spinweil import cli, reps
from spinweil.cli import main
from spinweil.jsonio import to_json
from spinweil.multivector import Multivector
from spinweil.scalars import QuadExt

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


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


def test_vector_as_a_coords_object_is_usage_error(capsys):
    rc = main(["cayley", "--s", '{"coords": ["1", "0", "0", "0", "1", "0", '
                                '"0", "0"]}'])
    assert rc == 2
    err = capsys.readouterr().err
    assert "malformed JSON input 's'" in err and "list of scalars" in err


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
    monkeypatch.setattr(kuga, "ks_hom", lambda datum, weil_datum: [])
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


def test_invariants_computes_the_stabilizer_of_its_spinor_once(
        capsys, monkeypatch):
    calls = []
    real = reps.stabilizer_algebra

    def counting(fixed):
        calls.append(fixed)
        return real(fixed)

    monkeypatch.setattr(reps, "stabilizer_algebra", counting)
    monkeypatch.setattr(cli, "stabilizer_algebra", counting)
    assert main(["invariants"]) == 0
    # the stabilizer of 1 - 2 e_* and that of the standard pair
    assert len(calls) == 2


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


def _fresh_env():
    """The environment of a fresh `python -m spinweil` on this checkout."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(ROOT / "src") +
                (os.pathsep + path if path else ""))


def test_python_m_spinweil_runs_the_cli():
    # fresh interpreters, so the verb-local imports of verify, weil and
    # kuga run cold
    def spinweil(*argv):
        proc = subprocess.run([sys.executable, "-m", "spinweil", *argv],
                              env=_fresh_env(), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert "1/1 checks passed" in spinweil("verify", "--suite", "mukai")
    for argv, golden in [(["weil-family", "--field-scan"],
                          "weil_family_field_scan"), (["ks"], "ks")]:
        assert spinweil(*argv, "--json") == \
            (GOLDEN / f"{golden}.json").read_text(encoding="utf-8")


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_one_process_answers_as_fresh_processes_do(capsys, monkeypatch,
                                                  tmp_path):
    # the parser is shared by every main call of a process, so a usage
    # error, a good call and a bad input in a row must each read as in a
    # fresh process (same width, so argparse wraps its usage alike)
    monkeypatch.setenv("COLUMNS", "80")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    calls = [["cayley", "--n", "x"],
             ["cayley", "--s", '["1","0","0","0","1","0","0","0"]', "--json"],
             ["cayley", "--input", str(bad)],
             ["cayley", "--n", "x"]]
    codes = []
    for argv in calls:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "spinweil", *argv],
                              env=dict(_fresh_env(), COLUMNS="80"),
                              capture_output=True, text=True, timeout=120)
        assert (rc, out, err) == (proc.returncode, proc.stdout, proc.stderr)
        codes.append(rc)
    assert codes == [2, 0, 2, 2]


def test_reader_that_closes_after_one_line_gets_no_traceback():
    # a one-page pipe cannot hold the 5 KB weil-family document, so the
    # verb is still writing when the reader closes after its first line
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen([sys.executable, "-m", "spinweil", "weil-family",
                             "--json"], env=_fresh_env(), stdout=write_end,
                            stderr=subprocess.PIPE)
    os.close(write_end)
    with os.fdopen(read_end, "rb", buffering=0) as reader:
        line = b""
        while not line.endswith(b"\n"):
            line += reader.read(1)
    _, err = proc.communicate(timeout=120)
    assert line == b"{\n"
    assert err == b""
    assert proc.returncode == 0


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


def write_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("verb", ["weil-family", "ks"])
@pytest.mark.parametrize("inputs", [{"seed": 5},
                                    {"h": [0, 1, 0, 0, 0, 1, 0, 0],
                                     "seed": 5}])
def test_input_without_h_or_s_uses_the_standard_pair(capsys, tmp_path, verb,
                                                     inputs):
    path = write_doc(tmp_path, {"inputs": inputs})
    rc, doc = run_json(capsys, verb, "--input", path)
    assert rc == 0
    assert doc == run_json(capsys, verb, "--seed", "5")[1]


def test_cayley_input_without_n_or_s_is_usage_error(capsys, tmp_path):
    # the flags are ignored beside --input, so --n does not fill the gap
    rc = main(["cayley", "--n", "2", "--input", write_doc(tmp_path, {})])
    assert rc == 2


Z_ISO = ["1", "1", "0", "0", "2", "-2", "0", "0"]


@pytest.mark.parametrize("verb, inputs, key", [
    ("cayley", {"n": None, "s": Z_ISO}, "n"),
    ("spinor", {"B": None, "z": Z_ISO}, "B"),
    ("spinor", {"z": None}, "z"),
    ("weil-family", {"seed": None}, "seed"),
    ("ks", {"h": None}, "h"),
])
def test_null_input_is_usage_error_naming_its_key(capsys, tmp_path, verb,
                                                  inputs, key):
    rc = main([verb, "--input", write_doc(tmp_path, {"inputs": inputs})])
    assert rc == 2
    assert f"'{key}'" in capsys.readouterr().err



def test_input_file_that_is_not_utf8_is_usage_error(capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"n": 3, "x": "\xff"}')
    rc = main(["cayley", "--input", str(path)])
    assert rc == 2
    assert "malformed JSON input" in capsys.readouterr().err

@pytest.mark.parametrize("argv, key", [
    (["spinor", "--B", '[[false,1,0,0],[-1,0,0,0],[0,0,0,2],[0,0,-2,0]]'],
     "B"),
    (["spinor", "--invert", '[1,true,0,0,2,-2,0,0]'], "z"),
    (["weil-family", "--h", '[0,true,0,0,0,1,0,0]'], "h"),
    (["cayley", "--s", '[true,false,0,0,0,0,0,0]'], "s"),
])
def test_boolean_scalar_is_usage_error_naming_its_key(capsys, argv, key):
    rc = main(argv)
    assert rc == 2
    assert f"'{key}'" in capsys.readouterr().err


ZERO_DENOMINATOR = [  # verb, key and a value with a "1/0" entry
    ("cayley", "s", ["1/0"] + ["0"] * 7),
    ("spinor", "B", [["0", "1/0", "0", "0"], ["-1", "0", "0", "0"],
                     ["0", "0", "0", "2"], ["0", "0", "-2", "0"]]),
    ("weil-family", "h", ["0", "1", "0", "0", "0", "1/0", "0", "0"]),
]


@pytest.mark.parametrize("through", ["flag", "input"])
@pytest.mark.parametrize("verb, key, value", ZERO_DENOMINATOR)
def test_zero_denominator_is_usage_error_naming_its_key(
        capsys, tmp_path, through, verb, key, value):
    rc = main([verb, f"--{key}", json.dumps(value)] if through == "flag"
              else [verb, "--input", write_doc(tmp_path, {key: value})])
    assert rc == 2
    assert f"'{key}'" in capsys.readouterr().err


def test_null_flag_is_usage_error_naming_its_key(capsys):
    rc = main(["spinor", "--invert", "null"])
    assert rc == 2
    assert "'z'" in capsys.readouterr().err


#: flags that the golden --input documents must override
IGNORED_FLAGS = {
    "spinor": ["--invert", '["1"]'],
    "cayley_n3": ["--n", "2"],
    "weil_family": ["--field-scan", "--h", "[0,2,0,0,0,1,0,0]"],
    "weil_family_field_scan": ["--s", "[1,0,0,0,2,0,0,0]"],
    "ks": ["--h", "[0,2,0,0,0,1,0,0]"],
    "invariants": [],
}


@pytest.mark.parametrize("name", sorted(IGNORED_FLAGS))
def test_flags_beside_input_are_ignored(capsys, name):
    path = GOLDEN / f"{name}.json"
    text = path.read_text(encoding="utf-8")
    rc = main([json.loads(text)["verb"], "--input", str(path), "--seed", "7",
               *IGNORED_FLAGS[name], "--json"])
    assert rc == 0
    assert capsys.readouterr().out == text


def test_field_scan_with_a_nontrivial_discriminant_fails(capsys, monkeypatch):
    from spinweil import weil
    make = weil.make_weil_datum
    monkeypatch.setattr(weil, "make_weil_datum", lambda *a, **k:
                        make(*a, **k)._replace(disc_trivial=False))
    rc, doc = run_json(capsys, "weil-family", "--field-scan")
    assert rc == 1
    assert [row["discriminant_trivial"] for row in doc["fields"]] == [False] * 4


def test_weil_family_with_unmatched_weights_fails(capsys, monkeypatch):
    from spinweil import weil
    split = weil.h2_split
    monkeypatch.setattr(weil, "h2_split", lambda datum:
                        dict(split(datum), weights_match=False))
    rc, doc = run_json(capsys, "weil-family")
    assert rc == 1
    assert doc["h2_split"]["weights_match"] is False


def test_to_json_encodes_every_value_once():
    mv = Multivector(8, {0b1111: Fraction(1, 2)})
    doc = {"n": 3, "ok": False, "name": "x", "r": Fraction(-3, 4),
           "one": Fraction(1), "pair": (Fraction(2), 5),
           "q": QuadExt(1, Fraction(1, 2), -3), "mv": mv, "rows": [[mv]]}
    assert to_json(doc) == {
        "n": 3, "ok": False, "name": "x", "r": "-3/4", "one": "1",
        "pair": ["2", 5], "q": {"a": "1", "b": "1/2", "m": -3},
        "mv": [{"indices": [1, 2, 3, 4], "coeff": "1/2"}],
        "rows": [[[{"indices": [1, 2, 3, 4], "coeff": "1/2"}]]]}
    assert json.loads(json.dumps(to_json(doc))) == to_json(doc)


def test_cli_encodes_only_through_to_json():
    tree = ast.parse((Path(__file__).resolve().parents[1] / "src" /
                      "spinweil" / "cli.py").read_text(encoding="utf-8"))
    names = {node.id if isinstance(node, ast.Name) else
             node.attr if isinstance(node, ast.Attribute) else node.name
             for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
    assert "to_json" in names
    assert sorted(n for n in names if n.startswith("encode_")) == []
