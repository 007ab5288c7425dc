"""The --json output of every computation verb at the default seed is a
contract: it must match the files in tests/golden/ byte for byte, both from
the command line and with the golden file itself as the --input document."""

from pathlib import Path

import pytest

from spinweil.cli import main

GOLDEN = Path(__file__).parent / "golden"

B_JSON = ('[["0","1","0","0"],["-1","0","0","0"],'
          '["0","0","0","2"],["0","0","-2","0"]]')

#: STANDARD_S = (1, 0, 0, 0, 1, 0, 0, 0), non-isotropic: route A reads 2 of
#: its 8 coordinates, and route B runs
STANDARD_S_JSON = '["1","0","0","0","1","0","0","0"]'
#: spinor_map of [[0,1,2,3],[-1,0,-1,2],[-2,1,0,1],[-3,-2,-1,0]], a B with
#: all six entries nonzero: isotropic, with every coordinate nonzero
DENSE_ISO_JSON = '["1","1","2","3","-6","-1","2","1"]'

CASES = {
    "spinor": ["spinor", "--B", B_JSON],
    "cayley_n3": ["cayley", "--n", "3"],
    "cayley_standard_s": ["cayley", "--s", STANDARD_S_JSON],
    "cayley_dense_iso": ["cayley", "--s", DENSE_ISO_JSON],
    "weil_family": ["weil-family"],
    "weil_family_field_scan": ["weil-family", "--field-scan"],
    "ks": ["ks"],
    "invariants": ["invariants"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_matches_golden(capsys, name):
    rc = main(CASES[name] + ["--json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_document_round_trips_through_input(capsys, name):
    path = GOLDEN / f"{name}.json"
    rc = main([CASES[name][0], "--input", str(path), "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == path.read_text(encoding="utf-8")
