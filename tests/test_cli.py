import json
import pathlib

import pytest

from superelliptic.cli import run

GOLDEN = pathlib.Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "invariants_s6": ["invariants", "--delta", "3", "--param", "a", "x^6 + a*x^3 + 1"],
    "invariants_s9": [
        "invariants", "--delta", "3", "--param", "a", "--param", "b", "x^9 + a*x^6 + b*x^3 + 1",
    ],
    "invariants_s12": [
        "invariants", "--delta", "3", "--param", "a", "--param", "b", "--param", "c",
        "x^12 + a*x^9 + b*x^6 + c*x^3 + 1",
    ],
    "genus_s6": ["genus", "--n", "3", "--param", "a", "x^6 + a*x^3 + 1"],
    "invariants_bridge": ["invariants", "--delta", "3", "x^6 + 5*I*sqrt(2)*x^3 + 1"],
    "reconstruct_16_8_2": ["reconstruct", "--delta", "1", "--u", "16", "--u", "8", "--u", "2"],
    "discriminant_s6": ["discriminant", "--param", "a", "x^6 + a*x^3 + 1"],
    "merge_shared": ["merge", "--delta", "1", "x^3 - 1", "x^3 - 1"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_bytes(name):
    code, text = run(GOLDEN_CASES[name])
    stored = (GOLDEN / f"{name}.json").read_text()
    assert text + "\n" == stored
    payload = json.loads(text)
    assert payload["schema"] == 1
    assert (code == 0) == payload["ok"]


def test_repeat_runs_are_byte_identical():
    argv = GOLDEN_CASES["invariants_s12"]
    assert run(argv) == run(argv)


def test_key_result_values():
    _, text = run(GOLDEN_CASES["invariants_s9"])
    assert json.loads(text)["result"]["u"] == ["a^3 + b^3", "2*a*b", "2"]
    _, text = run(GOLDEN_CASES["invariants_bridge"])
    assert json.loads(text)["result"]["u"] == ["-100", "2"]
    _, text = run(GOLDEN_CASES["genus_s6"])
    assert json.loads(text)["result"]["genus"] == 4
    _, text = run(GOLDEN_CASES["reconstruct_16_8_2"])
    assert json.loads(text)["result"]["roundtrip"] is True


def test_exit_codes():
    code, text = run(["merge", "--delta", "1", "x^3 - 1", "x^3 - 1"])
    assert code == 3 and json.loads(text)["error"]["kind"] == "SharedBranchPointError"
    code, text = run(["deltas", "x^^2"])
    assert code == 4 and json.loads(text)["error"]["kind"] == "parse"
    assert "offset 2" in json.loads(text)["error"]["message"]
    code, text = run(["orbit", "--fixture", "nonsense(9)", "--seed", "1"])
    assert code == 2
    code, text = run(["reconstruct", "--delta", "1", "--u", "0", "--u", "1", "--u", "2"])
    assert code == 3 and "BlowUp" in json.loads(text)["error"]["kind"]
    code, text = run(["genus", "--n", "2", "x^2 - 2*x + 1"])
    assert code == 3  # squarefree violation is a mathematical precondition
    code, text = run(["invariants", "--delta", "2", "--char", "7", "--ext", "s3:t^2-3", "x^2+1"])
    assert code in (0, 2, 3)  # tower over F_7 is allowed; just must not crash


def test_genus_with_factored_input():
    code, text = run(
        ["genus", "--n", "4", "--factor", "x + 1:2", "--factor", "x - 1:1", "--factor", "x - 2:1"]
    )
    assert code == 0
    assert json.loads(text)["result"]["genus"] == 1


def test_deltas_and_locus_and_transport():
    code, text = run(["deltas", "--param", "a", "x^6 + a*x^3 + 1"])
    assert json.loads(text)["result"]["deltas"] == [1, 3]
    code, text = run(["locus", "--delta", "1", "--n", "3", "--param", "a", "x^3 + a*x^2 + a*x + 1"])
    body = json.loads(text)["result"]
    assert body["dihedral"] is True
    code, text = run(["transport", "--entry", "0", "1", "1", "0", "--param", "a", "x^2 + a*x + 1"])
    assert json.loads(text)["result"]["polynomial"] == "x^2 + a*x + 1"


def test_shifted_invariants_cli():
    code, text = run(
        ["invariants", "--delta", "1", "--shift", "2", "--convention", "r-1",
         "--param", "a", "x^4 + a*x^2 + 1"]
    )
    assert code == 0
    assert json.loads(text)["result"]["convention"] == "r-1"


def test_classify_cli_fallback():
    code, text = run(["classify", "--fixture", "a4_b", "--n", "3", "x^6 + 5*I*sqrt(2)*x^3 + 1"])
    assert code == 0
    body = json.loads(text)["result"]
    assert body["counts"]["B1"] == 1 and body["matched_by"] == "invariants"


def test_orbit_cli():
    code, text = run(["orbit", "--fixture", "dihedral(3)", "--seed", "1"])
    assert json.loads(text)["result"]["orbit_polynomial"] == "x^3 - 1"
    code, text = run(["orbit", "--fixture", "dihedral(3)", "--seed", "inf"])
    assert json.loads(text)["result"]["orbit_polynomial"] == "x"


def test_negative_rational_option_values():
    # "-49/6" after an option is its value, as in the "--u=-49/6" spelling
    spaced = run(["reconstruct", "--delta", "1", "--u", "-49/6", "--u", "2"])
    assert spaced == run(["reconstruct", "--delta", "1", "--u=-49/6", "--u", "2"])
    assert spaced[0] == 0 and json.loads(spaced[1])["result"]["modulus"] == "t^2 = -49/12"
    code, text = run(["orbit", "--fixture", "cyclic(3)", "--seed", "-3/2"])
    assert code == 0 and json.loads(text)["result"]["orbit_polynomial"] == "x^3 + 27/8"
    # misspelt options and missing required ones are still usage errors
    assert run(["catalog", "--bogus"])[0] == 2
    assert run(["genus", "x^2 + 1"])[0] == 2


def test_catalog_and_custom_fixture_loading(tmp_path):
    out = tmp_path / "cat.json"
    code, _ = run(["catalog", "--out", str(out)])
    assert code == 0 and out.exists()
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1 and "s4" in payload["fixtures"]
    code, text = run(
        ["classify", "--fixture", "dihedral(3)", "--n", "3", "--catalog", str(out),
         "--param", "a", "x^6 + a*x^3 + 1"]
    )
    assert code == 0
    assert json.loads(text)["result"]["full_group"] == "Z/3Z x| D_3"


def test_invariants_n_validation():
    code, text = run(
        ["invariants", "--delta", "3", "--n", "3", "--param", "a", "--param", "b",
         "x^9 + a*x^6 + b*x^3 + 1"]
    )
    assert code == 0 and json.loads(text)["result"]["u"][0] == "a^3 + b^3"
    code, _ = run(
        ["invariants", "--delta", "3", "--n", "3", "--char", "3", "--param", "a", "x^6 + a*x^3 + 1"]
    )
    assert code == 3


def test_env_var_catalog(tmp_path, monkeypatch):
    out = tmp_path / "cat.json"
    run(["catalog", "--out", str(out)])
    monkeypatch.setenv("SUPERELLIPTIC_CATALOG", str(out))
    code, text = run(["orbit", "--fixture", "dihedral(3)", "--seed", "1"])
    assert code == 0
    assert json.loads(text)["result"]["orbit_polynomial"] == "x^3 - 1"


def test_batch_preserves_order(tmp_path, capsys):
    reqs = tmp_path / "reqs.jsonl"
    reqs.write_text(
        "\n".join(
            [
                json.dumps({"command": "resultant", "args": ["x^2 - 1", "x^2 - 4"]}),
                json.dumps({"command": "deltas", "args": ["x^6 - 1"]}),
                json.dumps(
                    {"command": "invariants", "args": ["--delta", "3", "--param", "a", "x^6 + a*x^3 + 1"]}
                ),
            ]
        )
        + "\n"
    )
    code, _ = run(["batch", str(reqs), "--jobs", "3"])
    assert code == 0
    lines = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
    assert [ln["command"] for ln in lines] == ["resultant", "deltas", "invariants"]
    assert lines[0]["result"]["resultant"] == "9"
    assert lines[1]["result"]["deltas"] == [1, 2, 3, 6]
