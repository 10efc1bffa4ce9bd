import json
import os
import pathlib
import subprocess
import sys

import pytest

from superelliptic.cli import run

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _named_rows(rows: dict) -> list:
    """The rows of a parametrization, each with an id of its own: its name,
    then its values after argv, as pytest joins them.  A row added anywhere
    renames no other.  The names are those the rows were first recorded
    under, when pytest numbered the argv of each row."""
    return [pytest.param(*row, id="-".join([name, *map(str, row[1:])])) for name, row in rows.items()]

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


@pytest.mark.parametrize(
    "flag, value, poly, name",
    [("--param", "a", "x^2+a*x+1", "a"), ("--ext", "s3:t^2-3", "x^2+s3*x+1", "s3")],
)
def test_no_state_carries_over_between_runs(flag, value, poly, name):
    # the parser is built once per process; a flag given to one run must
    # not reach the next, which answers exactly as a fresh process does
    argv = ["transport", "--entry", "0", "1", "1", "0", poly]
    assert run([*argv[:-1], flag, value, poly])[0] == 0
    code, text = run(argv)
    assert code == 4 and f"undeclared identifier '{name}'" in json.loads(text)["error"]["message"]
    env = dict(os.environ, PYTHONPATH=str(GOLDEN.parent.parent / "src"))
    fresh = subprocess.run([sys.executable, "-m", "superelliptic.cli", *argv],
                           capture_output=True, text=True, env=env, timeout=60)
    assert (code, text + "\n") == (fresh.returncode, fresh.stdout)


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


@pytest.mark.parametrize(
    "argv, code, kind, message",
    _named_rows({
        "argv0": (["genus", "--n", "2", "x^3 + sqrt(x)"], 4, "parse", "sqrt() takes a single integer literal"),
        "argv1": (["genus", "--n", "2", "(x^3 + 1"], 4, "parse", "expected ')'"),
        "argv2": (["genus", "--n", "2", "--ext", "t:t^2+1", "--ext", "t:t^2+2", "x^3+t"], 2, "ValueError",
                  "duplicate extension generator 't'"),
        "argv3": (["genus", "--n", "2", "--ext", "tt^2+1", "x^3+1"], 2, "ValueError", "--ext needs NAME:MINPOLY"),
        "argv4": (["genus", "--n", "1", "x^3+1"], 3, "CoverError", "cover order n must be at least 2"),
        "argv5": (["genus", "--n", "2", "5"], 3, "CoverError", "branch factors must be nonconstant"),
        "argv6": (["genus", "--n", "2", "--max-degree", "-1", "x^2+1"], 2, "ValueError",
                  "degree cap must be positive"),
        "argv7": (["genus", "--n", "2", "--max-degree", "0", "x^2+1"], 2, "ValueError",
                  "degree cap must be positive"),
        "argv8": (["classify", "--fixture", "cyclic(3)", "--n", "-3", "x^3-5"], 3, "CoverError",
                  "cover order n must be at least 2"),
        "argv9": (["classify", "--fixture", "s4", "--n", "0", "(x^8+14*x^4+1)^3 - 7*(x^5-x)^4"], 3, "CoverError",
                  "cover order n must be at least 2"),
        "argv10": (["invariants", "--delta", "1", "--n", "-2", "x^3+x+1"], 3, "CoverError",
                   "cover order n must be at least 2"),
        "argv11": (["invariants", "--delta", "1", "--n", "0", "x^3+x+1"], 3, "CoverError",
                   "cover order n must be at least 2"),
        "argv12": (["locus", "--delta", "1", "--n", "-2", "x^3+x+1"], 3, "CoverError",
                   "cover order n must be at least 2"),
        "argv13": (["locus", "--delta", "1", "--n", "1", "x^3+x+1"], 3, "CoverError",
                   "cover order n must be at least 2"),
        "argv14": (["classify", "--fixture", "dihedral(4)", "--n", "6", "x^8 + 3*x^4 + 1"], 3, "GroupError",
                   "extra automorphism order 4 must divide n = 6"),
        # the orbits B0 (x^3 + 3x) and B1 (x^2 - 1) of dihedral_b(3), whose
        # extra automorphism has order 2: an odd n fails the divisibility test
        "argv15": (["classify", "--fixture", "dihedral_b(3)", "--n", "3", "(x^3 + 3*x)*(x^2 - 1)"], 3,
                   "GroupError", "extra automorphism order 2 must divide n = 3"),
        "argv16": (["invariants", "--delta", "4", "--n", "6", "x^8 + 3*x^4 + 1"], 3, "CoverError",
                   "delta = 4 must divide n = 6"),
        "argv17": (["classify", "--fixture", "s4", "--n", "2", "x^7+1"], 3, "DecompositionError",
                   "polynomial is not invariant under the fixture generators"),
        "argv18": (["deltas", "5"], 3, "CoverError", "need a nonconstant polynomial"),
    }),
)
def test_exit_codes_of_input_errors(argv, code, kind, message):
    got, text = run(argv)
    error = json.loads(text)["error"]
    assert (got, error["kind"]) == (code, kind) and message in error["message"]


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


def test_negative_symbolic_option_values():
    # "-a" is a value, not an option: --entry takes four values either way
    spelled = run(["transport", "--entry", "-a", "0", "0", "1", "--param", "a", "x^2+1"])
    assert spelled == run(["transport", "--entry", "(-a)", "0", "0", "1", "--param", "a", "x^2+1"])
    assert spelled[0] == 0 and json.loads(spelled[1])["result"]["polynomial"] == "a^2*x^2 + 1"
    assert run(["catalog", "--bogus"])[0] == 2
    assert run(["classify", "--fixture", "nosuch", "--n", "3", "x^3 - 1"])[0] == 2


def test_transport_over_reducible_modulus():
    # t + 1 is a zero divisor of Q[t]/(t^2 - 1); the transport still succeeds
    code, text = run(["transport", "--entry", "1", "2", "t+1", "3", "--ext", "t:t^2-1", "x^3+t*x+1"])
    assert code == 0
    assert json.loads(text)["result"]["polynomial"] == (
        "(6*t + 7)*x^3 + (28*t + 34)*x^2 + (48*t + 51)*x + (18*t + 35)"
    )


CUBIC = ["--ext", "c:t^3-2"]


@pytest.mark.parametrize("argv, result", _named_rows({
    "argv0": (["invariants", "--delta", "3", *CUBIC, "c*x^6 + x^3 + 1"],
              '{"convention": "r-i", "delta": 3, "path": "corrected", "r": 2, "u": ["c^2", "2"]}, '
              '"schema": 1, "warnings": ["no exact rescaling root in the domain; corrected invariants '
              'used", "r = 2: the residual action is cyclic, not dihedral; invariants are degenerate"]}'),
    "argv1": (["transport", "--entry", "c", "1", "1", "c+2", *CUBIC, "x^3+c*x+1"],
              '{"degree_drop": 0, "polynomial": "(c^2 + 3)*x^3 + (7*c^2 + 4*c + 10)*x^2 + '
              '(9*c^2 + 21*c + 20)*x + (10*c^2 + 16*c + 13)"}, "schema": 1, "warnings": []}'),
    "argv2": (["transport", "--entry", "c", "1", "1", "c+2", *CUBIC, "--char", "7", "x^3+c*x+1"],
              '{"degree_drop": 0, "polynomial": "(c^2 + 3)*x^3 + (4*c + 3)*x^2 + (2*c^2 + 6)*x + '
              '(3*c^2 + 2*c + 6)"}, "schema": 1, "warnings": []}'),
}))
def test_reports_over_a_cubic_extension(argv, result):
    # Q(cbrt 2) and F_7[c]/(c^3 - 2) have no automorphism known from their
    # modulus, so their inverses take extended Euclid
    head = f'{{"command": "{argv[0]}", "error": null, "exit": 0, "ok": true, "result": '
    assert run(argv) == (0, head + result)


def test_zero_divisor_over_non_field_base():
    # the top step I sits over Q[t]/(t^3 - t), which is not a field: Euclid
    # meets the zero divisor t before it could finish, and reports its factor
    code, text = run(["genus", "--n", "2", "--ext", "t:t^3-t", "x^2 + -1*x^0 + (t+I)*x^1"])
    assert code == 3
    error = json.loads(text)["error"]
    assert error["kind"] == "ZeroDivisorError"
    assert error["message"] == "zero divisor in QQ[t]/(t^3 - t): modulus has factor of degree 1"


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


def test_file_errors_exit_2(tmp_path, monkeypatch):
    missing = str(tmp_path / "missing.json")
    argv = ["orbit", "--fixture", "dihedral(3)", "--seed", "1"]
    for code, text in (
        run(argv + ["--catalog", missing]),
        run(["catalog", "--out", str(tmp_path / "no-such-dir" / "cat.json")]),
        run(["batch", missing]),
    ):
        assert code == 2 and json.loads(text)["error"]["kind"] == "FileNotFoundError"
    monkeypatch.setenv("SUPERELLIPTIC_CATALOG", missing)
    code, text = run(argv)
    assert code == 2 and json.loads(text)["exit"] == 2


def test_batch_reports_bad_lines_in_their_slots(tmp_path, capsys):
    reqs = tmp_path / "reqs.jsonl"
    reqs.write_text(
        "\n".join(
            [
                json.dumps({"command": "deltas", "args": ["x^6 - 1"]}),
                "{not json",
                json.dumps({"args": ["x^2 - 1"]}),
                json.dumps(["deltas"]),
                json.dumps({"command": "deltas", "args": ["--max-degree", "-1", "x^2 - 1"]}),
                json.dumps({"command": "resultant", "args": ["x^2 - 1", "x^2 - 4"]}),
            ]
        )
        + "\n"
    )
    assert run(["batch", str(reqs), "--jobs", "2"]) == (0, "")
    lines = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
    assert [ln["exit"] for ln in lines] == [0, 2, 2, 2, 2, 0]
    assert all(ln["error"]["kind"] == "usage" for ln in lines[1:4])
    assert lines[0]["result"]["deltas"] == [1, 2, 3, 6]
    assert lines[4]["error"] == {"kind": "ValueError", "message": "degree cap must be positive"}
    assert lines[5]["result"]["resultant"] == "9"


def test_batch_line_cannot_run_batch(tmp_path, capsys):
    inner = tmp_path / "inner.jsonl"
    inner.write_text(json.dumps({"command": "deltas", "args": ["x^6 - 1"]}) + "\n")
    outer = tmp_path / "outer.jsonl"
    outer.write_text(
        json.dumps({"command": "batch", "args": [str(inner)]})
        + "\n"
        + json.dumps({"command": "deltas", "args": ["x^4 - 1"]})
        + "\n"
    )
    assert run(["batch", str(outer)]) == (0, "")
    lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert [ln["exit"] for ln in lines] == [2, 0]
    assert lines[0]["command"] == "batch" and lines[0]["error"]["kind"] == "usage"
    assert lines[1]["result"]["deltas"] == [1, 2, 4]


def test_batch_jobs_selects_nothing(tmp_path, capsys):
    reqs = tmp_path / "reqs.jsonl"
    reqs.write_text(
        json.dumps({"command": "deltas", "args": ["x^6 - 1"]})
        + "\n"
        + json.dumps({"command": "discriminant", "args": ["x^3 - 2"]})
        + "\n"
    )
    outputs = []
    for jobs in ("1", "2"):
        assert run(["batch", str(reqs), "--jobs", jobs]) == (0, "")
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 2
    for jobs in ("0", "x"):
        code, text = run(["batch", str(reqs), "--jobs", jobs])
        assert code == 2 and json.loads(text)["exit"] == 2
    assert capsys.readouterr().out == ""


def test_dihedral_b_odd_n_from_a_catalog(tmp_path):
    """The dihedral_b table needs 2 | n.  The standard fixture has delta 2,
    so an odd n fails its divisibility test first; a catalog that declares
    delta 1 for the same fixture reaches the table's own test.  A catalog
    may also declare a family that no structure table knows."""
    data = json.loads(run(["catalog"])[1])["result"]["catalog"]
    fx = data["fixtures"]["dihedral_b(3)"]
    fx["name"], fx["delta"] = "dihedral_b1(3)", 1
    unknown = dict(fx, name="mystery(3)", family="mystery")
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"schema": data["schema"], "fixtures": {f["name"]: f for f in (fx, unknown)}}))
    argv = ["classify", "--fixture", "dihedral_b1(3)", "--catalog", str(path), "(x^3 + 3*x)*(x^2 - 1)"]
    assert run([*argv[:-1], "--n", "2", argv[-1]])[0] == 0
    for name, n, message in (("dihedral_b1(3)", "3", "the order-2 extra automorphism needs 2 | n"),
                             ("mystery(3)", "2", "no classification table for family 'mystery'")):
        argv[2] = name
        code, text = run([*argv[:-1], "--n", n, argv[-1]])
        error = json.loads(text)["error"]
        assert (code, error["kind"]) == (3, "GroupError")
        assert error["message"] == message


def test_batch_of_many_towers_keeps_a_bounded_table_cache(tmp_path, capsys, monkeypatch):
    from superelliptic import rings

    monkeypatch.setattr(rings, "_TABLES", {})
    sizes = []
    real = rings._build_table
    monkeypatch.setattr(rings, "_build_table", lambda ring: sizes.append(len(rings._TABLES)) or real(ring))
    count = rings._TABLES_MAX + 8
    reqs = tmp_path / "reqs.jsonl"
    reqs.write_text("".join(
        json.dumps({"command": "genus", "args": ["--n", "2", "--ext", f"t:t^2-{k}", "x^3+t"]}) + "\n"
        for k in range(2, 2 + count)))
    assert run(["batch", str(reqs)]) == (0, "")
    lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert [ln["exit"] for ln in lines] == [0] * count
    # each build sees the cache full at most, and then drops one table
    assert len(sizes) >= count and max(sizes) == rings._TABLES_MAX
    assert len(rings._TABLES) == rings._TABLES_MAX


@pytest.mark.parametrize("argv, exit_code", _named_rows({
    "argv0": (["--ext", "t:t^3-t", "x^5+t*x+I"], 3),
    "argv1": (["--ext", "i:t^2+1", "--ext", "e:t^4-5*t^2+6", "x^5+e*x+i"], 0),
}))
def test_a_rebuilt_reducible_tower_searches_mod_p_once(argv, exit_code, monkeypatch):
    # each request builds its tower anew; equal towers share their table,
    # and with it the refused certificate and the roots mod p found for it
    from superelliptic import rings

    monkeypatch.setattr(rings, "_TABLES", {})
    searches = []
    for name in ("_fp_roots", "_fp_irreducible"):
        real = getattr(rings, name)
        monkeypatch.setattr(rings, name, lambda *a, real=real, name=name: searches.append(name) or real(*a))
    first = run(["genus", "--n", "2", *argv])
    assert first[0] == exit_code and "_fp_irreducible" in searches
    searches.clear()
    assert run(["genus", "--n", "2", *argv]) == first
    assert not searches


def test_sqrt_of_a_non_literal_exits_4():
    code, text = run(["genus", "--n", "2", "x^3+sqrt(x)"])
    assert code == 4 and "sqrt() takes a single integer literal" in json.loads(text)["error"]["message"]


GENUS_2_OF_A_QUINTIC = (
    '{"command": "genus", "error": null, "exit": 0, "ok": true, "result": {"d": 5, "genus": 2, '
    '"n": 2, "normality_guaranteed": true, "s": 5}, "schema": 1, "warnings": []}'
)


@pytest.mark.parametrize("argv", _named_rows({
    # sqrt(3) names a declared generator, so the sugar adjoins nothing
    "argv0": (["genus", "--n", "2", "--ext", "sqrt3:t^2-3", "x^5+sqrt(3)*x+1"],),
    # 4 is a square in Q, so sqrt(4) is the constant 2 and adjoins nothing
    "argv1": (["genus", "--n", "2", "x^5+sqrt(4)*x+1"],),
}))
def test_sqrt_sugar_that_adjoins_nothing(argv):
    assert run(argv) == (0, GENUS_2_OF_A_QUINTIC)


def test_resultant_method_flag_is_gone():
    code, text = run(["resultant", "--method", "sylvester", "x^2 - 1", "x^2 - 4"])
    assert code == 2 and json.loads(text)["error"]["message"] == "bad arguments"


def test_catalog_out_fails_before_building(tmp_path, monkeypatch):
    calls = []

    def build(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("the catalog was built")

    monkeypatch.setattr("superelliptic.catalog.catalog_to_json", build)
    code, text = run(["catalog", "--out", str(tmp_path / "no-such-dir" / "cat.json")])
    assert code == 2 and json.loads(text)["error"]["kind"] == "FileNotFoundError"
    assert calls == []


CORRECTED = ["invariants", "--delta", "3", "--ext", "s3:t^2-3",
             "x^6 + (25 - 15*s3)*x^3 + (15*s3 - 26)"]


def test_corrected_invariants_report():
    # a_0 = 15*s3 - 26 has no sixth root in Q(sqrt3): the corrected branch
    assert run(CORRECTED) == (0, (
        '{"command": "invariants", "error": null, "exit": 0, "ok": true, "result": '
        '{"convention": "r-i", "delta": 3, "path": "corrected", "r": 2, "u": ["-100", "2"]}, '
        '"schema": 1, "warnings": ["no exact rescaling root in the domain; corrected invariants '
        'used", "r = 2: the residual action is cyclic, not dihedral; invariants are degenerate"]}'
    ))


def test_shifted_invariants_need_a_normal_form():
    code, text = run([*CORRECTED[:-1], "--shift", "1", CORRECTED[-1]])
    error = json.loads(text)["error"]
    assert code == 3 and error["kind"] == "InvariantError"
    assert error["message"] == "shifted invariants need an exact normal form"


def test_max_degree_flag_applies_to_one_run():
    from superelliptic.unipoly import degree_cap

    code, text = run(["genus", "--n", "2", "--max-degree", "3", "(x^2+1)^2 + 1"])
    error = json.loads(text)["error"]
    assert code == 2 and error["kind"] == "DegreeCapError"
    assert error["message"] == "degree 4 exceeds cap 3"
    assert degree_cap() == 4096
    code, text = run(["genus", "--n", "2", "(x^2+1)^2 + 1"])
    assert code == 0 and json.loads(text)["result"]["genus"] == 1
