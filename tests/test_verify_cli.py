"""Suite runner and command-line behavior: determinism, formats, exit codes."""

from __future__ import annotations

import json

import pytest

from lyndonbar.cli import main
from lyndonbar.verify import run_suites


def run_cli(capsys, *args) -> tuple[int, str]:
    code = main(list(args))
    return code, capsys.readouterr().out


def test_verify_small_suites_pass():
    results = run_suites(["words", "signs"], max_weight=4)
    assert results and all(r.status != "fail" for r in results)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(["nonsense"], max_weight=4)


def test_lyndon_lines_and_json(capsys):
    code, out = run_cli(capsys, "lyndon", "--max-length", "4", "--format", "lines")
    assert code == 0
    assert out.split() == ["0", "0001", "001", "0011", "01", "011", "0111", "1"]
    code, out = run_cli(capsys, "lyndon", "--max-length", "1", "--format", "json")
    assert code == 0 and json.loads(out) == ["0", "1"]


def test_coeffs_csv_weight_two(capsys):
    code, out = run_cli(
        capsys, "coeffs", "--family", "alpha", "--max-weight", "2", "--format", "csv"
    )
    assert code == 0
    assert out.strip().splitlines() == ["W,U,V,value", "01,0,1,1"]


def test_coeffs_json_values_are_exact_strings(capsys):
    code, out = run_cli(
        capsys, "coeffs", "--family", "beta", "--max-weight", "4", "--format", "json"
    )
    rows = json.loads(out)
    assert code == 0 and all(isinstance(r["value"], str) for r in rows)
    assert {"W": "01", "U": "1", "V": "0", "value": "1"} in rows


def test_cobracket_tag_syntax(capsys):
    code, out = run_cli(capsys, "cobracket", "Tx:01")
    payload = json.loads(out)
    assert code == 0
    assert payload["terms"] == [
        {"left": "Tx:0", "right": "Tx:1", "value": "1"},
        {"left": "Tx:1", "right": "T@1:0", "value": "1"},
    ]
    code, out = run_cli(capsys, "cobracket", "T@1:01", "--basis", "t01")
    payload = json.loads(out)
    assert code == 0 and payload["basis"] == "t01"


def test_model_dump_schema(capsys):
    code, out = run_cli(capsys, "model", "--space", "x", "--max-weight", "2")
    payload = json.loads(out)
    assert code == 0
    names = [g["name"] for g in payload["generators"]]
    assert names == ["L0_1", "L1_0", "L0_01", "L1_01", "K_01"]
    assert payload["differential"]["L0_01"] == [
        {"monomial": ["L0_1", "L1_0"], "coeff": "1"}
    ]
    assert all(g["degree"] == 1 for g in payload["generators"])


def test_trees_cli(capsys):
    code, out = run_cli(capsys, "trees", "--leaves", "4", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 5 and len(payload["trees"]) == 5
    code, out = run_cli(capsys, "trees", "--leaves", "1", "--format", "lines")
    assert code == 0 and out.strip() == "*"


def test_lift_check_exit_codes(capsys):
    code, out = run_cli(capsys, "lift", "01", "--variant", "plain", "--check")
    payload = json.loads(out)
    assert code == 0 and payload["method"] == "unit"
    code, out = run_cli(capsys, "lift", "01", "--method", "claim", "--check")
    payload = json.loads(out)
    assert code == 1 and not payload["properties"]["closed"]


def test_lift_point_variant(capsys):
    code, out = run_cli(capsys, "lift", "01", "--variant", "point", "--check")
    assert code == 0 and json.loads(out)["variant"] == "point"


def test_verify_exit_zero(capsys):
    code, out = run_cli(
        capsys, "verify", "--suite", "words", "--max-weight", "4", "--format", "json"
    )
    assert code == 0
    assert all(r["status"] != "fail" for r in json.loads(out))


def test_deterministic_output(capsys):
    _, first = run_cli(capsys, "coeffs", "--family", "gamma", "--max-weight", "5")
    _, second = run_cli(capsys, "coeffs", "--family", "gamma", "--max-weight", "5")
    assert first == second
    _, v1 = run_cli(capsys, "verify", "--suite", "bar", "--max-weight", "3", "--format", "json")
    _, v2 = run_cli(capsys, "verify", "--suite", "bar", "--max-weight", "3", "--format", "json")
    assert v1 == v2


def test_weight_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--family", "alpha", "--max-weight", "9"])
    assert exc.value.code == 2


USAGE_ERRORS = [
    ["cobracket", "T9:01"],
    ["lift", "10"],
    ["lyndon", "--max-length", "0"],
    ["coeffs", "--family", "alpha", "--max-weight", "1"],
    ["trees", "--leaves", "0"],
    ["model", "--space", "a1", "--max-weight", "0"],
    ["verify", "--suite", "models", "--max-weight", "1"],
]


def test_usage_errors_exit_two(capsys):
    for argv in USAGE_ERRORS:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().out == "", argv


def test_out_file(tmp_path, capsys):
    path = tmp_path / "words.json"
    code, out = run_cli(
        capsys, "lyndon", "--max-length", "3", "--format", "json", "--out", str(path)
    )
    assert code == 0 and out == ""
    assert json.loads(path.read_text()) == ["0", "001", "01", "011", "1"]
