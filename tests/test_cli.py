"""Command-line surface: formats, exit codes, determinism, env precedence."""

import json
from pathlib import Path

import pytest

from cckp.cli import RunConfig, main
from cckp.grammar import parse_poly, poly_from_json
from cckp.hierarchy import flow
from cckp.psido import psido_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(max_flow=4)
    with pytest.raises(ValueError):
        RunConfig(depth=5, max_flow=7)
    with pytest.raises(ValueError):
        RunConfig(output_format="html")


def test_derive_text(capsys):
    code, out, _ = run(capsys, "derive", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("B_3 = d^3")
    assert parse_poly(lines[1].split("= ", 1)[1]) == flow(3).q_t


def test_derive_json_round_trips(capsys):
    code, out, _ = run(capsys, "derive", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert poly_from_json(payload["flow"]["q_t"]) == flow(3).q_t
    generator = psido_from_json(payload["generator"])
    assert generator.coeffs[1].is_zero is False


def test_derive_latex(capsys):
    code, out, _ = run(capsys, "derive", "3", "--format", "latex")
    assert code == 0
    assert "q_{xxx} + 9 q q_{x} r + 3 q^{2} r_{x}" in out


def test_derive_rejects_even_flow(capsys):
    code, _, err = run(capsys, "derive", "4")
    assert code == 2
    assert "odd" in err


def test_derive_respects_max_flow(capsys):
    code, _, err = run(capsys, "derive", "9")
    assert code == 2
    assert "exceeds" in err


def test_derive_seventh_flow(capsys):
    code, out, _ = run(capsys, "derive", "7", "--depth", "10")
    assert code == 0
    assert out.startswith("B_7 = d^7")
    q_line = out.splitlines()[1]
    assert parse_poly(q_line.split("= ", 1)[1]) == flow(7).q_t


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "derive", "5", "--format", "json")
    _, second, _ = run(capsys, "derive", "5", "--format", "json")
    assert first == second


def test_env_overrides(capsys, monkeypatch):
    monkeypatch.setenv("CCKP_DEPTH", "3")
    code, _, err = run(capsys, "derive", "3")
    assert code == 2
    assert "depth" in err
    # Flags beat the environment.
    code, out, _ = run(capsys, "derive", "3", "--depth", "9")
    assert code == 0
    assert out.startswith("B_3")


def test_env_invalid_integer(capsys, monkeypatch):
    monkeypatch.setenv("CCKP_DEPTH", "lots")
    code, _, err = run(capsys, "derive", "3")
    assert code == 2


def test_verify_skew_json(capsys):
    code, out, _ = run(capsys, "verify", "skew", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["passed"] is True
    assert payload["checks"][0]["name"] == "skew-adjointness"


def test_verify_residues_text(capsys):
    code, out, _ = run(capsys, "verify", "residues")
    assert code == 0
    assert out.count("[PASS]") == 3
    assert out.strip().endswith("result: PASS")


def test_export_lax_json(capsys):
    code, out, _ = run(capsys, "export", "lax", "--format", "json", "--depth", "8")
    assert code == 0
    payload = json.loads(out)
    op = psido_from_json(payload["content"])
    assert op.coeffs[-1] == parse_poly("2*q*r")


def test_export_bn_text(capsys):
    code, out, _ = run(capsys, "export", "bn", "5")
    assert code == 0
    assert "40*q^2*r^2" in out


def test_export_bn_needs_index(capsys):
    code, _, err = run(capsys, "export", "bn")
    assert code == 2


def test_export_recursion_matrix_latex_is_standalone(capsys):
    code, out, _ = run(
        capsys, "export", "recursion-matrix", "--format", "latex"
    )
    assert code == 0
    assert out.startswith("\\documentclass")
    assert out.rstrip().endswith("\\end{document}")
    assert "R_{11}" in out and "R_{22}" in out


def test_export_to_file(tmp_path, capsys):
    target = tmp_path / "lax.json"
    code, out, _ = run(
        capsys, "export", "lax", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["target"] == "lax"


@pytest.mark.parametrize(
    "argv", [["derive", "3"], ["verify", "skew"], ["export", "lax"]]
)
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write output:")


GOLDEN = Path(__file__).resolve().parent / "golden"

_FORMATS = ("text", "latex", "json")
_DERIVE_FLAGS = ("--max-flow", "9", "--depth", "10")
_GOLDEN_CASES = (
    [
        (f"derive_{n}.{fmt}", ["derive", str(n), *_DERIVE_FLAGS])
        for n in (1, 3, 5, 7, 9)
        for fmt in _FORMATS
    ]
    + [
        (f"export_{name}.{fmt}", ["export", *target])
        for name, target in (
            ("lax", ["lax"]),
            ("bn_7", ["bn", "7"]),
            ("recursion-matrix", ["recursion-matrix"]),
        )
        for fmt in _FORMATS
    ]
    + [(f"verify_all.{fmt}", ["verify", "all"]) for fmt in ("text", "json")]
)


@pytest.mark.parametrize(
    "name, argv", _GOLDEN_CASES, ids=[name for name, _ in _GOLDEN_CASES]
)
def test_golden_output(capsys, monkeypatch, name, argv):
    """stdout matches the recorded output byte for byte."""
    for var in ("DEPTH", "MAX_FLOW", "FORMAT", "NESTING_LIMIT"):
        monkeypatch.delenv(f"CCKP_{var}", raising=False)
    fmt = name.rsplit(".", 1)[1]
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")
