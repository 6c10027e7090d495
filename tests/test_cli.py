"""Command-line surface: formats, exit codes, determinism, env precedence."""

import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

import cckp
from cckp import recursion
from cckp.cli import RunConfig, main
from cckp.grammar import parse_poly, poly_from_json
from cckp.hierarchy import flow
from cckp.psido import psido_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def clean_env(monkeypatch):
    """No CCKP_* variable from the calling shell reaches the command."""
    for var in ("DEPTH", "MAX_FLOW", "FORMAT"):
        monkeypatch.delenv(f"CCKP_{var}", raising=False)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(max_flow=4)
    with pytest.raises(ValueError):
        RunConfig(depth=0)
    with pytest.raises(ValueError):
        RunConfig(output_format="html")


@pytest.mark.parametrize(
    "kwargs",
    (
        {"max_flow": 7.0},
        {"max_flow": True},
        {"depth": 8.5},
        {"depth": 8.0},
        {"depth": True},
        {"max_flow": Fraction(3)},
        {"max_flow": -1},
        {"depth": Fraction(2)},
        {"depth": 0},
    ),
    ids=(
        "float-flow", "bool-flow", "fractional-depth", "float-depth", "bool-depth",
        "Fraction-flow", "negative-flow", "Fraction-depth", "zero-depth",
    ),
)
def test_config_takes_only_int_depth_and_flow(kwargs):
    with pytest.raises(ValueError, match="must be an int"):
        RunConfig(**kwargs)


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
    monkeypatch.setenv("CCKP_DEPTH", "2")

    def lax_depth(*flags):
        code, out, err = run(capsys, "export", "lax", "--format", "json", *flags)
        assert code == 0, err
        return json.loads(out)["content"]["trunc_depth"]

    assert lax_depth() == 2
    # Flags beat the environment.
    assert lax_depth("--depth", "9") == 9


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


@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
def test_verify_rejects_latex(capsys, monkeypatch, via_env):
    argv = ["verify", "residues"]
    if via_env:
        monkeypatch.setenv("CCKP_FORMAT", "latex")
    else:
        argv += ["--format", "latex"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "text" in err and "json" in err


def _verify_json(capsys, *argv):
    """Run `verify ... --format json`; its payload and its check names."""
    code, out, err = run(capsys, "verify", *argv, "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    return payload, [c["name"] for c in payload["checks"]]


def _flow_indices(names):
    return {int(k) for name in names for k in re.findall(r"t_(\d+)", name)}


@pytest.mark.parametrize(
    "max_flow, expected",
    [
        pytest.param(
            9,
            (
                "lax-equation t_7",
                "step t_7 -> t_9 (q)",
                "recursion-identities t_7",
                "residue-coefficients t_7",
                "reduced step t_5 -> t_7",
                "reduction commutes with step at t_5",
            ),
            id="9",
        ),
        pytest.param(
            11,
            (
                "lax-equation t_9",
                "step t_9 -> t_11 (r)",
                "recursion-identities t_9",
                "residue-coefficients t_9",
                "reduced step t_7 -> t_9",
                "scaled ninth-order flow",
            ),
            id="11",
            marks=pytest.mark.slow,
        ),
    ],
)
def test_verify_max_flow_sets_every_range(
    capsys, clean_env, max_flow, expected
):
    payload, names = _verify_json(capsys, "all", "--max-flow", str(max_flow))
    assert payload["passed"] is True
    assert payload["config"]["max_flow"] == max_flow
    assert set(expected) <= set(names)
    assert max(_flow_indices(names)) == max_flow


def test_verify_all_steps_each_flow_once(capsys, clean_env, monkeypatch):
    stepped = []
    real_step = recursion.step

    def counting_step(pair, *args, **kwargs):
        stepped.append(pair.m)
        return real_step(pair, *args, **kwargs)

    monkeypatch.setattr(recursion, "step", counting_step)
    payload, _ = _verify_json(capsys, "all")
    assert payload["passed"] is True
    # t_1, t_3 and t_5 once each, shared by the recursion and reduction
    # suites, and the second step of the two-step check from t_1.
    assert sorted(stepped) == [1, 3, 3, 5]


def test_verify_max_flow_1_runs_below_t_3(capsys, clean_env):
    payload, names = _verify_json(capsys, "all", "--max-flow", "1")
    assert payload["passed"] is True
    assert "skew-adjointness" in names
    assert _flow_indices(names) <= {1}


@pytest.mark.parametrize(
    "suite, max_flow",
    [("lax", "3"), ("recursion", "1"), ("identities", "1"), ("residues", "1")],
)
def test_verify_empty_range_is_a_usage_error(
    capsys, clean_env, suite, max_flow
):
    code, out, err = run(capsys, "verify", suite, "--max-flow", max_flow)
    assert code == 2
    assert out == ""
    assert "--max-flow" in err


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


@pytest.mark.parametrize("n", ["4", "0", "-1"])
def test_export_bn_rejects_bad_flow_index(capsys, n):
    code, out, err = run(capsys, "export", "bn", n)
    assert code == 2
    assert out == ""
    assert err == "error: flow index must be a positive odd integer\n"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("derive", "9", "--max-flow", "9", "--depth", "5"), "derive_9.text"),
        (("export", "bn", "7", "--depth", "3"), "export_bn_7.text"),
    ],
)
def test_generator_reads_no_depth(capsys, clean_env, argv, golden):
    # B_n is exact, so a depth below n changes nothing in its output.
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("target", ["lax", "recursion-matrix"])
def test_export_rejects_a_flow_index_it_would_ignore(capsys, clean_env, target):
    code, out, err = run(capsys, "export", target, "3")
    assert code == 2
    assert out == ""
    assert err == f"error: export {target} takes no flow index\n"


def test_export_bn_respects_max_flow(capsys, monkeypatch):
    monkeypatch.delenv("CCKP_MAX_FLOW", raising=False)
    code, out, err = run(capsys, "export", "bn", "9", "--depth", "10")
    assert code == 2
    assert out == ""
    assert err == "error: flow index 9 exceeds the configured maximum 7\n"


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
    + [("verify_all_9.json", ["verify", "all", "--max-flow", "9"])]
    + [("verify_all_11.json", ["verify", "all", "--max-flow", "11"])]
)
_SLOW_GOLDENS = {"verify_all_11.json"}


@pytest.mark.parametrize(
    "name, argv",
    [
        pytest.param(
            name, argv, id=name,
            marks=[pytest.mark.slow] if name in _SLOW_GOLDENS else [],
        )
        for name, argv in _GOLDEN_CASES
    ],
)
def test_golden_output(capsys, clean_env, name, argv):
    """stdout matches the recorded output byte for byte."""
    fmt = name.rsplit(".", 1)[1]
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_cli_commands():
    """Each command line of the `sh` block in the README's CLI section."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)
        for line in block.splitlines()
        if line.strip()
    ]


_README_COMMANDS = _readme_cli_commands()


@pytest.mark.parametrize(
    "argv", _README_COMMANDS, ids=[" ".join(a[1:]) for a in _README_COMMANDS]
)
def test_readme_cli_example(capsys, clean_env, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    assert argv[0] == "cckp"
    code, _, err = run(capsys, *argv[1:])
    assert code == 0, err


def test_readme_library_example(capsys):
    section = README.read_text(encoding="utf-8").split(
        "\n## Library example\n", 1
    )[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    # The comments say what `mkdv` is and what `print(third)` writes.
    comments = {
        line.split("#", 1)[0].strip(): line.split("#", 1)[1].strip()
        for line in block.splitlines()
        if "#" in line
    }
    assert comments["mkdv = reduce_matrix()"] == "d^2 + 8 q^2 + 8 q' d^-1 q"
    assert comments["print(third)"] == "q[3] + 12*q^2*q'"
    namespace = {}
    exec(block, namespace)
    assert capsys.readouterr().out == "q[3] + 12*q^2*q'\n"
    assert repr(namespace["mkdv"]) == "d^2 + 8 q^2 + 8 q' d^-1 q"


def test_package_exports_resolve():
    # `from cckp import *` fails on any name in __all__ the package lacks.
    assert [name for name in cckp.__all__ if not hasattr(cckp, name)] == []
