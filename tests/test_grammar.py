"""Text and JSON round-trips for ring elements and operators."""

import random
from fractions import Fraction

import pytest

from cckp import recursion
from cckp.diffring import DiffPoly, antiderivative
from cckp.errors import GrammarError
from cckp.grammar import (
    parse_poly,
    poly_from_json,
    poly_json,
    poly_latex,
    poly_text,
)
from cckp.nonlocal_ops import (
    DX,
    DXINV,
    IntDiffOperator,
    operator_from_json,
    operator_latex,
    operator_text,
    term,
)
from cckp.psido import PsiDO, psido_from_json, psido_json, psido_latex, psido_text

from conftest import P, SEED, random_poly


def test_jet_names():
    assert poly_text(DiffPoly.jet("q")) == "q"
    assert poly_text(DiffPoly.jet("q", 1)) == "q'"
    assert poly_text(DiffPoly.jet("r", 2)) == "r''"
    assert poly_text(DiffPoly.jet("u", 5)) == "u[5]"


def test_parse_examples():
    assert P("q[3] + 9*q*r*q' + 3*q^2*r'") == P("3*q^2*r' + q[3] + 9*q*q'*r")
    assert P("1/2*q^2") == DiffPoly.const(1) * DiffPoly.jet("q") ** 2 * P("1/2")
    assert P("I(q*r)") == antiderivative(DiffPoly.jet("q") * DiffPoly.jet("r"))
    assert P("-q + -r") == -DiffPoly.jet("q") - DiffPoly.jet("r")
    assert P("lam^2*u") == DiffPoly.lam(2) * DiffPoly.jet("u")
    assert P("0") == DiffPoly.zero()


def test_parse_atom_normalizes():
    # An exact integrand inside I(...) resolves to its local antiderivative.
    assert P("I(2*q*q')") == P("q^2")


def test_free_symbols_round_trip():
    # v and w are symbols of the ring, read and written like q and r.
    p = P("3/2*v'*w[4]^2 - q*v + r''*w' + I(q*v)")
    assert {sym for key, _ in p.terms for (sym, _), _ in key[0]} >= {"v", "w"}
    assert parse_poly(poly_text(p)) == p
    assert poly_from_json(poly_json(p)) == p
    assert poly_text(parse_poly("v'*w")) == "v'*w"


def test_parse_errors():
    for bad in ("q +", "I()", "q[", "3/0", "z", "q^", "(q"):
        with pytest.raises(GrammarError):
            parse_poly(bad)


def test_text_round_trip_randomized():
    rng = random.Random(SEED)
    for _ in range(200):
        p = random_poly(rng, allow_atoms=True, allow_scale=True)
        assert parse_poly(poly_text(p)) == p


def test_json_round_trip_randomized():
    rng = random.Random(SEED)
    for _ in range(200):
        p = random_poly(rng, allow_atoms=True, allow_scale=True)
        assert poly_from_json(poly_json(p)) == p


def test_json_rejects_garbage():
    with pytest.raises(GrammarError):
        poly_from_json({"nope": []})


@pytest.mark.parametrize(
    "parse, data",
    [
        (parse_poly, "0^-1"),
        (parse_poly, "q^-1"),
        (poly_from_json, {"terms": [{"coeff": "1/0", "jets": []}]}),
        (operator_from_json, {"terms": [{"weight": "1/0", "chain": []}]}),
        # Orders, exponents and depths are integers, not merely integral.
        (
            poly_from_json,
            {"terms": [{"coeff": "1", "jets": [["q", 0, 1]], "scale": 0.5}]},
        ),
        (poly_from_json, {"terms": [{"coeff": "1", "jets": [["q", 1.0, 1]]}]}),
        (
            psido_from_json,
            {"trunc_depth": 2.5, "coeffs": {"0": {"terms": [
                {"coeff": "1", "jets": []}
            ]}}},
        ),
        # Coefficients and weights are strings or ints, not floats or bools.
        (poly_from_json, {"terms": [{"coeff": 0.1, "jets": [["q", 0, 1]]}]}),
        (poly_from_json, {"terms": [{"coeff": True, "jets": [["q", 0, 1]]}]}),
        (
            operator_from_json,
            {"terms": [{"weight": 0.1, "chain": [{"kind": "dx"}]}]},
        ),
        # An atom needs a nonzero integrand, as in the text form.
        (
            poly_from_json,
            {"terms": [{"coeff": "1", "jets": [["q", 0, 1]],
                        "atoms": [[{"terms": []}, 1]]}]},
        ),
        # A power is an int, not a bool: `true` is not the power 1.
        (poly_from_json, {"terms": [{"coeff": "1", "jets": [["q", 0, True]]}]}),
        (
            poly_from_json,
            {"terms": [{"coeff": "1", "jets": [], "atoms": [[
                {"terms": [{"coeff": "1", "jets": [["q", 0, 2]]}]}, True
            ]]}]},
        ),
        # The operator and its coefficient table are JSON objects.
        (psido_from_json, []),
        (psido_from_json, {"coeffs": []}),
        # Order keys are ints written as strings: `1.5`, `True`, "01" and
        # "+1" all pass `int` as order 1.
        (
            psido_from_json,
            {"coeffs": {
                1.5: {"terms": [{"coeff": "1", "jets": [["q", 0, 1]]}]},
                True: {"terms": [{"coeff": "1", "jets": [["r", 0, 1]]}]},
            }},
        ),
        (
            psido_from_json,
            {"coeffs": {
                "1": {"terms": [{"coeff": "1", "jets": [["q", 0, 1]]}]},
                "01": {"terms": [{"coeff": "1", "jets": [["r", 0, 1]]}]},
            }},
        ),
        (
            psido_from_json,
            {"coeffs": {
                "+1": {"terms": [{"coeff": "1", "jets": [["q", 0, 1]]}]},
            }},
        ),
    ],
)
def test_parsers_raise_only_grammar_errors(parse, data):
    with pytest.raises(GrammarError):
        parse(data)


def test_psido_json_round_trip():
    op = PsiDO({2: P("q*r"), 0: P("3*q"), -1: P("I(q^2)")}, 4)
    assert psido_from_json(psido_json(op)) == op
    # An order that the JSON form could not read back is refused up front.
    for order in (True, 1.5, Fraction(1)):
        with pytest.raises(ValueError, match="operator order"):
            psido_json(PsiDO({order: P("q")}))


def test_latex_shapes():
    assert poly_latex(P("q[3]")) == "q_{xxx}"
    assert poly_latex(P("2/3*u^2")) == r"\frac{2}{3} u^{2}"
    assert r"\int" in poly_latex(P("I(q*r)"))
    # A jet name that already carries a superscript is braced before a power.
    assert poly_latex(P("q[7]^2*r[8]")) == "{q^{(7)}}^{2} r^{(8)}"


_RENDERERS = {
    DiffPoly: (poly_text, poly_latex),
    PsiDO: (psido_text, psido_latex),
    IntDiffOperator: (operator_text, operator_latex),
}

# Shapes the golden CLI outputs never reach: lam, fractions, atom powers,
# fractional operator weights, d^-k chains, zero objects, signs in a PsiDO.
_PINNED = [
    pytest.param(
        P("lam*q - lam^2*u + lam^-1*r"),
        "q*lam + r*lam^-1 - u*lam^2",
        r"q \lambda + r \lambda^{-1} - u \lambda^{2}",
        id="lam",
    ),
    pytest.param(
        P("-2/3*q*r + 1/2"),
        "1/2 - 2/3*q*r",
        r"\frac{1}{2} - \frac{2}{3} q r",
        id="fractions",
    ),
    pytest.param(P("-1/2"), "-1/2", r"-\frac{1}{2}", id="negative-constant"),
    pytest.param(
        P("I(q*r)^2*q' + I(q^2)"),
        "q'*I(q*r)^2 + I(q^2)",
        r"q_{x} \left(\int q r\right)^{2} + \left(\int q^{2}\right)",
        id="atom-power",
    ),
    pytest.param(
        P("q[7] + 3*u[6]*r''"),
        "q[7] + 3*r''*u[6]",
        "q^{(7)} + 3 r_{xx} u_{xxxxxx}",
        id="high-jets",
    ),
    pytest.param(
        PsiDO({2: P("1"), 0: P("-q")}),
        "d^2 - q",
        r"\partial^{2} - q",
        id="psido-negative",
    ),
    pytest.param(
        PsiDO({1: P("2*q - r"), -1: P("-1/3*q*r"), -2: P("1")}, 3),
        "(2*q - r)*d - 1/3*q*r*d^-1 + d^-2",
        r"\left(2 q - r\right)\partial - \frac{1}{3} q r\partial^{-1}"
        r" + \partial^{-2}",
        id="psido-tail",
    ),
    pytest.param(
        PsiDO({2: P("-1"), 0: P("q - r")}),
        "-d^2 + (q - r)",
        r"-\partial^{2} + \left(q - r\right)",
        id="psido-leading-minus",
    ),
    pytest.param(PsiDO.zero(), "0", "0", id="psido-zero"),
    pytest.param(
        IntDiffOperator(
            ((1, term(DXINV, DXINV, P("q"), DX, DX, DX, P("q + r"))),)
        ),
        "d^-2 q d^3 (q + r)",
        r"\partial^{-2} q \partial^{3} \left(q + r\right)",
        id="term-runs",
    ),
    pytest.param(IntDiffOperator(()), "0", "0", id="operator-zero"),
    pytest.param(
        IntDiffOperator(
            (
                (-1, term(P("q"))),
                (Fraction(-5, 2), term(P("r"), DXINV, DXINV, P("q"))),
            )
        ),
        "- q - 5/2 r d^-2 q",
        r"-q - \frac{5}{2} r \partial^{-2} q",
        id="operator-negative",
    ),
    pytest.param(
        recursion.scaled_mkdv_literal(),
        "d^2 + 2/3 u^2 + 2/3 u' d^-1 u",
        r"\partial^{2} + \frac{2}{3} u^{2} + \frac{2}{3} u_{x} \partial^{-1} u",
        id="scaled-mkdv",
    ),
]


@pytest.mark.parametrize("obj, text, latex", _PINNED)
def test_render_pinned(obj, text, latex):
    to_text, to_latex = _RENDERERS[type(obj)]
    assert to_text(obj) == text
    assert to_latex(obj) == latex
