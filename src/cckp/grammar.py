"""Canonical text, JSON and LaTeX forms for ring elements.

Text and LaTeX come from one walk and differ only in the tokens of their
`_Style` (`TEXT`, `LATEX`); the operator renderers share it.

Text grammar: jet variables are ``q``, ``q'``, ``q''`` and ``q[k]`` for
k >= 3; atoms are ``I(<poly>)``; the scale constant is ``lam``; rational
coefficients are ``a`` or ``a/b``.  ``parse_poly(poly_text(p)) == p`` holds
bit-exactly for every canonical polynomial.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, NamedTuple

from .diffring import DiffPoly, antiderivative
from .errors import GrammarError

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[qru]|lam|I)|(?P<op>[-+*/^()\[\]'])|(?P<end>$))"
)


class _Style(NamedTuple):
    """The tokens in which the text and LaTeX forms differ."""

    jet: Callable[[str, int], str]  # (symbol, derivative order) -> name
    power: str  # template with slots for the base and the exponent
    coeff: Callable[[Fraction], str]
    atom: str  # template with a slot for the integrand
    lam: str
    d: str
    paren: str
    mul: str  # between the factors of a monomial
    dmul: str  # between an operator coefficient and its power of d
    minus: str  # leading minus of an integro-differential operator


def _jet_text(sym: str, order: int) -> str:
    return sym + "'" * order if order <= 2 else f"{sym}[{order}]"


def _jet_latex(sym: str, order: int) -> str:
    if order == 0:
        return sym
    if order <= 6:
        return f"{sym}_{{{'x' * order}}}"
    return f"{sym}^{{({order})}}"


def _coeff_latex(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return rf"\frac{{{c.numerator}}}{{{c.denominator}}}"


TEXT = _Style(
    _jet_text, "{}^{}", str, "I({})", "lam", "d", "({})", "*", "*", "- "
)
LATEX = _Style(
    _jet_latex, "{}^{{{}}}", _coeff_latex, r"\left(\int {}\right)",
    r"\lambda", r"\partial", r"\left({}\right)", " ", "", "-",
)


def _power(s: _Style, base: str, exponent: int) -> str:
    return base if exponent == 1 else s.power.format(base, exponent)


def _signed_sum(pieces, minus: str = "-") -> str:
    """Join (coefficient, body) pairs with their signs; "0" when empty."""
    out = []
    for coeff, body in pieces:
        if out:
            out.append(" + " if coeff > 0 else " - ")
        elif coeff < 0:
            out.append(minus)
        out.append(body)
    return "".join(out) or "0"


def _render_poly(p: DiffPoly, s: _Style) -> str:
    pieces = []
    for (jets, atoms, scale), coeff in p.display_terms():
        factors = []
        for (sym, order), power in jets:
            name = s.jet(sym, order)
            if power != 1 and "^" in name:
                name = f"{{{name}}}"  # a double superscript is invalid LaTeX
            factors.append(_power(s, name, power))
        for akey, power in atoms:
            atom = s.atom.format(_render_poly(DiffPoly(akey), s))
            factors.append(_power(s, atom, power))
        if scale:
            factors.append(_power(s, s.lam, scale))
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, s.coeff(mag))
        pieces.append((coeff, s.mul.join(factors)))
    return _signed_sum(pieces)


def _grouped(p: DiffPoly, s: _Style) -> str:
    """`p` as a factor of a product: parenthesized if it has several terms."""
    body = _render_poly(p, s)
    return s.paren.format(body) if len(p.terms) > 1 else body


def poly_text(p: DiffPoly) -> str:
    return _render_poly(p, TEXT)


def poly_latex(p: DiffPoly) -> str:
    return _render_poly(p, LATEX)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tok = None
        self.advance()

    def advance(self):
        m = _TOKEN.match(self.text, self.pos)
        if m is None:
            raise GrammarError(
                f"unexpected character at position {self.pos}: "
                f"{self.text[self.pos:self.pos + 8]!r}"
            )
        self.pos = m.end()
        if m.group("int") is not None:
            self.tok = ("int", int(m.group("int")))
        elif m.group("name") is not None:
            self.tok = ("name", m.group("name"))
        elif m.group("op") is not None:
            self.tok = ("op", m.group("op"))
        else:
            self.tok = ("end", None)

    def expect_op(self, op: str):
        if self.tok != ("op", op):
            raise GrammarError(f"expected {op!r}, got {self.tok}")
        self.advance()

    def _parse_sign(self) -> int:
        sign = 1
        while self.tok in (("op", "-"), ("op", "+")):
            if self.tok == ("op", "-"):
                sign = -sign
            self.advance()
        return sign

    def parse_expr(self) -> DiffPoly:
        total = DiffPoly.zero()
        sign = self._parse_sign()
        while True:
            total = total + sign * self.parse_term()
            if self.tok in (("op", "+"), ("op", "-")):
                sign = self._parse_sign()
            else:
                return total

    def parse_term(self) -> DiffPoly:
        out = self.parse_factor()
        while self.tok == ("op", "*"):
            self.advance()
            out = out * self.parse_factor()
        return out

    def _parse_power(self) -> int:
        if self.tok != ("op", "^"):
            return 1
        self.advance()
        neg = False
        if self.tok == ("op", "-"):
            neg = True
            self.advance()
        if self.tok[0] != "int":
            raise GrammarError("expected an integer exponent after '^'")
        power = self.tok[1]
        self.advance()
        return -power if neg else power

    def parse_factor(self) -> DiffPoly:
        kind, value = self.tok
        if kind == "int":
            self.advance()
            num = Fraction(value)
            if self.tok == ("op", "/"):
                self.advance()
                if self.tok[0] != "int" or self.tok[1] == 0:
                    raise GrammarError("expected a nonzero denominator")
                num /= self.tok[1]
                self.advance()
            power = self._parse_power()
            return DiffPoly.const(num ** power)
        if kind == "name" and value in ("q", "r", "u"):
            self.advance()
            order = 0
            while self.tok == ("op", "'"):
                order += 1
                self.advance()
            if order == 0 and self.tok == ("op", "["):
                self.advance()
                if self.tok[0] != "int":
                    raise GrammarError("expected a derivative order inside [..]")
                order = self.tok[1]
                self.advance()
                self.expect_op("]")
            base = DiffPoly.jet(value, order)
            return base ** self._parse_power()
        if kind == "name" and value == "lam":
            self.advance()
            return DiffPoly.lam(self._parse_power())
        if kind == "name" and value == "I":
            self.advance()
            self.expect_op("(")
            inner = self.parse_expr()
            self.expect_op(")")
            power = self._parse_power()
            if inner.is_zero:
                raise GrammarError("atom integrand must be nonzero")
            # Antiderivatives are canonical: exact parts resolve locally and
            # the rest becomes monic-integrand atoms.
            return antiderivative(inner) ** power
        if (kind, value) == ("op", "("):
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner ** self._parse_power()
        raise GrammarError(f"unexpected token {self.tok}")


def parse_poly(text: str) -> DiffPoly:
    parser = _Parser(text)
    out = parser.parse_expr()
    if parser.tok != ("end", None):
        raise GrammarError(f"trailing input at position {parser.pos}")
    return out


# -- JSON ---------------------------------------------------------------------


def poly_json(p: DiffPoly) -> dict:
    terms = []
    for (jets, atoms, scale), coeff in p.display_terms():
        terms.append(
            {
                "coeff": str(coeff),
                "jets": [[sym, order, power] for (sym, order), power in jets],
                "atoms": [
                    [poly_json(DiffPoly(akey)), power] for akey, power in atoms
                ],
                "scale": scale,
            }
        )
    return {"terms": terms}


def poly_from_json(data: dict) -> DiffPoly:
    try:
        out = DiffPoly.zero()
        for term in data["terms"]:
            piece = DiffPoly.const(Fraction(term["coeff"]))
            for sym, order, power in term["jets"]:
                piece = piece * DiffPoly.jet(sym, order) ** power
            for atom_data, power in term.get("atoms", ()):
                integrand = poly_from_json(atom_data)
                piece = piece * antiderivative(integrand) ** power
            if term.get("scale", 0):
                piece = piece * DiffPoly.lam(term["scale"])
            out = out + piece
        return out
    except (KeyError, TypeError, ValueError) as exc:
        raise GrammarError(f"malformed polynomial JSON: {exc}") from exc
