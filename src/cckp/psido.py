"""Pseudo-differential operators with differential-polynomial coefficients.

An operator is a finite sum of ``c_k * d^k`` with coefficients stored on the
left of the derivative powers.  Negative orders form a truncated tail: the
``trunc_depth`` T means every coefficient at order >= -T is stored exactly.
Operators whose tail is exactly zero (purely differential operators) carry
the sentinel depth `EXACT_DEPTH`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable

from .diffring import DiffPoly, _products_into, d_x, poly_sum
from .errors import (
    DepthExhausted,
    GrammarError,
    NegativeOrderApplication,
    require_int,
)
from .grammar import (
    LATEX,
    TEXT,
    _grouped,
    _power,
    _signed_sum,
    poly_from_json,
    poly_json,
)

EXACT_DEPTH = 10 ** 9
_SIGNS = (DiffPoly.one(), -DiffPoly.one())  # (-1)^k, indexed by k % 2


def gbinom(k: int, j: int) -> int:
    """Generalized binomial coefficient C(k, j) for any integer k, j >= 0."""
    return comb(k, j) if k >= 0 else (-1) ** j * comb(j - k - 1, j)


class PsiDO:
    """Sum of DiffPoly coefficients times integer powers of d/dx."""

    __slots__ = ("coeffs", "trunc_depth")

    def __init__(self, coeffs: dict, trunc_depth: int = EXACT_DEPTH):
        require_int(trunc_depth, "truncation depth", 0)
        clean = {}
        for k, c in coeffs.items():
            require_int(k, "operator order")
            if isinstance(c, (int, Fraction)):
                c = DiffPoly.const(c)
            if not c.is_zero:
                clean[k] = c
        for k in clean:
            if k < -trunc_depth:
                raise ValueError(
                    f"stored order {k} lies below the trusted depth {trunc_depth}"
                )
        self.coeffs = clean
        self.trunc_depth = trunc_depth

    @classmethod
    def zero(cls, trunc_depth: int = EXACT_DEPTH) -> "PsiDO":
        return cls({}, trunc_depth)

    @classmethod
    def d(cls, order: int = 1) -> "PsiDO":
        return cls({order: DiffPoly.one()})

    @classmethod
    def from_poly(cls, p: DiffPoly) -> "PsiDO":
        return cls({0: p})

    @property
    def top_order(self):
        return max(self.coeffs) if self.coeffs else None

    @property
    def is_exact(self) -> bool:
        return self.trunc_depth >= EXACT_DEPTH

    def coeff(self, order: int) -> DiffPoly:
        if order < -self.trunc_depth:
            raise DepthExhausted(
                f"coefficient at order {order} is below depth {self.trunc_depth}"
            )
        return self.coeffs.get(order, DiffPoly.zero())

    def orders(self) -> Iterable[int]:
        return sorted(self.coeffs, reverse=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PsiDO):
            return NotImplemented
        return (
            self.coeffs == other.coeffs
            and self.trunc_depth == other.trunc_depth
        )

    def __hash__(self):
        return hash(
            (tuple(sorted(self.coeffs.items())), self.trunc_depth)
        )

    def __add__(self, other) -> "PsiDO":
        if not isinstance(other, PsiDO):
            return NotImplemented
        depth = min(self.trunc_depth, other.trunc_depth)
        out = {k: c for k, c in self.coeffs.items() if k >= -depth}
        for k, c in other.coeffs.items():
            if k >= -depth:
                out[k] = out[k] + c if k in out else c
        return _psido(out, depth)

    def __neg__(self) -> "PsiDO":
        return _psido({k: -c for k, c in self.coeffs.items()}, self.trunc_depth)

    def __sub__(self, other) -> "PsiDO":
        if not isinstance(other, PsiDO):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar) -> "PsiDO":
        if isinstance(scalar, (int, Fraction)):
            return _psido(
                {k: c * scalar for k, c in self.coeffs.items()},
                self.trunc_depth,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return psido_text(self)


def _psido(coeffs: dict, trunc_depth: int) -> PsiDO:
    """The operator with these coefficients, zeros dropped, unchecked.

    For the results of this module's own arithmetic, whose orders are ints
    at or above `-trunc_depth` and whose coefficients are `DiffPoly` values
    already; `PsiDO(...)` checks what a caller passes.
    """
    a = object.__new__(PsiDO)
    a.coeffs = {k: c for k, c in coeffs.items() if c.terms}
    a.trunc_depth = trunc_depth
    return a


def _resolve_depth(depth, supported: int, infinite: bool) -> int:
    """The truncation depth an operation runs at.

    `None` asks for all the `supported` depth, which an exact result that is
    an infinite series (`infinite`) does not have; an explicit depth may be
    any int from 0 to `supported` that is under `EXACT_DEPTH`, the depth
    that labels a result exact.
    """
    if depth is None:
        if infinite and supported >= EXACT_DEPTH:
            raise DepthExhausted(
                "the exact result is an infinite series; pass an explicit depth"
            )
        depth = supported
    else:
        require_int(depth, "truncation depth", 0)
        if depth >= EXACT_DEPTH:
            raise DepthExhausted(
                f"an explicit depth must be under EXACT_DEPTH = {EXACT_DEPTH}, "
                f"not {depth}; pass None for an exact result"
            )
    if not 0 <= depth <= supported:
        raise DepthExhausted(
            f"the operands support depths 0..{supported}, not {depth}"
        )
    return depth


def compose(a: PsiDO, b: PsiDO, depth: int | None = None) -> PsiDO:
    """Operator product via the generalized Leibniz rule.

    The result is exact down to the propagated depth
    ``min(T_a - max(top_b, 0), T_b - max(top_a, 0))``, and exact outright
    when both operands are; an explicit `depth` may truncate further but
    never exceed it.
    """
    if not a.coeffs or not b.coeffs:
        return PsiDO.zero(
            min(a.trunc_depth, b.trunc_depth) if depth is None else depth
        )
    supported = EXACT_DEPTH if a.is_exact and b.is_exact else min(
        a.trunc_depth - max(b.top_order, 0),
        b.trunc_depth - max(a.top_order, 0),
    )
    infinite = min(a.coeffs) < 0 and not all(
        c.is_constant for c in b.coeffs.values()
    )
    eff = _resolve_depth(depth, supported, infinite)
    out = {}
    _leibniz_into(out, a.coeffs, b.coeffs, eff)
    return _psido(out, eff)


def _leibniz_into(out: dict, a: dict, b: dict, eff: int) -> None:
    """Add the generalized-Leibniz expansion of a o b into out, down to -eff.

    `a` and `b` map orders to `DiffPoly` coefficients.  Each output order's
    products are summed in one sparse dict, seeded with what `out` already
    holds there, and turned into one canonical coefficient at the end.
    """
    sums = {}
    for l, bl in b.items():
        derivs = [bl]
        for k, ak in a.items():
            top = k if k >= 0 else k + l + eff
            for j in range(top + 1):
                n = k + l - j
                if n < -eff:
                    break
                while len(derivs) <= j:
                    derivs.append(d_x(derivs[-1]))
                if derivs[j].is_zero:
                    break
                acc = sums.get(n)
                if acc is None:
                    acc = sums[n] = dict(out[n].terms) if n in out else {}
                _products_into(acc, ak, derivs[j], gbinom(k, j))
    for n, acc in sums.items():
        out[n] = DiffPoly._from_dict(acc)


def adjoint(a: PsiDO, depth: int | None = None) -> PsiDO:
    """Formal adjoint: sum of (-1)^k d^k composed with each coefficient."""
    eff = _resolve_depth(
        depth,
        a.trunc_depth,
        any(k < 0 and not c.is_constant for k, c in a.coeffs.items()),
    )
    out = {}
    for k, c in a.coeffs.items():
        _leibniz_into(out, {k: _SIGNS[k % 2]}, {0: c}, eff)
    return _psido(out, eff)


def plus_part(a: PsiDO) -> PsiDO:
    """Purely differential part (orders >= 0); exact by construction."""
    return _psido({k: c for k, c in a.coeffs.items() if k >= 0}, EXACT_DEPTH)


def minus_part(a: PsiDO) -> PsiDO:
    """Integral part (orders < 0); keeps the operand's trusted depth."""
    return _psido({k: c for k, c in a.coeffs.items() if k < 0}, a.trunc_depth)


def residue(a: PsiDO) -> DiffPoly:
    """Coefficient of d^-1."""
    return a.coeff(-1)


def apply(a: PsiDO, f: DiffPoly) -> DiffPoly:
    """Apply a purely differential operator to a ring element."""
    negative = [k for k in a.coeffs if k < 0]
    if negative:
        raise NegativeOrderApplication(
            f"operator has integral orders {sorted(negative)}"
        )
    derivs = [f]
    for _ in range(max(a.coeffs, default=0)):
        derivs.append(d_x(derivs[-1]))
    return poly_sum((1, c * derivs[k]) for k, c in a.coeffs.items())


def commutator(a: PsiDO, b: PsiDO) -> PsiDO:
    return compose(a, b) - compose(b, a)


def residuals(a: PsiDO, b: PsiDO, depth: int) -> dict:
    """Per-order differences of two operators, down to the given depth."""
    require_int(depth, "comparison depth", 0)
    if a.trunc_depth < depth or b.trunc_depth < depth:
        raise DepthExhausted(
            f"comparison depth {depth} exceeds trusted depths "
            f"({a.trunc_depth}, {b.trunc_depth})"
        )
    out = {}
    for k in sorted(a.coeffs.keys() | b.coeffs.keys(), reverse=True):
        if k >= -depth:
            diff = a.coeff(k) - b.coeff(k)
            if not diff.is_zero:
                out[k] = diff
    return out


# -- rendering ------------------------------------------------------------------


def _render(a: PsiDO, s) -> str:
    pieces = []
    for k in a.orders():
        c = a.coeffs[k]
        # A one-term coefficient carries its sign into the joiner.
        sign = c.terms[0][1] if len(c.terms) == 1 else 1
        body = _grouped(-c if sign < 0 else c, s)
        if k:
            dpow = _power(s, s.d, k)
            body = dpow if body == "1" else body + s.dmul + dpow
        pieces.append((sign, body))
    return _signed_sum(pieces)


def psido_text(a: PsiDO) -> str:
    return _render(a, TEXT)


def psido_latex(a: PsiDO) -> str:
    return _render(a, LATEX)


def psido_json(a: PsiDO) -> dict:
    return {
        "trunc_depth": None if a.is_exact else a.trunc_depth,
        "coeffs": {str(k): poly_json(a.coeffs[k]) for k in a.orders()},
    }


def psido_from_json(data: dict) -> PsiDO:
    try:
        depth = data.get("trunc_depth")
        coeffs = {}
        for k, v in data["coeffs"].items():
            # An order key is `str(order)`, as `psido_json` writes it:
            # `1.5`, `True`, "01" or "+1" would pass `int` as order 1 and
            # could replace another key's coefficient.
            if type(k) is not str or str(int(k)) != k:
                raise ValueError(f"order key {k!r} is not the str() of an int")
            coeffs[int(k)] = poly_from_json(v)
        return PsiDO(coeffs, EXACT_DEPTH if depth is None else depth)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise GrammarError(f"malformed operator JSON: {exc}") from exc
