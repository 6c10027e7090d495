"""Pseudo-differential operators with differential-polynomial coefficients.

An operator is a finite sum of ``c_k * d^k`` with coefficients stored on the
left of the derivative powers.  Negative orders form a truncated tail: the
``trunc_depth`` T means every coefficient at order >= -T is stored exactly.
Operators whose tail is exactly zero (purely differential operators) carry
the sentinel depth `EXACT_DEPTH`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .diffring import DiffPoly, d_x
from .errors import DepthExhausted, GrammarError, NegativeOrderApplication
from .grammar import (
    LATEX,
    TEXT,
    _grouped,
    _power,
    poly_from_json,
    poly_json,
)

EXACT_DEPTH = 10 ** 9


@lru_cache(maxsize=None)
def gbinom(k: int, j: int) -> int:
    """Generalized binomial coefficient C(k, j) for any integer k, j >= 0."""
    num = 1
    for i in range(j):
        num *= k - i
    return num // math.factorial(j)


class PsiDO:
    """Sum of DiffPoly coefficients times integer powers of d/dx."""

    __slots__ = ("coeffs", "trunc_depth")

    def __init__(self, coeffs: dict, trunc_depth: int = EXACT_DEPTH):
        clean = {}
        for k, c in coeffs.items():
            if isinstance(c, (int, Fraction)):
                c = DiffPoly.const(c)
            if not c.is_zero:
                clean[k] = c
        if trunc_depth < 0:
            raise ValueError("truncation depth must be >= 0")
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
    def identity(cls) -> "PsiDO":
        return cls({0: DiffPoly.one()})

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
        out = {}
        for k, c in self.coeffs.items():
            if k >= -depth:
                out[k] = c
        for k, c in other.coeffs.items():
            if k >= -depth:
                out[k] = out.get(k, DiffPoly.zero()) + c
        return PsiDO(out, depth)

    def __neg__(self) -> "PsiDO":
        return PsiDO({k: -c for k, c in self.coeffs.items()}, self.trunc_depth)

    def __sub__(self, other) -> "PsiDO":
        if not isinstance(other, PsiDO):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar) -> "PsiDO":
        if isinstance(scalar, (int, Fraction)):
            return PsiDO(
                {k: c * scalar for k, c in self.coeffs.items()},
                self.trunc_depth,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return psido_text(self)


def _would_be_infinite(a: PsiDO, b: PsiDO) -> bool:
    if not any(k < 0 for k in a.coeffs):
        return False
    return any(
        c.terms and any(key != ((), (), 0) for key, _ in c.terms)
        for c in b.coeffs.values()
    )


def compose(a: PsiDO, b: PsiDO, depth: int | None = None) -> PsiDO:
    """Operator product via the generalized Leibniz rule.

    The result is exact down to the propagated depth
    ``min(T_a - max(top_b, 0), T_b - max(top_a, 0))``; an explicit `depth`
    may truncate further but never exceed it.
    """
    if not a.coeffs or not b.coeffs:
        return PsiDO.zero(
            depth if depth is not None else min(a.trunc_depth, b.trunc_depth)
        )
    prop = min(
        a.trunc_depth - max(b.top_order, 0),
        b.trunc_depth - max(a.top_order, 0),
    )
    if prop < 0:
        raise DepthExhausted(
            "operands are too shallow for their composition to be trusted "
            "at any nonnegative depth"
        )
    if depth is None:
        eff = prop
        if eff >= EXACT_DEPTH // 2 and _would_be_infinite(a, b):
            raise DepthExhausted(
                "composition is an infinite series; pass an explicit depth"
            )
    else:
        if depth > prop:
            raise DepthExhausted(
                f"requested depth {depth} exceeds the supported depth {prop}"
            )
        eff = depth

    out = {}
    _leibniz_into(out, a.coeffs, b.coeffs, eff)
    return PsiDO(out, eff)


def _leibniz_into(out: dict, a: dict, b: dict, eff: int) -> None:
    """Add the generalized-Leibniz expansion of a o b into out, down to -eff.

    `a` and `b` map orders to coefficients; coefficients of `a` may also be
    plain integers.
    """
    for l, bl in b.items():
        derivs = [bl]
        for k, ak in a.items():
            if k >= 0:
                j_iter = range(0, k + 1)
            else:
                j_iter = range(0, k + l + eff + 1)
            for j in j_iter:
                n = k + l - j
                if n < -eff:
                    continue
                while len(derivs) <= j:
                    derivs.append(d_x(derivs[-1]))
                if derivs[j].is_zero:
                    break
                coeff = gbinom(k, j)
                if coeff == 0:
                    continue
                term = ak * derivs[j] * coeff
                if term.is_zero:
                    continue
                out[n] = out.get(n, DiffPoly.zero()) + term


def adjoint(a: PsiDO, depth: int | None = None) -> PsiDO:
    """Formal adjoint: sum of (-1)^k d^k composed with each coefficient."""
    if depth is None:
        eff = a.trunc_depth
        if eff >= EXACT_DEPTH // 2 and any(
            k < 0
            and any(key != ((), (), 0) for key, _ in a.coeffs[k].terms)
            for k in a.coeffs
        ):
            raise DepthExhausted(
                "adjoint of an integral tail is an infinite series; "
                "pass an explicit depth"
            )
    else:
        if depth > a.trunc_depth:
            raise DepthExhausted(
                f"requested depth {depth} exceeds the operand depth "
                f"{a.trunc_depth}"
            )
        eff = depth
    out = {}
    for k, c in a.coeffs.items():
        _leibniz_into(out, {k: -1 if k % 2 else 1}, {0: c}, eff)
    return PsiDO(out, eff)


def plus_part(a: PsiDO) -> PsiDO:
    """Purely differential part (orders >= 0); exact by construction."""
    return PsiDO({k: c for k, c in a.coeffs.items() if k >= 0}, EXACT_DEPTH)


def minus_part(a: PsiDO) -> PsiDO:
    """Integral part (orders < 0); keeps the operand's trusted depth."""
    return PsiDO(
        {k: c for k, c in a.coeffs.items() if k < 0}, a.trunc_depth
    )


def residue(a: PsiDO) -> DiffPoly:
    """Coefficient of d^-1."""
    if a.trunc_depth < 1:
        raise DepthExhausted("residue needs a trusted depth of at least 1")
    return a.coeffs.get(-1, DiffPoly.zero())


def apply(a: PsiDO, f: DiffPoly) -> DiffPoly:
    """Apply a purely differential operator to a ring element."""
    negative = [k for k in a.coeffs if k < 0]
    if negative:
        raise NegativeOrderApplication(
            f"operator has integral orders {sorted(negative)}"
        )
    out = DiffPoly.zero()
    derivs = [f]
    for k in sorted(a.coeffs):
        while len(derivs) <= k:
            derivs.append(d_x(derivs[-1]))
        out = out + a.coeffs[k] * derivs[k]
    return out


def commutator(a: PsiDO, b: PsiDO, depth: int | None = None) -> PsiDO:
    return compose(a, b, depth) - compose(b, a, depth)


def residuals(a: PsiDO, b: PsiDO, depth: int) -> dict:
    """Per-order differences of two operators, down to the given depth."""
    if a.trunc_depth < depth or b.trunc_depth < depth:
        raise DepthExhausted(
            f"comparison depth {depth} exceeds trusted depths "
            f"({a.trunc_depth}, {b.trunc_depth})"
        )
    out = {}
    orders = set(a.coeffs) | set(b.coeffs)
    top = max(orders, default=0)
    for k in range(top, -depth - 1, -1):
        diff = a.coeffs.get(k, DiffPoly.zero()) - b.coeffs.get(
            k, DiffPoly.zero()
        )
        if not diff.is_zero:
            out[k] = diff
    return out


# -- rendering ------------------------------------------------------------------


def _render(a: PsiDO, s) -> str:
    pieces = []
    for k in a.orders():
        body = _grouped(a.coeffs[k], s)
        if k == 0:
            pieces.append(body)
        else:
            dpow = _power(s, s.d, k)
            pieces.append(dpow if body == "1" else body + s.dmul + dpow)
    return " + ".join(pieces) or "0"


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
        coeffs = {
            int(k): poly_from_json(v) for k, v in data["coeffs"].items()
        }
        return PsiDO(coeffs, EXACT_DEPTH if depth is None else depth)
    except (KeyError, TypeError, ValueError) as exc:
        raise GrammarError(f"malformed operator JSON: {exc}") from exc
