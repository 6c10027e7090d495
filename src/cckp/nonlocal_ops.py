"""Integro-differential operators as formal sums of factor chains.

A chain is an ordered list of factors -- multipliers, d/dx, and the formal
antiderivative -- applied right-to-left to a ring element.  Adjacent
multipliers merge on construction, but d * d^-1 pairs are kept explicit;
cancelling them is a separate rewrite, since d^-1 * d is the identity only
under the engine's zero-constant convention.
"""

from __future__ import annotations

from typing import Iterable

from .diffring import (
    DiffPoly,
    _fr,
    antiderivative,
    d_x,
    poly_sum,
    substitute_r_to_q as poly_substitute_r_to_q,
    swap_q_r as poly_swap_q_r,
)
from .errors import GrammarError, require_int
from .grammar import (
    LATEX,
    TEXT,
    _grouped,
    _power,
    _signed_sum,
    poly_from_json,
    poly_json,
    rational_from_json,
)
from .psido import PsiDO, compose

DX = "D"
DXINV = "Dinv"


def _is_mul(factor) -> bool:
    return isinstance(factor, DiffPoly)


def _normalize_chain(factors) -> tuple:
    out = []
    for f in factors:
        if f in (DX, DXINV):
            # The module's own marker: chains tell factors apart by identity.
            out.append(DX if f == DX else DXINV)
            continue
        if not _is_mul(f):
            raise TypeError(f"chain factor must be DiffPoly, DX or DXINV: {f!r}")
        if f.is_zero:
            return None
        if out and _is_mul(out[-1]):
            out[-1] = out[-1] * f
        else:
            out.append(f)
    if not out:
        out = [DiffPoly.one()]
    return tuple(out)


def _chain_key(chain):
    """The sort key that orders an operator's chains."""
    return tuple(
        ("m", tuple(sorted(f.terms))) if _is_mul(f) else (f,) for f in chain
    )


class IntDiffOperator:
    """Rational-weighted sum of chains, canonical up to chain identity.

    A chain is a normalized tuple of factors; `terms` holds sorted
    (weight, chain) pairs with distinct chains and nonzero weights.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable = ()):
        merged = {}
        for weight, factors in terms:
            if isinstance(weight, bool):
                raise ValueError(f"a chain weight must be rational, not {weight!r}")
            weight = _fr(weight)
            chain = _normalize_chain(factors)
            if chain is not None:
                merged[chain] = _fr(merged.get(chain, 0) + weight)
        self.terms = tuple(
            (w, chain)
            for chain, w in sorted(
                merged.items(), key=lambda kv: _chain_key(kv[0])
            )
            if w
        )

    def __eq__(self, other):
        return isinstance(other, IntDiffOperator) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __add__(self, other):
        if not isinstance(other, IntDiffOperator):
            return NotImplemented
        return IntDiffOperator(self.terms + other.terms)

    def __repr__(self):
        return operator_text(self)


def term(*factors) -> tuple:
    """The normalized chain of `factors`; a zero multiplier gives (0,)."""
    chain = _normalize_chain(factors)
    return (DiffPoly.zero(),) if chain is None else chain


# -- evaluation -----------------------------------------------------------------


def apply(operator: IntDiffOperator, f: DiffPoly) -> DiffPoly:
    """Evaluate the operator on a ring element, exactly.

    Every d^-1 is resolved through the integration engine; irreducible
    remainders become antiderivative atoms in the result.

    The chains are evaluated as one tree.  Every factor is linear (a
    multiplier, d, or d^-1 with canonical atoms), so the chains that begin
    with the same factor are summed first and that factor is applied once to
    the sum.  A lone chain is evaluated once per call and enters the sum
    with its weight wherever it is met again.  Each sum integrated here is a
    linear combination of what term-by-term evaluation integrates, so its
    monomials are a subset of theirs: this can raise only where applying
    each chain on its own raises.
    """
    return poly_sum(_tree_pieces(operator.terms, {(): f}))


def _tree_pieces(branches, memo: dict):
    """The (weight, chain(f)) pieces of the (weight, chain) branches' sum.

    memo[()] is f.  Pieces are made one at a time, so `poly_sum` adds each
    into its sum before the next is computed.
    """
    heads = {}
    for weight, chain in branches:
        if chain:
            heads.setdefault(chain[0], []).append((weight, chain[1:]))
        else:
            yield weight, memo[()]
    for head, rest in heads.items():
        if len(rest) == 1:
            weight, chain = rest[0]
            yield weight, _apply_factor(head, _lone_chain(chain, memo))
        else:
            yield 1, _apply_factor(head, poly_sum(_tree_pieces(rest, memo)))


def _lone_chain(chain, memo: dict) -> DiffPoly:
    """The value of one unweighted chain on memo[()], memoized with its suffixes."""
    value = memo.get(chain)
    if value is None:
        inner = _lone_chain(chain[1:], memo)
        value = memo[chain] = _apply_factor(chain[0], inner)
    return value


def _apply_factor(factor, value: DiffPoly) -> DiffPoly:
    if factor is DX:
        return d_x(value)
    if factor is DXINV:
        return antiderivative(value)
    return factor * value


def expand_term_to_psido(chain: tuple, depth: int) -> PsiDO:
    require_int(depth, "expansion depth", 1)
    budgets = []
    need = depth
    for factor in chain:
        budgets.append(need)
        if factor is DX:
            need += 1
    acc = None
    for factor, budget in zip(reversed(chain), reversed(budgets)):
        if factor is DX:
            piece = PsiDO.d()
        elif factor is DXINV:
            piece = PsiDO.d(-1)
        else:
            piece = PsiDO.from_poly(factor)
        if acc is None:
            acc = piece
        else:
            cap = None
            if piece.is_exact and acc.is_exact:
                cap = budget
            acc = compose(piece, acc, cap)
    return acc


def expand_to_psido(operator: IntDiffOperator, depth: int) -> PsiDO:
    """Series form, every d^-1 expanded by Leibniz, at the shallowest depth."""
    require_int(depth, "expansion depth", 1)
    series = (w * expand_term_to_psido(c, depth) for w, c in operator.terms)
    return sum(series, PsiDO.zero(depth))


# -- payload substitutions ---------------------------------------------------


def _map_payloads(operator: IntDiffOperator, fn) -> IntDiffOperator:
    return IntDiffOperator(
        (weight, tuple(fn(f) if _is_mul(f) else f for f in chain))
        for weight, chain in operator.terms
    )


def substitute_r_to_q(operator: IntDiffOperator) -> IntDiffOperator:
    """Apply the q = r reduction inside every multiplier payload."""
    return _map_payloads(operator, poly_substitute_r_to_q)


def swap_q_r(operator: IntDiffOperator) -> IntDiffOperator:
    return _map_payloads(operator, poly_swap_q_r)


# -- chain rewrites -----------------------------------------------------------


def eliminate_trailing_dx(operator: IntDiffOperator) -> IntDiffOperator:
    """Rewrite ... d^-1 f d ... as ... f ... - ... d^-1 f_x ... everywhere.

    Sound under the zero-constant convention, where d^-1 d = d d^-1 = id on
    application.
    """
    out = []
    stack = list(operator.terms)
    while stack:
        weight, chain = stack.pop()
        hit = None
        for i in range(len(chain) - 2):
            if (
                chain[i] is DXINV
                and _is_mul(chain[i + 1])
                and chain[i + 2] is DX
            ):
                hit = i
                break
        if hit is None:
            out.append((weight, chain))
            continue
        f = chain[hit + 1]
        head, tail = chain[:hit], chain[hit + 3 :]
        stack.append((weight, term(*head, f, *tail)))
        dxf = d_x(f)
        if not dxf.is_zero:
            stack.append(
                (-weight, term(*head, DXINV, dxf, *tail))
            )
    return IntDiffOperator(out)


# -- rendering -----------------------------------------------------------------


def _run_length_factors(chain):
    out = []
    for factor in chain:
        if factor in (DX, DXINV) and out and out[-1][0] is factor:
            out[-1] = (factor, out[-1][1] + 1)
        else:
            out.append((factor, 1))
    return out


def _render_chain(chain: tuple, s) -> str:
    pieces = []
    for factor, count in _run_length_factors(chain):
        if factor is DX:
            pieces.append(_power(s, s.d, count))
        elif factor is DXINV:
            pieces.append(_power(s, s.d, -count))
        else:
            pieces.append(_grouped(factor, s))
    return " ".join(pieces)


def _render(operator: IntDiffOperator, s) -> str:
    pieces = []
    for weight, chain in operator.terms:
        body = _render_chain(chain, s)
        mag = abs(weight)
        pieces.append((weight, body if mag == 1 else f"{s.coeff(mag)} {body}"))
    return _signed_sum(pieces, s.minus)


def operator_text(operator: IntDiffOperator) -> str:
    return _render(operator, TEXT)


def operator_latex(operator: IntDiffOperator) -> str:
    return _render(operator, LATEX)


def operator_json(operator: IntDiffOperator) -> dict:
    terms = []
    for weight, chain in operator.terms:
        factors = []
        for factor in chain:
            if factor is DX:
                factors.append({"kind": "dx"})
            elif factor is DXINV:
                factors.append({"kind": "dxinv"})
            else:
                factors.append({"kind": "mul", "poly": poly_json(factor)})
        terms.append({"weight": str(weight), "chain": factors})
    return {"terms": terms}


def operator_from_json(data: dict) -> IntDiffOperator:
    try:
        out = []
        for entry in data["terms"]:
            chain = []
            for factor in entry["chain"]:
                kind = factor["kind"]
                if kind == "dx":
                    chain.append(DX)
                elif kind == "dxinv":
                    chain.append(DXINV)
                elif kind == "mul":
                    chain.append(poly_from_json(factor["poly"]))
                else:
                    raise GrammarError(f"unknown chain factor kind {kind!r}")
            weight = rational_from_json(entry["weight"])
            out.append((weight, chain))
        return IntDiffOperator(out)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise GrammarError(f"malformed operator JSON: {exc}") from exc
