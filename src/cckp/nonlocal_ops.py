"""Integro-differential operators as formal sums of factor chains.

A chain is an ordered list of factors -- multipliers, d/dx, and the formal
antiderivative -- applied right-to-left to a ring element.  Adjacent
multipliers merge on construction, but d * d^-1 pairs are kept explicit;
cancelling them is a separate rewrite, since d^-1 * d is the identity only
under the engine's zero-constant convention.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .diffring import (
    DEFAULT_NESTING_LIMIT,
    DiffPoly,
    antiderivative,
    d_x,
    substitute_r_to_q as poly_substitute_r_to_q,
    swap_q_r as poly_swap_q_r,
)
from .errors import GrammarError
from .grammar import (
    LATEX,
    TEXT,
    _grouped,
    _power,
    _signed_sum,
    poly_from_json,
    poly_json,
)
from .psido import EXACT_DEPTH, PsiDO, compose

DX = "D"
DXINV = "Dinv"


def _is_mul(factor) -> bool:
    return isinstance(factor, DiffPoly)


def _normalize_chain(factors) -> tuple:
    out = []
    for f in factors:
        if f in (DX, DXINV):
            out.append(f)
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
    return tuple(
        ("m", f.terms) if _is_mul(f) else (f,) for f in chain
    )


class IntDiffTerm:
    """One weighted chain of multiplier / d / d^-1 factors."""

    __slots__ = ("chain",)

    def __init__(self, factors: Iterable):
        chain = _normalize_chain(factors)
        if chain is None:
            chain = (DiffPoly.zero(),)
        self.chain = chain

    def __eq__(self, other):
        return isinstance(other, IntDiffTerm) and _chain_key(
            self.chain
        ) == _chain_key(other.chain)

    def __hash__(self):
        return hash(_chain_key(self.chain))

    def __repr__(self):
        return term_text(self)


class IntDiffOperator:
    """Rational-weighted sum of chains, canonical up to chain identity."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable = ()):
        merged = {}
        for weight, term in terms:
            weight = Fraction(weight)
            if not isinstance(term, IntDiffTerm):
                term = IntDiffTerm(term)
            key = _chain_key(term.chain)
            if key in merged:
                merged[key] = (merged[key][0] + weight, term)
            else:
                merged[key] = (weight, term)
        self.terms = tuple(
            (w, t)
            for key, (w, t) in sorted(merged.items(), key=lambda kv: kv[0])
            if w and not _chain_is_zero(t.chain)
        )

    def __eq__(self, other):
        return isinstance(other, IntDiffOperator) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple((w, _chain_key(t.chain)) for w, t in self.terms))

    def __add__(self, other):
        if not isinstance(other, IntDiffOperator):
            return NotImplemented
        return IntDiffOperator(self.terms + other.terms)

    def __neg__(self):
        return IntDiffOperator(tuple((-w, t) for w, t in self.terms))

    def __sub__(self, other):
        if not isinstance(other, IntDiffOperator):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return IntDiffOperator(
                tuple((w * scalar, t) for w, t in self.terms)
            )
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        return operator_text(self)

    def __call__(self, f: DiffPoly, nesting_limit: int = DEFAULT_NESTING_LIMIT):
        return apply(self, f, nesting_limit)


def term(*factors) -> IntDiffTerm:
    return IntDiffTerm(factors)


def op(*weighted_terms) -> IntDiffOperator:
    return IntDiffOperator(weighted_terms)


def from_poly(p: DiffPoly) -> IntDiffOperator:
    return IntDiffOperator(((Fraction(1), IntDiffTerm((p,))),))


def _chain_is_zero(chain) -> bool:
    return len(chain) == 1 and _is_mul(chain[0]) and chain[0].is_zero


# -- evaluation -----------------------------------------------------------------


def apply_term(
    t: IntDiffTerm, f: DiffPoly, nesting_limit: int = DEFAULT_NESTING_LIMIT
) -> DiffPoly:
    out = f
    for factor in reversed(t.chain):
        if factor is DX:
            out = d_x(out)
        elif factor is DXINV:
            out = antiderivative(out, nesting_limit)
        else:
            out = factor * out
    return out


def apply(
    operator: IntDiffOperator,
    f: DiffPoly,
    nesting_limit: int = DEFAULT_NESTING_LIMIT,
) -> DiffPoly:
    """Evaluate the operator on a ring element, exactly.

    Every d^-1 is resolved through the integration engine; irreducible
    remainders become antiderivative atoms in the result.
    """
    out = DiffPoly.zero()
    for weight, t in operator.terms:
        out = out + weight * apply_term(t, f, nesting_limit)
    return out


def expand_term_to_psido(t: IntDiffTerm, depth: int) -> PsiDO:
    if depth < 1:
        raise ValueError("expansion depth must be >= 1")
    budgets = []
    need = depth
    for factor in t.chain:
        budgets.append(need)
        if factor is DX:
            need += 1
    acc = None
    for factor, budget in zip(reversed(t.chain), reversed(budgets)):
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
            if piece.trunc_depth >= EXACT_DEPTH and acc.trunc_depth >= EXACT_DEPTH:
                cap = budget
            acc = compose(piece, acc, cap)
    return acc


def expand_to_psido(operator: IntDiffOperator, depth: int) -> PsiDO:
    """Series form of the operator: every d^-1 expanded by Leibniz."""
    out = PsiDO.zero(depth)
    for weight, t in operator.terms:
        expanded = expand_term_to_psido(t, depth)
        if expanded.trunc_depth > depth:
            expanded = PsiDO(
                {k: c for k, c in expanded.coeffs.items() if k >= -depth},
                depth,
            )
        out = out + expanded * weight
    return out


# -- payload substitutions ---------------------------------------------------


def _map_payloads(operator: IntDiffOperator, fn) -> IntDiffOperator:
    out = []
    for weight, t in operator.terms:
        chain = tuple(fn(f) if _is_mul(f) else f for f in t.chain)
        out.append((weight, IntDiffTerm(chain)))
    return IntDiffOperator(out)


def substitute_r_to_q(operator: IntDiffOperator) -> IntDiffOperator:
    """Apply the q = r reduction inside every multiplier payload."""
    return _map_payloads(operator, poly_substitute_r_to_q)


def swap_q_r(operator: IntDiffOperator) -> IntDiffOperator:
    return _map_payloads(operator, poly_swap_q_r)


# -- chain rewrites -----------------------------------------------------------


def distribute(operator: IntDiffOperator) -> IntDiffOperator:
    """Split every multiplier into monic monomials, weights carrying content."""
    out = []
    for weight, t in operator.terms:
        pieces = [(weight, [])]
        for factor in t.chain:
            if not _is_mul(factor):
                for _, chain in pieces:
                    chain.append(factor)
                continue
            new_pieces = []
            for w, chain in pieces:
                for key, c in factor.terms:
                    mono = DiffPoly(((key, Fraction(1)),))
                    new_pieces.append((w * c, chain + [mono]))
            pieces = new_pieces
        out.extend((w, IntDiffTerm(chain)) for w, chain in pieces)
    return IntDiffOperator(out)


def eliminate_trailing_dx(operator: IntDiffOperator) -> IntDiffOperator:
    """Rewrite ... d^-1 f d ... as ... f ... - ... d^-1 f_x ... everywhere.

    Sound under the zero-constant convention, where d^-1 d = d d^-1 = id on
    application.
    """
    out = []
    stack = list(operator.terms)
    while stack:
        weight, t = stack.pop()
        chain = t.chain
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
            out.append((weight, t))
            continue
        f = chain[hit + 1]
        head, tail = chain[:hit], chain[hit + 3 :]
        stack.append((weight, IntDiffTerm(head + (f,) + tail)))
        dxf = d_x(f)
        if not dxf.is_zero:
            stack.append(
                (-weight, IntDiffTerm(head + (DXINV, dxf) + tail))
            )
    return IntDiffOperator(out)


def collapse_exact_pairs(operator: IntDiffOperator) -> IntDiffOperator:
    """Merge d^-1(A k v + dA d^-1(k v)) into A d^-1(k v) for atom factors A.

    Matches, with equal weights, a chain ending in [d^-1, A*k] against one
    ending in [d^-1, integrand(A), d^-1, k]; both are replaced by the single
    chain [A, d^-1, k].  This is the by-parts collapse used to put the reduced
    operator into its short form.
    """
    terms = list(operator.terms)
    result = []
    used = [False] * len(terms)
    for i, (wi, ti) in enumerate(terms):
        if used[i]:
            continue
        chain = ti.chain
        match = None
        if len(chain) >= 2 and chain[-2] is DXINV and _is_mul(chain[-1]):
            payload = chain[-1]
            if len(payload.terms) == 1:
                (jets, atoms, scale), coeff = payload.terms[0]
                for akey, power in atoms:
                    if power != 1:
                        continue
                    remaining = tuple(
                        (k, p) for k, p in atoms if k != akey
                    )
                    k_poly = DiffPoly(
                        (((jets, remaining, scale), coeff),)
                    )
                    integrand = DiffPoly(akey)
                    partner = IntDiffTerm(
                        chain[:-2] + (DXINV, integrand, DXINV, k_poly)
                    )
                    pkey = _chain_key(partner.chain)
                    for j, (wj, tj) in enumerate(terms):
                        if used[j] or j == i:
                            continue
                        if wj == wi and _chain_key(tj.chain) == pkey:
                            atom_poly = DiffPoly(
                                ((((), ((akey, 1),), 0), Fraction(1)),)
                            )
                            match = (
                                j,
                                IntDiffTerm(
                                    chain[:-2]
                                    + (atom_poly, DXINV, k_poly)
                                ),
                            )
                            break
                    if match:
                        break
        if match:
            j, new_term = match
            used[i] = used[j] = True
            result.append((wi, new_term))
        else:
            used[i] = True
            result.append((wi, ti))
    return IntDiffOperator(result)


# -- rendering -----------------------------------------------------------------


def _run_length_factors(chain):
    out = []
    for factor in chain:
        if factor in (DX, DXINV) and out and out[-1][0] is factor:
            out[-1] = (factor, out[-1][1] + 1)
        else:
            out.append((factor, 1))
    return out


def _render_term(t: IntDiffTerm, s) -> str:
    pieces = []
    for factor, count in _run_length_factors(t.chain):
        if factor is DX:
            pieces.append(_power(s, s.d, count))
        elif factor is DXINV:
            pieces.append(_power(s, s.d, -count))
        else:
            pieces.append(_grouped(factor, s))
    return " ".join(pieces)


def _render(operator: IntDiffOperator, s) -> str:
    pieces = []
    for weight, t in operator.terms:
        body = _render_term(t, s)
        mag = abs(weight)
        pieces.append((weight, body if mag == 1 else f"{s.coeff(mag)} {body}"))
    return _signed_sum(pieces, s.minus)


def term_text(t: IntDiffTerm) -> str:
    return _render_term(t, TEXT)


def term_latex(t: IntDiffTerm) -> str:
    return _render_term(t, LATEX)


def operator_text(operator: IntDiffOperator) -> str:
    return _render(operator, TEXT)


def operator_latex(operator: IntDiffOperator) -> str:
    return _render(operator, LATEX)


def operator_json(operator: IntDiffOperator) -> dict:
    terms = []
    for weight, t in operator.terms:
        chain = []
        for factor in t.chain:
            if factor is DX:
                chain.append({"kind": "dx"})
            elif factor is DXINV:
                chain.append({"kind": "dxinv"})
            else:
                chain.append({"kind": "mul", "poly": poly_json(factor)})
        terms.append({"weight": str(weight), "chain": chain})
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
            out.append((Fraction(entry["weight"]), IntDiffTerm(chain)))
        return IntDiffOperator(out)
    except (KeyError, TypeError, ValueError) as exc:
        raise GrammarError(f"malformed operator JSON: {exc}") from exc
