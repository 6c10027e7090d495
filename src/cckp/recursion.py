"""The recursion matrix mapping the t_m flow to the t_(m+2) flow, and its
reduction to the mKdV recursion operator under q = r."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import hierarchy
from .diffring import (
    DiffPoly,
    _lam_factors,
    _lam_power,
    _rename_q_to_u,
    antiderivative,
)
from .errors import ResidualNonlocal
from .hierarchy import CheckReport, FlowPair, bn, by_order
from .nonlocal_ops import (
    DX,
    DXINV,
    IntDiffOperator,
    _map_payloads,
    apply,
    eliminate_trailing_dx,
    expand_term_to_psido,
    expand_to_psido,
    substitute_r_to_q,
    swap_q_r,
    term,
)
from .psido import adjoint, apply as psido_apply, compose, minus_part, residuals

_Q = DiffPoly.jet("q")
_R = DiffPoly.jet("r")
_QX = DiffPoly.jet("q", 1)
_RX = DiffPoly.jet("r", 1)
_V = DiffPoly.jet("v")
_W = DiffPoly.jet("w")


def eigen_image_q() -> DiffPoly:
    """The Lax operator applied to q: q_x + q*I(qr) + r*I(q^2)."""
    return _QX + _Q * antiderivative(_R * _Q) + _R * antiderivative(_Q * _Q)


def eigen_image_r() -> DiffPoly:
    """The Lax operator applied to r: r_x + q*I(r^2) + r*I(qr)."""
    return _RX + _Q * antiderivative(_R * _R) + _R * antiderivative(_Q * _R)


@dataclass(frozen=True)
class RecursionMatrix:
    r11: IntDiffOperator
    r12: IntDiffOperator
    r21: IntDiffOperator
    r22: IntDiffOperator


@lru_cache(maxsize=None)
def build_matrix() -> RecursionMatrix:
    """The four entries, with the squared-Lax block expanded to chains.

    The square of the Lax operator contributes d^2 + 4qr plus four nonlocal
    chains built from its action on the eigenfunctions; the remaining terms
    are carried verbatim.
    """
    lam_q = eigen_image_q()
    lam_r = eigen_image_r()
    lam_star_q = -lam_q
    lam_star_r = -lam_r
    i_qr = antiderivative(_Q * _R)
    i_qq = antiderivative(_Q * _Q)
    i_rr = antiderivative(_R * _R)

    r11 = IntDiffOperator(
        (
            (1, term(DX, DX)),
            (4, term(_Q * _R)),
            (1, term(_Q, DXINV, lam_star_r)),
            (1, term(_R, DXINV, lam_star_q)),
            (1, term(lam_q, DXINV, _R)),
            (1, term(lam_r, DXINV, _Q)),
            (3, term(_Q * _R)),
            (1, term(lam_r, DXINV, _Q)),
            (2, term(_QX, DXINV, _R)),
            (-1, term(_Q, DXINV, _Q * _R, DXINV, _R)),
            (-1, term(_R, DXINV, _Q, DX)),
            (-1, term(_R, DXINV, _Q * _Q, DXINV, _R)),
            (-2, term(_R, DXINV, _R * _Q, DXINV, _Q)),
            (-1, term(_R, DXINV, _Q * i_qr)),
            (-1, term(_Q, DXINV, _Q * i_rr)),
        )
    )
    r12 = IntDiffOperator(
        (
            (2, term(_QX, DXINV, _Q)),
            (3, term(_Q * _Q)),
            (-2, term(_Q, DXINV, _Q * _Q, DXINV, _R)),
            (-1, term(_Q, DXINV, _Q, DX)),
            (-1, term(_Q, DXINV, _Q * _R, DXINV, _Q)),
            (-1, term(_R, DXINV, _Q * _Q, DXINV, _Q)),
            (-1, term(_Q, DXINV, _Q * i_qr)),
            (-1, term(_R, DXINV, _Q * i_qq)),
            (1, term(lam_q, DXINV, _Q)),
        )
    )
    return RecursionMatrix(
        r11=r11, r12=r12, r21=swap_q_r(r12), r22=swap_q_r(r11)
    )


@lru_cache(maxsize=None)
def step_matrix() -> RecursionMatrix:
    """The matrix of `build_matrix()` with only local payloads.

    Each atom payload is integrated by parts,
      m d^-1 (B I(h)) = m I(h) d^-1 B - m d^-1 h d^-1 B,
    which holds on application under the zero-constant convention; the
    heads of chains with equal tails are then summed, and every atom
    cancels.  With local payloads, a d^-1 meets an atom only where an inner
    d^-1 left one, and on the hierarchy's flows none does.
    """
    r11 = IntDiffOperator(
        (
            (1, term(DX, DX)),
            (-1, term(_Q, DXINV, _RX)),
            (2, term(_Q, DXINV, _R * _R, DXINV, _Q)),
            (7, term(_Q * _R)),
            (3, term(_QX, DXINV, _R)),
            (-1, term(_R, DXINV, _Q, DX)),
            (-1, term(_R, DXINV, _QX)),
            (2, term(_RX, DXINV, _Q)),
        )
    )
    r12 = IntDiffOperator(
        (
            (-1, term(_Q, DXINV, _Q, DX)),
            (-2, term(_Q, DXINV, _Q * _Q, DXINV, _R)),
            (3, term(_Q * _Q)),
            (3, term(_QX, DXINV, _Q)),
        )
    )
    return RecursionMatrix(
        r11=r11, r12=r12, r21=swap_q_r(r12), r22=swap_q_r(r11)
    )


def step(
    flow_pair: FlowPair, matrix: RecursionMatrix | None = None
) -> FlowPair:
    """Map the t_m flow to the t_(m+2) flow through the recursion matrix.

    The default matrix is `step_matrix()`, equal to the paper's
    `build_matrix()` on application.  Every antiderivative atom produced
    along the way must cancel in the summed result; a surviving atom
    signals an encoding or integration defect and raises
    `ResidualNonlocal`.
    """
    mat = matrix if matrix is not None else step_matrix()
    q_next = apply(mat.r11, flow_pair.q_t) + apply(mat.r12, flow_pair.r_t)
    r_next = apply(mat.r21, flow_pair.q_t) + apply(mat.r22, flow_pair.r_t)
    for label, value in (("q", q_next), ("r", r_next)):
        if not value.is_local:
            raise ResidualNonlocal(
                f"atoms failed to cancel in the {label} component: "
                f"{value.atom_part()!r}"
            )
    return FlowPair(flow_pair.m + 2, q_next, r_next)


@lru_cache(maxsize=None)
def reduce_matrix() -> IntDiffOperator:
    """The operator governing q_t under q = r: substitute, sum, simplify.

    Under q = r the row sum r11 + r12 of `step_matrix()` is
      d^2 - 2 q d^-1 q d - 2 q d^-1 q' + 10 q^2 + 8 q' d^-1 q,
    its two double-d^-1 chains having cancelled in the sum.  Rewriting
    d^-1 q d as q - d^-1 q' leaves the three-term mKdV recursion operator
    d^2 + 8 q^2 + 8 q' d^-1 q.
    """
    mat = step_matrix()
    total = substitute_r_to_q(mat.r11) + substitute_r_to_q(mat.r12)
    return eliminate_trailing_dx(total)


def mkdv_recursion_literal() -> IntDiffOperator:
    """d^2 + 8 q^2 + 8 q_x d^-1 q."""
    return IntDiffOperator(
        (
            (1, term(DX, DX)),
            (8, term(_Q * _Q)),
            (8, term(_QX, DXINV, _Q)),
        )
    )


def scaled_mkdv_literal() -> IntDiffOperator:
    """d^2 + (2/3) u^2 + (2/3) u_x d^-1 u."""
    u = DiffPoly.jet("u")
    ux = DiffPoly.jet("u", 1)
    return IntDiffOperator(
        (
            (1, term(DX, DX)),
            (Fraction(2, 3), term(u * u)),
            (Fraction(2, 3), term(ux, DXINV, u)),
        )
    )


def scale_operator(operator: IntDiffOperator, lambda_sq) -> IntDiffOperator:
    """Substitute q = lam*u in every payload and resolve lam^2 per chain.

    Each payload must be homogeneous in the scale constant; the exponents
    collected along a chain must sum to an even number, which holds exactly
    when every term of the operator has even total degree in q.  Every
    payload and chain is checked before any payload is renamed.
    """
    exponents = [
        (sum(_lam_power(f) for f in chain if f not in (DX, DXINV)), chain)
        for _, chain in operator.terms
    ]
    factors = _lam_factors(lambda_sq, exponents)
    scaled = IntDiffOperator(
        (weight * f, chain)
        for (weight, chain), f in zip(operator.terms, factors)
    )
    return _map_payloads(scaled, _rename_q_to_u)


LAMBDA_SQ = Fraction(1, 12)  # the paper's lam^2 in q = lam*u


def scaled_mkdv_operator() -> IntDiffOperator:
    """The reduced operator rescaled by q = lam*u with lam^2 = LAMBDA_SQ."""
    return scale_operator(reduce_matrix(), LAMBDA_SQ)


def verify_aratyn_identities(
    n: int, f: DiffPoly, g: DiffPoly, depth: int = 4
) -> CheckReport:
    """The three operator identities behind the recursion construction.

    For the generator B of the t_n flow, checks to the given depth that
      (B f d^-1 g)_-  =  B(f) d^-1 g,
      (f d^-1 g B)_-  =  f d^-1 B*(g),
      f1 d^-1 g1 f2 d^-1 g2 = f1 (int g1 f2) d^-1 g2 - f1 d^-1 g2 (int f2 g1)
    with (f1, g1, f2, g2) = (f, g, g, f) in the third.

    The first two are proved once per (n, depth) for the free symbols v, w
    (`_generic_identities`), which covers every f and g: the substitution
    phi: v^(j) -> f^(j), w^(j) -> g^(j), fixing q and r, is a homomorphism
    of differential rings, and the two identities use only ring operations,
    d_x, rational binomials and order bookkeeping (`compose`, the expansion
    of a formal d^-1, `psido.apply`, `adjoint`, `minus_part`, `residuals`),
    none of which integrates.  Every truncation depth depends only on
    operand orders, so the residuals for (f, g) are phi of those for (v, w),
    and no generic residual means none for any pair.  Only when a generic
    residual survives are the two computed for this f and g, so a failure
    reports the pair's own residuals.  The third identity integrates g f,
    and integration does not commute with phi, so it is checked per pair.
    """
    res1, res2 = _generic_identities(n, depth)
    if res1 or res2:
        res1, res2 = _operator_identities(n, f, g, depth)
    collected = []
    for label, res in (
        ("differential-part identity", res1),
        ("adjoint identity", res2),
        ("antiderivative product identity", _product_identity(f, g, depth)),
    ):
        collected.extend(by_order(res, f"{label}, "))
    return CheckReport.of(f"recursion-identities t_{n}", collected)


def _operator_identities(n: int, f: DiffPoly, g: DiffPoly, depth: int) -> tuple:
    """Per-order residuals of the first two identities for this f and g."""
    generator = bn(n)
    fg = expand_term_to_psido(term(f, DXINV, g), depth + n)

    lhs1 = minus_part(compose(generator, fg))
    rhs1 = expand_term_to_psido(
        term(psido_apply(generator, f), DXINV, g), depth
    )
    res1 = residuals(lhs1, minus_part(rhs1), depth)

    lhs2 = minus_part(compose(fg, generator))
    adj_g = psido_apply(adjoint(generator), g)
    rhs2 = expand_term_to_psido(term(f, DXINV, adj_g), depth)
    res2 = residuals(lhs2, minus_part(rhs2), depth)
    return res1, res2


@lru_cache(maxsize=None, typed=True)
def _generic_identities(n: int, depth: int) -> tuple:
    """The first two identities' residuals for the free symbols v and w.

    The memo is typed, so `True` or `4.0` never reads the entry of 1 or 4.
    """
    return _operator_identities(n, _V, _W, depth)


@lru_cache(maxsize=None)
def _product_identity(f: DiffPoly, g: DiffPoly, depth: int) -> dict:
    """Per-order residuals of the third identity, which does not involve n."""
    f1, g1, f2, g2 = f, g, g, f
    e1 = expand_term_to_psido(term(f1, DXINV, g1), depth + 1)
    e2 = expand_term_to_psido(term(f2, DXINV, g2), depth + 1)
    lhs3 = compose(e1, e2)
    inner = antiderivative(g1 * f2)
    rhs3 = expand_to_psido(
        IntDiffOperator(
            (
                (1, term(f1 * inner, DXINV, g2)),
                (-1, term(f1, DXINV, g2 * inner)),
            )
        ),
        depth,
    )
    return residuals(lhs3, rhs3, depth)


def clear_caches() -> None:
    """Empty every memo table of the recursion layer and the layers below.

    The tables are process-global and unbounded; later calls refill what
    they need.  Do not call it while another thread is computing.
    """
    for cached in (
        build_matrix,
        step_matrix,
        reduce_matrix,
        _generic_identities,
        _product_identity,
    ):
        cached.cache_clear()
    hierarchy.clear_caches()
