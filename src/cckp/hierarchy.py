"""The 1-constrained CKP hierarchy: Lax operator, generators, odd flows, checks.

The Lax operator is d + q d^-1 r + r d^-1 q.  Its odd powers generate the
flow equations q_t = B_n(q), r_t = B_n(r) with B_n the differential part of
the n-th power; even flows are frozen by the skew-adjointness constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import diffring
from .diffring import DiffPoly, d_x, poly_sum, prolong_t
from .errors import DepthExhausted, require_int
from .psido import (
    PsiDO,
    adjoint,
    apply,
    commutator,
    gbinom,
    minus_part,
    residuals,
    residue,
)

_Q = DiffPoly.jet("q")
_R = DiffPoly.jet("r")


@dataclass(frozen=True)
class FlowPair:
    """One time-flow of the hierarchy: the pair (q_t, r_t)."""

    m: int
    q_t: DiffPoly
    r_t: DiffPoly

    def __post_init__(self):
        require_int(self.m, "flow index", 1)
        if self.m % 2 == 0:
            raise ValueError("flow index must be a positive odd integer")
        if not (self.q_t.is_local and self.r_t.is_local):
            raise ValueError("hierarchy flows must be local")


@lru_cache(maxsize=None)
def _lax_tail(i: int) -> DiffPoly:
    """L's d^-i coefficient (-1)^(i-1) (q r^(i-1) + r q^(i-1))."""
    sign = (-1) ** (i - 1)
    return poly_sum(((sign, _Q * d_x(_R, i - 1)), (sign, _R * d_x(_Q, i - 1))))


@lru_cache(maxsize=None)
def _tail_sum(s: int, t: int) -> DiffPoly:
    """sum_{i=1..t} C(s, t-i) d_x(_lax_tail(i), t-i).

    These are L's tails that a coefficient c d^s of L^(k-1) meets on its
    way to d^(s-t); summed once, for every k, they multiply c in one product.
    """
    return poly_sum(
        (b, d_x(_lax_tail(i), t - i))
        for i in range(1, t + 1)
        if (b := gbinom(s, t - i))
    )


@lru_cache(maxsize=None)
def _power_coeff(k: int, j: int) -> DiffPoly:
    """Coefficient of d^j in L^k, exact: L^k = L^(k-1) o L, L^0 = 1.

    By the Leibniz rule, c d^s o d = c d^(s+1) and, for each tail t_i d^-i
    of L, c d^s o t_i d^-i = sum_m C(s, m) c t_i^(m) d^(s-i-m): only the
    tails of L are differentiated.  The pieces that land on d^j from one
    c d^s share c, so their tails are summed first (`_tail_sum`).  L^(k-1)
    has top order k-1.
    """
    if k == 0:
        return DiffPoly.one() if j == 0 else DiffPoly.zero()
    return poly_sum(_power_pieces(k, j))


def _power_pieces(k: int, j: int):
    """The products that sum to `_power_coeff(k, j)`, one per order s of L^(k-1).

    They are made one at a time, so `poly_sum` adds each into its sum
    before the next is computed.
    """
    yield 1, _power_coeff(k - 1, j - 1)
    for s in range(j + 1, k):
        c = _power_coeff(k - 1, s)
        if not c.is_zero and not (tails := _tail_sum(s, s - j)).is_zero:
            yield 1, c * tails


def lax_power(n: int, depth: int | None = None) -> PsiDO:
    """L^n with the trusted depth of n-fold composition of L at `depth`.

    The default depth budget is n + 3.  Each composition with L loses one
    trusted order, so the result is exact down to order -(depth - n + 1).
    """
    require_int(n, "power", 1)
    if depth is None:
        depth = n + 3
    require_int(depth, "depth", 1)
    eff = depth - n + 1
    if eff < 0:
        raise DepthExhausted(
            f"L^{n} needs depth >= {n - 1} to be trusted at any order"
        )
    return PsiDO({j: _power_coeff(n, j) for j in range(-eff, n + 1)}, eff)


def lax_operator(depth: int) -> PsiDO:
    """d + q d^-1 r + r d^-1 q, with the integral tail expanded to `depth`."""
    return lax_power(1, depth)


def bn(n: int) -> PsiDO:
    """The flow generator: differential part of L^n, exact at every order."""
    require_int(n, "flow index", 1)
    if n % 2 == 0:
        raise ValueError("the hierarchy has odd flows only")
    return PsiDO({j: _power_coeff(n, j) for j in range(n + 1)})


@lru_cache(maxsize=None, typed=True)
def flow(n: int) -> FlowPair:
    """The t_n flow (B_n(q), B_n(r)).

    The memo is typed, so `True` or `3.0` never reads the entry of 1 or 3;
    `bn` refuses them before any entry is stored.
    """
    generator = bn(n)
    return FlowPair(n, apply(generator, _Q), apply(generator, _R))


def clear_caches() -> None:
    """Empty every memo table of the hierarchy, the ring and the integrator.

    The tables are process-global and unbounded; later calls refill what
    they need.  Do not call it while another thread is computing.
    """
    for cached in (_lax_tail, _tail_sum, _power_coeff, flow):
        cached.cache_clear()
    diffring.clear_caches()


def prolong_flow(p: DiffPoly, n: int) -> DiffPoly:
    fp = flow(n)
    return prolong_t(p, fp.q_t, fp.r_t)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification: zero residuals mean success."""

    name: str
    passed: bool
    residuals: tuple

    @classmethod
    def of(cls, name: str, residuals) -> "CheckReport":
        """A report on (label, residual) pairs; it passes if there are none."""
        residuals = tuple(residuals)
        return cls(name, not residuals, residuals)


def by_order(res: dict, prefix: str = "") -> list:
    """Label per-order residuals `<prefix>order k`, highest order first."""
    return [
        (f"{prefix}order {k}", diff)
        for k, diff in sorted(res.items(), reverse=True)
    ]


def check_skew(depth: int) -> CheckReport:
    """Per-order residuals of L* + L; all must vanish."""
    lax = lax_operator(depth)
    total = adjoint(lax, depth) + lax
    return CheckReport.of("skew-adjointness", by_order(total.coeffs))


def lax_time_derivative(n: int, depth: int) -> PsiDO:
    """dL/dt_n computed coefficient-wise through the flow prolongation."""
    fp = flow(n)
    lax = lax_operator(depth)
    return PsiDO(
        {k: prolong_t(c, fp.q_t, fp.r_t) for k, c in lax.coeffs.items()},
        depth,
    )


def check_lax(n: int, depth: int) -> CheckReport:
    """Compare dL/dt_n with [B_n, L] down to order -depth."""
    lax_depth = n + depth
    lhs = lax_time_derivative(n, lax_depth)
    rhs = commutator(bn(n), lax_operator(lax_depth))
    return CheckReport.of(
        f"lax-equation t_{n}", by_order(residuals(lhs, rhs, depth))
    )


def right_coefficients(a: PsiDO, count: int) -> list:
    """Rewrite the integral part as d^-1 a_1 + d^-2 a_2 + ... and return [a_j].

    The adjoint of d^-j a_j is (-1)^j a_j d^-j, so a_j is (-1)^j times the
    d^-j coefficient of the integral part's adjoint.
    """
    star = adjoint(minus_part(a), count)
    return [(-1) ** j * star.coeff(-j) for j in range(1, count + 1)]


def check_residue_coefficients(m: int) -> CheckReport:
    """Verify d_x(a_1) = 2 (qr)_t and a_2 = (qr)_t in right-coefficient form."""
    a1, a2 = right_coefficients(lax_power(m), 2)
    qr_t = prolong_flow(_Q * _R, m)
    pairs = (
        ("d_x(a_1) - 2*(qr)_t", d_x(a1) - 2 * qr_t),
        ("a_2 - (qr)_t", a2 - qr_t),
    )
    return CheckReport.of(
        f"residue-coefficients t_{m}",
        [(label, diff) for label, diff in pairs if not diff.is_zero],
    )


def check_generator_adjoint(n: int) -> CheckReport:
    """B_n* = -B_n for odd n, a consequence of the skew constraint."""
    generator = bn(n)
    total = adjoint(generator) + generator
    return CheckReport.of(f"generator-adjoint t_{n}", by_order(total.coeffs))


def residue_identity(m: int) -> DiffPoly:
    """d_x(res L^m) - 2*(qr)_t_m; zero for every odd flow."""
    return d_x(residue(lax_power(m))) - 2 * prolong_flow(_Q * _R, m)
