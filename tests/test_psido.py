"""Operator algebra: composition, adjoint, projections, residue."""

import math
import random
from fractions import Fraction

import pytest

from cckp import psido
from cckp.diffring import DiffPoly, d_x
from cckp.errors import DepthExhausted, NegativeOrderApplication
from cckp.psido import (
    EXACT_DEPTH,
    PsiDO,
    adjoint,
    apply,
    compose,
    gbinom,
    minus_part,
    plus_part,
    residue,
    residuals,
)

from conftest import P, SEED, random_local_poly, random_poly

Q = DiffPoly.jet("q")
R = DiffPoly.jet("r")


def naive_compose(a: dict, b: dict, depth: int) -> dict:
    """Independent term-by-term Leibniz series, for oracle comparisons."""
    out = {}
    for k, ak in a.items():
        for l, bl in b.items():
            j = 0
            while True:
                n = k + l - j
                if n < -depth:
                    break
                coeff = Fraction(1)
                for i in range(j):
                    coeff *= Fraction(k - i, i + 1)
                term = ak * d_x(bl, j) * coeff
                if not term.is_zero:
                    out[n] = out.get(n, DiffPoly.zero()) + term
                j += 1
                if k >= 0 and j > k:
                    break
    return {k: v for k, v in out.items() if not v.is_zero}


def random_psido(rng, depth=6, max_order=2, min_order=-2, coeff=None):
    coeff = coeff or (
        lambda rng: random_local_poly(rng, max_terms=2, max_order=1, max_weight=2)
    )
    coeffs = {}
    for k in range(max(min_order, -depth), max_order + 1):
        if rng.random() < 0.6:
            c = coeff(rng)
            if not c.is_zero:
                coeffs[k] = c
    if not coeffs:
        coeffs[0] = DiffPoly.one()
    return PsiDO(coeffs, depth)


def test_gbinom():
    assert [gbinom(3, j) for j in range(5)] == [1, 3, 3, 1, 0]
    assert [gbinom(-1, j) for j in range(4)] == [1, -1, 1, -1]
    assert gbinom(-2, 3) == -4
    # The falling-factorial product k (k-1) ... (k-j+1) / j!, for either sign of k.
    for k in range(-12, 13):
        for j in range(14):
            num = 1
            for i in range(j):
                num *= k - i
            assert gbinom(k, j) == Fraction(num, math.factorial(j))


def test_compose_d_with_inverse():
    assert compose(PsiDO.d(), PsiDO.d(-1)).coeffs == {0: DiffPoly.one()}


def test_compose_dinv_with_multiplier():
    out = compose(PsiDO.d(-1), PsiDO.from_poly(Q), depth=3)
    assert out.coeffs == {
        -1: Q,
        -2: -d_x(Q),
        -3: d_x(Q, 2),
    }
    assert out.trunc_depth == 3


def test_compose_infinite_needs_depth():
    with pytest.raises(DepthExhausted):
        compose(PsiDO.d(-1), PsiDO.from_poly(Q))


def test_compose_depth_cap_enforced():
    shallow = PsiDO({-1: Q}, 1)
    with pytest.raises(DepthExhausted):
        compose(shallow, PsiDO.d(2), depth=3)


def test_depth_propagation_rule():
    a = PsiDO({1: DiffPoly.one(), -1: Q * R}, 8)
    b = PsiDO({2: DiffPoly.one(), -1: Q}, 6)
    out = compose(a, b)
    assert out.trunc_depth == min(8 - 2, 6 - 1)


_BAD_DEPTHS = (True, False, 2.0, 2.5, Fraction(2), -1)


@pytest.mark.parametrize("depth", _BAD_DEPTHS, ids=repr)
def test_depth_is_an_int_of_at_least_zero(depth):
    # One rule for every depth a caller passes: stored, composed or
    # adjoined.  It is checked before any work, whatever the operands.
    lax = PsiDO({1: DiffPoly.one(), -1: Q * R})
    with pytest.raises(ValueError, match="truncation depth"):
        PsiDO({0: Q}, depth)
    with pytest.raises(ValueError, match="truncation depth"):
        PsiDO.zero(depth)
    for a, b in ((lax, lax), (PsiDO.zero(), lax), (PsiDO.d(), PsiDO.d())):
        with pytest.raises(ValueError, match="truncation depth"):
            compose(a, b, depth)
    for a in (lax, PsiDO.zero(), PsiDO.d()):
        with pytest.raises(ValueError, match="truncation depth"):
            adjoint(a, depth)


@pytest.mark.parametrize(
    "order", (True, False, 1.5, 2.0, Fraction(1)), ids=repr
)
def test_orders_are_ints(order):
    # A bool, float or Fraction order would render as d^True or d^1.5 and
    # could not be read back from JSON.  The public constructor checks it,
    # although the module's own results skip the checks.
    with pytest.raises(ValueError, match="operator order must be an int"):
        PsiDO({order: Q})
    with pytest.raises(ValueError, match="operator order must be an int"):
        PsiDO({order: Q}, 3)


def test_stored_orders_lie_within_the_depth():
    with pytest.raises(ValueError, match="below the trusted depth 2"):
        PsiDO({0: Q, -3: R}, 2)
    with pytest.raises(ValueError, match="below the trusted depth 0"):
        PsiDO({-1: Q}, 0)
    # A zero coefficient is dropped before the orders are checked.
    assert PsiDO({0: Q, -3: DiffPoly.zero()}, 2).coeffs == {0: Q}


def test_own_results_pass_the_public_checks():
    # Sums, negations, scalings, products, adjoints and projections are
    # built without `PsiDO.__init__`; each must be what it would build.
    rng = random.Random(SEED)
    for _ in range(20):
        depth = rng.choice((2, 4, EXACT_DEPTH))
        a = random_psido(rng, depth) if depth < EXACT_DEPTH else PsiDO(
            random_psido(rng, 6, min_order=0).coeffs
        )
        b = random_psido(rng, 3)
        cut = min(3, depth)
        for out in (
            a + b, a - a, -a, a * Fraction(-2, 3), 0 * a, compose(a, b),
            adjoint(a, cut), plus_part(a), minus_part(b),
        ):
            rebuilt = PsiDO(out.coeffs, out.trunc_depth)
            assert (rebuilt.coeffs, rebuilt.trunc_depth) == (
                out.coeffs, out.trunc_depth
            )
            assert all(type(k) is int for k in out.coeffs)
            assert all(
                isinstance(c, DiffPoly) and c for c in out.coeffs.values()
            )


@pytest.mark.parametrize("depth", (EXACT_DEPTH, EXACT_DEPTH + 1, 2 * EXACT_DEPTH))
def test_an_explicit_depth_stays_under_the_exact_sentinel(monkeypatch, depth):
    # At EXACT_DEPTH a truncated infinite series would be labelled exact;
    # the depth is refused before any coefficient is built.
    def no_work(*args):
        raise AssertionError("a coefficient was built")

    monkeypatch.setattr(psido, "_leibniz_into", no_work)
    with pytest.raises(DepthExhausted, match="under EXACT_DEPTH"):
        compose(PsiDO.d(-1), PsiDO.from_poly(Q), depth)
    with pytest.raises(DepthExhausted, match="under EXACT_DEPTH"):
        adjoint(PsiDO({-1: Q}), depth)
    with pytest.raises(DepthExhausted, match="under EXACT_DEPTH"):
        compose(PsiDO.d(), PsiDO.d(), depth)


@pytest.mark.parametrize("depth", (True, 1.5, -1), ids=repr)
def test_comparison_depth_is_an_int_of_at_least_zero(depth):
    # `True` would compare down to order -1, and 1.5 would fail in `range`.
    lax = PsiDO({1: DiffPoly.one(), -1: Q * R}, 4)
    with pytest.raises(ValueError, match="comparison depth must be an int"):
        residuals(lax, lax, depth)


def test_good_depths_are_kept():
    lax = PsiDO({1: DiffPoly.one(), -1: Q * R})
    assert type(compose(lax, lax, 3).trunc_depth) is int
    assert compose(lax, lax, 0).coeffs == {2: DiffPoly.one(), 0: 2 * Q * R}
    assert adjoint(lax, 2).trunc_depth == 2
    assert PsiDO({0: Q}, 0).trunc_depth == 0


def test_adjoint_basics():
    assert adjoint(PsiDO.d()).coeffs == {1: -DiffPoly.one()}
    assert adjoint(PsiDO.d(-1), depth=4).coeffs == {-1: -DiffPoly.one()}


def test_adjoint_matches_naive_series():
    rng = random.Random(SEED)
    for _ in range(60):
        a = random_psido(rng, depth=6)
        expected = {}
        for k, c in a.coeffs.items():
            sign = DiffPoly.const(-1 if k % 2 else 1)
            for n, v in naive_compose({k: sign}, {0: c}, 5).items():
                expected[n] = expected.get(n, DiffPoly.zero()) + v
        engine = adjoint(a, depth=5)
        assert engine.coeffs == {n: v for n, v in expected.items() if v}
        assert engine.trunc_depth == 5
    # The adjoint of a differential operator is exact, not truncated.
    assert adjoint(PsiDO({2: Q, 0: R})).is_exact


def test_leibniz_oracle_negative_orders():
    rng = random.Random(SEED)
    for k in (-1, -2):
        for _ in range(40):
            f = random_local_poly(rng, max_terms=2, max_order=2, max_weight=3)
            if f.is_zero:
                continue
            engine = compose(PsiDO.d(k), PsiDO.from_poly(f), depth=6)
            oracle = naive_compose(
                {k: DiffPoly.one()}, {0: f}, 6
            )
            assert engine.coeffs == oracle


def test_associativity_randomized():
    rng = random.Random(SEED)
    for _ in range(200):
        a = random_psido(rng)
        b = random_psido(rng)
        c = random_psido(rng)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        depth = min(left.trunc_depth, right.trunc_depth)
        if depth < 0:
            continue
        assert not residuals(left, right, depth)


def test_adjoint_involution_and_antihomomorphism_randomized():
    rng = random.Random(SEED)
    for _ in range(200):
        a = random_psido(rng, depth=8)
        b = random_psido(rng, depth=8)
        double = adjoint(adjoint(a))
        assert not residuals(double, a, double.trunc_depth)
        lhs = adjoint(compose(a, b))
        rhs = compose(adjoint(b), adjoint(a))
        depth = min(lhs.trunc_depth, rhs.trunc_depth)
        if depth < 0:
            continue
        assert not residuals(lhs, rhs, depth)


def test_projection_decomposition_randomized():
    rng = random.Random(SEED)
    for _ in range(200):
        a = random_psido(rng)
        total = plus_part(a) + minus_part(a)
        assert total.coeffs == a.coeffs


def test_residue_and_apply():
    op = PsiDO({3: DiffPoly.one(), -1: 2 * Q * R}, 4)
    assert residue(op) == 2 * Q * R
    assert residue(PsiDO.d()) == DiffPoly.zero()
    assert residue(PsiDO({0: Q}, 1)) == DiffPoly.zero()
    # Order -1 lies below a trusted depth of 0, stored coefficients or not.
    for shallow in (PsiDO({0: Q}, 0), PsiDO.zero(0), PsiDO({2: Q, 0: R}, 0)):
        with pytest.raises(DepthExhausted):
            residue(shallow)

    b3 = PsiDO(
        {3: DiffPoly.one(), 1: 6 * Q * R, 0: P("3*r*q' + 3*q*r'")}
    )
    assert apply(b3, Q) == P("q[3] + 9*q*r*q' + 3*q^2*r'")
    assert apply(b3, R) == P("r[3] + 9*q*r*r' + 3*r^2*q'")
    assert apply(PsiDO.d(), Q) == d_x(Q)
    with pytest.raises(NegativeOrderApplication):
        apply(PsiDO.d(-1), Q)


def test_exact_operands_compose_exactly():
    from cckp.hierarchy import bn
    from cckp.psido import commutator, psido_json

    for out in (compose(bn(3), bn(3)), commutator(bn(3), bn(5))):
        assert out.is_exact
        assert psido_json(out)["trunc_depth"] is None
    assert adjoint(compose(bn(3), bn(5))).is_exact


def test_commutator_depth_bookkeeping():
    # Building blocks at depth n + 2 leave at least two trusted tail orders.
    from cckp.hierarchy import bn, lax_operator
    from cckp.psido import commutator

    for n in (1, 3):
        lax = lax_operator(n + 2)
        bracket = commutator(bn(n), lax)
        assert bracket.trunc_depth >= 2


def _reference_leibniz_into(out: dict, a: dict, b: dict, eff: int) -> None:
    """The per-term Leibniz kernel: every product is added into its order's
    canonical coefficient on its own."""
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


def _typed(op: PsiDO):
    """The operator with each coefficient's type, so int and Fraction differ."""
    return op.trunc_depth, {
        k: tuple((key, type(c), c) for key, c in p.terms)
        for k, p in op.coeffs.items()
    }


def _random_coeff(rng):
    return random_poly(
        rng, max_terms=2, max_order=1, max_weight=2,
        allow_atoms=True, allow_scale=True,
    )


def _random_operator(rng, depth, low=-2, high=2):
    """Coefficients with atoms and lam powers, as well as local ones."""
    return random_psido(rng, depth, high, low, _random_coeff)


def _with_reference(monkeypatch, fn, *args, **kw):
    with monkeypatch.context() as m:
        m.setattr(psido, "_leibniz_into", _reference_leibniz_into)
        return fn(*args, **kw)


class TestLeibnizKernel:
    """The per-order accumulation gives what the per-term kernel gives."""

    def test_compose_matches_per_term_kernel(self, monkeypatch):
        rng = random.Random(SEED)
        for _ in range(60):
            a = _random_operator(rng, rng.randint(2, 6))
            b = _random_operator(rng, rng.randint(2, 6))
            ref = _with_reference(monkeypatch, compose, a, b)
            assert _typed(compose(a, b)) == _typed(ref)
            for depth in range(ref.trunc_depth + 1):
                ref = _with_reference(monkeypatch, compose, a, b, depth)
                assert _typed(compose(a, b, depth)) == _typed(ref)

    def test_exact_compose_matches_per_term_kernel(self, monkeypatch):
        rng = random.Random(SEED)
        for _ in range(60):
            a = _random_operator(rng, EXACT_DEPTH, low=0, high=3)
            b = _random_operator(rng, EXACT_DEPTH, low=0, high=3)
            out = compose(a, b)
            assert out.is_exact
            assert _typed(out) == _typed(
                _with_reference(monkeypatch, compose, a, b)
            )
            # Exact operands with an integral tail, at an explicit depth.
            c = _random_operator(rng, EXACT_DEPTH, low=-2, high=1)
            depth = rng.randint(1, 5)
            assert _typed(compose(c, a, depth)) == _typed(
                _with_reference(monkeypatch, compose, c, a, depth)
            )

    def test_adjoint_matches_per_term_kernel(self, monkeypatch):
        rng = random.Random(SEED)
        for _ in range(60):
            a = _random_operator(rng, rng.randint(2, 6))
            ref = _with_reference(monkeypatch, adjoint, a)
            assert _typed(adjoint(a)) == _typed(ref)
            depth = rng.randint(0, a.trunc_depth)
            ref = _with_reference(monkeypatch, adjoint, a, depth)
            assert _typed(adjoint(a, depth)) == _typed(ref)
            exact = _random_operator(rng, EXACT_DEPTH, low=0, high=3)
            assert _typed(adjoint(exact)) == _typed(
                _with_reference(monkeypatch, adjoint, exact)
            )

    def test_prefilled_out_is_added_to(self):
        rng = random.Random(SEED)
        for _ in range(40):
            a = _random_operator(rng, 4)
            b = _random_operator(rng, 4)
            # Constant coefficients of a, as the adjoint passes them.
            a_int = {
                k: DiffPoly.const(rng.choice((-2, -1, 1, 3))) for k in a.coeffs
            }
            for lhs in (a.coeffs, a_int):
                start = {k: _random_coeff(rng) for k in range(-3, 3)}
                got, ref = dict(start), dict(start)
                psido._leibniz_into(got, lhs, b.coeffs, 3)
                _reference_leibniz_into(ref, lhs, b.coeffs, 3)
                assert _typed(PsiDO(got, 3)) == _typed(PsiDO(ref, 3))


def test_compose_with_zero_keeps_the_explicit_depth():
    lax = PsiDO({1: DiffPoly.one(), -1: Q * R}, 2)
    for a, b in ((PsiDO.zero(), lax), (lax, PsiDO.zero(1)), (PsiDO.zero(3),) * 2):
        # Even past what the other operand supports: the product is zero.
        for depth in (0, 1, 5):
            out = compose(a, b, depth)
            assert (out.coeffs, out.trunc_depth) == ({}, depth)
        assert compose(a, b).trunc_depth == min(a.trunc_depth, b.trunc_depth)


def _dense_residuals(a: PsiDO, b: PsiDO, depth: int) -> dict:
    """The walk `residuals` made before it read only stored orders: every
    order from the highest stored one down to -depth."""
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


def test_residuals_match_the_dense_walk():
    rng = random.Random(SEED)

    def operand():
        depth = rng.choice((0, 1, 3, 6, EXACT_DEPTH))
        if rng.random() < 0.1:
            return PsiDO.zero(depth)
        return _random_operator(rng, depth, low=-4, high=rng.randint(-2, 3))

    for _ in range(80):
        a, b = operand(), operand()
        for depth in range(min(a.trunc_depth, b.trunc_depth, 7) + 1):
            got = residuals(a, b, depth)
            want = _dense_residuals(a, b, depth)
            # The same orders in the same (descending) order.
            assert list(got) == list(want)
            assert all(got[k] == want[k] for k in want)
        if a.trunc_depth < 7:
            with pytest.raises(DepthExhausted):
                residuals(a, b, a.trunc_depth + 1)
