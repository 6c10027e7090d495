"""Operator algebra: composition, adjoint, projections, residue."""

import random
from fractions import Fraction

import pytest

from cckp.diffring import DiffPoly, d_x
from cckp.errors import DepthExhausted, NegativeOrderApplication
from cckp.psido import (
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

from conftest import P, SEED, random_local_poly

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


def random_psido(rng, depth=6, max_order=2):
    coeffs = {}
    for k in range(-2, max_order + 1):
        if rng.random() < 0.6:
            c = random_local_poly(rng, max_terms=2, max_order=1, max_weight=2)
            if not c.is_zero:
                coeffs[k] = c
    if not coeffs:
        coeffs[0] = DiffPoly.one()
    return PsiDO(coeffs, depth)


def test_gbinom():
    assert [gbinom(3, j) for j in range(5)] == [1, 3, 3, 1, 0]
    assert [gbinom(-1, j) for j in range(4)] == [1, -1, 1, -1]
    assert gbinom(-2, 3) == -4


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
    with pytest.raises(DepthExhausted):
        residue(PsiDO({0: Q}, 0))

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
