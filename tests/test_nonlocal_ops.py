"""Integro-differential chains: application, expansion, rewrites."""

import random
from fractions import Fraction

import pytest

from cckp import diffring, nonlocal_ops
from cckp.diffring import DiffPoly, antiderivative, d_x, poly_sum
from cckp.errors import NestingTooDeep
from cckp.hierarchy import flow
from cckp.nonlocal_ops import (
    DX,
    DXINV,
    IntDiffOperator,
    apply,
    eliminate_trailing_dx,
    expand_term_to_psido,
    expand_to_psido,
    operator_from_json,
    operator_json,
    operator_text,
    substitute_r_to_q,
    swap_q_r,
    term,
)
from cckp.psido import PsiDO, residuals
from cckp.recursion import build_matrix, reduce_matrix

from conftest import P, SEED, constant_term, random_local_poly

Q = DiffPoly.jet("q")
R = DiffPoly.jet("r")
QX = DiffPoly.jet("q", 1)


def test_chain_normalization():
    t = term(Q, R, DXINV, 2 * Q)
    assert t == (Q * R, DXINV, 2 * Q)
    assert term(Q) == term(Q * DiffPoly.one())


def test_chains_hold_the_module_markers():
    # Markers equal to DX and DXINV but not the same objects: a string built
    # at run time and a str subclass.  Chains tell factors apart by identity,
    # so they must hold the module's own markers.
    dxinv = "".join(["Di", "nv"])
    dx = type("Marker", (str,), {})(DX)
    assert dxinv == DXINV and dxinv is not DXINV
    assert dx == DX and dx is not DX
    op = IntDiffOperator(((1, term(Q, dxinv, Q, dx)),))
    ref = IntDiffOperator(((1, term(Q, DXINV, Q, DX)),))
    assert op == ref
    assert all(a is b for a, b in zip(op.terms[0][1], ref.terms[0][1]))
    assert apply(op, Q) == apply(ref, Q) == P("q^3") * Fraction(1, 2)
    assert expand_to_psido(op, 3) == expand_to_psido(ref, 3)
    assert operator_text(op) == operator_text(ref) == "q d^-1 q d"


def test_chain_order_does_not_depend_on_payload_term_order():
    # Keys a < b < c < d: the payloads a + d and b + c order one way by
    # their sorted terms and the other way by their terms reversed.
    a, b, c, d = sorted(
        m.terms[0] for m in (Q, R, QX, DiffPoly.jet("r", 1))
    )
    ops = []
    for f, g in (((a, d), (b, c)), ((d, a), (c, b))):
        ops.append(IntDiffOperator((
            (2, term(DiffPoly(g), DXINV, Q)),
            (1, term(DiffPoly(f), DXINV, Q)),
        )))
    first, second = ops
    assert second == first and hash(second) == hash(first)
    assert second.terms == first.terms
    assert [w for w, _ in first.terms] == [1, 2]
    assert operator_json(second) == operator_json(first)
    assert operator_text(second) == operator_text(first)


def test_operator_merges_identical_chains():
    op = IntDiffOperator(
        ((2, term(QX, DXINV, Q)), (3, term(QX, DXINV, Q)))
    )
    assert len(op.terms) == 1
    assert op.terms[0][0] == Fraction(5)
    # A raw factor list merges with the chain it normalizes to; a chain with
    # a zero multiplier drops out.
    op = IntDiffOperator(
        (
            (1, [Q, R, DXINV, Q]),
            (2, term(Q * R, DXINV, Q)),
            (4, [Q, DXINV, DiffPoly.zero()]),
            (5, term(DiffPoly.zero())),
        )
    )
    assert op.terms == ((3, (Q * R, DXINV, Q)),)
    for pair in build_matrix().r11.terms:
        assert len(pair) == 2 and type(pair[1]) is tuple


def test_weights_are_exact():
    # A float weight is rejected, not stored as a binary fraction.
    with pytest.raises(TypeError):
        IntDiffOperator(((0.1, term(DX)),))
    # Integral weights are stored as int, also when a merge makes them so.
    op = IntDiffOperator(
        (
            (Fraction(4, 2), term(DX)),
            (Fraction(1, 2), term(Q)),
            (Fraction(1, 2), term(Q)),
        )
    )
    assert [type(w) for w, _ in op.terms] == [int, int]


def test_weights_are_not_bools():
    # A bool is an int to Python, but True is no chain weight.
    for flag in (True, False):
        with pytest.raises(ValueError):
            IntDiffOperator(((flag, term(DX)),))
    # Ring equality still reads a bool as a constant.
    assert DiffPoly.one() == True and DiffPoly.zero() == False


def test_apply_differential_chain():
    op = IntDiffOperator(((1, term(DX, DX)),))
    assert apply(op, Q) == d_x(Q, 2)


def test_apply_nonlocal_chain():
    op = IntDiffOperator(((8, term(QX, DXINV, Q)),))
    assert apply(op, QX) == 4 * Q ** 2 * QX


def test_apply_mkdv_operator():
    op = IntDiffOperator(
        (
            (1, term(DX, DX)),
            (8, term(Q * Q)),
            (8, term(QX, DXINV, Q)),
        )
    )
    assert apply(op, QX) == P("q[3] + 12*q^2*q'")


def test_apply_linearity_randomized():
    rng = random.Random(SEED)
    op = IntDiffOperator(
        (
            (1, term(Q, DXINV, R)),
            (-2, term(DX, Q * R)),
            (1, term(R, DXINV, Q, DX)),
        )
    )
    for _ in range(100):
        f = random_local_poly(rng, max_terms=2)
        g = random_local_poly(rng, max_terms=2)
        assert apply(op, f + g) == apply(op, f) + apply(op, g)


def test_apply_nesting_limit(monkeypatch):
    inner = antiderivative(Q * R)
    op = IntDiffOperator(((1, term(DXINV, Q * Q * inner)),))
    monkeypatch.setattr(diffring, "_NESTING_LIMIT", 1)
    with pytest.raises(NestingTooDeep):
        apply(op, DiffPoly.one())


def test_expand_single_inverse():
    op = IntDiffOperator(((1, term(DXINV, Q)),))
    out = expand_to_psido(op, 3)
    assert out.coeffs == {-1: Q, -2: -d_x(Q), -3: d_x(Q, 2)}


@pytest.mark.parametrize(
    "depth",
    (True, 2.0, 2.5, Fraction(2), 0, -1),
    ids=("bool", "float", "fraction", "Fraction", "0", "-1"),
)
@pytest.mark.parametrize(
    "op",
    (
        IntDiffOperator(()),
        IntDiffOperator(((1, term(DX)),)),
        IntDiffOperator(((1, term(DXINV, Q)),)),
    ),
    ids=("empty", "differential", "nonlocal"),
)
def test_expansion_depth_is_an_int_of_at_least_one(op, depth):
    # Refused whatever the operator, before any chain is expanded.
    with pytest.raises(ValueError, match="expansion depth"):
        expand_to_psido(op, depth)
    for _, chain in op.terms:
        with pytest.raises(ValueError, match="expansion depth"):
            expand_term_to_psido(chain, depth)


def test_expand_pure_dx():
    op = IntDiffOperator(((1, term(DX)),))
    assert expand_to_psido(op, 2).coeffs == {1: DiffPoly.one()}


def test_expand_application_consistency_randomized():
    # Applying the operator agrees with applying its series expansion when
    # every inverse resolves locally.
    rng = random.Random(SEED)
    op = IntDiffOperator(((1, term(Q, DXINV, 2 * Q)),))
    for _ in range(60):
        f = random_local_poly(rng, max_terms=2, max_order=1, max_weight=2)
        direct = apply(op, f)
        if not direct.is_local:
            continue
        series = expand_to_psido(op, 8)
        total = DiffPoly.zero()
        exact = True
        for k, c in series.coeffs.items():
            if k < 0:
                exact = False
                break
            total = total + c * d_x(f, k)
        if exact:
            assert total == direct


def test_by_parts_identity_randomized():
    rng = random.Random(SEED)
    lhs = IntDiffOperator(((1, term(DXINV, Q * R, DX)),))
    rhs = IntDiffOperator(
        ((1, term(Q * R)), (-1, term(DXINV, d_x(Q * R))))
    )
    for _ in range(100):
        f = random_local_poly(rng, max_terms=2)
        f = f - DiffPoly.const(constant_term(f))
        assert apply(lhs, f) == apply(rhs, f)


def test_inverse_product_identity_randomized():
    # f1 d^-1 g1 f2 d^-1 g2 applied equals the two-term right side whenever
    # the inner integral resolves locally; take g1 f2 = 2 q q_x.
    rng = random.Random(SEED)
    f1, g1, f2, g2 = Q, 2 * Q, QX, R
    lhs = IntDiffOperator(((1, term(f1, DXINV, g1, f2, DXINV, g2)),))
    inner = antiderivative(g1 * f2)
    assert inner == Q ** 2 * Fraction(2, 3) * Fraction(3, 2)
    rhs = IntDiffOperator(
        (
            (1, term(f1 * inner, DXINV, g2)),
            (-1, term(f1, DXINV, g2 * inner)),
        )
    )
    for _ in range(100):
        h = random_local_poly(rng, max_terms=2)
        assert apply(lhs, h) == apply(rhs, h)


def test_substitute_and_swap():
    op = IntDiffOperator(((3, term(Q * R, DXINV, R)),))
    assert substitute_r_to_q(op) == IntDiffOperator(
        ((3, term(Q * Q, DXINV, Q)),)
    )
    assert swap_q_r(swap_q_r(op)) == op


def test_substitute_resolves_atoms():
    lam_r = P("r' + q*I(r^2) + r*I(q*r)")
    op = IntDiffOperator(((1, term(lam_r, DXINV, Q)),))
    expected = IntDiffOperator(
        ((1, term(P("q' + 2*q*I(q^2)"), DXINV, Q)),)
    )
    assert substitute_r_to_q(op) == expected


def test_eliminate_trailing_dx():
    op = IntDiffOperator(((1, term(Q, DXINV, R, DX)),))
    out = eliminate_trailing_dx(op)
    assert out == IntDiffOperator(
        ((1, term(Q * R)), (-1, term(Q, DXINV, d_x(R))))
    )
    rng = random.Random(SEED)
    for _ in range(50):
        f = random_local_poly(rng, max_terms=2)
        f = f - DiffPoly.const(constant_term(f))
        assert apply(op, f) == apply(out, f)


def test_json_round_trip():
    op = IntDiffOperator(
        (
            (Fraction(2, 3), term(QX, DXINV, Q)),
            (-1, term(DX, DX)),
            (1, term(Q * antiderivative(Q * R))),
        )
    )
    assert operator_from_json(operator_json(op)) == op


def test_text_rendering():
    op = IntDiffOperator(
        ((1, term(DX, DX)), (8, term(Q * Q)), (8, term(QX, DXINV, Q)))
    )
    assert operator_text(op) == "d^2 + 8 q^2 + 8 q' d^-1 q"


def test_expansion_equality_of_equivalent_forms():
    # d^-1 f d == f - d^-1 f_x as series, under the zero-constant convention.
    lhs = expand_to_psido(
        IntDiffOperator(((1, term(DXINV, Q, DX)),)), 5
    )
    rhs = expand_to_psido(
        IntDiffOperator(((1, term(Q)), (-1, term(DXINV, QX)))), 5
    )
    assert not residuals(lhs, rhs, 5)


def _termwise(op, f):
    """The sum of `apply` over the operator's one-term operators."""
    total = DiffPoly.zero()
    for weight, t in op.terms:
        total = total + apply(IntDiffOperator(((weight, t),)), f)
    return total


def _random_chain_operator(rng):
    """Chains with shared prefixes, repeated suffixes and multiplier-only ones."""
    muls = [Q, R, QX, Q * R, 2 * Q - R, Q * antiderivative(Q * R)]
    chains = []
    for _ in range(rng.randint(1, 3)):
        chain = []
        for _ in range(rng.randint(1, 5)):
            chain.append(rng.choice(muls + [DX, DXINV, DXINV]))
        chains.append(chain)
    # Every prefix of a chain is a chain too.
    base = rng.choice(chains)
    chains += [base[:i] for i in range(1, len(base))]
    # One suffix behind several heads.
    tail = rng.choice(chains)[-2:]
    chains += [[head] + tail for head in rng.sample(muls + [DX, DXINV], 2)]
    # Multiplier-only chains.
    chains += [[rng.choice(muls)] for _ in range(2)]
    weights = [Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)) for _ in chains]
    return IntDiffOperator(
        (w, term(*c)) for w, c in zip(weights, chains) if c
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NestingTooDeep:
        return NestingTooDeep


def test_factored_apply_matches_termwise_randomized(monkeypatch):
    rng = random.Random(SEED)
    outcomes = set()
    for _ in range(80):
        op = _random_chain_operator(rng)
        f = random_local_poly(rng, max_terms=2, max_order=1, max_weight=2)
        for limit in (1, 2):
            monkeypatch.setattr(diffring, "_NESTING_LIMIT", limit)
            factored = _outcome(apply, op, f)
            termwise = _outcome(_termwise, op, f)
            # The factored form raises only where term-by-term evaluation
            # does, and otherwise agrees with it.
            if factored is NestingTooDeep:
                assert termwise is NestingTooDeep
            elif termwise is not NestingTooDeep:
                assert factored == termwise
            outcomes.add((factored is NestingTooDeep, termwise is NestingTooDeep))
    assert {(False, False), (True, True)} <= outcomes


def test_factored_apply_matches_termwise_on_the_matrix():
    mat = build_matrix()
    for m in (1, 3, 5, 7):
        pair = flow(m)
        for entry, f in (
            (mat.r11, pair.q_t), (mat.r12, pair.r_t),
            (mat.r21, pair.q_t), (mat.r22, pair.r_t),
        ):
            assert apply(entry, f) == _termwise(entry, f)


def _folded_expansion(operator, depth, expand=expand_term_to_psido):
    """The expansion summed one chain at a time with `PsiDO.__add__`."""
    out = PsiDO.zero(depth)
    for weight, chain in operator.terms:
        out = out + expand(chain, depth) * weight
    return out


def _shallower(chain, depth):
    """A chain's expansion trusted one order less when its length is odd."""
    series = expand_term_to_psido(chain, depth)
    if series.is_exact or len(chain) % 2 == 0:
        return series
    keep = {k: c for k, c in series.coeffs.items() if k >= 1 - depth}
    return PsiDO(keep, depth - 1)


@pytest.mark.parametrize("expand", (expand_term_to_psido, _shallower))
def test_expansion_matches_the_chain_by_chain_sum(monkeypatch, expand):
    # With `_shallower`, chains come back at different depths, so the sum
    # must keep the smallest and drop the orders below it.
    monkeypatch.setattr(nonlocal_ops, "expand_term_to_psido", expand)
    mat = build_matrix()
    # d^-1 q and q d^-1 cancel at order -1 and nowhere else.
    cancel = IntDiffOperator(((1, term(DXINV, Q)), (-1, term(Q, DXINV))))
    assert sorted(expand_to_psido(cancel, 3).coeffs) == [-3, -2]
    rng = random.Random(SEED)
    ops = [mat.r11, mat.r12, mat.r21, mat.r22, reduce_matrix()]
    ops += [_random_chain_operator(rng) for _ in range(40)]
    ops += [IntDiffOperator(()), cancel]
    mixed = 0
    for op in ops:
        for depth in (1, 4):
            got = expand_to_psido(op, depth)
            want = _folded_expansion(op, depth, expand)
            assert got.coeffs == want.coeffs
            assert got.trunc_depth == want.trunc_depth
        exact = {expand_term_to_psido(c, 4).is_exact for _, c in op.terms}
        mixed += exact == {True, False}
    # Many inputs mix exact (d-only) chains with truncated ones.
    assert mixed > 10


def _per_order_expansion(operator, depth):
    """The per-order sum `expand_to_psido` made before it added chain series
    as `PsiDO`s: each order summed once over all chains, kept down to the
    smallest depth met."""
    trusted, pieces = depth, {}
    for weight, chain in operator.terms:
        series = nonlocal_ops.expand_term_to_psido(chain, depth)
        trusted = min(trusted, series.trunc_depth)
        for k, c in series.coeffs.items():
            pieces.setdefault(k, []).append((weight, c))
    return PsiDO(
        {k: poly_sum(ps) for k, ps in pieces.items() if k >= -trusted}, trusted
    )


@pytest.mark.parametrize("expand", (expand_term_to_psido, _shallower))
def test_expansion_matches_the_per_order_sum(monkeypatch, expand):
    monkeypatch.setattr(nonlocal_ops, "expand_term_to_psido", expand)
    mat = build_matrix()
    rng = random.Random(SEED + 1)
    ops = [mat.r11, mat.r12, mat.r21, mat.r22, reduce_matrix()]
    ops += [_random_chain_operator(rng) for _ in range(30)]
    ops += [IntDiffOperator(())]
    for op in ops:
        for depth in range(1, 7):
            got = expand_to_psido(op, depth)
            want = _per_order_expansion(op, depth)
            assert got.coeffs == want.coeffs
            assert got.trunc_depth == want.trunc_depth
