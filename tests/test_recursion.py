"""Recursion matrix construction, flow stepping, and the mKdV reduction."""

from fractions import Fraction

import pytest

from cckp.diffring import (
    DiffPoly,
    antiderivative,
    scale_substitute,
    substitute_r_to_q,
    swap_q_r,
)
from cckp.errors import ResidualNonlocal
from cckp.hierarchy import FlowPair, bn, flow
from cckp.nonlocal_ops import (
    DX,
    DXINV,
    IntDiffOperator,
    apply as nl_apply,
    expand_to_psido,
    swap_q_r as op_swap,
    term,
)
from cckp.psido import residuals
from cckp.recursion import (
    build_matrix,
    eigen_image_q,
    eigen_image_r,
    mkdv_recursion_literal,
    reduce_matrix,
    scale_operator,
    scaled_mkdv_literal,
    scaled_mkdv_operator,
    step,
    verify_aratyn_identities,
)

from conftest import P

Q = DiffPoly.jet("q")
R = DiffPoly.jet("r")
QX = DiffPoly.jet("q", 1)


class TestMatrixShape:
    def test_eigen_images(self):
        assert eigen_image_q() == P("q' + q*I(q*r) + r*I(q^2)")
        assert eigen_image_r() == P("r' + q*I(r^2) + r*I(q*r)")

    def test_entry_contents(self):
        mat = build_matrix()
        r11_chains = {t.chain for _, t in mat.r11.terms}
        assert (R, DXINV, Q, DX) in r11_chains
        weights = {
            t.chain: w for w, t in mat.r11.terms
        }
        assert weights[(R, DXINV, Q, DX)] == Fraction(-1)
        # 3q^2 appears as a pure multiplier in the off-diagonal entry.
        r12_weights = {t.chain: w for w, t in mat.r12.terms}
        assert r12_weights[(Q * Q,)] == Fraction(3)

    def test_swap_symmetry(self):
        mat = build_matrix()
        assert op_swap(mat.r11) == mat.r22
        assert op_swap(mat.r12) == mat.r21
        assert op_swap(mat.r21) == mat.r12


class TestStep:
    def test_t1_to_t3(self):
        out = step(flow(1))
        target = flow(3)
        assert out.q_t == target.q_t
        assert out.r_t == target.r_t
        assert out.m == 3

    def test_t3_to_t5(self):
        out = step(flow(3))
        target = flow(5)
        assert out.q_t == target.q_t
        assert out.r_t == target.r_t

    def test_two_step(self):
        out = step(step(flow(1)))
        target = flow(5)
        assert out.q_t == target.q_t
        assert out.r_t == target.r_t

    def test_t5_to_t7_cross_check(self):
        # The stepped flow must match the generator route computed
        # independently from the seventh power of the Lax operator.
        out = step(flow(5))
        target = flow(7)
        assert out.q_t == target.q_t
        assert out.r_t == target.r_t

    def test_t7_to_t9_cross_check(self):
        out = step(flow(7))
        target = flow(9, depth=12)
        assert out.q_t == target.q_t
        assert out.r_t == target.r_t

    def test_swap_equivariance(self):
        # Stepping preserves the swap symmetry of flow pairs...
        for m in (1, 3):
            out = step(flow(m))
            assert swap_q_r(out.q_t) == out.r_t
        # ...because each entry is the swap image of its mirror entry.
        import random

        from conftest import SEED, random_local_poly

        rng = random.Random(SEED)
        mat = build_matrix()
        for _ in range(20):
            f = random_local_poly(rng, max_terms=2)
            assert swap_q_r(nl_apply(mat.r11, f)) == nl_apply(
                mat.r22, swap_q_r(f)
            )
            assert swap_q_r(nl_apply(mat.r12, f)) == nl_apply(
                mat.r21, swap_q_r(f)
            )

    def test_residual_nonlocal_raised(self):
        # A broken matrix whose atoms cannot cancel must fail loudly.
        broken = build_matrix().__class__(
            r11=IntDiffOperator(((1, term(Q, DXINV, Q * R)),)),
            r12=IntDiffOperator(()),
            r21=IntDiffOperator(()),
            r22=IntDiffOperator(((1, term(DX,)),)),
        )
        with pytest.raises(ResidualNonlocal):
            step(flow(1), matrix=broken)


class TestReduction:
    def test_literal_form(self):
        assert reduce_matrix() == mkdv_recursion_literal()

    def test_series_expansion_matches_literal(self):
        lhs = expand_to_psido(reduce_matrix(), 6)
        rhs = expand_to_psido(mkdv_recursion_literal(), 6)
        assert not residuals(lhs, rhs, 6)

    def test_first_application(self):
        assert nl_apply(reduce_matrix(), QX) == P("q[3] + 12*q^2*q'")

    def test_second_application(self):
        third = P("q[3] + 12*q^2*q'")
        fifth = nl_apply(reduce_matrix(), third)
        assert fifth == P(
            "q[5]+20*q^2*q[3]+80*q*q'*q''+120*q^4*q'+20*q'^3"
        )

    def test_chain_reaches_t11(self):
        # Powers of the reduced operator on q' give the reduced flows of the
        # independent generator route.
        current = QX
        for n in range(3, 12, 2):
            current = nl_apply(reduce_matrix(), current)
            assert current == substitute_r_to_q(flow(n).q_t), n

    @pytest.mark.parametrize("m", (1, 3))
    def test_commutes_with_step(self, m):
        fp = flow(m)
        stepped = step(fp)
        lhs = substitute_r_to_q(stepped.q_t)
        rhs = nl_apply(reduce_matrix(), substitute_r_to_q(fp.q_t))
        assert lhs == rhs

    def test_reduced_row_sum_equals_literal_by_expansion(self):
        # Both routes computed independently: substituting the two entries
        # and expanding, versus expanding the literal short form.
        from cckp.nonlocal_ops import substitute_r_to_q as op_sub

        mat = build_matrix()
        row = op_sub(mat.r11) + op_sub(mat.r12)
        lhs = expand_to_psido(row, 4)
        rhs = expand_to_psido(mkdv_recursion_literal(), 4)
        assert not residuals(lhs, rhs, 4)


class TestScaling:
    def test_operator(self):
        assert scaled_mkdv_operator() == scaled_mkdv_literal()

    def test_payloads(self):
        scaled = scale_operator(
            IntDiffOperator(((8, term(Q * Q)),)), Fraction(1, 12)
        )
        u = DiffPoly.jet("u")
        assert scaled == IntDiffOperator(((Fraction(2, 3), term(u * u)),))

    def test_scaled_flows(self):
        lam_sq = Fraction(1, 12)
        third = substitute_r_to_q(flow(3).q_t)
        fifth = substitute_r_to_q(flow(5).q_t)
        assert scale_substitute(third, lam_sq) == P("u[3] + u^2*u'")
        assert scale_substitute(fifth, lam_sq) == P(
            "u[5] + 5/3*u^2*u[3] + 20/3*u*u'*u'' + 5/6*u^4*u' + 5/3*u'^3"
        )

    def test_scaled_operator_generates_scaled_hierarchy(self):
        scaled = scaled_mkdv_operator()
        ux = DiffPoly.jet("u", 1)
        third = nl_apply(scaled, ux)
        assert third == P("u[3] + u^2*u'")
        fifth = nl_apply(scaled, third)
        assert fifth == P(
            "u[5] + 5/3*u^2*u[3] + 20/3*u*u'*u'' + 5/6*u^4*u' + 5/3*u'^3"
        )


    def test_scaled_chain_reaches_t9(self):
        current = DiffPoly.jet("u", 1)
        for n in range(3, 10, 2):
            current = nl_apply(scaled_mkdv_literal(), current)
            reduced = substitute_r_to_q(flow(n).q_t)
            assert current == scale_substitute(reduced, Fraction(1, 12)), n


class TestOperatorIdentities:
    def test_single_leibniz_step(self):
        report = verify_aratyn_identities(1, Q, R)
        assert report.passed, report.residual_lines()

    @pytest.mark.parametrize("m", (1, 3, 5))
    def test_adjoint_eigenfunction_expansion(self, m):
        # The key lemma behind the matrix entries: the adjoint generator
        # applied to the negated eigenfunction image expands into flow
        # terms and antiderivatives of eigenfunction products.
        from cckp.diffring import d_x
        from cckp.psido import adjoint, apply as psido_apply

        lhs = psido_apply(adjoint(bn(m)), -eigen_image_q())
        fp = flow(m)
        A = antiderivative
        rhs = (
            d_x(fp.q_t)
            + 2 * R * A(Q * fp.q_t)
            + Q * A(R * fp.q_t)
            + fp.r_t * A(Q * Q)
            + fp.q_t * A(R * Q)
            + Q * A(fp.r_t * Q)
        )
        assert lhs == rhs

    @pytest.mark.parametrize("n", (1, 3, 5))
    def test_probe_grid(self, n):
        probes = (Q, R, Q * R, QX)
        for f in probes:
            for g in probes:
                report = verify_aratyn_identities(n, f, g, depth=4)
                assert report.passed, (n, f, g, report.residual_lines()[:3])
