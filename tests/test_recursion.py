"""Recursion matrix construction, flow stepping, and the mKdV reduction."""

from fractions import Fraction

import pytest

import cckp
from cckp import diffring, recursion
from cckp.diffring import (
    DiffPoly,
    antiderivative,
    scale_substitute,
    substitute_r_to_q,
    swap_q_r,
)
from cckp.errors import OddScaleResidue, ResidualNonlocal
from cckp.hierarchy import CheckReport, FlowPair, bn, by_order, flow
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
    step_matrix,
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
        r11_chains = {chain for _, chain in mat.r11.terms}
        assert (R, DXINV, Q, DX) in r11_chains
        weights = {
            chain: w for w, chain in mat.r11.terms
        }
        assert weights[(R, DXINV, Q, DX)] == Fraction(-1)
        # 3q^2 appears as a pure multiplier in the off-diagonal entry.
        r12_weights = {chain: w for w, chain in mat.r12.terms}
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
        target = flow(9)
        assert out.q_t == target.q_t
        assert out.r_t == target.r_t

    @pytest.mark.slow
    def test_step_from_t11_reaches_t13(self):
        assert step(flow(11)) == flow(13)

    @pytest.mark.slow
    def test_step_from_t13_reaches_t15(self):
        assert step(flow(13)) == flow(15)

    @pytest.mark.slow
    def test_step_from_t15_reaches_t17(self):
        # The frontier of the recursion route, against the generator route.
        assert step(flow(15)) == flow(17)

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


class TestStepMatrix:
    # `step` runs the local-payload form; the paper's matrix is the oracle.
    _ENTRIES = ("r11", "r12", "r21", "r22")

    def test_payloads_are_local(self):
        mat = step_matrix()
        assert [len(getattr(mat, e).terms) for e in self._ENTRIES] == [8, 4, 4, 8]
        for entry in self._ENTRIES:
            for _, chain in getattr(mat, entry).terms:
                assert all(
                    f.is_local for f in chain if f is not DX and f is not DXINV
                )

    def test_mirror_entries_are_swap_images(self):
        mat = step_matrix()
        assert mat.r21 == op_swap(mat.r12)
        assert mat.r22 == op_swap(mat.r11)

    @pytest.mark.parametrize("entry", _ENTRIES)
    def test_series_equal_the_paper_matrix(self, entry):
        lhs = expand_to_psido(getattr(step_matrix(), entry), 8)
        rhs = expand_to_psido(getattr(build_matrix(), entry), 8)
        assert not residuals(lhs, rhs, 8)

    @pytest.mark.parametrize(
        "m", [*range(1, 12, 2), pytest.param(13, marks=pytest.mark.slow)]
    )
    def test_steps_equal_the_paper_matrix_steps(self, m):
        paper = step(flow(m), build_matrix())
        local = step(flow(m))
        assert local.m == paper.m == m + 2
        assert local.q_t == paper.q_t
        assert local.r_t == paper.r_t

    def test_step_chain_integrates_only_local_polynomials(self, monkeypatch):
        seen = []
        plain = diffring.integrate

        def recording(p):
            seen.append(p)
            return plain(p)

        with monkeypatch.context() as m:
            m.setattr(diffring, "integrate", recording)
            pair = flow(1)
            while pair.m < 11:
                pair = step(pair)
        assert len(seen) > 50
        assert all(p.is_local for p in seen)


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

    @pytest.mark.slow
    def test_chain_reaches_t13(self):
        # One application past the chain above, at the frontier.
        reduced_t11 = substitute_r_to_q(flow(11).q_t)
        reduced_t13 = substitute_r_to_q(flow(13).q_t)
        assert nl_apply(reduce_matrix(), reduced_t11) == reduced_t13

    @pytest.mark.parametrize("m", (1, 3))
    def test_commutes_with_step(self, m):
        fp = flow(m)
        stepped = step(fp)
        lhs = substitute_r_to_q(stepped.q_t)
        rhs = nl_apply(reduce_matrix(), substitute_r_to_q(fp.q_t))
        assert lhs == rhs

    def test_reduced_row_sum_equals_literal_by_expansion(self):
        # Both routes computed independently: substituting the two entries
        # and expanding, versus expanding the literal short form.  The
        # paper's matrix is tied to mKdV here, since reduce_matrix() does
        # not read it.
        from cckp.nonlocal_ops import substitute_r_to_q as op_sub

        rhs = expand_to_psido(mkdv_recursion_literal(), 6)
        for matrix in (build_matrix, step_matrix):
            mat = matrix()
            row = op_sub(mat.r11) + op_sub(mat.r12)
            lhs = expand_to_psido(row, 6)
            assert not residuals(lhs, rhs, 6), matrix.__name__

    def test_reduction_reads_the_local_payload_matrix(self):
        cckp.clear_caches()
        assert reduce_matrix() == mkdv_recursion_literal()
        assert step_matrix.cache_info().currsize == 1
        assert build_matrix.cache_info().currsize == 0


class TestScaling:
    def test_operator(self):
        assert scaled_mkdv_operator() == scaled_mkdv_literal()

    def test_payloads(self):
        scaled = scale_operator(
            IntDiffOperator(((8, term(Q * Q)),)), Fraction(1, 12)
        )
        u = DiffPoly.jet("u")
        assert scaled == IntDiffOperator(((Fraction(2, 3), term(u * u)),))

    def test_negative_scale_power_with_integer_lambda_sq(self):
        # The payload lam^-4 q^2 becomes u^2 and leaves (lam^2)^-1 = 1/4.
        op = IntDiffOperator(((1, term(DiffPoly.lam(-4) * Q * Q)),))
        u = DiffPoly.jet("u")
        assert scale_operator(op, 4) == IntDiffOperator(
            ((Fraction(1, 4), term(u * u)),)
        )

    @pytest.mark.parametrize(
        "chain",
        (
            (Q + Q * Q,),  # payload not homogeneous in q
            (Q, DXINV),  # odd q-degree along the chain
            (Q * R,),  # r left in a payload
        ),
        ids=("inhomogeneous", "odd-chain", "r-payload"),
    )
    def test_unscalable_operators_are_rejected(self, chain):
        with pytest.raises(OddScaleResidue):
            scale_operator(IntDiffOperator(((1, term(*chain)),)), 4)

    @pytest.mark.parametrize(
        "bad", ((Q, DXINV), (Q + Q * Q,)), ids=("odd-chain", "inhomogeneous")
    )
    def test_rejected_before_integration(self, monkeypatch, bad):
        # The atom-bearing payload comes first, but no payload is renamed
        # (and its atom integrated again) before every chain is checked.
        atom = antiderivative(Q * DiffPoly.jet("u", 1))
        op = IntDiffOperator(((1, term(atom * atom)), (1, term(*bad))))
        assert op.terms[0][1] == term(atom * atom)

        def no_integration(*args, **kwargs):
            raise AssertionError("antiderivative ran before the scaling check")

        monkeypatch.setattr(diffring, "antiderivative", no_integration)
        with pytest.raises(OddScaleResidue):
            scale_operator(op, 4)

    def test_float_scale_is_rejected(self):
        # 1/12 as a float is a binary fraction; only exact rationals scale,
        # and the check holds even when there is nothing to scale.
        for op in (reduce_matrix(), IntDiffOperator()):
            with pytest.raises(TypeError):
                scale_operator(op, 1 / 12)

    @pytest.mark.parametrize("lambda_sq", (0, Fraction(0), True, False), ids=repr)
    def test_lambda_sq_is_a_nonzero_rational(self, lambda_sq):
        negative = IntDiffOperator(((1, term(DiffPoly.lam(-4) * Q * Q)),))
        for op in (negative, reduce_matrix(), IntDiffOperator()):
            with pytest.raises(ValueError, match="lambda_sq"):
                scale_operator(op, lambda_sq)

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
        assert report.passed, report.residuals

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
        for f in PROBES:
            for g in PROBES:
                report = verify_aratyn_identities(n, f, g, depth=4)
                assert report.passed, (n, f, g, report.residuals[:3])

    def test_generic_identities_hold_to_t13(self):
        # One check over the free symbols v, w proves the first two
        # identities for every f and g.
        for n in range(1, 14, 2):
            assert recursion._generic_identities(n, 4) == ({}, {}), n

    @pytest.mark.parametrize("n", (1, 3, 5))
    def test_probes_agree_with_the_direct_computation(self, n):
        for f in PROBES:
            for g in PROBES:
                direct = recursion._operator_identities(n, f, g, 4)
                assert direct == ({}, {}), (n, f, g)
                assert verify_aratyn_identities(n, f, g, 4) == _direct_report(
                    n, f, g, 4
                )

    def test_a_broken_identity_reports_each_pair_directly(self, monkeypatch):
        # With B* replaced by B, identity 2 fails for v, w, and every probe
        # then reports the residuals of its own computation.
        monkeypatch.setattr(recursion, "adjoint", lambda a, depth=None: a)
        cckp.clear_caches()
        try:
            generic = recursion._generic_identities(3, 4)
            assert generic[1] and not generic[0]
            failed = 0
            for f in PROBES:
                for g in PROBES:
                    report = verify_aratyn_identities(3, f, g)
                    assert report == _direct_report(3, f, g, 4), (f, g)
                    failed += not report.passed
            assert failed == len(PROBES) ** 2
        finally:
            monkeypatch.undo()
            recursion._generic_identities.cache_clear()
        assert recursion._generic_identities(3, 4) == ({}, {})

    def test_generic_memo_is_typed(self):
        verify_aratyn_identities(3, Q, R, 1)
        for depth in (True, 1.0):
            with pytest.raises(ValueError, match="depth must be an int"):
                verify_aratyn_identities(3, Q, R, depth)


PROBES = (Q, R, Q * R, QX)


def _direct_report(n, f, g, depth):
    """The report of the three identities, each computed for this f and g."""
    res1, res2 = recursion._operator_identities(n, f, g, depth)
    res3 = recursion._product_identity(f, g, depth)
    return CheckReport.of(
        f"recursion-identities t_{n}",
        by_order(res1, "differential-part identity, ")
        + by_order(res2, "adjoint identity, ")
        + by_order(res3, "antiderivative product identity, "),
    )
