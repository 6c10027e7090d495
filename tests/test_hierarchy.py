"""Lax operator, flow generators, hierarchy flows, and consistency checks."""

import hashlib
import random
from fractions import Fraction
from functools import lru_cache

import pytest

import cckp
from cckp import diffring, hierarchy, recursion
from cckp.diffring import (
    DiffPoly,
    d_x,
    integrate,
    prolong_t,
    substitute_r_to_q,
    swap_q_r,
)
from cckp.errors import DepthExhausted
from cckp.grammar import poly_text
from cckp.hierarchy import (
    FlowPair,
    bn,
    check_lax,
    check_residue_coefficients,
    check_skew,
    check_generator_adjoint,
    flow,
    lax_operator,
    lax_power,
    right_coefficients,
    residue_identity,
)
from cckp.psido import PsiDO, adjoint, compose, plus_part, residue

from conftest import P, SEED, memo_sizes

Q = DiffPoly.jet("q")
R = DiffPoly.jet("r")

B3_EXPECTED = {
    3: DiffPoly.one(),
    1: 6 * Q * R,
    0: P("3*r*q' + 3*q*r'"),
}

B5_EXPECTED = {
    5: DiffPoly.one(),
    3: 10 * Q * R,
    2: P("15*r*q' + 15*q*r'"),
    1: P("15*q*r'' + 15*r*q'' + 40*q^2*r^2 + 20*q'*r'"),
    0: P(
        "40*q*r^2*q' + 40*r*q^2*r' + 5*q*r[3] + 5*r*q[3]"
        " + 10*q'*r'' + 10*r'*q''"
    ),
}

T3_Q = P("q[3] + 9*q*r*q' + 3*q^2*r'")
T3_R = P("r[3] + 9*q*r*r' + 3*r^2*q'")
T5_Q = P(
    "q[5]+15*q*r*q[3]+30*r*q'*q''+25*q*r'*q''+25*q*q'*r''"
    "+80*q^2*r^2*q'+20*q'*r'*q'+40*r*q^3*r'+5*q^2*r[3]"
)
T5_R = P(
    "r[5]+15*q*r*r[3]+30*q*r'*r''+25*r*q'*r''+25*r*r'*q''"
    "+80*q^2*r^2*r'+20*q'*r'*r'+40*q*r^3*q'+5*r^2*q[3]"
)


def naive_compose_psido(a: PsiDO, b: PsiDO, depth: int) -> dict:
    """Independent Leibniz expansion used as the oracle for L powers."""
    out = {}
    for k, ak in a.coeffs.items():
        for l, bl in b.coeffs.items():
            j = 0
            while True:
                n = k + l - j
                if n < -depth:
                    break
                coeff = Fraction(1)
                for i in range(j):
                    coeff *= Fraction(k - i, i + 1)
                if coeff:
                    term = ak * d_x(bl, j) * coeff
                    if not term.is_zero:
                        out[n] = out.get(n, DiffPoly.zero()) + term
                j += 1
                if k >= 0 and j > k:
                    break
    return {k: v for k, v in out.items() if not v.is_zero}


def reference_lax_operator(depth: int) -> PsiDO:
    """L with its tail built by differentiating r and q term by term."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    coeffs = {1: DiffPoly.one()}
    for f, g in ((Q, R), (R, Q)):
        gk = g
        for j in range(depth):
            sign = -1 if j % 2 else 1
            order = -1 - j
            coeffs[order] = coeffs.get(order, DiffPoly.zero()) + f * gk * sign
            gk = d_x(gk)
    return PsiDO(coeffs, depth)


@lru_cache(maxsize=None)
def reference_lax_power(n: int, depth: int | None = None) -> PsiDO:
    """L^n by composing whole operators, each L taken at the same depth."""
    if depth is None:
        depth = n + 3
    if n == 1:
        return reference_lax_operator(depth)
    return compose(
        reference_lax_operator(depth), reference_lax_power(n - 1, depth)
    )


def reference_bn(n: int, depth: int | None = None) -> PsiDO:
    if n <= 0 or n % 2 == 0:
        raise ValueError("the hierarchy has odd flows only")
    if depth is not None and depth < n:
        raise DepthExhausted("generator depth")
    return plus_part(reference_lax_power(n, depth))


def outcome(fn, *args):
    """The value of fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except (ValueError, DepthExhausted) as exc:
        return type(exc)


class TestLaxOperator:
    def test_leading_coefficients(self):
        lax = lax_operator(4)
        assert lax.coeffs[1] == DiffPoly.one()
        assert lax.coeffs[-1] == 2 * Q * R
        assert lax.coeffs[-2] == -(Q * d_x(R) + R * d_x(Q))

    @pytest.mark.parametrize("depth", (1, 2, 8, 14))
    def test_matches_termwise_tail(self, depth):
        # L is read off L^1; the reference builds its tail term by term.
        lax = lax_operator(depth)
        assert lax.trunc_depth == depth
        assert lax.coeffs == reference_lax_operator(depth).coeffs

    def test_skew_to_depth_8(self):
        report = check_skew(8)
        assert report.passed
        assert not report.residuals

    def test_skew_depth_1(self):
        assert check_skew(1).passed

    def test_non_skew_detected(self):
        # q d^-1 r alone is not skew: the defect first shows at order -2.
        coeffs = {1: DiffPoly.one()}
        g = R
        for j in range(4):
            coeffs[-1 - j] = Q * g * (-1 if j % 2 else 1)
            g = d_x(g)
        skewless = PsiDO(coeffs, 4)
        total = adjoint(skewless, 4) + skewless
        assert residue(total).is_zero
        assert total.coeffs[-2] == d_x(Q) * R - Q * d_x(R)


class TestGenerators:
    def test_b1(self):
        assert bn(1).coeffs == {1: DiffPoly.one()}

    def test_b3(self):
        assert bn(3).coeffs == B3_EXPECTED

    def test_b5(self):
        assert bn(5).coeffs == B5_EXPECTED

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            bn(2)

    def test_power_below_one_rejected(self):
        for n in (0, -1):
            with pytest.raises(ValueError):
                lax_power(n)

    @pytest.mark.parametrize(
        "bad", (True, False, 3.0, 1.0, Fraction(3), Fraction(2), "3", 0),
        ids=repr,
    )
    def test_indices_must_be_ints(self, bad):
        # bool is an int subclass and 3.0 hashes like 3: neither may pass
        # as a flow index or read a memo entry of one.
        flow(1)
        flow(3)
        for fn in (bn, flow, lax_power, lax_operator):
            with pytest.raises(ValueError, match="must be an int"):
                fn(bad)
        with pytest.raises(ValueError, match="must be an int"):
            lax_power(1, bad)
        assert flow(1) == FlowPair(1, d_x(Q), d_x(R))

    def test_square_has_known_differential_part(self):
        two = lax_power(2)
        assert {k: v for k, v in two.coeffs.items() if k >= 0} == {
            2: DiffPoly.one(),
            0: 4 * Q * R,
        }

    def test_square_residue_vanishes(self):
        assert residue(lax_power(2)).is_zero

    def test_square_minus_part_matches_eigenfunction_expansion(self):
        # The integral tail of the squared operator assembles from its action
        # on the eigenfunctions.
        from cckp.nonlocal_ops import DXINV, IntDiffOperator, expand_to_psido, term
        from cckp.recursion import eigen_image_q, eigen_image_r

        lam_q, lam_r = eigen_image_q(), eigen_image_r()
        chains = IntDiffOperator(
            (
                (1, term(Q, DXINV, -lam_r)),
                (1, term(R, DXINV, -lam_q)),
                (1, term(lam_q, DXINV, R)),
                (1, term(lam_r, DXINV, Q)),
            )
        )
        expanded = expand_to_psido(chains, 4)
        two = lax_power(2, 6)
        for k in range(-1, -5, -1):
            assert two.coeffs.get(k, DiffPoly.zero()) == expanded.coeffs.get(
                k, DiffPoly.zero()
            )

    def test_cube_against_naive_oracle(self):
        # The oracle loses one trusted order per composition with L (top 1),
        # so with L at depth 10 the cube is exact down to order -8.
        lax = lax_operator(10)
        oracle_sq = naive_compose_psido(lax, lax, 9)
        oracle_cube = naive_compose_psido(PsiDO(oracle_sq, 9), lax, 8)
        engine = lax_power(3, 10)
        for k in range(3, -9, -1):
            assert engine.coeffs.get(k, DiffPoly.zero()) == oracle_cube.get(
                k, DiffPoly.zero()
            )

    @pytest.mark.parametrize("n", (*range(1, 8), 9, 11))
    def test_memoized_power_matches_iterated_compose(self, n):
        # Same coefficients, trusted depth and errors as composing whole
        # operators, on every depth from too shallow to past the default
        # (for n = 9 and 11, the depths around the first trusted one).
        # bn is exact, so it matches the reference wherever that is trusted.
        depths = range(12) if n < 8 else range(n - 2, n + 1)
        for depth in (*depths, None):
            assert outcome(lax_power, n, depth) == outcome(
                reference_lax_power, n, depth
            )
            expected = outcome(reference_bn, n, depth)
            if expected is not DepthExhausted:
                assert outcome(bn, n) == expected

    def test_generator_table_differentiates_only_the_tails(self, monkeypatch):
        # L^k = L^(k-1) o L: the Leibniz rule meets only L's own tails.
        hierarchy.clear_caches()
        seen = []

        def spy(p, n=1):
            seen.append(p)
            return d_x(p, n)

        monkeypatch.setattr(hierarchy, "d_x", spy)
        bn(11)
        monkeypatch.undo()
        hierarchy._lax_tail.cache_clear()
        allowed = {hierarchy._lax_tail(i) for i in range(1, 12)} | {Q, R}
        assert seen
        assert all(p in allowed for p in seen)

    def test_generator_table_makes_one_product_per_order(self, monkeypatch):
        # The tails that meet one coefficient c d^s of L^(k-1) on the way
        # to d^j are summed first, so each (k, j, s) costs at most one ring
        # product, not one per tail and derivative order.
        hierarchy.clear_caches()
        for i in range(1, 11):
            hierarchy._lax_tail(i)
        calls = 0
        mul = DiffPoly.__mul__

        def spy(self, other):
            nonlocal calls
            calls += 1
            return mul(self, other)

        monkeypatch.setattr(DiffPoly, "__mul__", spy)
        bn(11)
        monkeypatch.undo()
        reached, todo = set(), [(11, j) for j in range(12)]
        while todo:
            k, j = todo.pop()
            if k > 0 and (k, j) not in reached:
                reached.add((k, j))
                todo += [(k - 1, s) for s in (j - 1, *range(j + 1, k))]
        triples = sum(len(range(j + 1, k)) for k, j in reached)
        assert 0 < calls <= triples

    def test_hot_sums_make_no_ring_additions(self, monkeypatch):
        # The L^k table, B_n applied to q and the nonlocal chain tree sum
        # their pieces in one poly_sum; every product is still a ring product.
        from cckp.nonlocal_ops import apply as apply_chains

        r11, q3 = recursion.build_matrix().r11, flow(3).q_t
        hierarchy.clear_caches()
        calls = dict.fromkeys(("__add__", "__mul__"), 0)

        def spying(name):
            method = getattr(DiffPoly, name)

            def spy(self, other):
                calls[name] += 1
                return method(self, other)

            return spy

        for name in calls:
            monkeypatch.setattr(DiffPoly, name, spying(name))
        bn(11)
        assert calls["__add__"] == 0 and calls["__mul__"] > 0
        apply_chains(r11, q3)
        assert calls["__add__"] == 0

    def test_cube_residue_identity(self):
        cube = lax_power(3)
        qr_t3 = prolong_t(Q * R, T3_Q, T3_R)
        assert d_x(residue(cube)) == 2 * qr_t3


class TestFlows:
    def test_t1(self):
        fp = flow(1)
        assert fp.q_t == d_x(Q)
        assert fp.r_t == d_x(R)

    def test_t3(self):
        fp = flow(3)
        assert fp.q_t == T3_Q
        assert fp.r_t == T3_R

    def test_t5(self):
        fp = flow(5)
        assert fp.q_t == T5_Q
        assert fp.r_t == T5_R

    def test_locality(self):
        for n in (1, 3, 5, 7):
            fp = flow(n)
            assert fp.q_t.is_local
            assert fp.r_t.is_local

    def test_swap_symmetry(self):
        for n in (1, 3, 5, 7):
            fp = flow(n)
            assert swap_q_r(fp.q_t) == fp.r_t

    def test_reduction_consistency(self):
        for n in (3, 5):
            fp = flow(n)
            assert substitute_r_to_q(fp.q_t) == substitute_r_to_q(fp.r_t)

    def test_flows_commute(self):
        f3, f5 = flow(3), flow(5)
        mixed_35 = prolong_t(f5.q_t, f3.q_t, f3.r_t)
        mixed_53 = prolong_t(f3.q_t, f5.q_t, f5.r_t)
        assert mixed_35 == mixed_53
        mixed_35r = prolong_t(f5.r_t, f3.q_t, f3.r_t)
        mixed_53r = prolong_t(f3.r_t, f5.q_t, f5.r_t)
        assert mixed_35r == mixed_53r

    @pytest.mark.parametrize(
        "m, n", [(m, n) for n in (3, 5, 7) for m in range(1, n, 2)]
    )
    def test_flows_commute_pairwise(self, m, n):
        # Not assumed by the construction: each flow is (L^n)_+ on its own.
        fm, fn = flow(m), flow(n)
        assert prolong_t(fn.q_t, fm.q_t, fm.r_t) == prolong_t(
            fm.q_t, fn.q_t, fn.r_t
        )
        assert prolong_t(fn.r_t, fm.q_t, fm.r_t) == prolong_t(
            fm.r_t, fn.q_t, fn.r_t
        )

    @pytest.mark.parametrize("n", (1, 3, 5))
    @pytest.mark.parametrize("m", (1, 3, 5))
    def test_residues_are_conserved_densities(self, n, m):
        fm = flow(m)
        density_t = prolong_t(residue(lax_power(n)), fm.q_t, fm.r_t)
        _, remainder = integrate(density_t)
        assert remainder.is_zero

    def test_clear_caches_covers_the_hierarchy(self):
        before = flow(5)
        identities = recursion.verify_aratyn_identities(3, Q, R)
        stepped = recursion.step(flow(3))
        assert recursion.step(flow(3), recursion.build_matrix()) == stepped
        assert any(len(work) > 1 for work in diffring._NF_ATOM_CACHE)
        filled = {label for label, size in memo_sizes().items() if size}
        assert filled >= {
            "cckp.recursion._generic_identities",
            "cckp.recursion._order_identities",
            "cckp.recursion._product_identity",
            "cckp.recursion.build_matrix",
            "cckp.recursion.step_matrix",
            "cckp.hierarchy._lax_tail",
            "cckp.hierarchy._tail_sum",
            "cckp.hierarchy._power_coeff",
            "cckp.hierarchy.flow",
            "cckp.diffring._NF_ATOM_CACHE",
        }
        cckp.clear_caches()
        # Every lru_cache of every loaded cckp module and every table of
        # the engine, found by walking the modules rather than by name.
        assert set(memo_sizes().values()) == {0}
        assert recursion.step(flow(3)) == stepped
        after = flow(5)
        assert after == before
        assert after is not before
        assert recursion.verify_aratyn_identities(3, Q, R) == identities

    @pytest.mark.slow
    def test_generator_route_digest_survives_clear_caches(self):
        # A digest is the sha256 of poly_text(q_t), then poly_text(r_t),
        # for t_1, t_3, ..., t_17.  Flows kept from the first pass carry
        # packs that outlive the cleared tables, and a product with other
        # jets first would take the first slots of a layout assigned in
        # use order; neither may change a byte.
        def digest():
            h = hashlib.sha256()
            for n in range(1, 18, 2):
                pair = flow(n)
                h.update(poly_text(pair.q_t).encode())
                h.update(poly_text(pair.r_t).encode())
            return h.hexdigest()[:8]

        assert digest() == "4046f9f8"
        a, b = flow(5).q_t, flow(3).r_t
        product = a * b
        cckp.clear_caches()
        assert P("r[7]*u[2] + 1") * P("r[3]^2 + q") == P(
            "r[3]^2*r[7]*u[2] + q*r[7]*u[2] + r[3]^2 + q"
        )
        assert a * b == product
        assert digest() == "4046f9f8"

    def test_flowpair_validation(self):
        with pytest.raises(ValueError):
            FlowPair(2, d_x(Q), d_x(R))
        for m in (True, 3.0, Fraction(3), Fraction(2), -1):
            with pytest.raises(ValueError, match="must be an int"):
                FlowPair(m, d_x(Q), d_x(R))
        from cckp.diffring import antiderivative

        with pytest.raises(ValueError):
            FlowPair(1, antiderivative(Q * Q), d_x(R))


class TestLaxEquation:
    def test_t1(self):
        assert check_lax(1, 2).passed

    def test_t3(self):
        report = check_lax(3, 4)
        assert report.passed, report.residuals

    def test_t5(self):
        report = check_lax(5, 3)
        assert report.passed, report.residuals

    def test_bracket_matches_prolonged_coefficients(self):
        # Independent restatement of the t_3 equation: each trusted
        # coefficient of the bracket equals the prolonged coefficient of L.
        depth = 3
        lax = lax_operator(3 + depth)
        bracket = compose(bn(3), lax) - compose(lax, bn(3))
        f3 = flow(3)
        for k in range(4, -depth - 1, -1):
            dt = prolong_t(
                lax.coeffs.get(k, DiffPoly.zero()), f3.q_t, f3.r_t
            )
            assert bracket.coeffs.get(k, DiffPoly.zero()) == dt


def _full_depth_lax(n, depth):
    """`check_lax` with dL/dt_n prolonged to the bracket's depth n + depth."""
    lhs = hierarchy.lax_time_derivative(n, n + depth)
    rhs = hierarchy.commutator(bn(n), lax_operator(n + depth))
    return hierarchy.CheckReport.of(
        f"lax-equation t_{n}",
        hierarchy.by_order(hierarchy.residuals(lhs, rhs, depth)),
    )


def _full_depth_residues(m):
    """`check_residue_coefficients` with L^m at its default depth m + 3."""
    a1, a2 = right_coefficients(lax_power(m), 2)
    qr_t = hierarchy.prolong_flow(Q * R, m)
    pairs = (
        ("d_x(a_1) - 2*(qr)_t", d_x(a1) - 2 * qr_t),
        ("a_2 - (qr)_t", a2 - qr_t),
    )
    return hierarchy.CheckReport.of(
        f"residue-coefficients t_{m}",
        [(label, diff) for label, diff in pairs if not diff.is_zero],
    )


def _perturbed_flows(monkeypatch):
    """Patch `hierarchy.flow` so every q_t gains a term q, on clean caches."""
    cckp.clear_caches()
    exact = hierarchy.flow

    def perturbed(n):
        pair = exact(n)
        return FlowPair(pair.m, pair.q_t + Q, pair.r_t)

    monkeypatch.setattr(hierarchy, "flow", perturbed)


class TestOnlyComparedOrders:
    # check_lax prolongs only the orders of L it compares, and
    # check_residue_coefficients builds L^m only to order -2; both give
    # the reports of the full-depth computation, passing or failing.

    @pytest.mark.parametrize("n", (1, 3, 5, 7))
    def test_lax_matches_the_full_depth_check(self, n):
        for depth in range(1, 5):
            report = check_lax(n, depth)
            assert report.passed, (n, depth)
            assert report == _full_depth_lax(n, depth), (n, depth)

    def test_lax_prolongs_only_the_compared_orders(self, monkeypatch):
        # L to depth d has orders 1, -1, ..., -d: d + 1 coefficients.
        prolonged = []

        def counting(p, q_t, r_t):
            prolonged.append(p)
            return prolong_t(p, q_t, r_t)

        monkeypatch.setattr(hierarchy, "prolong_t", counting)
        for n, depth in ((3, 1), (3, 2), (7, 4)):
            prolonged.clear()
            assert check_lax(n, depth).passed
            assert len(prolonged) == depth + 1, (n, depth)

    def test_residues_build_the_power_to_order_minus_two(self, monkeypatch):
        built = []

        def recording(n, depth=None):
            built.append(power := lax_power(n, depth))
            return power

        monkeypatch.setattr(hierarchy, "lax_power", recording)
        assert check_residue_coefficients(5).passed
        assert [power.trunc_depth for power in built] == [2]

    def test_lax_at_depth_zero(self):
        # Orders 1 and 0 of L are constant, so depth 0 would compare
        # nothing the flow reaches and pass for any flow.
        with pytest.raises(
            ValueError, match="^comparison depth must be an int >= 1, not 0$"
        ):
            check_lax(3, 0)

    def test_a_wrong_flow_fails_both_lax_checks_alike(self, monkeypatch):
        _perturbed_flows(monkeypatch)
        try:
            for n in (1, 3, 5):
                for depth in range(1, 4):
                    report = check_lax(n, depth)
                    assert report == _full_depth_lax(n, depth), (n, depth)
                    assert not report.passed, (n, depth)
        finally:
            monkeypatch.undo()
            cckp.clear_caches()
        assert check_lax(3, 2).passed

    @pytest.mark.parametrize("m", (1, 3, 5, 7))
    def test_residues_match_the_full_depth_check(self, m):
        report = check_residue_coefficients(m)
        assert report.passed, m
        assert report == _full_depth_residues(m)

    def test_a_wrong_flow_fails_both_residue_checks_alike(self, monkeypatch):
        _perturbed_flows(monkeypatch)
        try:
            for m in (1, 3, 5):
                report = check_residue_coefficients(m)
                assert not report.passed, m
                assert report == _full_depth_residues(m), m
        finally:
            monkeypatch.undo()
            cckp.clear_caches()
        assert check_residue_coefficients(3).passed

    def test_lax_depth_is_checked_at_entry(self):
        for depth in (True, 2.0, 0, -1, "x"):
            with pytest.raises(
                ValueError,
                match=f"^comparison depth must be an int >= 1, not {depth!r}$",
            ):
                check_lax(3, depth)

    def test_residue_power_is_checked_at_entry(self):
        for m in (True, 3.0, 0, "x"):
            with pytest.raises(
                ValueError, match=f"^power must be an int >= 1, not {m!r}$"
            ):
                check_residue_coefficients(m)


class TestResidueCoefficients:
    def test_m1_values(self):
        a1, a2 = right_coefficients(lax_power(1), 2)
        assert a1 == 2 * Q * R
        assert a2 == d_x(Q * R)

    @pytest.mark.parametrize("m", (1, 3, 5))
    def test_identities(self, m):
        report = check_residue_coefficients(m)
        assert report.passed, report.residuals

    @pytest.mark.parametrize("m", (1, 3, 5))
    def test_residue_derivative_identity(self, m):
        assert residue_identity(m).is_zero

    def test_count_past_the_trusted_depth(self):
        # a_j is read at order -j, below the trusted depth T when j > T.
        power = lax_power(3)
        depth = power.trunc_depth
        assert len(right_coefficients(power, depth)) == depth
        for count in (depth + 1, depth + 3):
            with pytest.raises(DepthExhausted):
                right_coefficients(power, count)
        with pytest.raises(DepthExhausted):
            right_coefficients(PsiDO({1: Q}, 0), 1)

    @pytest.mark.parametrize("m", (1, 3, 5, 7))
    def test_right_form_reconstructs(self, m):
        # Right coefficients reassemble the integral tail exactly.
        power = lax_power(m)
        coeffs = right_coefficients(power, 4)
        total = PsiDO.zero(4)
        for j, aj in enumerate(coeffs, start=1):
            if aj.is_zero:
                continue
            total = total + compose(PsiDO.d(-j), PsiDO.from_poly(aj), 4)
        for k in range(-1, -5, -1):
            assert total.coeffs.get(k, DiffPoly.zero()) == power.coeffs.get(
                k, DiffPoly.zero()
            )

    @pytest.mark.parametrize("m", (1, 3, 5))
    def test_projected_product_form(self, m):
        # The differential part of B_2 composed with the integral tail of
        # the m-th power is exactly d*a_1 + a_2.
        from cckp.psido import minus_part, plus_part

        b2 = plus_part(lax_power(2))
        tail = minus_part(lax_power(m))
        projected = plus_part(compose(b2, tail))
        a1, a2 = right_coefficients(lax_power(m), 2)
        expected = compose(PsiDO.d(1), PsiDO.from_poly(a1)) + PsiDO.from_poly(
            a2
        )
        assert projected.coeffs == plus_part(expected).coeffs


class TestGeneratorAdjoint:
    @pytest.mark.parametrize("n", (1, 3, 5))
    def test_skew(self, n):
        # For odd flows the generator is skew, which reconciles the two
        # eigenfunction evolution conventions.
        assert check_generator_adjoint(n).passed
